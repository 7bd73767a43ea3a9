//! Issue and execute: age-ordered select under functional-unit and LSQ
//! port limits, oracle-exact load/store disambiguation, and data-cache
//! accesses.

use super::{push_counted, Simulator, UopId};
use mmt_isa::{Inst, MemSharing};
use mmt_obs::TraceEvent;

impl Simulator {
    /// Issue up to `issue_width` ready uops, oldest first. Returns
    /// whether any issued.
    pub(super) fn issue_stage(&mut self) -> bool {
        let mut budget = self.cfg.issue_width;
        let mut alu = self.cfg.int_alus;
        let mut fpu = self.cfg.fpus;
        let mut ports = self.cfg.lsq_ports;

        // Age-ordered select: the IQ vector is in dispatch order; collect
        // issued entries and remove them afterwards so the scan order
        // stays oldest-first. The collection buffer is recycled scratch
        // (taken out for the loop because `execute_mem` needs `&mut self`).
        let mut issued_ids = std::mem::take(&mut self.scratch.issued_ids);
        issued_ids.clear();
        let mut i = 0;
        while i < self.iq.len() {
            if budget == 0 {
                break;
            }
            let id = self.iq[i];
            if !self.operands_ready(id) {
                i += 1;
                continue;
            }
            let (class, accesses, is_mem) = {
                let u = &self.uops[id];
                (u.class, u.accesses, u.is_mem)
            };
            // Functional-unit / port availability.
            let ok = if is_mem {
                if accesses > self.cfg.lsq_ports {
                    ports == self.cfg.lsq_ports // needs a full-width burst
                } else {
                    ports >= accesses
                }
            } else if class.is_fpu() {
                fpu > 0
            } else {
                alu > 0
            };
            if !ok {
                i += 1;
                continue;
            }

            // Consume resources and compute completion.
            budget -= 1;
            let complete_at = if is_mem {
                let consumed = accesses.min(self.cfg.lsq_ports);
                ports -= consumed;
                // Serialization beyond the port width adds cycles.
                let extra = (accesses.saturating_sub(1) / self.cfg.lsq_ports) as u64;
                self.execute_mem(id) + extra
            } else {
                if class.is_fpu() {
                    fpu -= 1;
                } else {
                    alu -= 1;
                }
                self.now + class.latency()
            };
            self.uops[id].complete_at = Some(complete_at);
            if self.obs.is_some() {
                let (pc, mask) = (self.uops[id].pc, self.uops[id].itid.mask());
                self.emit(TraceEvent::Issue {
                    pc,
                    mask,
                    complete_at,
                });
            }
            self.stats.energy.executions += 1;
            self.stats.energy.regfile_reads += self.uops[id].inst.sources().len() as u64;
            self.stats.uops_executed += 1;
            push_counted(&mut issued_ids, id, &mut self.stats.scratch_growth_events);
            i += 1;
        }
        let issued = !issued_ids.is_empty();
        if issued {
            self.iq.retain(|id| !issued_ids.contains(id));
        }
        self.scratch.issued_ids = issued_ids;
        issued
    }

    /// Whether every producer of `id` has completed by now.
    ///
    /// While some producer is unissued this polls them, starting with
    /// the one that blocked the last poll. Once all have issued it
    /// caches their latest completion in [`Uop::ready_at`](super::Uop),
    /// and from then on the test is one comparison. The cache is exact:
    /// `complete_at` is fixed at issue, a producer that retires later
    /// completed before it retired, and stores dispatched after the load
    /// are younger, so never among its producers.
    fn operands_ready(&mut self, id: UopId) -> bool {
        let u = &self.uops[id];
        if let Some(ready_at) = u.ready_at {
            return ready_at <= self.now;
        }
        if let Some((b, seq)) = u.blocked_by {
            if self.uops[b].seq == seq && self.uops[b].complete_at.is_none() {
                return false;
            }
        }
        match self.producers_ready_at(id) {
            Ok(ready_at) => {
                self.uops[id].ready_at = Some(ready_at);
                ready_at <= self.now
            }
            Err(blocker) => {
                self.uops[id].blocked_by = Some(blocker);
                false
            }
        }
    }

    /// The latest completion cycle among `id`'s live producers — its
    /// register deps and, for a load, the older same-address stores of
    /// each owning thread (oracle-exact disambiguation; completed stores
    /// forward) — or `Err((slot, seq))` naming an unissued one.
    pub(super) fn producers_ready_at(&self, id: UopId) -> Result<u64, (UopId, u64)> {
        let u = &self.uops[id];
        let mut ready_at = 0;
        for &(d, seq) in &u.deps {
            let p = &self.uops[d];
            // A seq mismatch means the producer retired and its slot was
            // recycled — retired implies completed.
            if p.seq != seq {
                continue;
            }
            ready_at = ready_at.max(p.complete_at.ok_or((d, seq))?);
        }
        if !matches!(u.inst, Inst::Ld { .. }) {
            return Ok(ready_at);
        }
        for t in u.itid.threads() {
            let addr = u.infos[t]
                .as_ref()
                .and_then(|i| i.mem_addr)
                .expect("load has an address");
            for &(sid, saddr) in &self.store_lists[t] {
                // In-flight stores are always live, so seq ordering is the
                // dispatch ordering the recycled slot ids no longer carry.
                let s = &self.uops[sid];
                if s.seq < u.seq && saddr == addr {
                    ready_at = ready_at.max(s.complete_at.ok_or((sid, s.seq))?);
                }
            }
        }
        Ok(ready_at)
    }

    fn execute_mem(&mut self, id: UopId) -> u64 {
        let (itid, inst) = {
            let u = &self.uops[id];
            (u.itid, u.inst)
        };
        let is_store = matches!(inst, Inst::St { .. });
        let mut done = self.now + 1;
        match self.sharing {
            MemSharing::Shared => {
                // One access regardless of merging: memory is shared.
                let lead = itid.lead();
                let addr = self.uops[id].infos[lead]
                    .as_ref()
                    .and_then(|i| i.mem_addr)
                    .expect("mem uop has an address");
                let out = self.hierarchy.access_data(0, addr, self.now, is_store);
                done = done.max(out.completes_at);
            }
            MemSharing::PerThread => {
                // The LSQ expands merged accesses and performs them
                // separately (Table 2); completion is the slowest.
                for t in itid.threads() {
                    let addr = self.uops[id].infos[t]
                        .as_ref()
                        .and_then(|i| i.mem_addr)
                        .expect("mem uop has an address");
                    let out = self.hierarchy.access_data(t, addr, self.now, is_store);
                    done = done.max(out.completes_at);
                }
            }
        }
        done
    }
}
