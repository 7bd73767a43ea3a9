//! Issue and execute: age-ordered select under functional-unit and LSQ
//! port limits, oracle-exact load/store disambiguation, and data-cache
//! accesses.

use super::{push_counted, Simulator, UopId};
use mmt_isa::{Inst, MemSharing};
use mmt_obs::TraceEvent;

impl Simulator {
    pub(super) fn issue_stage(&mut self) {
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
            if !self.deps_ready(id) || !self.mem_ready(id) {
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
            {
                let u = &mut self.uops[id];
                u.issued = true;
                u.complete_at = Some(complete_at);
            }
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
        if !issued_ids.is_empty() {
            self.iq.retain(|id| !issued_ids.contains(id));
        }
        self.scratch.issued_ids = issued_ids;
    }

    fn deps_ready(&self, id: UopId) -> bool {
        self.uops[id].deps.iter().all(|&(d, seq)| {
            let dep = &self.uops[d];
            // A seq mismatch means the producer retired and its slot was
            // recycled — retired implies completed.
            dep.seq != seq || dep.completed(self.now)
        })
    }

    /// Loads must wait for older overlapping stores from the same thread
    /// to complete (oracle-exact disambiguation; completed stores forward).
    fn mem_ready(&self, id: UopId) -> bool {
        let u = &self.uops[id];
        if !matches!(u.inst, Inst::Ld { .. }) {
            return true;
        }
        for t in u.itid.threads() {
            let addr = u.infos[t]
                .as_ref()
                .and_then(|i| i.mem_addr)
                .expect("load has an address");
            for &(sid, saddr) in &self.store_lists[t] {
                // In-flight stores are always live, so seq ordering is the
                // dispatch ordering the recycled slot ids no longer carry.
                if self.uops[sid].seq < u.seq
                    && saddr == addr
                    && !self.uops[sid].completed(self.now)
                {
                    return false;
                }
            }
        }
        true
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
