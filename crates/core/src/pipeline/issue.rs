//! Issue and execute: age-ordered select under functional-unit and LSQ
//! port limits, oracle-exact load/store disambiguation, and data-cache
//! accesses.

use super::{Simulator, UopId};
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

        // Age-ordered select over the IQ, which is in dispatch order. It
        // compacts as it scans: entries that stay are copied down to
        // `kept`, which trails `i` once something has issued, and the
        // gap is closed after the loop, so the IQ stays oldest-first.
        let mut kept = 0;
        let mut i = 0;
        while i < self.iq.len() {
            if budget == 0 {
                break;
            }
            let id = self.iq[i];
            i += 1;
            if !self.operands_ready(id) {
                self.iq[kept] = id;
                kept += 1;
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
                self.iq[kept] = id;
                kept += 1;
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
        }
        self.iq.drain(kept..i);
        kept < i
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
            let addr = u.lanes[t].addr;
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
                let addr = self.uops[id].lanes[itid.lead()].addr;
                let out = self.hierarchy.access_data(0, addr, self.now, is_store);
                done = done.max(out.completes_at);
            }
            MemSharing::PerThread => {
                // The LSQ expands merged accesses and performs them
                // separately (Table 2); completion is the slowest.
                for t in itid.threads() {
                    let addr = self.uops[id].lanes[t].addr;
                    let out = self.hierarchy.access_data(t, addr, self.now, is_store);
                    done = done.max(out.completes_at);
                }
            }
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use crate::{MmtLevel, RunSpec, SimConfig, Simulator};
    use mmt_isa::asm::Builder;
    use mmt_isa::interp::Memory;
    use mmt_isa::{MemSharing, Reg};

    /// A simulator stepped until its IQ holds at least two entries: a
    /// chain of loads that each wait on the previous one.
    fn sim_with_waiting_iq() -> Simulator {
        let mut b = Builder::new();
        for _ in 0..16 {
            b.ld(Reg::R1, Reg::R1, 0);
        }
        b.halt();
        let spec = RunSpec {
            program: b.build().unwrap(),
            sharing: MemSharing::Shared,
            memories: vec![Memory::new(0)],
            threads: 1,
        };
        let mut sim = Simulator::new(SimConfig::paper_with(1, MmtLevel::Base), spec).unwrap();
        while sim.iq.len() < 2 {
            assert!(!sim.finished(), "the load chain never filled the IQ");
            sim.step_cycle().unwrap();
        }
        sim
    }

    #[test]
    fn validate_rejects_an_out_of_order_iq() {
        let mut sim = sim_with_waiting_iq();
        sim.validate().expect("a stepped pipeline validates clean");
        sim.iq.swap(0, 1);
        let err = sim.validate().expect_err("a swapped IQ must not validate");
        assert!(err.contains("oldest-first"), "{err}");
        let dup = sim.iq[1];
        sim.iq[0] = dup;
        let err = sim.validate().expect_err("a duplicate must not validate");
        assert!(err.contains("oldest-first"), "{err}");
    }

    #[test]
    fn validate_rejects_an_issued_iq_entry() {
        let mut sim = sim_with_waiting_iq();
        let id = sim.iq[1];
        sim.uops[id].complete_at = Some(sim.now);
        let err = sim
            .validate()
            .expect_err("an issued entry must not validate");
        assert!(err.contains("already issued"), "{err}");
    }
}
