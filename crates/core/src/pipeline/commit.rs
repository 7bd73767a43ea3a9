//! Commit: in-order retirement per thread (a merged uop retires once it
//! heads every owning thread's queue) and commit-time register merging
//! (Section 4.2.7).

use super::{push_counted, Simulator, UopId};
use mmt_isa::Inst;
use mmt_obs::TraceEvent;

impl Simulator {
    /// Retire up to `commit_width` completed uops. Returns whether any
    /// retired.
    pub(super) fn commit_stage(&mut self) -> bool {
        let mut budget = self.cfg.commit_width;
        let mut merge_checks = self.cfg.merge_checks_per_cycle;
        while budget > 0 {
            // Find the oldest uop (by seq — slot ids are recycled) that is
            // at the head of EVERY owning thread's queue and has completed
            // execution.
            let mut candidate: Option<UopId> = None;
            for t in &self.threads {
                if let Some(&head) = t.commit_queue.front() {
                    if self.uops[head].completed(self.now)
                        && self.uops[head]
                            .itid
                            .threads()
                            .all(|u| self.threads[u].commit_queue.front() == Some(&head))
                        && candidate.is_none_or(|c| self.uops[head].seq < self.uops[c].seq)
                    {
                        candidate = Some(head);
                    }
                }
            }
            let Some(id) = candidate else { break };
            self.commit_uop(id, &mut merge_checks);
            budget -= 1;
        }
        budget < self.cfg.commit_width
    }

    fn commit_uop(&mut self, id: UopId, merge_checks: &mut usize) {
        let (itid, inst, detect_mask, fetched_merged, pc) = {
            let u = &self.uops[id];
            (u.itid, u.inst, u.detect_mask, u.fetched_merged, u.pc)
        };
        let dest = inst.dest().filter(|r| !r.is_zero());
        self.stats.energy.commits += 1;
        self.emit(TraceEvent::Commit {
            pc,
            mask: itid.mask(),
        });
        if dest.is_some() {
            self.stats.energy.regfile_writes += 1;
        }

        for t in itid.threads() {
            let ts = &mut self.threads[t];
            let popped = ts.commit_queue.pop_front();
            debug_assert_eq!(popped, Some(id));
            ts.inflight -= 1;
            ts.retired += 1;
            if let Some(rd) = dest {
                debug_assert!(ts.writers[rd.index()] > 0);
                ts.writers[rd.index()] -= 1;
                ts.commit_regs[rd.index()] = self.uops[id].lanes[t].value;
                if self.rat[t][rd.index()] == Some(id) {
                    self.rat[t][rd.index()] = None;
                }
            }
        }

        // Register merging (Section 4.2.7): for instructions fetched in
        // DETECT/CATCHUP mode — and for fetch-identical instructions the
        // RST pessimistically split (the post-remerge "entire register
        // set divergent" recovery case the section motivates) — when the
        // committing mapping is still valid, limited by register-file
        // port availability.
        let merge_eligible = detect_mask != 0 || (fetched_merged && !itid.is_merged());
        if self.cfg.level.register_merging() && merge_eligible {
            if let Some(rd) = dest {
                for t in itid.threads() {
                    if detect_mask & (1 << t) == 0 && !fetched_merged {
                        continue;
                    }
                    if self.threads[t].writers[rd.index()] != 0 {
                        continue; // mapping no longer valid
                    }
                    let result = self.threads[t].commit_regs[rd.index()];
                    for u in 0..self.threads.len() {
                        if itid.contains(u) || *merge_checks == 0 {
                            continue;
                        }
                        // No port wasted when the pair is already known
                        // to share the register.
                        if self.rst.pair_shared(rd, t, u) {
                            continue;
                        }
                        // The other thread's bit-vector says no active
                        // instruction is writing the register.
                        if self.threads[u].writers[rd.index()] != 0 {
                            continue;
                        }
                        *merge_checks -= 1;
                        self.stats.energy.merge_checks += 1;
                        self.stats.energy.regfile_reads += 1;
                        if self.threads[u].commit_regs[rd.index()] == result {
                            self.rst.set_merged(rd, t, u);
                            self.emit(TraceEvent::RstSet {
                                reg: rd.index() as u8,
                                a: t as u8,
                                b: u as u8,
                            });
                        }
                    }
                }
            }
        }

        let u = &mut self.uops[id];
        u.committed_mask = itid.mask();
        u.live = false;
        let is_mem = u.is_mem;
        let complete_at = u.complete_at.expect("committed implies completed");
        self.rob_live -= 1;
        if is_mem {
            self.lsq_live -= 1;
            if matches!(inst, Inst::St { .. }) {
                for t in itid.threads() {
                    self.store_lists[t].retain(|&(sid, _)| sid != id);
                }
            }
        }

        // Convert any fetch block on this uop into a plain cycle bound
        // before the slot is recycled. Commit precedes fetch within the
        // cycle, so this computes exactly what fetch_stage's unblock scan
        // would have computed from the slot this cycle.
        let resume = complete_at + self.cfg.redirect_penalty;
        for ts in &mut self.threads {
            if ts.blocked_on == Some(id) {
                ts.blocked_on = None;
                if self.now < resume {
                    ts.blocked_until = ts.blocked_until.max(resume);
                }
            }
        }
        push_counted(
            &mut self.free_uops,
            id,
            &mut self.stats.scratch_growth_events,
        );
    }
}
