//! Dispatch: the MMT splitter stage between decode and rename (RST
//! lookup, LVIP verification, RST destination update) followed by uop
//! creation and per-thread renaming.

use super::{push_counted, Simulator, Uop, PENDING_UOP};
use crate::itid::Itid;
use crate::split::{split_instruction_at, PartList, SplitPart};
use mmt_isa::{Inst, MemSharing, MAX_THREADS};
use mmt_obs::{LvipOutcome, SplitCause, SplitKind, TraceEvent};

impl Simulator {
    /// Split, rename and dispatch decoded macro-ops in order. Returns
    /// whether any dispatched or the LVIP learned a mismatch. A stalled
    /// head's split is re-evaluated every cycle; with no mismatch that
    /// retry changes only `energy.split_evals` and the LVIP lookup count.
    pub(super) fn dispatch_stage(&mut self) -> bool {
        let mut slots = self.cfg.rename_width;
        let mut acted = false;
        // Recycled scratch for the per-macro-op uop id list (taken out for
        // the loop because the body needs `&mut self`).
        let mut created = std::mem::take(&mut self.scratch.created);
        // Not a `while let`: the loop body conditionally pops the front
        // only after resource checks pass.
        #[allow(clippy::while_let_loop)]
        loop {
            let Some(mo) = self.decode_queue.front() else {
                break;
            };
            if mo.ready_at > self.now || slots == 0 {
                break;
            }

            // Split (the MMT stage between decode and the RAT). The
            // macro-op stays borrowed from the decode queue until the
            // resource checks pass — no clone on the hot path.
            let mut outcome = split_instruction_at(
                mo.pc,
                mo.inst,
                mo.itid,
                self.sharing,
                self.cfg.level,
                &self.rst,
                &mut self.lvip,
            );
            if mo.itid.is_merged() && self.cfg.level.shared_execute() {
                self.stats.energy.split_evals += 1;
            }

            // LVIP verification, oracle-resolved at dispatch: merged ME
            // loads whose actual values differ are split here and the
            // rollback penalty is charged (the hardware would flush and
            // refetch; see module docs).
            let mut lvip_rollback = false;
            let mut lvip_hits = 0u64;
            let mut lvip_misses = 0u64;
            let mut verified = PartList::new();
            for part in &outcome.parts {
                if part.lvip_speculative {
                    // Only loads are speculative, and a load's lane value
                    // is the value it loaded.
                    let lead_val = mo.lanes[part.itid.lead()].value;
                    let all_equal = part.itid.threads().all(|t| mo.lanes[t].value == lead_val);
                    if all_equal {
                        self.lvip.record_match(mo.pc);
                        lvip_hits += 1;
                        verified.push(*part);
                    } else {
                        self.lvip.record_mismatch(mo.pc);
                        lvip_misses += 1;
                        lvip_rollback = true;
                        for t in part.itid.threads() {
                            verified.push(SplitPart {
                                itid: Itid::single(t),
                                lvip_speculative: false,
                            });
                        }
                    }
                } else {
                    verified.push(*part);
                }
            }
            outcome.parts = verified;

            // Structural resources for the whole split set.
            let parts = outcome.parts.len();
            let is_mem = mo.inst.class().is_mem();
            if parts > slots
                || self.rob_live + parts > self.cfg.rob_size
                || self.iq.len() + parts > self.cfg.iq_size
                || (is_mem && self.lsq_live + parts > self.cfg.lsq_size)
            {
                acted |= lvip_rollback;
                break;
            }
            acted = true;
            let mo = self.decode_queue.pop_front().expect("front checked above");
            slots -= parts;
            self.stats.uops_dispatched += parts as u64;
            self.stats.energy.renames += parts as u64;

            // Per-PC LVIP and address-divergence profile. Bumped only
            // after the pop: the split + verification above re-run on
            // stall retries, so counting there would double-count. (The
            // global `SimStats::lvip_lookups` meter comes from the
            // predictor itself and deliberately does include retries.)
            if let Some(c) = self.stats.pc_profile.get_mut(mo.pc as usize) {
                c.lvip_lookups += outcome.lvip_lookups as u64;
                c.lvip_hits += lvip_hits;
                c.lvip_misses += lvip_misses;
                if is_mem && mo.itid.is_merged() {
                    c.mem_merged += 1;
                    let lead_addr = mo.lanes[mo.itid.lead()].addr;
                    if mo.itid.threads().any(|t| mo.lanes[t].addr != lead_addr) {
                        c.mem_addr_diverged += 1;
                    }
                }
            }

            if self.obs.is_some() {
                let kind = if parts == 1 {
                    if outcome.parts[0].itid.is_merged() {
                        SplitKind::Merged
                    } else {
                        SplitKind::Private
                    }
                } else if outcome.parts.iter().all(|p| !p.itid.is_merged()) {
                    SplitKind::Private
                } else {
                    SplitKind::Partial
                };
                let cause = if !mo.itid.is_merged() {
                    SplitCause::FetchedAlone
                } else if !self.cfg.level.shared_execute() {
                    SplitCause::NoSharedExecute
                } else if lvip_rollback {
                    SplitCause::LvipRollback
                } else if parts == 1 {
                    if outcome.regmerge_assisted {
                        SplitCause::RegMergeAssisted
                    } else {
                        SplitCause::RstShared
                    }
                } else {
                    SplitCause::RstSplit
                };
                self.emit(TraceEvent::Split {
                    pc: mo.pc,
                    mask: mo.itid.mask(),
                    kind,
                    cause,
                });
                if lvip_rollback {
                    self.emit(TraceEvent::Lvip {
                        pc: mo.pc,
                        mask: mo.itid.mask(),
                        outcome: LvipOutcome::Rollback,
                    });
                }
                for part in &outcome.parts {
                    if part.lvip_speculative {
                        self.emit(TraceEvent::Lvip {
                            pc: mo.pc,
                            mask: part.itid.mask(),
                            outcome: LvipOutcome::Match,
                        });
                    }
                }
            }

            // RST destination update (Section 4.2.3).
            if self.cfg.level.shared_execute() {
                if let Some(rd) = mo.inst.dest() {
                    let mut itids = [Itid::single(0); MAX_THREADS];
                    for (i, part) in outcome.parts.iter().enumerate() {
                        itids[i] = part.itid;
                    }
                    self.rst.update_dest(rd, mo.itid, &itids[..parts]);
                    if parts >= 2 {
                        self.emit(TraceEvent::RstClear {
                            reg: rd.index() as u8,
                            mask: mo.itid.mask(),
                        });
                    }
                }
            }

            // Identity accounting (Figure 5(b)).
            for part in &outcome.parts {
                for _t in part.itid.threads() {
                    if !mo.itid.is_merged() {
                        self.stats.identity.private += 1;
                    } else if part.itid.is_merged() {
                        if outcome.regmerge_assisted {
                            self.stats.identity.execute_identical_regmerge += 1;
                        } else {
                            self.stats.identity.execute_identical += 1;
                        }
                    } else {
                        self.stats.identity.fetch_identical += 1;
                    }
                }
                // Per-PC dispatch profile (one bump per uop, not per
                // thread — exec counters are in dispatched uops).
                if let Some(c) = self.stats.pc_profile.get_mut(mo.pc as usize) {
                    if !mo.itid.is_merged() {
                        c.exec_private += 1;
                    } else if part.itid.is_merged() {
                        c.exec_merged += 1;
                    } else {
                        c.exec_split += 1;
                    }
                }
            }

            // Create and rename the uops.
            created.clear();
            for part in &outcome.parts {
                // Allocate an arena slot: recycle a retired one (and its
                // deps allocation) when available, so the arena is bounded
                // by the ROB size rather than the dynamic instruction
                // count. Deps capacity is bounded by sources × threads, so
                // a fresh slot pre-reserves it once.
                let seq = self.next_seq;
                self.next_seq += 1;
                let (id, mut deps) = match self.free_uops.pop() {
                    Some(id) => {
                        let mut deps = std::mem::take(&mut self.uops[id].deps);
                        deps.clear();
                        (id, deps)
                    }
                    None => {
                        if self.uops.len() == self.uops.capacity() {
                            self.stats.scratch_growth_events += 1;
                        }
                        self.uops.push(Uop::vacant());
                        self.stats.peak_uop_arena =
                            self.stats.peak_uop_arena.max(self.uops.len() as u64);
                        (self.uops.len() - 1, Vec::with_capacity(2 * MAX_THREADS))
                    }
                };
                for t in part.itid.threads() {
                    for r in mo.inst.sources().iter() {
                        if r.is_zero() {
                            continue;
                        }
                        if let Some(p) = self.rat[t][r.index()] {
                            if deps.iter().all(|&(d, _)| d != p) {
                                push_counted(
                                    &mut deps,
                                    (p, self.uops[p].seq),
                                    &mut self.stats.scratch_growth_events,
                                );
                            }
                        }
                    }
                }
                let accesses = if is_mem {
                    match self.sharing {
                        MemSharing::Shared => 1,
                        MemSharing::PerThread => part.itid.count(),
                    }
                } else {
                    0
                };
                if let Some(fetched) = mo.records.as_deref().filter(|_| part.itid.is_merged()) {
                    // Differential-checking mode: hand every merge
                    // decision (with its functional ground truth) to the
                    // offline oracle instead of asserting in-line, so an
                    // injected corruption reaches the checker.
                    let mut records = [None; MAX_THREADS];
                    for t in part.itid.threads() {
                        records[t] = fetched[t];
                    }
                    self.merge_log.push(crate::audit::MergeEvent {
                        pc: mo.pc,
                        inst: mo.inst,
                        itid: part.itid,
                        records,
                        lvip_speculative: part.lvip_speculative,
                    });
                } else if part.itid.is_merged() && !part.lvip_speculative {
                    // In debug runs, enforce the merged-execution
                    // soundness invariant: every owning thread must
                    // produce the same result (the RST may only merge
                    // value-identical work).
                    #[cfg(debug_assertions)]
                    {
                        let lead_res = mo.lanes[part.itid.lead()].value;
                        for t in part.itid.threads() {
                            debug_assert_eq!(
                                mo.lanes[t].value, lead_res,
                                "unsound merge at pc {} ({})",
                                mo.pc, mo.inst
                            );
                        }
                    }
                }

                self.uops[id] = Uop {
                    seq,
                    live: true,
                    pc: mo.pc,
                    itid: part.itid,
                    inst: mo.inst,
                    class: mo.inst.class(),
                    lanes: mo.lanes,
                    deps,
                    detect_mask: mo.detect_mask & part.itid.mask(),
                    ready_at: None,
                    blocked_by: None,
                    fetched_merged: mo.itid.is_merged(),
                    complete_at: None,
                    committed_mask: 0,
                    is_mem,
                    accesses,
                };
                self.rob_live += 1;
                self.stats.peak_live_uops = self.stats.peak_live_uops.max(self.rob_live as u64);
                if is_mem {
                    self.lsq_live += 1;
                }
                for t in part.itid.threads() {
                    if let Some(rd) = mo.inst.dest().filter(|r| !r.is_zero()) {
                        self.rat[t][rd.index()] = Some(id);
                        // In-flight writer tracking mirrors the RAT (the
                        // paper's "mapping still valid" test): it counts
                        // renamed-but-uncommitted writers.
                        self.threads[t].writers[rd.index()] += 1;
                    }
                    let q = &self.threads[t].commit_queue;
                    if q.len() == q.capacity() {
                        self.stats.scratch_growth_events += 1;
                    }
                    self.threads[t].commit_queue.push_back(id);
                    self.threads[t].inflight += 1;
                    if matches!(mo.inst, Inst::St { .. }) {
                        push_counted(
                            &mut self.store_lists[t],
                            (id, mo.lanes[t].addr),
                            &mut self.stats.scratch_growth_events,
                        );
                    }
                }
                push_counted(&mut self.iq, id, &mut self.stats.scratch_growth_events);
                push_counted(&mut created, id, &mut self.stats.scratch_growth_events);
                self.emit(TraceEvent::Dispatch {
                    pc: mo.pc,
                    mask: part.itid.mask(),
                    merged: part.itid.is_merged(),
                });
            }

            // Resolve fetch blocks that were waiting for this
            // instruction to enter the window (mispredicted control).
            if mo.blocks_mask != 0 {
                for &id in &created {
                    let part = self.uops[id].itid;
                    for t in part.threads() {
                        if mo.blocks_mask & (1 << t) != 0
                            && self.threads[t].blocked_on == Some(PENDING_UOP)
                        {
                            self.threads[t].blocked_on = Some(id);
                        }
                    }
                }
            }

            // LVIP rollback penalty: the owning threads' fetch stalls
            // until the offending load completes, plus the redirect
            // penalty (flush-and-refetch approximation).
            if lvip_rollback {
                let block_on = *created.last().expect("parts is non-empty");
                for t in mo.itid.threads() {
                    self.threads[t].blocked_on = Some(block_on);
                }
            }
        }
        self.scratch.created = created;
        acted
    }
}
