//! Two-speed simulation: checkpoint / restore / architectural handoff
//! (see DESIGN.md §14).

use super::{RunSpec, Scratch, SimError, Simulator};
use crate::config::SimConfig;
use crate::snapshot::{self, ArchState};
use mmt_isa::interp::Memory;
use mmt_isa::reg::NUM_REGS;
use mmt_isa::Program;
use std::collections::VecDeque;

/// Clone a vector preserving its *capacity*, not just its contents.
/// `Vec::clone` allocates to fit the length; the checkpoint/restore path
/// must preserve capacities so every
/// [`push_counted`](super::push_counted) growth event fires identically
/// in the original and the restored run.
#[allow(clippy::ptr_arg)] // capacity() requires the owning Vec
fn clone_keep_cap<T: Clone>(v: &Vec<T>) -> Vec<T> {
    let mut out = Vec::with_capacity(v.capacity());
    out.extend(v.iter().cloned());
    out
}

/// [`clone_keep_cap`] for `VecDeque`s (commit and decode queues).
fn clone_deque_keep_cap<T: Clone>(q: &VecDeque<T>) -> VecDeque<T> {
    let mut out = VecDeque::with_capacity(q.capacity());
    out.extend(q.iter().cloned());
    out
}

/// A full-fidelity checkpoint of a detailed-model run, produced by
/// [`Simulator::checkpoint`]. Opaque and in-memory only — it captures
/// *micro-architectural* state (queues, arenas, predictors, statistics),
/// which is exactly what makes restores bit-identical and what the
/// portable JSON [`ArchState`] format deliberately leaves out.
#[derive(Debug)]
pub struct Checkpoint(Box<Simulator>);

impl Checkpoint {
    /// The cycle the checkpoint was captured at.
    pub fn cycle(&self) -> u64 {
        self.0.now
    }

    /// Materialize an independent simulator continuing from the captured
    /// state. May be called any number of times — each restore is a fork.
    pub fn restore(&self) -> Simulator {
        self.0.deep_clone()
    }

    /// The architectural slice of the captured state (the portable
    /// mode-handoff payload).
    pub fn arch_state(&self) -> ArchState {
        self.0.arch_state()
    }
}

impl Simulator {
    /// Capture a full-fidelity checkpoint of the entire pipeline state.
    ///
    /// Restoring it yields a simulator that continues *bit-identically*:
    /// every queue, predictor, arena slot, and statistics counter is
    /// preserved (scratch-vector capacities included, so even
    /// [`SimStats::scratch_growth_events`](crate::SimStats::scratch_growth_events)
    /// evolves identically). One checkpoint can be restored many
    /// times.
    ///
    /// # Errors
    ///
    /// [`SimError::BadConfig`] when tracing ([`SimConfig::trace`]) is
    /// active: the trace recorder's event ring is not checkpointable.
    pub fn checkpoint(&self) -> Result<Checkpoint, SimError> {
        if self.obs.is_some() {
            return Err(SimError::BadConfig(
                "cannot checkpoint a tracing run (disable SimConfig::trace)".into(),
            ));
        }
        Ok(Checkpoint(Box::new(self.deep_clone())))
    }

    /// The architectural slice of the current state: machines, memories,
    /// and the warm RST/LVIP contents, at this cycle's fetch boundary.
    /// This is the mode-handoff payload — serializable via
    /// [`ArchState::to_json`] and executable by [`crate::Ffwd`].
    pub fn arch_state(&self) -> ArchState {
        let mut state = self.arch_with(
            self.memories
                .iter()
                .map(snapshot::copy_keeping_capacity)
                .collect(),
        );
        // Copied last, after the thread list: allocating these 64 KiB
        // before it moved glibc's heap trim point, so that the next
        // run's input generation page-faulted afresh (membound
        // `setup_s` 0.004 -> 0.010 s).
        state.lvip = Some(self.lvip.entries().to_vec());
        state
    }

    /// [`Simulator::arch_state`] over already-captured memory images,
    /// without the LVIP table: each caller fills `lvip` its own way.
    fn arch_with(&self, memories: Vec<Memory>) -> ArchState {
        ArchState {
            cycle: self.now,
            config_digest: snapshot::config_digest(&self.cfg),
            sharing: self.sharing,
            threads: self.threads.iter().map(|t| t.machine.clone()).collect(),
            memories,
            rst: Some(self.rst.entries_raw()),
            lvip: None,
        }
    }

    /// End a detailed window: the architectural state (as
    /// [`Simulator::arch_state`]) and the memory hierarchy, both moved
    /// out so fast-forward can continue on them without copying a memory
    /// image or the LVIP table. The counterpart of
    /// [`Simulator::from_arch_warmed`], which quiesces the hierarchy on
    /// the way back in; functional warming never reads fill timing, so
    /// one quiesce per detailed entry suffices.
    pub fn into_arch_warmed(mut self) -> (ArchState, mmt_mem::MemoryHierarchy) {
        let memories = std::mem::take(&mut self.memories);
        let mut state = self.arch_with(memories);
        state.lvip = Some(self.lvip.take_entries());
        (state, self.hierarchy)
    }

    /// Build a simulator that starts from a checkpointed architectural
    /// state instead of reset: machines and memories are restored (the
    /// memory images move in, uncopied), fetch groups are partitioned by
    /// current PC (threads at the same PC resume merged; halted or
    /// divergent threads resume as singletons), and warm RST/LVIP state
    /// is applied when present and compatible. When the state carries no
    /// warm RST, a sound one is derived from the registers themselves (a
    /// pair shares a register iff the values are currently equal).
    ///
    /// The pipeline itself (queues, ROB, predictors) starts empty and the
    /// memory hierarchy cold, so a resumed run's `SimStats` cover the
    /// resumed portion only; if the restored PCs are not all equal, the
    /// initial partition is counted as one divergence. For bit-identical
    /// continuation use [`Simulator::checkpoint`] instead.
    ///
    /// # Errors
    ///
    /// [`SimError::BadConfig`] / [`SimError::BadSpec`] as
    /// [`Simulator::new`], plus [`SimError::BadSpec`] when the state's
    /// thread list is inconsistent (tids not `0..n`).
    pub fn from_arch(
        cfg: SimConfig,
        program: Program,
        state: ArchState,
    ) -> Result<Simulator, SimError> {
        Simulator::restore(cfg, program, state, None)
    }

    /// [`Simulator::from_arch`] with a functionally-warmed memory
    /// hierarchy transplanted in. It is quiesced first, since this
    /// simulator's cycle clock starts at zero: resident lines become
    /// ready at once and the MSHRs drain. That costs O(1), not a walk
    /// of the caches ([`mmt_mem::Cache::quiesce`]). The sampled runner
    /// threads one hierarchy through fast-forward warming and detailed
    /// windows so cache contents stay continuous across mode switches.
    ///
    /// # Errors
    ///
    /// As [`Simulator::from_arch`].
    pub fn from_arch_warmed(
        cfg: SimConfig,
        program: Program,
        state: ArchState,
        mut hierarchy: mmt_mem::MemoryHierarchy,
    ) -> Result<Simulator, SimError> {
        debug_assert_eq!(
            *hierarchy.config(),
            cfg.hierarchy,
            "warmed hierarchy must match the run's memory configuration"
        );
        hierarchy.quiesce();
        Simulator::restore(cfg, program, state, Some(hierarchy))
    }

    /// The one restore path behind [`Simulator::from_arch`] (fresh
    /// hierarchy) and [`Simulator::from_arch_warmed`].
    fn restore(
        cfg: SimConfig,
        program: Program,
        state: ArchState,
        hierarchy: Option<mmt_mem::MemoryHierarchy>,
    ) -> Result<Simulator, SimError> {
        let ArchState {
            sharing,
            threads,
            memories,
            rst,
            lvip,
            ..
        } = state;
        for (i, t) in threads.iter().enumerate() {
            if t.tid() != i {
                return Err(SimError::BadSpec(format!(
                    "checkpoint thread {i} carries tid {}",
                    t.tid()
                )));
            }
        }
        let spec = RunSpec {
            program,
            sharing,
            memories,
            threads: threads.len(),
        };
        let mut sim = Simulator::with_hierarchy(cfg, spec, hierarchy)?;
        let n = sim.threads.len();

        for (ts, machine) in sim.threads.iter_mut().zip(threads) {
            ts.halted_fetch = machine.halted();
            // With an empty pipeline the committed state *is* the
            // architected state.
            ts.commit_regs = *machine.regs();
            ts.machine = machine;
        }

        // Progress comparisons only make sense from a common epoch:
        // re-base every pair snapshot to the restored retired counts.
        for t in 0..n {
            for u in 0..n {
                sim.pair_sync[t][u] = (
                    sim.threads[t].machine.retired(),
                    sim.threads[u].machine.retired(),
                );
            }
        }

        // Fetch groups: threads at the same (live) PC resume merged.
        if sim.cfg.level.shared_fetch() && n >= 2 {
            let mut parts: Vec<u8> = Vec::new();
            for t in 0..n {
                let bit = 1u8 << t;
                if !sim.threads[t].machine.halted() {
                    let pc = sim.threads[t].machine.pc();
                    let partner = (0..t).find(|&u| {
                        !sim.threads[u].machine.halted() && sim.threads[u].machine.pc() == pc
                    });
                    if let Some(u) = partner {
                        let part = parts.iter_mut().find(|p| **p & (1 << u) != 0).unwrap();
                        *part |= bit;
                        continue;
                    }
                }
                parts.push(bit);
            }
            if parts.len() > 1 {
                sim.sync.diverge(&parts);
            }
        }

        match &rst {
            Some(raw) => sim.rst.restore_raw(raw),
            None => {
                // Derive sound sharing from the values: a pair shares a
                // register exactly when the two copies are equal.
                let regs = |t: usize| sim.threads[t].machine.regs();
                let mut raw = [(0u8, 0u8); NUM_REGS];
                for (r, e) in raw.iter_mut().enumerate() {
                    for t in 0..n {
                        for u in (t + 1)..n {
                            if regs(t)[r] == regs(u)[r] {
                                e.0 |= 1 << crate::rst::pair_index(t, u);
                            }
                        }
                    }
                }
                sim.rst.restore_raw(&raw);
            }
        }
        if let Some(lvip) = lvip {
            // Warm LVIP state only transfers between equally-sized
            // tables; otherwise start cold (a prediction-quality detail,
            // never a correctness one).
            if lvip.len() == sim.cfg.lvip_entries {
                sim.lvip.restore_entries(lvip);
            }
        }
        Ok(sim)
    }

    /// Field-by-field clone that preserves the capacity of every counted
    /// scratch vector, so a restored run observes the identical
    /// allocation behavior (and identical
    /// [`SimStats::scratch_growth_events`](crate::SimStats::scratch_growth_events))
    /// as the original.
    fn deep_clone(&self) -> Simulator {
        debug_assert!(self.obs.is_none(), "checkpoint() gates tracing runs");
        Simulator {
            cfg: self.cfg.clone(),
            program: self.program.clone(),
            sharing: self.sharing,
            memories: self.memories.clone(),
            threads: self
                .threads
                .iter()
                .map(|t| {
                    let mut c = t.clone();
                    c.commit_queue = clone_deque_keep_cap(&t.commit_queue);
                    c
                })
                .collect(),
            now: self.now,
            wd_last_retired: self.wd_last_retired,
            wd_last_progress: self.wd_last_progress,
            // A restored run re-derives the fast path from its first
            // stepped cycle.
            quiet_until: 0,
            quiet_retries: (0, 0),
            sync: self.sync.clone(),
            bpred: self.bpred.clone(),
            btb: self.btb.clone(),
            rases: self.rases.clone(),
            hierarchy: self.hierarchy.clone(),
            decode_queue: clone_deque_keep_cap(&self.decode_queue),
            decode_capacity: self.decode_capacity,
            rst: self.rst.clone(),
            lvip: self.lvip.clone(),
            uops: {
                let mut v = Vec::with_capacity(self.uops.capacity());
                v.extend(self.uops.iter().map(|u| {
                    let mut c = u.clone();
                    c.deps = clone_keep_cap(&u.deps);
                    c
                }));
                v
            },
            free_uops: clone_keep_cap(&self.free_uops),
            next_seq: self.next_seq,
            iq: clone_keep_cap(&self.iq),
            rob_live: self.rob_live,
            lsq_live: self.lsq_live,
            store_lists: self.store_lists.iter().map(clone_keep_cap).collect(),
            rat: self.rat.clone(),
            pair_sync: self.pair_sync,
            stats: self.stats.clone(),
            merge_log: self.merge_log.clone(),
            obs: None,
            metrics: self.metrics.clone(),
            scratch: Scratch {
                created: clone_keep_cap(&self.scratch.created),
            },
        }
    }
}
