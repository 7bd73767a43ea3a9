//! The cycle-level out-of-order SMT pipeline with the MMT mechanisms.
//!
//! ## Model
//!
//! The simulator is *oracle-functional, cycle-level timing*: every dynamic
//! instruction is functionally executed (per thread, in program order) at
//! fetch, producing exact operand/result values, effective addresses and
//! branch outcomes ([`mmt_isa::interp::StepInfo`]). Fetch resolves control
//! flow from that record and keeps one 16-byte `Lane` per member thread
//! — the value written and the memory address, all the later stages read
//! — which rides with the instruction to commit. The timing model then
//! determines *when* everything happens: fetch-width and fetch-entity
//! limits, decode latency, rename width, issue width, functional-unit and
//! load/store-port contention, cache latencies with MSHR-limited miss
//! parallelism, ROB/LSQ/IQ occupancy, and in-order per-thread commit.
//!
//! Documented simplifications (standard for trace-driven reproduction and
//! noted in DESIGN.md): wrong-path instructions are not fetched — a
//! mispredicted control transfer instead blocks that thread's fetch until
//! the branch executes, plus a redirect penalty; LVIP rollbacks charge the
//! same penalty; stores are performed at issue; memory disambiguation is
//! oracle-exact (no speculative reordering violations).
//!
//! ## MMT mechanisms (Section 4)
//!
//! * Shared fetch with ITID tagging; MERGE/DETECT/CATCHUP synchronization
//!   via per-thread Fetch History Buffers ([`mmt_frontend::FetchSync`]).
//! * The splitter stage between decode and rename
//!   ([`crate::split::split_instruction_at`]) driven by the Register
//!   Sharing Table, with LVIP-gated merged multi-execution loads.
//! * Commit-time register merging with mapping-validity tracking and
//!   port-limited value comparisons.
//!
//! Each stage lives in its own file as an `impl Simulator` block:
//! `fetch` (shared fetch, FHB sync, divergence), `dispatch` (split +
//! rename), `issue`, `commit` (including register merging), and
//! `handoff` (checkpoints and architectural mode switches).

use crate::config::SimConfig;
use crate::itid::Itid;
use crate::lvip::Lvip;
use crate::rst::RegSharingTable;
use crate::snapshot::{self, ArchState};
use crate::stats::SimStats;
use mmt_frontend::{Btb, FetchSync, Ras, TwoLevelPredictor};
use mmt_isa::interp::{Machine, Memory, StepInfo};
use mmt_isa::reg::NUM_REGS;
use mmt_isa::trace::TraceRecord;
use mmt_isa::{Inst, MemSharing, OpClass, Program, Reg, MAX_THREADS};
use mmt_obs::{FaultUnit, Occupancy, TraceEvent, WatchdogKind};
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

mod commit;
mod dispatch;
mod fetch;
mod handoff;
mod issue;

pub use handoff::Checkpoint;

/// A workload instance ready to simulate.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The (shared) program text.
    pub program: Program,
    /// Memory model: one shared memory (multi-threaded) or one per thread
    /// (multi-execution).
    pub sharing: MemSharing,
    /// Initial memories: exactly 1 for [`MemSharing::Shared`], exactly
    /// `threads` for [`MemSharing::PerThread`].
    pub memories: Vec<Memory>,
    /// Number of hardware threads to run.
    pub threads: usize,
}

impl RunSpec {
    /// The reset-state architectural checkpoint for this workload: fresh
    /// machines at PC 0 over the spec's *initialized* memory images. The
    /// starting point for a fast-forward ([`crate::Ffwd`]) leg that
    /// replaces a detailed run from cycle 0.
    pub fn initial_arch_state(&self) -> ArchState {
        ArchState {
            cycle: 0,
            config_digest: 0,
            sharing: self.sharing,
            threads: (0..self.threads).map(Machine::new).collect(),
            memories: self
                .memories
                .iter()
                .map(snapshot::copy_keeping_capacity)
                .collect(),
            rst: None,
            lvip: None,
        }
    }
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The configuration failed validation.
    BadConfig(String),
    /// The spec's memories do not match its sharing/threads.
    BadSpec(String),
    /// A thread faulted (PC or memory out of bounds).
    Exec(mmt_isa::interp::ExecError),
    /// `max_cycles` elapsed before all threads finished.
    CycleLimit {
        /// The configured limit that was hit.
        limit: u64,
    },
    /// The pipeline's divergence bookkeeping went inconsistent: a thread
    /// named in a fetch group was missing the per-member step
    /// information the front end is required to record for it. This is a
    /// simulator bug surfaced as a diagnostic rather than a panic.
    Desync {
        /// Fetch PC of the instruction being processed.
        pc: u64,
        /// The thread whose state was inconsistent.
        thread: usize,
        /// What the pipeline was doing when it noticed.
        context: &'static str,
    },
    /// A structural invariant failed in [`Simulator::validate`] (only
    /// produced when the `check-invariants` feature is enabled).
    Invariant(String),
    /// The livelock watchdog fired: no thread retired an instruction for
    /// [`crate::WatchdogConfig::livelock_window`] consecutive cycles
    /// while the run was not finished.
    LivelockDetected {
        /// The configured no-retirement window that elapsed.
        window: u64,
        /// Cycle at which the watchdog fired.
        cycle: u64,
    },
    /// The memory-budget watchdog fired: the total touched-memory
    /// footprint exceeded
    /// [`crate::WatchdogConfig::memory_budget_words`].
    MemoryBudgetExceeded {
        /// The configured budget in words.
        budget_words: usize,
        /// Touched words at the time of the check.
        used_words: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BadConfig(m) => write!(f, "invalid configuration: {m}"),
            SimError::BadSpec(m) => write!(f, "invalid run spec: {m}"),
            SimError::Exec(e) => write!(f, "thread faulted: {e}"),
            SimError::CycleLimit { limit } => write!(f, "cycle limit {limit} reached"),
            SimError::Desync {
                pc,
                thread,
                context,
            } => write!(f, "pipeline desync at pc {pc}, thread {thread}: {context}"),
            SimError::Invariant(m) => write!(f, "invariant violation: {m}"),
            SimError::LivelockDetected { window, cycle } => write!(
                f,
                "livelock detected: no retirement for {window} cycles (at cycle {cycle})"
            ),
            SimError::MemoryBudgetExceeded {
                budget_words,
                used_words,
            } => write!(
                f,
                "memory budget exceeded: {used_words} words touched, budget {budget_words}"
            ),
        }
    }
}

impl Error for SimError {}

impl From<mmt_isa::interp::ExecError> for SimError {
    fn from(e: mmt_isa::interp::ExecError) -> Self {
        SimError::Exec(e)
    }
}

/// Result of a completed simulation.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// All statistics.
    pub stats: SimStats,
    /// Final architected register values per thread (functional ground
    /// truth — identical across MMT levels for the same workload).
    pub final_regs: Vec<[u64; NUM_REGS]>,
    /// Every merged dispatch, when [`SimConfig::record_merge_log`] was
    /// set (empty otherwise). Consumed by the `mmt-analysis` differential
    /// oracle.
    pub merge_log: Vec<crate::audit::MergeEvent>,
    /// The pipeline trace, when [`SimConfig::trace`] was set (`None`
    /// otherwise): typed event stream, windowed metrics series, and the
    /// metadata the `mmt-obs` exporters need.
    pub trace: Option<mmt_obs::Trace>,
    /// The phase-profiling metrics snapshot, when
    /// [`SimConfig::metrics`] was set (`None` otherwise): per-stage
    /// wall-clock histograms plus the headline `SimStats` counters,
    /// exportable as JSON or Prometheus text.
    pub metrics: Option<mmt_obs::MetricsSnapshot>,
}

type UopId = usize;

/// What the stages after fetch read of one member thread's oracle step:
/// the value written to the destination (for a load, the value loaded)
/// and the effective word address of a load or store. Each is 0 where
/// the instruction has none.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Lane {
    value: u64,
    addr: u64,
}

impl Lane {
    #[inline]
    fn from_step(info: &StepInfo) -> Lane {
        debug_assert_eq!(
            info.inst.dest().is_some(),
            info.result.is_some(),
            "dest implies a result"
        );
        debug_assert_eq!(
            info.inst.class().is_mem(),
            info.mem_addr.is_some(),
            "a load or store has an address"
        );
        Lane {
            value: info.result.unwrap_or(0),
            addr: info.mem_addr.unwrap_or(0),
        }
    }
}

#[derive(Debug, Clone)]
struct MacroOp {
    pc: u64,
    inst: Inst,
    itid: Itid,
    /// Indexed by thread; only members' lanes are meaningful.
    lanes: [Lane; MAX_THREADS],
    /// Every member's functional record, kept only when
    /// [`SimConfig::record_merge_log`] is set: the merge log's ground
    /// truth.
    records: Option<Box<[Option<TraceRecord>; MAX_THREADS]>>,
    ready_at: u64,
    /// Members fetched while *not* in MERGE mode (register-merge
    /// eligibility, Section 4.2.7).
    detect_mask: u8,
    /// Threads whose fetch is blocked until this instruction's uop
    /// resolves (mispredicted control transfers).
    blocks_mask: u8,
}

/// Sentinel for "blocked on a uop that has not been dispatched yet".
const PENDING_UOP: UopId = usize::MAX;

#[derive(Debug, Clone)]
struct Uop {
    /// Monotonic age. Arena slots (and with them `UopId`s) are recycled
    /// through the free-list once a uop retires, so slot indices no
    /// longer encode dispatch order — every age comparison (commit
    /// selection, store-older-than-load) uses `seq` instead.
    seq: u64,
    /// False once the slot has been reclaimed (awaiting reuse).
    live: bool,
    /// Static PC of the fetched macro-op (timing-inert; carried for
    /// issue/commit trace events).
    pc: u64,
    itid: Itid,
    inst: Inst,
    class: OpClass,
    /// Indexed by thread; only owners' lanes are meaningful.
    lanes: [Lane; MAX_THREADS],
    /// Producers this uop waits on, as `(slot, seq)` pairs: if the slot's
    /// current seq differs, the producer has retired (hence completed).
    deps: Vec<(UopId, u64)>,
    /// Latest completion cycle of every producer (deps and, for loads,
    /// older same-address stores), cached by the issue stage once all of
    /// them have issued; `None` until then.
    ready_at: Option<u64>,
    /// The unissued producer `(slot, seq)` that failed the last
    /// readiness poll; polling resumes only once it has issued.
    blocked_by: Option<(UopId, u64)>,
    detect_mask: u8,
    /// The fetch ITID had more than one owner (even if this uop is a
    /// split singleton) — extends register-merge eligibility to
    /// fetch-identical instructions the RST pessimistically split.
    fetched_merged: bool,
    /// Completion cycle, fixed when the uop issues (`None` until then).
    complete_at: Option<u64>,
    committed_mask: u8,
    is_mem: bool,
    /// D-cache accesses this uop performs (per-thread for ME, 1 for MT).
    accesses: usize,
}

impl Uop {
    fn completed(&self, now: u64) -> bool {
        self.complete_at.is_some_and(|c| c <= now)
    }

    /// Placeholder occupying a freshly grown arena slot until dispatch
    /// fills it.
    fn vacant() -> Uop {
        Uop {
            seq: 0,
            live: false,
            pc: 0,
            itid: Itid::single(0),
            inst: Inst::Halt,
            class: OpClass::IntAlu,
            lanes: [Lane::default(); MAX_THREADS],
            deps: Vec::new(),
            ready_at: None,
            blocked_by: None,
            detect_mask: 0,
            fetched_merged: false,
            complete_at: None,
            committed_mask: 0,
            is_mem: false,
            accesses: 0,
        }
    }
}

/// Reusable per-cycle buffers for the stages whose working sets can
/// exceed the fixed `MAX_THREADS` bound (rename width).
/// Allocated once in [`Simulator::new`] and recycled every cycle, so the
/// steady-state cycle loop performs no heap allocation; any post-warmup
/// growth is counted in [`SimStats::scratch_growth_events`].
#[derive(Debug, Default)]
struct Scratch {
    /// Uop ids created by the dispatch stage for one macro-op.
    created: Vec<UopId>,
}

/// Push that counts heap growth: the telemetry behind
/// [`SimStats::scratch_growth_events`].
#[inline]
fn push_counted<T>(v: &mut Vec<T>, x: T, growth_events: &mut u64) {
    if v.len() == v.capacity() {
        *growth_events += 1;
    }
    v.push(x);
}

#[derive(Debug, Clone)]
struct ThreadState {
    machine: Machine,
    mem_idx: usize,
    /// Fetched the `halt` instruction.
    halted_fetch: bool,
    /// Fetch blocked until this cycle (i-cache miss, redirect penalty).
    blocked_until: u64,
    /// Fetch blocked until this uop completes (misprediction/rollback).
    blocked_on: Option<UopId>,
    /// Uops in flight (ICOUNT fetch policy).
    inflight: u64,
    /// Taken branches since last divergence (remerge-distance stat).
    branches_since_diverge: u64,
    /// Software-hint mode: cycle at which this thread parked at a
    /// remerge-hint PC (None = not parked).
    hint_parked_since: Option<u64>,
    /// Software-hint mode: hint PC to skip after a park timed out (so the
    /// thread does not immediately re-park on the same instruction).
    hint_skip_pc: Option<u64>,

    /// In-flight writer counts per architected register (incremented at
    /// fetch, decremented at commit) — the paper's "Reg State" bit
    /// vector generalized to a counter.
    writers: [u32; NUM_REGS],
    /// Committed architected register values.
    commit_regs: [u64; NUM_REGS],
    /// Per-thread program-order commit queue.
    commit_queue: VecDeque<UopId>,
    retired: u64,
}

/// The simulator. Construct with [`Simulator::new`], run with
/// [`Simulator::run`].
///
/// # Examples
///
/// ```
/// use mmt_sim::{RunSpec, SimConfig, Simulator, MmtLevel};
/// use mmt_isa::{asm::Builder, interp::Memory, MemSharing, Reg};
///
/// let mut b = Builder::new();
/// b.addi(Reg::R1, Reg::R0, 41);
/// b.addi(Reg::R1, Reg::R1, 1);
/// b.halt();
/// let spec = RunSpec {
///     program: b.build()?,
///     sharing: MemSharing::Shared,
///     memories: vec![Memory::new(0)],
///     threads: 2,
/// };
/// let cfg = SimConfig::paper_with(2, MmtLevel::Fxr);
/// let result = Simulator::new(cfg, spec)?.run()?;
/// assert_eq!(result.final_regs[0][Reg::R1.index()], 42);
/// assert_eq!(result.final_regs[1][Reg::R1.index()], 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Simulator {
    cfg: SimConfig,
    program: Program,
    sharing: MemSharing,
    memories: Vec<Memory>,
    threads: Vec<ThreadState>,
    now: u64,

    // Forward-progress watchdog bookkeeping (DESIGN.md §15): the total
    // retired count last time progress was seen, and when.
    wd_last_retired: u64,
    wd_last_progress: u64,

    // Quiet-cycle fast path (DESIGN.md §10): while `now < quiet_until`
    // no stage can act, so `step_cycle` only replays the stalled
    // dispatch retry's per-cycle `(split_evals, LVIP lookups)` increments
    // in `quiet_retries`.
    quiet_until: u64,
    quiet_retries: (u64, u64),

    // Front end.
    sync: FetchSync,
    bpred: TwoLevelPredictor,
    btb: Btb,
    rases: Vec<Ras>,
    hierarchy: mmt_mem::MemoryHierarchy,
    decode_queue: VecDeque<MacroOp>,
    decode_capacity: usize,

    // MMT structures.
    rst: RegSharingTable,
    lvip: Lvip,

    // Back end.
    uops: Vec<Uop>,
    /// Retired arena slots awaiting reuse — bounds the arena (and its
    /// memory) by the ROB size instead of the dynamic instruction count.
    free_uops: Vec<UopId>,
    /// Next value of [`Uop::seq`].
    next_seq: u64,
    iq: Vec<UopId>,
    rob_live: usize,
    lsq_live: usize,
    /// Per-thread in-flight stores `(uop id, word address)`.
    store_lists: Vec<Vec<(UopId, u64)>>,
    /// Latest in-flight producer per thread per architected register.
    rat: Vec<[Option<UopId>; NUM_REGS]>,

    /// Pairwise retirement snapshots taken the last time each thread
    /// pair was synchronized (merged together, or split apart by the
    /// same divergence). Progress comparisons between two threads are
    /// only meaningful from a common epoch: per-thread baselines go
    /// stale as soon as the threads synchronize with *different*
    /// partners at different times.
    pair_sync: [[(u64, u64); MAX_THREADS]; MAX_THREADS],

    stats: SimStats,
    merge_log: Vec<crate::audit::MergeEvent>,
    /// Tracing recorder ([`SimConfig::trace`]); `None` compiles every
    /// emission site down to one pointer test.
    obs: Option<Box<mmt_obs::ObsRecorder>>,
    /// Phase self-profiler ([`SimConfig::metrics`]); host-clock only,
    /// never reads or writes simulated state.
    metrics: Option<Box<crate::SimMetrics>>,
    scratch: Scratch,
}

impl Simulator {
    /// Build a simulator for one run.
    ///
    /// # Errors
    ///
    /// [`SimError::BadConfig`] / [`SimError::BadSpec`] when the
    /// configuration or spec is inconsistent.
    pub fn new(cfg: SimConfig, spec: RunSpec) -> Result<Simulator, SimError> {
        Simulator::with_hierarchy(cfg, spec, None)
    }

    /// [`Simulator::new`] over a caller-supplied memory hierarchy (the
    /// mode handoff's warmed one), or a fresh one for `None`.
    fn with_hierarchy(
        cfg: SimConfig,
        spec: RunSpec,
        hierarchy: Option<mmt_mem::MemoryHierarchy>,
    ) -> Result<Simulator, SimError> {
        cfg.validate().map_err(SimError::BadConfig)?;
        let expected_mems = match spec.sharing {
            MemSharing::Shared => 1,
            MemSharing::PerThread => spec.threads,
        };
        if spec.memories.len() != expected_mems {
            return Err(SimError::BadSpec(format!(
                "{:?} workload with {} threads needs {} memories, got {}",
                spec.sharing,
                spec.threads,
                expected_mems,
                spec.memories.len()
            )));
        }
        if spec.threads != cfg.threads {
            return Err(SimError::BadSpec(format!(
                "spec has {} threads but config has {}",
                spec.threads, cfg.threads
            )));
        }
        if spec.program.is_empty() {
            return Err(SimError::BadSpec("empty program".into()));
        }

        let n = spec.threads;
        let threads = (0..n)
            .map(|t| ThreadState {
                machine: Machine::new(t),
                mem_idx: match spec.sharing {
                    MemSharing::Shared => 0,
                    MemSharing::PerThread => t,
                },
                halted_fetch: false,
                blocked_until: 0,
                blocked_on: None,
                inflight: 0,
                branches_since_diverge: 0,
                hint_parked_since: None,
                hint_skip_pc: None,
                writers: [0; NUM_REGS],
                commit_regs: [0; NUM_REGS],
                commit_queue: VecDeque::with_capacity(cfg.rob_size),
                retired: 0,
            })
            .collect();

        let stats = SimStats {
            retired_per_thread: vec![0; n],
            pc_profile: if cfg.record_pc_profile {
                vec![crate::stats::PcCounters::default(); spec.program.len()]
            } else {
                Vec::new()
            },
            ..SimStats::default()
        };

        Ok(Simulator {
            sync: FetchSync::new(n, cfg.fhb_entries),
            bpred: TwoLevelPredictor::new(cfg.predictor, n),
            btb: Btb::new(cfg.btb_entries),
            rases: (0..n).map(|_| Ras::new(cfg.ras_depth)).collect(),
            hierarchy: hierarchy.unwrap_or_else(|| mmt_mem::MemoryHierarchy::new(cfg.hierarchy)),
            decode_queue: VecDeque::with_capacity(cfg.fetch_width * 4 + 1),
            decode_capacity: cfg.fetch_width * 4,
            rst: RegSharingTable::new_all_shared(),
            lvip: Lvip::new(cfg.lvip_entries),
            uops: Vec::with_capacity(cfg.rob_size + cfg.rename_width),
            free_uops: Vec::with_capacity(cfg.rob_size + cfg.rename_width),
            next_seq: 0,
            iq: Vec::with_capacity(cfg.iq_size + 1),
            rob_live: 0,
            lsq_live: 0,
            store_lists: (0..n).map(|_| Vec::with_capacity(cfg.lsq_size)).collect(),
            rat: (0..n).map(|_| [None; NUM_REGS]).collect(),
            pair_sync: [[(0, 0); MAX_THREADS]; MAX_THREADS],
            merge_log: Vec::new(),
            obs: cfg.trace.as_ref().map(|tc| {
                Box::new(mmt_obs::ObsRecorder::new(
                    tc,
                    n,
                    n >= 2 && cfg.level.shared_fetch(),
                ))
            }),
            metrics: cfg.metrics.then(|| Box::new(crate::SimMetrics::new())),
            scratch: Scratch {
                created: Vec::with_capacity(cfg.rename_width),
            },
            threads,
            now: 0,
            wd_last_retired: 0,
            wd_last_progress: 0,
            quiet_until: 0,
            quiet_retries: (0, 0),
            program: spec.program,
            sharing: spec.sharing,
            memories: spec.memories,
            stats,
            cfg,
        })
    }

    /// Run to completion.
    ///
    /// # Errors
    ///
    /// [`SimError::Exec`] if a thread faults, [`SimError::CycleLimit`] if
    /// the configured cycle cap is reached.
    pub fn run(mut self) -> Result<SimResult, SimError> {
        while !self.finished() {
            self.step_cycle()?;
        }
        Ok(self.finish())
    }

    /// Advance the machine by exactly one cycle (commit, issue, dispatch,
    /// fetch).
    ///
    /// [`Simulator::run`] is a loop over this; it is public so tests and
    /// checkers can observe — or deliberately corrupt — mid-flight state
    /// between cycles. With the `check-invariants` feature enabled,
    /// [`Simulator::validate`] runs after every cycle.
    ///
    /// A cycle in which no stage acts is *quiet*. After one, the cycles
    /// before the next event that could let a stage act (an operand or
    /// commit-head completion, a fetch unblock, a decode-queue entry
    /// becoming ready, a hint-park expiry) are quiet too, so those calls
    /// skip the stages: they run the watchdogs and window sampling,
    /// charge the stalled dispatch retry's split evaluation and LVIP
    /// lookups, and advance the clock. Every statistic is the same as if
    /// the stages had run.
    ///
    /// # Errors
    ///
    /// [`SimError::Exec`] if a thread faults, [`SimError::CycleLimit`]
    /// once `max_cycles` have elapsed, [`SimError::Desync`] on
    /// inconsistent divergence bookkeeping, and (under `check-invariants`)
    /// [`SimError::Invariant`] when a structural audit fails.
    pub fn step_cycle(&mut self) -> Result<(), SimError> {
        if self.now >= self.cfg.max_cycles {
            return Err(SimError::CycleLimit {
                limit: self.cfg.max_cycles,
            });
        }
        self.check_watchdogs()?;
        if self.now < self.quiet_until {
            let (split_evals, lvip_lookups) = self.quiet_retries;
            self.stats.energy.split_evals += split_evals;
            self.lvip.charge_lookups(lvip_lookups);
            if let Some(m) = self.metrics.as_deref_mut() {
                m.count_quiet_cycle();
            }
        } else {
            let split_evals = self.stats.energy.split_evals;
            let lvip_lookups = self.lvip.lookup_count();
            let committed = self.timed_phase(crate::SimPhase::Commit, Simulator::commit_stage);
            let issued = self.timed_phase(crate::SimPhase::Issue, Simulator::issue_stage);
            let dispatched = self.timed_phase(crate::SimPhase::Dispatch, Simulator::dispatch_stage);
            #[cfg(feature = "check-invariants")]
            let hints = self.hint_state();
            let fetched = self.timed_phase(crate::SimPhase::Fetch, Simulator::fetch_stage)?;
            // Fetch must report every software-hint park start, expiry
            // and skip-marker clear: the fast path may only start on a
            // cycle that left the front end as it found it.
            #[cfg(feature = "check-invariants")]
            if !fetched && self.hint_state() != hints {
                return Err(SimError::Invariant(format!(
                    "cycle {}: fetch changed software-hint state but reported no action",
                    self.now
                )));
            }
            if !(committed || issued || dispatched || fetched) {
                self.quiet_retries = (
                    self.stats.energy.split_evals - split_evals,
                    self.lvip.lookup_count() - lvip_lookups,
                );
                self.quiet_until = self.next_event();
            }
        }
        if let Some(obs) = self.obs.as_deref_mut() {
            if obs.window_due(self.now) {
                obs.sample_window(
                    self.now,
                    Occupancy {
                        rob: self.rob_live as u32,
                        lsq: self.lsq_live as u32,
                        iq: self.iq.len() as u32,
                        arena: self.uops.len() as u32,
                    },
                );
            }
        }
        self.now += 1;
        #[cfg(feature = "check-invariants")]
        self.validate().map_err(SimError::Invariant)?;
        Ok(())
    }

    /// Finalize statistics and extract the [`SimResult`].
    ///
    /// Normally called through [`Simulator::run`]; callers driving the
    /// machine with [`Simulator::step_cycle`] call it themselves once
    /// [`Simulator::finished`] reports true (calling earlier just yields
    /// a snapshot of a partial run).
    pub fn finish(mut self) -> SimResult {
        self.stats.cycles = self.now;
        for t in 0..self.threads.len() {
            self.stats.retired_per_thread[t] = self.threads[t].retired;
        }
        self.stats.l1i = self.hierarchy.l1i_stats();
        self.stats.l1d = self.hierarchy.l1d_stats();
        self.stats.l2 = self.hierarchy.l2_stats();
        self.stats.lvip_lookups = self.lvip.lookup_count();
        self.stats.lvip_mispredicts = self.lvip.mispredict_count();
        let (_, catchup_aborts, merges, divergences) = self.sync.stats();
        self.stats.remerges = merges;
        self.stats.divergences = divergences;
        self.stats.catchup_false_positives = catchup_aborts;
        let (fhb_rec, fhb_search) = self.sync.fhb_activity();
        self.stats.energy.fhb_ops = fhb_rec + fhb_search;
        self.stats.energy.rst_updates = self.rst.update_count();
        self.stats.energy.lvip_lookups = self.lvip.lookup_count();
        self.stats.energy.cycles = self.now;
        self.stats.energy.icache_accesses = self.stats.l1i.accesses;
        self.stats.energy.dcache_accesses = self.stats.l1d.accesses;
        self.stats.energy.l2_accesses = self.stats.l2.accesses;
        self.stats.energy.dram_accesses = self.stats.l2.misses;

        let trace = self.obs.take().map(|o| {
            o.into_trace(
                self.now,
                Occupancy {
                    rob: self.rob_live as u32,
                    lsq: self.lsq_live as u32,
                    iq: self.iq.len() as u32,
                    arena: self.uops.len() as u32,
                },
            )
        });
        let metrics = self.metrics.take().map(|mut m| {
            m.finish(&self.stats);
            m.snapshot()
        });
        let final_regs = self.threads.iter().map(|t| *t.machine.regs()).collect();
        SimResult {
            stats: self.stats,
            final_regs,
            merge_log: self.merge_log,
            trace,
            metrics,
        }
    }

    /// Every thread's software-hint park and skip markers.
    #[cfg(feature = "check-invariants")]
    fn hint_state(&self) -> Vec<(Option<u64>, Option<u64>)> {
        self.threads
            .iter()
            .map(|t| (t.hint_parked_since, t.hint_skip_pc))
            .collect()
    }

    /// The earliest cycle after `now` at which a stage could act when
    /// none acted this cycle (`u64::MAX` if none ever can). On unchanged
    /// state, these are the only comparisons against the clock the
    /// stages make: an IQ entry's resolved `ready_at`, an issued
    /// commit-queue head's `complete_at`, a thread's fetch
    /// `blocked_until`, the decode-queue front's `ready_at`, and a
    /// software-hint park's expiry. A time at or before `now` that did
    /// not fire is waiting on one of the others. A quiet cycle polls every
    /// IQ entry (none issued, so the select scan never ran out of
    /// width), so an unresolved entry waits on an unissued producer.
    fn next_event(&self) -> u64 {
        let now = self.now;
        let mut next = u64::MAX;
        let mut consider = |t: u64| {
            if t > now {
                next = next.min(t);
            }
        };
        for &id in &self.iq {
            if let Some(ready_at) = self.uops[id].ready_at {
                consider(ready_at);
            }
        }
        for ts in &self.threads {
            if let Some(&head) = ts.commit_queue.front() {
                if let Some(c) = self.uops[head].complete_at {
                    consider(c);
                }
            }
            consider(ts.blocked_until);
            if let Some(since) = ts.hint_parked_since {
                consider(since.saturating_add(self.cfg.hint_wait_limit));
            }
        }
        if let Some(mo) = self.decode_queue.front() {
            consider(mo.ready_at);
        }
        next
    }

    /// All threads have fetched their `halt` and drained their commit
    /// queues — nothing is left in flight.
    pub fn finished(&self) -> bool {
        self.decode_queue.is_empty()
            && self
                .threads
                .iter()
                .all(|t| t.halted_fetch && t.commit_queue.is_empty())
    }

    /// Audit structural invariants of the pipeline state.
    ///
    /// Checks, in order:
    ///
    /// 1. Register Sharing Table integrity ([`RegSharingTable::audit`]):
    ///    merge-provenance bits only on set sharing bits, no pair bits
    ///    beyond the pairs that exist.
    /// 2. ITID masks: every in-flight uop and every decode-queue entry
    ///    owns only hardware threads that exist, and a uop's committed
    ///    mask never exceeds its ownership mask.
    /// 3. Writer-counter balance: each thread's per-register in-flight
    ///    writer counters (the paper's "Reg State" vectors) must equal
    ///    the number of uncommitted uops in that thread's commit queue
    ///    that write the register — a mismatch means a leak in the
    ///    fetch-increment / commit-decrement protocol.
    /// 4. Issue queue: every entry is a live, unissued uop, in strictly
    ///    increasing `seq` (oldest first, no duplicates) — what the issue
    ///    stage's in-place compaction must preserve.
    /// 5. Operand-readiness cache: every resolved IQ entry's `ready_at`
    ///    equals the latest completion of its live producers and older
    ///    same-address stores (a producer that retired since may only
    ///    have lowered that below a `ready_at` already passed).
    /// 6. Quiet-cycle fast path: while it is active, recomputing the next
    ///    event from the current state gives the same `quiet_until`, and
    ///    no resolved IQ entry is ready.
    ///
    /// Cost is `O(in-flight uops × threads)`, so the per-cycle call is
    /// gated behind the `check-invariants` feature; calling it manually
    /// from tests is always available.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        self.rst.audit()?;

        let live_mask: u8 = (1u8 << self.threads.len()) - 1;
        for (id, u) in self.uops.iter().enumerate() {
            if !u.live {
                continue; // retired slot awaiting reuse
            }
            let mask = u.itid.mask();
            if mask & !live_mask != 0 {
                return Err(format!(
                    "uop {id}: itid mask {mask:#06b} names threads beyond the {} configured",
                    self.threads.len()
                ));
            }
            if u.committed_mask & !mask != 0 {
                return Err(format!(
                    "uop {id}: committed mask {:#06b} exceeds itid mask {mask:#06b}",
                    u.committed_mask
                ));
            }
        }
        for (i, mo) in self.decode_queue.iter().enumerate() {
            let mask = mo.itid.mask();
            if mask & !live_mask != 0 {
                return Err(format!(
                    "decode entry {i} (pc {}): itid mask {mask:#06b} names threads beyond the {} configured",
                    mo.pc,
                    self.threads.len()
                ));
            }
        }

        for (t, ts) in self.threads.iter().enumerate() {
            let mut expected = [0u32; NUM_REGS];
            for &id in &ts.commit_queue {
                let u = &self.uops[id];
                if u.committed_mask & (1 << t) != 0 {
                    continue;
                }
                if let Some(rd) = u.inst.dest().filter(|r| !r.is_zero()) {
                    expected[rd.index()] += 1;
                }
            }
            for (r, &want) in expected.iter().enumerate() {
                if ts.writers[r] != want {
                    return Err(format!(
                        "thread {t}: writer counter for r{r} is {} but {want} uncommitted writers are in flight",
                        ts.writers[r]
                    ));
                }
            }
        }

        let mut prev_seq = None;
        for &id in &self.iq {
            let u = &self.uops[id];
            if !u.live || u.complete_at.is_some() {
                return Err(format!(
                    "iq uop {id} (seq {}) is {}",
                    u.seq,
                    if u.live { "already issued" } else { "not live" }
                ));
            }
            if let Some(prev) = prev_seq.filter(|&p| p >= u.seq) {
                return Err(format!(
                    "iq uop {id} (seq {}) follows seq {prev}: not strictly oldest-first",
                    u.seq
                ));
            }
            prev_seq = Some(u.seq);
        }

        let quiet = self.now < self.quiet_until;
        for &id in &self.iq {
            let Some(cached) = self.uops[id].ready_at else {
                continue;
            };
            let fresh = self.producers_ready_at(id);
            if fresh != Ok(cached) && !(fresh.is_ok_and(|f| f <= cached) && cached < self.now) {
                return Err(format!(
                    "iq uop {id}: cached ready_at {cached} but its producers give {fresh:?}"
                ));
            }
            if quiet && cached <= self.now {
                return Err(format!(
                    "iq uop {id} is ready at {cached}, inside the quiet stretch ending at {}",
                    self.quiet_until
                ));
            }
        }
        if quiet && self.next_event() != self.quiet_until {
            return Err(format!(
                "quiet stretch ends at {} but the next event is at {}",
                self.quiet_until,
                self.next_event()
            ));
        }
        Ok(())
    }

    /// Test hook: mutable access to the Register Sharing Table, so tests
    /// can inject corruption mid-run and prove the differential oracle /
    /// invariant audit catches it. Not part of the stable API.
    #[doc(hidden)]
    pub fn rst_mut(&mut self) -> &mut RegSharingTable {
        self.quiet_until = 0;
        &mut self.rst
    }

    /// Forward-progress watchdogs (DESIGN.md §15), checked at the top of
    /// every cycle: livelock (no thread retired for the configured window
    /// while the run is unfinished) and the total touched-memory budget
    /// (sampled every 4096 cycles — footprints grow slowly relative to
    /// the cycle loop).
    fn check_watchdogs(&mut self) -> Result<(), SimError> {
        let wd = self.cfg.watchdog;
        if wd.livelock_window > 0 {
            let retired: u64 = self.threads.iter().map(|t| t.retired).sum();
            if retired != self.wd_last_retired {
                self.wd_last_retired = retired;
                self.wd_last_progress = self.now;
            } else if self.now - self.wd_last_progress >= wd.livelock_window && !self.finished() {
                self.emit(TraceEvent::Watchdog {
                    kind: WatchdogKind::Livelock,
                });
                return Err(SimError::LivelockDetected {
                    window: wd.livelock_window,
                    cycle: self.now,
                });
            }
        }
        if wd.memory_budget_words > 0 && self.now & 0xFFF == 0 {
            let used: usize = self.memories.iter().map(Memory::touched_len).sum();
            if used > wd.memory_budget_words {
                self.emit(TraceEvent::Watchdog {
                    kind: WatchdogKind::MemoryBudget,
                });
                return Err(SimError::MemoryBudgetExceeded {
                    budget_words: wd.memory_budget_words,
                    used_words: used,
                });
            }
        }
        Ok(())
    }

    /// Apply a single-event upset to live state between cycles
    /// (fault-injection campaigns, DESIGN.md §15). Emits a
    /// [`TraceEvent::FaultInjected`] when tracing is on.
    ///
    /// # Errors
    ///
    /// [`SimError::BadSpec`] when the target is out of range for this
    /// configuration, or is a
    /// [`CheckpointByte`](crate::inject::FaultTarget::CheckpointByte)
    /// (those apply to serialized documents via
    /// [`crate::inject::flip_byte`], not to a live simulator).
    pub fn inject(&mut self, target: &crate::inject::FaultTarget) -> Result<(), SimError> {
        use crate::inject::FaultTarget as T;
        self.quiet_until = 0;
        match *target {
            T::RstEntry {
                reg,
                shared_xor,
                by_merge_xor,
            } => {
                if reg == 0 || reg >= NUM_REGS {
                    return Err(SimError::BadSpec(format!(
                        "rst fault register {reg} out of range"
                    )));
                }
                self.rst.debug_xor_entry(reg, shared_xor, by_merge_xor);
                self.emit(TraceEvent::FaultInjected {
                    unit: FaultUnit::Rst,
                    index: reg as u32,
                });
            }
            T::LvipSlot { slot, bits } => {
                if slot >= self.cfg.lvip_entries {
                    return Err(SimError::BadSpec(format!(
                        "lvip fault slot {slot} out of range"
                    )));
                }
                self.lvip.debug_xor_slot(slot, bits);
                self.emit(TraceEvent::FaultInjected {
                    unit: FaultUnit::Lvip,
                    index: slot as u32,
                });
            }
            T::ArchReg { thread, reg, bits } => {
                let Some(r) = Reg::from_index(reg).filter(|r| !r.is_zero()) else {
                    return Err(SimError::BadSpec(format!(
                        "arch-reg fault register {reg} out of range"
                    )));
                };
                if thread >= self.threads.len() {
                    return Err(SimError::BadSpec(format!(
                        "arch-reg fault thread {thread} out of range"
                    )));
                }
                let m = &mut self.threads[thread].machine;
                let v = m.reg(r);
                m.set_reg(r, v ^ bits);
                self.emit(TraceEvent::FaultInjected {
                    unit: FaultUnit::ArchReg,
                    index: ((thread as u32) << 8) | reg as u32,
                });
            }
            T::CheckpointByte { .. } => {
                return Err(SimError::BadSpec(
                    "checkpoint faults apply to serialized documents, not a live simulator".into(),
                ));
            }
        }
        Ok(())
    }

    /// Test hook: park thread `t`'s fetch forever, constructing a true
    /// livelock (nothing retires, yet the run never finishes) for
    /// watchdog tests. Not part of the stable API.
    #[doc(hidden)]
    pub fn debug_hang_thread(&mut self, t: usize) {
        self.quiet_until = 0;
        self.threads[t].blocked_until = u64::MAX;
    }

    /// The merge events recorded so far (empty unless
    /// [`SimConfig::record_merge_log`](crate::SimConfig) is set). Lets a
    /// driver check merges incrementally while stepping with
    /// [`Self::step_cycle`] instead of waiting for [`Self::finish`].
    pub fn merge_log(&self) -> &[crate::audit::MergeEvent] {
        &self.merge_log
    }

    /// The current cycle (the fetch boundary the architectural state
    /// corresponds to).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Dynamic instructions functionally executed so far, summed over
    /// threads. Because the model executes at fetch, this leads the
    /// committed count by the in-flight window — it is the instruction
    /// clock the sampling runner schedules windows against.
    pub fn instructions_fetched(&self) -> u64 {
        self.threads.iter().map(|t| t.machine.retired()).sum()
    }

    /// Read-only access to the accumulated statistics (useful for tests
    /// that drive the simulator manually).
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    // ----------------------------------------------------------------
    // Tracing (mmt-obs). With SimConfig::trace unset, every site below
    // reduces to a branch on an always-None option.
    // ----------------------------------------------------------------

    /// The current phase-profiling snapshot, when
    /// [`SimConfig::metrics`] is set. Safe to call mid-run: snapshots
    /// are immutable copies, and a later snapshot minus this one (via
    /// [`mmt_obs::MetricsSnapshot::delta`]) isolates an interval.
    pub fn metrics_snapshot(&self) -> Option<mmt_obs::MetricsSnapshot> {
        self.metrics.as_deref().map(crate::SimMetrics::snapshot)
    }

    /// Run one pipeline stage, timing it into the phase profiler when
    /// [`SimConfig::metrics`] is set. The profiler only reads the host
    /// clock after the stage returns, so the simulated behavior is
    /// bit-identical with metrics on or off; with metrics off this is
    /// one branch around the direct call.
    #[inline]
    fn timed_phase<R>(&mut self, phase: crate::SimPhase, f: fn(&mut Simulator) -> R) -> R {
        if self.metrics.is_none() {
            return f(self);
        }
        let start = std::time::Instant::now();
        let r = f(self);
        let elapsed = start.elapsed();
        if let Some(m) = self.metrics.as_deref_mut() {
            m.observe_phase(phase, elapsed);
        }
        r
    }

    /// Record one trace event at the current cycle (no-op when tracing
    /// is off).
    #[inline]
    fn emit(&mut self, event: TraceEvent) {
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.emit(self.now, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MmtLevel;
    use mmt_isa::asm::Builder;

    #[test]
    fn in_flight_records_stay_small() {
        let (macro_op, uop) = (std::mem::size_of::<MacroOp>(), std::mem::size_of::<Uop>());
        assert!(macro_op <= 128, "MacroOp is {macro_op} bytes");
        assert!(uop <= 256, "Uop is {uop} bytes");
    }

    /// Every fetched macro-op carries, for each member, the lane (and,
    /// when the merge log is on, the record) of that member's
    /// functional step, on a two-thread program mixing ALU ops, loads,
    /// stores and a branch that diverges the threads.
    #[test]
    fn fetched_lanes_match_the_oracle_step() {
        let mut b = Builder::new();
        let (top, skip) = (b.label(), b.label());
        b.tid(Reg::R1);
        b.addi(Reg::R2, Reg::R0, 6);
        b.bind(top);
        b.ld(Reg::R3, Reg::R1, 100);
        b.alu_add(Reg::R4, Reg::R3, Reg::R2);
        b.st(Reg::R4, Reg::R1, 200);
        b.beq(Reg::R1, Reg::R0, skip);
        b.alu_xor(Reg::R5, Reg::R5, Reg::R4);
        b.bind(skip);
        b.addi(Reg::R2, Reg::R2, -1);
        b.bne(Reg::R2, Reg::R0, top);
        b.halt();
        let program = b.build().unwrap();
        let mut memory = Memory::new(0);
        memory.store(100, 7).unwrap();
        memory.store(101, 9).unwrap();

        // The reference steps each thread in fetch order over its own
        // copy of the shared memory (the threads touch disjoint words).
        let mut ref_mem = memory.clone();
        let mut refs: Vec<Machine> = (0..2).map(Machine::new).collect();
        let mut cfg = SimConfig::paper_with(2, MmtLevel::Fxr);
        cfg.record_merge_log = true;
        let spec = RunSpec {
            program: program.clone(),
            sharing: MemSharing::Shared,
            memories: vec![memory],
            threads: 2,
        };
        let mut sim = Simulator::new(cfg, spec).unwrap();
        let (mut seen, mut loads, mut stores) = (0, 0, 0);
        while !sim.finished() {
            sim.step_cycle().unwrap();
            let fetched = sim.stats.macro_ops_fetched - seen;
            seen = sim.stats.macro_ops_fetched;
            let queue = &sim.decode_queue;
            for mo in queue.range(queue.len() - fetched as usize..) {
                let records = mo.records.as_deref().expect("merge log is on");
                for t in mo.itid.threads() {
                    let info = refs[t].step(&program, &mut ref_mem).unwrap();
                    assert_eq!(mo.pc, info.pc);
                    assert_eq!(mo.lanes[t].value, info.result.unwrap_or(0), "pc {}", mo.pc);
                    assert_eq!(mo.lanes[t].addr, info.mem_addr.unwrap_or(0), "pc {}", mo.pc);
                    assert_eq!(records[t], Some(TraceRecord::from_step(&info)));
                    loads += usize::from(info.loaded.is_some());
                    stores += usize::from(info.stored.is_some());
                }
            }
        }
        assert!(refs.iter().all(Machine::halted));
        assert_eq!((loads, stores), (12, 12));
        let (_, _, _, divergences) = sim.sync.stats();
        assert!(divergences > 0, "the tid branch must diverge the threads");
    }
}
