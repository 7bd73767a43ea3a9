//! Host cost per operation of the substrate layers the pipeline calls
//! into: the cache hierarchy, the branch predictor, the fetch-sync FHB
//! search and the LVIP.
//!
//! The pipeline's stage timers cannot see inside a stage, so each layer
//! is measured on its own: the first [`REPLAY_STEPS`] functional
//! `Machine::step` records of a job are replayed through that layer's
//! public entry points in a tight loop. Multiplying by a run's event
//! counts gives an *estimate* of the layer's share of a run.

use mmt_frontend::{FetchSync, TwoLevelPredictor};
use mmt_isa::interp::Machine;
use mmt_isa::{MemSharing, OpClass};
use mmt_mem::MemoryHierarchy;
use mmt_sim::{Lvip, RunSpec, SimConfig};
use std::hint::black_box;
use std::time::Instant;

/// Functional steps recorded per job.
pub const REPLAY_STEPS: usize = 1 << 20;

/// Host time spent in one layer over a count of operations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerCost {
    /// Nanoseconds.
    pub ns: f64,
    /// Operations.
    pub ops: u64,
}

impl LayerCost {
    /// Mean nanoseconds per operation (zero with no operations).
    pub fn ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.ns / self.ops as f64
        }
    }

    fn add(&mut self, other: LayerCost) {
        self.ns += other.ns;
        self.ops += other.ops;
    }
}

/// Per-layer costs, summed over the jobs replayed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Costs {
    /// `MemoryHierarchy::access_inst` / `access_data` calls.
    pub mem: LayerCost,
    /// `TwoLevelPredictor::predict` + `update` pairs.
    pub bpred: LayerCost,
    /// `FetchSync::record_taken` calls.
    pub sync: LayerCost,
    /// `Lvip::predict_identical` calls.
    pub lvip: LayerCost,
}

impl Costs {
    /// Accumulate another job's costs.
    pub fn add(&mut self, other: &Costs) {
        self.mem.add(other.mem);
        self.bpred.add(other.bpred);
        self.sync.add(other.sync);
        self.lvip.add(other.lvip);
    }
}

/// One hierarchy access: address space, word address, kind.
struct Access {
    space: usize,
    addr: u64,
    kind: AccessKind,
}

enum AccessKind {
    Inst,
    Load,
    Store,
}

/// The call streams of each layer, recorded up front so the timed loops
/// do nothing but call the layer.
#[derive(Default)]
struct Streams {
    accesses: Vec<Access>,
    branches: Vec<(usize, u64, bool)>,
    taken: Vec<(usize, u64)>,
    loads: Vec<u64>,
}

/// Interleave the threads one step at a time, as SMT fetch does, for at
/// most `cap` steps.
fn record(spec: &RunSpec, cap: usize) -> Result<Streams, String> {
    let mut memories = spec.memories.clone();
    let mut machines: Vec<Machine> = (0..spec.threads).map(Machine::new).collect();
    let mut s = Streams::default();
    let mut steps = 0;
    while steps < cap && machines.iter().any(|m| !m.halted()) {
        for (t, m) in machines.iter_mut().enumerate() {
            if m.halted() || steps == cap {
                continue;
            }
            let (mem, space) = match spec.sharing {
                MemSharing::Shared => (&mut memories[0], 0),
                MemSharing::PerThread => (&mut memories[t], t),
            };
            let info = m
                .step(&spec.program, mem)
                .map_err(|e| format!("replay thread {t}: {e}"))?;
            steps += 1;
            s.accesses.push(Access {
                space: 0,
                addr: info.pc,
                kind: AccessKind::Inst,
            });
            if let Some(addr) = info.mem_addr {
                let kind = match info.inst.class() {
                    OpClass::Store => AccessKind::Store,
                    _ => AccessKind::Load,
                };
                if matches!(kind, AccessKind::Load) {
                    s.loads.push(info.pc);
                }
                s.accesses.push(Access { space, addr, kind });
            }
            if let Some(taken) = info.taken {
                s.branches.push((t, info.pc, taken));
            }
            if info.redirects() {
                if let Some(target) = info.control_target {
                    s.taken.push((t, target));
                }
            }
        }
    }
    Ok(s)
}

fn timed(ops: usize, f: impl FnOnce() -> u64) -> LayerCost {
    let start = Instant::now();
    black_box(f());
    LayerCost {
        ns: start.elapsed().as_nanos() as f64,
        ops: ops as u64,
    }
}

/// Replay the first [`REPLAY_STEPS`] steps of `spec` through each layer,
/// built as `cfg` builds it.
///
/// # Errors
///
/// A functional execution fault, as text.
pub fn measure(spec: &RunSpec, cfg: &SimConfig) -> Result<Costs, String> {
    let s = record(spec, REPLAY_STEPS)?;
    let mem = timed(s.accesses.len(), || {
        let mut h = MemoryHierarchy::new(cfg.hierarchy);
        let mut acc = 0u64;
        for (now, a) in s.accesses.iter().enumerate() {
            let now = now as u64;
            let out = match a.kind {
                AccessKind::Inst => h.access_inst(a.space, a.addr, now),
                AccessKind::Load => h.access_data(a.space, a.addr, now, false),
                AccessKind::Store => h.access_data(a.space, a.addr, now, true),
            };
            acc = acc.wrapping_add(out.latency);
        }
        acc
    });
    let bpred = timed(s.branches.len(), || {
        let mut p = TwoLevelPredictor::new(cfg.predictor, spec.threads);
        let mut acc = 0u64;
        for &(t, pc, taken) in &s.branches {
            acc += u64::from(p.predict(t, pc));
            p.update(t, pc, taken);
        }
        acc
    });
    let sync = timed(s.taken.len(), || {
        let mut sync = FetchSync::new(spec.threads, cfg.fhb_entries);
        // Every thread diverged: each taken branch is recorded and
        // searched for, the FHB's working case.
        if spec.threads > 1 {
            let singletons: Vec<u8> = (0..spec.threads).map(|t| 1 << t).collect();
            sync.diverge(&singletons);
        }
        let mut acc = 0u64;
        for &(t, target) in &s.taken {
            acc += u64::from(sync.record_taken(t, target) != mmt_frontend::SyncEvent::None);
        }
        acc
    });
    let lvip = timed(s.loads.len(), || {
        let mut lvip = Lvip::new(cfg.lvip_entries);
        s.loads
            .iter()
            .map(|&pc| u64::from(lvip.predict_identical(pc)))
            .sum()
    });
    Ok(Costs {
        mem,
        bpred,
        sync,
        lvip,
    })
}
