//! Bit-identity equivalence suite for the allocation-free cycle loop.
//!
//! The Scratch/free-list rewrite of the pipeline hot path must not change
//! *any* observable simulation output: final architected registers, every
//! statistics counter, and the merge log must be bit-identical to the
//! pre-overhaul implementation. The golden digests below were captured by
//! running this same grid against the original (allocating, monotonic
//! uop-arena) implementation with `MMT_PRINT_GOLDEN=1`; the test replays
//! the grid and compares digests.
//!
//! Grid: one multi-threaded (Shared) app and one multi-execution
//! (PerThread) app, at 2 and 4 threads, MMT-FXR with the merge log
//! recorded — the configuration that exercises shared fetch, the
//! splitter, LVIP verification, register merging and divergence
//! bookkeeping all at once. The memory-bound apps (mcf, canneal) with
//! the data caches cut to 4 KiB L1D / 32 KiB L2 add runs dominated by
//! stalled stretches, and fft at the lower MMT levels covers the
//! configurations without shared execution or register merging.

use mmt_sim::{MmtLevel, RunSpec, SimConfig, SimResult, Simulator};
use mmt_workloads::app_by_name;

/// Test scale divisor (matches the bench crate's smoke scale).
const SCALE: u64 = 16;

/// FNV-1a, 64-bit: a stable, dependency-free digest.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn put_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn put_u64(&mut self, v: u64) {
        self.put_bytes(&v.to_le_bytes());
    }
}

/// Digest every observable output of a run. Field order is fixed;
/// *adding* new counters to `SimStats` does not disturb the digest, so
/// goldens stay valid as telemetry grows — only a behavioral change in
/// the counters hashed here (or the registers / merge log) trips it.
fn digest(r: &SimResult) -> u64 {
    let mut h = Fnv::new();
    for regs in &r.final_regs {
        for &v in regs.iter() {
            h.put_u64(v);
        }
    }
    let s = &r.stats;
    h.put_u64(s.cycles);
    for &v in &s.retired_per_thread {
        h.put_u64(v);
    }
    h.put_u64(s.macro_ops_fetched);
    h.put_u64(s.uops_dispatched);
    h.put_u64(s.uops_executed);
    h.put_u64(s.fetch_modes.merge);
    h.put_u64(s.fetch_modes.detect);
    h.put_u64(s.fetch_modes.catchup);
    h.put_u64(s.identity.fetch_identical);
    h.put_u64(s.identity.execute_identical);
    h.put_u64(s.identity.execute_identical_regmerge);
    h.put_u64(s.identity.private);
    h.put_u64(s.branches);
    h.put_u64(s.branch_mispredicts);
    h.put_u64(s.lvip_lookups);
    h.put_u64(s.lvip_mispredicts);
    h.put_u64(s.divergences);
    h.put_u64(s.remerges);
    h.put_u64(s.catchup_false_positives);
    for &v in &s.remerge_branch_histogram {
        h.put_u64(v);
    }
    for c in [&s.l1i, &s.l1d, &s.l2] {
        h.put_u64(c.accesses);
        h.put_u64(c.hits);
        h.put_u64(c.misses);
    }
    let e = &s.energy;
    for v in [
        e.cycles,
        e.icache_accesses,
        e.dcache_accesses,
        e.l2_accesses,
        e.dram_accesses,
        e.renames,
        e.executions,
        e.regfile_reads,
        e.regfile_writes,
        e.commits,
        e.bpred_accesses,
        e.fhb_ops,
        e.rst_updates,
        e.lvip_lookups,
        e.merge_checks,
        e.split_evals,
    ] {
        h.put_u64(v);
    }
    h.put_u64(r.merge_log.len() as u64);
    for ev in &r.merge_log {
        h.put_u64(ev.pc);
        h.put_u64(ev.itid.mask() as u64);
        h.put_u64(ev.lvip_speculative as u64);
        // Inst and TraceRecord have stable derived Debug formats.
        h.put_bytes(format!("{:?}", ev.inst).as_bytes());
        for (t, rec) in ev.members() {
            h.put_u64(t as u64);
            h.put_bytes(format!("{rec:?}").as_bytes());
        }
    }
    h.0
}

/// The data-cache shape of a golden run.
#[derive(Debug, Clone, Copy)]
enum Caches {
    /// Table 4's hierarchy.
    Paper,
    /// Same associativity and latency, with L1D cut to 4 KiB and L2 to
    /// 32 KiB: the working sets of mcf and canneal no longer fit.
    Membound,
}

/// One golden run: app, threads, MMT level, cache shape, digest.
type Golden = (&'static str, usize, MmtLevel, Caches, u64);

fn run(app_name: &str, threads: usize) -> SimResult {
    run_with_metrics(app_name, threads, MmtLevel::Fxr, Caches::Paper, false)
}

fn run_with_metrics(
    app_name: &str,
    threads: usize,
    level: MmtLevel,
    caches: Caches,
    metrics: bool,
) -> SimResult {
    let app = app_by_name(app_name).expect("known app");
    let w = app.instance(threads, SCALE);
    let mut cfg = SimConfig::paper_with(threads, level);
    if let Caches::Membound = caches {
        cfg.hierarchy.l1d.size_bytes = 4 * 1024;
        cfg.hierarchy.l2.size_bytes = 32 * 1024;
    }
    cfg.record_merge_log = true;
    cfg.metrics = metrics;
    let spec = RunSpec {
        program: w.program,
        sharing: w.sharing,
        memories: w.memories,
        threads: w.threads,
    };
    Simulator::new(cfg, spec)
        .expect("valid config and spec")
        .run()
        .expect("workload terminates")
}

/// The golden grid. The first four digests were captured from the
/// pre-overhaul implementation (see module docs); the rest from the
/// stage-per-file pipeline that preceded the quiet-cycle fast path
/// (DESIGN.md §10), which must not move them.
#[rustfmt::skip]
const GOLDENS: &[Golden] = &[
    ("fft", 2, MmtLevel::Fxr, Caches::Paper, 0x46d59b21b06e6329),
    ("fft", 4, MmtLevel::Fxr, Caches::Paper, 0xc331513fbb8c4911),
    ("ammp", 2, MmtLevel::Fxr, Caches::Paper, 0xa6caa2e3b73f5650),
    ("ammp", 4, MmtLevel::Fxr, Caches::Paper, 0x02c3f859c6d101d6),
    ("mcf", 2, MmtLevel::Fxr, Caches::Membound, 0x56aa5a1affe14e79),
    ("mcf", 4, MmtLevel::Fxr, Caches::Membound, 0x587236ec938f29ea),
    ("canneal", 2, MmtLevel::Fxr, Caches::Membound, 0xce787eb1e23ffc64),
    ("canneal", 4, MmtLevel::Fxr, Caches::Membound, 0xb13f44b074dead88),
    ("fft", 4, MmtLevel::Base, Caches::Paper, 0xabfadcad2ca40e5d),
    ("fft", 4, MmtLevel::F, Caches::Paper, 0xef824b577cc9c786),
    ("fft", 4, MmtLevel::Fx, Caches::Paper, 0x9630ae4f4b9a8fd0),
];

#[test]
fn outputs_bit_identical_to_pre_overhaul_goldens() {
    let print = std::env::var_os("MMT_PRINT_GOLDEN").is_some();
    let mut failures = Vec::new();
    for &(app, threads, level, caches, want) in GOLDENS {
        let got = digest(&run_with_metrics(app, threads, level, caches, false));
        if print {
            println!(
                "(\"{app}\", {threads}, MmtLevel::{level:?}, Caches::{caches:?}, {got:#018x}),"
            );
        } else if got != want {
            failures.push(format!(
                "{app} @ {threads} threads {level:?} {caches:?}: digest {got:#018x} != golden {want:#018x}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "simulation output drifted from the pre-overhaul implementation:\n{}",
        failures.join("\n")
    );
}

/// The same workload run twice must produce identical output — guards
/// against nondeterminism sneaking into the arena/scratch machinery.
#[test]
fn runs_are_deterministic() {
    let a = digest(&run("fft", 2));
    let b = digest(&run("fft", 2));
    assert_eq!(a, b, "same workload, same digest");
}

/// Timing invisibility of the metrics layer: the phase profiler only
/// reads the host clock, so a run with `SimConfig::metrics` enabled must
/// hit the *same* pre-PR golden digests as a disabled run — every
/// counter, register, and merge-log entry bit-identical. The profiler
/// must also actually have observed the run: each stage histogram holds
/// one observation per stepped cycle, and the quiet-cycle fast path,
/// which runs no stage, counts the rest in `mmt_quiet_cycles_total`.
#[test]
fn metrics_are_timing_invisible() {
    for &(app, threads, level, caches, want) in GOLDENS.iter().take(2) {
        let r = run_with_metrics(app, threads, level, caches, true);
        assert_eq!(
            digest(&r),
            want,
            "{app} @ {threads} threads: metrics-enabled run drifted from the golden digest"
        );
        let snap = r.metrics.expect("metrics snapshot attached");
        let cycles = snap
            .series
            .iter()
            .find(|s| s.name == "mmt_cycles_total")
            .expect("cycles counter folded in");
        assert_eq!(
            cycles.value,
            mmt_obs::SeriesValue::Counter(r.stats.cycles),
            "folded counter mirrors SimStats"
        );
        let quiet = match snap
            .series
            .iter()
            .find(|s| s.name == "mmt_quiet_cycles_total")
            .map(|s| &s.value)
        {
            Some(&mmt_obs::SeriesValue::Counter(q)) => q,
            v => panic!("quiet-cycle counter missing or not a counter: {v:?}"),
        };
        assert!(quiet > 0, "{app} @ {threads} threads: no quiet cycles");
        for s in &snap.series {
            if s.name != "mmt_stage_seconds" {
                continue;
            }
            match &s.value {
                mmt_obs::SeriesValue::Histogram { count, .. } => assert_eq!(
                    *count + quiet,
                    r.stats.cycles,
                    "one observation per stage per stepped cycle ({:?})",
                    s.labels
                ),
                v => panic!("stage series is not a histogram: {v:?}"),
            }
        }
    }
    // And the disabled path attaches nothing.
    assert!(run("fft", 2).metrics.is_none());
}
