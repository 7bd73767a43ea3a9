//! Two-speed simulation equivalence suite (DESIGN.md §14).
//!
//! Three contracts are exercised here, each differential:
//!
//! 1. **Serde round-trip** (proptest): `ArchState -> JSON -> ArchState`
//!    is the identity, including full-width `u64` payloads the vendored
//!    f64-based JSON reader would otherwise round; random bytes,
//!    truncations and bit flips of a document fail with an `Err` (or
//!    load the intact state), never a panic.
//! 2. **Checkpoint/restore bit-identity**: a detailed run checkpointed at
//!    cycle N and resumed must produce *bit-identical* `SimStats`, final
//!    registers, and merge log vs the uninterrupted run — across the
//!    full 16-app suite at 2 and 4 threads.
//! 3. **Mode handoff**: the fast-forward executor run from the same
//!    initial state lands on exactly the detailed model's final
//!    architectural digest, and a detailed run resumed from a
//!    JSON-round-tripped mid-run `ArchState` finishes at that digest
//!    too (the architectural outcome is mode-independent). The sampled
//!    runner's by-value handoff moves memory images instead of copying
//!    them and resumes bit-identically to the borrowed one.

use mmt_isa::interp::{Machine, Memory};
use mmt_isa::reg::NUM_REGS;
use mmt_isa::MemSharing;
use mmt_sim::snapshot::{ArchState, Fnv};
use mmt_sim::{Ffwd, MmtLevel, RunSpec, SimConfig, SimResult, Simulator};
use mmt_workloads::spec::layout;
use mmt_workloads::{all_apps, app_by_name, WorkloadInstance};
use proptest::prelude::*;

/// Test scale divisor (matches the bench crate's smoke scale).
const SCALE: u64 = 16;

/// Cycle at which the mid-run checkpoint is captured.
const CKPT_CYCLE: u64 = 500;

fn to_spec(w: WorkloadInstance) -> RunSpec {
    RunSpec {
        program: w.program,
        sharing: w.sharing,
        memories: w.memories,
        threads: w.threads,
    }
}

fn cfg_for(threads: usize) -> SimConfig {
    let mut cfg = SimConfig::paper_with(threads, MmtLevel::Fxr);
    cfg.record_merge_log = true;
    cfg
}

/// [`cfg_for`] with L1D cut to 4 KiB and L2 to 32 KiB, so the working
/// sets of the memory-bound apps miss and most cycles stall.
fn membound_cfg_for(threads: usize) -> SimConfig {
    let mut cfg = cfg_for(threads);
    cfg.hierarchy.l1d.size_bytes = 4 * 1024;
    cfg.hierarchy.l2.size_bytes = 32 * 1024;
    cfg
}

/// One `step_cycle`, checking it advanced the clock by exactly one
/// cycle (the quiet-cycle fast path must not skip ahead).
fn step_one(sim: &mut Simulator) {
    let before = sim.now();
    sim.step_cycle().expect("workload terminates");
    assert_eq!(
        sim.now(),
        before + 1,
        "step_cycle advanced more than one cycle"
    );
}

/// Drive a simulator to completion, returning the final architectural
/// state (captured at the last fetch boundary) alongside the result.
fn run_stepped(mut sim: Simulator) -> (SimResult, ArchState) {
    while !sim.finished() {
        sim.step_cycle().expect("workload terminates");
    }
    let arch = sim.arch_state();
    (sim.finish(), arch)
}

fn assert_results_identical(a: &SimResult, b: &SimResult, label: &str) {
    assert_eq!(
        format!("{:?}", a.stats),
        format!("{:?}", b.stats),
        "{label}: SimStats diverged"
    );
    assert_eq!(a.final_regs, b.final_regs, "{label}: final registers");
    assert_eq!(a.merge_log, b.merge_log, "{label}: merge log");
}

/// Contract 2: checkpoint at cycle N, restore, run both to the end —
/// every observable output must be bit-identical. The uninterrupted run
/// *is* the checkpointed simulator continued (checkpointing must not
/// perturb it), so each app costs one full run plus one resumed tail.
/// Besides the suite at Table 4's caches, mcf and canneal run with the
/// data caches cut down, where stalled stretches dominate, and every
/// `step_cycle` must advance the clock by exactly one cycle.
#[test]
fn restore_at_cycle_n_is_bit_identical_across_suite() {
    let mut inputs = Vec::new();
    for app in all_apps() {
        for threads in [2usize, 4] {
            inputs.push((app.instance(threads, SCALE), cfg_for(threads)));
        }
    }
    for name in ["mcf", "canneal"] {
        let app = app_by_name(name).expect("suite app");
        for threads in [2usize, 4] {
            inputs.push((app.instance(threads, SCALE), membound_cfg_for(threads)));
        }
    }
    for (w, cfg) in inputs {
        let threads = w.threads;
        let name = format!("{} (L1D {} B)", w.name, cfg.hierarchy.l1d.size_bytes);
        let mut sim = Simulator::new(cfg, to_spec(w)).expect("valid spec");
        let mut ckpt = None;
        while !sim.finished() {
            if sim.now() == CKPT_CYCLE {
                ckpt = Some(sim.checkpoint().expect("untraced run checkpoints"));
            }
            step_one(&mut sim);
        }
        let uninterrupted = sim.finish();
        let ckpt =
            ckpt.unwrap_or_else(|| panic!("{name} @ {threads}t finished before {CKPT_CYCLE}"));
        assert_eq!(ckpt.cycle(), CKPT_CYCLE);

        let mut resumed = ckpt.restore();
        while !resumed.finished() {
            step_one(&mut resumed);
        }
        let resumed = resumed.finish();
        assert_results_identical(
            &uninterrupted,
            &resumed,
            &format!("{name} @ {threads} threads"),
        );
    }
}

/// Contract 3a: the block-dispatch executor reaches exactly the detailed
/// model's final architectural digest (registers, PCs, retired counts,
/// memory images) from the same initial state. One multi-threaded and
/// one multi-execution app at both thread counts; the full 16-app grid
/// runs in `mmtgate --check ffwd` at release speed.
#[test]
fn ffwd_matches_detailed_architectural_digest() {
    for name in ["fft", "ammp"] {
        for threads in [2usize, 4] {
            let app = mmt_workloads::app_by_name(name).expect("known app");
            let spec = to_spec(app.instance(threads, SCALE));
            let ffwd = Ffwd::new(&spec.program);
            let mut fast = spec.initial_arch_state();
            ffwd.run_to_halt(&spec.program, &mut fast, u64::MAX)
                .expect("ffwd terminates");

            let sim = Simulator::new(cfg_for(threads), spec).expect("valid spec");
            let (_, detailed) = run_stepped(sim);
            assert_eq!(
                fast.digest(),
                detailed.digest(),
                "{name} @ {threads} threads: ffwd and detailed disagree"
            );
        }
    }
}

/// Contract 3b: a detailed run resumed from a *JSON-round-tripped*
/// mid-run snapshot converges to the uninterrupted run's architectural
/// digest (timing stats legitimately differ — the resumed pipeline
/// restarts cold — but the architecture cannot).
#[test]
fn resume_from_json_archstate_converges_architecturally() {
    for name in ["fft", "ammp"] {
        let threads = 2;
        let app = mmt_workloads::app_by_name(name).expect("known app");
        let spec = to_spec(app.instance(threads, SCALE));
        let program = spec.program.clone();

        let mut sim = Simulator::new(cfg_for(threads), spec.clone()).expect("valid spec");
        let mut snapshot = None;
        while !sim.finished() {
            if sim.now() == CKPT_CYCLE {
                snapshot = Some(sim.arch_state());
            }
            sim.step_cycle().expect("workload terminates");
        }
        let full_digest = sim.arch_state().digest();
        let snapshot = snapshot.expect("ran past the snapshot cycle");

        let restored =
            ArchState::from_json(&snapshot.to_json()).expect("snapshot JSON parses back");
        assert_eq!(snapshot, restored, "{name}: JSON round-trip");

        let resumed = Simulator::from_arch(cfg_for(threads), program, restored)
            .expect("resume accepts the snapshot");
        let (_, arch) = run_stepped(resumed);
        assert_eq!(
            arch.digest(),
            full_digest,
            "{name}: resumed run diverged architecturally"
        );
    }
}

/// Contract 3c: fast-forwarding the prefix and handing off to the
/// detailed model mid-run also converges — the direction the sampling
/// runner actually uses.
#[test]
fn ffwd_prefix_then_detailed_tail_converges() {
    let app = mmt_workloads::app_by_name("fft").expect("known app");
    let threads = 2;
    let spec = to_spec(app.instance(threads, SCALE));

    let sim = Simulator::new(cfg_for(threads), spec.clone()).expect("valid spec");
    let (_, golden) = run_stepped(sim);

    let ffwd = Ffwd::new(&spec.program);
    let mut state = spec.initial_arch_state();
    ffwd.advance(&spec.program, &mut state, 2_000)
        .expect("prefix executes");
    let tail = Simulator::from_arch(cfg_for(threads), spec.program.clone(), state)
        .expect("handoff accepted");
    let (_, arch) = run_stepped(tail);
    assert_eq!(
        arch.digest(),
        golden.digest(),
        "ffwd prefix + detailed tail diverged from all-detailed run"
    );
}

/// `(app, threads, from_arch digest, from_arch_warmed digest)` of a run
/// resumed at [`CKPT_CYCLE`], captured with the borrowed handoff
/// (`from_arch(&state)`, `from_arch_warmed(&state, into_hierarchy())`)
/// the by-value one replaced. fft and canneal share one memory, ammp and
/// mcf run one per thread.
const HANDOFF_GOLDENS: &[(&str, usize, u64, u64)] = &[
    ("fft", 2, 0x8a25e0eb5fd2a9a4, 0x30a5ff158bd1c4d9),
    ("ammp", 2, 0x9c92a7fd74616fa5, 0x5dd27df03a9c5bec),
    ("canneal", 4, 0x2d7ecd1858488440, 0x8ef9c6554d80cb8a),
    ("mcf", 4, 0x585875dd9d438a5f, 0x8d86c682adde7af0),
];

/// FNV-1a over a finished run's statistics, final registers and final
/// architectural digest.
fn run_digest(sim: Simulator) -> u64 {
    let (r, arch) = run_stepped(sim);
    let mut h = Fnv::new();
    h.put_bytes(format!("{:?} {:?}", r.stats, r.final_regs).as_bytes());
    h.put_u64(arch.digest());
    h.finish()
}

/// Contract 3d: the by-value handoff the sampled runner uses. Ending a
/// window with `into_arch_warmed` yields exactly `arch_state()`; handing
/// that state back through `from_arch_warmed` moves every memory image
/// (same allocation out again, so nothing was copied); and runs resumed
/// through either restore entry point finish bit-identically to the
/// borrowed handoff's goldens.
#[test]
fn by_value_handoff_moves_memories_and_matches_goldens() {
    let images = |s: &ArchState| -> Vec<*const u64> {
        s.memories.iter().map(|m| m.words().as_ptr()).collect()
    };
    for &(name, threads, cold_want, warm_want) in HANDOFF_GOLDENS {
        let app = app_by_name(name).expect("known app");
        let spec = to_spec(app.instance(threads, SCALE));
        let program = spec.program.clone();
        let mut sim = Simulator::new(cfg_for(threads), spec).expect("valid spec");
        while sim.now() < CKPT_CYCLE {
            step_one(&mut sim);
        }
        assert!(!sim.finished(), "{name}: checkpoint must fall mid-run");
        let borrowed = sim.arch_state();
        let (state, hierarchy) = sim.into_arch_warmed();
        assert_eq!(state, borrowed, "{name}: moved state != arch_state()");

        assert!(
            state.memories.iter().all(|m| !m.words().is_empty()),
            "{name}: the image check needs backed memories"
        );
        let moved = images(&state);
        let resumed =
            Simulator::from_arch_warmed(cfg_for(threads), program.clone(), state, hierarchy)
                .expect("handoff accepted");
        let (state, hierarchy) = resumed.into_arch_warmed();
        assert_eq!(images(&state), moved, "{name}: a memory image was copied");

        let warm = Simulator::from_arch_warmed(cfg_for(threads), program.clone(), state, hierarchy)
            .expect("handoff accepted");
        let cold =
            Simulator::from_arch(cfg_for(threads), program, borrowed).expect("handoff accepted");
        assert_eq!(
            run_digest(cold),
            cold_want,
            "{name} @ {threads}t: from_arch"
        );
        assert_eq!(
            run_digest(warm),
            warm_want,
            "{name} @ {threads}t: from_arch_warmed"
        );
    }
}

fn arbitrary_state() -> impl Strategy<Value = ArchState> {
    (
        any::<u64>(),
        prop::collection::vec(any::<u64>(), 0..40),
        prop::collection::vec(any::<u64>(), 0..40),
        1u64..5,
        prop::option::of(prop::collection::vec(any::<u64>(), 8usize..9)),
    )
        .prop_map(|(seed, regs_pool, words, nthreads, lvip_pcs)| {
            let nthreads = nthreads as usize;
            let mut s = ArchState::initial(
                nthreads,
                MemSharing::PerThread,
                &(0..nthreads).collect::<Vec<_>>(),
                1 << 20,
            );
            s.cycle = seed;
            s.config_digest = seed.rotate_left(17);
            for (i, t) in s.threads.iter_mut().enumerate() {
                let mut regs = [0u64; NUM_REGS];
                for (r, v) in regs_pool.iter().enumerate() {
                    if r + 1 < NUM_REGS {
                        regs[r + 1] = v.wrapping_add(i as u64);
                    }
                }
                let halted = seed & (1 << i) != 0;
                *t = Machine::from_parts(
                    i,
                    regs,
                    seed % 1000,
                    halted,
                    seed.wrapping_mul(i as u64 + 1),
                );
            }
            for (id, m) in s.memories.iter_mut().enumerate() {
                for (a, &w) in words.iter().enumerate() {
                    m.store((a as u64 * 37 + id as u64) % (1 << 20), w).unwrap();
                }
            }
            s.rst = Some({
                let mut r = [(0u8, 0u8); NUM_REGS];
                for (i, e) in r.iter_mut().enumerate() {
                    let bits = (seed >> (i % 48)) as u8 & 0x3f;
                    *e = (bits, bits & (seed as u8 & 0x3f));
                }
                r
            });
            s.lvip = lvip_pcs.map(|pcs| {
                let mut t = vec![None; 64];
                for (i, pc) in pcs.into_iter().enumerate() {
                    t[(pc % 64) as usize] = Some(pc);
                    t[i] = Some(pc);
                }
                t
            });
            s
        })
}

proptest! {
    /// Contract 1: serialization is lossless for arbitrary states,
    /// including u64 values beyond f64's 2^53 integer range.
    #[test]
    fn archstate_json_round_trips(state in arbitrary_state()) {
        let text = state.to_json();
        let back = ArchState::from_json(&text);
        prop_assert!(back.is_ok(), "parse failed: {:?}", back.err());
        let back = back.unwrap();
        prop_assert_eq!(&state, &back);
        prop_assert_eq!(state.digest(), back.digest());
    }
}

/// `from_json` of a damaged document: an `Err`, or exactly the state
/// the intact document loads as (damage the integrity digest cannot
/// see, such as in whitespace or the trailing newline). Never a panic.
fn load_damaged(damaged: &[u8], intact: &ArchState) -> Result<(), String> {
    if let Ok(state) = ArchState::from_json(&String::from_utf8_lossy(damaged)) {
        prop_assert!(
            &state == intact,
            "damaged document loaded a different state"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_bytes_are_not_a_state(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        prop_assert!(ArchState::from_json(&String::from_utf8_lossy(&bytes)).is_err());
    }

    #[test]
    fn truncated_documents_fail_cleanly(state in arbitrary_state(), cut in any::<usize>()) {
        let doc = state.to_json();
        let intact = ArchState::from_json(&doc)?;
        load_damaged(&doc.as_bytes()[..cut % doc.len()], &intact)?;
    }

    #[test]
    fn bit_flipped_documents_fail_cleanly(
        state in arbitrary_state(),
        at in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut doc = state.to_json().into_bytes();
        let intact = ArchState::from_json(std::str::from_utf8(&doc).unwrap())?;
        let at = at % doc.len();
        doc[at] ^= 1 << bit;
        load_damaged(&doc, &intact)?;
    }
}

/// A valid `to_json` document with one field replaced: `from_json`
/// must refuse it with an error naming `expect`, before it allocates.
fn refuse_crafted(field: &str, crafted: &str, expect: &str) {
    let mut state = ArchState::initial(2, MemSharing::PerThread, &[0, 1], 1 << 20);
    state.lvip = Some(vec![None; 64]);
    let doc = state.to_json();
    assert!(ArchState::from_json(&doc).is_ok());
    let bad = doc.replacen(field, crafted, 1);
    assert_ne!(bad, doc, "{field:?} not in the document");
    let err = ArchState::from_json(&bad).expect_err("crafted size accepted");
    assert!(err.contains(expect), "{err}");
}

/// An LVIP table of `u64::MAX` slots made the parser panic with
/// `capacity overflow` instead of returning an error.
#[test]
fn crafted_lvip_size_is_refused() {
    refuse_crafted(
        "\"lvip_entries\": 64",
        "\"lvip_entries\": \"18446744073709551615\"",
        "lvip_entries",
    );
}

/// A word at address 2^60 under a `u64::MAX` limit made the parser
/// panic with `capacity overflow` instead of returning an error.
#[test]
fn crafted_memory_address_is_refused() {
    refuse_crafted(
        "\"limit\": \"1048576\", \"words\": []",
        "\"limit\": \"18446744073709551615\", \"words\": [[\"1152921504606846976\", \"1\"]]",
        "exceeds limit",
    );
}

/// Checkpointing under tracing is refused (the event ring is not
/// checkpointable), with a clear error rather than silent state loss.
#[test]
fn checkpoint_refuses_tracing_runs() {
    let app = mmt_workloads::app_by_name("fft").expect("known app");
    let mut cfg = cfg_for(2);
    cfg.trace = Some(mmt_sim::TraceConfig::default());
    let sim = Simulator::new(cfg, to_spec(app.instance(2, SCALE))).expect("valid spec");
    let err = sim.checkpoint().expect_err("tracing runs must refuse");
    assert!(matches!(err, mmt_sim::SimError::BadConfig(_)));
}

/// Warm-state transfer: an `ArchState` captured from a run carries RST
/// and LVIP payloads, and resuming applies the RST verbatim.
#[test]
fn arch_state_carries_warm_predictor_state() {
    let app = mmt_workloads::app_by_name("equake").expect("known app");
    let threads = 2;
    let spec = to_spec(app.instance(threads, SCALE));
    let mut sim = Simulator::new(cfg_for(threads), spec.clone()).expect("valid spec");
    for _ in 0..2_000 {
        if sim.finished() {
            break;
        }
        sim.step_cycle().expect("runs");
    }
    let state = sim.arch_state();
    let rst = state.rst.expect("detailed capture includes RST");
    assert!(state.lvip.is_some(), "detailed capture includes LVIP");

    let resumed =
        Simulator::from_arch(cfg_for(threads), spec.program, state).expect("resume accepted");
    assert_eq!(resumed.arch_state().rst.unwrap(), rst);
}

/// Workload images are allocated once, past their layout extent, and
/// `initial_arch_state` keeps that capacity: fast-forwarding every suite
/// app to halt stores only below the extent `layout::image_words`
/// declares, so no image reallocates mid-run.
#[test]
fn ffwd_to_halt_stays_inside_the_reserved_images() {
    for app in all_apps() {
        for threads in [2usize, 4] {
            let extent = layout::image_words(&app.spec, threads);
            let spec = to_spec(app.instance(threads, SCALE));
            let reserved: Vec<usize> = spec.memories.iter().map(Memory::capacity).collect();
            let mut state = spec.initial_arch_state();
            Ffwd::new(&spec.program)
                .run_to_halt(&spec.program, &mut state, u64::MAX)
                .expect("ffwd terminates");
            for (image, cap) in state.memories.into_iter().zip(reserved) {
                let label = format!("{} @ {threads} threads, memory {}", app.name, image.id());
                assert!(
                    image.touched_len() <= extent,
                    "{label}: stored past the layout extent"
                );
                assert_eq!(image.capacity(), cap, "{label}: the image reallocated");
            }
        }
    }
}
