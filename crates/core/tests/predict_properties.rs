//! Property tests tying the static merge classification to dynamic
//! pipeline behaviour over random generator programs (the differential
//! contract `mmtgate --check predict` checks per workload, here over the
//! whole spec space):
//!
//! * a must-split PC never dispatches merged (pipeline theorem — `tid`
//!   is hard-split at dispatch),
//! * every merged dispatch replays cleanly through the oracle
//!   (execute-identical members, never must-split),
//! * for statically divergence-free programs the claims sharpen to
//!   equalities: no must-merge PC ever dispatches split, and the merge
//!   fetch fraction is exactly 1.0 — threads start merged and nothing
//!   can separate them,
//! * the generator's spec knobs predict static divergence-freedom: no
//!   divergence trigger, no barrier, no partitioned index ⇒ the
//!   analyzer finds zero divergent branches.

use mmt_analysis::{predict, MergeClass, Oracle};
use mmt_isa::MemSharing;
use mmt_sim::{MmtLevel, RunSpec, SimConfig, Simulator};
use mmt_workloads::spec::{DivergenceProfile, KernelSpec};
use mmt_workloads::{data, generator};
use proptest::prelude::*;

/// Valid spec knob combinations (mirrors `KernelSpec::validate`), kept
/// small: every case runs a full simulation.
fn arb_spec() -> impl Strategy<Value = KernelSpec> {
    (
        any::<bool>(), // shared vs per-thread
        1u64..12,      // iters
        0usize..4,     // common_alu
        0usize..2,     // common_fpu
        0usize..2,     // common_loads
        0usize..4,     // private_alu
        0usize..2,     // private_loads
        0usize..2,     // stores
        0u32..3,       // divergence_inv selector (0 disables)
        any::<bool>(), // index_partitioned (mt only)
        any::<bool>(), // calls
        any::<bool>(), // pointer_chase
        (4u32..=8),    // ws_words = 1 << exp
        1i64..3,       // inner_iters
        1usize..3,     // unroll
        0u32..2,       // barrier selector (0 disables)
    )
        .prop_map(
            |(
                shared,
                iters,
                common_alu,
                common_fpu,
                common_loads,
                private_alu,
                private_loads,
                stores,
                div_sel,
                index_partitioned,
                calls,
                pointer_chase,
                ws_exp,
                inner_iters,
                unroll,
                barrier_sel,
            )| {
                let sharing = if shared {
                    MemSharing::Shared
                } else {
                    MemSharing::PerThread
                };
                KernelSpec {
                    sharing,
                    iters,
                    common_alu,
                    common_fpu,
                    common_loads,
                    private_alu,
                    private_loads,
                    stores,
                    divergence_inv: [0, 4, 16][div_sel as usize],
                    divergence: DivergenceProfile::Short,
                    index_partitioned: index_partitioned && shared,
                    calls,
                    me_ident_pct: if shared { 0 } else { 50 },
                    pointer_chase,
                    ws_words: 1 << ws_exp,
                    inner_iters,
                    unroll,
                    barrier_every: if shared && barrier_sel == 1 { 4 } else { 0 },
                    seed: 7,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn static_classes_bound_dynamic_merging(
        spec in arb_spec(),
        threads_sel in 0usize..2,
    ) {
        let threads = [2, 4][threads_sel];
        prop_assert!(spec.validate().is_ok(), "strategy must build valid specs");
        let program = generator::generate(&spec, threads, spec.iters);
        let memories = data::build_memories(&spec, threads, false);

        let oracle = Oracle::new(&program, spec.sharing);
        let pred = predict(&program, spec.sharing, threads);

        let mut cfg = SimConfig::paper_with(threads, MmtLevel::Fxr);
        cfg.record_merge_log = true;
        cfg.record_pc_profile = true;
        let result = Simulator::new(cfg, RunSpec {
            program: program.clone(),
            sharing: spec.sharing,
            memories,
            threads,
        })
        .expect("valid config and spec")
        .run()
        .expect("generated kernels terminate");

        // Every merged dispatch must replay as execute-identical and
        // must not sit at a must-split PC.
        if let Err(e) = oracle.check(&result.merge_log) {
            prop_assert!(false, "{spec:?} threads={threads}: {e}");
        }

        // The per-PC profile must agree: no merged uop at a must-split
        // PC, no activity at a statically unreachable PC.
        for (pc, c) in result.stats.pc_profile.iter().enumerate() {
            if !c.touched() {
                continue;
            }
            let class = oracle.class_of(pc as u64);
            prop_assert!(
                class.is_some(),
                "dynamic activity at statically unreachable pc {pc}"
            );
            if class == Some(MergeClass::MustSplit) {
                prop_assert_eq!(
                    c.exec_merged, 0,
                    "merged dispatch at must-split pc {}", pc
                );
            }
        }

        // Measured merge fetch fraction must sit in the guaranteed
        // bracket.
        let measured = result.stats.fetch_modes.fractions().0;
        prop_assert!(
            pred.brackets(measured),
            "measured {} outside [{}, {}]",
            measured, pred.merge_frac_lower, pred.merge_frac_upper
        );

        // Spec-level meta-check: no divergence trigger, no barrier, no
        // partitioned index ⇒ the analyzer proves divergence-freedom.
        let knobs_divergence_free =
            spec.divergence_inv == 0 && spec.barrier_every == 0 && !spec.index_partitioned;
        if knobs_divergence_free {
            prop_assert_eq!(
                pred.divergent_branches, 0,
                "knob-divergence-free spec should analyze divergence-free: {:?}", spec
            );
        }

        if pred.divergent_branches == 0 {
            // Divergence-free: the bounds pinch to exactly 1.0 and the
            // pipeline can never split, so must-merge work never
            // dispatches split and fetch stays fully merged.
            prop_assert_eq!(pred.merge_frac_lower, 1.0);
            prop_assert_eq!(measured, 1.0, "{:?} threads={}", spec, threads);
            for (pc, c) in result.stats.pc_profile.iter().enumerate() {
                if oracle.class_of(pc as u64) == Some(MergeClass::MustMerge) {
                    prop_assert_eq!(
                        c.exec_split, 0,
                        "split execution of must-merge pc {} in a \
                         divergence-free program", pc
                    );
                }
            }
        }
    }
}
