//! The sixteen applications of the paper's Table 1, as calibrated
//! synthetic kernels.
//!
//! Each entry documents the paper application it stands in for and the
//! redundancy profile it is calibrated toward (read off the paper's
//! Figure 1/Figure 2/Figure 5). The knob values were tuned against this
//! repository's own profiler (`mmt-profile`, which reproduces Figure 1's
//! methodology) — see EXPERIMENTS.md for measured-vs-paper numbers.

use crate::generator::generate_with_hints;
use crate::spec::{DivergenceProfile, KernelSpec};
use crate::{data, WorkloadInstance};
use mmt_isa::MemSharing;

/// Benchmark suite of origin (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPLASH-2 (multi-threaded).
    Splash2,
    /// PARSEC (multi-threaded, sim-small inputs).
    Parsec,
    /// SPEC2000 (multi-execution with varied inputs).
    Spec2000,
    /// libsvm (multi-execution).
    Svm,
}

impl Suite {
    /// The suite's display name.
    pub fn name(self) -> &'static str {
        match self {
            Suite::Splash2 => "SPLASH-2",
            Suite::Parsec => "PARSEC",
            Suite::Spec2000 => "SPEC2000",
            Suite::Svm => "SVM",
        }
    }
}

/// One application: a name, its suite, and the kernel spec that
/// reproduces its redundancy profile.
#[derive(Debug, Clone)]
pub struct App {
    /// Application name (matching the paper's figures).
    pub name: &'static str,
    /// Suite of origin.
    pub suite: Suite,
    /// The calibrated kernel parameters.
    pub spec: KernelSpec,
}

impl App {
    /// Workload kind (multi-threaded vs multi-execution).
    pub fn sharing(&self) -> MemSharing {
        self.spec.sharing
    }

    /// Build a runnable instance for `threads` hardware threads.
    ///
    /// `scale` divides the iteration count: `1` is the full (bench-sized)
    /// run; tests use `8`–`32` for speed. For multi-threaded partitioned
    /// kernels the problem is split across threads (same problem, less
    /// work each); for multi-execution kernels every process runs the
    /// full problem (more threads, more work) — the paper's Section 5
    /// scaling rules.
    pub fn instance(&self, threads: usize, scale: u64) -> WorkloadInstance {
        self.instance_inner(threads, scale, false)
    }

    /// Like [`App::instance`] with a different input set: `input_id`
    /// reseeds the generated data, standing in for the paper's "varying
    /// data inputs" per multi-execution batch (Table 1). The program text
    /// is unchanged; only memory contents move.
    pub fn instance_with_input(
        &self,
        threads: usize,
        scale: u64,
        input_id: u64,
    ) -> WorkloadInstance {
        let mut alt = self.clone();
        alt.spec.seed = self
            .spec
            .seed
            .wrapping_mul(0x9e37_79b9)
            .wrapping_add(input_id);
        alt.instance_inner(threads, scale, false)
    }

    /// The paper's *Limit* configuration: identical instances of the
    /// program with identical inputs, so every instruction is
    /// execute-identical in principle (memory operations may still be
    /// performed separately).
    pub fn limit_instance(&self, threads: usize, scale: u64) -> WorkloadInstance {
        let mut spec = self.spec.clone();
        // Limit replicates one process image per thread, regardless of
        // the app's native kind.
        spec.sharing = MemSharing::PerThread;
        spec.index_partitioned = false;
        if spec.me_ident_pct == 0 {
            spec.me_ident_pct = 100;
        }
        let iters = (spec.iters / scale).max(8);
        let (program, remerge_hints) = generate_with_hints(&spec, threads, iters);
        let memories = data::build_memories(&spec, threads, true);
        WorkloadInstance {
            name: format!("{}-limit", self.name),
            program,
            sharing: MemSharing::PerThread,
            memories,
            threads,
            remerge_hints,
        }
    }

    fn instance_inner(&self, threads: usize, scale: u64, identical: bool) -> WorkloadInstance {
        let iters = (self.spec.iters / scale).max(8);
        let (program, remerge_hints) = generate_with_hints(&self.spec, threads, iters);
        let memories = data::build_memories(&self.spec, threads, identical);
        WorkloadInstance {
            name: self.name.to_string(),
            program,
            sharing: self.spec.sharing,
            memories,
            threads,
            remerge_hints,
        }
    }
}

fn me(seed: u64) -> KernelSpec {
    KernelSpec {
        sharing: MemSharing::PerThread,
        iters: 120,
        common_alu: 4,
        common_fpu: 0,
        common_loads: 2,
        private_alu: 4,
        private_loads: 1,
        stores: 1,
        divergence_inv: 16,
        divergence: DivergenceProfile::Short,
        index_partitioned: false,
        calls: false,
        me_ident_pct: 50,
        pointer_chase: false,
        ws_words: 256,
        inner_iters: 8,
        unroll: 20,
        barrier_every: 0,
        seed,
    }
}

fn mt(seed: u64) -> KernelSpec {
    KernelSpec {
        sharing: MemSharing::Shared,
        me_ident_pct: 0,
        ..me(seed)
    }
}

/// All sixteen applications, in the paper's Figure 1 order
/// (multi-execution first, then SPLASH-2, then PARSEC).
pub fn all_apps() -> Vec<App> {
    vec![
        // ---- Multi-execution (SPEC2000 + libsvm) --------------------
        // ammp: molecular dynamics; the paper's highest execute-identical
        // fraction (~70%) — large replicated force tables, rare
        // divergence.
        App {
            name: "ammp",
            suite: Suite::Spec2000,
            spec: KernelSpec {
                common_alu: 6,
                common_fpu: 3,
                common_loads: 2,
                private_alu: 7,
                private_loads: 2,
                divergence_inv: 60,
                me_ident_pct: 70,
                ..me(101)
            },
        },
        // equake: sparse earthquake simulation; high execute-identical
        // (~65%) but long-tailed divergence lengths (Figure 2 calls out
        // equake as one of two apps with >16-branch divergences).
        App {
            name: "equake",
            suite: Suite::Spec2000,
            spec: KernelSpec {
                common_alu: 4,
                common_fpu: 3,
                common_loads: 3,
                private_alu: 8,
                private_loads: 1,
                divergence_inv: 24,
                divergence: DivergenceProfile::LongTail,
                me_ident_pct: 70,
                iters: 70,
                unroll: 21,
                inner_iters: 6,
                ..me(102)
            },
        },
        // mcf: network simplex; integer/pointer heavy with calls,
        // moderate execute-identical (~45%) and a large working set.
        App {
            name: "mcf",
            suite: Suite::Spec2000,
            spec: KernelSpec {
                common_alu: 5,
                common_loads: 1,
                private_alu: 8,
                private_loads: 3,
                divergence_inv: 24,
                divergence: DivergenceProfile::Medium,
                me_ident_pct: 30,
                calls: true,
                ws_words: 2048,
                pointer_chase: true,
                iters: 76,
                unroll: 21,
                inner_iters: 6,
                ..me(103)
            },
        },
        // twolf: placement annealing; branchy, input-sensitive, limited
        // execute-identical (~30%) and poor MERGE-mode residency.
        App {
            name: "twolf",
            suite: Suite::Spec2000,
            spec: KernelSpec {
                common_alu: 1,
                common_loads: 1,
                private_alu: 14,
                private_loads: 2,
                divergence_inv: 9,
                divergence: DivergenceProfile::Medium,
                pointer_chase: true,
                me_ident_pct: 40,
                iters: 68,
                unroll: 22,
                inner_iters: 6,
                ..me(104)
            },
        },
        // vpr: place & route; the most divergent multi-execution app
        // (~15% execute-identical).
        App {
            name: "vpr",
            suite: Suite::Spec2000,
            spec: KernelSpec {
                common_alu: 1,
                common_loads: 1,
                private_alu: 11,
                private_loads: 2,
                divergence_inv: 6,
                divergence: DivergenceProfile::Medium,
                pointer_chase: true,
                me_ident_pct: 25,
                iters: 66,
                unroll: 25,
                inner_iters: 6,
                ..me(105)
            },
        },
        // vortex: object database; call-heavy with long-tailed divergence
        // (the other Figure 2 outlier), ~30% execute-identical.
        App {
            name: "vortex",
            suite: Suite::Spec2000,
            spec: KernelSpec {
                common_alu: 2,
                common_loads: 2,
                private_alu: 12,
                private_loads: 1,
                stores: 2,
                divergence_inv: 12,
                divergence: DivergenceProfile::LongTail,
                me_ident_pct: 30,
                calls: true,
                pointer_chase: true,
                iters: 65,
                unroll: 25,
                inner_iters: 6,
                ..me(106)
            },
        },
        // libsvm: SVM training with varied inputs; ~35% execute-identical
        // with frequent divergence.
        App {
            name: "libsvm",
            suite: Suite::Svm,
            spec: KernelSpec {
                common_alu: 2,
                common_fpu: 1,
                common_loads: 2,
                private_alu: 14,
                private_loads: 1,
                divergence_inv: 12,
                divergence: DivergenceProfile::Medium,
                me_ident_pct: 25,
                iters: 77,
                unroll: 21,
                inner_iters: 6,
                ..me(107)
            },
        },
        // ---- SPLASH-2 (multi-threaded) ------------------------------
        // lu: blocked dense LU; threads own disjoint blocks, so almost
        // everything is fetch-identical only (~12% execute-identical:
        // just the shared index/bounds arithmetic).
        App {
            name: "lu",
            suite: Suite::Splash2,
            spec: KernelSpec {
                common_alu: 2,
                common_fpu: 0,
                common_loads: 2,
                private_alu: 4,
                private_loads: 1,
                divergence_inv: 120,
                index_partitioned: true,
                iters: 87,
                unroll: 33,
                ..mt(108)
            },
        },
        // fft: butterfly stages over partitioned indices (~12%
        // execute-identical, very regular control flow).
        App {
            name: "fft",
            suite: Suite::Splash2,
            spec: KernelSpec {
                common_alu: 2,
                common_fpu: 0,
                common_loads: 2,
                private_alu: 5,
                private_loads: 1,
                divergence_inv: 150,
                index_partitioned: true,
                iters: 90,
                unroll: 32,
                ..mt(109)
            },
        },
        // ocean: stencil over a partitioned grid (~15%), large working
        // set.
        App {
            name: "ocean",
            suite: Suite::Splash2,
            spec: KernelSpec {
                common_alu: 2,
                common_fpu: 0,
                common_loads: 2,
                private_alu: 4,
                private_loads: 2,
                divergence_inv: 60,
                index_partitioned: true,
                ws_words: 1024,
                iters: 99,
                unroll: 29,
                ..mt(110)
            },
        },
        // water-nsquared: all threads sweep the full molecule array
        // (replicated read loops) — high execute-identical (~40%) and a
        // strong register-merging response in the paper.
        App {
            name: "water-ns",
            suite: Suite::Splash2,
            spec: KernelSpec {
                common_alu: 4,
                common_fpu: 2,
                common_loads: 2,
                private_alu: 11,
                private_loads: 3,
                divergence_inv: 36,
                iters: 85,
                unroll: 17,
                ..mt(111)
            },
        },
        // water-spatial: like water-ns with more frequent divergence
        // (~35%; the app whose performance dips at very large FHBs in
        // Figure 7(a)).
        App {
            name: "water-sp",
            suite: Suite::Splash2,
            spec: KernelSpec {
                common_alu: 3,
                common_fpu: 2,
                common_loads: 2,
                private_alu: 13,
                private_loads: 2,
                divergence_inv: 27,
                divergence: DivergenceProfile::Medium,
                iters: 80,
                unroll: 18,
                inner_iters: 6,
                ..mt(112)
            },
        },
        // ---- PARSEC (multi-threaded) --------------------------------
        // swaptions: Monte-Carlo over a shared rate lattice; high
        // execute-identical (~45%), little divergence.
        App {
            name: "swaptions",
            suite: Suite::Parsec,
            spec: KernelSpec {
                common_alu: 5,
                common_fpu: 2,
                common_loads: 2,
                private_alu: 9,
                private_loads: 2,
                divergence_inv: 36,
                iters: 76,
                unroll: 19,
                ..mt(113)
            },
        },
        // fluidanimate: particle interactions with moderate divergence
        // (~40%).
        App {
            name: "fluidanimate",
            suite: Suite::Parsec,
            spec: KernelSpec {
                common_alu: 4,
                common_fpu: 1,
                common_loads: 2,
                private_alu: 10,
                private_loads: 1,
                stores: 2,
                divergence_inv: 27,
                divergence: DivergenceProfile::Medium,
                iters: 72,
                unroll: 20,
                inner_iters: 6,
                ..mt(114)
            },
        },
        // blackscholes: embarrassingly parallel over partitioned options;
        // almost no divergence but mostly private data (~20%
        // execute-identical, ~93% fetch-identical).
        App {
            name: "blackscholes",
            suite: Suite::Parsec,
            spec: KernelSpec {
                common_alu: 3,
                common_fpu: 2,
                common_loads: 2,
                private_alu: 3,
                private_loads: 1,
                divergence_inv: 160,
                index_partitioned: true,
                iters: 80,
                unroll: 30,
                ..mt(115)
            },
        },
        // canneal: randomized element swaps; branchy with moderate
        // sharing (~20%) and a large working set.
        App {
            name: "canneal",
            suite: Suite::Parsec,
            spec: KernelSpec {
                common_alu: 1,
                common_loads: 2,
                private_alu: 13,
                private_loads: 3,
                divergence_inv: 15,
                divergence: DivergenceProfile::Medium,
                ws_words: 2048,
                pointer_chase: true,
                iters: 95,
                unroll: 19,
                inner_iters: 6,
                ..mt(116)
            },
        },
    ]
}

/// Look up an application by its paper name.
pub fn app_by_name(name: &str) -> Option<App> {
    all_apps().into_iter().find(|a| a.name == name)
}

/// Fixed seed for the [`perfsmoke_app`] workload — pinned so its
/// dynamic instruction stream is bit-identical across machines and
/// commits (`mmtgate --check ffwd`'s speed-ratio gate times it, and the
/// numbers in `results/BENCH_ffwd.json` are only comparable when the
/// simulated work is).
pub const PERFSMOKE_SEED: u64 = 0x00C0_FFEE;

/// The `perfsmoke` workload: a deliberately long-running multi-threaded
/// kernel (fixed [`PERFSMOKE_SEED`], moderate divergence) that keeps the
/// cycle loop busy long enough for wall-clock timing to be stable. Not
/// part of [`all_apps`] — it models no paper application and must not
/// appear in the figures.
pub fn perfsmoke_app() -> App {
    App {
        name: "perfsmoke",
        suite: Suite::Splash2,
        spec: KernelSpec {
            common_alu: 5,
            common_fpu: 1,
            common_loads: 2,
            private_alu: 6,
            private_loads: 2,
            divergence_inv: 20,
            divergence: DivergenceProfile::Medium,
            iters: 240,
            ..mt(PERFSMOKE_SEED)
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_composition_matches_table1() {
        let apps = all_apps();
        assert_eq!(apps.len(), 16);
        let me_apps: Vec<_> = apps
            .iter()
            .filter(|a| a.sharing() == MemSharing::PerThread)
            .collect();
        assert_eq!(me_apps.len(), 7, "SPEC2000 x6 + libsvm");
        let splash: Vec<_> = apps.iter().filter(|a| a.suite == Suite::Splash2).collect();
        assert_eq!(splash.len(), 5);
        let parsec: Vec<_> = apps.iter().filter(|a| a.suite == Suite::Parsec).collect();
        assert_eq!(parsec.len(), 4);
        // Every spec is statically valid.
        for a in &apps {
            a.spec
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", a.name));
        }
        // Names are unique.
        let mut names: Vec<_> = apps.iter().map(|a| a.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 16);
    }

    #[test]
    fn lookup_by_name() {
        assert!(app_by_name("ammp").is_some());
        assert!(app_by_name("water-ns").is_some());
        assert!(app_by_name("doom").is_none());
        assert_eq!(app_by_name("fft").unwrap().suite.name(), "SPLASH-2");
    }

    #[test]
    fn instances_run_functionally() {
        use mmt_isa::interp::Machine;
        for app in all_apps() {
            let w = app.instance(2, 16);
            assert_eq!(w.threads, 2);
            let expected_mems = match w.sharing {
                MemSharing::Shared => 1,
                MemSharing::PerThread => 2,
            };
            assert_eq!(w.memories.len(), expected_mems, "{}", app.name);
            let mut mems = w.memories.clone();
            for t in 0..2 {
                let mem = match w.sharing {
                    MemSharing::Shared => &mut mems[0],
                    MemSharing::PerThread => &mut mems[t],
                };
                let mut m = Machine::new(t);
                m.run(&w.program, mem, 5_000_000)
                    .unwrap_or_else(|e| panic!("{} thread {t}: {e}", app.name));
                assert!(m.halted(), "{} thread {t} must halt", app.name);
                assert!(m.retired() > 100, "{} does real work", app.name);
            }
        }
    }

    #[test]
    fn limit_instances_are_identical_processes() {
        let app = app_by_name("water-ns").unwrap();
        let w = app.limit_instance(2, 16);
        assert_eq!(w.sharing, MemSharing::PerThread);
        assert_eq!(w.memories.len(), 2);
        // Same functional outcome in both processes.
        use mmt_isa::interp::Machine;
        let mut results = Vec::new();
        for t in 0..2 {
            let mut mem = w.memories[t].clone();
            let mut m = Machine::new(t);
            m.run(&w.program, &mut mem, 5_000_000).unwrap();
            results.push(*m.regs());
        }
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn scale_reduces_work() {
        let app = app_by_name("ammp").unwrap();
        use mmt_isa::interp::Machine;
        let mut retired = Vec::new();
        for scale in [4u64, 16] {
            let w = app.instance(1, scale);
            let mut mem = w.memories[0].clone();
            let mut m = Machine::new(0);
            m.run(&w.program, &mut mem, 10_000_000).unwrap();
            retired.push(m.retired());
        }
        assert!(retired[0] > 2 * retired[1]);
    }
}

#[cfg(test)]
mod input_variation_tests {
    use super::*;

    #[test]
    fn input_variants_share_text_but_not_data() {
        let app = app_by_name("equake").unwrap();
        let a = app.instance_with_input(2, 16, 1);
        let b = app.instance_with_input(2, 16, 2);
        assert_eq!(a.program, b.program, "same binary, different inputs");
        // Private data differs between input sets.
        let addr = crate::spec::layout::PRIV_BASE as u64;
        let mut same = 0;
        for w in 0..256 {
            if a.memories[0].load(addr + w).unwrap() == b.memories[0].load(addr + w).unwrap() {
                same += 1;
            }
        }
        assert!(same < 200, "inputs should differ ({same}/256 identical)");
    }

    #[test]
    fn input_variants_are_deterministic() {
        let app = app_by_name("mcf").unwrap();
        let a = app.instance_with_input(2, 16, 7);
        let b = app.instance_with_input(2, 16, 7);
        for w in 0..64u64 {
            let addr = crate::spec::layout::PRIV_BASE as u64 + w;
            assert_eq!(
                a.memories[1].load(addr).unwrap(),
                b.memories[1].load(addr).unwrap()
            );
        }
    }
}
