//! Input-data generation.
//!
//! Builds the initial [`Memory`] images for a kernel: the common region
//! (identical for every thread/process), the private regions
//! (thread-strided for multi-threaded kernels; per-process contents with
//! a controlled identical fraction for multi-execution kernels), the
//! divergence-flag regions, and zeroed output regions.
//!
//! All randomness is `rand::rngs::SmallRng` seeded from the spec — the
//! same spec always produces byte-identical inputs.

use crate::spec::{layout, KernelSpec};
use mmt_isa::interp::{Memory, DEFAULT_MEM_LIMIT};
use mmt_isa::MemSharing;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Build the initial memories for `threads` threads of `spec`.
///
/// Returns one memory for [`MemSharing::Shared`] kernels and `threads`
/// memories for [`MemSharing::PerThread`] kernels. With `identical`
/// set, every process receives byte-identical inputs — the paper's
/// *Limit* configuration.
///
/// Each image is allocated once, past the highest address the kernel
/// stores to: neither input generation nor the run that follows
/// reallocates it.
pub fn build_memories(spec: &KernelSpec, threads: usize, identical: bool) -> Vec<Memory> {
    match spec.sharing {
        MemSharing::Shared => vec![build_shared_memory(spec, threads)],
        MemSharing::PerThread => (0..threads)
            .map(|p| build_process_memory(spec, threads, if identical { 0 } else { p }, p))
            .collect(),
    }
}

/// An empty memory backed up to [`layout::image_words`], rounded up to a power
/// of two: the block sizes growth by doubling ended at, which the
/// allocator handles well. At exact extents the `sampled` benchmark's
/// peak RSS rose from 37.0 to 43.5 MiB (2-vCPU host); rounded, it reads
/// 37.3 MiB. Pages past the touched length are never faulted in.
fn reserved_memory(spec: &KernelSpec, threads: usize, id: usize) -> Memory {
    let words = Vec::with_capacity(layout::image_words(spec, threads).next_power_of_two());
    Memory::from_words(id, DEFAULT_MEM_LIMIT, words)
}

/// One memory for a multi-threaded workload: a common region plus
/// per-thread private/flag regions at thread-strided offsets.
fn build_shared_memory(spec: &KernelSpec, threads: usize) -> Memory {
    let mut m = reserved_memory(spec, threads, 0);
    fill_common(&mut m, spec);
    for t in 0..threads {
        let priv_base = (layout::PRIV_BASE + t as i64 * layout::PRIV_STRIDE) as u64;
        let flag_base = (layout::FLAG_BASE + t as i64 * layout::FLAG_STRIDE) as u64;
        fill_private(&mut m, spec, priv_base, spec.seed ^ (0x9e37 + t as u64));
        fill_flags(
            &mut m,
            spec,
            flag_base,
            spec.seed ^ (0xc2b2 + 31 * t as u64),
        );
    }
    m
}

/// One process's memory for a multi-execution workload. `persona` picks
/// the input variation (processes with the same persona have identical
/// inputs); `id` is the memory's identity.
fn build_process_memory(spec: &KernelSpec, threads: usize, persona: usize, id: usize) -> Memory {
    let mut m = reserved_memory(spec, threads, id);
    fill_common(&mut m, spec);
    fill_private_me(&mut m, spec, persona);
    fill_flags(
        &mut m,
        spec,
        layout::FLAG_BASE as u64,
        spec.seed ^ (0xc2b2 + 31 * persona as u64),
    );
    m
}

fn fill_common(m: &mut Memory, spec: &KernelSpec) {
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    for w in 0..(layout::SHARED_SIZE + 64) as u64 {
        let v: u32 = rng.gen();
        m.store(layout::SHARED_BASE as u64 + w, v as u64)
            .expect("layout fits default memory");
    }
}

fn fill_private(m: &mut Memory, spec: &KernelSpec, base: u64, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for w in 0..(layout::PRIV_SIZE + 64) as u64 {
        let v: u32 = rng.gen();
        m.store(base + w, v as u64).expect("layout fits");
    }
    let _ = spec;
}

/// Multi-execution private data: each word is identical across processes
/// with probability `me_ident_pct` (drawn from a persona-independent
/// stream), otherwise process-specific.
fn fill_private_me(m: &mut Memory, spec: &KernelSpec, persona: usize) {
    let mut common = SmallRng::seed_from_u64(spec.seed ^ 0x5151);
    let mut own = SmallRng::seed_from_u64(spec.seed ^ (0xabcd + persona as u64 * 7919));
    for w in 0..(layout::PRIV_SIZE + 64) as u64 {
        let shared_word: u32 = common.gen();
        let own_word: u32 = own.gen();
        let ident: u8 = common.gen_range(0..100);
        let v = if ident < spec.me_ident_pct {
            shared_word
        } else {
            own_word
        };
        m.store(layout::PRIV_BASE as u64 + w, v as u64)
            .expect("layout fits");
    }
}

fn fill_flags(m: &mut Memory, spec: &KernelSpec, base: u64, seed: u64) {
    if spec.divergence_inv == 0 {
        return;
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    for w in 0..layout::FLAG_SIZE as u64 {
        let fires = rng.gen_range(0..spec.divergence_inv) == 0;
        let v = if fires {
            spec.divergence.detour_len(rng.gen())
        } else {
            0
        };
        if v != 0 {
            m.store(base + w, v).expect("layout fits");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DivergenceProfile;

    fn me_spec(ident: u8, div_inv: u64) -> KernelSpec {
        KernelSpec {
            sharing: MemSharing::PerThread,
            iters: 64,
            common_alu: 2,
            common_fpu: 0,
            common_loads: 1,
            private_alu: 2,
            private_loads: 1,
            stores: 1,
            divergence_inv: div_inv,
            divergence: DivergenceProfile::Short,
            index_partitioned: false,
            calls: false,
            me_ident_pct: ident,
            pointer_chase: false,
            ws_words: 256,
            inner_iters: 2,
            unroll: 2,
            barrier_every: 0,
            seed: 42,
        }
    }

    #[test]
    fn deterministic_generation() {
        let s = me_spec(50, 8);
        let a = build_memories(&s, 2, false);
        let b = build_memories(&s, 2, false);
        for (x, y) in a.iter().zip(&b) {
            for w in 0..layout::PRIV_SIZE as u64 {
                let addr = layout::PRIV_BASE as u64 + w;
                assert_eq!(x.load(addr).unwrap(), y.load(addr).unwrap());
            }
        }
    }

    #[test]
    fn common_region_identical_across_processes() {
        let s = me_spec(0, 8);
        let mems = build_memories(&s, 2, false);
        for w in 0..(layout::SHARED_SIZE + 64) as u64 {
            let addr = layout::SHARED_BASE as u64 + w;
            assert_eq!(
                mems[0].load(addr).unwrap(),
                mems[1].load(addr).unwrap(),
                "common inputs are replicated"
            );
        }
    }

    #[test]
    fn me_ident_fraction_controls_similarity() {
        for (pct, lo, hi) in [(0u8, 0.0, 0.05), (50, 0.40, 0.60), (100, 1.0, 1.0)] {
            let s = me_spec(pct, 8);
            let mems = build_memories(&s, 2, false);
            let mut same = 0;
            for w in 0..layout::PRIV_SIZE as u64 {
                let addr = layout::PRIV_BASE as u64 + w;
                if mems[0].load(addr).unwrap() == mems[1].load(addr).unwrap() {
                    same += 1;
                }
            }
            let frac = same as f64 / layout::PRIV_SIZE as f64;
            assert!(
                (lo..=hi).contains(&frac),
                "pct {pct}: measured identical fraction {frac}"
            );
        }
    }

    #[test]
    fn limit_instances_are_byte_identical() {
        let s = me_spec(30, 8);
        let mems = build_memories(&s, 2, true);
        for w in 0..layout::PRIV_SIZE as u64 {
            let addr = layout::PRIV_BASE as u64 + w;
            assert_eq!(mems[0].load(addr).unwrap(), mems[1].load(addr).unwrap());
        }
        for w in 0..layout::FLAG_SIZE as u64 {
            let addr = layout::FLAG_BASE as u64 + w;
            assert_eq!(mems[0].load(addr).unwrap(), mems[1].load(addr).unwrap());
        }
    }

    #[test]
    fn flag_density_tracks_divergence_inv() {
        let s = me_spec(0, 16);
        let mems = build_memories(&s, 1, false);
        let mut set = 0;
        for w in 0..layout::FLAG_SIZE as u64 {
            if mems[0].load(layout::FLAG_BASE as u64 + w).unwrap() != 0 {
                set += 1;
            }
        }
        let rate = set as f64 / layout::FLAG_SIZE as f64;
        assert!((0.03..0.10).contains(&rate), "expected ~1/16, got {rate}");
    }

    #[test]
    fn zero_divergence_means_zero_flags() {
        let s = me_spec(0, 0);
        let mems = build_memories(&s, 1, false);
        for w in 0..layout::FLAG_SIZE as u64 {
            assert_eq!(mems[0].load(layout::FLAG_BASE as u64 + w).unwrap(), 0);
        }
    }

    #[test]
    fn mt_threads_get_distinct_private_data() {
        let s = KernelSpec {
            sharing: MemSharing::Shared,
            me_ident_pct: 0,
            ..me_spec(0, 8)
        };
        let mem = &build_memories(&s, 2, false)[0];
        let mut same = 0;
        for w in 0..layout::PRIV_SIZE as u64 {
            let a = mem.load(layout::PRIV_BASE as u64 + w).unwrap();
            let b = mem
                .load((layout::PRIV_BASE + layout::PRIV_STRIDE) as u64 + w)
                .unwrap();
            if a == b {
                same += 1;
            }
        }
        assert!(same < 10, "thread-private regions must differ");
    }
}
