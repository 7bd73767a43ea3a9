//! Kernel parameterization.
//!
//! Every synthetic application is an instance of one loop-nest skeleton
//! (see [`crate::generator`]) tuned by a [`KernelSpec`]. The knobs map
//! directly onto the redundancy characteristics the paper measures:
//!
//! * `common_*` work reads values identical across threads → candidate
//!   *execute-identical* instructions;
//! * `private_*` work reads thread-varying values → *fetch-identical*
//!   only;
//! * the divergence profile controls how often threads leave the common
//!   path and for how long (paper Figure 2);
//! * `index_partitioned` makes the main induction variable differ per
//!   thread (the SPLASH-2 "each thread owns a block" style), which
//!   demotes most loop work from execute- to fetch-identical;
//! * `me_ident_frac` sets, for multi-execution inputs, the fraction of
//!   private-region words that happen to be identical across processes
//!   (the property \[34\] observed and the LVIP exploits).

use mmt_isa::MemSharing;

/// How long divergent detours run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceProfile {
    /// Detours of 1–4 inner iterations: path-length differences land
    /// almost entirely in Figure 2's "≤16 taken branches" bucket.
    Short,
    /// Detours of 1–16 inner iterations.
    Medium,
    /// Mostly short detours with a heavy tail (up to ~128 inner
    /// iterations) — the equake/vortex shape in Figure 2.
    LongTail,
}

impl DivergenceProfile {
    /// Map a uniform random byte to a detour length (inner iterations).
    pub fn detour_len(self, r: u8) -> u64 {
        match self {
            DivergenceProfile::Short => 1 + (r % 4) as u64,
            DivergenceProfile::Medium => 1 + (r % 16) as u64,
            DivergenceProfile::LongTail => {
                if r >= 240 {
                    24 + 2 * (r - 240) as u64 // 24..54, ~6% of detours
                } else {
                    1 + (r % 8) as u64
                }
            }
        }
    }
}

/// Full parameterization of one synthetic application kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpec {
    /// Memory model (multi-threaded vs multi-execution).
    pub sharing: MemSharing,
    /// Outer-loop iterations at scale 1 (divided by the `scale` argument
    /// of [`crate::App::instance`]).
    pub iters: u64,
    /// ALU operations per iteration on common (thread-identical) values.
    pub common_alu: usize,
    /// FPU operations per iteration on common values.
    pub common_fpu: usize,
    /// Loads per iteration from the common-indexed shared region.
    pub common_loads: usize,
    /// ALU operations per iteration on private (thread-varying) values.
    pub private_alu: usize,
    /// Loads per iteration from the private region.
    pub private_loads: usize,
    /// Stores per iteration to the private output region.
    pub stores: usize,
    /// A detour triggers roughly once every `divergence_inv` iterations
    /// (0 disables divergence entirely).
    pub divergence_inv: u64,
    /// Detour length distribution.
    pub divergence: DivergenceProfile,
    /// Multi-threaded only: the main induction variable is partitioned
    /// across threads (distinct index ranges) instead of replicated.
    pub index_partitioned: bool,
    /// Wrap the loop body in a `jal`/`jr` function call (exercises the
    /// RAS; the vortex/mcf "call-heavy" shape).
    pub calls: bool,
    /// Multi-execution only: fraction (0–100) of private-region words
    /// identical across processes.
    pub me_ident_pct: u8,
    /// Private loads chase pointers: each load's address is computed
    /// from the previously loaded value (the mcf/vpr/canneal access
    /// pattern). Address computation then inherits the data's
    /// thread-divergence, and loads form serial dependence chains.
    pub pointer_chase: bool,
    /// Working-set words per data region (power of two, at most the
    /// region size). Indices wrap at this footprint, giving the temporal
    /// reuse real loop nests have; small values are cache-resident after
    /// warmup, large values keep the kernel memory-bound (the
    /// mcf/canneal character).
    pub ws_words: i64,
    /// Inner-loop trip count: the unrolled compute groups execute inside
    /// a counted inner loop, making one outer iteration ("lap") several
    /// thousand instructions — the scale of real applications' outer
    /// loops. Long laps matter: a lap must dwarf any single stall
    /// (~200-cycle DRAM miss) or threads drift a whole lap apart and
    /// remerge out of phase.
    pub inner_iters: i64,
    /// Body replications per outer iteration. Real applications have
    /// loop bodies of hundreds of instructions; replicating the compute
    /// group keeps the synthetic kernels in that regime (which matters
    /// for the register-merging hardware: a register written every ~30
    /// instructions almost always has a younger in-flight writer at
    /// commit, defeating the Section 4.2.7 validity check).
    pub unroll: usize,
    /// Multi-threaded only: threads rendezvous at a store/spin barrier
    /// every `barrier_every` outer laps (0 disables; must be a power of
    /// two). Real SPLASH-2/PARSEC codes are barrier-phased, and barriers
    /// are the natural re-alignment points the paper's Section 4.4
    /// scheduling discussion leans on. Barrier kernels cannot be traced
    /// sequentially (the spin never exits with one thread), so the
    /// profiler only sees barrier-free instances.
    pub barrier_every: u64,
    /// Base RNG seed for input generation (per-app, fixed for
    /// reproducibility).
    pub seed: u64,
}

impl KernelSpec {
    /// Validate knob consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.iters == 0 {
            return Err("iters must be non-zero".into());
        }
        if self.unroll == 0 {
            return Err("unroll must be non-zero".into());
        }
        if self.inner_iters <= 0 {
            return Err("inner_iters must be positive".into());
        }
        if self.ws_words <= 0
            || self.ws_words.count_ones() != 1
            || self.ws_words > layout::PRIV_SIZE
        {
            return Err("ws_words must be a power of two within the region size".into());
        }
        if self.me_ident_pct > 100 {
            return Err("me_ident_pct is a percentage".into());
        }
        if self.sharing == MemSharing::Shared && self.me_ident_pct != 0 {
            return Err("me_ident_pct only applies to multi-execution kernels".into());
        }
        if self.sharing == MemSharing::PerThread && self.index_partitioned {
            return Err("multi-execution instances always run the full index range".into());
        }
        if self.barrier_every != 0 {
            if self.sharing != MemSharing::Shared {
                return Err("barriers need shared memory (multi-threaded kernels)".into());
            }
            if !self.barrier_every.is_power_of_two() {
                return Err("barrier_every must be a power of two".into());
            }
        }
        Ok(())
    }
}

/// Memory-layout constants shared by the generator and input builder.
/// Word addresses; regions are sized as powers of two so the kernels can
/// mask indices cheaply.
pub mod layout {
    /// Base of the common (shared/replicated-identical) data region.
    pub const SHARED_BASE: i64 = 4096;
    /// Words in the common region (power of two).
    pub const SHARED_SIZE: i64 = 4096;
    /// Base of the per-thread private data region. Multi-threaded
    /// kernels offset this by `tid * PRIV_STRIDE`; multi-execution
    /// kernels use it directly in each process's own memory.
    pub const PRIV_BASE: i64 = 65536;
    /// Words in the private region (power of two).
    pub const PRIV_SIZE: i64 = 2048;
    /// Separation between threads' private regions (multi-threaded).
    /// Deliberately *not* a multiple of the L1 way size (16 KiB = 2048
    /// words): power-of-two strides would put every thread's element `i`
    /// in the same cache set, and merged (lockstep) fetch would then
    /// thrash the 4-way L1 — an artifact of the synthetic layout, not of
    /// MMT.
    pub const PRIV_STRIDE: i64 = 4224;
    /// Base of the divergence-flag region (same per-thread offsetting).
    pub const FLAG_BASE: i64 = 131072;
    /// Words of flags (power of two) — one flag per iteration, wrapped.
    pub const FLAG_SIZE: i64 = 4096;
    /// Separation between threads' flag regions (multi-threaded); see
    /// [`PRIV_STRIDE`] for why this is not a power of two.
    pub const FLAG_STRIDE: i64 = 8576;
    /// Base of the per-thread output region (same offsetting scheme).
    pub const OUT_BASE: i64 = 262144;
    /// Separation between threads' output regions; see [`PRIV_STRIDE`].
    pub const OUT_STRIDE: i64 = 4480;
    /// Base of the barrier rendezvous slots (one word per thread).
    pub const BARRIER_BASE: i64 = 524288;
    /// Bound on an output store's displacement: a store lands at
    /// `out + (i & (ws_words - 1)) + d` with `0 <= d < OUT_DISP`.
    pub const OUT_DISP: i64 = 32;

    /// One past the highest word a kernel stores to over a whole run at
    /// `threads` threads: the barrier slots' end when it has barriers,
    /// else the last output region's. Nothing else in the layout lies
    /// above the output regions, so a memory image never grows past it.
    pub fn image_words(spec: &super::KernelSpec, threads: usize) -> usize {
        let end = if spec.barrier_every != 0 {
            BARRIER_BASE + threads as i64
        } else {
            let last = match spec.sharing {
                super::MemSharing::Shared => threads.saturating_sub(1) as i64,
                super::MemSharing::PerThread => 0,
            };
            OUT_BASE + last * OUT_STRIDE + spec.ws_words - 1 + OUT_DISP
        };
        end as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_spec() -> KernelSpec {
        KernelSpec {
            sharing: MemSharing::Shared,
            iters: 100,
            common_alu: 4,
            common_fpu: 1,
            common_loads: 2,
            private_alu: 2,
            private_loads: 1,
            stores: 1,
            divergence_inv: 16,
            divergence: DivergenceProfile::Short,
            index_partitioned: false,
            calls: false,
            me_ident_pct: 0,
            pointer_chase: false,
            ws_words: 256,
            inner_iters: 2,
            unroll: 1,
            barrier_every: 0,
            seed: 1,
        }
    }

    #[test]
    fn validation_catches_misuse() {
        assert!(base_spec().validate().is_ok());
        let mut s = base_spec();
        s.iters = 0;
        assert!(s.validate().is_err());
        let mut s = base_spec();
        s.me_ident_pct = 50; // on a shared-memory kernel
        assert!(s.validate().is_err());
        let mut s = base_spec();
        s.sharing = MemSharing::PerThread;
        s.index_partitioned = true;
        assert!(s.validate().is_err());
        let mut s = base_spec();
        s.sharing = MemSharing::PerThread;
        s.me_ident_pct = 101;
        assert!(s.validate().is_err());
        let mut s = base_spec();
        s.unroll = 0;
        assert!(s.validate().is_err());
        let mut s = base_spec();
        s.barrier_every = 3; // not a power of two
        assert!(s.validate().is_err());
        let mut s = base_spec();
        s.sharing = MemSharing::PerThread;
        s.barrier_every = 4; // barriers need shared memory
        assert!(s.validate().is_err());
        let mut s = base_spec();
        s.barrier_every = 4;
        assert!(s.validate().is_ok());
    }

    #[test]
    fn detour_lengths_respect_profiles() {
        for r in 0..=255u8 {
            let s = DivergenceProfile::Short.detour_len(r);
            assert!((1..=4).contains(&s));
            let m = DivergenceProfile::Medium.detour_len(r);
            assert!((1..=16).contains(&m));
            let l = DivergenceProfile::LongTail.detour_len(r);
            assert!((1..=54).contains(&l));
        }
        // The long tail actually exists (>16 taken branches, the Figure 2
        // outlier bucket).
        assert!(DivergenceProfile::LongTail.detour_len(255) > 30);
    }

    #[test]
    fn layout_regions_do_not_overlap() {
        use layout::*;
        // 4 threads maximum.
        let shared = SHARED_BASE..SHARED_BASE + SHARED_SIZE;
        let privr = PRIV_BASE..PRIV_BASE + 3 * PRIV_STRIDE + PRIV_SIZE;
        let flags = FLAG_BASE..FLAG_BASE + 3 * FLAG_STRIDE + FLAG_SIZE;
        let out = OUT_BASE..OUT_BASE + 3 * OUT_STRIDE + PRIV_SIZE;
        assert!(shared.end <= privr.start);
        assert!(privr.end <= flags.start);
        assert!(flags.end <= out.start);
        // Power-of-two sizes for masking.
        assert!(SHARED_SIZE.count_ones() == 1);
        assert!(PRIV_SIZE.count_ones() == 1);
        assert!(FLAG_SIZE.count_ones() == 1);
    }
}
