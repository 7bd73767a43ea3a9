//! # mmt-profile — trace-based redundancy profiling (paper Section 3)
//!
//! The paper motivates MMT by profiling, for each application, how much
//! of the dynamic instruction stream is *fetch-identical* across threads
//! (same instruction at the same point of execution), how much is
//! *execute-identical* (also identical operand values), and how long
//! divergent execution paths run before re-converging — Figures 1 and 2.
//!
//! This crate reproduces that methodology independently of the timing
//! simulator: it collects functional traces with the `mmt-isa`
//! interpreter and aligns thread pairs with an anchor-based
//! common-subtrace search ("finding all of the common subtraces of each
//! trace", Section 3.2), classifying each aligned instruction pair and
//! bucketing each divergence by the *difference* of the two divergent
//! path lengths measured in taken branches (Section 3.3).
//!
//! Because traces are collected sequentially (thread 0 runs to
//! completion, then thread 1), the profiled programs must be free of
//! cross-thread data flow through memory — true of every kernel in
//! `mmt-workloads`, whose threads write disjoint output regions.

#![warn(missing_docs)]

pub mod align;
pub mod trace;

pub use align::{profile_pair, DIVERGENCE_BUCKETS};
pub use trace::collect_trace;

/// The redundancy profile of one thread pair (the paper's Figure 1 bar
/// plus Figure 2 histogram for one application).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RedundancyProfile {
    /// Basis: dynamic instructions in the first thread's trace.
    pub total: u64,
    /// Aligned instructions with identical operand values (and, for
    /// loads, identical loaded values) — could have executed once.
    pub execute_identical: u64,
    /// Aligned instructions that are the same static instruction but
    /// with differing values — could have been fetched once.
    pub fetch_identical: u64,
    /// Instructions on divergent paths (no alignment).
    pub not_identical: u64,
    /// Number of divergences encountered during alignment.
    pub divergences: u64,
    /// Histogram over [`DIVERGENCE_BUCKETS`] of the difference in
    /// divergent-path lengths, in taken branches (Figure 2).
    pub divergence_diff_histogram: [u64; 7],
}

impl RedundancyProfile {
    /// Fractions `(execute_identical, fetch_identical, not_identical)`
    /// of the total.
    pub fn fractions(&self) -> (f64, f64, f64) {
        let t = self.total.max(1) as f64;
        (
            self.execute_identical as f64 / t,
            self.fetch_identical as f64 / t,
            self.not_identical as f64 / t,
        )
    }

    /// Fraction of divergences whose path-length difference is within
    /// `bound` taken branches (the Figure 2 reading: "more than 85% of
    /// all diverged paths have a difference of no more than 16").
    pub fn divergences_within(&self, bound: u64) -> f64 {
        let total: u64 = self.divergence_diff_histogram.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let within: u64 = DIVERGENCE_BUCKETS
            .iter()
            .zip(&self.divergence_diff_histogram)
            .filter(|&(&b, _)| b <= bound)
            .map(|(_, &c)| c)
            .sum();
        within as f64 / total as f64
    }
}
