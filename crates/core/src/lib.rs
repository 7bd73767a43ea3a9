//! # mmt-sim — the Minimal Multi-Threading processor model
//!
//! This crate is the paper's primary contribution, rebuilt as a
//! deterministic cycle-level simulator: an out-of-order SMT core extended
//! with the three MMT mechanisms of
//! *Minimal Multi-Threading: Finding and Removing Redundant Instructions
//! in Multi-Threaded Processors* (MICRO 2010):
//!
//! 1. **Shared fetch** — threads at the same PC fetch once, tagged with an
//!    [`Itid`] ownership mask; divergent threads re-synchronize through
//!    the MERGE/DETECT/CATCHUP state machine and per-thread Fetch History
//!    Buffers (in [`mmt_frontend`]).
//! 2. **Shared execution** — a splitter stage between decode and rename
//!    consults the [`rst::RegSharingTable`] and produces the minimal set
//!    of 1–4 uops per fetched instruction ([`split`]); merged
//!    multi-execution loads are gated by the [`Lvip`].
//! 3. **Register merging** — commit-time value comparisons that re-mark
//!    architected registers as shared after divergent paths produced
//!    equal values.
//!
//! The machine parameters default to the paper's Table 4
//! ([`SimConfig::paper`]); feature levels mirror Table 5 ([`MmtLevel`]).
//!
//! ## Example
//!
//! ```
//! use mmt_sim::{MmtLevel, RunSpec, SimConfig, Simulator};
//! use mmt_isa::{asm::Builder, interp::Memory, MemSharing, Reg};
//!
//! // Two threads run identical code on identical data: MMT executes the
//! // work once and both threads retire it.
//! let mut b = Builder::new();
//! b.addi(Reg::R1, Reg::R0, 7);
//! b.alu_mul(Reg::R2, Reg::R1, Reg::R1);
//! b.halt();
//! let spec = RunSpec {
//!     program: b.build()?,
//!     sharing: MemSharing::Shared,
//!     memories: vec![Memory::new(0)],
//!     threads: 2,
//! };
//! let result = Simulator::new(SimConfig::paper_with(2, MmtLevel::Fxr), spec)?.run()?;
//! assert_eq!(result.final_regs[0][Reg::R2.index()], 49);
//! assert!(result.stats.identity.execute_identical > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod audit;
pub mod config;
pub mod ffwd;
pub mod hw_cost;
pub mod inject;
pub mod itid;
pub mod lvip;
pub mod metrics;
pub mod pipeline;
pub mod rst;
pub mod snapshot;
pub mod split;
pub mod stats;

pub use audit::MergeEvent;
pub use config::{FetchStyle, MmtLevel, SimConfig, WatchdogConfig};
pub use ffwd::Ffwd;
pub use inject::{flip_byte, CampaignRng, Fault, FaultTarget};
pub use itid::Itid;
pub use lvip::Lvip;
pub use metrics::{SimMetrics, SimPhase};
pub use mmt_mem::MemoryHierarchy;
pub use mmt_obs::{MetricsSnapshot, Trace, TraceConfig};
pub use pipeline::{Checkpoint, RunSpec, SimError, SimResult, Simulator};
pub use snapshot::ArchState;
pub use stats::{
    replay_mismatches, EnergyEvents, FetchModeCounts, IdentityCounts, PcCounters, SimStats,
};
