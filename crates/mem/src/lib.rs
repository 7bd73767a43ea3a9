//! # mmt-mem — cache hierarchy substrate
//!
//! The paper evaluates MMT on a core with 64 KiB 4-way L1 I/D caches
//! (1-cycle), a 4 MiB 8-way L2 (6-cycle) and 200-cycle DRAM (Table 4),
//! with MSHRs bounding memory-level parallelism (varied in Figure 7(b)).
//! This crate provides those pieces: a set-associative LRU [`Cache`], an
//! MSHR file ([`MshrFile`]) that serializes misses past its capacity, and
//! a two-level [`MemoryHierarchy`] facade the timing model calls with
//! `(address, current cycle)` and gets back a completion latency.
//!
//! Multi-execution workloads run distinct processes; their identical
//! *virtual* addresses must not alias in the caches. [`MemoryHierarchy`]
//! therefore takes an address-space id and folds it into the physical
//! address (see [`phys_addr`]).
//!
//! ```
//! use mmt_mem::{HierarchyConfig, MemoryHierarchy};
//! let mut h = MemoryHierarchy::new(HierarchyConfig::paper());
//! let cold = h.access_data(0, 0x100, 0, false);
//! let warm = h.access_data(0, 0x100, cold.completes_at, false);
//! assert!(warm.latency < cold.latency);
//! ```

#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod cache;
pub mod hierarchy;
pub mod mshr;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use hierarchy::{phys_addr, AccessOutcome, HierarchyConfig, HitLevel, MemoryHierarchy};
pub use mshr::MshrFile;
