//! # mmt-frontend — fetch-engine components
//!
//! The paper's front end (Table 4 and Section 4.1) consists of a 2-level
//! branch predictor (1024 entries, 10 bits of history), a 2048-entry BTB,
//! a 16-entry return address stack, and — the MMT addition — a per-thread
//! 32-entry *Fetch History Buffer* CAM driving the MERGE / DETECT /
//! CATCHUP fetch-synchronization state machine (Figure 3).
//!
//! This crate implements each of those components plus [`FetchSync`], the
//! bookkeeping for which threads are currently merged, which are hunting
//! for a remerge point (DETECT), and which are catching up to another
//! thread (CATCHUP). The cycle-level fetch engine in `mmt-sim` drives
//! these pieces; everything here is deterministic and standalone-testable.

#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod bpred;
pub mod btb;
pub mod fhb;
pub mod ras;
pub mod sync;

pub use bpred::{PredictorConfig, TwoLevelPredictor};
pub use btb::Btb;
pub use fhb::Fhb;
pub use ras::Ras;
pub use sync::{FetchSync, SyncEvent, SyncMode};
