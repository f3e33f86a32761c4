//! # fx10-runtime
//!
//! Real parallel execution of FX10 programs — the first engine in this
//! workspace that *runs* programs instead of analyzing them.
//!
//! Three executors share one [`RunReport`] and one vector-clock race
//! detector ([`detect`]):
//!
//! * [`run_parallel`] — a std-only work-stealing scheduler (per-worker
//!   deques, help-first `finish` latches, granularity
//!   control, panic isolation) executing `async` bodies on a real
//!   thread crew;
//! * [`run_elision`] — sequential elision, the classic fork-join
//!   correctness oracle: for race-free programs every parallel run must
//!   reproduce its array state and step count byte-for-byte;
//! * [`replay_detect`] — a guided executor that replays explorer
//!   witness schedules (the lint suite's confirmed races) over a
//!   clock-carrying mirror of the execution tree, turning static
//!   witnesses into dynamically observed races.
//!
//! Together they make the paper's Theorem 2 executable: every race any
//! of these engines observes must lie inside the static
//! may-happen-in-parallel over-approximation — a differential oracle
//! the workspace test suite and CI enforce.

#![warn(missing_docs)]
pub mod detect;
pub mod elide;
pub mod replay;
pub mod sched;

pub use detect::{DetectedRace, Detector, VClock};
pub use elide::run_elision;
pub use replay::replay_detect;
pub use sched::{run_parallel, RtConfig};

use fx10_robust::Exhaustion;
use fx10_semantics::LabelPair;
use std::collections::BTreeSet;

/// The outcome of one runtime execution (any engine).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Final contents of the shared array.
    pub array: Vec<i64>,
    /// Executed instructions (identical across schedules for race-free
    /// programs; the currency of the elision oracle).
    pub steps: u64,
    /// Did the program run to completion?
    pub completed: bool,
    /// Why execution was truncated, when `completed` is false.
    pub exhausted: Option<Exhaustion>,
    /// Every race the detector observed on this execution, ascending
    /// (label pair, then cell) and without duplicates.
    pub races: Vec<DetectedRace>,
    /// Activities that existed (root + every executed `async`).
    pub activities: u32,
}

impl RunReport {
    /// The observed race pairs (normalized labels), cells stripped —
    /// the currency of the dynamic ⊆ static containment oracle.
    pub fn race_pairs(&self) -> BTreeSet<LabelPair> {
        self.races.iter().map(|r| r.pair).collect()
    }
}
