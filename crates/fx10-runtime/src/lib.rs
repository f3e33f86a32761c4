//! # fx10-runtime
//!
//! Execution of FX10 programs: every way to *run* a program, as opposed
//! to analyzing it, lives here.
//!
//! Two engines share one [`RunReport`] and one vector-clock race
//! detector ([`detect`]):
//!
//! * [`sched`] — the one executor: a std-only work-stealing scheduler
//!   (per-worker deques, help-first `finish` latches, granularity
//!   control, panic isolation) executing `async` bodies on a real
//!   thread crew ([`run_parallel`]). Sequential elision
//!   ([`run_elision`]), the classic fork-join correctness oracle, is a
//!   configuration of it: one worker on the calling thread with every
//!   `async` inlined. For race-free programs every parallel run must
//!   reproduce elision's array state and step count byte-for-byte;
//! * [`replay`] — the single-path walker over a clock-carrying mirror
//!   of the execution tree: [`run_scheduled`] follows a [`Scheduler`]
//!   policy (`fx10 run --sched`), [`replay_detect`] replays explorer
//!   witness schedules (the lint suite's confirmed races), turning
//!   static witnesses into dynamically observed races.
//!
//! Together they make the paper's Theorem 2 executable: every race any
//! of these engines observes must lie inside the static
//! may-happen-in-parallel over-approximation — a differential oracle
//! the workspace test suite and CI enforce.

#![warn(missing_docs)]
pub mod detect;
pub mod replay;
pub mod sched;

pub use detect::{DetectedRace, Detector, VClock};
pub use replay::{replay_detect, run_scheduled, Scheduler};
pub use sched::{run_elision, run_parallel, RtConfig};

use fx10_robust::Exhaustion;
use fx10_semantics::LabelPair;
use std::collections::BTreeSet;

/// The deepest nesting any engine enters: `exec` recursion on the crew
/// (elision included), execution-tree depth in the walker. Past it
/// a run stops with [`Exhaustion::Nesting`] (exit 3) instead of
/// overflowing the native stack on unbounded recursion such as
/// `def f() { f(); }`.
pub const MAX_NESTING: usize = 2048;

/// The outcome of one runtime execution (any engine).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Final contents of the shared array.
    pub array: Vec<i64>,
    /// Executed instructions on the crew, elision included (identical
    /// across schedules for race-free programs; the currency of the
    /// elision oracle); transitions for the walker.
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
