//! # fx10-core
//!
//! The paper's primary contribution: a **modular, context-sensitive
//! may-happen-in-parallel (MHP) analysis** for FX10, implemented both as
//!
//! 1. the **type system** of Figure 4 (rules 45–56) — structural,
//!    syntax-directed typing computing a method summary `(M, O)` per
//!    method ([`typesystem`]), and
//! 2. the **set-constraint formulation** of §5 (constraints 57–82) with
//!    the three-phase iterative fixed-point solver of §5.3
//!    (Slabels equations → level-1 → level-2) ([`gen`], [`solver`]),
//!
//! which Theorem 4 proves equivalent — and this crate tests as such.
//!
//! Also provided:
//! - the abstract domains `LabelSet` / `LabelPairSet` as dense bitsets
//!   ([`sets`]), matching the representation assumed by the paper's
//!   `O(n⁶)` complexity analysis (the level-2 solver stores its pair
//!   sets one-sided in shared sparse rows and hands out dense ones),
//! - the nine helper functions of Figure 3 (`Slabels` in [`slabels`];
//!   `symcross`/`Lcross`/`Scross` as [`sets::PairSet`] bulk operations;
//!   `FSlabels`/`FTlabels`/`parallel` live with the semantics),
//! - the **context-insensitive baseline** of §7 (constraints 83–84),
//! - async-body pair reporting with the paper's *self*/*same*/*diff*
//!   categories (Figure 8) in [`report`],
//! - a race-detector client built on MHP ([`race`]) — the downstream use
//!   the paper motivates,
//! - the high-level driver [`analyze`] / [`analyze_ci`] with iteration,
//!   constraint-count and space accounting for Figures 6, 8 and 9.

#![warn(missing_docs)]
pub mod analysis;
pub mod gen;
pub mod index;
pub mod race;
pub mod report;
pub mod sets;
pub mod slabels;
pub mod solver;
pub mod typesystem;

pub use analysis::{
    analyze, analyze_ci, analyze_with, analyze_with_budget, analyze_with_fallback, Analysis,
    AnalysisPath, AnalysisStats, FallbackOutcome, LadderRung, PruneReport, SolverKind,
    SoundnessReport, SupervisedAnswer, Supervisor,
};
pub use gen::Mode;
pub use index::{StmtId, StmtIndex, StmtKind};
pub use sets::{LabelSet, PairSet};
pub use slabels::SlabelsResult;
pub use typesystem::{infer_types, typecheck, MethodSummary, TypeEnv};
