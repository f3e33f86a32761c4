//! # fx10 — Featherweight X10
//!
//! Umbrella crate for the FX10 reproduction of *"Featherweight X10: A Core
//! Calculus for Async-Finish Parallelism"* (Lee & Palsberg, PPoPP 2010).
//!
//! Re-exports the workspace crates under stable module names:
//!
//! - [`syntax`] — the FX10 AST, parser, pretty-printer and builder.
//! - [`semantics`] — the small-step operational semantics, exhaustive
//!   state-space explorer and dynamic (ground-truth) MHP.
//! - [`analysis`] — the paper's contribution: the context-sensitive
//!   may-happen-in-parallel type system, set constraints and solvers,
//!   plus the context-insensitive baseline.
//! - [`frontend`] — the X10-Lite condensed-form frontend.
//! - [`suite`] — the 13 synthetic PPoPP'10 benchmarks and random program
//!   generators.
//! - [`clocked`] — the §8 clocks extension: CFX10 with a barrier,
//!   exhaustive exploration, and a phase-refined MHP analysis.
//! - [`robust`] — the shared robustness layer: typed errors, resource
//!   budgets, cooperative cancellation and the fault-injection plan.
//! - [`absint`] — the abstract-interpretation value analysis of the
//!   shared array and its MHP guard-feasibility oracle.
//! - [`runtime`] — every way to run a program: the work-stealing
//!   scheduler, sequential elision, the vector-clock race detector, and
//!   the single-path walker behind `fx10 run --sched` and witness replay.

#![warn(missing_docs)]
pub use fx10_absint as absint;
pub use fx10_clocked as clocked;
pub use fx10_core as analysis;
pub use fx10_frontend as frontend;
pub use fx10_lints as lints;
pub use fx10_robust as robust;
pub use fx10_runtime as runtime;
pub use fx10_semantics as semantics;
pub use fx10_suite as suite;
pub use fx10_syntax as syntax;
