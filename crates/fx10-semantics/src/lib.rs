//! # fx10-semantics
//!
//! The small-step operational semantics of FX10 (paper §3.3).
//!
//! A state is a triple `(p, A, T)` of the program, the shared-array state
//! [`ArrayState`], and an execution [`Tree`]:
//!
//! ```text
//! T ::= √  |  ⟨s⟩  |  T ▷ T  |  T ∥ T
//! ```
//!
//! `T₁ ▷ T₂` (from `finish`) requires `T₁` to complete before `T₂` runs;
//! `T₁ ∥ T₂` (from `async`) interleaves both sides; `√` is a completed
//! computation; `⟨s⟩` is a running statement.
//!
//! This crate provides:
//! - [`step`]: the transition rules (1)–(14) as a successor enumerator,
//!   the reference that the interned [`Stepper`] and the runtime's
//!   single-path walker (`fx10-runtime`) are checked against,
//! - [`parallel`]: the `parallel(T)` / `FTlabels(T)` functions of Figure 3,
//!   used to define ground-truth MHP,
//! - [`explore`](mod@explore): exhaustive (sequential and multi-threaded) state-space
//!   exploration computing the *dynamic* may-happen-in-parallel relation
//!   `MHP(p) = ∪ { parallel(T) | (p,A₀,⟨s₀⟩) →* (p,A,T) }` and checking
//!   the deadlock-freedom theorem (Theorem 1) on every visited state,
//! - [`witness`]: one bounded search for schedules exhibiting a set of
//!   label pairs ([`find_witnesses`]) and their replay
//!   ([`witness_exhibits`]).

#![warn(missing_docs)]
pub mod explore;
pub mod hash;
pub mod intern;
pub mod parallel;
pub mod snapshot;
pub mod state;
pub mod step;
pub mod tree;
pub mod witness;

pub use explore::{
    explore, explore_budgeted, explore_interned_budgeted, explore_parallel_durable,
    explore_sampled, settle_outcome, CheckpointSpec, Durability, Exploration, ExploreConfig,
    FrontSample, WatchdogSpec,
};
pub use intern::{ArrayId, Interner, Stepper, TreeBits, TreeId};
pub use parallel::{ftlabels, parallel, LabelPair};
pub use snapshot::{fingerprint as snapshot_fingerprint, ExplorerSnapshot};
pub use state::ArrayState;
pub use tree::Tree;
pub use witness::{find_witnesses, witness_exhibits, Witness, WitnessSearch};
