//! # fx10-benchmark
//!
//! The repository benchmark: five fixed workloads driven through the
//! library entry points the `fx10` CLI uses, every answer checked, the
//! end-to-end metrics measured untraced and the per-layer metrics from a
//! separate traced run. See `README.md` next to this crate.

pub mod json;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod tools;
pub mod trace;
pub mod workloads;
