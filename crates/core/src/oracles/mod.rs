//! Test oracles: slower or hand-rolled counterparts of the production
//! entry points, kept only so the test suites and benches can prove the
//! production paths against them.
//!
//! Compiled for this crate's unit tests and behind the `oracles`
//! feature, which the integration tests and the bench harnesses
//! enable; the `helmsim` CLI and the perfbench benchmark build without
//! them.
//!
//! * [`run_pipeline_des`] — the discrete-event pipeline executor: the
//!   same zig-zag schedule played against persistent water-filled links
//!   with asynchronous KV write-back. It agrees exactly with
//!   [`crate::exec::run_pipeline`] where neither relaxation applies.
//! * [`run_pipeline_reference`] — the seed evaluator, costing every
//!   step from scratch; [`crate::exec::run_pipeline`] is bit-identical
//!   to it.
//! * [`run_online`] — the hand-rolled single-pipeline
//!   run-to-completion loop; a one-replica
//!   [`crate::online::run_cluster_mix_cached`] reproduces it bit for
//!   bit.
//! * [`run_cluster_mix_budgeted`] — the cluster engine under a miss
//!   budget, the path the capacity planner's probes take.

mod des;
mod online;
mod reference;

pub use des::run_pipeline_des;
pub use online::{run_cluster_mix_budgeted, run_online, OnlineReport};
pub use reference::run_pipeline_reference;
