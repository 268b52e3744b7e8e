//! # unsync-sim
//!
//! Cycle-level out-of-order core model — the substrate the paper built by
//! modifying M5 (§V). The default configuration is Table I: 4-wide
//! fetch/issue/commit, 64-entry issue queue, out-of-order 5-stage
//! Alpha-21264-class cores at 2 GHz over the `unsync-mem` hierarchy.
//!
//! ## Model
//!
//! The engine is an *incremental timestamp-propagation* model: each
//! dynamic instruction is fed in program order and the engine computes its
//! fetch / dispatch / issue / complete / commit cycles subject to
//!
//! * front-end bandwidth and branch-misprediction redirects,
//! * ROB / issue-queue / LSQ capacity (entries free at release time),
//! * register dataflow (operands ready when producers complete),
//! * functional-unit counts and (un)pipelined latencies,
//! * the data-cache round trip, MSHR limits and shared-bus contention,
//! * serializing-instruction pipeline drains,
//! * and whatever a [`CoreHooks`] implementation adds on top.
//!
//! The hooks are where the redundancy architectures live: Reunion extends
//! ROB release to fingerprint-verification time and stalls dispatch after
//! serializing instructions (`unsync-reunion`); UnSync routes committed
//! write-through stores into its Communication Buffer (`unsync-core`).
//! Feeding instructions one at a time keeps paired-core simulations,
//! rollback re-execution and always-forward recovery all expressible by
//! the caller.
//!
//! Determinism: identical `(trace, config, hooks)` inputs produce
//! identical timings on every platform.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod config;
pub(crate) mod engine;
pub(crate) mod hooks;
pub mod metrics;
pub(crate) mod runner;
pub(crate) mod stats;

pub use config::CoreConfig;
pub use engine::{InstTiming, OooEngine};
pub use hooks::{BaselineHooks, CoreHooks, NullHooks, RobRelease};
pub use runner::{run_baseline, run_stream};
pub use stats::CoreStats;
