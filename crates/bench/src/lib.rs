//! # unsync-bench
//!
//! The experiment harness: regenerates every table and figure of the
//! UnSync paper's evaluation (§V–§VI) from the simulator and hardware
//! models. Every artifact and extension study is one row of
//! [`experiment::TABLE`], run by `--bin paper -- <name>`;
//! [`experiments`] holds the reusable experiment drivers, [`render`]
//! the text output and [`env`](mod@env) the one reader of the
//! `UNSYNC_*` knobs.
//!
//! Every parallel path — the figure and ROEC sweeps as well as the
//! [`campaign`] engine, which runs each chunk of a grid through it —
//! fans independent simulations out through the one [`runner`] pool
//! (scoped standard-library threads, no external crates). Each
//! simulation is itself single-threaded and deterministic, and every
//! job draws randomness only from its own seed-derived stream, so
//! results are bit-identical at any worker count. Every row also
//! leaves a machine-readable JSONL run log via [`runlog`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod dashboard;
pub mod env;
pub mod experiment;
pub mod experiments;
pub(crate) mod kernelstats;
pub mod render;
pub mod roec_uncore;
pub mod runlog;
pub mod runner;
pub mod scheme;
pub(crate) mod stats;
pub mod timeline;

pub use campaign::{normalized_lines, CampaignEngine, CampaignGrid};
pub use experiments::ExperimentConfig;
pub use runlog::{Json, RunLog};
pub use runner::Runner;
pub use timeline::build_timeline;
