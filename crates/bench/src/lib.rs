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
pub mod kernelstats;
pub mod lanesweep;
pub mod microbench;
pub mod render;
pub mod roec_uncore;
pub mod runlog;
pub mod runner;
pub mod scheme;
pub mod stats;
pub mod timeline;

pub use campaign::{
    normalized_lines, run_collected, CampaignEngine, CampaignGrid, CampaignJob, CampaignReport,
    JobKind,
};
pub use experiments::{
    ExperimentConfig, Fig4Row, Fig5Cell, Fig6Row, RoecReport, SchemeValuesRow, SerSweep,
};
pub use lanesweep::{run_sweep, sweep_point, LaneSweepConfig, LaneSweepRow};
pub use roec_uncore::{run_campaign, RoecUncoreConfig, StrikeRecord};
pub use runlog::{Json, RunLog};
pub use runner::{baseline_cycles, job_seed, job_seed_named, job_stream, Runner};
pub use stats::Summary;
pub use timeline::{build_timeline, plan_strikes, TimelineScenarioConfig};
