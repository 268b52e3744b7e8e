//! # unsync-bench
//!
//! The experiment harness: regenerates every table and figure of the
//! UnSync paper's evaluation (§V–§VI) from the simulator and hardware
//! models. Each `table*`/`fig*`/`ser_sweep`/`roec` binary prints the
//! corresponding artifact; [`experiments`] holds the reusable experiment
//! drivers and [`render`] the text output.
//!
//! Every parallel path — the figure and ROEC sweeps as well as the
//! [`campaign`] engine, which runs each chunk of a grid through it —
//! fans independent simulations out through the one [`runner`] pool
//! (scoped standard-library threads, no external crates). Each
//! simulation is itself single-threaded and deterministic, and every
//! job draws randomness only from its own seed-derived stream, so
//! results are bit-identical at any worker count. Binaries
//! additionally emit machine-readable JSONL run logs via [`runlog`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod dashboard;
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
    fig4, fig5, fig6, roec, scheme_values, ser_sweep, ExperimentConfig, Fig4Row, Fig5Cell, Fig6Row,
    RoecReport, SchemeValuesRow, SerSweep,
};
pub use lanesweep::{run_sweep, sweep_point, LaneSweepConfig, LaneSweepRow};
pub use roec_uncore::{run_campaign, RoecUncoreConfig, StrikeRecord};
pub use runlog::{Json, RunLog};
pub use runner::{baseline_cycles, job_seed, job_seed_named, job_stream, Runner};
pub use stats::{multi_seed, Summary};
pub use timeline::{build_timeline, plan_strikes, TimelineScenarioConfig};
