//! # unsync-obs
//!
//! Observability pipelines over the simulator's two time domains:
//!
//! * `timeline` — the **simulated-cycle domain**. Converts the
//!   cycle-stamped sources every run already produces — the
//!   opt-in event journal (`RedundantDriver::with_journal`), recovery episodes
//!   ([`unsync_exec::spans`]), shared-L2 bank-conflict events, uncore
//!   strike schedules — into one [`timeline::Timeline`] model, rendered
//!   either as Chrome Trace Event Format JSON (loadable in Perfetto /
//!   `chrome://tracing`; see `--bin trace_export` in `unsync-bench`)
//!   or as a textual swimlane + episode table (which `trace_export`
//!   also prints).
//!   Everything here is deterministic: same seed, byte-identical
//!   export.
//! * [`prof`] — the **host wall-clock domain**. A scoped-timer API
//!   (`prof::scope("campaign.dispatch")`) feeding `prof.*` histograms
//!   in the shared [`unsync_sim::metrics`] registry, so engine
//!   regressions in `BENCH_*.json` are attributable to a phase instead
//!   of a total. `prof.*` numbers are non-deterministic by design and
//!   are excluded from run-to-run diffs.
//!
//! The two domains never mix: timeline exports carry cycles only, and
//! `prof.*` values appear only in clearly-marked host sections (the
//! per-run meta blocks).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod prof;
pub(crate) mod timeline;

pub use timeline::Timeline;
