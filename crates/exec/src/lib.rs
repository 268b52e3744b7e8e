//! # unsync-exec
//!
//! The shared redundant-execution substrate every scheme in this
//! workspace routes through. A redundancy scheme — UnSync, Reunion,
//! lockstep, TMR, a multi-pair system — is ~90 % identical
//! machinery: interleave `N` [`unsync_sim::OooEngine`]s over one shared
//! [`unsync_mem::MemSystem`], execute the program functionally on each
//! replica ([`unsync_isa::ArchState`] + [`unsync_isa::ArchMemory`]),
//! apply injected faults, track committed stores, and verify the final
//! memory image against [`unsync_isa::golden_run`]. What *differs* is
//! the detection/compare/recovery discipline.
//!
//! This crate owns the identical 90 %:
//!
//! * [`RedundantDriver`] — the one execution loop (segment collection,
//!   per-instruction per-replica feed + functional execution, retry on
//!   rollback, finalization, golden comparison, metrics publication);
//! * [`RedundancyPolicy`] — the plug-in point for the differing 10 %:
//!   detection events, compare points, and the recovery procedure
//!   (always-forward for UnSync, rollback for Reunion, cycle-compare
//!   for lockstep);
//! * [`OutcomeCore`] — the counters all schemes share (`committed`,
//!   `cycles`, `detections`, `recoveries`, …) with the one true
//!   [`OutcomeCore::ipc`] / [`OutcomeCore::correct`] implementation;
//! * [`EventStream`] — a structured trace-event stream (detection,
//!   recovery start/end, CB drain, fingerprint compare, …) the driver
//!   routes into `unsync_sim::metrics`, so every scheme gets the
//!   observability the hand-rolled runners used to implement one-off.
//!
//! Adding a new scheme is implementing [`RedundancyPolicy`] — no
//! interleaving, forwarding, golden comparison, or outcome type: every
//! run returns a [`RunResult`], whose event stream carries the scheme's
//! own counters. See `ARCHITECTURE.md` ("Where to add things") for the
//! recipe, the `schemes` module for three complete worked examples
//! (TMR voting, FlexStep-style granularity, SECDED-only baseline), and
//! this crate's tests for the minimal floor.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod driver;
pub mod event;
pub(crate) mod outcome;
pub(crate) mod pending;
pub(crate) mod policy;
pub mod sched;
pub(crate) mod schemes;
pub mod spans;
pub mod uncore;

pub use driver::{Lane, LaneState, RedundantDriver, Reference, RunResult};
pub use event::{EventStream, TraceEventKind};
pub use outcome::OutcomeCore;
pub use policy::{RedundancyPolicy, SegmentVerdict, StrikeVerdict};
pub use schemes::{
    FlexConfig, FlexGranularityPolicy, FlexPair, SecdedOnlyCore, SecdedOnlyPolicy, TmrTriple,
    TmrVotePolicy,
};
pub use spans::{episodes_from, overlap_fraction};
