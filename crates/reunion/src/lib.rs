//! # unsync-reunion
//!
//! The Reunion redundant multicore architecture (Smolens, Gold, Falsafi,
//! Hoe — *Reunion: Complexity-Effective Multicore Redundancy*, MICRO
//! 2006) — the state-of-the-art comparator the UnSync paper evaluates
//! against, implemented per the UnSync paper's §IV analysis:
//!
//! * A **CHECK pipeline stage** after Memory: committed instructions and
//!   their output data are parked in the **CHECK-stage buffer (CSB,
//!   17 × 66-bit entries at FI = 10)** until their fingerprint round trip
//!   completes. CSB occupancy back-pressures commit; CHECK-stage
//!   residency holds ROB entries, starving the speculative window
//!   (§IV-5, Fig. 5).
//! * A **fingerprint generator**: a parallel CRC-16 over each committed
//!   instruction's (pc, result), cut every *fingerprint interval* (FI)
//!   instructions, exchanged between the vocal and mute cores and
//!   compared after a *comparison latency*.
//! * **Serializing instructions** (traps, memory barriers) force the
//!   fingerprint containing them to be cut and verified before the
//!   pipeline may proceed (§IV-5, Fig. 4).
//! * **Rollback recovery**: a fingerprint mismatch squashes back to the
//!   last verified boundary and re-executes — cheap per event, but the
//!   checking machinery is paid on *every* instruction, which is the
//!   paper's core argument.
//!
//! Two entry points:
//! * [`ReunionHooks`] — plugs the CHECK-stage timing model into one
//!   `unsync_sim::OooEngine` (performance experiments: Figs. 4 and 5);
//! * [`ReunionPair`] — a full vocal/mute pair with functional state,
//!   real CRC-16 fingerprints, fault injection, rollback and
//!   escaped-error accounting (reliability experiments: §VI-C/D).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod checkpoint;
pub(crate) mod config;
pub(crate) mod hooks;
pub(crate) mod lockstep;
pub(crate) mod pair;

pub use checkpoint::{CheckpointConfig, CheckpointHooks, CheckpointPolicy};
pub use config::ReunionConfig;
pub use hooks::ReunionHooks;
pub use lockstep::{LockstepPair, LockstepPolicy};
pub use pair::{ReunionPair, ReunionPolicy};
