//! # unsync-core
//!
//! **UnSync** — the paper's contribution: a soft-error resilient
//! redundant multicore architecture that *never synchronizes* its
//! redundant cores during error-free execution (Jeyapaul, Hong,
//! Rhisheekesan, Shrivastava, Lee — ICPP 2011).
//!
//! The architecture (paper §III):
//!
//! * Two identical cores run the same thread completely decoupled. No
//!   fingerprints, no lockstep, no output comparison.
//! * Every sequential element carries a **hardware-only detection
//!   mechanism**: 1-bit parity where the write→read separation hides the
//!   parity tree's latency (register file, LSQ, TLB, queues, L1 arrays),
//!   DMR on every-cycle elements (PC, pipeline registers). The placement
//!   lives in [`unsync_fault::Coverage::unsync`].
//! * Each core's **write-through L1** feeds a per-core, non-coalescing
//!   **Communication Buffer** ([`cb::PairedCb`]). An entry drains to the
//!   ECC-protected shared L2 — one copy only — once *both* cores have
//!   produced it and the L1↔L2 bus is free. A full CB stalls its core
//!   (Fig. 6).
//! * On detection, the **Error Interrupt Handler** stalls both cores and
//!   runs **always-forward recovery** ([`pair::UnsyncPair`]): flush the
//!   erroneous pipeline, copy architectural state + L1 content from the
//!   error-free core through the shared L2, overwrite the erroneous CB,
//!   resume both cores at the error-free core's PC — no re-execution.
//! * The L1 **must** be write-through: with a write-back L1 a second
//!   strike on a dirty line of the error-free core during recovery leaves
//!   no correct copy anywhere (Fig. 2) — reproduced as the
//!   `unrecoverable` outcome of an [`UnsyncPolicy`] built with a
//!   write-back L1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod cb;
pub(crate) mod config;
pub(crate) mod pair;

pub use cb::PairedCb;
pub use config::UnsyncConfig;
pub use pair::{UnsyncPair, UnsyncPolicy};
