//! # unsync-fault
//!
//! Soft-error machinery for the UnSync reproduction:
//!
//! * **Detection mechanisms** — the hardware §III-B1 of the paper places
//!   in each core. Parity (storage elements with ≥1 cycle between write
//!   and read: register file, LSQ, TLB, L1 data) and DMR (every-cycle
//!   elements: PC, pipeline registers) are modelled by their detection
//!   rule, [`DetectionMechanism`] per [`FaultTarget`] in [`Coverage`].
//!   Two codes are implemented at the bit level:
//!   - `secded`: Hamming(72,64) single-error-correct /
//!     double-error-detect code (the ECC the shared L2 — and Reunion's
//!     L1 — carry).
//!   - `crc`: the parallel CRC-16 *fingerprint* generator Reunion
//!     compares between vocal and mute cores.
//! * **Error arrival model** (`ser`): deterministic, seeded
//!   per-instruction soft-error arrivals at a configurable SER, with the
//!   FIT-rate conversions used in §VI-C.
//! * **Injection planning and coverage accounting** ([`inject`]): which
//!   architectural element an error strikes, which mechanism (if any)
//!   detects it under each architecture, and the resulting *region of
//!   error coverage* (ROEC, §VI-D).
//! * **Uncore strikes and their outcomes** ([`uncore`], [`roec`]):
//!   seeded strikes on the shared L2, MSHRs, bank arbiters and the
//!   Communication Buffer, each run labelled masked / detected-recovered
//!   / detected-unrecoverable / SDC and tallied per (structure, scheme)
//!   cell.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod crc;
pub mod inject;
pub mod roec;
pub(crate) mod secded;
pub(crate) mod ser;
pub mod uncore;

pub use crc::{crc16_word, Fingerprint};
pub use inject::{Coverage, DetectionMechanism, FaultKind, FaultSite, FaultTarget, PairFault};
pub use secded::{SecdedCodeword, SecdedOutcome};
pub use ser::{ErrorArrivals, SerRate};
