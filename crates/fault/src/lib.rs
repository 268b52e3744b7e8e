//! # unsync-fault
//!
//! Soft-error machinery for the UnSync reproduction:
//!
//! * **Detection primitives, implemented at the bit level** — the hardware
//!   mechanisms §III-B1 of the paper places in each core:
//!   - [`parity`]: 1-bit even parity (storage elements with ≥1 cycle
//!     between write and read: register file, LSQ, TLB, L1 data).
//!   - [`dmr`]: dual-modular redundancy compare (every-cycle elements: PC,
//!     pipeline registers) and a TMR voter for the ablations.
//!   - [`secded`]: Hamming(72,64) single-error-correct /
//!     double-error-detect code (the ECC the shared L2 — and Reunion's
//!     L1 — carry).
//!   - [`crc`]: the parallel CRC-16 *fingerprint* generator Reunion
//!     compares between vocal and mute cores.
//! * **Error arrival model** ([`ser`]): deterministic, seeded
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

pub mod crc;
pub mod dmr;
pub mod inject;
pub mod parity;
pub mod roec;
pub mod secded;
pub mod ser;
pub mod uncore;

pub use crc::{crc16_word, Fingerprint, CRC16_CCITT_POLY};
pub use dmr::DmrReg;
pub use inject::{
    Coverage, DetectionMechanism, FaultKind, FaultSite, FaultTarget, InjectionPlan, PairFault,
};
pub use parity::{parity_bit, ParityLine, ParityWord};
pub use roec::{
    classify, OutcomeCounts, RoecEvent, RoecEventKind, StrikeOutcome, VulnerabilityRow,
    VulnerabilityTable, ALL_OUTCOMES,
};
pub use secded::{SecdedCodeword, SecdedOutcome};
pub use ser::{ErrorArrivals, SerRate};
pub use uncore::{UncoreProtection, UncoreSite, UncoreStrike, UncoreTarget, ALL_UNCORE_TARGETS};
