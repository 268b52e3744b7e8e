//! # unsync-hwcost
//!
//! Analytical 65 nm hardware area/power model — the stand-in for the
//! paper's Cadence Encounter RTL synthesis + place-and-route (§V) and for
//! CACTI 6.0.
//!
//! The model is *structural*: each core configuration is a composition of
//! components (SRAM arrays with port-dependent cell sizes, XOR trees,
//! shadow latches, datapath wiring, …), and every constant that the paper
//! publishes is used directly:
//!
//! * register-file cell 7.80 µm²/bit; CHECK-stage-buffer cell 10.40
//!   µm²/bit (1.33× — the extra read port), §IV-3;
//! * the parallel CRC-16 fingerprint generator is 238 gates, §IV-2;
//! * CSB at FI = 50 occupies 39 125 µm² (57 × 66 × 10.40 — the model
//!   reproduces this identically), §IV-3;
//! * baseline MIPS core 98 558 µm² / 1.153 W; Reunion +46 % core area /
//!   +76.8 % core power; UnSync +17.6 % / +42 %; caches and CB per
//!   Table II.
//!
//! Components whose absolute size the paper reports only in aggregate
//! (forwarding datapaths, detection-block placement) are calibrated as
//! documented residuals — see DESIGN.md §2.
//!
//! [`tables::table2`] and [`tables::table3`] regenerate the paper's
//! Table II and Table III from this model; `cacti` sizes the caches
//! under parity or SECDED.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod cacti;
pub(crate) mod components;
pub(crate) mod cores;
pub(crate) mod projection;
pub(crate) mod tables;

pub use cacti::{CacheModel, CacheProtection};
pub use cores::{cb_area_um2, CoreModel};
pub use projection::{DieProjection, ManyCoreChip};
pub use tables::{table2, table3};
