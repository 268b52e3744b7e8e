//! # unsync-mem
//!
//! Cycle-level memory hierarchy for the UnSync reproduction, configured by
//! default to the paper's Table I:
//!
//! | structure | parameters |
//! |---|---|
//! | L1 | 32 KB split I/D, 2-way, 64-byte lines, 2-cycle access, 10 MSHRs |
//! | shared L2 | 4 MB, 8-way, 64-byte lines, 20-cycle access, 20 MSHRs |
//! | I-TLB / D-TLB | 48 / 64 entries, 2-way |
//! | memory | 64-bit wide, 400-cycle access |
//!
//! The hierarchy is a *timing* model: caches track tags, LRU state and
//! dirty bits; data values live in the functional model
//! (`unsync_isa::ArchMemory`). Components are plain structs passed by
//! `&mut` — no interior mutability — so a multicore system wires sharing
//! explicitly and simulations stay deterministic and `Send`.
//!
//! The write path is deliberately exposed piecemeal: a store updates the
//! L1 ([`Cache::access`]) and the *caller* owns what happens to the
//! write-through copy — the baseline core pushes it through the FIFO
//! write buffer of `unsync_sim::BaselineHooks`, UnSync routes it through
//! its Communication Buffer (`unsync-core`), which is exactly the
//! architectural difference the paper builds on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod bus;
pub(crate) mod cache;
pub(crate) mod config;
pub(crate) mod contention;
pub(crate) mod hierarchy;
pub(crate) mod mshr;
pub(crate) mod tlb;

pub use cache::{AccessKind, Cache, WritePolicy};
pub use config::{CacheConfig, HierarchyConfig};
pub use contention::{L2Contention, L2ContentionConfig, L2ContentionEvent};
pub use hierarchy::MemSystem;
