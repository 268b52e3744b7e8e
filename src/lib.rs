//! # unsync
//!
//! A from-scratch reproduction of **UnSync: A Soft Error Resilient
//! Redundant Multicore Architecture** (Jeyapaul, Hong, Rhisheekesan,
//! Shrivastava, Lee — ICPP 2011), including every substrate the paper's
//! evaluation depends on:
//!
//! | crate | contents |
//! |---|---|
//! | [`isa`] | instruction abstraction + deterministic functional semantics |
//! | [`workloads`] | synthetic SPEC2000 / MiBench trace generators |
//! | [`mem`] | Table I cache hierarchy (L1/L2, MSHRs, buses, TLBs) |
//! | [`sim`] | cycle-level out-of-order core engine with architecture hooks |
//! | [`fault`] | parity / SECDED / CRC-16 / DMR primitives, SER model, ROEC |
//! | [`exec`] | shared redundant-execution driver + pluggable schemes (TMR, FlexStep, SECDED-only) |
//! | [`reunion`] | the Reunion comparator (CHECK stage, CSB, fingerprints, rollback) |
//! | [`core`] | **UnSync itself**: CB, EIH, always-forward recovery |
//! | [`hwcost`] | 65 nm area/power model (Tables II & III) |
//! | [`obs`] | observability: cycle-domain timeline export + host-domain `prof.*` profiler |
//!
//! ## Quickstart
//!
//! ```
//! use unsync::prelude::*;
//!
//! // Generate a workload trace, then run it on an UnSync core pair.
//! let trace = WorkloadGen::new(Benchmark::Gzip, 10_000, 42).collect_trace();
//! let pair = UnsyncPair::new(CoreConfig::table1(), UnsyncConfig::paper_baseline());
//! let outcome = pair.run(&trace, &[]);
//! assert!(outcome.correct());
//! println!("pair IPC = {:.3}", outcome.ipc());
//! ```
//!
//! Every experiment of the paper is a row of the `unsync-bench`
//! experiment table, regenerated by its `paper` binary (`cargo run -p
//! unsync-bench --bin paper -- table2`, `-- fig4`, …, `-- all`); see
//! EXPERIMENTS.md for paper-vs-measured values.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use unsync_core as core;
pub use unsync_exec as exec;
pub use unsync_fault as fault;
pub use unsync_hwcost as hwcost;
pub use unsync_isa as isa;
pub use unsync_mem as mem;
pub use unsync_obs as obs;
pub use unsync_reunion as reunion;
pub use unsync_sim as sim;
pub use unsync_workloads as workloads;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use unsync_core::{
        DrainPolicy, PairedCb, SystemOutcome, UnsyncConfig, UnsyncGroup, UnsyncPair, UnsyncSystem,
    };
    pub use unsync_exec::{
        FlexConfig, FlexPair, RunResult, SecdedOnlyCore, TmrTriple, TraceEventKind,
    };
    pub use unsync_fault::{
        Coverage, ErrorArrivals, FaultSite, FaultTarget, Fingerprint, PairFault, SerRate,
    };
    pub use unsync_hwcost::{CoreModel, EnergyReport};
    pub use unsync_isa::{
        golden_run, ArchMemory, ArchState, Inst, InstStream, OpClass, Reg, TraceProgram,
    };
    pub use unsync_mem::{HierarchyConfig, MemSystem, WritePolicy};
    pub use unsync_reunion::{
        CheckpointConfig, CheckpointHooks, ReunionConfig, ReunionHooks, ReunionPair,
    };
    pub use unsync_sim::{
        run_baseline, run_stream, BaselineHooks, CoreConfig, CoreHooks, OooEngine,
    };
    pub use unsync_workloads::{Benchmark, BenchmarkProfile, WorkloadGen};
}
