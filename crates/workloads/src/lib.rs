//! # unsync-workloads
//!
//! Synthetic SPEC2000 / MiBench workload models.
//!
//! The paper evaluates over SPEC2000 and MiBench binaries run under a
//! modified M5. Neither the binaries nor M5 checkpoints are available
//! here, so each named benchmark is modelled as a *seeded statistical
//! trace generator* whose parameters are the trace statistics the paper's
//! own analysis keys on:
//!
//! * **serializing-instruction fraction** — Fig. 4 names bzip2 ≈ 2 %,
//!   ammp ≈ 1.7 %, galgel ≈ 1 % of dynamic instructions;
//! * **instruction mix and dependency density** — what drives ROB/issue
//!   pressure (Fig. 5's ammp/galgel ROB saturation);
//! * **store intensity** — what pressures the Communication Buffer
//!   (Fig. 6);
//! * **memory working set and locality** — what sets L1/L2 miss rates and
//!   bus traffic;
//! * **branch misprediction rate** — front-end redirect costs.
//!
//! Because every downstream experiment compares *relative* performance of
//! the baseline / Reunion / UnSync machinery on the *same* trace, a
//! statistically faithful trace preserves the orderings and crossovers the
//! paper reports even though absolute IPC differs from the authors' Alpha
//! binaries.
//!
//! Generation is fully deterministic: `(benchmark, length, seed)` always
//! yields the identical instruction sequence, on every platform.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod gen;
pub(crate) mod kernels;
pub(crate) mod profile;
pub(crate) mod rng;
pub mod source;

pub use gen::WorkloadGen;
pub use kernels::Kernel;
pub use profile::{Benchmark, BenchmarkProfile};
pub use source::{AnySource, SyntheticSource, WorkloadSource, WorkloadSpec};
