//! Additional redundancy schemes built directly on the driver.
//!
//! Each submodule is one [`crate::RedundancyPolicy`] implementation plus
//! a thin typed runner returning [`crate::RunResult`] — no interleaving,
//! forwarding, or golden-comparison code of its own. Together they
//! bracket the design space the UnSync paper argues inside:
//!
//! * [`tmr`] — majority-voting triple modular redundancy: the *upper*
//!   bracket on redundancy cost. Three replicas, a vote at every segment
//!   boundary, and in-place repair of the outvoted replica — zero
//!   rollback, zero recovery copies, but 3× area/energy.
//! * [`flexstep`] — FlexStep-style configurable comparison granularity
//!   (arXiv 2503.13848): a dual-modular scheme whose comparison interval
//!   is a *runtime parameter* swept from per-instruction to
//!   per-1k-instruction windows, with store-buffer occupancy and
//!   detection latency scaling accordingly.
//! * [`secded_only`] — the *lower* bracket: one lane, no comparison at
//!   all, SECDED scrubbing of the storage arrays as the only protection.
//!   This is the detection-coverage floor every redundant scheme is
//!   implicitly compared against.

pub(crate) mod flexstep;
pub(crate) mod secded_only;
pub(crate) mod tmr;

pub use flexstep::{FlexConfig, FlexGranularityPolicy, FlexPair};
pub use secded_only::{SecdedOnlyCore, SecdedOnlyPolicy};
pub use tmr::{TmrTriple, TmrVotePolicy};
