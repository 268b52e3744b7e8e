//! # unsync-isa
//!
//! Instruction-set abstraction shared by every component of the UnSync
//! reproduction: the out-of-order core model (`unsync-sim`), the workload
//! generators (`unsync-workloads`), the redundancy architectures
//! (`unsync-core`, `unsync-reunion`) and the fault-injection engine
//! (`unsync-fault`).
//!
//! The ISA is deliberately *architecture-shaped* rather than a full decoder:
//! an [`Inst`] carries exactly the information the paper's evaluation
//! depends on — an operation class with a functional-unit latency, register
//! dependencies (for issue-queue/ROB pressure), a memory address (for the
//! cache hierarchy and the write-through/Communication-Buffer machinery),
//! branch behaviour, and a *serializing* property (traps and memory
//! barriers, the instructions that force Reunion to synchronize).
//!
//! Instructions also have deterministic functional semantics
//! ([`exec::ArchState`]): every instruction computes a concrete 64-bit
//! result from its source registers. This makes end-to-end correctness
//! checking under fault injection possible — a "golden" architectural run
//! can be compared bit-for-bit against a run in which soft errors were
//! injected and (hopefully) detected and recovered.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod codec;
pub mod exec;
pub(crate) mod inst;
pub(crate) mod op;
pub(crate) mod reg;
pub(crate) mod stream;

pub use codec::{decode as decode_trace, encode as encode_trace};
pub use exec::{golden_run, ArchMemory, ArchState};
pub use inst::{BranchInfo, Inst, InstBuilder, MemInfo};
pub use op::OpClass;
pub use reg::Reg;
pub use stream::{InstStream, TraceProgram};
