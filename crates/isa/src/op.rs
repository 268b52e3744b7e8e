//! Operation classes and their functional-unit characteristics.

use serde::{Deserialize, Serialize};

/// The operation class of an instruction.
///
/// Classes are the granularity at which the timing model distinguishes
/// instructions: each class maps to a functional-unit kind, an execution
/// latency, and the structural properties (memory access, control flow,
/// serialization) that the UnSync/Reunion machinery cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// Integer add/sub/logic/shift/compare. 1-cycle latency.
    IntAlu,
    /// Integer multiply. Pipelined, 7-cycle latency (Alpha 21264 MUL).
    IntMul,
    /// Integer divide. Unpipelined, 20-cycle latency.
    IntDiv,
    /// Floating-point add/sub/convert. 4-cycle latency.
    FpAlu,
    /// Floating-point multiply. 4-cycle latency.
    FpMul,
    /// Floating-point divide/sqrt. Unpipelined, 15-cycle latency.
    FpDiv,
    /// Memory load. Latency comes from the cache hierarchy.
    Load,
    /// Memory store. Address/data generation is 1 cycle; the write drains
    /// through the store path (write-through L1 → CB in UnSync).
    Store,
    /// Conditional or unconditional branch. 1-cycle execute latency;
    /// mispredictions additionally cost a front-end redirect.
    Branch,
    /// A trap / system-call style instruction. **Serializing**: the paper's
    /// §IV-5 — Reunion must drain and verify the fingerprint that contains
    /// it before execution may proceed.
    Trap,
    /// A memory barrier. **Serializing**, like [`OpClass::Trap`].
    MemBarrier,
    /// No-op (still occupies fetch/ROB slots).
    Nop,
}

/// All operation classes, in a fixed order (useful for histograms).
pub(crate) const ALL_OP_CLASSES: [OpClass; 12] = [
    OpClass::IntAlu,
    OpClass::IntMul,
    OpClass::IntDiv,
    OpClass::FpAlu,
    OpClass::FpMul,
    OpClass::FpDiv,
    OpClass::Load,
    OpClass::Store,
    OpClass::Branch,
    OpClass::Trap,
    OpClass::MemBarrier,
    OpClass::Nop,
];

impl OpClass {
    /// Execution latency in cycles on its functional unit.
    ///
    /// For [`OpClass::Load`] this is the *address-generation* latency; the
    /// memory round-trip is added by the cache hierarchy model.
    #[inline]
    pub fn exec_latency(self) -> u32 {
        match self {
            OpClass::IntAlu => 1,
            OpClass::IntMul => 7,
            OpClass::IntDiv => 20,
            OpClass::FpAlu => 4,
            OpClass::FpMul => 4,
            OpClass::FpDiv => 15,
            OpClass::Load => 1,
            OpClass::Store => 1,
            OpClass::Branch => 1,
            OpClass::Trap => 1,
            OpClass::MemBarrier => 1,
            OpClass::Nop => 1,
        }
    }

    /// Whether the operation's functional unit is pipelined (can accept a
    /// new operation every cycle).
    #[inline]
    pub fn is_pipelined(self) -> bool {
        !matches!(self, OpClass::IntDiv | OpClass::FpDiv)
    }

    /// True for loads and stores.
    #[inline]
    pub fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }

    /// True for loads.
    #[inline]
    pub fn is_load(self) -> bool {
        self == OpClass::Load
    }

    /// True for stores.
    #[inline]
    pub fn is_store(self) -> bool {
        self == OpClass::Store
    }

    /// True for control-flow instructions.
    #[inline]
    pub fn is_branch(self) -> bool {
        self == OpClass::Branch
    }

    /// True for *serializing* instructions (traps, memory barriers).
    ///
    /// These are the instructions the paper identifies as forcing
    /// synchronization between Reunion's redundant cores (§I issue 2,
    /// §IV-5): the pipeline stalls until the fingerprint containing the
    /// serializing instruction has been verified. UnSync is unaffected.
    #[inline]
    pub fn is_serializing(self) -> bool {
        matches!(self, OpClass::Trap | OpClass::MemBarrier)
    }

    /// True for floating-point operation classes.
    #[inline]
    pub fn is_fp(self) -> bool {
        matches!(self, OpClass::FpAlu | OpClass::FpMul | OpClass::FpDiv)
    }

    /// The functional-unit pool this class issues to.
    #[inline]
    pub fn fu_kind(self) -> FuKind {
        match self {
            OpClass::IntAlu
            | OpClass::Branch
            | OpClass::Trap
            | OpClass::MemBarrier
            | OpClass::Nop => FuKind::IntAlu,
            OpClass::IntMul | OpClass::IntDiv => FuKind::IntMulDiv,
            OpClass::FpAlu | OpClass::FpMul | OpClass::FpDiv => FuKind::Fp,
            OpClass::Load | OpClass::Store => FuKind::Mem,
        }
    }
}

/// Functional-unit pools of the modelled core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FuKind {
    /// Simple integer ALUs (also execute branches, traps, barriers, nops).
    IntAlu,
    /// Integer multiply/divide unit.
    IntMulDiv,
    /// Floating-point units.
    Fp,
    /// Load/store ports.
    Mem,
}

impl FuKind {
    /// A dense index for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            FuKind::IntAlu => 0,
            FuKind::IntMulDiv => 1,
            FuKind::Fp => 2,
            FuKind::Mem => 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializing_classes_are_exactly_trap_and_barrier() {
        for op in ALL_OP_CLASSES {
            let expect = matches!(op, OpClass::Trap | OpClass::MemBarrier);
            assert_eq!(op.is_serializing(), expect, "{op:?}");
        }
    }

    #[test]
    fn mem_classes() {
        assert!(OpClass::Load.is_mem() && OpClass::Load.is_load());
        assert!(OpClass::Store.is_mem() && OpClass::Store.is_store());
        for op in ALL_OP_CLASSES {
            if !matches!(op, OpClass::Load | OpClass::Store) {
                assert!(!op.is_mem());
            }
        }
    }

    #[test]
    fn latencies_are_positive() {
        for op in ALL_OP_CLASSES {
            assert!(op.exec_latency() >= 1, "{op:?}");
        }
    }

    #[test]
    fn divides_are_unpipelined() {
        assert!(!OpClass::IntDiv.is_pipelined());
        assert!(!OpClass::FpDiv.is_pipelined());
        assert!(OpClass::IntMul.is_pipelined());
        assert!(OpClass::FpMul.is_pipelined());
    }

    #[test]
    fn fu_kind_indices_are_dense_and_unique() {
        let mut seen: [Option<FuKind>; 4] = [None; 4];
        for op in ALL_OP_CLASSES {
            let fu = op.fu_kind();
            assert!(seen[fu.index()].is_none_or(|k| k == fu), "{fu:?}");
            seen[fu.index()] = Some(fu);
        }
        assert!(seen.iter().all(Option::is_some));
    }

    #[test]
    fn every_class_maps_to_a_fu() {
        for op in ALL_OP_CLASSES {
            let _ = op.fu_kind(); // must not panic
        }
    }
}
