//! Architectural register identifiers.
//!
//! The modelled machine follows the Alpha 21264 configuration of the
//! paper's Table I: 32 integer and 32 floating-point architectural
//! registers. Register `r31` (the integer zero register) always reads
//! zero and discards writes, matching Alpha/MIPS conventions — workload
//! generators use it for result-discarding instructions.

use serde::{Deserialize, Serialize};

/// Number of integer architectural registers.
pub(crate) const NUM_INT_REGS: u8 = 32;
/// Number of floating-point architectural registers.
pub(crate) const NUM_FP_REGS: u8 = 32;
/// Total number of architectural registers (integer + floating point).
pub(crate) const NUM_REGS: u8 = NUM_INT_REGS + NUM_FP_REGS;

/// An architectural register.
///
/// Indices `0..32` name integer registers, `32..64` floating-point
/// registers. The newtype keeps register indices from being confused with
/// the many other small integers flying around a cycle-level simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Reg(u8);

impl Reg {
    /// The integer zero register (`r31`): reads as zero, writes discarded.
    pub const ZERO: Reg = Reg(31);

    /// Creates an integer register `r{idx}`.
    ///
    /// # Panics
    /// Panics if `idx >= 32`.
    #[inline]
    pub fn int(idx: u8) -> Self {
        assert!(
            idx < NUM_INT_REGS,
            "integer register index {idx} out of range"
        );
        Reg(idx)
    }

    /// Creates a floating-point register `f{idx}`.
    ///
    /// # Panics
    /// Panics if `idx >= 32`.
    #[inline]
    pub fn fp(idx: u8) -> Self {
        assert!(idx < NUM_FP_REGS, "fp register index {idx} out of range");
        Reg(NUM_INT_REGS + idx)
    }

    /// Creates a register from a flat index in `0..64`.
    ///
    /// # Panics
    /// Panics if `idx >= 64`.
    #[inline]
    pub(crate) fn from_index(idx: u8) -> Self {
        assert!(idx < NUM_REGS, "register index {idx} out of range");
        Reg(idx)
    }

    /// Flat index of this register in `0..64`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// True for integer registers (flat index `< 32`).
    #[inline]
    pub(crate) fn is_int(self) -> bool {
        self.0 < NUM_INT_REGS
    }

    /// True for the hard-wired integer zero register.
    #[inline]
    pub(crate) fn is_zero(self) -> bool {
        self == Self::ZERO
    }
}

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_int() {
            write!(f, "r{}", self.0)
        } else {
            write!(f, "f{}", self.0 - NUM_INT_REGS)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_and_fp_namespaces_are_disjoint() {
        for i in 0..NUM_INT_REGS {
            assert!(Reg::int(i).is_int());
        }
        for i in 0..NUM_FP_REGS {
            assert!(!Reg::fp(i).is_int());
        }
    }

    #[test]
    fn flat_index_round_trips() {
        for i in 0..NUM_REGS {
            assert_eq!(Reg::from_index(i).index(), i as usize);
        }
    }

    #[test]
    fn zero_register_identity() {
        assert!(Reg::ZERO.is_zero());
        assert!(Reg::int(31).is_zero());
        assert!(!Reg::int(0).is_zero());
        assert!(!Reg::fp(31).is_zero());
    }

    #[test]
    fn display_names() {
        assert_eq!(Reg::int(3).to_string(), "r3");
        assert_eq!(Reg::fp(7).to_string(), "f7");
    }

    #[test]
    #[should_panic]
    fn int_index_out_of_range_panics() {
        let _ = Reg::int(32);
    }

    #[test]
    #[should_panic]
    fn fp_index_out_of_range_panics() {
        let _ = Reg::fp(32);
    }

    #[test]
    #[should_panic]
    fn flat_index_out_of_range_panics() {
        let _ = Reg::from_index(64);
    }
}
