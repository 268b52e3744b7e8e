//! Dual-modular redundancy for every-cycle sequential elements.
//!
//! Storage that is read and written in the *same* cycle (the PC, pipeline
//! latches) cannot hide a parity tree's latency, so UnSync duplicates
//! those flops and compares (§III-B1): DMR detection costs ~6 % power
//! against TMR's ~200 % (the paper's cited figures; costs live in
//! `unsync-hwcost`). DMR detects any corruption of one copy.

use serde::{Deserialize, Serialize};

/// A DMR-protected 64-bit register: two copies written together, compared
/// on every read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DmrReg {
    main: u64,
    shadow: u64,
}

impl DmrReg {
    /// Stores `value` into both copies.
    #[inline]
    pub fn store(value: u64) -> Self {
        DmrReg {
            main: value,
            shadow: value,
        }
    }

    /// Reads the register, comparing the copies. `Err` carries the two
    /// disagreeing values (detection only — DMR cannot tell which copy is
    /// correct; that is exactly why UnSync needs the redundant *core* for
    /// recovery).
    #[inline]
    pub fn load(self) -> Result<u64, (u64, u64)> {
        if self.main == self.shadow {
            Ok(self.main)
        } else {
            Err((self.main, self.shadow))
        }
    }

    /// Whether the copies currently agree.
    #[inline]
    pub fn check(self) -> bool {
        self.main == self.shadow
    }

    /// Raw value of the primary copy (fault-injection plumbing).
    #[inline]
    pub fn raw(self) -> u64 {
        self.main
    }

    /// Flips bit `bit` of the primary copy — a strike on one flop.
    #[inline]
    pub fn flip_main_bit(&mut self, bit: u32) {
        assert!(bit < 64);
        self.main ^= 1 << bit;
    }

    /// Flips bit `bit` of the shadow copy.
    #[inline]
    pub fn flip_shadow_bit(&mut self, bit: u32) {
        assert!(bit < 64);
        self.shadow ^= 1 << bit;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dmr_clean_read() {
        let r = DmrReg::store(0xabcd);
        assert!(r.check());
        assert_eq!(r.load(), Ok(0xabcd));
    }

    #[test]
    fn dmr_detects_main_strike() {
        let mut r = DmrReg::store(0);
        r.flip_main_bit(5);
        assert_eq!(r.load(), Err((32, 0)));
    }

    #[test]
    fn dmr_detects_shadow_strike() {
        let mut r = DmrReg::store(0);
        r.flip_shadow_bit(5);
        assert!(!r.check());
    }

    #[test]
    fn dmr_misses_identical_double_strike() {
        // The (physically implausible) blind spot: the same bit flipped in
        // both copies in the same window.
        let mut r = DmrReg::store(7);
        r.flip_main_bit(3);
        r.flip_shadow_bit(3);
        assert!(r.check());
    }

    proptest! {
        #[test]
        fn prop_dmr_single_flip_always_detected(value: u64, bit in 0u32..64, which: bool) {
            let mut r = DmrReg::store(value);
            if which { r.flip_main_bit(bit) } else { r.flip_shadow_bit(bit) }
            prop_assert!(!r.check());
        }
    }
}
