//! Hamming(72,64) SECDED — single-error correction, double-error detection.
//!
//! This is the ECC the paper assigns to the shared L2 cache in both
//! architectures and to the L1 in Reunion: 8 check bits per 64 data bits
//! ("8 check bits for every 64 bit data chunk", §VI-A1), with a
//! super-linear XOR-tree whose area/energy cost is what makes SECDED
//! ~22 % cache area against parity's <1 % (§III-B1). The *cost* lives in
//! `unsync-hwcost`; this module is the functional code itself.
//!
//! Layout: an extended Hamming code over a 72-bit codeword. Bit positions
//! `1..=71` hold data and Hamming check bits (check bits at power-of-two
//! positions 1, 2, 4, 8, 16, 32, 64); position `0` holds an overall
//! parity bit that upgrades single-error correction to double-error
//! detection.

use serde::{Deserialize, Serialize};

/// Number of data bits per codeword.
pub(crate) const DATA_BITS: u32 = 64;
/// Number of check bits per codeword (7 Hamming + 1 overall parity).
pub(crate) const CHECK_BITS: u32 = 8;
/// Total codeword width.
pub(crate) const CODEWORD_BITS: u32 = DATA_BITS + CHECK_BITS;

/// Result of decoding a possibly-corrupt codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SecdedOutcome {
    /// No error; the payload is the stored data.
    Clean(u64),
    /// Exactly one bit was flipped and has been corrected; payload is the
    /// corrected data and the codeword bit position that was repaired.
    Corrected {
        /// Corrected 64-bit data.
        data: u64,
        /// Codeword bit position (0–71) that was repaired.
        bit: u32,
    },
    /// Two bit flips detected — uncorrectable, data not trustworthy.
    DoubleError,
}

/// A 72-bit SECDED codeword.
///
/// # Examples
///
/// ```
/// use unsync_fault::{SecdedCodeword, SecdedOutcome};
///
/// let mut cw = SecdedCodeword::encode(0xdead_beef);
/// cw.flip_bit(17); // a particle strike
/// assert_eq!(cw.decode(), SecdedOutcome::Corrected { data: 0xdead_beef, bit: 17 });
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SecdedCodeword {
    bits: u128, // low 72 bits used
}

/// Returns true if codeword position `pos` (1..=71) is a Hamming check-bit
/// position (a power of two).
#[inline]
fn is_check_pos(pos: u32) -> bool {
    pos.is_power_of_two()
}

impl SecdedCodeword {
    /// Encodes 64 data bits into a 72-bit codeword.
    pub fn encode(data: u64) -> Self {
        let mut bits: u128 = 0;
        // Scatter data bits into non-power-of-two positions 3,5,6,7,9,…
        let mut d = 0u32;
        for pos in 1..CODEWORD_BITS {
            if !is_check_pos(pos) {
                if (data >> d) & 1 == 1 {
                    bits |= 1u128 << pos;
                }
                d += 1;
            }
        }
        debug_assert_eq!(d, DATA_BITS);
        // Hamming check bits: parity over positions whose index has the
        // corresponding bit set.
        for c in 0..7 {
            let mask_pos = 1u32 << c;
            let mut p = 0u32;
            for pos in 1..CODEWORD_BITS {
                if pos & mask_pos != 0 && (bits >> pos) & 1 == 1 {
                    p ^= 1;
                }
            }
            if p == 1 {
                bits |= 1u128 << mask_pos;
            }
        }
        // Overall parity at position 0: make total popcount even.
        if bits.count_ones() % 2 == 1 {
            bits |= 1;
        }
        SecdedCodeword { bits }
    }

    /// Decodes, correcting a single flipped bit and detecting double flips.
    pub fn decode(self) -> SecdedOutcome {
        let mut syndrome = 0u32;
        for pos in 1..CODEWORD_BITS {
            if (self.bits >> pos) & 1 == 1 {
                syndrome ^= pos;
            }
        }
        let overall_even = self.bits.count_ones().is_multiple_of(2);
        match (syndrome, overall_even) {
            (0, true) => SecdedOutcome::Clean(self.extract()),
            (0, false) => {
                // The overall parity bit itself was struck; data is intact.
                SecdedOutcome::Corrected {
                    data: self.extract(),
                    bit: 0,
                }
            }
            (s, false) if s < CODEWORD_BITS => {
                let fixed = SecdedCodeword {
                    bits: self.bits ^ (1u128 << s),
                };
                SecdedOutcome::Corrected {
                    data: fixed.extract(),
                    bit: s,
                }
            }
            // Non-zero syndrome with even overall parity ⇒ two flips.
            // A syndrome pointing past the codeword also means multi-bit.
            _ => SecdedOutcome::DoubleError,
        }
    }

    /// Flips codeword bit `bit` (0–71) — a particle strike on the array.
    pub fn flip_bit(&mut self, bit: u32) {
        assert!(bit < CODEWORD_BITS, "codeword bit {bit} out of range");
        self.bits ^= 1u128 << bit;
    }

    /// Gathers the 64 data bits back out of the codeword, ignoring check
    /// positions. Does *not* verify anything.
    fn extract(self) -> u64 {
        let mut data = 0u64;
        let mut d = 0u32;
        for pos in 1..CODEWORD_BITS {
            if !is_check_pos(pos) {
                if (self.bits >> pos) & 1 == 1 {
                    data |= 1u64 << d;
                }
                d += 1;
            }
        }
        data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn clean_round_trip() {
        for data in [
            0u64,
            1,
            u64::MAX,
            0xdead_beef_cafe_babe,
            0x5555_5555_5555_5555,
        ] {
            assert_eq!(
                SecdedCodeword::encode(data).decode(),
                SecdedOutcome::Clean(data)
            );
        }
    }

    #[test]
    fn corrects_every_single_bit_position() {
        let data = 0x0123_4567_89ab_cdef;
        for bit in 0..CODEWORD_BITS {
            let mut cw = SecdedCodeword::encode(data);
            cw.flip_bit(bit);
            match cw.decode() {
                SecdedOutcome::Corrected { data: d, bit: b } => {
                    assert_eq!(d, data, "data must be restored (flip at {bit})");
                    assert_eq!(b, bit, "must identify the struck bit");
                }
                other => panic!("flip at {bit} gave {other:?}"),
            }
        }
    }

    #[test]
    fn detects_every_double_flip_on_a_sample() {
        let data = 0xfeed_face_0000_ffff;
        for b1 in (0..CODEWORD_BITS).step_by(7) {
            for b2 in (0..CODEWORD_BITS).step_by(5) {
                if b1 == b2 {
                    continue;
                }
                let mut cw = SecdedCodeword::encode(data);
                cw.flip_bit(b1);
                cw.flip_bit(b2);
                assert_eq!(cw.decode(), SecdedOutcome::DoubleError, "flips {b1},{b2}");
            }
        }
    }

    #[test]
    fn codeword_uses_exactly_72_bits() {
        let cw = SecdedCodeword::encode(u64::MAX);
        assert_eq!(cw.bits >> CODEWORD_BITS, 0);
    }

    proptest! {
        #[test]
        fn prop_round_trip(data: u64) {
            prop_assert_eq!(SecdedCodeword::encode(data).decode(), SecdedOutcome::Clean(data));
        }

        #[test]
        fn prop_single_flip_corrected(data: u64, bit in 0u32..72) {
            let mut cw = SecdedCodeword::encode(data);
            cw.flip_bit(bit);
            let out = cw.decode();
            prop_assert!(matches!(out, SecdedOutcome::Corrected { data: d, .. } if d == data));
        }

        #[test]
        fn prop_double_flip_detected_not_miscorrected(
            data: u64,
            b1 in 0u32..72,
            b2 in 0u32..72,
        ) {
            prop_assume!(b1 != b2);
            let mut cw = SecdedCodeword::encode(data);
            cw.flip_bit(b1);
            cw.flip_bit(b2);
            prop_assert_eq!(cw.decode(), SecdedOutcome::DoubleError);
        }
    }
}
