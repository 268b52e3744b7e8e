//! CRC-16 fingerprint generation — Reunion's error-detection primitive.
//!
//! Reunion summarizes the architectural updates of a *fingerprint
//! interval* (FI) worth of instructions into a 16-bit cyclic-redundancy
//! checksum and compares it between the vocal and mute cores (§IV).
//! The paper models the generator after Albertengo & Sisto's two-stage
//! parallel CRC circuit — 238 gates (`unsync_hwcost::components::CRC16_GATES`,
//! the constant the area model reads) in the middle of the CHECK stage's
//! critical path.
//!
//! The implementation here is a real CRC-16/CCITT (polynomial `0x1021`):
//! a bitwise reference plus a table-driven fast path, cross-checked by
//! property tests. Whole 64-bit words fold by slicing-by-8: eight
//! 256-entry tables (4 KiB), table `k` holding a byte's CRC advanced by
//! `k` further zero bytes, so a word costs eight independent lookups
//! instead of a chain of eight dependent ones. The [`Fingerprint`]
//! accumulator folds each committed instruction's (pc, result) update
//! into the running checksum exactly the way the CHECK stage consumes
//! the commit stream.

use serde::{Deserialize, Serialize};

/// CRC-16/CCITT generator polynomial (x^16 + x^12 + x^5 + 1).
pub(crate) const CRC16_CCITT_POLY: u16 = 0x1021;

/// Initial CRC register value at the start of each fingerprint interval.
pub(crate) const CRC16_INIT: u16 = 0xffff;

const fn build_table() -> [u16; 256] {
    let mut table = [0u16; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u16) << 8;
        let mut b = 0;
        while b < 8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ CRC16_CCITT_POLY
            } else {
                crc << 1
            };
            b += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// The lookup tables. `CRC16_SLICES[0]` is the byte-at-a-time table
/// (what a two-stage parallel hardware generator computes
/// combinationally); `CRC16_SLICES[k][x]` is byte `x` folded in and then
/// `k` zero bytes after it, for the slicing-by-8 word fold.
static CRC16_SLICES: [[u16; 256]; 8] = build_slices();

const fn build_slices() -> [[u16; 256]; 8] {
    let base = build_table();
    let mut slices = [base; 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = slices[k - 1][i];
            slices[k][i] = (prev << 8) ^ base[(prev >> 8) as usize];
            i += 1;
        }
        k += 1;
    }
    slices
}

/// Folds a 64-bit word (big-endian byte order) into the register; equal
/// to eight bitwise CRC steps over its bytes.
#[inline]
pub fn crc16_word(crc: u16, word: u64) -> u16 {
    let b = word.to_be_bytes();
    let t = &CRC16_SLICES;
    t[7][(b[0] ^ (crc >> 8) as u8) as usize]
        ^ t[6][(b[1] ^ crc as u8) as usize]
        ^ t[5][b[2] as usize]
        ^ t[4][b[3] as usize]
        ^ t[3][b[4] as usize]
        ^ t[2][b[5] as usize]
        ^ t[1][b[6] as usize]
        ^ t[0][b[7] as usize]
}

/// The running fingerprint of one core's commit stream.
///
/// `update` is called once per committed instruction with the program
/// counter and the architectural result (register write-back value or
/// store data) — the "hash of the instruction and output-data" of §IV-1.
/// # Examples
///
/// ```
/// use unsync_fault::Fingerprint;
///
/// let mut vocal = Fingerprint::new();
/// let mut mute = Fingerprint::new();
/// for pc in (0..40).step_by(4) {
///     vocal.update(pc, pc * 3);
///     mute.update(pc, pc * 3);
/// }
/// assert_eq!(vocal.take(), mute.take()); // identical streams agree
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fingerprint {
    crc: u16,
    /// Instructions folded in since the last [`Fingerprint::take`].
    pub(crate) count: u32,
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    /// A fresh fingerprint at the interval-start value.
    pub fn new() -> Self {
        Fingerprint {
            crc: CRC16_INIT,
            count: 0,
        }
    }

    /// Folds one committed instruction into the fingerprint.
    #[inline]
    pub fn update(&mut self, pc: u64, result: u64) {
        self.crc = crc16_word(self.crc, pc);
        self.crc = crc16_word(self.crc, result);
        self.count += 1;
    }

    /// Current checksum value without ending the interval.
    #[inline]
    pub fn peek(&self) -> u16 {
        self.crc
    }

    /// Ends the interval: returns the checksum and resets the register for
    /// the next interval.
    pub fn take(&mut self) -> u16 {
        let out = self.crc;
        *self = Fingerprint::new();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use unsync_isa::exec::splitmix64;

    /// Bitwise reference CRC step: folds one byte into the register.
    fn crc16_byte(mut crc: u16, byte: u8) -> u16 {
        crc ^= (byte as u16) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ CRC16_CCITT_POLY
            } else {
                crc << 1
            };
        }
        crc
    }

    /// Known-answer test: CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
    #[test]
    fn known_answer_vector() {
        let mut crc = CRC16_INIT;
        for &b in b"123456789" {
            crc = crc16_byte(crc, b);
        }
        assert_eq!(crc, 0x29b1);
    }

    #[test]
    fn word_fold_equals_eight_byte_steps() {
        let bytewise = |crc, word: u64| word.to_be_bytes().into_iter().fold(crc, crc16_byte);
        let mut x = 0x5eed_u64;
        for i in 0..1_000_000u64 {
            x = splitmix64(x);
            let crc = match i % 4 {
                0 => 0x0000,
                1 => 0xffff,
                _ => (x >> 48) as u16,
            };
            let word = splitmix64(x ^ i);
            assert_eq!(
                crc16_word(crc, word),
                bytewise(crc, word),
                "{crc:#06x} {word:#x}"
            );
        }
    }

    #[test]
    fn identical_streams_produce_identical_fingerprints() {
        let mut a = Fingerprint::new();
        let mut b = Fingerprint::new();
        for i in 0..100u64 {
            a.update(i * 4, i.wrapping_mul(0x9e37));
            b.update(i * 4, i.wrapping_mul(0x9e37));
        }
        assert_eq!(a.peek(), b.peek());
        assert_eq!(a.count, 100);
    }

    #[test]
    fn single_result_corruption_changes_fingerprint() {
        let mut a = Fingerprint::new();
        let mut b = Fingerprint::new();
        for i in 0..10u64 {
            a.update(i * 4, i);
            // Instruction 5's result differs by one bit on core b.
            b.update(i * 4, if i == 5 { i ^ (1 << 37) } else { i });
        }
        assert_ne!(a.peek(), b.peek());
    }

    #[test]
    fn take_resets_for_next_interval() {
        let mut f = Fingerprint::new();
        f.update(0, 1);
        let first = f.take();
        assert_eq!(f.count, 0);
        assert_eq!(f.peek(), CRC16_INIT);
        f.update(0, 1);
        assert_eq!(f.take(), first, "identical intervals hash identically");
    }

    proptest! {
        #[test]
        fn prop_single_bit_flip_detected(pcs in proptest::collection::vec(any::<u64>(), 1..20),
                                         results in proptest::collection::vec(any::<u64>(), 1..20),
                                         which in any::<prop::sample::Index>(),
                                         bit in 0u32..64) {
            let n = pcs.len().min(results.len());
            let w = which.index(n);
            let mut clean = Fingerprint::new();
            let mut dirty = Fingerprint::new();
            for i in 0..n {
                clean.update(pcs[i], results[i]);
                let r = if i == w { results[i] ^ (1 << bit) } else { results[i] };
                dirty.update(pcs[i], r);
            }
            // CRC detects any single-bit error in the message stream.
            prop_assert_ne!(clean.peek(), dirty.peek());
        }

        #[test]
        fn prop_crc_is_a_function_of_the_stream(words in proptest::collection::vec(any::<u64>(), 0..32)) {
            let mut a = CRC16_INIT;
            let mut b = CRC16_INIT;
            for &w in &words {
                a = crc16_word(a, w);
                b = crc16_word(b, w);
            }
            prop_assert_eq!(a, b);
        }
    }
}
