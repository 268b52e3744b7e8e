//! Self-contained deterministic random stream.
//!
//! Workload generation must be bit-reproducible across platforms and
//! library versions forever (the experiment harness records seeds in
//! EXPERIMENTS.md), so the generator owns its PRNG instead of relying on
//! `rand`'s unstable `SmallRng` algorithm. The stream is SplitMix64 — a
//! counter-based generator with excellent statistical quality for
//! simulation workloads and O(1) skippability.

use serde::{Deserialize, Serialize};
use unsync_isa::exec::splitmix64;

/// A deterministic stream of pseudo-random values.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct SplitMixStream {
    state: u64,
}

impl SplitMixStream {
    /// Creates a stream from a seed.
    pub(crate) fn new(seed: u64) -> Self {
        // Pre-whiten so that small seeds (0, 1, 2 …) give unrelated streams.
        SplitMixStream {
            state: splitmix64(seed ^ 0x6a09_e667_f3bc_c908),
        }
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.state)
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    pub(crate) fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiply-shift rejection-free mapping (tiny bias is irrelevant
        // for workload synthesis).
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub(crate) fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMixStream::new(42);
        let mut b = SplitMixStream::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMixStream::new(43);
        assert_ne!(SplitMixStream::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut s = SplitMixStream::new(7);
        for _ in 0..10_000 {
            let x = s.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound_and_covers_range() {
        let mut s = SplitMixStream::new(9);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            let v = s.below(8) as usize;
            assert!(v < 8);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&x| x), "all buckets hit");
    }

    #[test]
    fn chance_frequency_roughly_matches() {
        let mut s = SplitMixStream::new(11);
        let hits = (0..100_000).filter(|_| s.chance(0.3)).count() as f64 / 100_000.0;
        assert!((hits - 0.3).abs() < 0.01, "observed {hits}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn below_zero_bound_panics() {
        SplitMixStream::new(1).below(0);
    }
}
