//! Multi-seed statistics for the experiment harness.
//!
//! Every simulation is deterministic per seed; scientific claims should
//! still be made over several seeds. [`Summary`] aggregates a metric
//! across seeds into mean, standard deviation and a 95 % confidence
//! interval (normal approximation — adequate for the ≥5 seeds the
//! drivers use).

use serde::Serialize;

/// Mean / spread summary of one metric across seeds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1).
    pub stddev: f64,
    /// Half-width of the 95 % confidence interval.
    pub ci95: f64,
}

impl Summary {
    /// Summarizes a slice of samples.
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "no samples");
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let stddev = var.sqrt();
        let ci95 = 1.96 * stddev / (n as f64).sqrt();
        Summary {
            n,
            mean,
            stddev,
            ci95,
        }
    }

    /// `mean ± ci95` formatted for tables.
    pub fn display(&self) -> String {
        format!("{:.3} ± {:.3}", self.mean, self.ci95)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_constant_samples_has_zero_spread() {
        let s = Summary::of(&[2.0, 2.0, 2.0, 2.0]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.ci95, 0.0);
    }

    #[test]
    fn summary_matches_hand_computation() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.stddev - 1.5811388).abs() < 1e-6);
        assert!((s.ci95 - 1.96 * 1.5811388 / 5f64.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn single_sample_is_degenerate_but_defined() {
        let s = Summary::of(&[7.0]);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.ci95, 0.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_samples_panic() {
        let _ = Summary::of(&[]);
    }
}
