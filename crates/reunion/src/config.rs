//! Reunion configuration.

use serde::{Deserialize, Serialize};

/// Parameters of the Reunion checking machinery.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReunionConfig {
    /// Fingerprint interval: instructions summarized per fingerprint
    /// (paper baseline: 10 — "the minimum indicated in \[8\]", §IV-3).
    pub fingerprint_interval: u32,
    /// Comparison latency: cycles to generate, transfer and compare a
    /// fingerprint between cores (§IV-3 assumes a minimum of 6 cycles on
    /// nominal buses; Fig. 5 sweeps 10–40).
    pub(crate) comparison_latency: u32,
    /// CHECK-stage buffer entries (paper: 17 at FI = 10 — the interval
    /// in flight plus the interval under comparison's margin).
    pub csb_entries: u32,
    /// Cycles to squash and refill the pipeline on a fingerprint
    /// mismatch, on top of re-executing the interval.
    pub(crate) rollback_penalty: u32,
    /// Extra cycles a serializing instruction costs beyond its own
    /// fingerprint verification: the vocal and mute cores must fully
    /// rendezvous (drain both pipelines, exchange confirmation) before
    /// the trap/barrier may proceed — the §IV-5 synchronization the
    /// paper identifies as Reunion's key performance issue.
    pub(crate) serialize_sync_penalty: u32,
}

impl Default for ReunionConfig {
    fn default() -> Self {
        // FI = 10 ("the minimum indicated in [8]"), 6-cycle comparison
        // round trip (§IV-3's nominal-bus assumption).
        Self::for_fi(10, 6)
    }
}

impl ReunionConfig {
    /// Builds the configuration for a given fingerprint interval and
    /// comparison latency, sizing the CSB by the paper's rule (FI = 10 ⇒
    /// 17 entries: the open interval plus a 7-entry margin covering the
    /// interval whose comparison is still in flight).
    pub fn for_fi(fingerprint_interval: u32, comparison_latency: u32) -> Self {
        assert!(
            fingerprint_interval >= 1,
            "fingerprint interval must be ≥ 1"
        );
        ReunionConfig {
            fingerprint_interval,
            comparison_latency,
            csb_entries: fingerprint_interval + 7,
            rollback_penalty: 12,
            serialize_sync_penalty: 40,
        }
    }

    /// The paper's Fig. 4 baseline: FI = 10 ("smaller the better for
    /// Reunion").
    pub fn paper_baseline() -> Self {
        Self::default()
    }

    /// Validates internal consistency (the CSB must be able to hold an
    /// entire open interval, or commit deadlocks in hardware).
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.fingerprint_interval == 0 {
            return Err("fingerprint interval must be ≥ 1".into());
        }
        if self.csb_entries <= self.fingerprint_interval {
            return Err(format!(
                "CSB ({} entries) must exceed the fingerprint interval ({})",
                self.csb_entries, self.fingerprint_interval
            ));
        }
        Ok(())
    }

    /// CSB capacity in bits (66-bit entries, §IV-3) — consumed by the
    /// hardware-cost model.
    pub fn csb_bits(&self) -> u32 {
        self.csb_entries * 66
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_baseline_matches_section_iv() {
        let c = ReunionConfig::paper_baseline();
        assert_eq!(c.fingerprint_interval, 10);
        assert_eq!(c.csb_entries, 17);
        assert_eq!(c.csb_bits(), 17 * 66); // the paper's 1122-bit buffer
        c.validate().unwrap();
    }

    #[test]
    fn csb_scales_with_fi() {
        let c = ReunionConfig::for_fi(50, 10);
        assert_eq!(c.csb_entries, 57);
        c.validate().unwrap();
    }

    #[test]
    fn undersized_csb_rejected() {
        let mut c = ReunionConfig::for_fi(10, 10);
        c.csb_entries = 10;
        assert!(c.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "≥ 1")]
    fn zero_fi_rejected() {
        let _ = ReunionConfig::for_fi(0, 10);
    }
}
