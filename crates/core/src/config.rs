//! UnSync configuration.

use serde::{Deserialize, Serialize};

/// Parameters of the UnSync machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UnsyncConfig {
    /// Communication-Buffer entries per core (paper §V: 10).
    pub cb_entries: usize,
    /// Cycles from a detection block firing to the EIH's RECOVERY signal
    /// stalling both cores (the "non-zero cycles" of Fig. 2).
    pub(crate) eih_latency: u32,
    /// Cycles to flush the erroneous core's pipeline (recovery step 2).
    pub(crate) flush_cycles: u32,
    /// Cycles from the strike to the detection block firing (parity is
    /// verified on the next read; DMR compares on the next cycle).
    pub(crate) detection_latency: u32,
}

impl Default for UnsyncConfig {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

impl UnsyncConfig {
    /// The paper's §V configuration: write-through L1, 10 CB entries.
    pub fn paper_baseline() -> Self {
        UnsyncConfig {
            cb_entries: 10,
            eih_latency: 4,
            flush_cycles: 8,
            detection_latency: 2,
        }
    }

    /// Same configuration with a different CB size (the Fig. 6 sweep; the
    /// paper labels sizes in bytes — entries hold one 8-byte word plus
    /// tag, so "2 KB" ≈ 256 entries).
    pub fn with_cb_entries(cb_entries: usize) -> Self {
        UnsyncConfig {
            cb_entries,
            ..Self::paper_baseline()
        }
    }

    /// Converts a Fig. 6 byte label to entries (8-byte data words).
    pub fn cb_entries_for_bytes(bytes: usize) -> usize {
        (bytes / 8).max(1)
    }

    /// Validates structural sanity.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.cb_entries == 0 {
            return Err("CB must have at least one entry".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_baseline_has_ten_cb_entries() {
        let c = UnsyncConfig::paper_baseline();
        assert_eq!(c.cb_entries, 10);
        c.validate().unwrap();
    }

    #[test]
    fn fig6_byte_labels_convert() {
        assert_eq!(UnsyncConfig::cb_entries_for_bytes(64), 8);
        assert_eq!(UnsyncConfig::cb_entries_for_bytes(2048), 256);
        assert_eq!(UnsyncConfig::cb_entries_for_bytes(4096), 512);
        assert_eq!(UnsyncConfig::cb_entries_for_bytes(1), 1);
    }

    #[test]
    fn zero_cb_rejected() {
        assert!(UnsyncConfig::with_cb_entries(0).validate().is_err());
    }
}
