//! Core configuration (defaults = Table I).

use serde::{Deserialize, Serialize};

/// Out-of-order core parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Instructions fetched per cycle (Table I: 4-wide).
    pub fetch_width: u32,
    /// Instructions dispatched (renamed + inserted) per cycle.
    pub dispatch_width: u32,
    /// Instructions committed per cycle.
    pub commit_width: u32,
    /// Front-end depth in cycles from fetch to dispatch.
    pub(crate) frontend_depth: u32,
    /// Fetch/decode buffer entries (front-end back-pressure: fetch of
    /// instruction `i` waits until instruction `i − fetch_buffer` has
    /// dispatched).
    pub(crate) fetch_buffer: u32,
    /// Issue-queue entries (Table I: 64).
    pub iq_size: u32,
    /// Re-order buffer entries.
    pub rob_size: u32,
    /// Load/store-queue entries.
    pub lsq_size: u32,
    /// Simple integer ALUs.
    pub(crate) int_alus: u32,
    /// Integer multiply/divide units.
    pub(crate) int_muldivs: u32,
    /// Floating-point units.
    pub(crate) fp_units: u32,
    /// Cache ports (loads/stores issued per cycle).
    pub(crate) mem_ports: u32,
    /// Cycles lost redirecting the front end on a misprediction.
    pub(crate) mispredict_penalty: u32,
    /// Core clock in GHz (Table I: 2 GHz) — used for FIT/energy
    /// conversions, not for timing (which is in cycles).
    pub clock_ghz: f64,
    /// Mean instructions between asynchronous core-local stall events
    /// (DRAM refresh, interrupt handling, arbiter hiccups). These events
    /// hit each core at *different* times, which is why the two cores of
    /// a redundant pair drift apart ("the difference in the execution
    /// speeds between the two cores", §III-B2) — the drift the CB
    /// absorbs (Fig. 6) and Reunion's per-interval comparison keeps
    /// re-paying. 0 disables.
    pub(crate) drift_period: u32,
    /// Maximum cycles one drift event stalls the core.
    pub drift_max: u32,
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::table1()
    }
}

impl CoreConfig {
    /// The paper's Table I core: Alpha-21264-class, 2 GHz, 4-wide
    /// out-of-order, 64-entry issue queue.
    pub fn table1() -> Self {
        CoreConfig {
            fetch_width: 4,
            dispatch_width: 4,
            commit_width: 4,
            frontend_depth: 3,
            fetch_buffer: 16,
            iq_size: 64,
            rob_size: 128,
            lsq_size: 64,
            int_alus: 4,
            int_muldivs: 1,
            fp_units: 2,
            mem_ports: 2,
            mispredict_penalty: 8,
            clock_ghz: 2.0,
            drift_period: 2_000,
            drift_max: 150,
        }
    }

    /// Validates structural sanity.
    pub(crate) fn validate(&self) -> Result<(), String> {
        for (label, v) in [
            ("fetch_width", self.fetch_width),
            ("dispatch_width", self.dispatch_width),
            ("commit_width", self.commit_width),
            ("fetch_buffer", self.fetch_buffer),
            ("iq_size", self.iq_size),
            ("rob_size", self.rob_size),
            ("lsq_size", self.lsq_size),
            ("int_alus", self.int_alus),
            ("int_muldivs", self.int_muldivs),
            ("fp_units", self.fp_units),
            ("mem_ports", self.mem_ports),
        ] {
            if v == 0 {
                return Err(format!("{label} must be positive"));
            }
        }
        if self.iq_size > self.rob_size {
            return Err("issue queue cannot exceed the ROB".into());
        }
        if !(self.clock_ghz.is_finite() && self.clock_ghz > 0.0) {
            return Err("clock must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_is_valid_and_matches_paper() {
        let c = CoreConfig::table1();
        c.validate().unwrap();
        assert_eq!(c.fetch_width, 4);
        assert_eq!(c.iq_size, 64);
        assert!((c.clock_ghz - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_width_rejected() {
        let mut c = CoreConfig::table1();
        c.commit_width = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn iq_larger_than_rob_rejected() {
        let mut c = CoreConfig::table1();
        c.iq_size = c.rob_size + 1;
        assert!(c.validate().is_err());
    }
}
