//! Per-core simulation statistics.

use serde::{Deserialize, Serialize};

/// Counters and aggregates produced by one core's run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CoreStats {
    /// Committed instructions.
    pub committed: u64,
    /// Cycle of the last commit (the run's cycle count).
    pub last_commit_cycle: u64,
    /// Cycles lost to externally injected stalls (error recovery).
    pub(crate) recovery_stall_cycles: u64,
    /// Number of recovery events absorbed.
    pub recoveries: u64,
    /// Sum of ROB occupancy sampled at each dispatch (for averages).
    pub rob_occupancy_sum: u64,
    /// Number of occupancy samples.
    pub rob_occupancy_samples: u64,
    /// Histogram of ROB occupancy at dispatch, in sixteenths of the ROB
    /// (bucket `i` covers `[i/16, (i+1)/16)` of capacity; the last bucket
    /// is a completely full ROB) — the distribution behind Fig. 5's
    /// occupancy argument.
    pub rob_occupancy_hist: [u64; 17],
}

impl CoreStats {
    /// Instructions per cycle over the whole run.
    pub(crate) fn ipc(&self) -> f64 {
        if self.last_commit_cycle == 0 {
            0.0
        } else {
            self.committed as f64 / self.last_commit_cycle as f64
        }
    }

    /// Mean ROB occupancy observed at dispatch.
    pub fn avg_rob_occupancy(&self) -> f64 {
        if self.rob_occupancy_samples == 0 {
            0.0
        } else {
            self.rob_occupancy_sum as f64 / self.rob_occupancy_samples as f64
        }
    }

    /// Runtime overhead of this run relative to a baseline run of the
    /// same trace: `cycles / baseline_cycles − 1`.
    pub fn overhead_vs(&self, baseline: &CoreStats) -> f64 {
        assert!(baseline.last_commit_cycle > 0, "baseline must have run");
        self.last_commit_cycle as f64 / baseline.last_commit_cycle as f64 - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_divides_commits_by_cycles() {
        let s = CoreStats {
            committed: 100,
            last_commit_cycle: 50,
            ..Default::default()
        };
        assert!((s.ipc() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_do_not_divide_by_zero() {
        let s = CoreStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.avg_rob_occupancy(), 0.0);
    }

    #[test]
    fn overhead_vs_baseline() {
        let base = CoreStats {
            committed: 100,
            last_commit_cycle: 100,
            ..Default::default()
        };
        let slow = CoreStats {
            committed: 100,
            last_commit_cycle: 120,
            ..Default::default()
        };
        assert!((slow.overhead_vs(&base) - 0.2).abs() < 1e-12);
        assert!((base.overhead_vs(&base)).abs() < 1e-12);
    }
}
