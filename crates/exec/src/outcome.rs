//! The outcome counters every redundancy scheme shares.

use serde::{Deserialize, Serialize};

/// Counters common to every redundancy scheme's outcome.
///
/// Every run's [`crate::RunResult`] carries one as its `out` field and
/// `Deref`s to it, so `ipc()` / `correct()` exist exactly once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutcomeCore {
    /// Committed (for rollback schemes: verified) instructions.
    pub committed: u64,
    /// Total cycles — the slowest replica's last commit, unless the
    /// policy substitutes its own clock (lockstep's locked clock).
    pub cycles: u64,
    /// Errors detected (hardware blocks, fingerprint mismatches, …).
    pub detections: u64,
    /// Recoveries performed (always-forward copies, rollbacks, …).
    pub recoveries: u64,
    /// Total cycles spent stalled in recovery.
    pub recovery_stall_cycles: u64,
    /// Events the scheme could not recover from (no clean replica, or
    /// divergent architectural state rollback cannot repair).
    pub unrecoverable: u64,
    /// Faults that escaped detection entirely.
    pub silent_faults: u64,
    /// Whether the final committed memory image matches the fault-free
    /// golden run bit for bit.
    pub memory_matches_golden: bool,
}

impl OutcomeCore {
    /// Instructions per cycle (committed work over the scheme's clock).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// True if execution was fully correct: nothing escaped silently,
    /// nothing was abandoned, and memory matches the golden image.
    pub fn correct(&self) -> bool {
        self.memory_matches_golden && self.silent_faults == 0 && self.unrecoverable == 0
    }
}
