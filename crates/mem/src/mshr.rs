//! Miss-status holding registers.
//!
//! MSHRs bound the number of outstanding misses a cache can sustain
//! (Table I: 10 for L1, 20 for L2). A miss to a line that already has an
//! MSHR coalesces onto it; when the file is full the access must wait for
//! the earliest completion — this is one of the two stall sources the
//! paper instruments ("the stalls caused when the CB is full and the bus
//! is busy", §V).

use serde::{Deserialize, Serialize};

/// One in-flight miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Entry {
    line_addr: u64,
    ready_cycle: u64,
}

/// Outcome of asking the MSHR file to track a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum MshrOutcome {
    /// A new MSHR was allocated; the miss completes at the given cycle.
    Allocated {
        /// Completion cycle of the newly tracked miss.
        ready_cycle: u64,
    },
    /// The line already had an MSHR; this access piggybacks on it.
    Coalesced {
        /// Completion cycle of the existing miss.
        ready_cycle: u64,
    },
    /// The file was full; the caller had to wait until `freed_at` for a
    /// slot, and the miss completes at `ready_cycle`.
    Stalled {
        /// Cycle at which a slot became free.
        freed_at: u64,
        /// Completion cycle of the miss once finally issued.
        ready_cycle: u64,
    },
}

impl MshrOutcome {
    /// Completion cycle of the miss regardless of how it was tracked.
    pub(crate) fn ready_cycle(self) -> u64 {
        match self {
            MshrOutcome::Allocated { ready_cycle }
            | MshrOutcome::Coalesced { ready_cycle }
            | MshrOutcome::Stalled { ready_cycle, .. } => ready_cycle,
        }
    }

    /// Whether the access had to stall for a free MSHR.
    pub(crate) fn stalled(self) -> bool {
        matches!(self, MshrOutcome::Stalled { .. })
    }
}

/// A file of MSHRs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct MshrFile {
    capacity: usize,
    entries: Vec<Entry>,
}

impl MshrFile {
    /// The number of registers in the file.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// A file with `capacity` registers.
    pub(crate) fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "MSHR capacity must be positive");
        MshrFile {
            capacity: capacity as usize,
            entries: Vec::with_capacity(capacity as usize),
        }
    }

    /// Drops entries that completed at or before `cycle`.
    pub(crate) fn retire(&mut self, cycle: u64) {
        self.entries.retain(|e| e.ready_cycle > cycle);
    }

    /// Tracks a miss to `line_addr` observed at `cycle` whose fill takes
    /// `fill_latency` cycles once issued.
    pub(crate) fn track(&mut self, line_addr: u64, cycle: u64, fill_latency: u64) -> MshrOutcome {
        self.retire(cycle);
        if let Some(e) = self.entries.iter().find(|e| e.line_addr == line_addr) {
            return MshrOutcome::Coalesced {
                ready_cycle: e.ready_cycle,
            };
        }
        if self.entries.len() < self.capacity {
            let ready_cycle = cycle + fill_latency;
            self.entries.push(Entry {
                line_addr,
                ready_cycle,
            });
            return MshrOutcome::Allocated { ready_cycle };
        }
        // Full: wait for the earliest completion, then allocate.
        let freed_at = self
            .entries
            .iter()
            .map(|e| e.ready_cycle)
            .min()
            .expect("file is non-empty");
        self.retire(freed_at);
        let ready_cycle = freed_at + fill_latency;
        self.entries.push(Entry {
            line_addr,
            ready_cycle,
        });
        MshrOutcome::Stalled {
            freed_at,
            ready_cycle,
        }
    }

    /// Number of misses still outstanding at `cycle`. A read-only probe:
    /// completed entries stay until the next access retires them, so
    /// probing never changes what a later access at an earlier cycle
    /// sees.
    pub(crate) fn outstanding(&self, cycle: u64) -> usize {
        self.entries
            .iter()
            .filter(|e| e.ready_cycle > cycle)
            .count()
    }

    /// If a fill for `line_addr` is still in flight at `cycle`, returns
    /// the cycle it completes. Used for *hit-under-fill*: the tag array is
    /// updated at miss time, so a subsequent "hit" on the same line must
    /// still wait for the data to arrive.
    pub(crate) fn pending_ready(&mut self, line_addr: u64, cycle: u64) -> Option<u64> {
        self.retire(cycle);
        self.entries
            .iter()
            .find(|e| e.line_addr == line_addr)
            .map(|e| e.ready_cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_until_full_then_stalls() {
        let mut m = MshrFile::new(2);
        assert!(matches!(
            m.track(1, 0, 100),
            MshrOutcome::Allocated { ready_cycle: 100 }
        ));
        assert!(matches!(
            m.track(2, 0, 100),
            MshrOutcome::Allocated { ready_cycle: 100 }
        ));
        match m.track(3, 0, 100) {
            MshrOutcome::Stalled {
                freed_at,
                ready_cycle,
            } => {
                assert_eq!(freed_at, 100);
                assert_eq!(ready_cycle, 200);
            }
            o => panic!("expected stall, got {o:?}"),
        }
    }

    #[test]
    fn coalesces_same_line() {
        let mut m = MshrFile::new(4);
        let first = m.track(7, 0, 50).ready_cycle();
        match m.track(7, 10, 50) {
            MshrOutcome::Coalesced { ready_cycle } => assert_eq!(ready_cycle, first),
            o => panic!("expected coalesce, got {o:?}"),
        }
        assert_eq!(m.outstanding(10), 1, "coalescing allocates no entry");
    }

    #[test]
    fn outstanding_probe_retires_nothing() {
        let mut m = MshrFile::new(2);
        m.track(1, 0, 10);
        assert_eq!(m.outstanding(20), 0);
        // A later access at an earlier cycle still finds the fill in
        // flight: the probe left it in place.
        assert!(matches!(
            m.track(1, 5, 10),
            MshrOutcome::Coalesced { ready_cycle: 10 }
        ));
    }

    #[test]
    fn retire_frees_slots() {
        let mut m = MshrFile::new(1);
        m.track(1, 0, 10);
        assert_eq!(m.outstanding(5), 1);
        assert_eq!(m.outstanding(10), 0);
        // Slot free again: new allocation, no stall.
        assert!(matches!(m.track(2, 11, 10), MshrOutcome::Allocated { .. }));
    }

    #[test]
    fn stall_accounts_for_wait_time() {
        let mut m = MshrFile::new(1);
        m.track(1, 0, 100);
        let o = m.track(2, 1, 100);
        assert!(o.stalled());
        assert_eq!(o.ready_cycle(), 200, "wait to 100, then 100-cycle fill");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = MshrFile::new(0);
    }
}
