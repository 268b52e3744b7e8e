//! Shared-bus occupancy model.
//!
//! The L1↔L2 data bus is the shared resource the UnSync Communication
//! Buffer drains over ("as and when the L1-L2 data bus is free", §III-A),
//! and bus contention is one of the two stall sources the paper's
//! simulator instruments. The model is a single-owner FIFO bus: a request
//! occupies the bus for a number of *beats* (cycles) and requests are
//! granted in arrival order.

use serde::{Deserialize, Serialize};

/// A time-multiplexed bus.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Bus {
    busy_until: u64,
}

impl Default for Bus {
    fn default() -> Self {
        Self::new()
    }
}

impl Bus {
    /// An idle bus.
    pub(crate) fn new() -> Self {
        Bus { busy_until: 0 }
    }

    /// True if the bus is free at `cycle`.
    pub fn is_free(&self, cycle: u64) -> bool {
        cycle >= self.busy_until
    }

    /// Requests `beats` cycles of bus ownership starting no earlier than
    /// `cycle`. Returns `(start, done)`: the transfer occupies
    /// `start..done`.
    pub(crate) fn acquire(&mut self, cycle: u64, beats: u32) -> (u64, u64) {
        let start = cycle.max(self.busy_until);
        let done = start + beats as u64;
        self.busy_until = done;
        (start, done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_transfer_starts_immediately() {
        let mut b = Bus::new();
        assert_eq!(b.acquire(10, 8), (10, 18));
    }

    #[test]
    fn back_to_back_requests_queue() {
        let mut b = Bus::new();
        b.acquire(0, 8);
        let (start, done) = b.acquire(3, 8);
        assert_eq!((start, done), (8, 16));
    }

    #[test]
    fn later_request_after_idle_gap() {
        let mut b = Bus::new();
        b.acquire(0, 4);
        assert!(b.is_free(99));
        let (start, _) = b.acquire(100, 4);
        assert_eq!(start, 100);
        assert!(!b.is_free(101));
    }

    #[test]
    fn zero_beat_request_is_a_noop_hold() {
        let mut b = Bus::new();
        let (s, d) = b.acquire(5, 0);
        assert_eq!(s, d);
        assert!(b.is_free(5));
    }
}
