//! Contended shared-L2 model: banks, per-bank occupancy, MSHR limit.
//!
//! The Table I hierarchy models the shared L2 as a flat lookup: any
//! number of cores can be serviced in the same cycle, so L2 pressure
//! only ever surfaces through DRAM latency and the per-core fill
//! buses. That is fine at 2 pairs (the paper's largest configuration)
//! and wrong at many-core scale, where the uncore — banked L2 arrays,
//! their ports, the miss machinery — is what actually saturates
//! (Cho et al., arXiv 1504.01381; FlexStep, arXiv 2503.13848).
//!
//! [`L2Contention`] adds the missing serialization point. The L2 is
//! split into [`L2ContentionConfig::banks`] banks by line address; each
//! bank is a FIFO-owned resource ([`crate::bus::Bus`]) that a request
//! occupies for [`L2ContentionConfig::bank_busy_beats`] cycles. Two
//! requests hitting the same bank serialize; the later one *stalls*
//! for the residual occupancy, and the stall is recorded as a
//! cycle-stamped [`L2ContentionEvent`] that the execution driver
//! re-emits into the requesting lane's trace-event stream (feeding the
//! metrics registry, recovery spans, and the dashboard like every
//! other event). [`L2ContentionConfig::mshrs`] additionally overrides
//! the shared L2 MSHR file's capacity, so miss-level parallelism can
//! be constrained independently of Table I.
//!
//! The model is **opt-in** ([`crate::MemSystem::enable_l2_contention`])
//! and inert by default: with it disabled — or enabled with
//! `bank_busy_beats == 0` and the Table I MSHR count — every access
//! completes at exactly the cycle the flat model reports, which is
//! what keeps all pre-existing golden snapshots byte-identical
//! (pinned by `tests/l2_contention.rs`).

use serde::{Deserialize, Serialize};

use crate::bus::Bus;

/// Knobs of the contended-L2 model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct L2ContentionConfig {
    /// Number of independently-ported L2 banks (line address modulo
    /// banks selects the bank). Must be at least 1.
    pub banks: u32,
    /// Cycles a request occupies its bank (tag + array access of one
    /// port). `0` makes banking inert — no request ever waits.
    pub bank_busy_beats: u32,
    /// Shared-L2 MSHR capacity (outstanding misses). Table I uses 20;
    /// smaller values throttle miss-level parallelism.
    pub mshrs: u32,
}

impl L2ContentionConfig {
    /// The many-core default: 8 banks, 4-cycle bank occupancy, Table
    /// I's 20 MSHRs.
    pub fn many_core() -> Self {
        L2ContentionConfig {
            banks: 8,
            bank_busy_beats: 4,
            mshrs: 20,
        }
    }

    /// A configuration that models **no** contention: banking inert
    /// (zero occupancy) and the Table I MSHR count. Enabling this must
    /// reproduce the flat model cycle-for-cycle.
    pub fn zero_contention() -> Self {
        L2ContentionConfig {
            banks: 1,
            bank_busy_beats: 0,
            mshrs: 20,
        }
    }
}

/// One recorded bank-conflict stall, attributable to the requesting
/// core: at `cycle` the request found its bank occupied and waited
/// `stall` cycles for the port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct L2ContentionEvent {
    /// Global core index of the requester.
    pub core: usize,
    /// Index of the contended bank (`line % banks`).
    pub bank: usize,
    /// Cycle at which the request arrived at the bank.
    pub cycle: u64,
    /// Cycles the request waited for the bank port.
    pub stall: u64,
}

/// The contended-L2 state: per-bank occupancy, conflict statistics,
/// and the pending event queue the driver drains into lane streams.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct L2Contention {
    cfg: L2ContentionConfig,
    banks: Vec<Bus>,
    events: Vec<L2ContentionEvent>,
    /// Requests that found their bank occupied.
    pub conflicts: u64,
    /// Total cycles requests spent waiting for bank ports.
    pub stall_cycles: u64,
    /// Total requests routed through the banks.
    pub requests: u64,
}

impl L2Contention {
    /// A contended L2 per `cfg`.
    ///
    /// # Panics
    /// Panics if `cfg.banks` or `cfg.mshrs` is zero.
    pub fn new(cfg: L2ContentionConfig) -> Self {
        assert!(cfg.banks > 0, "L2 must have at least one bank");
        assert!(cfg.mshrs > 0, "L2 MSHR capacity must be positive");
        L2Contention {
            cfg,
            banks: (0..cfg.banks).map(|_| Bus::new()).collect(),
            events: Vec::new(),
            conflicts: 0,
            stall_cycles: 0,
            requests: 0,
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &L2ContentionConfig {
        &self.cfg
    }

    /// Routes one request for `line` (a line address) arriving at
    /// `cycle` from `core` through its bank. Returns the bank-conflict
    /// stall in cycles (0 when the port was free); a non-zero stall is
    /// recorded as a pending [`L2ContentionEvent`].
    pub fn access(&mut self, core: usize, line: u64, cycle: u64) -> u64 {
        self.requests += 1;
        if self.cfg.bank_busy_beats == 0 {
            // Zero occupancy is the inert configuration: the port is
            // always free, so skip the bus — its FIFO high-water mark
            // would otherwise still serialize out-of-order arrivals
            // (requests are only *roughly* time-ordered across lanes).
            return 0;
        }
        let bank = (line % self.cfg.banks as u64) as usize;
        let (start, _) = self.banks[bank].acquire(cycle, self.cfg.bank_busy_beats);
        let stall = start - cycle;
        if stall > 0 {
            self.conflicts += 1;
            self.stall_cycles += stall;
            self.events.push(L2ContentionEvent {
                core,
                bank,
                cycle,
                stall,
            });
        }
        stall
    }

    /// Per-bank occupancy statistics (index < `cfg.banks`).
    pub fn bank(&self, index: usize) -> &Bus {
        &self.banks[index]
    }

    /// The pending conflict events, drained by the caller (the
    /// execution driver re-emits them into the requesting lane's
    /// trace-event stream after each scheduled step).
    pub(crate) fn events_mut(&mut self) -> &mut Vec<L2ContentionEvent> {
        &mut self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_bank_requests_serialize() {
        let mut c = L2Contention::new(L2ContentionConfig {
            banks: 4,
            bank_busy_beats: 10,
            mshrs: 20,
        });
        // Lines 0 and 4 share bank 0; line 1 rides bank 1.
        assert_eq!(c.access(0, 0, 100), 0);
        assert_eq!(c.access(1, 4, 100), 10, "bank 0 busy until 110");
        assert_eq!(c.access(2, 1, 100), 0, "bank 1 free");
        assert_eq!(c.conflicts, 1);
        assert_eq!(c.stall_cycles, 10);
        assert_eq!(c.requests, 3);
    }

    #[test]
    fn conflicts_record_cycle_stamped_events() {
        let mut c = L2Contention::new(L2ContentionConfig {
            banks: 1,
            bank_busy_beats: 5,
            mshrs: 20,
        });
        c.access(0, 7, 50);
        c.access(3, 9, 52);
        let evs = std::mem::take(c.events_mut());
        assert_eq!(
            evs,
            vec![L2ContentionEvent {
                core: 3,
                bank: 0,
                cycle: 52,
                stall: 3
            }]
        );
        assert!(c.events_mut().is_empty(), "drained");
    }

    #[test]
    fn zero_busy_beats_never_stall() {
        let mut c = L2Contention::new(L2ContentionConfig::zero_contention());
        for i in 0..100 {
            assert_eq!(c.access(0, i, 10), 0);
        }
        assert_eq!(c.conflicts, 0);
        assert!(c.events_mut().is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_rejected() {
        let _ = L2Contention::new(L2ContentionConfig {
            banks: 0,
            bank_busy_beats: 1,
            mshrs: 20,
        });
    }
}
