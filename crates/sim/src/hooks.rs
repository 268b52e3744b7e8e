//! Architecture extension points.
//!
//! The redundancy schemes modify a small, well-defined set of core
//! behaviours; everything else is the shared baseline pipeline. The
//! [`CoreHooks`] trait names those extension points:
//!
//! | hook | baseline | Reunion | UnSync |
//! |---|---|---|---|
//! | `dispatch_gate` | — | blocked while a serializing instruction awaits fingerprint verification | — |
//! | `commit_gate` | — | blocking instructions wait for verification | — |
//! | `rob_release` | at commit | at fingerprint verification (CHECK stage holds the entry) | at commit |
//! | `store_committed` | FIFO write buffer → L2 | CSB then write buffer | Communication Buffer (both-cores rule) |
//! | `serialize_release` | pipeline drain | drain **and** verify the fingerprint containing it | pipeline drain |

use unsync_isa::Inst;
use unsync_mem::MemSystem;

use std::collections::VecDeque;

/// When an instruction's ROB entry will be recycled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RobRelease {
    /// Released at a known cycle.
    At(u64),
    /// Not yet known (Reunion: the entry is held until its fingerprint
    /// interval is verified, which closes only after younger instructions
    /// commit). The engine will call [`CoreHooks::resolve_rob_release`]
    /// with the carried sequence number when the window entry is
    /// consumed — guaranteed ≥ `rob_size` instructions later, by which
    /// point the interval has long closed.
    Pending(u64),
}

/// Extension points the redundancy architectures implement.
///
/// All cycle-valued hooks receive the engine's proposed cycle and return a
/// possibly later one; returning the input leaves baseline behaviour.
pub trait CoreHooks {
    /// May delay an instruction's dispatch (rename/ROB insertion).
    fn dispatch_gate(&mut self, _inst: &Inst, cycle: u64) -> u64 {
        cycle
    }

    /// May delay an instruction's commit.
    fn commit_gate(&mut self, _inst: &Inst, ready: u64) -> u64 {
        ready
    }

    /// When the instruction's ROB entry is recycled (≥ its commit cycle).
    /// Reunion returns [`RobRelease::Pending`] and later resolves it to
    /// the fingerprint-verification time, which is how CHECK-stage
    /// residency turns into ROB pressure (§IV-5).
    ///
    /// Releases must keep the ROB window sorted, because the engine
    /// counts its in-flight entries with a cursor over the released
    /// prefix: an `At` release is never earlier than an older entry's
    /// `At` (commit is monotone, so `At(commit + k)` with non-decreasing
    /// `k` qualifies), and no `At` follows a `Pending` inside one ROB
    /// window. Debug builds assert both at every ROB insertion.
    fn rob_release(&mut self, _inst: &Inst, commit: u64) -> RobRelease {
        RobRelease::At(commit)
    }

    /// Resolves a [`RobRelease::Pending`] entry to its actual release
    /// cycle. Only called for sequence numbers previously returned as
    /// pending.
    fn resolve_rob_release(&mut self, _seq: u64) -> u64 {
        unreachable!("resolve_rob_release called but no hook returned Pending")
    }

    /// A committed write-through store's line leaving the L1 at `cycle`.
    /// Returns the cycle commit may proceed (later iff the downstream
    /// buffer is full).
    fn store_committed(
        &mut self,
        _inst: &Inst,
        _line_addr: u64,
        cycle: u64,
        _mem: &mut MemSystem,
    ) -> u64 {
        cycle
    }

    /// Cycle at which dispatch may resume after a serializing instruction
    /// that committed at `commit`.
    fn serialize_release(&mut self, _inst: &Inst, commit: u64) -> u64 {
        commit + 1
    }

    /// Observation point: the instruction committed at `cycle`. Runs
    /// after the store path; receives the memory system so architectures
    /// can schedule deferred traffic (Reunion drains verified stores
    /// here).
    fn on_commit(&mut self, _inst: &Inst, _cycle: u64, _mem: &mut MemSystem) {}
}

/// No-op hooks: stores vanish after updating the L1. Useful for unit
/// tests isolating pipeline behaviour from the write path.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullHooks;

impl CoreHooks for NullHooks {}

/// The baseline write-through store path: a non-coalescing FIFO write
/// buffer draining to the L2 over the shared bus. This is what the
/// unprotected Table I CMP runs with, and what UnSync's Communication
/// Buffer replaces.
#[derive(Debug, Clone)]
pub struct BaselineHooks {
    capacity: usize,
    /// Completion cycles of in-flight drains, oldest first.
    drains: VecDeque<u64>,
}

impl BaselineHooks {
    /// A baseline store path with `capacity` write-buffer entries (the
    /// paper's UnSync configuration uses 10 CB entries; the baseline
    /// buffer matches so comparisons isolate the CB *protocol*, not its
    /// size).
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        BaselineHooks {
            capacity,
            drains: VecDeque::with_capacity(capacity),
        }
    }
}

impl Default for BaselineHooks {
    fn default() -> Self {
        Self::new(10)
    }
}

impl CoreHooks for BaselineHooks {
    fn store_committed(
        &mut self,
        _inst: &Inst,
        line_addr: u64,
        cycle: u64,
        mem: &mut MemSystem,
    ) -> u64 {
        let mut now = cycle;
        // Retire drains that finished.
        while self.drains.front().is_some_and(|&d| d <= now) {
            self.drains.pop_front();
        }
        // Full: the store (and hence commit) waits for the head drain.
        if self.drains.len() >= self.capacity {
            now = self.drains.pop_front().expect("capacity > 0");
            while self.drains.front().is_some_and(|&d| d <= now) {
                self.drains.pop_front();
            }
        }
        // Schedule the drain; core 0's L1↔L2 bus serializes transfers.
        let done = mem.drain_write(0, line_addr, now);
        self.drains.push_back(done);
        now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsync_isa::{Inst, MemInfo, OpClass, Reg};
    use unsync_mem::{HierarchyConfig, WritePolicy};

    fn store(seq: u64, addr: u64) -> Inst {
        Inst::build(OpClass::Store)
            .seq(seq)
            .src0(Reg::int(1))
            .mem(MemInfo::dword(addr))
            .finish()
    }

    fn mem() -> MemSystem {
        MemSystem::new(HierarchyConfig::table1(), 1, WritePolicy::WriteThrough)
    }

    #[test]
    fn stores_drain_without_stall_when_buffer_has_room() {
        let mut h = BaselineHooks::new(4);
        let mut m = mem();
        let inst = store(0, 0x100);
        assert_eq!(h.store_committed(&inst, 4, 10, &mut m), 10);
        assert_eq!(h.drains.len(), 1);
    }

    #[test]
    fn full_buffer_stalls_until_head_drains() {
        let mut h = BaselineHooks::new(2);
        let mut m = mem();
        // Three back-to-back stores at cycle 0: each drain takes 1 bus
        // beat, serialized: done at 1, 2, 3.
        let c0 = h.store_committed(&store(0, 0x000), 0, 0, &mut m);
        let c1 = h.store_committed(&store(1, 0x040), 1, 0, &mut m);
        assert_eq!((c0, c1), (0, 0));
        let c2 = h.store_committed(&store(2, 0x080), 2, 0, &mut m);
        assert_eq!(c2, 1, "waits for the first drain to free a slot");
    }

    #[test]
    fn drained_entries_free_slots_over_time() {
        let mut h = BaselineHooks::new(1);
        let mut m = mem();
        h.store_committed(&store(0, 0x000), 0, 0, &mut m);
        // Much later, the buffer is empty again: no stall.
        let c = h.store_committed(&store(1, 0x040), 1, 100, &mut m);
        assert_eq!(c, 100);
    }

    #[test]
    fn null_hooks_are_transparent() {
        let mut h = NullHooks;
        let mut m = mem();
        assert_eq!(h.store_committed(&store(0, 0), 0, 5, &mut m), 5);
        assert_eq!(h.dispatch_gate(&store(0, 0), 3), 3);
        assert_eq!(h.commit_gate(&store(0, 0), 3), 3);
        assert_eq!(h.rob_release(&store(0, 0), 3), RobRelease::At(3));
        assert_eq!(h.serialize_release(&store(0, 0), 3), 4);
    }
}
