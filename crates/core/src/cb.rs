//! The Communication Buffer pair.
//!
//! §III-A: "Data committed into the L1 cache, from each core of a
//! core-pair …, is first written into a Communication Buffer. From here,
//! one copy of the data is passed on, to be written-back in the protected
//! L2 cache." An entry leaves the CB pair only when **both** cores have
//! produced it ("the latest entry that has completed execution on both
//! the CB is selected") and the L1↔L2 bus is free; a full CB stalls its
//! core (§VI-B3, Fig. 6).
//!
//! Entries are word-granular and tagged with the producing instruction's
//! sequence number (the paper tags them "with its corresponding
//! instruction address").

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};
use unsync_fault::crc16_word;
use unsync_mem::MemSystem;

/// One CB entry on one side of the pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct CbEntry {
    /// Producing store's dynamic sequence number (the pairing tag).
    seq: u64,
    /// Write-through line address.
    line: u64,
    /// Commit cycle on this side.
    ready: u64,
    /// Completion cycle of the drain to L2 (`u64::MAX` until the partner
    /// entry arrives and the drain is scheduled).
    drain_done: u64,
    /// CRC-16 fingerprint over (seq, line), written at push time and
    /// re-verified before the entry may leave the pair (§III-B1: CB
    /// entries are fingerprint-protected, not merely compared).
    fp: u16,
}

/// The CRC-16 fingerprint a CB entry carries over its (seq, line) pair.
pub(crate) fn cb_fingerprint(seq: u64, line: u64) -> u16 {
    crc16_word(crc16_word(0xFFFF, seq), line)
}

impl CbEntry {
    fn sealed(seq: u64, line: u64, ready: u64) -> Self {
        CbEntry {
            seq,
            line,
            ready,
            drain_done: u64::MAX,
            fp: cb_fingerprint(seq, line),
        }
    }

    /// True when the stored fingerprint still matches the entry content.
    fn fp_ok(&self) -> bool {
        self.fp == cb_fingerprint(self.seq, self.line)
    }
}

/// The paired Communication Buffers of one UnSync core pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PairedCb {
    capacity: usize,
    /// First core id of the owning pair (drains ride this pair's path).
    core_base: usize,
    sides: [VecDeque<CbEntry>; 2],
    /// Commit cycles each side lost waiting for a slot.
    pub(crate) full_stall_cycles: [u64; 2],
    /// Entries drained to the L2 (one copy per matched pair).
    pub drained: u64,
    /// Pair completions rejected because a side's fingerprint no longer
    /// matched its content (a strike hit the CB entry in flight).
    pub fingerprint_mismatches: u64,
}

impl PairedCb {
    /// A CB pair with `capacity` entries per side, owned by the pair of
    /// cores 0 and 1.
    pub fn new(capacity: usize) -> Self {
        Self::for_cores(capacity, 0)
    }

    /// A CB pair owned by the pair whose first core is `core_base`
    /// (multi-pair systems: pair `p` owns cores `2p`/`2p+1` and drain
    /// path `p`).
    pub(crate) fn for_cores(capacity: usize, core_base: usize) -> Self {
        assert!(capacity > 0, "CB capacity must be positive");
        PairedCb {
            capacity,
            core_base,
            sides: [
                VecDeque::with_capacity(capacity),
                VecDeque::with_capacity(capacity),
            ],
            full_stall_cycles: [0; 2],
            drained: 0,
            fingerprint_mismatches: 0,
        }
    }

    /// Capacity per side.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Occupancy of `core`'s side at `cycle` (after retiring completed
    /// drains).
    pub fn occupancy(&mut self, core: usize, cycle: u64) -> usize {
        self.retire(core, cycle);
        self.sides[core].len()
    }

    /// Occupancy of `core`'s side at `cycle` without retiring anything:
    /// the entries behind those a retire at `cycle` would drop.
    pub(crate) fn resident(&self, core: usize, cycle: u64) -> usize {
        let side = &self.sides[core];
        side.len() - side.iter().take_while(|e| e.drain_done <= cycle).count()
    }

    fn retire(&mut self, core: usize, cycle: u64) {
        while self.sides[core]
            .front()
            .is_some_and(|e| e.drain_done <= cycle)
        {
            self.sides[core].pop_front();
        }
    }

    /// Pushes store `seq` (writing `line`) committed by `core` at `cycle`.
    ///
    /// Returns the cycle at which the push completes: `cycle` when the
    /// buffer has room, later when the core had to stall for its head
    /// entry to drain. When the push completes the pair for `seq`, the
    /// drain to L2 is scheduled over the shared bus at
    /// `max(readyA, readyB)` — the *slower* core gates eviction, which is
    /// exactly the Fig. 6 bottleneck.
    pub fn push(
        &mut self,
        core: usize,
        seq: u64,
        line: u64,
        cycle: u64,
        mem: &mut MemSystem,
    ) -> u64 {
        self.retire(core, cycle);
        let mut now = cycle;
        if self.sides[core].len() >= self.capacity {
            // Stall until this side's head entry completes its drain. The
            // head is always matched: the partner core has already pushed
            // every older store (the pair runner interleaves cores at
            // instruction granularity).
            let head = self.sides[core].front().expect("full side is non-empty");
            assert_ne!(
                head.drain_done,
                u64::MAX,
                "CB head unmatched while full — cores must be fed in step"
            );
            self.full_stall_cycles[core] += head.drain_done.saturating_sub(now);
            now = head.drain_done;
            self.retire(core, now);
        }
        self.sides[core].push_back(CbEntry::sealed(seq, line, now));

        // If the partner already holds this seq, the pair is complete:
        // schedule the single-copy drain (over the pair's CB→L2 path in
        // Fig. 1) — but only after both fingerprints check out. A struck
        // entry never compares silently equal; it pends here until
        // recovery overwrites it.
        let partner = core ^ 1;
        if let Some(pidx) = self.sides[partner].iter().position(|e| e.seq == seq) {
            let mine = *self.sides[core].back().expect("just pushed");
            let theirs = self.sides[partner][pidx];
            if !mine.fp_ok() || !theirs.fp_ok() || mine.fp != theirs.fp {
                self.fingerprint_mismatches += 1;
                return now;
            }
            let start = theirs.ready.max(now);
            let done = mem.drain_write(self.core_base, line, start);
            self.sides[partner][pidx].drain_done = done;
            self.sides[core].back_mut().expect("just pushed").drain_done = done;
            self.drained += 1;
        }
        now
    }

    /// Strike delivery: flips bit `bit % 64` of the line field of the
    /// `slot`-th in-flight entry on `core`'s side at `cycle`. Returns
    /// `false` (masked) when the slot is empty. An entry is strikeable
    /// for its whole residency — unmatched (pending fingerprint
    /// comparison) *or* matched-but-undrained (the line sits in CB SRAM
    /// until the bus drain at `drain_done` completes; the fingerprint
    /// is re-verified at bus grant, so a post-match flip is still
    /// caught, never silently evicted).
    pub fn corrupt_entry(&mut self, core: usize, slot: usize, bit: u64, cycle: u64) -> bool {
        self.retire(core, cycle);
        match self.sides[core].get_mut(slot) {
            Some(e) => {
                e.line ^= 1u64 << (bit % 64);
                true
            }
            _ => false,
        }
    }

    /// Strike delivery on the tag/fingerprint side: flips bit
    /// `bit % 16` of the stored fingerprint of the `slot`-th entry on
    /// `core`'s side at `cycle`. Same residency rule as
    /// [`PairedCb::corrupt_entry`].
    pub fn corrupt_fingerprint(&mut self, core: usize, slot: usize, bit: u64, cycle: u64) -> bool {
        self.retire(core, cycle);
        match self.sides[core].get_mut(slot) {
            Some(e) => {
                e.fp ^= 1u16 << (bit % 16);
                true
            }
            _ => false,
        }
    }

    /// RECOVERY step 5: the erroneous core's CB content is overwritten by
    /// the error-free core's. In-flight drains complete (step 4); both
    /// sides end up identical, with unmatched entries of the good core
    /// now matched and drainable.
    pub fn overwrite_from(&mut self, good: usize, cycle: u64, mem: &mut MemSystem) {
        let bad = good ^ 1;
        self.retire(good, cycle);
        self.sides[bad] = self.sides[good].clone();
        // Newly matched pairs (entries the bad core had not produced yet)
        // drain from `cycle` onward.
        let mut updates = Vec::new();
        for (i, e) in self.sides[good].iter().enumerate() {
            if e.drain_done == u64::MAX {
                let done = mem.drain_write(self.core_base, e.line, cycle.max(e.ready));
                updates.push((i, done));
                self.drained += 1;
            }
        }
        for (i, done) in updates {
            self.sides[good][i].drain_done = done;
            self.sides[bad][i].drain_done = done;
        }
    }

    /// True when both sides are empty at `cycle`.
    pub fn is_empty(&mut self, cycle: u64) -> bool {
        self.retire(0, cycle);
        self.retire(1, cycle);
        self.sides[0].is_empty() && self.sides[1].is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsync_mem::{HierarchyConfig, WritePolicy};

    fn mem() -> MemSystem {
        MemSystem::new(HierarchyConfig::table1(), 2, WritePolicy::WriteThrough)
    }

    #[test]
    fn entry_drains_only_after_both_cores_produce_it() {
        let mut cb = PairedCb::new(4);
        let mut m = mem();
        cb.push(0, 0, 0x10, 100, &mut m);
        assert_eq!(cb.drained, 0, "one-sided entry must wait");
        cb.push(1, 0, 0x10, 160, &mut m);
        assert_eq!(cb.drained, 1);
        // Drain gated by the slower core (ready 160). Note is_empty
        // retires destructively, so check the earlier time first.
        assert!(!cb.is_empty(159));
        assert!(cb.is_empty(200));
    }

    #[test]
    fn slower_core_gates_eviction() {
        let mut cb = PairedCb::new(2);
        let mut m = mem();
        // Core 0 runs far ahead: two stores at cycles 10, 20.
        cb.push(0, 0, 0x10, 10, &mut m);
        cb.push(0, 1, 0x20, 20, &mut m);
        // Core 0's third store finds its CB full; core 1 hasn't produced
        // anything, so nothing drained yet. Feed core 1 first (the pair
        // runner always interleaves), then core 0 can proceed.
        cb.push(1, 0, 0x10, 500, &mut m);
        cb.push(1, 1, 0x20, 510, &mut m);
        let t = cb.push(0, 2, 0x30, 30, &mut m);
        // Core 0 stalled until its head (seq 0, drained at ≥ 500) left.
        assert!(t >= 500, "push completed at {t}");
        assert_eq!(cb.full_stall_cycles, [t - 30, 0]);
    }

    #[test]
    fn matched_entries_free_slots_without_stall() {
        let mut cb = PairedCb::new(2);
        let mut m = mem();
        for seq in 0..8u64 {
            let c0 = cb.push(0, seq, 0x100 + seq, 10 * seq + 10, &mut m);
            let c1 = cb.push(1, seq, 0x100 + seq, 10 * seq + 12, &mut m);
            // Drains keep pace (1-beat word transfers): no stalls.
            assert_eq!(c0, 10 * seq + 10);
            assert_eq!(c1, 10 * seq + 12);
        }
        assert_eq!(cb.drained, 8);
        assert_eq!(cb.full_stall_cycles, [0, 0]);
    }

    #[test]
    fn overwrite_from_matches_and_drains_leftovers() {
        let mut cb = PairedCb::new(8);
        let mut m = mem();
        // Good core 0 produced three stores; bad core 1 only one.
        for seq in 0..3u64 {
            cb.push(0, seq, 0x10 + seq, 50 + seq, &mut m);
        }
        cb.push(1, 0, 0x10, 60, &mut m);
        assert_eq!(cb.drained, 1);
        cb.overwrite_from(0, 1_000, &mut m);
        assert_eq!(cb.drained, 3, "recovery drains the newly matched pairs");
        assert!(cb.is_empty(2_000));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = PairedCb::new(0);
    }
}
