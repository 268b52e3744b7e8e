//! Indexed pending-store tracking for the driver's hot path.
//!
//! [`PendingStores`] keeps the stores a lane has executed but not yet
//! architecturally committed. The driver touches it on **every** load
//! (store-to-load forwarding), every store (record), and — for
//! non-rollback schemes — every instruction (commit-matched drain), so
//! each operation must stop scanning the whole set (see
//! ARCHITECTURE.md, "The per-instruction hot path"):
//!
//! * entries are kept in push order, which is ascending `seq`, so
//!   per-`seq` lookup/removal is a binary search;
//! * a per-replica last-writer index (`addr → seq` stack, lazily
//!   validated against the entries) answers forwarding queries without
//!   the old whole-set `.rev().find()`;
//! * a matched-entry count lets the per-instruction commit drain return
//!   in O(1) when nothing is ready, and drain the usual
//!   oldest-stores-first prefix without a full `retain`.
//!
//! Stale index entries (left behind by removals) are popped on the next
//! lookup that hits them; their memory is bounded by the stores of one
//! segment attempt and reclaimed by [`PendingStores::clear`].

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// One store executed but not yet architecturally committed, tracked
/// per replica pair. `addr`/`value`/`present` are indexed by replica
/// (the driver tracks pending stores only for two-replica lanes).
#[derive(Debug, Clone, Copy)]
pub struct PendingStore {
    /// The store instruction's sequence number.
    pub(crate) seq: u64,
    /// Word-aligned effective address per replica (they differ only
    /// under address-translation faults).
    pub addr: [u64; 2],
    /// Store value per replica.
    pub value: [u64; 2],
    /// Which replicas have produced their copy.
    pub(crate) present: [bool; 2],
}

impl PendingStore {
    #[inline]
    fn matched(&self) -> bool {
        self.present[0] && self.present[1]
    }
}

/// A multiplicative hasher for word-aligned addresses — `HashMap`'s
/// default SipHash is overkill for attacker-free `u64` keys on the
/// per-load path.
#[derive(Debug, Clone, Default)]
pub(crate) struct AddrHasher {
    hash: u64,
}

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.hash = (self.hash.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

type AddrMap<V> = HashMap<u64, V, BuildHasherDefault<AddrHasher>>;

/// The set of executed-but-uncommitted stores of one lane, with the
/// per-operation indexes described in the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct PendingStores {
    /// Push order — ascending `seq` (the driver records stores in
    /// program order within an attempt).
    entries: Vec<PendingStore>,
    /// Per-replica last-writer stacks: `addr → seqs that stored there`,
    /// oldest first. May hold seqs whose entry is gone (lazily popped).
    writers: [AddrMap<Vec<u64>>; 2],
    /// How many entries currently have both copies present.
    matched: usize,
}

impl PendingStores {
    /// An empty set.
    pub(crate) fn new() -> Self {
        PendingStores::default()
    }

    /// Number of pending entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Drops every entry and both indexes (segment-retry reset).
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        for w in &mut self.writers {
            w.clear();
        }
        self.matched = 0;
    }

    /// Removes and returns every entry in seq order (segment commit).
    pub(crate) fn drain(&mut self) -> std::vec::Drain<'_, PendingStore> {
        for w in &mut self.writers {
            w.clear();
        }
        self.matched = 0;
        self.entries.drain(..)
    }

    #[inline]
    fn position(&self, seq: u64) -> Option<usize> {
        self.entries.binary_search_by_key(&seq, |p| p.seq).ok()
    }

    /// Records replica `core`'s copy of store `seq` to word-aligned
    /// `addr`. First copy creates the entry; the second completes it.
    pub(crate) fn record(&mut self, core: usize, seq: u64, addr: u64, value: u64) {
        debug_assert_eq!(addr & 7, 0, "record takes word-aligned addresses");
        match self.position(seq) {
            Some(i) => {
                let p = &mut self.entries[i];
                debug_assert!(!p.present[core], "one copy per replica per seq");
                p.addr[core] = addr;
                p.value[core] = value;
                p.present[core] = true;
                if p.matched() {
                    self.matched += 1;
                }
            }
            None => {
                debug_assert!(
                    self.entries.last().is_none_or(|p| p.seq < seq),
                    "stores must be recorded in ascending seq order"
                );
                let mut p = PendingStore {
                    seq,
                    addr: [addr; 2],
                    value: [value; 2],
                    present: [false; 2],
                };
                p.present[core] = true;
                self.entries.push(p);
            }
        }
        self.writers[core].entry(addr).or_default().push(seq);
    }

    /// Store-to-load forwarding: replica `core`'s youngest pending
    /// store to word-aligned `addr`, if any. Pops stale index entries
    /// (whose store has since been committed or dropped) as it goes.
    pub(crate) fn forward(&mut self, core: usize, addr: u64) -> Option<u64> {
        let stack = self.writers[core].get_mut(&addr)?;
        while let Some(&seq) = stack.last() {
            if let Ok(i) = self.entries.binary_search_by_key(&seq, |p| p.seq) {
                let p = &self.entries[i];
                debug_assert!(p.present[core] && p.addr[core] == addr, "index out of sync");
                return Some(p.value[core]);
            }
            stack.pop();
        }
        None
    }

    /// Removes and returns the entry for `seq` if both copies are
    /// present (the both-complete drain rule).
    pub fn take_matched(&mut self, seq: u64) -> Option<PendingStore> {
        let i = self.position(seq)?;
        if !self.entries[i].matched() {
            return None;
        }
        self.matched -= 1;
        Some(self.entries.remove(i))
    }

    /// Calls `commit` on (addr, value) of replica 0's copy of every
    /// matched entry and drops those entries. O(1) when nothing is
    /// matched; otherwise drains the matched prefix (the common case —
    /// oldest stores complete first) before falling back to a sweep.
    pub(crate) fn commit_matched(&mut self, mut commit: impl FnMut(u64, u64)) {
        if self.matched == 0 {
            return;
        }
        let prefix = self
            .entries
            .iter()
            .take_while(|p| p.matched())
            .count()
            .min(self.matched);
        for p in self.entries.drain(..prefix) {
            commit(p.addr[0], p.value[0]);
            self.matched -= 1;
        }
        if self.matched > 0 {
            let matched = &mut self.matched;
            self.entries.retain(|p| {
                if p.matched() {
                    commit(p.addr[0], p.value[0]);
                    *matched -= 1;
                    false
                } else {
                    true
                }
            });
        }
        debug_assert_eq!(self.matched, 0);
    }

    /// Replica-recovery resync (the §III-A always-forward rule): every
    /// entry the `good` replica produced defines the pair — `bad`'s
    /// copy takes its value; entries only `bad` produced are dropped on
    /// `bad`'s side (the good replica will still produce them). Rebuilds
    /// `bad`'s last-writer index afterwards.
    pub fn sync_replica(&mut self, good: usize, bad: usize) {
        self.matched = 0;
        for p in &mut self.entries {
            if p.present[good] {
                p.value[bad] = p.value[good];
                p.present[bad] = true;
            } else if p.present[bad] {
                p.present[bad] = false;
            }
            if p.matched() {
                self.matched += 1;
            }
        }
        self.writers[bad].clear();
        for p in &self.entries {
            if p.present[bad] {
                self.writers[bad]
                    .entry(p.addr[bad])
                    .or_default()
                    .push(p.seq);
            }
        }
    }

    /// Mutable access to replica `core`'s present store values, in seq
    /// order (fault injection corrupts values in the LSQ). Values are
    /// not indexed, so mutation cannot desynchronize the lookups.
    pub fn values_mut(&mut self, core: usize) -> impl Iterator<Item = &mut u64> {
        self.entries
            .iter_mut()
            .filter(move |p| p.present[core])
            .map(move |p| &mut p.value[core])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(ps: &PendingStores, seq: u64) -> Option<&PendingStore> {
        ps.entries.iter().find(|p| p.seq == seq)
    }

    #[test]
    fn forwarding_returns_youngest_writer_per_replica() {
        let mut ps = PendingStores::new();
        ps.record(0, 1, 0x100, 11);
        ps.record(0, 3, 0x100, 33);
        ps.record(0, 5, 0x200, 55);
        assert_eq!(ps.forward(0, 0x100), Some(33));
        assert_eq!(ps.forward(0, 0x200), Some(55));
        assert_eq!(ps.forward(1, 0x100), None, "other replica saw nothing");
        assert_eq!(ps.forward(0, 0x300), None);
    }

    #[test]
    fn forwarding_skips_stale_index_entries() {
        let mut ps = PendingStores::new();
        ps.record(0, 1, 0x100, 11);
        ps.record(1, 1, 0x100, 11);
        ps.record(0, 2, 0x100, 22);
        assert!(ps.take_matched(1).is_some());
        // Seq 1 is gone; the stack must fall through to seq 2.
        assert_eq!(ps.forward(0, 0x100), Some(22));
        ps.record(1, 2, 0x100, 22);
        assert!(ps.take_matched(2).is_some());
        assert_eq!(ps.forward(0, 0x100), None);
    }

    #[test]
    fn commit_matched_drains_exactly_the_matched_entries() {
        let mut ps = PendingStores::new();
        ps.record(0, 1, 0x100, 1);
        ps.record(1, 1, 0x100, 1);
        ps.record(0, 2, 0x108, 2);
        ps.record(0, 3, 0x110, 3);
        ps.record(1, 3, 0x110, 3);
        let mut committed = Vec::new();
        ps.commit_matched(|a, v| committed.push((a, v)));
        assert_eq!(committed, vec![(0x100, 1), (0x110, 3)]);
        assert_eq!(ps.len(), 1);
        assert_eq!(entry(&ps, 2).map(|p| p.value[0]), Some(2));
        // Nothing matched: the fast path must not touch the survivor.
        ps.commit_matched(|_, _| panic!("nothing is matched"));
    }

    #[test]
    fn sync_replica_adopts_good_copies_and_drops_bad_orphans() {
        let mut ps = PendingStores::new();
        ps.record(0, 1, 0x100, 10); // good-only
        ps.record(1, 2, 0x108, 99); // bad-only
        ps.record(0, 3, 0x110, 30); // both
        ps.record(1, 3, 0x110, 31);
        ps.sync_replica(0, 1);
        assert_eq!(
            entry(&ps, 1).map(|p| (p.present[1], p.value[1])),
            Some((true, 10))
        );
        assert_eq!(entry(&ps, 2).map(|p| p.present[1]), Some(false));
        assert_eq!(entry(&ps, 3).map(|p| p.value[1]), Some(30));
        assert_eq!(ps.forward(1, 0x108), None, "orphan left the index");
        assert_eq!(ps.forward(1, 0x100), Some(10), "adopted copy is findable");
        let mut committed = Vec::new();
        ps.commit_matched(|a, v| committed.push((a, v)));
        assert_eq!(committed, vec![(0x100, 10), (0x110, 30)]);
    }

    #[test]
    fn clear_and_drain_reset_the_indexes() {
        let mut ps = PendingStores::new();
        ps.record(0, 1, 0x100, 1);
        ps.record(1, 1, 0x100, 1);
        assert_eq!(ps.drain().count(), 1);
        assert!(ps.entries.is_empty());
        assert_eq!(ps.forward(0, 0x100), None);
        ps.record(0, 2, 0x100, 2);
        ps.clear();
        assert_eq!(ps.forward(0, 0x100), None);
        ps.commit_matched(|_, _| panic!("empty"));
    }
}
