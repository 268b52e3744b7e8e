//! Property test: the set-associative cache agrees with a brute-force
//! reference model (per-set LRU lists) on hit/miss decisions and
//! evictions for arbitrary access sequences.

use proptest::prelude::*;
use unsync_mem::{AccessKind, Cache, CacheConfig, WritePolicy};

/// Brute-force reference: per set, a most-recent-first list of tags.
struct RefCache {
    cfg: CacheConfig,
    sets: Vec<Vec<u64>>, // MRU first
}

impl RefCache {
    fn new(cfg: CacheConfig) -> Self {
        RefCache {
            sets: vec![Vec::new(); cfg.num_sets() as usize],
            cfg,
        }
    }

    /// Returns (hit, evicted line address).
    fn access(&mut self, addr: u64) -> (bool, Option<u64>) {
        let set = self.cfg.set_index(addr) as usize;
        let tag = self.cfg.tag(addr);
        let list = &mut self.sets[set];
        if let Some(pos) = list.iter().position(|&t| t == tag) {
            list.remove(pos);
            list.insert(0, tag);
            return (true, None);
        }
        list.insert(0, tag);
        let evicted = if list.len() > self.cfg.assoc as usize {
            let victim = list.pop().expect("overfull");
            Some(victim * self.cfg.num_sets() + set as u64)
        } else {
            None
        };
        (false, evicted)
    }
}

fn tiny_cfg() -> CacheConfig {
    // 8 sets × 2 ways × 64-byte lines: small enough that random addresses
    // collide constantly.
    CacheConfig {
        size_bytes: 1024,
        assoc: 2,
        line_bytes: 64,
        hit_latency: 1,
        mshrs: 4,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn cache_matches_reference_model(
        addrs in proptest::collection::vec(0u64..(1 << 14), 1..600),
        writes in proptest::collection::vec(any::<bool>(), 1..600),
    ) {
        let mut cache = Cache::new(tiny_cfg(), WritePolicy::WriteThrough);
        let mut reference = RefCache::new(tiny_cfg());
        for (i, &addr) in addrs.iter().enumerate() {
            let kind = if writes[i % writes.len()] { AccessKind::Write } else { AccessKind::Read };
            let resp = cache.access(addr, kind);
            let (ref_hit, ref_evicted) = reference.access(addr);
            prop_assert_eq!(resp.hit, ref_hit, "access {} to {:#x}", i, addr);
            prop_assert_eq!(resp.evicted, ref_evicted, "access {} to {:#x}", i, addr);
        }
        // Aggregate stats agree with the replayed decisions.
        prop_assert_eq!(cache.stats().accesses(), addrs.len() as u64);
    }

    #[test]
    fn write_through_never_accumulates_dirt(
        addrs in proptest::collection::vec(0u64..(1 << 12), 1..300),
    ) {
        let mut cache = Cache::new(tiny_cfg(), WritePolicy::WriteThrough);
        for &addr in &addrs {
            let resp = cache.access(addr, AccessKind::Write);
            prop_assert!(resp.write_through.is_some());
            prop_assert!(!resp.evicted_dirty);
        }
        prop_assert_eq!(cache.dirty_lines(), 0);
    }

    #[test]
    fn write_back_dirt_is_conserved(
        addrs in proptest::collection::vec(0u64..(1 << 12), 1..300),
    ) {
        // dirty lines resident + write-backs performed == distinct lines written.
        let mut cache = Cache::new(tiny_cfg(), WritePolicy::WriteBack);
        let mut written = std::collections::BTreeSet::new();
        for &addr in &addrs {
            cache.access(addr, AccessKind::Write);
            written.insert(tiny_cfg().line_addr(addr));
        }
        // Each distinct dirty line is either still resident-dirty or was
        // written back at least once on eviction; re-dirtying after
        // refetch can only add write-backs.
        prop_assert!(
            cache.dirty_lines() as u64 + cache.stats().writebacks >= written.len() as u64
        );
    }
}
