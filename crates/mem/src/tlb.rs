//! Translation lookaside buffers (Table I: 48-entry I-TLB, 64-entry
//! D-TLB, both 2-way).
//!
//! In UnSync the TLB arrays carry parity protection (§III-B1); here only
//! the timing behaviour lives — a hit is free, a miss adds the page-walk
//! penalty.

use serde::{Deserialize, Serialize};

use crate::config::TlbConfig;

#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct TlbWay {
    vpn: u64,
    valid: bool,
    lru: u32,
}

const INVALID: TlbWay = TlbWay {
    vpn: 0,
    valid: false,
    lru: u32::MAX,
};

/// A set-associative TLB.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Tlb {
    cfg: TlbConfig,
    sets: u64,
    ways: Vec<TlbWay>,
    /// Accesses.
    pub(crate) accesses: u64,
    /// Misses.
    pub(crate) misses: u64,
}

impl Tlb {
    /// An empty TLB.
    ///
    /// # Panics
    /// Panics if `entries` is not divisible by `assoc`.
    pub(crate) fn new(cfg: TlbConfig) -> Self {
        assert!(cfg.assoc > 0 && cfg.entries > 0);
        assert_eq!(cfg.entries % cfg.assoc, 0, "entries must divide into ways");
        let sets = (cfg.entries / cfg.assoc) as u64;
        Tlb {
            cfg,
            sets,
            ways: vec![INVALID; cfg.entries as usize],
            accesses: 0,
            misses: 0,
        }
    }

    /// Sets are modulo-indexed because the Table I I-TLB (48 entries,
    /// 2-way ⇒ 24 sets) is not a power-of-two geometry.
    fn set_index(&self, vpn: u64) -> u64 {
        vpn % self.sets
    }

    /// Translates the page containing `addr`. Returns the added latency:
    /// 0 on hit, `walk_latency` on miss.
    pub(crate) fn translate(&mut self, addr: u64) -> u32 {
        self.accesses += 1;
        let vpn = addr / self.cfg.page_bytes;
        let set = self.set_index(vpn);
        let assoc = self.cfg.assoc as usize;
        let base = set as usize * assoc;
        let ways = &mut self.ways[base..base + assoc];
        for w in ways.iter_mut() {
            if w.valid {
                w.lru = w.lru.saturating_add(1);
            }
        }
        if let Some(w) = ways.iter_mut().find(|w| w.valid && w.vpn == vpn) {
            w.lru = 0;
            return 0;
        }
        self.misses += 1;
        let victim = ways.iter_mut().max_by_key(|w| w.lru).expect("assoc >= 1");
        *victim = TlbWay {
            vpn,
            valid: true,
            lru: 0,
        };
        self.cfg.walk_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dtlb() -> Tlb {
        Tlb::new(TlbConfig::dtlb_table1())
    }

    #[test]
    fn miss_then_hit_on_same_page() {
        let mut t = dtlb();
        assert_eq!(t.translate(0x10_0000), 30);
        assert_eq!(t.translate(0x10_0008), 0, "same page");
        assert_eq!(t.translate(0x10_0000 + 8192), 30, "next page");
        assert_eq!(t.misses, 2);
    }

    #[test]
    fn capacity_eviction() {
        let mut t = dtlb();
        // 64 entries, 2-way, 32 sets: fill set 0 with 2 pages, third evicts.
        let stride = 32 * 8192; // pages mapping to set 0
        t.translate(0);
        t.translate(stride);
        t.translate(0); // refresh page 0
        t.translate(2 * stride); // evicts `stride`
        assert_eq!(t.translate(0), 0, "page 0 survived");
        assert_eq!(t.translate(stride), 30, "page `stride` was evicted");
    }

    #[test]
    fn itlb_table1_constructs() {
        // 48 entries / 2-way = 24 sets (modulo-indexed).
        let mut t = Tlb::new(TlbConfig::itlb_table1());
        assert_eq!(t.translate(0), 30);
        assert_eq!(t.translate(0), 0);
    }
}
