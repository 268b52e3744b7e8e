//! Set-associative cache timing model with true-LRU replacement.

use serde::{Deserialize, Serialize};

use crate::config::CacheConfig;

/// Whether an access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessKind {
    /// A read (load or instruction fetch).
    Read,
    /// A write (store).
    Write,
}

/// Write-allocation/propagation policy.
///
/// §III-C1 of the paper argues UnSync *requires* a write-through L1 —
/// with write-back, a second error striking a dirty line in the good core
/// during recovery is unrecoverable (Fig. 2). Both policies are
/// implemented so that the ablation bench can measure that scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WritePolicy {
    /// Every store is propagated to the next level immediately; lines are
    /// never dirty.
    WriteThrough,
    /// Stores dirty the line; the line is written back on eviction.
    WriteBack,
}

/// What one access did to the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheResponse {
    /// Whether the access hit.
    pub hit: bool,
    /// The hit consumed a prefetched line for the first time (tagged
    /// prefetching: the prefetcher should now fetch the next line).
    pub(crate) prefetch_hit: bool,
    /// Line address evicted to make room (misses only).
    pub evicted: Option<u64>,
    /// Whether the evicted line was dirty (⇒ must be written back).
    pub evicted_dirty: bool,
    /// For write-through writes: the line address that must be propagated
    /// downstream.
    pub write_through: Option<u64>,
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Read accesses.
    pub(crate) reads: u64,
    /// Write accesses.
    pub writes: u64,
    /// Read misses.
    pub(crate) read_misses: u64,
    /// Write misses.
    pub(crate) write_misses: u64,
    /// Dirty evictions (write-backs generated).
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total misses.
    pub(crate) fn misses(&self) -> u64 {
        self.read_misses + self.write_misses
    }

    /// Miss rate over all accesses (0 if no accesses).
    pub fn miss_rate(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            self.misses() as f64 / a as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Line was installed by the prefetcher and not yet demand-touched
    /// (tagged prefetching: first demand hit triggers the next prefetch).
    prefetched: bool,
    /// Smaller = more recently used.
    lru: u32,
}

const INVALID_WAY: Way = Way {
    tag: 0,
    valid: false,
    dirty: false,
    prefetched: false,
    lru: u32::MAX,
};

/// A set-associative cache (tags + LRU + dirty bits; no data — data lives
/// in the functional model).
///
/// # Examples
///
/// ```
/// use unsync_mem::{AccessKind, Cache, CacheConfig, WritePolicy};
///
/// let mut l1 = Cache::new(CacheConfig::l1_table1(), WritePolicy::WriteThrough);
/// assert!(!l1.access(0x1000, AccessKind::Read).hit); // cold miss
/// assert!(l1.access(0x1000, AccessKind::Read).hit);  // now resident
/// // Write-through stores report the line to propagate downstream.
/// let resp = l1.access(0x1000, AccessKind::Write);
/// assert_eq!(resp.write_through, Some(0x1000 / 64));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cache {
    cfg: CacheConfig,
    /// `cfg.num_sets() - 1`, computed once: the set index is the low
    /// bits of the line address.
    set_mask: u64,
    /// `log2(cfg.num_sets())`: the tag is the line address above them.
    set_bits: u32,
    policy: WritePolicy,
    ways: Vec<Way>, // num_sets × assoc, row-major
    /// Ways currently valid, so `valid_lines` needs no scan.
    valid: usize,
    /// Lowest and highest line address allocated since `new` (`lo > hi`
    /// while none was): every valid line lies in `lo..=hi`, so
    /// `invalidate_line` rejects a line outside without reading its set.
    lo: u64,
    hi: u64,
    stats: CacheStats,
}

impl Cache {
    /// An empty cache with the given geometry and write policy.
    pub fn new(cfg: CacheConfig, policy: WritePolicy) -> Self {
        let sets = cfg.num_sets();
        Cache {
            cfg,
            set_mask: sets - 1,
            set_bits: sets.trailing_zeros(),
            policy,
            ways: vec![INVALID_WAY; cfg.num_lines() as usize],
            valid: 0,
            lo: u64::MAX,
            hi: 0,
            stats: CacheStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn set_slice(&mut self, set: u64) -> &mut [Way] {
        let assoc = self.cfg.assoc as usize;
        let base = set as usize * assoc;
        &mut self.ways[base..base + assoc]
    }

    /// `(set, tag)` of a line address: its low `set_bits` bits pick the
    /// set, the rest are the tag (`CacheConfig::{set_index, tag}` without
    /// recomputing the geometry).
    #[inline]
    fn set_tag(&self, line: u64) -> (u64, u64) {
        (line & self.set_mask, line >> self.set_bits)
    }

    /// Records that `line` is being allocated into a way that was
    /// `was_valid` before: widens the allocation bounds and counts a way
    /// that turns valid.
    #[inline]
    fn note_fill(&mut self, line: u64, was_valid: bool) {
        self.lo = self.lo.min(line);
        self.hi = self.hi.max(line);
        self.valid += usize::from(!was_valid);
    }

    /// True if `addr`'s line is present (no state change).
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.set_tag(self.cfg.line_addr(addr));
        let assoc = self.cfg.assoc as usize;
        let base = set as usize * assoc;
        self.ways[base..base + assoc]
            .iter()
            .any(|w| w.valid && w.tag == tag)
    }

    /// Performs an access, allocating on miss (write-allocate for both
    /// policies, matching M5's default caches).
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> CacheResponse {
        let line = self.cfg.line_addr(addr);
        let (set, tag) = self.set_tag(line);
        let policy = self.policy;
        match kind {
            AccessKind::Read => self.stats.reads += 1,
            AccessKind::Write => self.stats.writes += 1,
        }

        let assoc = self.cfg.assoc as usize;
        let base = set as usize * assoc;
        let ways = &mut self.ways[base..base + assoc];
        // Age every valid way; the touched way is reset below.
        for w in ways.iter_mut() {
            if w.valid {
                w.lru = w.lru.saturating_add(1);
            }
        }

        if let Some(w) = ways.iter_mut().find(|w| w.valid && w.tag == tag) {
            w.lru = 0;
            let prefetch_hit = w.prefetched;
            w.prefetched = false;
            let mut resp = CacheResponse {
                hit: true,
                prefetch_hit,
                evicted: None,
                evicted_dirty: false,
                write_through: None,
            };
            if kind == AccessKind::Write {
                match policy {
                    WritePolicy::WriteBack => w.dirty = true,
                    WritePolicy::WriteThrough => resp.write_through = Some(line),
                }
            }
            return resp;
        }

        // Miss: allocate into the LRU way (preferring invalid ways, which
        // carry lru = MAX).
        let mut read_miss = 0;
        let mut write_miss = 0;
        match kind {
            AccessKind::Read => read_miss = 1,
            AccessKind::Write => write_miss = 1,
        }
        let victim = ways.iter_mut().max_by_key(|w| w.lru).expect("assoc >= 1");
        let evicted = victim.valid.then(|| (victim.tag << self.set_bits) | set);
        let evicted_dirty = victim.valid && victim.dirty;
        victim.tag = tag;
        victim.valid = true;
        victim.dirty = kind == AccessKind::Write && policy == WritePolicy::WriteBack;
        victim.prefetched = false;
        victim.lru = 0;
        self.note_fill(line, evicted.is_some());

        self.stats.read_misses += read_miss;
        self.stats.write_misses += write_miss;
        if evicted_dirty {
            self.stats.writebacks += 1;
        }
        CacheResponse {
            hit: false,
            prefetch_hit: false,
            evicted,
            evicted_dirty,
            write_through: (kind == AccessKind::Write && policy == WritePolicy::WriteThrough)
                .then_some(line),
        }
    }

    /// Installs `addr`'s line without counting an access (prefetch fill).
    /// Returns the evicted line address if a valid line was displaced.
    /// No-op if the line is already present.
    pub(crate) fn install(&mut self, addr: u64) -> Option<u64> {
        let line = self.cfg.line_addr(addr);
        let (set, tag) = self.set_tag(line);
        let assoc = self.cfg.assoc as usize;
        let base = set as usize * assoc;
        let ways = &mut self.ways[base..base + assoc];
        if ways.iter().any(|w| w.valid && w.tag == tag) {
            return None;
        }
        // Prefetches install at LRU position+1: age nothing, take the LRU
        // victim, and give the new line a middling age so demand lines
        // are not displaced by speculative ones.
        let victim = ways.iter_mut().max_by_key(|w| w.lru).expect("assoc >= 1");
        let evicted = victim.valid.then(|| (victim.tag << self.set_bits) | set);
        *victim = Way {
            tag,
            valid: true,
            dirty: false,
            prefetched: true,
            lru: 1,
        };
        self.note_fill(line, evicted.is_some());
        evicted
    }

    /// Invalidates line address `line` (byte address / line size) if
    /// present; returns whether it was dirty. (UnSync recovery invalidates
    /// suspect L1 lines and refetches from the ECC-protected L2 —
    /// §III-C1.) A line outside the range allocated since the cache was
    /// built cannot be present, so it returns `None` without reading its
    /// set.
    pub(crate) fn invalidate_line(&mut self, line: u64) -> Option<bool> {
        if line < self.lo || line > self.hi {
            return None;
        }
        let (set, tag) = self.set_tag(line);
        let w = self
            .set_slice(set)
            .iter_mut()
            .find(|w| w.valid && w.tag == tag)?;
        let was_dirty = w.dirty;
        *w = INVALID_WAY;
        self.valid -= 1;
        Some(was_dirty)
    }

    /// Number of currently valid lines (a running count: O(1)).
    pub fn valid_lines(&self) -> usize {
        self.valid
    }

    /// Number of currently dirty lines.
    pub fn dirty_lines(&self) -> usize {
        self.ways.iter().filter(|w| w.valid && w.dirty).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(policy: WritePolicy) -> Cache {
        // 4 sets × 2 ways × 64-byte lines = 512 bytes.
        let cfg = CacheConfig {
            size_bytes: 512,
            assoc: 2,
            line_bytes: 64,
            hit_latency: 1,
            mshrs: 4,
        };
        Cache::new(cfg, policy)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny(WritePolicy::WriteThrough);
        assert!(!c.access(0x100, AccessKind::Read).hit);
        assert!(c.access(0x100, AccessKind::Read).hit);
        assert!(c.access(0x13f, AccessKind::Read).hit, "same line");
        assert_eq!(c.stats().reads, 3);
        assert_eq!(c.stats().read_misses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny(WritePolicy::WriteThrough);
        // Three conflicting lines in a 2-way set: set stride = 4 sets × 64 B.
        let (a, b, d) = (0x000u64, 0x400, 0x800);
        c.access(a, AccessKind::Read);
        c.access(b, AccessKind::Read);
        c.access(a, AccessKind::Read); // a is now MRU
        let r = c.access(d, AccessKind::Read); // must evict b
        assert_eq!(r.evicted, Some(0x400 / 64));
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn write_through_never_dirties() {
        let mut c = tiny(WritePolicy::WriteThrough);
        let r = c.access(0x40, AccessKind::Write);
        assert_eq!(r.write_through, Some(1));
        assert_eq!(c.dirty_lines(), 0);
        let r2 = c.access(0x40, AccessKind::Write);
        assert!(r2.hit);
        assert_eq!(r2.write_through, Some(1));
        assert_eq!(c.dirty_lines(), 0);
    }

    #[test]
    fn write_back_dirties_and_writes_back_on_eviction() {
        let mut c = tiny(WritePolicy::WriteBack);
        c.access(0x000, AccessKind::Write);
        assert_eq!(c.dirty_lines(), 1);
        c.access(0x400, AccessKind::Read);
        let r = c.access(0x800, AccessKind::Read); // evicts dirty 0x000
        assert!(r.evicted_dirty);
        assert_eq!(r.evicted, Some(0));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = tiny(WritePolicy::WriteBack);
        c.access(0x80, AccessKind::Write);
        assert_eq!(c.invalidate_line(0x80 / 64), Some(true));
        assert_eq!(c.invalidate_line(0x80 / 64), None, "already gone");
        assert!(!c.probe(0x80));
    }

    #[test]
    fn probe_does_not_change_state() {
        let mut c = tiny(WritePolicy::WriteThrough);
        c.access(0x000, AccessKind::Read);
        c.access(0x400, AccessKind::Read);
        // Probing `a` must NOT refresh its LRU position.
        assert!(c.probe(0x000));
        let r = c.access(0x800, AccessKind::Read);
        assert_eq!(r.evicted, Some(0), "0x000 was still LRU despite the probe");
    }

    #[test]
    fn miss_rate_computation() {
        let mut c = tiny(WritePolicy::WriteThrough);
        c.access(0x0, AccessKind::Read); // miss
        c.access(0x0, AccessKind::Read); // hit
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cached_geometry_matches_the_config_arithmetic() {
        let table1 = crate::HierarchyConfig::table1();
        let fully_associative = CacheConfig {
            size_bytes: 512,
            assoc: 8,
            line_bytes: 64,
            hit_latency: 1,
            mshrs: 4,
        };
        for cfg in [table1.l1d, table1.l1i, table1.l2, fully_associative] {
            let sets = cfg.num_sets();
            let stride = sets * cfg.line_bytes as u64;
            let mut demand = Cache::new(cfg, WritePolicy::WriteThrough);
            let mut prefetch = demand.clone();
            let mut filled = std::collections::HashSet::new();
            let mut x = sets;
            for _ in 0..1_000 {
                x = unsync_isa::exec::splitmix64(x);
                let addr = x >> (x % 24);
                let line = cfg.line_addr(addr);
                assert_eq!(demand.set_tag(line), (cfg.set_index(addr), cfg.tag(addr)));
                // `assoc` more tags in `addr`'s set: under true LRU the
                // last one evicts `addr`'s line.
                demand.access(addr, AccessKind::Read);
                let mut evicted = None;
                for k in 1..=cfg.assoc as u64 {
                    evicted = demand
                        .access(addr.wrapping_add(k * stride), AccessKind::Read)
                        .evicted;
                }
                assert_eq!(evicted, Some(line), "{cfg:?}: eviction of {addr:#x}");
                // A prefetch fill's victim is a line filled earlier into
                // the same set, and now gone.
                for k in 0..=cfg.assoc as u64 {
                    let a = addr.wrapping_add(k * stride);
                    if let Some(victim) = prefetch.install(a) {
                        let victim_addr = victim * cfg.line_bytes as u64;
                        assert!(filled.contains(&victim), "{cfg:?}: victim {victim:#x}");
                        assert_eq!(cfg.set_index(victim_addr), cfg.set_index(a));
                        assert!(!prefetch.probe(victim_addr));
                    }
                    filled.insert(cfg.line_addr(a));
                }
            }
        }
    }

    #[test]
    fn valid_count_and_bounds_track_every_operation() {
        let one_set = CacheConfig {
            size_bytes: 512,
            assoc: 8,
            line_bytes: 64,
            hit_latency: 1,
            mshrs: 4,
        };
        for cfg in [CacheConfig::l1_table1(), one_set] {
            // Lines drawn from a window a few times the cache's size, so
            // sets fill, evict and empty again.
            let span = 4 * cfg.num_lines() * cfg.line_bytes as u64;
            let mut c = Cache::new(cfg, WritePolicy::WriteBack);
            let mut x = cfg.num_lines();
            for step in 0..20_000 {
                x = unsync_isa::exec::splitmix64(x);
                let addr = 0x4000_0000 + (x >> 8) % span;
                match x % 16 {
                    0..=5 => _ = c.access(addr, AccessKind::Read),
                    6..=8 => _ = c.access(addr, AccessKind::Write),
                    9..=11 => _ = c.install(addr),
                    12..=14 => _ = c.invalidate_line(cfg.line_addr(addr)),
                    _ => c = c.clone(),
                }
                let valid: Vec<u64> = c
                    .ways
                    .iter()
                    .enumerate()
                    .filter(|(_, w)| w.valid)
                    .map(|(i, w)| (w.tag << c.set_bits) | (i / cfg.assoc as usize) as u64)
                    .collect();
                assert_eq!(c.valid_lines(), valid.len(), "{cfg:?} step {step}");
                assert!(
                    valid.iter().all(|l| (c.lo..=c.hi).contains(l)),
                    "{cfg:?} step {step}: a valid line outside {}..={}",
                    c.lo,
                    c.hi
                );
            }
        }
    }

    #[test]
    fn invalidate_skips_lines_outside_the_allocated_range() {
        let mut c = tiny(WritePolicy::WriteThrough);
        assert_eq!(c.invalidate_line(0), None, "empty cache");
        c.access(0x1000, AccessKind::Read);
        c.install(0x2000);
        // In range and present; in range but absent; out of range.
        assert_eq!(c.invalidate_line(0x2000 / 64), Some(false));
        assert_eq!(c.invalidate_line(0x1800 / 64), None);
        assert_eq!(c.invalidate_line(0x3000 / 64), None);
        assert_eq!(c.valid_lines(), 1);
    }

    #[test]
    fn table1_l1_holds_its_working_set() {
        let mut c = Cache::new(CacheConfig::l1_table1(), WritePolicy::WriteThrough);
        // 32 KB / 64 B = 512 lines; touch 512 distinct sequential lines.
        for i in 0..512u64 {
            c.access(i * 64, AccessKind::Read);
        }
        for i in 0..512u64 {
            assert!(c.probe(i * 64), "line {i} should still be resident");
        }
        // Stream another 512: everything original is evicted.
        for i in 512..1024u64 {
            c.access(i * 64, AccessKind::Read);
        }
        for i in 0..512u64 {
            assert!(!c.probe(i * 64));
        }
    }
}
