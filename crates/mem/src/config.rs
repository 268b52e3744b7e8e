//! Memory-hierarchy configuration (defaults = the paper's Table I).

use serde::{Deserialize, Serialize};

/// Geometry and timing of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Access (hit) latency in cycles.
    pub hit_latency: u32,
    /// Miss-status holding registers (outstanding misses).
    pub mshrs: u32,
}

impl CacheConfig {
    /// Table I L1: 32 KB, 2-way, 64-byte lines, 2-cycle access, 10 MSHRs.
    pub fn l1_table1() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            assoc: 2,
            line_bytes: 64,
            hit_latency: 2,
            mshrs: 10,
        }
    }

    /// Table I shared L2: 4 MB, 8-way, 64-byte lines, 20-cycle access,
    /// 20 MSHRs.
    pub(crate) fn l2_table1() -> Self {
        CacheConfig {
            size_bytes: 4 * 1024 * 1024,
            assoc: 8,
            line_bytes: 64,
            hit_latency: 20,
            mshrs: 20,
        }
    }

    /// Number of sets.
    ///
    /// # Panics
    /// Panics if the geometry is inconsistent (size not divisible into
    /// `assoc × line` chunks, or any parameter zero).
    pub fn num_sets(&self) -> u64 {
        assert!(self.assoc > 0 && self.line_bytes > 0 && self.size_bytes > 0);
        let set_bytes = self.assoc as u64 * self.line_bytes as u64;
        assert_eq!(
            self.size_bytes % set_bytes,
            0,
            "cache size {} not divisible by assoc×line {}",
            self.size_bytes,
            set_bytes
        );
        let sets = self.size_bytes / set_bytes;
        assert!(
            sets.is_power_of_two(),
            "set count {sets} must be a power of two"
        );
        sets
    }

    /// Total number of lines.
    pub(crate) fn num_lines(&self) -> u64 {
        self.num_sets() * self.assoc as u64
    }

    /// Line address (address with the offset bits stripped).
    #[inline]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr / self.line_bytes as u64
    }

    /// Set index for an address.
    #[inline]
    pub fn set_index(&self, addr: u64) -> u64 {
        self.line_addr(addr) & (self.num_sets() - 1)
    }

    /// Tag for an address.
    #[inline]
    pub fn tag(&self, addr: u64) -> u64 {
        self.line_addr(addr) >> self.num_sets().trailing_zeros()
    }
}

/// TLB geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbConfig {
    /// Number of entries.
    pub entries: u32,
    /// Associativity.
    pub assoc: u32,
    /// Page size in bytes.
    pub(crate) page_bytes: u64,
    /// Page-walk penalty on a miss, in cycles.
    pub(crate) walk_latency: u32,
}

impl TlbConfig {
    /// Table I I-TLB: 48 entries, 2-way.
    pub(crate) fn itlb_table1() -> Self {
        TlbConfig {
            entries: 48,
            assoc: 2,
            page_bytes: 8192,
            walk_latency: 30,
        }
    }

    /// Table I D-TLB: 64 entries, 2-way.
    pub(crate) fn dtlb_table1() -> Self {
        TlbConfig {
            entries: 64,
            assoc: 2,
            page_bytes: 8192,
            walk_latency: 30,
        }
    }
}

/// Full hierarchy configuration for one CMP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// Per-core L1 data cache.
    pub l1d: CacheConfig,
    /// Per-core L1 instruction cache.
    pub(crate) l1i: CacheConfig,
    /// Shared L2.
    pub l2: CacheConfig,
    /// Data TLB.
    pub dtlb: TlbConfig,
    /// Instruction TLB.
    pub itlb: TlbConfig,
    /// DRAM access latency in cycles (Table I: 400).
    pub dram_latency: u32,
    /// Bus width in bytes (Table I: 64-bit wide ⇒ 8).
    pub bus_bytes_per_cycle: u32,
    /// Maximum per-access fill-latency jitter, cycles. Each L2 round trip
    /// takes `0..jitter` extra cycles, as a deterministic hash of
    /// (core, line, occurrence). This models DRAM bank/refresh/arbiter
    /// variability — the reason the two cores of a redundant pair drift
    /// apart even on identical instruction streams, which is exactly the
    /// drift UnSync's Communication Buffer must absorb (Fig. 6).
    pub(crate) fill_jitter: u32,
}

impl HierarchyConfig {
    /// The paper's Table I configuration.
    pub fn table1() -> Self {
        HierarchyConfig {
            l1d: CacheConfig::l1_table1(),
            l1i: CacheConfig::l1_table1(),
            l2: CacheConfig::l2_table1(),
            dtlb: TlbConfig::dtlb_table1(),
            itlb: TlbConfig::itlb_table1(),
            dram_latency: 400,
            bus_bytes_per_cycle: 8,
            fill_jitter: 8,
        }
    }

    /// Bus beats (cycles of bus occupancy) to move one L1 line.
    pub(crate) fn line_transfer_beats(&self) -> u32 {
        self.l1d.line_bytes.div_ceil(self.bus_bytes_per_cycle)
    }

    /// Bus beats to move one 8-byte store word (the write-through /
    /// Communication-Buffer drain granularity — CB entries are word-sized,
    /// like Reunion's 66-bit CSB entries).
    pub fn word_transfer_beats(&self) -> u32 {
        8u32.div_ceil(self.bus_bytes_per_cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_l1_geometry() {
        let c = CacheConfig::l1_table1();
        assert_eq!(c.num_sets(), 256);
        assert_eq!(c.num_lines(), 512);
    }

    #[test]
    fn table1_l2_geometry() {
        let c = CacheConfig::l2_table1();
        assert_eq!(c.num_sets(), 8192);
        assert_eq!(c.num_lines(), 65536);
    }

    #[test]
    fn address_decomposition_round_trips() {
        let c = CacheConfig::l1_table1();
        let addr = 0x0001_2345_6789u64;
        let line = c.line_addr(addr);
        let set = c.set_index(addr);
        let tag = c.tag(addr);
        assert_eq!(tag * c.num_sets() + set, line);
    }

    #[test]
    fn same_set_different_tags_for_conflicting_addrs() {
        let c = CacheConfig::l1_table1();
        // Two addresses one "cache size / assoc" apart conflict in a set.
        let a = 0x10_000u64;
        let b = a + c.size_bytes / c.assoc as u64;
        assert_eq!(c.set_index(a), c.set_index(b));
        assert_ne!(c.tag(a), c.tag(b));
    }

    #[test]
    fn line_transfer_beats_table1() {
        // 64-byte line over a 64-bit (8-byte) bus: 8 beats.
        assert_eq!(HierarchyConfig::table1().line_transfer_beats(), 8);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn bad_geometry_panics() {
        let c = CacheConfig {
            size_bytes: 1000,
            assoc: 3,
            line_bytes: 64,
            hit_latency: 1,
            mshrs: 1,
        };
        let _ = c.num_sets();
    }
}
