//! The assembled multicore memory system.
//!
//! One [`MemSystem`] holds per-core split L1s and TLBs, the shared L2,
//! the shared L1↔L2 bus and the DRAM latency model, wired per Table I.
//! All methods take explicit cycle times and return completion times —
//! the out-of-order core model (`unsync-sim`) owns the clock.

use serde::{Deserialize, Serialize};
use unsync_isa::exec::splitmix64;

use crate::bus::Bus;
use crate::cache::{AccessKind, Cache, CacheStats, WritePolicy};
use crate::config::HierarchyConfig;
use crate::contention::{L2Contention, L2ContentionConfig, L2ContentionEvent};
use crate::mshr::MshrFile;
use crate::tlb::Tlb;

/// Everything that happened on one data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessOutcome {
    /// Cycle at which the access's value is available (loads) or the L1
    /// is updated (stores).
    pub done: u64,
    /// Whether the L1 hit.
    pub(crate) l1_hit: bool,
    /// Whether the L2 hit (`None` when the L1 hit and the L2 was never
    /// consulted).
    pub(crate) l2_hit: Option<bool>,
    /// TLB walk penalty paid, in cycles (0 on TLB hit).
    pub(crate) tlb_walk: u32,
    /// Whether the access stalled waiting for a free MSHR.
    pub(crate) mshr_stall: bool,
    /// For write-through stores: the line address the caller must
    /// propagate downstream (through the baseline core's write buffer or
    /// UnSync's CB).
    pub write_through: Option<u64>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct CorePort {
    l1d: Cache,
    l1i: Cache,
    dtlb: Tlb,
    itlb: Tlb,
    l1d_mshrs: MshrFile,
    l1i_mshrs: MshrFile,
    /// Monotone counter salting the per-access fill jitter.
    fill_count: u64,
    /// Cross-pair coherence invalidations received.
    invalidations: u64,
}

/// The shared memory system of an `n`-core CMP.
///
/// Per the paper's Fig. 1 topology, each core has its own L1↔L2 fill
/// datapath, and the write-through/Communication-Buffer drain traffic
/// rides a separate (per-pair) drain path into the L2; only the L2 itself
/// (and its MSHRs) is shared.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemSystem {
    cfg: HierarchyConfig,
    cores: Vec<CorePort>,
    l2: Cache,
    l2_mshrs: MshrFile,
    /// Per-core L1↔L2 fill datapaths.
    fill_buses: Vec<Bus>,
    /// Per-pair CB/write-buffer → L2 drain paths (cores 2k and 2k+1
    /// share drain path k, matching Fig. 1's single CB→L2 arrow per
    /// pair).
    drain_buses: Vec<Bus>,
    /// Opt-in contended-L2 model (see [`crate::contention`]); `None`
    /// keeps the flat Table I L2 and changes no access timing at all.
    contention: Option<L2Contention>,
}

impl MemSystem {
    /// Builds the hierarchy for `num_cores` cores with the given L1 write
    /// policy (the L2 is always write-back; it is the ECC-protected safe
    /// copy in both architectures).
    pub fn new(cfg: HierarchyConfig, num_cores: usize, l1_policy: WritePolicy) -> Self {
        assert!(num_cores > 0);
        let cores = (0..num_cores)
            .map(|_| CorePort {
                l1d: Cache::new(cfg.l1d, l1_policy),
                l1i: Cache::new(cfg.l1i, WritePolicy::WriteThrough),
                dtlb: Tlb::new(cfg.dtlb),
                itlb: Tlb::new(cfg.itlb),
                l1d_mshrs: MshrFile::new(cfg.l1d.mshrs),
                l1i_mshrs: MshrFile::new(cfg.l1i.mshrs),
                fill_count: 0,
                invalidations: 0,
            })
            .collect();
        MemSystem {
            cfg,
            cores,
            l2: Cache::new(cfg.l2, WritePolicy::WriteBack),
            l2_mshrs: MshrFile::new(cfg.l2.mshrs),
            fill_buses: (0..num_cores).map(|_| Bus::new()).collect(),
            drain_buses: (0..num_cores.div_ceil(2)).map(|_| Bus::new()).collect(),
            contention: None,
        }
    }

    /// Turns on the contended shared-L2 model (see
    /// `crate::contention`): banked access serialization plus an
    /// MSHR-capacity override (`cfg.mshrs` replaces the Table I L2
    /// MSHR count; any in-flight entries are discarded, so enable this
    /// before issuing traffic).
    pub fn enable_l2_contention(&mut self, cfg: L2ContentionConfig) {
        self.l2_mshrs = MshrFile::new(cfg.mshrs);
        self.contention = Some(L2Contention::new(cfg));
    }

    /// The contended-L2 model, when enabled.
    pub fn l2_contention(&self) -> Option<&L2Contention> {
        self.contention.as_ref()
    }

    /// The pending bank-conflict events, for the caller to drain and
    /// re-emit as trace events (`None` when contention is disabled).
    pub fn l2_events_mut(&mut self) -> Option<&mut Vec<L2ContentionEvent>> {
        self.contention.as_mut().map(L2Contention::events_mut)
    }

    /// Shared-L2 misses still outstanding at `cycle` (bounded by the
    /// configured MSHR capacity); read-only, like
    /// `MshrFile::outstanding`.
    pub fn l2_mshr_outstanding(&self, cycle: u64) -> usize {
        self.l2_mshrs.outstanding(cycle)
    }

    /// Capacity of the shared-L2 MSHR file (Table I default or the
    /// contention-config override).
    pub fn l2_mshr_capacity(&self) -> usize {
        self.l2_mshrs.capacity()
    }

    /// Lines currently valid in the shared L2 — the live fraction a
    /// fault campaign needs to decide whether an L2 strike hit
    /// occupied state.
    pub fn l2_valid_lines(&self) -> usize {
        self.l2.valid_lines()
    }

    /// The hierarchy configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// L2 round trip for a line miss observed at `cycle`: bus request,
    /// L2 lookup (DRAM fill on L2 miss), line transfer back. Returns
    /// `(ready_cycle, l2_hit)`.
    fn l2_round_trip(
        &mut self,
        core: usize,
        addr: u64,
        cycle: u64,
        kind: AccessKind,
    ) -> (u64, bool) {
        let beats = self.cfg.line_transfer_beats();
        // Deterministic fill jitter: DRAM bank/refresh/arbitration
        // variability, different per core — the source of redundant-pair
        // drift.
        let jitter = if self.cfg.fill_jitter == 0 {
            0
        } else {
            self.cores[core].fill_count += 1;
            let h = splitmix64(
                (core as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    ^ self.cores[core]
                        .fill_count
                        .wrapping_mul(0x2545_f491_4f6c_dd1d)
                    ^ addr,
            );
            h % self.cfg.fill_jitter as u64
        };
        // Request + response occupy the core's fill bus once (beats
        // cycles for the line payload; the address phase is folded in).
        let (start, _) = self.fill_buses[core].acquire(cycle + jitter, beats);
        let resp = self.l2.access(addr, kind);
        let line = self.cfg.l2.line_addr(addr);
        // Contended L2: the request first waits for its bank's port
        // (zero wait when the model is disabled or the bank is free).
        let service = start
            + self
                .contention
                .as_mut()
                .map_or(0, |c| c.access(core, line, start));
        let fill_done = if resp.hit {
            service + self.cfg.l2.hit_latency as u64
        } else {
            self.l2_mshrs
                .track(line, service, self.cfg.dram_latency as u64)
                .ready_cycle()
        };
        // Dirty L2 victim: model its writeback as extra bus occupancy.
        if resp.evicted_dirty {
            self.fill_buses[core].acquire(fill_done, beats);
        }
        (fill_done + beats as u64, resp.hit)
    }

    /// A data load by `core` at `cycle`.
    pub fn load(&mut self, core: usize, addr: u64, cycle: u64) -> AccessOutcome {
        self.data_access(core, addr, cycle, AccessKind::Read)
    }

    /// A data store by `core` at `cycle`. With a write-through L1 the
    /// outcome's `write_through` names the line the caller must drain.
    pub fn store(&mut self, core: usize, addr: u64, cycle: u64) -> AccessOutcome {
        self.data_access(core, addr, cycle, AccessKind::Write)
    }

    fn data_access(
        &mut self,
        core: usize,
        addr: u64,
        cycle: u64,
        kind: AccessKind,
    ) -> AccessOutcome {
        let walk = self.cores[core].dtlb.translate(addr);
        let t = cycle + walk as u64;
        let resp = self.cores[core].l1d.access(addr, kind);
        let l1_lat = self.cfg.l1d.hit_latency as u64;
        let line = self.cfg.l1d.line_addr(addr);
        if resp.hit {
            // Tagged prefetching: the first demand touch of a prefetched
            // line keeps the stream running one line ahead.
            if resp.prefetch_hit {
                self.prefetch_next(core, addr, t, t);
            }
            // Hit-under-fill: if this line's fill is still in flight, the
            // data arrives when the MSHR completes, not at hit latency.
            let fill_wait = self.cores[core].l1d_mshrs.pending_ready(line, t);
            return AccessOutcome {
                done: fill_wait.unwrap_or(t + l1_lat).max(t + l1_lat),
                l1_hit: true,
                l2_hit: None,
                tlb_walk: walk,
                mshr_stall: false,
                write_through: resp.write_through,
            };
        }
        // L1 miss: track in the L1 MSHRs; the fill latency is the L2
        // round trip. The fill itself is always a *read* of the L2 (a
        // write-allocate store miss fetches the line; the store data
        // reaches the L2 separately via the write-through drain path).
        let (fill_ready, l2_hit) = self.l2_round_trip(core, addr, t + l1_lat, AccessKind::Read);
        let outcome = self.cores[core].l1d_mshrs.track(line, t, fill_ready - t);
        // Next-line prefetch: demand misses trigger a background fill of
        // the sequentially next line (tagged in an MSHR so hit-under-fill
        // sees its true arrival time).
        self.prefetch_next(core, addr, t, fill_ready);
        // Dirty L1 victim (write-back policy only): write it back to L2.
        if resp.evicted_dirty {
            let beats = self.cfg.line_transfer_beats();
            let (wb_start, _) = self.fill_buses[core].acquire(fill_ready, beats);
            let victim_addr = resp.evicted.unwrap() * self.cfg.l1d.line_bytes as u64;
            self.l2.access(victim_addr, AccessKind::Write);
            let _ = wb_start;
        }
        AccessOutcome {
            done: outcome.ready_cycle(),
            l1_hit: false,
            l2_hit: Some(l2_hit),
            tlb_walk: walk,
            mshr_stall: outcome.stalled(),
            write_through: resp.write_through,
        }
    }

    /// Issues a next-line prefetch for the line after `addr`. The MSHR is
    /// occupied from `issue_at` (the triggering access's time — so it
    /// never retro-retires in-flight demand entries); the bus transfer
    /// starts no earlier than `bus_at` (after the demand fill on a miss).
    fn prefetch_next(&mut self, core: usize, addr: u64, issue_at: u64, bus_at: u64) {
        let next_line_addr = addr + self.cfg.l1d.line_bytes as u64;
        let next_line = self.cfg.l1d.line_addr(next_line_addr);
        if self.cores[core].l1d.probe(next_line_addr)
            || self.cores[core]
                .l1d_mshrs
                .pending_ready(next_line, issue_at)
                .is_some()
        {
            return;
        }
        let (pf_ready, _) = self.l2_round_trip(core, next_line_addr, bus_at, AccessKind::Read);
        self.cores[core].l1d.install(next_line_addr);
        self.cores[core]
            .l1d_mshrs
            .track(next_line, issue_at, pf_ready - issue_at);
    }

    /// An instruction fetch by `core` at `cycle` (read-only path).
    pub fn fetch(&mut self, core: usize, addr: u64, cycle: u64) -> AccessOutcome {
        let walk = self.cores[core].itlb.translate(addr);
        let t = cycle + walk as u64;
        let resp = self.cores[core].l1i.access(addr, AccessKind::Read);
        let l1_lat = self.cfg.l1i.hit_latency as u64;
        let line = self.cfg.l1i.line_addr(addr);
        if resp.hit {
            let fill_wait = self.cores[core].l1i_mshrs.pending_ready(line, t);
            return AccessOutcome {
                done: fill_wait.unwrap_or(t + l1_lat).max(t + l1_lat),
                l1_hit: true,
                l2_hit: None,
                tlb_walk: walk,
                mshr_stall: false,
                write_through: None,
            };
        }
        let (fill_ready, l2_hit) = self.l2_round_trip(core, addr, t + l1_lat, AccessKind::Read);
        let outcome = self.cores[core].l1i_mshrs.track(line, t, fill_ready - t);
        AccessOutcome {
            done: outcome.ready_cycle(),
            l1_hit: false,
            l2_hit: Some(l2_hit),
            tlb_walk: walk,
            mshr_stall: outcome.stalled(),
            write_through: None,
        }
    }

    /// Drains one buffered write-through word into the L2 over the
    /// core-pair's drain path; returns the cycle the write completes.
    /// This is the path the baseline write buffer *and* the UnSync CB use
    /// ("as and when the L1-L2 data bus is free", §III-A). Transfers are
    /// word-granular — one store's data, not a whole line.
    ///
    /// Drain-request times must be non-decreasing per pair (the FIFO bus
    /// contract); all drain producers (write buffers, CSB release, CB
    /// matching) naturally satisfy this.
    pub fn drain_write(&mut self, core: usize, line_addr: u64, cycle: u64) -> u64 {
        let beats = self.cfg.word_transfer_beats();
        // Contended L2: drain traffic competes for the target bank's
        // port like fills do (zero wait when the model is disabled).
        let bank_stall = self
            .contention
            .as_mut()
            .map_or(0, |c| c.access(core, line_addr, cycle));
        let (start, done) = self.drain_buses[core / 2].acquire(cycle + bank_stall, beats);
        let addr = line_addr * self.cfg.l1d.line_bytes as u64;
        self.l2.access(addr, AccessKind::Write);
        // Coherence: a store becoming architectural at the L2 invalidates
        // stale copies in *other pairs'* L1s. The writer's own pair is
        // exempt — both of its cores legitimately hold the line (they run
        // the same thread). Each L1 rejects a line outside the range it
        // has allocated in O(1), so lanes at disjoint address bases never
        // read each other's sets. `line` is `addr`'s line as the L1s see
        // it, derived once per drain rather than once per core.
        let line = self.cfg.l1d.line_addr(addr);
        let writer_pair = core / 2;
        for (c, port) in self.cores.iter_mut().enumerate() {
            if c / 2 != writer_pair && port.l1d.invalidate_line(line).is_some() {
                port.invalidations += 1;
            }
        }
        let _ = start;
        done
    }

    /// Cross-pair coherence invalidations a core's L1 has absorbed.
    pub fn invalidations(&self, core: usize) -> u64 {
        self.cores[core].invalidations
    }

    /// A core's L1 data-cache statistics.
    pub fn l1d_stats(&self, core: usize) -> &CacheStats {
        self.cores[core].l1d.stats()
    }

    /// Shared L2 statistics.
    pub fn l2_stats(&self) -> &CacheStats {
        self.l2.stats()
    }

    /// Mutable handle to a core's L1 data cache (recovery invalidation,
    /// fault injection).
    pub fn l1d_mut(&mut self, core: usize) -> &mut Cache {
        &mut self.cores[core].l1d
    }

    /// Read-only handle to a core's L1 data cache.
    pub fn l1d(&self, core: usize) -> &Cache {
        &self.cores[core].l1d
    }

    /// Bulk L1→L1 copy cost in bus cycles: transferring `lines` lines
    /// through the shared L2 (§III-A step 3 does the copy "using the
    /// shared L2 cache", so each line crosses the bus twice).
    pub fn l1_copy_cost(&self, lines: u64) -> u64 {
        2 * lines * self.cfg.line_transfer_beats() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemSystem {
        MemSystem::new(HierarchyConfig::table1(), 2, WritePolicy::WriteThrough)
    }

    #[test]
    fn l1_hit_costs_hit_latency_plus_tlb() {
        let mut m = sys();
        let first = m.load(0, 0x1000, 0);
        assert!(!first.l1_hit);
        let warm_cycle = first.done + 1;
        let hit = m.load(0, 0x1000, warm_cycle);
        assert!(hit.l1_hit);
        assert_eq!(hit.done, warm_cycle + 2);
        assert_eq!(hit.tlb_walk, 0);
    }

    #[test]
    fn cold_load_pays_tlb_l1_l2_dram() {
        let mut m = sys();
        let o = m.load(0, 0x1000, 0);
        assert!(!o.l1_hit);
        assert_eq!(o.l2_hit, Some(false));
        assert_eq!(o.tlb_walk, 30);
        // Walk(30) + L1(2) + DRAM(400) + transfer(8) at minimum.
        assert!(o.done >= 440, "done = {}", o.done);
    }

    #[test]
    fn l2_hit_is_much_cheaper_than_dram() {
        let mut m = sys();
        let cold = m.load(0, 0x2000, 0);
        // Evict from core 0's L1 by invalidation; line stays in L2.
        m.l1d_mut(0).invalidate_line(0x2000 / 64);
        let warm = m.load(0, 0x2000, cold.done + 1);
        assert_eq!(warm.l2_hit, Some(true));
        assert!(warm.done - (cold.done + 1) < 100);
    }

    #[test]
    fn write_through_store_reports_line_to_drain() {
        let mut m = sys();
        let o = m.store(0, 0x3000, 0);
        assert_eq!(o.write_through, Some(0x3000 / 64));
        // The L1 never holds dirty lines under write-through.
        assert_eq!(m.l1d(0).dirty_lines(), 0);
    }

    #[test]
    fn write_back_store_dirties_instead() {
        let mut m = MemSystem::new(HierarchyConfig::table1(), 1, WritePolicy::WriteBack);
        let o = m.store(0, 0x3000, 0);
        assert_eq!(o.write_through, None);
        assert_eq!(m.l1d(0).dirty_lines(), 1);
    }

    #[test]
    fn cores_have_private_l1s() {
        let mut m = sys();
        let a = m.load(0, 0x4000, 0);
        let b = m.load(1, 0x4000, a.done + 1);
        assert!(!b.l1_hit, "core 1's L1 is cold");
        assert_eq!(b.l2_hit, Some(true), "but the shared L2 is warm");
    }

    #[test]
    fn drain_write_occupies_bus() {
        let mut m = sys();
        let done = m.drain_write(0, 0x10, 0);
        assert_eq!(done, 1, "1 beat for an 8-byte word on a 64-bit bus");
        // Core 1 shares the pair's drain path with core 0: its drain
        // waits out core 0's beat; a later one finds the path free.
        assert_eq!(m.drain_write(1, 0x20, 0), 2);
        assert_eq!(m.drain_write(0, 0x30, 5), 6);
    }

    #[test]
    fn bus_contention_serializes_drains() {
        let mut m = sys();
        let d1 = m.drain_write(0, 0x10, 0);
        let d2 = m.drain_write(0, 0x20, 0);
        assert_eq!(d2, d1 + 1);
    }

    #[test]
    fn drains_ride_their_own_path_fills_do_not_block_them() {
        let mut m = sys();
        let out = m.load(0, 0x9000, 0);
        assert!(!out.l1_hit);
        // The fill occupies core 0's fill bus; the drain path is free.
        let drained = m.drain_write(0, 0x10, 0);
        assert_eq!(drained, 1);
    }

    #[test]
    fn pair_cores_share_one_drain_path() {
        let mut m = MemSystem::new(HierarchyConfig::table1(), 4, WritePolicy::WriteThrough);
        let d0 = m.drain_write(0, 0x10, 0);
        let d1 = m.drain_write(1, 0x20, 0); // same pair: serialized
        assert_eq!(d1, d0 + 1);
        let d2 = m.drain_write(2, 0x30, 0); // other pair: independent
        assert_eq!(d2, 1);
    }

    #[test]
    fn hit_under_fill_waits_for_the_inflight_line() {
        let mut m = sys();
        let a = m.load(0, 0x5000, 0);
        // Same line while the fill is still in flight: the tag is already
        // installed (a "hit"), but the data only arrives with the fill.
        let b = m.load(0, 0x5008, 1);
        assert!(b.l1_hit);
        assert_eq!(b.done, a.done, "waits on the in-flight MSHR");
        // After the fill lands, the same line is a plain 2-cycle hit.
        let c = m.load(0, 0x5010, a.done + 1);
        assert_eq!(c.done, a.done + 3);
    }

    #[test]
    fn fetch_path_uses_icache() {
        let mut m = sys();
        let a = m.fetch(0, 0x100, 0);
        assert!(!a.l1_hit);
        let b = m.fetch(0, 0x100, a.done + 1);
        assert!(b.l1_hit);
        // Data-side state unaffected.
        assert_eq!(m.l1d_stats(0).accesses(), 0);
    }

    #[test]
    fn cross_pair_stores_invalidate_stale_copies() {
        let mut m = MemSystem::new(HierarchyConfig::table1(), 4, WritePolicy::WriteThrough);
        // Core 2 (pair 1) caches a line.
        let o = m.load(2, 0x8000, 0);
        assert!(m.l1d(2).probe(0x8000));
        // Pair 0 drains a store to that line: pair 1's copy must go.
        m.drain_write(0, 0x8000 / 64, o.done + 10);
        assert!(!m.l1d(2).probe(0x8000));
        assert_eq!(m.invalidations(2), 1);
        // The writer pair's own cores are exempt.
        let o2 = m.load(1, 0x8000, o.done + 100);
        let _ = o2;
        m.drain_write(0, 0x8000 / 64, o.done + 500);
        assert!(m.l1d(1).probe(0x8000), "own pair keeps its copy");
        assert_eq!(m.invalidations(1), 0);
    }

    #[test]
    fn l1_copy_cost_scales_with_lines() {
        let m = sys();
        assert_eq!(m.l1_copy_cost(0), 0);
        assert_eq!(m.l1_copy_cost(512), 2 * 512 * 8);
    }
}
