//! The UnSync core pair: unsynchronized redundant execution with
//! always-forward recovery.
//!
//! Execution routes through the shared [`unsync_exec::RedundantDriver`];
//! this module contributes only what is UnSync-specific, as the
//! [`UnsyncPolicy`] implementation of
//! [`unsync_exec::RedundancyPolicy`]: committed write-through stores
//! enter the [`crate::cb::PairedCb`] (a full CB back-pressures its
//! core's commit), and there is **no** output comparison anywhere —
//! correctness rests on the per-element hardware detection blocks
//! ([`unsync_fault::Coverage::unsync`]).
//!
//! On a detected error (§III-A recovery procedure):
//! 1. both cores stop (EIH latency);
//! 2. the erroneous core's pipeline is flushed;
//! 3. architectural state and L1 content of the error-free core are
//!    copied over through the shared L2;
//! 4. in-flight CB drains complete, further ones pause;
//! 5. the erroneous core's CB is overwritten from the error-free one;
//! 6. both cores resume from the error-free core's PC — *always
//!    forward*, no re-execution.

use unsync_exec::{
    Lane, LaneState, RedundancyPolicy, RedundantDriver, RunResult, SegmentVerdict, StrikeVerdict,
    TraceEventKind,
};
use unsync_fault::uncore::{UncoreProtection, UncoreStrike, UncoreTarget};
use unsync_fault::{FaultKind, FaultTarget, PairFault};
use unsync_isa::{Inst, TraceProgram};
use unsync_mem::{MemSystem, WritePolicy};
use unsync_sim::{CoreConfig, InstTiming, NullHooks};

use crate::cb::PairedCb;
use crate::config::UnsyncConfig;

/// The UnSync redundant core pair. Its run's events count benign
/// strikes on empty CB slots (`BenignFault`), and sum CB drains
/// (`CbDrain`) and full-CB commit stalls (`CbFullStall`).
///
/// # Examples
///
/// ```
/// use unsync_core::{UnsyncConfig, UnsyncPair};
/// use unsync_fault::{FaultKind, FaultSite, FaultTarget, PairFault};
/// use unsync_sim::CoreConfig;
/// use unsync_workloads::{Benchmark, WorkloadGen};
///
/// let trace = WorkloadGen::new(Benchmark::Gzip, 3_000, 7).collect_trace();
/// let pair = UnsyncPair::new(CoreConfig::table1(), UnsyncConfig::paper_baseline());
///
/// // Error-free execution is bit-correct against the golden run.
/// assert!(pair.run(&trace, &[]).correct());
///
/// // A register-file strike is detected and recovered always-forward.
/// let fault = PairFault {
///     at: 1_000,
///     core: 0,
///     site: FaultSite { target: FaultTarget::RegisterFile, bit_offset: 67 },
///     kind: FaultKind::Single,
/// };
/// let out = pair.run(&trace, &[fault]);
/// assert_eq!(out.recoveries, 1);
/// assert!(out.correct());
/// ```
pub struct UnsyncPair {
    ccfg: CoreConfig,
    ucfg: UnsyncConfig,
}

impl UnsyncPair {
    /// A pair with the paper's write-through L1 (§III-C1).
    pub fn new(ccfg: CoreConfig, ucfg: UnsyncConfig) -> Self {
        ucfg.validate().expect("UnSync config must be valid");
        UnsyncPair { ccfg, ucfg }
    }

    /// Runs `trace` to completion with the given faults (sorted by `at`).
    pub fn run(&self, trace: &TraceProgram, faults: &[PairFault]) -> RunResult {
        self.run_with_golden(trace, faults, None)
    }

    /// [`UnsyncPair::run`] with a pre-computed golden memory image for
    /// the final verification — fault campaigns re-running one trace
    /// many times compute [`unsync_isa::golden_run`] once and pass it
    /// here (see `unsync_bench::runner::golden_memory`).
    pub fn run_with_golden(
        &self,
        trace: &TraceProgram,
        faults: &[PairFault],
        golden: Option<&unsync_isa::ArchMemory>,
    ) -> RunResult {
        let driver = RedundantDriver::new(self.ccfg);
        let policy = UnsyncPolicy::new("unsync_pair", self.ucfg, WritePolicy::WriteThrough, 0);
        let mut lane = Lane::new(trace);
        (lane.faults, lane.golden) = (faults.to_vec(), golden);
        driver.run(&mut [policy], vec![lane]).0.remove(0)
    }
}

/// The UnSync scheme as a [`RedundancyPolicy`]: hardware-only
/// detection, CB store discipline, and §III-A always-forward recovery.
/// A multi-pair system runs one per lane through
/// [`RedundantDriver::run_system`], each constructed with its lane's CB
/// core base.
pub struct UnsyncPolicy {
    name: &'static str,
    ucfg: UnsyncConfig,
    l1_policy: WritePolicy,
    hooks: [NullHooks; 2],
    cb: PairedCb,
    /// End cycle of the most recent recovery, and which core was the
    /// error-free source — the Fig. 2 hazard window.
    recovery_window: Option<(u64, usize)>,
    /// A directed (liveness-conditioned) CB strike waiting for the
    /// buffer to refill — see [`UnsyncPolicy::uncore_strike`].
    pending_cb_strike: Option<UncoreStrike>,
}

impl UnsyncPolicy {
    /// A policy publishing metrics under `name`, with its CB owned by
    /// the pair whose first core is `core_base`.
    pub fn new(
        name: &'static str,
        ucfg: UnsyncConfig,
        l1_policy: WritePolicy,
        core_base: usize,
    ) -> Self {
        UnsyncPolicy {
            name,
            ucfg,
            l1_policy,
            hooks: [NullHooks, NullHooks],
            cb: PairedCb::for_cores(ucfg.cb_entries, core_base),
            recovery_window: None,
            pending_cb_strike: None,
        }
    }

    /// Attempts to land a CB strike at the lane's current cycle.
    /// Returns `None` only for a directed strike that found the struck
    /// side empty — the caller pends it until the buffer refills. A
    /// uniform strike against an empty slot is simply benign and
    /// [`StrikeVerdict::Neutral`]: its occupancy probe only reads.
    fn try_cb_strike(
        &mut self,
        mem: &mut MemSystem,
        lane: &mut LaneState,
        strike: &UncoreStrike,
    ) -> Option<StrikeVerdict> {
        let now = lane.now();
        // Entry index interleaves the two sides; the slot addresses
        // that side's queue (capacity-wrapped for uniform strikes,
        // occupancy-wrapped for directed ones so they hit a resident
        // entry whenever one exists).
        let entry = strike.site.entry_index();
        let side = (entry % 2) as usize;
        let slot = if strike.directed {
            let occ = self.cb.occupancy(side, now);
            if occ == 0 {
                return None;
            }
            (entry / 2) as usize % occ
        } else {
            let slot = (entry / 2) as usize % self.cb.capacity();
            if slot >= self.cb.resident(side, now) {
                lane.events
                    .emit_at(TraceEventKind::BenignFault, strike.site.bit_offset, now);
                return Some(StrikeVerdict::Neutral);
            }
            slot
        };
        let hit = match strike.site.target {
            UncoreTarget::CbData => self
                .cb
                .corrupt_entry(side, slot, strike.site.bit_offset, now),
            _ => self
                .cb
                .corrupt_fingerprint(side, slot, strike.site.bit_offset, now),
        };
        debug_assert!(hit, "the struck slot is resident");
        // The fingerprint check at pair completion (or bus grant)
        // would refuse to drain this entry; the EIH treats the
        // mismatch like any other detection and runs recovery, with
        // the struck side as the erroneous core.
        lane.events
            .emit_at(TraceEventKind::Detection, strike.site.bit_offset, now);
        let recovery_end = self.recover(mem, lane, side);
        self.recovery_window = Some((recovery_end, side ^ 1));
        Some(StrikeVerdict::Perturbed)
    }

    /// The §III-A always-forward recovery procedure. Returns the cycle
    /// at which both cores resume.
    fn recover(&mut self, mem: &mut MemSystem, lane: &mut LaneState, bad: usize) -> u64 {
        let good = bad ^ 1;
        let now = lane.now();
        // 1: detection fires, the EIH signals RECOVERY, both cores stop.
        let stall_start = now + self.ucfg.detection_latency as u64 + self.ucfg.eih_latency as u64;
        // 2: flush the erroneous pipeline.
        let flushed = stall_start + self.ucfg.flush_cycles as u64;
        // 3: copy architectural state and the L1 content through the
        // shared L2.
        let word_beats = mem.config().word_transfer_beats() as u64;
        let reg_copy = 2 * 64 * word_beats; // 64 registers out and back in
        let l1_copy = mem.l1_copy_cost(mem.l1d(lane.core_base + good).valid_lines() as u64);
        // 4 & 5: in-flight CB drains complete; the erroneous CB is
        // overwritten from the error-free one.
        self.cb.overwrite_from(good, flushed, mem);
        let recovery_end = flushed + reg_copy + l1_copy;

        // Functional recovery: the erroneous core receives the error-free
        // core's architectural state (and, via the CB overwrite, its
        // pending store values).
        let good_state = lane.arch[good].clone();
        lane.arch[bad].copy_from(&good_state);
        // The erroneous side's unmatched entries are overwritten; the
        // good core will still produce them — the good copy defines the
        // pair.
        lane.pending.sync_replica(good, bad);
        // Newly matched stores commit architecturally.
        lane.commit_matched_pending();
        // The erroneous L1 was replaced wholesale by the copy.
        let good_l1 = mem.l1d(lane.core_base + good).clone();
        *mem.l1d_mut(lane.core_base + bad) = good_l1;

        // 6: both cores resume. A second fault handled in the same
        // `after_instruction` call reads the lane clock before the
        // driver's next refresh, so raise the cache here.
        for e in lane.engines.iter_mut() {
            e.stall_until(recovery_end);
        }
        // Stamp the span boundaries at their architectural points: the
        // procedure begins once detection + EIH latency elapse, and
        // ends when both cores resume (`bump_clock` would otherwise
        // clamp the start stamp up to `recovery_end`).
        lane.events
            .emit_at(TraceEventKind::RecoveryStart, 0, stall_start);
        lane.bump_clock(recovery_end);
        lane.events.emit_at(
            TraceEventKind::RecoveryEnd,
            recovery_end - now,
            recovery_end,
        );
        recovery_end
    }
}

/// §III-B1 placement: DMR on every-cycle elements, parity on everything
/// else, 1-bit line parity on the L1 arrays included. Adjacent double-bit
/// upsets flip an even number of bits: invisible to parity (the §VIII
/// multi-bit hole), detected by DMR (any difference).
fn parity_invisible(f: &PairFault) -> bool {
    f.kind == FaultKind::AdjacentDouble
        && !matches!(f.site.target, FaultTarget::Pc | FaultTarget::PipelineRegs)
}

fn strikes_l1(f: &PairFault) -> bool {
    matches!(f.site.target, FaultTarget::L1Data | FaultTarget::L1Tag)
}

impl RedundancyPolicy for UnsyncPolicy {
    type Hooks = NullHooks;

    fn name(&self) -> &'static str {
        self.name
    }

    fn l1_write_policy(&self) -> WritePolicy {
        self.l1_policy
    }

    fn hooks_mut(&mut self, core: usize) -> &mut NullHooks {
        &mut self.hooks[core]
    }

    /// Timing: the write-through copy enters this core's CB; once both
    /// cores have produced a store, one copy becomes architectural.
    fn store_executed(
        &mut self,
        mem: &mut MemSystem,
        lane: &mut LaneState,
        _inst: &Inst,
        core: usize,
        seq: u64,
        addr: u64,
        _result: u64,
        timing: InstTiming,
    ) {
        let line = addr / 64;
        let done = self.cb.push(core, seq, line, timing.commit, mem);
        if done > timing.commit {
            lane.engines[core].backpressure_until(done);
        }
        // Both sides present ⇒ one copy is architecturally committed
        // (drain scheduled inside `push`).
        if let Some(p) = lane.pending.take_matched(seq) {
            lane.committed_mem.write(p.addr[0], p.value[0]);
        }
    }

    /// Faults striking this instruction: detection by the per-element
    /// hardware blocks, then always-forward recovery from the other
    /// core. Detected strikes on both cores at once are unrecoverable.
    fn after_instruction(
        &mut self,
        mem: &mut MemSystem,
        lane: &mut LaneState,
        _inst: &Inst,
        seq: u64,
        faults: &[PairFault],
        _first_attempt: bool,
    ) {
        // Detected strikes on both cores at one instruction leave no
        // error-free core to recover from: neither copy is clean. L1
        // array strikes do not count: under write-through the L2 holds
        // a clean copy of every line, and under write-back the Fig. 2
        // hazard below decides.
        let mut struck = [false; 2];
        for f in faults {
            if !strikes_l1(f) && !parity_invisible(f) {
                struck[f.core] = true;
            }
        }
        if struck == [true; 2] {
            lane.events.emit(TraceEventKind::Detection);
            lane.events.emit(TraceEventKind::Unrecoverable);
            return;
        }
        for f in faults {
            debug_assert_eq!(f.at, seq, "per-instruction segments");
            let bad = f.core;
            let good = bad ^ 1;

            // Fig. 2 hazard: write-back L1, second strike hits the
            // error-free core's L1 while its dirty lines are the only
            // correct copy (a recovery is in flight sourcing from it).
            if self.l1_policy == WritePolicy::WriteBack {
                if let Some((window_end, source)) = self.recovery_window {
                    let now = lane.now();
                    if now <= window_end
                        && bad == source
                        && strikes_l1(f)
                        && mem.l1d(lane.core_base + source).dirty_lines() > 0
                    {
                        lane.events.emit(TraceEventKind::Detection);
                        lane.events.emit(TraceEventKind::Unrecoverable);
                        continue;
                    }
                }
            }

            if parity_invisible(f) {
                // Undetected: the corruption becomes architectural.
                match f.site.target {
                    FaultTarget::RegisterFile => {
                        let reg = (f.site.bit_offset / 64) as usize % 64;
                        let bit = (f.site.bit_offset % 63) as u32;
                        let regs = lane.arch[bad].regs_mut();
                        regs[reg] ^= 0b11 << bit;
                    }
                    _ => {
                        // Data-array class: a stale line in memory.
                        let addr = (f.site.bit_offset & !7) % (1 << 20);
                        let v = lane.committed_mem.read(0x1000_0000 + addr);
                        lane.committed_mem
                            .write(0x1000_0000 + addr, v ^ (0b11 << (f.site.bit_offset % 63)));
                    }
                }
                lane.events.emit(TraceEventKind::SilentFault);
                continue;
            }

            // Apply the corruption to the struck core's state. (The
            // recovery below erases it; modelling it keeps the
            // correctness check honest.)
            if f.site.target == FaultTarget::RegisterFile {
                let reg = (f.site.bit_offset / 64) as usize % 64;
                let bit = (f.site.bit_offset % 64) as u32;
                lane.arch[bad].regs_mut()[reg] ^= 1 << bit;
            }
            if f.site.target == FaultTarget::Lsq {
                for v in lane.pending.values_mut(bad) {
                    *v ^= 1 << (f.site.bit_offset % 64);
                }
            }

            // Every strike is detected (full-coverage placement).
            lane.events.emit(TraceEventKind::Detection);
            let recovery_end = self.recover(mem, lane, bad);
            self.recovery_window = Some((recovery_end, good));
        }
    }

    fn finish(&mut self, mem: &mut MemSystem, lane: &mut LaneState) {
        // A directed CB strike the run never refilled for dies benign:
        // the buffer held nothing strikeable for the rest of the run.
        if let Some(strike) = self.pending_cb_strike.take() {
            if self.try_cb_strike(mem, lane, &strike).is_none() {
                lane.events.emit_at(
                    TraceEventKind::BenignFault,
                    strike.site.bit_offset,
                    lane.now(),
                );
            }
        }
        lane.events
            .emit_value(TraceEventKind::CbDrain, self.cb.drained);
        lane.events.emit_value(
            TraceEventKind::CbFullStall,
            self.cb.stats[0].full_stall_cycles + self.cb.stats[1].full_stall_cycles,
        );
    }

    /// The full §III-B1 profile: SECDED on the shared L2 arrays, parity
    /// on the MSHRs, duplicated bank arbiters, and the fingerprinted CB.
    fn uncore_protection(&self) -> UncoreProtection {
        UncoreProtection::unsync()
    }

    /// Delivers any pending liveness-conditioned CB strike once the
    /// buffer has refilled (see [`UnsyncPolicy::uncore_strike`]);
    /// per-instruction segments always commit.
    fn end_segment(
        &mut self,
        mem: &mut MemSystem,
        lane: &mut LaneState,
        insts: &[Inst],
        start: usize,
        end: usize,
        attempt: u32,
    ) -> SegmentVerdict {
        let _ = (insts, start, end, attempt);
        if let Some(strike) = self.pending_cb_strike {
            if self.try_cb_strike(mem, lane, &strike).is_some() {
                self.pending_cb_strike = None;
            }
        }
        SegmentVerdict::Commit
    }

    /// CB strikes hit the *real* buffer this policy owns: the struck
    /// entry is corrupted in place, its fingerprint can no longer
    /// verify, and the machine runs the §III-A recovery procedure (the
    /// error-free side's CB overwrites the struck one — recovery step
    /// 5). A *directed* (liveness-conditioned) strike that finds the
    /// buffer momentarily empty pends until the struck side next holds
    /// an entry — CB residency is bursty (entries live only between
    /// push and bus drain), so conditioning on occupancy means
    /// rejection-sampling in time, not just in space. Every other
    /// structure takes the generic mechanism-table delivery.
    ///
    /// A uniform strike on an empty slot is [`StrikeVerdict::Neutral`];
    /// a pending strike and a recovery are perturbed.
    fn uncore_strike(
        &mut self,
        mem: &mut MemSystem,
        lane: &mut LaneState,
        strike: &UncoreStrike,
    ) -> StrikeVerdict {
        match strike.site.target {
            UncoreTarget::CbData | UncoreTarget::CbTag => {
                self.try_cb_strike(mem, lane, strike).unwrap_or_else(|| {
                    self.pending_cb_strike = Some(*strike);
                    StrikeVerdict::Perturbed
                })
            }
            _ => unsync_exec::uncore::deliver(&self.uncore_protection(), mem, lane, strike),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsync_exec::TraceEventKind::{CbDrain, CbFullStall};
    use unsync_fault::FaultSite;
    use unsync_workloads::{Benchmark, WorkloadGen};

    fn trace(n: u64, seed: u64) -> TraceProgram {
        WorkloadGen::new(Benchmark::Gzip, n, seed).collect_trace()
    }

    fn pair() -> UnsyncPair {
        UnsyncPair::new(CoreConfig::table1(), UnsyncConfig::paper_baseline())
    }

    fn fault(at: u64, core: usize, target: FaultTarget, bit: u64) -> PairFault {
        PairFault {
            at,
            core,
            site: FaultSite {
                target,
                bit_offset: bit,
            },
            kind: unsync_fault::FaultKind::Single,
        }
    }

    #[test]
    fn error_free_run_is_correct_and_complete() {
        let t = trace(3_000, 1);
        let out = pair().run(&t, &[]);
        assert_eq!(out.committed, 3_000);
        assert_eq!(out.detections, 0);
        assert_eq!(out.recoveries, 0);
        assert!(out.correct(), "{out:?}");
        assert!(
            out.events.sum(CbDrain) > 0,
            "stores must drain through the CB"
        );
    }

    #[test]
    fn every_fault_target_is_detected_and_recovered() {
        use unsync_fault::inject::ALL_TARGETS;
        for (k, &target) in ALL_TARGETS.iter().enumerate() {
            let t = trace(2_000, 2);
            let faults = [fault(600 + k as u64, k % 2, target, 37 + k as u64)];
            let out = pair().run(&t, &faults);
            assert_eq!(out.detections, 1, "{target:?}");
            assert_eq!(out.recoveries, 1, "{target:?}");
            assert_eq!(out.silent_faults, 0, "{target:?}");
            assert!(out.correct(), "{target:?}: {out:?}");
        }
    }

    #[test]
    fn register_file_fault_is_recovered_unlike_reunion() {
        // The §VI-D contrast: the exact fault class that defeats Reunion
        // (ARF strike read in a later interval) is a plain recovery here.
        let t = trace(2_000, 3);
        let faults = [fault(100, 1, FaultTarget::RegisterFile, 5 * 64 + 3)];
        let out = pair().run(&t, &faults);
        assert_eq!(out.recoveries, 1);
        assert!(out.correct(), "{out:?}");
    }

    #[test]
    fn recovery_costs_many_cycles() {
        // "Our recovery mechanism has a higher overhead" (§I) — the
        // whole-L1 copy dominates.
        let t = trace(5_000, 4);
        let clean = pair().run(&t, &[]);
        let faults = [fault(2_500, 0, FaultTarget::Lsq, 11)];
        let faulty = pair().run(&t, &faults);
        assert!(
            faulty.cycles > clean.cycles + 1_000,
            "{} vs {}",
            faulty.cycles,
            clean.cycles
        );
        assert!(faulty.recovery_stall_cycles > 1_000);
        assert!(faulty.correct());
    }

    #[test]
    fn small_cb_stalls_store_heavy_workloads() {
        // The Fig. 6 mechanism.
        let t = WorkloadGen::new(Benchmark::Qsort, 10_000, 5).collect_trace();
        let tiny =
            UnsyncPair::new(CoreConfig::table1(), UnsyncConfig::with_cb_entries(2)).run(&t, &[]);
        let large =
            UnsyncPair::new(CoreConfig::table1(), UnsyncConfig::with_cb_entries(512)).run(&t, &[]);
        assert!(
            tiny.events.sum(CbFullStall) > large.events.sum(CbFullStall),
            "tiny {} vs large {}",
            tiny.events.sum(CbFullStall),
            large.events.sum(CbFullStall)
        );
        // Allow tiny scheduling perturbations; the stall comparison above
        // is the real invariant.
        assert!(tiny.cycles as f64 >= large.cycles as f64 * 0.98);
    }

    #[test]
    fn write_back_double_strike_is_unrecoverable() {
        // Fig. 2: error on core 0; during the recovery window a second
        // strike hits the error-free core 1's dirty L1 line.
        let t = trace(4_000, 6);
        let faults = [
            fault(1_000, 0, FaultTarget::RegisterFile, 3),
            fault(1_000, 1, FaultTarget::L1Data, 999),
        ];
        let wb_policy = UnsyncPolicy::new(
            "unsync_pair",
            UnsyncConfig::default(),
            WritePolicy::WriteBack,
            0,
        );
        let lane = Lane {
            faults: faults.to_vec(),
            ..Lane::new(&t)
        };
        let wb = RedundantDriver::new(CoreConfig::table1())
            .run(&mut [wb_policy], vec![lane])
            .0
            .remove(0);
        assert_eq!(wb.unrecoverable, 1, "{wb:?}");
        assert!(!wb.correct());
        // The same double strike under write-through is just two
        // recoveries: the L2 always holds a correct copy.
        let wt = pair().run(&t, &faults);
        assert_eq!(wt.unrecoverable, 0);
        assert_eq!(wt.recoveries, 2);
        assert!(wt.correct(), "{wt:?}");
    }

    #[test]
    fn unsync_is_near_baseline_on_serializing_workloads() {
        // The Fig. 4 contrast: bzip2's 2 % serializing instructions barely
        // affect UnSync (no synchronization to wait for).
        use unsync_sim::run_baseline;
        let mut stream = WorkloadGen::new(Benchmark::Bzip2, 20_000, 7);
        let base = run_baseline(CoreConfig::table1(), &mut stream);
        let t = WorkloadGen::new(Benchmark::Bzip2, 20_000, 7).collect_trace();
        let us = pair().run(&t, &[]);
        let overhead = us.cycles as f64 / base.core.last_commit_cycle as f64 - 1.0;
        assert!(overhead < 0.10, "UnSync overhead on bzip2 = {overhead}");
    }

    #[test]
    fn adjacent_double_upsets_defeat_line_parity() {
        let t = trace(4_000, 15);
        let mbu = PairFault {
            at: 1_500,
            core: 0,
            site: FaultSite {
                target: FaultTarget::L1Data,
                bit_offset: 4096,
            },
            kind: FaultKind::AdjacentDouble,
        };
        // The paper's 1-bit line parity: even flips are invisible.
        let parity = pair().run(&t, &[mbu]);
        assert_eq!(parity.silent_faults, 1, "{parity:?}");
        assert_eq!(parity.recoveries, 0);
        assert!(!parity.correct());
    }

    #[test]
    fn deterministic_outcomes() {
        let t = trace(1_500, 8);
        let faults = [fault(700, 0, FaultTarget::Rob, 5)];
        assert_eq!(pair().run(&t, &faults), pair().run(&t, &faults));
    }

    /// A CMP of one UnSync pair per trace over one shared memory system
    /// (the paper's Fig. 1 topology): pair `p` on cores `2p` and `2p + 1`.
    fn run_system(traces: &[TraceProgram]) -> (Vec<RunResult>, MemSystem) {
        let mut policies: Vec<UnsyncPolicy> = (0..traces.len())
            .map(|p| {
                let ucfg = UnsyncConfig::paper_baseline();
                UnsyncPolicy::new("unsync_pair", ucfg, WritePolicy::WriteThrough, 2 * p)
            })
            .collect();
        RedundantDriver::new(CoreConfig::table1()).run_system(&mut policies, traces)
    }

    /// Cross-pair coherence invalidations absorbed by pair `p`'s cores.
    fn invalidations(mem: &MemSystem, p: usize) -> u64 {
        mem.invalidations(2 * p) + mem.invalidations(2 * p + 1)
    }

    #[test]
    fn single_pair_system_matches_pair_scale() {
        let t = WorkloadGen::new(Benchmark::Gzip, 10_000, 3).collect_trace();
        let (out, _) = run_system(std::slice::from_ref(&t));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].committed, 10_000);
        assert!(out[0].ipc() > 0.01);
    }

    #[test]
    fn two_pairs_run_independent_workloads() {
        let ta = WorkloadGen::new(Benchmark::Sha, 10_000, 3).collect_trace();
        let tb = WorkloadGen::new(Benchmark::Mcf, 10_000, 3).collect_trace();
        let (out, _) = run_system(&[ta, tb]);
        assert_eq!(out.len(), 2);
        // sha (cache-resident) must sustain much higher IPC than mcf.
        assert!(out[0].ipc() > 4.0 * out[1].ipc());
    }

    #[test]
    fn l2_contention_slows_a_pair_down() {
        // The same workload, alone vs. next to an L2-thrashing neighbour.
        // Distinct address spaces: the neighbour is another process.
        let t = WorkloadGen::new_at(Benchmark::Equake, 15_000, 5, 0x1000_0000).collect_trace();
        let hog = WorkloadGen::new_at(Benchmark::Mcf, 15_000, 6, 0x9000_0000).collect_trace();
        let alone = run_system(std::slice::from_ref(&t)).0[0].cycles;
        let contended = run_system(&[t, hog]).0[0].cycles;
        assert!(
            contended >= alone,
            "shared-L2 contention cannot speed the pair up: {contended} vs {alone}"
        );
    }

    #[test]
    fn overlapping_address_spaces_cause_coherence_traffic() {
        // Two pairs sharing one data segment: each pair's drains
        // invalidate the other's cached copies.
        let ta = WorkloadGen::new(Benchmark::Qsort, 8_000, 5).collect_trace();
        let tb = WorkloadGen::new(Benchmark::Qsort, 8_000, 6).collect_trace();
        let (_, shared) = run_system(&[ta, tb]);
        let counts: Vec<u64> = (0..2).map(|p| invalidations(&shared, p)).collect();
        assert!(counts.iter().any(|&n| n > 0), "{counts:?}");
        // Disjoint address spaces: none.
        let tc = WorkloadGen::new_at(Benchmark::Qsort, 8_000, 5, 0x1000_0000).collect_trace();
        let td = WorkloadGen::new_at(Benchmark::Qsort, 8_000, 6, 0x9000_0000).collect_trace();
        let (_, disjoint) = run_system(&[tc, td]);
        assert!((0..2).all(|p| invalidations(&disjoint, p) == 0));
    }

    #[test]
    fn pairs_of_different_lengths_all_complete() {
        let short = WorkloadGen::new_at(Benchmark::Sha, 2_000, 1, 0x1000_0000).collect_trace();
        let long = WorkloadGen::new_at(Benchmark::Gzip, 9_000, 2, 0x9000_0000).collect_trace();
        let (out, _) = run_system(&[short, long]);
        assert_eq!(out[0].committed, 2_000);
        assert_eq!(out[1].committed, 9_000);
        assert!(out[1].cycles > out[0].cycles);
    }

    #[test]
    fn deterministic_system_runs() {
        let ta = WorkloadGen::new(Benchmark::Qsort, 5_000, 1).collect_trace();
        let tb = WorkloadGen::new(Benchmark::Fft, 5_000, 2).collect_trace();
        let traces = [ta, tb];
        let run = || {
            let (out, mem) = run_system(&traces);
            (out, mem.l2_stats().miss_rate())
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_system_rejected() {
        let _ = run_system(&[]);
    }
}
