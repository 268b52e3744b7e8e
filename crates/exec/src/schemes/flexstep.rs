//! FlexStep-style configurable comparison granularity.
//!
//! FlexStep (arXiv 2503.13848) argues the comparison interval of a
//! dual-modular scheme should be a *runtime knob*, not a fixed
//! architectural constant: fine windows detect fast but pay a
//! synchronization tax per boundary; coarse windows amortize the tax but
//! buffer more unverified stores and stretch detection latency.
//! [`FlexGranularityPolicy`] makes that trade-off measurable: two
//! replicas fold (pc, result) pairs into CRC-16 fingerprints, compared
//! every [`FlexConfig::window`] instructions — sweepable from 1 (per
//! instruction, lockstep-like) to 1024 (checkpoint-like).
//!
//! Two monotone invariants pin the sweep (asserted by
//! `tests/flex_granularity.rs`, for doubling window sweeps):
//!
//! * **compare count never increases** with the window — boundaries are
//!   `⌈n/W⌉` plus one re-check per rollback;
//! * **detection latency never decreases** — an in-window strike at `at`
//!   is caught at its window boundary, `W − (at mod W)` instructions
//!   later, and each [`TraceEventKind::Detection`] event carries that
//!   latency as its value.
//!
//! Store-buffer (CB/CSB) occupancy scales with the window too: every
//! [`TraceEventKind::WindowCompared`] event carries the number of
//! pending (executed, unverified) stores observed at its boundary.
//! Mismatched windows roll back and re-execute, like Reunion; a window
//! that cannot converge (persistent architectural divergence, e.g. a
//! register-file strike detected only when read in a later window) is
//! abandoned with the replicas resynchronized.

use serde::{Deserialize, Serialize};
use unsync_fault::{FaultTarget, Fingerprint, PairFault};
use unsync_isa::{Inst, TraceProgram};
use unsync_mem::MemSystem;
use unsync_sim::{CoreConfig, NullHooks};

use crate::driver::{Lane, LaneState, RedundantDriver, RunResult};
use crate::event::TraceEventKind;
use crate::policy::{RedundancyPolicy, SegmentVerdict};

/// Consecutive mismatching re-executions of one window before the pair
/// declares the error unrecoverable and resynchronizes.
const MAX_ROLLBACK_RETRIES: u32 = 3;

/// Runtime knobs of the granularity scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlexConfig {
    /// Comparison interval in instructions (the FlexStep knob; 1 =
    /// per-instruction, lockstep-like; 1024 = checkpoint-like).
    pub(crate) window: u32,
    /// Cycles both replicas synchronize at every window boundary to
    /// exchange and compare fingerprints.
    pub(crate) compare_latency: u32,
    /// Squash/restore penalty charged per rollback, cycles.
    pub(crate) rollback_penalty: u32,
}

impl FlexConfig {
    /// The default operating point: a 128-instruction window.
    pub fn paper_baseline() -> Self {
        Self::with_window(128)
    }

    /// A configuration comparing every `window` instructions.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    pub fn with_window(window: u32) -> Self {
        assert!(window > 0, "comparison window must be at least 1");
        FlexConfig {
            window,
            compare_latency: 4,
            rollback_penalty: 24,
        }
    }
}

/// A dual-modular pair comparing at a configurable granularity. Its
/// run's `WindowCompared` events (one per compared boundary) carry the
/// pending stores seen there, its `Detection` events the latency.
///
/// # Examples
///
/// ```
/// use unsync_exec::{FlexConfig, FlexPair, TraceEventKind};
/// use unsync_sim::CoreConfig;
/// use unsync_workloads::{Benchmark, SyntheticSource, WorkloadSource};
///
/// let trace = SyntheticSource::new(Benchmark::Gzip, 2_000, 1).trace();
/// let out = FlexPair::new(CoreConfig::table1(), FlexConfig::with_window(64)).run(&trace, &[]);
/// assert_eq!(out.events.count(TraceEventKind::WindowCompared), 2_000 / 64 + 1); // ⌈n/W⌉
/// assert!(out.correct());
/// ```
pub struct FlexPair {
    ccfg: CoreConfig,
    fcfg: FlexConfig,
}

impl FlexPair {
    /// A pair with the given core and granularity configurations.
    pub fn new(ccfg: CoreConfig, fcfg: FlexConfig) -> Self {
        FlexPair { ccfg, fcfg }
    }

    /// Runs `trace` with the given faults (sorted by `at`).
    pub fn run(&self, trace: &TraceProgram, faults: &[PairFault]) -> RunResult {
        let driver = RedundantDriver::new(self.ccfg);
        let policy = FlexGranularityPolicy::new(self.fcfg);
        let mut lane = Lane::new(trace);
        lane.faults = faults.to_vec();
        driver.run(&mut [policy], vec![lane]).0.remove(0)
    }
}

/// The FlexStep-style scheme as a [`RedundancyPolicy`] (see the
/// module docs).
pub struct FlexGranularityPolicy {
    fcfg: FlexConfig,
    hooks: [NullHooks; 2],
    fps: [Fingerprint; 2],
    /// Strike points applied but not yet caught by a boundary compare —
    /// each detection's latency value is `boundary − strike`.
    pending_strikes: Vec<u64>,
}

impl FlexGranularityPolicy {
    /// A policy with the given granularity configuration.
    pub fn new(fcfg: FlexConfig) -> Self {
        assert!(fcfg.window > 0, "comparison window must be at least 1");
        FlexGranularityPolicy {
            fcfg,
            hooks: [NullHooks; 2],
            fps: [Fingerprint::new(), Fingerprint::new()],
            pending_strikes: Vec::new(),
        }
    }

    fn fault_site(
        faults: &[PairFault],
        seq: u64,
        core: usize,
        first_attempt: bool,
    ) -> Option<unsync_fault::FaultSite> {
        if !first_attempt {
            return None;
        }
        faults
            .iter()
            .find(|f| f.at == seq && f.core == core)
            .map(|f| f.site)
    }
}

impl RedundancyPolicy for FlexGranularityPolicy {
    type Hooks = NullHooks;

    fn name(&self) -> &'static str {
        "flex_step"
    }

    /// An abandoned window's divergence is functionally modelled, so the
    /// honest memory comparison is reported (like Reunion).
    fn golden_requires_recoverable(&self) -> bool {
        false
    }

    fn rolls_back(&self) -> bool {
        true
    }

    fn hooks_mut(&mut self, core: usize) -> &mut NullHooks {
        &mut self.hooks[core]
    }

    /// A segment is one comparison window — a pure arithmetic cut, so
    /// the boundary count is exactly `⌈n/W⌉` for any trace.
    fn segment_end(&self, insts: &[Inst], start: usize) -> usize {
        (start + self.fcfg.window as usize).min(insts.len())
    }

    fn begin_attempt(&mut self, _lane: &mut LaneState, _attempt: u32) {
        self.fps = [Fingerprint::new(), Fingerprint::new()];
    }

    /// Persistent-state faults: a register-file strike flips the struck
    /// register — detected only once a window reads it, the same
    /// cross-window hazard Reunion has.
    fn pre_execute(
        &mut self,
        lane: &mut LaneState,
        _inst: &Inst,
        core: usize,
        seq: u64,
        faults: &[PairFault],
        first_attempt: bool,
    ) {
        let Some(site) = Self::fault_site(faults, seq, core, first_attempt) else {
            return;
        };
        match site.target {
            FaultTarget::RegisterFile => {
                let reg = (site.bit_offset / 64) as usize % 64;
                let bit = (site.bit_offset % 64) as u32;
                lane.arch[core].regs_mut()[reg] ^= 1 << bit;
                self.pending_strikes.push(seq);
            }
            FaultTarget::L1Data | FaultTarget::L1Tag => {
                // The L1 carries SECDED, as in Reunion: corrected in place.
                lane.events.emit(TraceEventKind::CorrectedInPlace);
            }
            _ => {}
        }
    }

    /// A TLB strike on a store mistranslates its address — silently, the
    /// fingerprint does not cover addresses.
    fn effective_addr(
        &mut self,
        lane: &mut LaneState,
        inst: &Inst,
        core: usize,
        seq: u64,
        addr: u64,
        faults: &[PairFault],
        first_attempt: bool,
    ) -> u64 {
        if let Some(site) = Self::fault_site(faults, seq, core, first_attempt) {
            if site.target == FaultTarget::Tlb && inst.op.is_store() {
                lane.events.emit(TraceEventKind::SilentFault);
                return addr ^ (64 << (site.bit_offset % 16));
            }
        }
        addr
    }

    /// Transient in-pipeline faults corrupt this instruction's result —
    /// inside the fingerprint window, caught at its boundary.
    fn transform_result(
        &mut self,
        _lane: &mut LaneState,
        inst: &Inst,
        core: usize,
        seq: u64,
        result: u64,
        faults: &[PairFault],
        first_attempt: bool,
    ) -> u64 {
        let Some(site) = Self::fault_site(faults, seq, core, first_attempt) else {
            return result;
        };
        match site.target {
            FaultTarget::Pc
            | FaultTarget::PipelineRegs
            | FaultTarget::Rob
            | FaultTarget::IssueQueue
            | FaultTarget::Lsq => {
                self.pending_strikes.push(seq);
                result ^ (1 << (site.bit_offset % 64))
            }
            FaultTarget::Tlb if inst.op.is_load() => {
                self.pending_strikes.push(seq);
                result ^ (1 << (site.bit_offset % 64))
            }
            _ => result,
        }
    }

    fn executed(
        &mut self,
        _lane: &mut LaneState,
        inst: &Inst,
        core: usize,
        _seq: u64,
        result: u64,
    ) {
        self.fps[core].update(inst.pc, result);
    }

    /// The window boundary: synchronize, compare, and either commit,
    /// roll back, or abandon.
    fn end_segment(
        &mut self,
        _mem: &mut MemSystem,
        lane: &mut LaneState,
        _insts: &[Inst],
        _start: usize,
        end: usize,
        attempt: u32,
    ) -> SegmentVerdict {
        // Both replicas rendezvous for the exchange; the comparison tax
        // is what makes fine windows expensive.
        // Stamp boundary events at the window's comparison point (the
        // stream clock can lag the engines until the driver's next
        // refresh).
        let boundary = lane.now();
        lane.events.emit_at(
            TraceEventKind::WindowCompared,
            lane.pending.len() as u64,
            boundary,
        );
        let resume = boundary + self.fcfg.compare_latency as u64;
        for e in lane.engines.iter_mut() {
            e.raise_dispatch_floor(resume);
        }
        if self.fps[0].peek() == self.fps[1].peek() {
            return SegmentVerdict::Commit;
        }
        lane.events
            .emit_at(TraceEventKind::FingerprintMismatch, 0, boundary);
        // Every strike this boundary caught is one detection; the value
        // is its latency in instructions.
        for &strike in &self.pending_strikes {
            lane.events
                .emit_at(TraceEventKind::Detection, end as u64 - strike, boundary);
        }
        self.pending_strikes.clear();
        if attempt >= MAX_ROLLBACK_RETRIES {
            // Persistent divergence (cross-window register strike):
            // abandon the window and resynchronize so the run proceeds.
            lane.events
                .emit_at(TraceEventKind::Unrecoverable, 0, boundary);
            let resync = lane.arch[0].clone();
            lane.arch[1].copy_from(&resync);
            return SegmentVerdict::Abandon;
        }
        lane.events.emit_at(TraceEventKind::Rollback, 0, boundary);
        let now = lane.now() + self.fcfg.rollback_penalty as u64;
        for e in lane.engines.iter_mut() {
            e.flush_pipeline(now);
        }
        SegmentVerdict::Retry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceEventKind::{Detection, FingerprintMismatch, Rollback, WindowCompared};
    use unsync_fault::{FaultKind, FaultSite};
    use unsync_workloads::{Benchmark, SyntheticSource, WorkloadSource};

    fn trace(n: u64, seed: u64) -> TraceProgram {
        SyntheticSource::new(Benchmark::Gzip, n, seed).trace()
    }

    fn pair(window: u32) -> FlexPair {
        FlexPair::new(CoreConfig::table1(), FlexConfig::with_window(window))
    }

    /// Average pending stores observed per window boundary.
    fn occupancy(out: &RunResult) -> f64 {
        let compares = out.events.count(WindowCompared);
        out.events.sum(WindowCompared) as f64 / compares as f64
    }

    fn rob_fault(at: u64, core: usize) -> PairFault {
        PairFault {
            at,
            core,
            site: FaultSite {
                target: FaultTarget::Rob,
                bit_offset: 17,
            },
            kind: FaultKind::Single,
        }
    }

    #[test]
    fn error_free_compare_count_is_ceil_n_over_w() {
        let t = trace(2_000, 1);
        for window in [1u32, 7, 64, 1024, 5_000] {
            let out = pair(window).run(&t, &[]);
            let expect = 2_000u64.div_ceil(u64::from(window));
            assert_eq!(out.events.count(WindowCompared), expect, "window {window}");
            assert_eq!(out.events.count(FingerprintMismatch), 0);
            assert!(out.correct(), "window {window}: {out:?}");
        }
    }

    #[test]
    fn fine_windows_cost_more_than_coarse() {
        let t = trace(4_000, 2);
        let fine = pair(1).run(&t, &[]);
        let coarse = pair(512).run(&t, &[]);
        assert!(
            fine.cycles > coarse.cycles,
            "per-instruction comparison must pay the boundary tax: {} vs {}",
            fine.cycles,
            coarse.cycles
        );
    }

    #[test]
    fn coarse_windows_buffer_more_stores() {
        let t = trace(4_000, 3);
        let fine = pair(4).run(&t, &[]);
        let coarse = pair(512).run(&t, &[]);
        assert!(
            occupancy(&coarse) > occupancy(&fine),
            "{} vs {}",
            occupancy(&coarse),
            occupancy(&fine)
        );
    }

    #[test]
    fn in_window_strike_is_caught_at_its_boundary() {
        let t = trace(2_000, 4);
        let out = pair(100).run(&t, &[rob_fault(523, 1)]);
        assert_eq!(out.events.count(FingerprintMismatch), 1);
        assert_eq!(out.events.count(Rollback), 1);
        // Strike at 523, window [500, 600): caught at 600 — latency 77.
        assert_eq!(out.events.sum(Detection), 77);
        assert!(out.correct(), "{out:?}");
    }

    #[test]
    fn cross_window_register_strike_is_abandoned() {
        use unsync_isa::{OpClass, Reg, TraceProgram};
        // Window 0 writes r1 then leaves it alone; window 2 reads it.
        let insts: Vec<Inst> = (0..30u64)
            .map(|i| {
                let b = Inst::build(OpClass::IntAlu)
                    .seq(i)
                    .pc(i * 4)
                    .dest(Reg::int((i % 4 + 10) as u8));
                if i >= 20 {
                    b.src0(Reg::int(1)).finish()
                } else {
                    b.src0(Reg::int(21)).finish()
                }
            })
            .collect();
        let t = TraceProgram::new(insts);
        let f = PairFault {
            at: 5,
            core: 1,
            site: FaultSite {
                target: FaultTarget::RegisterFile,
                bit_offset: 64 + 3, // r1
            },
            kind: FaultKind::Single,
        };
        let out = pair(10).run(&t, &[f]);
        assert_eq!(out.unrecoverable, 1, "{out:?}");
        assert!(out.events.count(Rollback) >= MAX_ROLLBACK_RETRIES as u64);
        // Detected late: the strike lands at 5, the reading window ends
        // at 30 — latency spans windows.
        assert_eq!(out.events.sum(Detection), 25);
    }

    #[test]
    fn deterministic_outcomes() {
        let t = trace(1_500, 5);
        let faults = [rob_fault(321, 0)];
        let run = || pair(50).run(&t, &faults);
        assert_eq!(run(), run());
    }
}
