//! SECDED-only non-redundant baseline — the detection-coverage floor.
//!
//! One lane, one replica, no comparison of any kind: the only
//! protection is the SECDED code on the SRAM arrays (register file,
//! ROB, issue queue, LSQ, TLB, L1 data and tags), modelled with the
//! *real* codec from [`unsync_fault`] — every strike is pushed through
//! [`SecdedCodeword::encode`]/`flip_bit`/[`decode`], not a probability.
//! This is the column every redundant scheme is implicitly compared
//! against: what does duplication buy over ECC alone?
//!
//! The coverage story the scheme makes measurable:
//!
//! * **Single-bit strikes on arrays** decode as
//!   [`SecdedOutcome::Corrected`] — repaired in place
//!   ([`TraceEventKind::CorrectedInPlace`]), execution unperturbed.
//! * **Adjacent double-bit strikes on arrays** decode as
//!   [`SecdedOutcome::DoubleError`] — *detected* (SECDED's "DED" half)
//!   but uncorrectable with no redundant copy to recover from:
//!   [`TraceEventKind::Detection`] + [`TraceEventKind::Unrecoverable`],
//!   and the corrupted value proceeds architecturally.
//! * **Strikes on unprotected latches** (PC, pipeline registers) have
//!   no code covering them at all: [`TraceEventKind::SilentFault`], the
//!   flipped result simply commits.
//!
//! [`decode`]: SecdedCodeword::decode

use unsync_fault::{FaultKind, FaultSite, FaultTarget, PairFault, SecdedCodeword, SecdedOutcome};
use unsync_isa::{Inst, TraceProgram};
use unsync_sim::{CoreConfig, NullHooks};

use crate::driver::{Lane, LaneState, RedundantDriver, RunResult};
use crate::event::TraceEventKind;
use crate::policy::RedundancyPolicy;

/// Cycles a detected-but-uncorrectable double error stalls the core
/// (machine-check reporting) before execution proceeds corrupted.
const DOUBLE_ERROR_STALL: u64 = 8;

/// A single non-redundant core protected only by array SECDED. Its
/// run's events count in-place corrections (`CorrectedInPlace`) and
/// double errors (`Unrecoverable`).
///
/// # Examples
///
/// ```
/// use unsync_exec::{SecdedOnlyCore, TraceEventKind};
/// use unsync_sim::CoreConfig;
/// use unsync_workloads::{Benchmark, SyntheticSource, WorkloadSource};
///
/// let trace = SyntheticSource::new(Benchmark::Sha, 2_000, 1).trace();
/// let out = SecdedOnlyCore::new(CoreConfig::table1()).run(&trace, &[]);
/// assert!(out.correct());
/// assert_eq!(out.events.count(TraceEventKind::CorrectedInPlace), 0);
/// ```
pub struct SecdedOnlyCore {
    ccfg: CoreConfig,
}

impl SecdedOnlyCore {
    /// A baseline core with the given configuration.
    pub fn new(ccfg: CoreConfig) -> Self {
        SecdedOnlyCore { ccfg }
    }

    /// Runs `trace` with the given faults (sorted by `at`; every
    /// fault's `core` must be `0` — there is only one replica).
    pub fn run(&self, trace: &TraceProgram, faults: &[PairFault]) -> RunResult {
        let driver = RedundantDriver::new(self.ccfg);
        let mut lane = Lane::new(trace);
        lane.faults = faults.to_vec();
        let policy = SecdedOnlyPolicy::new();
        driver.run(&mut [policy], vec![lane]).0.remove(0)
    }
}

/// The SECDED-only baseline as a [`RedundancyPolicy`] (see the
/// module docs).
pub struct SecdedOnlyPolicy {
    hooks: NullHooks,
}

impl SecdedOnlyPolicy {
    /// A fresh policy.
    pub fn new() -> Self {
        SecdedOnlyPolicy { hooks: NullHooks }
    }

    /// Whether the struck structure is an SRAM array carrying SECDED
    /// (as opposed to unprotected pipeline latches).
    fn is_protected_array(target: FaultTarget) -> bool {
        !matches!(target, FaultTarget::Pc | FaultTarget::PipelineRegs)
    }

    /// Pushes the strike through the real codec against `witness` (the
    /// value the struck entry holds) and returns the decode outcome.
    fn scrub(site: FaultSite, kind: FaultKind, witness: u64) -> SecdedOutcome {
        let mut cw = SecdedCodeword::encode(witness);
        match kind {
            // Codeword position 0 sits outside the Hamming syndrome;
            // strikes land on 1..=71 (and 1..=70 for adjacent pairs).
            FaultKind::Single => cw.flip_bit(1 + (site.bit_offset % 71) as u32),
            FaultKind::AdjacentDouble => {
                let b = 1 + (site.bit_offset % 70) as u32;
                cw.flip_bit(b);
                cw.flip_bit(b + 1);
            }
        }
        cw.decode()
    }

    /// Records the decode outcome's events; returns `true` when the
    /// strike was a double error (caller applies the corruption).
    fn record(lane: &mut LaneState, outcome: SecdedOutcome) -> bool {
        match outcome {
            SecdedOutcome::Clean(_) | SecdedOutcome::Corrected { .. } => {
                lane.events.emit(TraceEventKind::CorrectedInPlace);
                false
            }
            SecdedOutcome::DoubleError => {
                lane.events.emit(TraceEventKind::Detection);
                lane.events.emit(TraceEventKind::Unrecoverable);
                let stall = lane.now() + DOUBLE_ERROR_STALL;
                for e in lane.engines.iter_mut() {
                    e.stall_until(stall);
                }
                // This can run mid-step (from a transform callback), so
                // the driver won't refresh the clock cache until the
                // instruction completes.
                lane.bump_clock(stall);
                true
            }
        }
    }

    fn fault_site(faults: &[PairFault], seq: u64) -> Option<(FaultSite, FaultKind)> {
        faults
            .iter()
            .find(|f| f.at == seq)
            .map(|f| (f.site, f.kind))
    }
}

impl Default for SecdedOnlyPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl RedundancyPolicy for SecdedOnlyPolicy {
    type Hooks = NullHooks;

    fn name(&self) -> &'static str {
        "secded_only"
    }

    fn replicas(&self) -> usize {
        1
    }

    /// ECC on the L2 arrays and nothing else — no CB, no MSHR parity,
    /// no arbiter duplication. The uncore campaign measures exactly
    /// what that buys (and what it doesn't).
    fn uncore_protection(&self) -> unsync_fault::uncore::UncoreProtection {
        unsync_fault::uncore::UncoreProtection::l2_secded_only()
    }

    fn hooks_mut(&mut self, _core: usize) -> &mut NullHooks {
        &mut self.hooks
    }

    /// Register-file strikes: the codec runs against the struck
    /// register's value; only a double error corrupts it.
    fn pre_execute(
        &mut self,
        lane: &mut LaneState,
        _inst: &Inst,
        _core: usize,
        seq: u64,
        faults: &[PairFault],
        first_attempt: bool,
    ) {
        if !first_attempt {
            return;
        }
        let Some((site, kind)) = Self::fault_site(faults, seq) else {
            return;
        };
        if site.target != FaultTarget::RegisterFile {
            return;
        }
        let reg = (site.bit_offset / 64) as usize % 64;
        let witness = lane.arch[0].regs()[reg];
        if Self::record(lane, Self::scrub(site, kind, witness)) {
            lane.arch[0].regs_mut()[reg] ^= 0b11 << (site.bit_offset % 63);
        }
    }

    /// TLB strikes on stores: a double error mistranslates the address
    /// — detected (the entry's code screams) but there is no second
    /// replica whose address could disagree.
    fn effective_addr(
        &mut self,
        lane: &mut LaneState,
        inst: &Inst,
        _core: usize,
        seq: u64,
        addr: u64,
        faults: &[PairFault],
        first_attempt: bool,
    ) -> u64 {
        if !first_attempt {
            return addr;
        }
        let Some((site, kind)) = Self::fault_site(faults, seq) else {
            return addr;
        };
        if site.target != FaultTarget::Tlb || !inst.op.is_store() {
            return addr;
        }
        if Self::record(lane, Self::scrub(site, kind, addr)) {
            addr ^ (64 << (site.bit_offset % 16))
        } else {
            addr
        }
    }

    /// Everything else lands on the computed result: protected arrays
    /// run the codec (double errors corrupt two adjacent bits),
    /// unprotected latches corrupt silently.
    fn transform_result(
        &mut self,
        lane: &mut LaneState,
        inst: &Inst,
        _core: usize,
        seq: u64,
        result: u64,
        faults: &[PairFault],
        first_attempt: bool,
    ) -> u64 {
        if !first_attempt {
            return result;
        }
        let Some((site, kind)) = Self::fault_site(faults, seq) else {
            return result;
        };
        match site.target {
            FaultTarget::RegisterFile => result,
            FaultTarget::Tlb if inst.op.is_store() => result,
            t if Self::is_protected_array(t) => {
                if Self::record(lane, Self::scrub(site, kind, result)) {
                    result ^ (0b11 << (site.bit_offset % 63))
                } else {
                    result
                }
            }
            _ => {
                // PC / pipeline-register latch: nothing covers it.
                lane.events.emit(TraceEventKind::SilentFault);
                result ^ (1 << (site.bit_offset % 64))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceEventKind::{CorrectedInPlace, Unrecoverable};
    use unsync_fault::inject::ALL_TARGETS;
    use unsync_workloads::{Benchmark, SyntheticSource, WorkloadSource};

    fn trace(n: u64, seed: u64) -> TraceProgram {
        SyntheticSource::new(Benchmark::Sha, n, seed).trace()
    }

    fn fault(at: u64, target: FaultTarget, kind: FaultKind) -> PairFault {
        PairFault {
            at,
            core: 0,
            site: FaultSite {
                target,
                bit_offset: 5,
            },
            kind,
        }
    }

    #[test]
    fn error_free_run_is_correct() {
        let t = trace(2_000, 1);
        let out = SecdedOnlyCore::new(CoreConfig::table1()).run(&t, &[]);
        assert_eq!(out.committed, 2_000);
        assert!(out.cycles > 0);
        assert!(out.correct(), "{out:?}");
        assert_eq!(out.events.count(CorrectedInPlace), 0);
        assert_eq!(out.events.count(Unrecoverable), 0);
    }

    #[test]
    fn single_bit_strikes_on_arrays_are_corrected_in_place() {
        let t = trace(2_000, 2);
        for &target in ALL_TARGETS
            .iter()
            .filter(|&&t| SecdedOnlyPolicy::is_protected_array(t))
        {
            let out = SecdedOnlyCore::new(CoreConfig::table1())
                .run(&t, &[fault(700, target, FaultKind::Single)]);
            assert!(out.correct(), "{target:?}: {out:?}");
            assert_eq!(out.events.count(CorrectedInPlace), 1, "{target:?}");
            assert_eq!(out.detections, 0, "{target:?}");
            assert_eq!(out.events.count(Unrecoverable), 0, "{target:?}");
        }
    }

    #[test]
    fn adjacent_double_strikes_are_detected_but_uncorrectable() {
        let t = trace(2_000, 3);
        let out = SecdedOnlyCore::new(CoreConfig::table1()).run(
            &t,
            &[fault(700, FaultTarget::Rob, FaultKind::AdjacentDouble)],
        );
        assert_eq!(out.detections, 1);
        assert_eq!(out.events.count(Unrecoverable), 1);
        assert_eq!(out.events.count(CorrectedInPlace), 0);
        assert!(!out.correct(), "{out:?}");
    }

    #[test]
    fn latch_strikes_are_silent() {
        let t = trace(2_000, 4);
        for target in [FaultTarget::Pc, FaultTarget::PipelineRegs] {
            let out = SecdedOnlyCore::new(CoreConfig::table1())
                .run(&t, &[fault(700, target, FaultKind::Single)]);
            assert_eq!(out.silent_faults, 1, "{target:?}");
            assert_eq!(out.detections, 0, "{target:?}");
            assert!(!out.correct(), "{target:?}: {out:?}");
        }
    }

    #[test]
    fn double_errors_stall_the_core() {
        let t = trace(2_000, 5);
        let clean = SecdedOnlyCore::new(CoreConfig::table1()).run(&t, &[]);
        let faults: Vec<PairFault> = (0..10)
            .map(|i| fault(100 + i * 150, FaultTarget::Lsq, FaultKind::AdjacentDouble))
            .collect();
        let struck = SecdedOnlyCore::new(CoreConfig::table1()).run(&t, &faults);
        assert!(
            struck.cycles > clean.cycles,
            "{} vs {}",
            struck.cycles,
            clean.cycles
        );
    }

    #[test]
    fn deterministic_outcomes() {
        let t = trace(1_500, 6);
        let faults = [fault(321, FaultTarget::L1Data, FaultKind::Single)];
        let run = || SecdedOnlyCore::new(CoreConfig::table1()).run(&t, &faults);
        assert_eq!(run(), run());
    }
}
