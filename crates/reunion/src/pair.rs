//! A full vocal/mute Reunion pair with functional state and faults.
//!
//! Where [`crate::hooks::ReunionHooks`] models only *timing*, the pair
//! executes the program functionally on both cores, folds real results
//! into real CRC-16 fingerprints, compares them at every interval
//! boundary, and performs rollback recovery on mismatch. Execution
//! routes through the shared [`unsync_exec::RedundantDriver`]; this
//! module contributes the [`ReunionPolicy`] implementation of
//! [`unsync_exec::RedundancyPolicy`] — fingerprint-interval
//! segmentation, fault application, and the rollback/abandon verdicts.
//! Fault injection then demonstrates the §VI-D region-of-error-coverage
//! boundary concretely:
//!
//! * in-pipeline strikes (ROB, IQ, LSQ, pipeline registers, PC) corrupt
//!   one instruction's result → the next fingerprint comparison catches
//!   them and rollback re-executes cleanly;
//! * L1 strikes are absorbed by the (assumed) SECDED ECC;
//! * architectural-register strikes land *outside* the fingerprint
//!   window: the cores' register files diverge permanently, every
//!   subsequent interval touching the value mismatches, and rollback —
//!   which restores each core's *own* snapshot, corruption included —
//!   cannot converge. Reunion has no mechanism to repair them;
//! * a TLB strike on a store's translation silently writes memory at the
//!   wrong address — the fingerprint summarizes (pc, result), not store
//!   addresses, so nothing ever fires.

use unsync_exec::{
    Lane, LaneState, RedundancyPolicy, RedundantDriver, RunResult, SegmentVerdict, TraceEventKind,
};
use unsync_fault::{FaultTarget, Fingerprint, PairFault};
use unsync_isa::{Inst, TraceProgram};
use unsync_mem::MemSystem;
use unsync_sim::CoreConfig;

use crate::config::ReunionConfig;
use crate::hooks::ReunionHooks;

/// How many consecutive mismatching re-executions of one interval before
/// the pair declares the error unrecoverable (divergent architectural
/// state).
const MAX_ROLLBACK_RETRIES: u32 = 3;

/// The vocal/mute Reunion pair. Its run's events count fingerprint
/// mismatches, rollbacks and L1 strikes absorbed by ECC
/// (`CorrectedInPlace`).
///
/// # Examples
///
/// ```
/// use unsync_reunion::{ReunionConfig, ReunionPair};
/// use unsync_sim::CoreConfig;
/// use unsync_workloads::{Benchmark, WorkloadGen};
///
/// let trace = WorkloadGen::new(Benchmark::Gzip, 3_000, 7).collect_trace();
/// let pair = ReunionPair::new(CoreConfig::table1(), ReunionConfig::paper_baseline());
/// let out = pair.run(&trace, &[]);
/// assert_eq!(out.committed, 3_000);
/// assert!(out.correct());
/// ```
pub struct ReunionPair {
    rcfg: ReunionConfig,
    ccfg: CoreConfig,
}

impl ReunionPair {
    /// A pair with the given core and Reunion configurations.
    pub fn new(ccfg: CoreConfig, rcfg: ReunionConfig) -> Self {
        rcfg.validate().expect("Reunion config must be valid");
        ReunionPair { rcfg, ccfg }
    }

    /// Runs `trace` to completion with the given faults (empty slice =
    /// error-free execution). Faults must be sorted by `at`.
    pub fn run(&self, trace: &TraceProgram, faults: &[PairFault]) -> RunResult {
        self.run_with_golden(trace, faults, None)
    }

    /// [`ReunionPair::run`] with a pre-computed golden memory image for
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
        let policy = ReunionPolicy::new(self.rcfg);
        let mut lane = Lane::new(trace);
        (lane.faults, lane.golden) = (faults.to_vec(), golden);
        driver.run(&mut [policy], vec![lane]).0.remove(0)
    }
}

/// The Reunion scheme as a [`RedundancyPolicy`]: fingerprint-interval
/// segments with serializing cuts, vocal/mute store release, CRC-16
/// comparison at every boundary, rollback on mismatch, abandonment
/// (with register resynchronization) once retries cannot converge.
pub struct ReunionPolicy {
    rcfg: ReunionConfig,
    hooks: [ReunionHooks; 2],
    fps: [Fingerprint; 2],
}

impl ReunionPolicy {
    /// A policy with the given Reunion configuration.
    pub fn new(rcfg: ReunionConfig) -> Self {
        let mut hooks = [ReunionHooks::new(rcfg), ReunionHooks::new(rcfg)];
        // The mute core does not release stores (single-instance release).
        hooks[1].release_stores = false;
        ReunionPolicy {
            rcfg,
            hooks,
            fps: [Fingerprint::new(), Fingerprint::new()],
        }
    }

    /// The fault (if any) striking `seq` on `core`, first attempt only —
    /// single-event upsets are transient; only their *state* effects
    /// persist across retries.
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

impl RedundancyPolicy for ReunionPolicy {
    type Hooks = ReunionHooks;

    fn name(&self) -> &'static str {
        "reunion_pair"
    }

    /// Reunion reports the honest memory comparison even after an
    /// abandoned interval — the divergence is functionally modelled.
    fn golden_requires_recoverable(&self) -> bool {
        false
    }

    fn rolls_back(&self) -> bool {
        true
    }

    fn hooks_mut(&mut self, core: usize) -> &mut ReunionHooks {
        &mut self.hooks[core]
    }

    /// A segment is one fingerprint interval, cut early (inclusively) at
    /// serializing instructions.
    fn segment_end(&self, insts: &[Inst], start: usize) -> usize {
        let mut end = start;
        while end < insts.len() {
            let inst = &insts[end];
            end += 1;
            if (end - start) >= self.rcfg.fingerprint_interval as usize || inst.op.is_serializing()
            {
                break;
            }
        }
        end
    }

    fn begin_attempt(&mut self, _lane: &mut LaneState, _attempt: u32) {
        self.fps = [Fingerprint::new(), Fingerprint::new()];
    }

    /// Pre-execution persistent-state faults.
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
                // Persistent flip in this core's architectural register
                // file — outside Reunion's ROEC.
                let reg = (site.bit_offset / 64) as usize % 64;
                let bit = (site.bit_offset % 64) as u32;
                let regs = lane.arch[core].regs_mut();
                regs[reg] ^= 1 << bit;
            }
            FaultTarget::L1Data | FaultTarget::L1Tag => {
                // Reunion's L1 carries SECDED: corrected in place.
                lane.events.emit(TraceEventKind::CorrectedInPlace);
            }
            _ => {}
        }
    }

    /// A TLB strike on a store mistranslates its address — silently,
    /// since fingerprints do not cover addresses.
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
                return addr ^ (64 << (site.bit_offset % 16)); // line-granular mistranslation
            }
        }
        addr
    }

    /// Transient in-pipeline faults corrupt this instruction's result —
    /// inside the fingerprint window, so the comparison catches them.
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
            | FaultTarget::Lsq => result ^ (1 << (site.bit_offset % 64)),
            FaultTarget::Tlb if inst.op.is_load() => {
                // A mistranslated load fetches the wrong value; the
                // corrupt result is inside the fingerprint window.
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

    /// The interval boundary: fingerprint exchange and comparison,
    /// rollback on mismatch, abandonment once retries cannot converge.
    fn end_segment(
        &mut self,
        _mem: &mut MemSystem,
        lane: &mut LaneState,
        insts: &[Inst],
        _start: usize,
        end: usize,
        attempt: u32,
    ) -> SegmentVerdict {
        // Cross-core coupling: the fingerprint comparison finishes only
        // after the *slower* core produced its half. Extend both cores'
        // verification (and, for a serializing cut, the rendezvous) to
        // the common time.
        let common = self.hooks[0].last_verify.max(self.hooks[1].last_verify);
        let v0 = self.hooks[0].patch_last_verify(common);
        let v1 = self.hooks[1].patch_last_verify(common);
        debug_assert_eq!(v0, v1);
        if insts[end - 1].op.is_serializing() {
            let resume = common + self.rcfg.serialize_sync_penalty as u64;
            lane.engines[0].raise_dispatch_floor(resume);
            lane.engines[1].raise_dispatch_floor(resume);
        }
        // Stamp comparison-driven events at the rendezvous point: the
        // fingerprint check completes at `common`, not at whatever the
        // stream clock last saw.
        if self.fps[0].peek() == self.fps[1].peek() {
            lane.events
                .emit_at(TraceEventKind::FingerprintMatch, 0, common);
            return SegmentVerdict::Commit;
        }
        lane.events.emit_at(TraceEventKind::Detection, 0, common);
        lane.events
            .emit_at(TraceEventKind::FingerprintMismatch, 0, common);
        if attempt >= MAX_ROLLBACK_RETRIES {
            // Divergent architectural state: rollback restores each
            // core's own (corrupt) snapshot and can never converge.
            // Abandon checking for this interval and resynchronize the
            // registers so the run can proceed — exactly the
            // silent-corruption hazard §VI-D ascribes to Reunion's
            // limited ROEC.
            lane.events
                .emit_at(TraceEventKind::Unrecoverable, 0, common);
            let resync = lane.arch[0].clone();
            lane.arch[1].copy_from(&resync);
            return SegmentVerdict::Abandon;
        }
        // Rollback: squash, restore the interval-start snapshot (the
        // driver restores the architectural snapshot), re-execute.
        lane.events.emit_at(TraceEventKind::Rollback, 0, common);
        let now = lane.now() + self.rcfg.rollback_penalty as u64;
        for e in lane.engines.iter_mut() {
            e.flush_pipeline(now);
        }
        SegmentVerdict::Retry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsync_exec::TraceEventKind::{CorrectedInPlace, FingerprintMismatch, Rollback};
    use unsync_fault::FaultTarget;
    use unsync_workloads::{Benchmark, WorkloadGen};

    fn trace(n: u64, seed: u64) -> TraceProgram {
        WorkloadGen::new(Benchmark::Gzip, n, seed).collect_trace()
    }

    fn pair() -> ReunionPair {
        ReunionPair::new(CoreConfig::table1(), ReunionConfig::paper_baseline())
    }

    fn site(target: FaultTarget, bit: u64) -> unsync_fault::FaultSite {
        unsync_fault::FaultSite {
            target,
            bit_offset: bit,
        }
    }

    #[test]
    fn error_free_run_is_correct_and_complete() {
        let t = trace(3_000, 1);
        let out = pair().run(&t, &[]);
        assert_eq!(out.committed, 3_000);
        assert_eq!(out.events.count(FingerprintMismatch), 0);
        assert_eq!(out.events.count(Rollback), 0);
        assert!(out.correct(), "{out:?}");
        assert!(out.cycles > 0);
    }

    #[test]
    fn pipeline_fault_is_caught_and_rolled_back() {
        let t = trace(2_000, 2);
        let faults = [PairFault {
            at: 500,
            core: 0,
            site: site(FaultTarget::Rob, 17),
            kind: unsync_fault::FaultKind::Single,
        }];
        let out = pair().run(&t, &faults);
        assert_eq!(out.events.count(FingerprintMismatch), 1);
        assert_eq!(out.events.count(Rollback), 1);
        assert_eq!(out.unrecoverable, 0);
        assert!(out.correct(), "{out:?}");
    }

    #[test]
    fn register_file_fault_within_its_interval_is_cleaned_by_rollback() {
        // If the corrupted register is read in the *same* interval the
        // strike lands in, the mismatch fires immediately and rollback
        // restores the pre-strike snapshot: recovered. The hazard is only
        // cross-interval (next test).
        use unsync_isa::{Inst, OpClass, Reg};
        let insts: Vec<Inst> = (0..40u64)
            .map(|i| {
                Inst::build(OpClass::IntAlu)
                    .seq(i)
                    .pc(i * 4)
                    .dest(Reg::int((i % 8 + 10) as u8))
                    .src0(Reg::int(1)) // r1 read every instruction
                    .finish()
            })
            .collect();
        let t = TraceProgram::new(insts);
        let faults = [PairFault {
            at: 5,
            core: 1,
            site: site(FaultTarget::RegisterFile, 64 + 3),
            kind: unsync_fault::FaultKind::Single,
        }]; // r1
        let out = pair().run(&t, &faults);
        assert_eq!(out.events.count(FingerprintMismatch), 1);
        assert_eq!(out.events.count(Rollback), 1);
        assert_eq!(out.unrecoverable, 0);
        assert!(out.correct(), "{out:?}");
    }

    #[test]
    fn register_file_fault_across_intervals_is_unrecoverable_for_reunion() {
        // The §VI-D ROEC hazard: the strike lands in an interval that
        // never reads the register, so the interval verifies cleanly and
        // the corruption is captured in every later snapshot. The first
        // reading interval then mismatches on every rollback retry.
        use unsync_isa::{Inst, OpClass, Reg};
        let mut insts: Vec<Inst> = Vec::new();
        // Interval 0 (seq 0..10): r1 written at seq 0, then left alone.
        insts.push(
            Inst::build(OpClass::IntAlu)
                .seq(0)
                .pc(0)
                .dest(Reg::int(1))
                .src0(Reg::int(20))
                .finish(),
        );
        for i in 1..10u64 {
            insts.push(
                Inst::build(OpClass::IntAlu)
                    .seq(i)
                    .pc(i * 4)
                    .dest(Reg::int((i % 4 + 10) as u8))
                    .src0(Reg::int(21))
                    .finish(),
            );
        }
        // Interval 1 (seq 10..20): reads r1.
        for i in 10..20u64 {
            insts.push(
                Inst::build(OpClass::IntAlu)
                    .seq(i)
                    .pc(i * 4)
                    .dest(Reg::int((i % 4 + 14) as u8))
                    .src0(Reg::int(1))
                    .finish(),
            );
        }
        let t = TraceProgram::new(insts);
        // Strike r1 at seq 5 — inside interval 0, which never reads it.
        let faults = [PairFault {
            at: 5,
            core: 1,
            site: site(FaultTarget::RegisterFile, 64 + 3),
            kind: unsync_fault::FaultKind::Single,
        }];
        let out = pair().run(&t, &faults);
        assert!(out.events.count(FingerprintMismatch) > 1, "{out:?}");
        assert_eq!(out.unrecoverable, 1, "{out:?}");
        assert!(!out.correct());
    }

    #[test]
    fn l1_fault_is_corrected_by_ecc() {
        let t = trace(2_000, 4);
        let faults = [PairFault {
            at: 700,
            core: 0,
            site: site(FaultTarget::L1Data, 12345),
            kind: unsync_fault::FaultKind::Single,
        }];
        let out = pair().run(&t, &faults);
        assert_eq!(out.events.count(CorrectedInPlace), 1);
        assert_eq!(out.events.count(FingerprintMismatch), 0);
        assert!(out.correct(), "{out:?}");
    }

    #[test]
    fn tlb_store_fault_escapes_silently() {
        let t = trace(4_000, 5);
        // Find a store to strike.
        let store_at = t
            .insts()
            .iter()
            .find(|i| i.op.is_store() && i.seq > 100)
            .map(|i| i.seq)
            .expect("trace has stores");
        let faults = [PairFault {
            at: store_at,
            core: 0,
            site: site(FaultTarget::Tlb, 7),
            kind: unsync_fault::FaultKind::Single,
        }];
        let out = pair().run(&t, &faults);
        assert_eq!(out.silent_faults, 1);
        assert_eq!(
            out.events.count(FingerprintMismatch),
            0,
            "fingerprints never notice a wrong-address store"
        );
        assert!(
            !out.memory_matches_golden,
            "memory image silently corrupted"
        );
    }

    #[test]
    fn rollback_costs_cycles() {
        let t = trace(2_000, 6);
        let clean = pair().run(&t, &[]);
        let faults: Vec<PairFault> = (0..20)
            .map(|k| PairFault {
                at: 50 + k * 90,
                core: (k % 2) as usize,
                site: site(FaultTarget::PipelineRegs, k * 7),
                kind: unsync_fault::FaultKind::Single,
            })
            .collect();
        let faulty = pair().run(&t, &faults);
        assert!(faulty.events.count(Rollback) >= 15, "{faulty:?}");
        assert!(faulty.cycles > clean.cycles);
        assert!(
            faulty.correct(),
            "transient pipeline faults are fully recoverable"
        );
    }

    #[test]
    fn back_to_back_rollbacks_keep_their_timing() {
        // A rollback every 90 instructions flushes the ROB before it
        // refills (128 entries), so each flush orphans closed-but-unconsumed
        // verify-table entries, and the next one orphans more; they are
        // dropped when the ROB first fills after the last rollback. The
        // register strike is read within its interval: rolled back too.
        use unsync_exec::TraceEventKind::Detection;
        let t = trace(3_000, 6);
        let mut faults: Vec<PairFault> = (0..20)
            .map(|k| PairFault {
                at: 50 + k * 90,
                core: (k % 2) as usize,
                site: site(FaultTarget::PipelineRegs, k * 7),
                kind: unsync_fault::FaultKind::Single,
            })
            .collect();
        faults.push(PairFault {
            at: 2_400,
            core: 1,
            site: site(FaultTarget::RegisterFile, 64 * 8 + 5),
            kind: unsync_fault::FaultKind::Single,
        });
        let out = pair().run(&t, &faults);
        assert!(out.correct(), "{out:?}");
        assert_eq!(out.committed, 3_000);
        // Pinned: a verify time answered wrongly for any replayed
        // instruction moves the cycle count.
        assert_eq!(out.events.count(Detection), 21);
        assert_eq!(out.events.count(Rollback), 21);
        assert_eq!(out.cycles, 60_103);
    }

    #[test]
    fn deterministic_outcomes() {
        let t = trace(1_500, 7);
        let faults = [PairFault {
            at: 321,
            core: 0,
            site: site(FaultTarget::IssueQueue, 9),
            kind: unsync_fault::FaultKind::Single,
        }];
        assert_eq!(pair().run(&t, &faults), pair().run(&t, &faults));
    }
}
