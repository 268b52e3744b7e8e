//! The plug-in point that makes a redundancy scheme.
//!
//! [`RedundancyPolicy`] captures everything that *differs* between
//! UnSync, Reunion, lockstep, FlexStep and TMR: which hooks drive the
//! engines' timing, where compare points sit (per instruction, per
//! fingerprint interval, per lockstep window), how faults perturb the
//! functional stream, and what recovery does (always-forward copy,
//! rollback, abandon). Everything the schemes *share* lives in
//! [`crate::RedundantDriver`], which calls these methods at fixed
//! points of its loop.
//!
//! All callbacks default to "do nothing": a minimal policy is just
//! `name` + `hooks_mut` (plus `replicas` when it is not a pair), and
//! yields plain unchecked redundant execution with golden
//! verification. A pair's stores wait in the pending set until the
//! policy commits them ([`crate::LaneState::commit_matched_pending`]).

use unsync_fault::uncore::{UncoreProtection, UncoreStrike};
use unsync_fault::PairFault;
use unsync_isa::Inst;
use unsync_mem::{MemSystem, WritePolicy};
use unsync_sim::{CoreHooks, InstTiming};

use crate::driver::LaneState;

/// What the policy decided at a segment boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentVerdict {
    /// The segment verified (or needs no verification): commit its
    /// pending stores and move on.
    Commit,
    /// The segment mismatched: the driver restores the architectural
    /// snapshot and re-executes it (the policy has already applied the
    /// timing cost — flush, penalty).
    Retry,
    /// The segment cannot converge: commit what exists and move on —
    /// the policy has already recorded the unrecoverable event and
    /// repaired enough state for the run to proceed.
    Abandon,
}

/// What an uncore strike's delivery did to the simulation
/// ([`RedundancyPolicy::uncore_strike`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrikeVerdict {
    /// The delivery only emitted events into the lane's stream: every
    /// other piece of state (engines, memory system, policy, committed
    /// image) is as a strike-free run has it.
    Neutral,
    /// The delivery changed state beyond the event stream (a flipped
    /// word, a stall, a recovery, a pending strike).
    Perturbed,
}

/// One redundancy scheme, plugged into [`crate::RedundantDriver`].
///
/// Callback order per segment `[start, end)`:
///
/// 1. [`segment_end`] picks `end` (default: single instruction);
/// 2. [`begin_attempt`], then per instruction and per replica:
///    engine `feed` (with [`hooks_mut`]), [`pre_execute`],
///    [`effective_addr`], load (pending-store forwarding →
///    committed memory), compute,
///    [`transform_result`], store bookkeeping + [`store_executed`],
///    writeback, [`executed`];
/// 3. [`after_instruction`] once per instruction (all replicas done);
/// 4. [`end_segment`] returns a [`SegmentVerdict`]; on `Retry` the
///    driver restores the snapshot and repeats from 2.
///
/// The driver executes one instruction per scheduler tick, so a
/// segment and each retry of it span several ticks, with other lanes
/// running in between. `Retry` is valid on every run (any lane count,
/// contention, core faults, uncore strikes). Uncore strikes
/// ([`uncore_strike`]) arrive at the start of a tick, before its step.
///
/// After the trace: the driver sets `cycles`, calls [`finish`] (which
/// may emit final events or substitute the scheme's own clock), folds
/// the event stream into [`crate::OutcomeCore`], verifies the golden
/// image, and publishes metrics under [`name`].
///
/// [`segment_end`]: RedundancyPolicy::segment_end
/// [`begin_attempt`]: RedundancyPolicy::begin_attempt
/// [`hooks_mut`]: RedundancyPolicy::hooks_mut
/// [`pre_execute`]: RedundancyPolicy::pre_execute
/// [`effective_addr`]: RedundancyPolicy::effective_addr
/// [`transform_result`]: RedundancyPolicy::transform_result
/// [`store_executed`]: RedundancyPolicy::store_executed
/// [`executed`]: RedundancyPolicy::executed
/// [`after_instruction`]: RedundancyPolicy::after_instruction
/// [`end_segment`]: RedundancyPolicy::end_segment
/// [`finish`]: RedundancyPolicy::finish
/// [`uncore_strike`]: RedundancyPolicy::uncore_strike
/// [`name`]: RedundancyPolicy::name
#[allow(clippy::too_many_arguments)]
pub trait RedundancyPolicy {
    /// The [`CoreHooks`] implementation timing this scheme's engines.
    type Hooks: CoreHooks;

    /// The scheme's metric prefix (e.g. `"unsync_pair"`).
    fn name(&self) -> &'static str;

    /// Redundancy degree (engines/replicas per lane).
    fn replicas(&self) -> usize {
        2
    }

    /// The L1 write policy (the paper requires write-through; the
    /// Fig. 2 ablation overrides to write-back).
    fn l1_write_policy(&self) -> WritePolicy {
        WritePolicy::WriteThrough
    }

    /// Whether an unrecoverable event forces `memory_matches_golden`
    /// to `false` even when the image happens to match (UnSync's
    /// write-back hazard is not functionally modelled; Reunion's
    /// abandoned intervals are, so it reports the honest comparison).
    fn golden_requires_recoverable(&self) -> bool {
        true
    }

    /// Whether mismatched segments are re-executed from a snapshot
    /// (Reunion). Enables snapshotting and per-attempt pending resets.
    fn rolls_back(&self) -> bool {
        false
    }

    /// The hooks instance driving replica `core`'s engine.
    fn hooks_mut(&mut self, core: usize) -> &mut Self::Hooks;

    /// The exclusive end of the segment starting at `start` (default:
    /// one instruction; Reunion returns the fingerprint-interval or
    /// serializing cut).
    fn segment_end(&self, insts: &[Inst], start: usize) -> usize {
        let _ = insts;
        start + 1
    }

    /// Called before each execution attempt of a segment (reset
    /// per-attempt state such as fingerprints).
    fn begin_attempt(&mut self, lane: &mut LaneState, attempt: u32) {
        let _ = (lane, attempt);
    }

    /// Called before functional execution of `inst` on `core` (apply
    /// persistent pre-execution faults).
    fn pre_execute(
        &mut self,
        lane: &mut LaneState,
        inst: &Inst,
        core: usize,
        seq: u64,
        faults: &[PairFault],
        first_attempt: bool,
    ) {
        let _ = (lane, inst, core, seq, faults, first_attempt);
    }

    /// The effective memory address this replica uses (a TLB strike on
    /// a store mistranslates it).
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
        let _ = (lane, inst, core, seq, faults, first_attempt);
        addr
    }

    /// Transforms a computed result (transient in-pipeline faults).
    fn transform_result(
        &mut self,
        lane: &mut LaneState,
        inst: &Inst,
        core: usize,
        seq: u64,
        result: u64,
        faults: &[PairFault],
        first_attempt: bool,
    ) -> u64 {
        let _ = (lane, inst, core, seq, faults, first_attempt);
        result
    }

    /// Called when replica `core` executed a store (after the driver's
    /// pending-store bookkeeping): push communication buffers, apply
    /// back-pressure, commit agreed values.
    fn store_executed(
        &mut self,
        mem: &mut MemSystem,
        lane: &mut LaneState,
        inst: &Inst,
        core: usize,
        seq: u64,
        addr: u64,
        result: u64,
        timing: InstTiming,
    ) {
        let _ = (mem, lane, inst, core, seq, addr, result, timing);
    }

    /// Called after replica `core` fully executed `inst` (fold results
    /// into fingerprints).
    fn executed(&mut self, lane: &mut LaneState, inst: &Inst, core: usize, seq: u64, result: u64) {
        let _ = (lane, inst, core, seq, result);
    }

    /// Called once per instruction after every replica executed it:
    /// per-instruction detection/recovery (UnSync), window
    /// re-synchronization (lockstep), strike bookkeeping (TMR).
    fn after_instruction(
        &mut self,
        mem: &mut MemSystem,
        lane: &mut LaneState,
        inst: &Inst,
        seq: u64,
        faults: &[PairFault],
        first_attempt: bool,
    ) {
        let _ = (mem, lane, inst, seq, faults, first_attempt);
    }

    /// Called at the segment boundary: compare points live here
    /// (fingerprint exchange, rendezvous for serializing cuts) and the
    /// verdict drives commit / rollback / abandon.
    fn end_segment(
        &mut self,
        mem: &mut MemSystem,
        lane: &mut LaneState,
        insts: &[Inst],
        start: usize,
        end: usize,
        attempt: u32,
    ) -> SegmentVerdict {
        let _ = (mem, lane, insts, start, end, attempt);
        SegmentVerdict::Commit
    }

    /// Called after the trace completes, before counters are derived
    /// and published: emit final events (CB totals, coupling stalls)
    /// or substitute the scheme's own clock into `lane.out.cycles`.
    fn finish(&mut self, mem: &mut MemSystem, lane: &mut LaneState) {
        let _ = (mem, lane);
    }

    /// The scheme's uncore protection profile: which detection
    /// mechanism (if any) guards each shared structure. The default is
    /// fully unprotected — schemes that carry L2 ECC or a
    /// fingerprinted CB override this (and the campaign's AVF table is
    /// exactly the measured consequence of the answer).
    fn uncore_protection(&self) -> UncoreProtection {
        UncoreProtection::unprotected()
    }

    /// Delivers one uncore strike to the lane at its current clock
    /// (called by [`crate::RedundantDriver::run`] *before* the
    /// instruction of the tick the strike lands in).
    /// The default plays the generic mechanism table of
    /// [`crate::uncore::deliver`] against [`uncore_protection`];
    /// schemes with real recovery machinery (UnSync's CB overwrite)
    /// override delivery for the structures they own.
    ///
    /// The contract: return [`StrikeVerdict::Neutral`] only when the
    /// delivery changed nothing but `lane.events` — not the engines, the
    /// memory system (a probe that retires entries counts), the policy's
    /// own state, or the committed image. Any other change must return
    /// [`StrikeVerdict::Perturbed`]. A lane whose strikes were all
    /// neutral may end at its last one and take the rest of its result
    /// from a strike-free run ([`crate::Lane::reference`]), so a wrong
    /// `Neutral` silently drops the strike's effect.
    ///
    /// [`uncore_protection`]: RedundancyPolicy::uncore_protection
    fn uncore_strike(
        &mut self,
        mem: &mut MemSystem,
        lane: &mut LaneState,
        strike: &UncoreStrike,
    ) -> StrikeVerdict {
        crate::uncore::deliver(&self.uncore_protection(), mem, lane, strike)
    }
}
