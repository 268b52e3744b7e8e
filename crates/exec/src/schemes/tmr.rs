//! Triple modular redundancy with majority voting — correct, don't
//! recover.
//!
//! [`TmrVotePolicy`]: three replicas execute every instruction in
//! virtual lockstep, and a voter compares the replicated state at every
//! segment boundary. Where UnSync *recovers* (detection latency +
//! interrupt + flush + a full state/L1 copy), the TMR voter *corrects*:
//! the outvoted replica is overwritten with the majority state in place
//! and execution simply continues — [`crate::SegmentVerdict::Commit`]
//! with a [`TraceEventKind::Corrected`] event, never a rollback or a
//! recovery stall.
//!
//! The voter observes the replicated *values* — each replica's result,
//! store (address, value), and architectural state — not the fault
//! schedule. A single struck replica is therefore outvoted by the two
//! clean ones whatever the strike hit. Because the vote covers the full
//! replicated state (not just live reads), even a strike on a dead value
//! is scrubbed at the next boundary. The failure mode is the
//! classic TMR one: two replicas struck in the same vote window leave no
//! trustworthy majority (identical corruptions outvote the clean
//! replica; distinct ones deadlock the vote 1-1-1), which the voter
//! reports as detected-but-uncorrectable.

use unsync_fault::{FaultTarget, PairFault};
use unsync_isa::{Inst, TraceProgram};
use unsync_mem::MemSystem;
use unsync_sim::{CoreConfig, NullHooks};

use crate::driver::{Lane, LaneState, RedundantDriver, RunResult};
use crate::event::TraceEventKind;
use crate::policy::{RedundancyPolicy, SegmentVerdict};

/// Replicas in a TMR lane.
const WAYS: usize = 3;

/// Cycles all three engines stall while the voter repairs an outvoted
/// replica (write-port turnaround for the state copy; far cheaper than
/// UnSync's interrupt + flush + L1 copy recovery).
const CORRECTION_STALL: u64 = 16;

/// A voting TMR triple over one trace. Its run's events count in-place
/// repairs (`Corrected`) and votes with no trustworthy majority
/// (`Unrecoverable`); it never rolls back.
///
/// # Examples
///
/// ```
/// use unsync_exec::{TmrTriple, TraceEventKind};
/// use unsync_sim::CoreConfig;
/// use unsync_workloads::{Benchmark, SyntheticSource, WorkloadSource};
///
/// let trace = SyntheticSource::new(Benchmark::Sha, 2_000, 1).trace();
/// let out = TmrTriple::new(CoreConfig::table1()).run(&trace, &[]);
/// assert_eq!(out.committed, 2_000);
/// assert_eq!(out.events.count(TraceEventKind::Rollback), 0);
/// assert!(out.correct());
/// ```
pub struct TmrTriple {
    ccfg: CoreConfig,
}

impl TmrTriple {
    /// A triple built from the Table I core configuration.
    pub fn new(ccfg: CoreConfig) -> Self {
        TmrTriple { ccfg }
    }

    /// Runs `trace` with the given faults (sorted by `at`; `core`
    /// indexes the replica, `< 3`).
    pub fn run(&self, trace: &TraceProgram, faults: &[PairFault]) -> RunResult {
        let driver = RedundantDriver::new(self.ccfg);
        let mut lane = Lane::new(trace);
        lane.faults = faults.to_vec();
        let policy = TmrVotePolicy::new();
        driver.run(&mut [policy], vec![lane]).0.remove(0)
    }
}

/// The majority-voting TMR scheme as a [`RedundancyPolicy`] (see the
/// module docs).
pub struct TmrVotePolicy {
    hooks: [NullHooks; WAYS],
    /// Per-replica result of the instruction being voted on.
    results: [u64; WAYS],
    /// Per-replica (address, value) of the store being voted on.
    stores: [Option<(u64, u64)>; WAYS],
    /// Which replicas the current segment's faults struck.
    struck: [bool; WAYS],
}

impl TmrVotePolicy {
    /// A fresh policy (three replicas, empty vote buffers).
    pub fn new() -> Self {
        TmrVotePolicy {
            hooks: [NullHooks; WAYS],
            results: [0; WAYS],
            stores: [None; WAYS],
            struck: [false; WAYS],
        }
    }

    fn fault_site(faults: &[PairFault], seq: u64, core: usize) -> Option<unsync_fault::FaultSite> {
        faults
            .iter()
            .find(|f| f.at == seq && f.core == core)
            .map(|f| f.site)
    }

    /// Value-level agreement between two replicas: result, store copy,
    /// and full architectural state.
    fn agree(&self, lane: &LaneState, a: usize, b: usize) -> bool {
        self.results[a] == self.results[b]
            && self.stores[a] == self.stores[b]
            && lane.arch[a] == lane.arch[b]
    }

    fn reset_vote(&mut self) {
        self.results = [0; WAYS];
        self.stores = [None; WAYS];
        self.struck = [false; WAYS];
    }
}

impl Default for TmrVotePolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl RedundancyPolicy for TmrVotePolicy {
    type Hooks = NullHooks;

    fn name(&self) -> &'static str {
        "tmr_vote"
    }

    fn replicas(&self) -> usize {
        WAYS
    }

    /// Deliberately the unprotected default: TMR triplicates *cores*
    /// and votes on results, but the shared L2, MSHRs, and bank
    /// arbiters sit outside the sphere of replication — exactly the
    /// exposure the uncore campaign quantifies.
    fn uncore_protection(&self) -> unsync_fault::uncore::UncoreProtection {
        unsync_fault::uncore::UncoreProtection::unprotected()
    }

    fn hooks_mut(&mut self, core: usize) -> &mut NullHooks {
        &mut self.hooks[core]
    }

    /// Persistent state faults: a register-file strike flips the struck
    /// register of that replica (the vote at the segment boundary
    /// outvotes the divergent state).
    fn pre_execute(
        &mut self,
        lane: &mut LaneState,
        _inst: &Inst,
        core: usize,
        seq: u64,
        faults: &[PairFault],
        _first_attempt: bool,
    ) {
        let Some(site) = Self::fault_site(faults, seq, core) else {
            return;
        };
        if site.target == FaultTarget::RegisterFile {
            let reg = (site.bit_offset / 64) as usize % 64;
            let bit = (site.bit_offset % 64) as u32;
            lane.arch[core].regs_mut()[reg] ^= 1 << bit;
        }
    }

    /// A TLB strike on a store mistranslates that replica's address —
    /// the vote covers store addresses, so the majority address wins.
    fn effective_addr(
        &mut self,
        _lane: &mut LaneState,
        inst: &Inst,
        core: usize,
        seq: u64,
        addr: u64,
        faults: &[PairFault],
        _first_attempt: bool,
    ) -> u64 {
        if let Some(site) = Self::fault_site(faults, seq, core) {
            if site.target == FaultTarget::Tlb && inst.op.is_store() {
                return addr ^ (64 << (site.bit_offset % 16));
            }
        }
        addr
    }

    /// Every other strike corrupts this replica's result. TMR carries no
    /// per-element protection — no parity, no L1 ECC — so L1 strikes
    /// surface as wrong values too; the voter is the only mechanism.
    fn transform_result(
        &mut self,
        _lane: &mut LaneState,
        inst: &Inst,
        core: usize,
        seq: u64,
        result: u64,
        faults: &[PairFault],
        _first_attempt: bool,
    ) -> u64 {
        let Some(site) = Self::fault_site(faults, seq, core) else {
            return result;
        };
        match site.target {
            FaultTarget::RegisterFile => result,
            FaultTarget::Tlb if inst.op.is_store() => result,
            _ => result ^ (1 << (site.bit_offset % 64)),
        }
    }

    /// All replicas produce the store this instruction (virtual
    /// lockstep); the voter records each copy and commits the majority
    /// one at the segment boundary.
    fn store_executed(
        &mut self,
        _mem: &mut MemSystem,
        _lane: &mut LaneState,
        _inst: &Inst,
        core: usize,
        _seq: u64,
        addr: u64,
        result: u64,
        _timing: unsync_sim::InstTiming,
    ) {
        self.stores[core] = Some((addr, result));
    }

    fn executed(
        &mut self,
        _lane: &mut LaneState,
        _inst: &Inst,
        core: usize,
        _seq: u64,
        result: u64,
    ) {
        self.results[core] = result;
    }

    fn after_instruction(
        &mut self,
        _mem: &mut MemSystem,
        _lane: &mut LaneState,
        _inst: &Inst,
        seq: u64,
        faults: &[PairFault],
        _first_attempt: bool,
    ) {
        for f in faults {
            debug_assert_eq!(f.at, seq, "per-instruction segments");
            self.struck[f.core] = true;
        }
    }

    /// The vote. Error-free segments move on (the driver already
    /// committed their unanimous store); a single struck replica is
    /// outvoted and repaired in place; two or more struck replicas
    /// leave no trustworthy majority.
    fn end_segment(
        &mut self,
        _mem: &mut MemSystem,
        lane: &mut LaneState,
        _insts: &[Inst],
        _start: usize,
        _end: usize,
        _attempt: u32,
    ) -> SegmentVerdict {
        let struck_count = self.struck.iter().filter(|&&s| s).count();
        if struck_count == 0 {
            debug_assert!(self.agree(lane, 0, 1) && self.agree(lane, 0, 2));
            self.reset_vote();
            return SegmentVerdict::Commit;
        }
        lane.events
            .emit_at(TraceEventKind::Detection, 0, lane.now());
        if struck_count >= 2 {
            // No trustworthy majority: identical corruptions outvote the
            // clean replica, distinct ones deadlock the vote. Apply the
            // (possibly corrupt) majority so the run proceeds, and count
            // the window detected-but-uncorrectable.
            lane.events.emit(TraceEventKind::Unrecoverable);
            let maj = if self.agree(lane, 0, 1) || self.agree(lane, 0, 2) {
                0
            } else if self.agree(lane, 1, 2) {
                1
            } else {
                0
            };
            let maj_state = lane.arch[maj].clone();
            for core in 0..WAYS {
                if core != maj {
                    lane.arch[core].copy_from(&maj_state);
                }
            }
            if let Some((addr, value)) = self.stores[maj] {
                lane.committed_mem.write(addr, value);
            }
            let resume = lane.now() + CORRECTION_STALL;
            for e in lane.engines.iter_mut() {
                e.stall_until(resume);
            }
            self.reset_vote();
            return SegmentVerdict::Commit;
        }
        // Exactly one replica struck: the two clean ones agree and
        // outvote it. If the strike was architecturally dead (e.g. the
        // struck register was overwritten this very instruction) the
        // copy is a no-op, but the voter still scrubbed the struck cell.
        let odd = if self.agree(lane, 0, 1) {
            2
        } else if self.agree(lane, 0, 2) {
            1
        } else {
            0
        };
        let good = (odd + 1) % WAYS;
        let good_state = lane.arch[good].clone();
        lane.arch[odd].copy_from(&good_state);
        if let Some((addr, value)) = self.stores[good] {
            lane.committed_mem.write(addr, value);
        }
        let resume = lane.now() + CORRECTION_STALL;
        for e in lane.engines.iter_mut() {
            e.stall_until(resume);
        }
        lane.bump_clock(resume);
        // Stamped at the post-repair resume point (the repair occupies
        // the stall window ending there).
        lane.events
            .emit_at(TraceEventKind::Corrected, CORRECTION_STALL, resume);
        self.reset_vote();
        SegmentVerdict::Commit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceEventKind::{Corrected, Rollback, Unrecoverable};
    use unsync_fault::{FaultKind, FaultSite};
    use unsync_workloads::{Benchmark, SyntheticSource, WorkloadSource};

    fn trace(n: u64, seed: u64) -> TraceProgram {
        SyntheticSource::new(Benchmark::Gzip, n, seed).trace()
    }

    fn fault(at: u64, core: usize, target: FaultTarget, bit: u64) -> PairFault {
        PairFault {
            at,
            core,
            site: FaultSite {
                target,
                bit_offset: bit,
            },
            kind: FaultKind::Single,
        }
    }

    #[test]
    fn error_free_triple_is_correct_and_never_votes_anyone_out() {
        let t = trace(3_000, 1);
        let out = TmrTriple::new(CoreConfig::table1()).run(&t, &[]);
        assert_eq!(out.committed, 3_000);
        assert_eq!(out.events.count(Corrected), 0);
        assert_eq!(out.events.count(Rollback), 0);
        assert!(out.correct(), "{out:?}");
    }

    #[test]
    fn single_strike_on_any_replica_is_outvoted() {
        let t = trace(2_000, 2);
        for core in 0..3 {
            let out = TmrTriple::new(CoreConfig::table1())
                .run(&t, &[fault(700, core, FaultTarget::Rob, 13)]);
            assert_eq!(out.events.count(Corrected), 1, "replica {core}");
            assert_eq!(out.events.count(Rollback), 0, "replica {core}");
            assert_eq!(out.recoveries, 0, "replica {core}");
            assert!(out.correct(), "replica {core}: {out:?}");
        }
    }

    #[test]
    fn register_strike_is_scrubbed_even_when_dead() {
        // The vote covers the whole register file, so a strike on a
        // register the program never reads again is still repaired.
        let t = trace(2_000, 3);
        let out = TmrTriple::new(CoreConfig::table1())
            .run(&t, &[fault(500, 1, FaultTarget::RegisterFile, 64 * 63 + 5)]);
        assert_eq!(out.events.count(Corrected), 1);
        assert!(out.correct(), "{out:?}");
    }

    #[test]
    fn corrections_stall_the_triple() {
        let t = trace(2_000, 4);
        let clean = TmrTriple::new(CoreConfig::table1()).run(&t, &[]);
        let faults: Vec<PairFault> = (0..10)
            .map(|k| {
                fault(
                    100 + k * 150,
                    (k % 3) as usize,
                    FaultTarget::PipelineRegs,
                    k,
                )
            })
            .collect();
        let faulty = TmrTriple::new(CoreConfig::table1()).run(&t, &faults);
        assert_eq!(faulty.events.count(Corrected), 10);
        assert!(faulty.cycles > clean.cycles);
        assert!(faulty.correct(), "{faulty:?}");
    }

    #[test]
    fn two_agreeing_strikes_are_detected_but_uncorrectable() {
        let t = trace(2_000, 5);
        let faults = [
            fault(900, 0, FaultTarget::Rob, 21),
            fault(900, 1, FaultTarget::Rob, 21),
        ];
        let out = TmrTriple::new(CoreConfig::table1()).run(&t, &faults);
        assert_eq!(out.detections, 1);
        assert_eq!(out.events.count(Unrecoverable), 1);
        assert_eq!(out.events.count(Corrected), 0);
        assert!(!out.correct(), "{out:?}");
    }

    #[test]
    fn deterministic_outcomes() {
        let t = trace(1_500, 6);
        let faults = [fault(321, 2, FaultTarget::IssueQueue, 9)];
        let run = || TmrTriple::new(CoreConfig::table1()).run(&t, &faults);
        assert_eq!(run(), run());
    }
}
