//! Tight lockstep — the mainframe discipline the paper's §II opens with
//! (IBM S/390 G5, z990): two cores execute cycle-by-cycle in step, every
//! result compared as it is produced.
//!
//! Lockstep needs no fingerprints, no CSB and no recovery protocol
//! design (a mismatch simply replays from the duplicated front end), but
//! it pays the *coupling* cost continuously: the pair advances at the
//! pace of whichever core is momentarily slower, so every cache-bank
//! conflict, DRAM-refresh hiccup or arbiter stall on either core is paid
//! by both. "While conceptually simple, lock-step becomes an increasing
//! burden as device scaling continues" — this model quantifies that
//! burden against UnSync's fully decoupled pair.
//!
//! Execution routes through the shared [`unsync_exec::RedundantDriver`];
//! [`LockstepPolicy`] contributes only the per-retirement
//! re-synchronization arithmetic and substitutes the locked retirement
//! clock for the decoupled one in
//! [`unsync_exec::RedundancyPolicy::finish`].

use unsync_exec::{Lane, LaneState, RedundancyPolicy, RedundantDriver, RunResult, TraceEventKind};
use unsync_isa::{Inst, TraceProgram};
use unsync_mem::MemSystem;
use unsync_sim::{CoreConfig, NullHooks};

/// A tightly lockstepped redundant pair. Its run's `cycles` is the
/// *locked* clock; `CouplingStall` events sum the re-sync cost.
pub struct LockstepPair {
    ccfg: CoreConfig,
}

impl LockstepPair {
    /// A per-retirement lockstep pair.
    pub fn new(ccfg: CoreConfig) -> Self {
        LockstepPair { ccfg }
    }

    /// Runs `trace` (error-free; lockstep's error handling is an
    /// immediate replay and is not the interesting axis here).
    pub fn run(&self, trace: &TraceProgram) -> RunResult {
        let driver = RedundantDriver::new(self.ccfg);
        let policy = LockstepPolicy::new();
        driver
            .run(&mut [policy], vec![Lane::new(trace)])
            .0
            .remove(0)
    }
}

/// Lockstep as a [`RedundancyPolicy`]: at every retirement the pair
/// re-synchronizes, so the locked clock advances by the *slower* core's
/// commit delta — the pair pays every hiccup of either core, while a
/// decoupled pair pays only `max(total_A, total_B)`.
#[derive(Default)]
pub struct LockstepPolicy {
    hooks: [NullHooks; 2],
    locked_clock: u64,
    prev: [u64; 2],
}

impl LockstepPolicy {
    /// A policy re-synchronizing at every retirement.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the locked clock by the slower core's commit delta
    /// since the previous re-synchronization.
    fn resync(&mut self, lane: &LaneState) {
        let now = [lane.engines[0].now(), lane.engines[1].now()];
        self.locked_clock += (now[0] - self.prev[0]).max(now[1] - self.prev[1]);
        self.prev = now;
    }
}

impl RedundancyPolicy for LockstepPolicy {
    type Hooks = NullHooks;

    fn name(&self) -> &'static str {
        "lockstep_pair"
    }

    fn hooks_mut(&mut self, core: usize) -> &mut NullHooks {
        &mut self.hooks[core]
    }

    fn after_instruction(
        &mut self,
        _mem: &mut MemSystem,
        lane: &mut LaneState,
        _inst: &Inst,
        _seq: u64,
        _faults: &[unsync_fault::PairFault],
        _first_attempt: bool,
    ) {
        lane.commit_matched_pending();
        self.resync(lane);
    }

    /// Re-synchronizes once more, for any cycles either core advanced
    /// after its last retirement, and substitutes the locked retirement
    /// clock for the decoupled one.
    fn finish(&mut self, _mem: &mut MemSystem, lane: &mut LaneState) {
        self.resync(lane);
        let decoupled = lane.now();
        // Stamped at the locked clock: the stall exists only in locked
        // time, after the decoupled run already finished.
        lane.events.emit_at(
            TraceEventKind::CouplingStall,
            self.locked_clock.saturating_sub(decoupled),
            self.locked_clock,
        );
        lane.out.cycles = self.locked_clock;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsync_exec::TraceEventKind::CouplingStall;
    use unsync_mem::{HierarchyConfig, WritePolicy};
    use unsync_sim::OooEngine;
    use unsync_workloads::{Benchmark, WorkloadGen};

    #[test]
    fn lockstep_runs_and_pays_coupling() {
        let t = WorkloadGen::new(Benchmark::Gzip, 10_000, 2).collect_trace();
        let out = LockstepPair::new(CoreConfig::table1()).run(&t);
        assert_eq!(out.committed, 10_000);
        assert!(
            out.events.sum(CouplingStall) > 0,
            "drift must force re-syncs"
        );
        assert!(out.correct(), "{out:?}");
    }

    #[test]
    fn lockstep_is_slower_than_an_unsynchronized_pair_would_be() {
        // Coupling every retirement serializes both cores' hiccups; an
        // uncoupled run of the same cores finishes no later than the
        // lockstepped one.
        let t = WorkloadGen::new(Benchmark::Qsort, 10_000, 2).collect_trace();
        let locked = LockstepPair::new(CoreConfig::table1()).run(&t);
        let free = {
            let mut mem = MemSystem::new(HierarchyConfig::table1(), 2, WritePolicy::WriteThrough);
            let mut engines = [
                OooEngine::new(CoreConfig::table1(), 0),
                OooEngine::new(CoreConfig::table1(), 1),
            ];
            let mut hooks = [NullHooks, NullHooks];
            for inst in t.insts() {
                for core in 0..2 {
                    engines[core].feed(inst, &mut mem, &mut hooks[core]);
                }
            }
            engines[0].now().max(engines[1].now())
        };
        assert!(locked.cycles >= free, "{} vs {free}", locked.cycles);
    }
}
