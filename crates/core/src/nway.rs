//! N-way redundancy groups — the paper's configurability claim (§I:
//! "the number and pairs of redundant cores in the multi-core system can
//! be conﬁgured by the user, based on reliability and performance
//! requirements") and §VIII's "varied degrees of redundancy/resilience
//! trade-offs".
//!
//! An [`UnsyncGroup`] runs the same thread on `N ≥ 2` identical cores.
//! The Communication-Buffer rule generalizes: an entry drains once *all*
//! `N` cores have produced it (the slowest replica gates eviction), and
//! recovery copies state from any error-free replica. With `N ≥ 3` the
//! group additionally survives *simultaneous* faults on `N − 1` replicas
//! (there is always a clean source), at `N×` the area/power — the
//! trade-off quantified by `unsync-hwcost`.
//!
//! Execution routes through the shared [`unsync_exec::RedundantDriver`]
//! with [`GroupPolicy`], the N-replica [`unsync_exec::RedundancyPolicy`]
//! (it opts out of the driver's pair-shaped pending-store tracking, so
//! the driver commits each store the whole group produced alike).

use unsync_exec::{Lane, LaneState, RedundancyPolicy, RedundantDriver, RunResult, TraceEventKind};
use unsync_fault::PairFault;
use unsync_isa::{Inst, TraceProgram};
use unsync_mem::MemSystem;
use unsync_sim::{CoreConfig, InstTiming, NullHooks};

use crate::cb::GroupCb;
use crate::config::UnsyncConfig;

/// An N-way UnSync redundancy group. Its run sums the entries drained
/// through the group CB over [`TraceEventKind::CbDrain`].
///
/// # Examples
///
/// ```
/// use unsync_core::{UnsyncConfig, UnsyncGroup};
/// use unsync_sim::CoreConfig;
/// use unsync_workloads::{Benchmark, WorkloadGen};
///
/// let trace = WorkloadGen::new(Benchmark::Sha, 2_000, 1).collect_trace();
/// let triple = UnsyncGroup::new(CoreConfig::table1(), UnsyncConfig::paper_baseline(), 3);
/// let out = triple.run(&trace, &[]);
/// assert_eq!(out.committed, 2_000);
/// assert!(out.correct());
/// ```
pub struct UnsyncGroup {
    ccfg: CoreConfig,
    ucfg: UnsyncConfig,
    ways: usize,
}

impl UnsyncGroup {
    /// A group of `ways ≥ 2` replicas (write-through L1s).
    pub fn new(ccfg: CoreConfig, ucfg: UnsyncConfig, ways: usize) -> Self {
        assert!(ways >= 2, "redundancy requires at least two replicas");
        ucfg.validate().expect("UnSync config must be valid");
        UnsyncGroup { ccfg, ucfg, ways }
    }

    /// Runs `trace` with the given faults (sorted by `at`; `core` indexes
    /// the replica, `< ways`).
    pub fn run(&self, trace: &TraceProgram, faults: &[PairFault]) -> RunResult {
        let driver = RedundantDriver::new(self.ccfg);
        let policy = GroupPolicy::new(self.ucfg, self.ways);
        let mut lane = Lane::new(trace);
        lane.faults = faults.to_vec();
        driver.run(&mut [policy], vec![lane]).0.remove(0)
    }
}

/// The N-way UnSync group as a [`RedundancyPolicy`]. The group stays in
/// virtual lockstep per instruction, so store forwarding simplifies to
/// immediate visibility of the group's agreed store values: the policy
/// opts out of pending-store tracking, and the driver commits a store
/// once every replica produced it.
pub struct GroupPolicy {
    ucfg: UnsyncConfig,
    ways: usize,
    hooks: Vec<NullHooks>,
    cb: GroupCb,
}

impl GroupPolicy {
    /// A policy for `ways ≥ 2` replicas.
    pub fn new(ucfg: UnsyncConfig, ways: usize) -> Self {
        assert!(ways >= 2, "redundancy requires at least two replicas");
        GroupPolicy {
            ucfg,
            ways,
            hooks: vec![NullHooks; ways],
            cb: GroupCb::new(ucfg.cb_entries, ways),
        }
    }
}

impl RedundancyPolicy for GroupPolicy {
    type Hooks = NullHooks;

    fn name(&self) -> &'static str {
        "unsync_group"
    }

    fn replicas(&self) -> usize {
        self.ways
    }

    fn uses_pending(&self) -> bool {
        false
    }

    fn hooks_mut(&mut self, core: usize) -> &mut NullHooks {
        &mut self.hooks[core]
    }

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
        let done = self.cb.push(core, seq, addr / 64, timing.commit, mem);
        if done > timing.commit {
            lane.engines[core].backpressure_until(done);
        }
    }

    /// Faults: detected by the per-element hardware; one recovery event
    /// copies state from any error-free replica to every struck one.
    fn after_instruction(
        &mut self,
        mem: &mut MemSystem,
        lane: &mut LaneState,
        _inst: &Inst,
        seq: u64,
        faults: &[PairFault],
        _first_attempt: bool,
    ) {
        if faults.is_empty() {
            return;
        }
        let mut struck = vec![false; self.ways];
        for f in faults {
            debug_assert_eq!(f.at, seq, "per-instruction segments");
            struck[f.core] = true;
        }
        lane.events.emit(TraceEventKind::Detection);
        let Some(good) = struck.iter().position(|&s| !s) else {
            // Every replica struck simultaneously: no clean source.
            lane.events.emit(TraceEventKind::Unrecoverable);
            return;
        };
        let now = lane.now();
        let stall_start = now
            + self.ucfg.detection_latency as u64
            + self.ucfg.eih_latency as u64
            + self.ucfg.flush_cycles as u64;
        let word_beats = mem.config().word_transfer_beats() as u64;
        let l1_lines = mem.l1d(lane.core_base + good).valid_lines() as u64;
        // Each erroneous replica receives the state + L1 copy.
        let bad_count = struck.iter().filter(|&&s| s).count() as u64;
        let recovery_end =
            stall_start + bad_count * (2 * 64 * word_beats + mem.l1_copy_cost(l1_lines));
        let good_state = lane.arch[good].clone();
        let good_l1 = mem.l1d(lane.core_base + good).clone();
        for (core, &s) in struck.iter().enumerate() {
            if s {
                lane.arch[core].copy_from(&good_state);
                *mem.l1d_mut(lane.core_base + core) = good_l1.clone();
            }
        }
        for e in lane.engines.iter_mut() {
            e.stall_until(recovery_end);
        }
        // Span stamps at the architectural boundaries (see
        // `UnsyncPolicy::recover` for the pair-level analogue).
        lane.events
            .emit_at(TraceEventKind::RecoveryStart, 0, stall_start);
        lane.bump_clock(recovery_end);
        lane.events.emit_at(
            TraceEventKind::RecoveryEnd,
            recovery_end - now,
            recovery_end,
        );
    }

    fn finish(&mut self, _mem: &mut MemSystem, lane: &mut LaneState) {
        lane.events
            .emit_value(TraceEventKind::CbDrain, self.cb.drained);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsync_exec::TraceEventKind::CbDrain;
    use unsync_fault::{FaultSite, FaultTarget};
    use unsync_workloads::{Benchmark, WorkloadGen};

    fn trace(n: u64) -> TraceProgram {
        WorkloadGen::new(Benchmark::Gzip, n, 21).collect_trace()
    }

    fn fault(at: u64, core: usize) -> PairFault {
        PairFault {
            at,
            core,
            site: FaultSite {
                target: FaultTarget::RegisterFile,
                bit_offset: 67,
            },
            kind: unsync_fault::FaultKind::Single,
        }
    }

    #[test]
    fn two_way_group_matches_pair_semantics() {
        let t = trace(5_000);
        let g = UnsyncGroup::new(CoreConfig::table1(), UnsyncConfig::paper_baseline(), 2);
        let out = g.run(&t, &[]);
        assert_eq!(out.committed, 5_000);
        assert!(out.correct(), "{out:?}");
        assert!(out.events.sum(CbDrain) > 0);
    }

    #[test]
    fn more_ways_cost_more_cycles_but_still_run() {
        let t = trace(5_000);
        let cycles: Vec<u64> = [2usize, 3, 4]
            .iter()
            .map(|&n| {
                let g = UnsyncGroup::new(CoreConfig::table1(), UnsyncConfig::paper_baseline(), n);
                let out = g.run(&t, &[]);
                assert!(out.correct(), "{n}-way: {out:?}");
                out.cycles
            })
            .collect();
        // The slowest of N replicas can only get slower as N grows.
        assert!(cycles[1] >= cycles[0]);
        assert!(cycles[2] >= cycles[0]);
    }

    #[test]
    fn three_way_survives_a_double_strike_two_way_cannot_source() {
        let t = trace(4_000);
        // Both replicas of a 2-way group struck at once: no clean source.
        let faults2 = [fault(1_000, 0), fault(1_000, 1)];
        let g2 = UnsyncGroup::new(CoreConfig::table1(), UnsyncConfig::paper_baseline(), 2);
        let out2 = g2.run(&t, &faults2);
        assert_eq!(out2.unrecoverable, 1);
        assert!(!out2.correct());
        // A 3-way group has a surviving replica to copy from.
        let g3 = UnsyncGroup::new(CoreConfig::table1(), UnsyncConfig::paper_baseline(), 3);
        let out3 = g3.run(&t, &faults2);
        assert_eq!(out3.unrecoverable, 0);
        assert_eq!(out3.recoveries, 1);
        assert!(out3.correct(), "{out3:?}");
    }

    #[test]
    fn single_faults_recover_at_any_width() {
        let t = trace(3_000);
        for ways in 2..=4 {
            for core in 0..ways {
                let g =
                    UnsyncGroup::new(CoreConfig::table1(), UnsyncConfig::paper_baseline(), ways);
                let out = g.run(&t, &[fault(800, core)]);
                assert_eq!(out.recoveries, 1, "{ways}-way, core {core}");
                assert!(out.correct(), "{ways}-way, core {core}: {out:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn one_way_rejected() {
        let _ = UnsyncGroup::new(CoreConfig::table1(), UnsyncConfig::paper_baseline(), 1);
    }
}
