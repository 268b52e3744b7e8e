//! Differential test: the discrete-event scheduler behind
//! `RedundantDriver::run_system` against the historical laggard loop
//! (`run_system_reference`, a linear `min_by_key` scan kept as the
//! oracle). Same traces, same seeds → byte-identical per-lane results:
//! outcome counters, trace-event streams, and final committed memory
//! images, plus identical shared-L2 statistics. This is the contract
//! that let the scheduler land without re-blessing a single golden
//! snapshot. Rollback schemes are held to it too: their retried
//! segments re-execute across scheduler ticks.

use unsync_core::{UnsyncConfig, UnsyncPolicy};
use unsync_exec::{
    EventStream, FlexConfig, FlexGranularityPolicy, Lane, LaneState, RedundancyPolicy,
    RedundantDriver, RunResult, SegmentVerdict, TraceEventKind,
};
use unsync_fault::{FaultKind, FaultSite, FaultTarget, PairFault};
use unsync_isa::{Inst, TraceProgram};
use unsync_mem::{L2ContentionConfig, MemSystem, WritePolicy};
use unsync_reunion::{ReunionConfig, ReunionPolicy};
use unsync_sim::CoreConfig;
use unsync_workloads::{Benchmark, WorkloadGen};

/// Mixed workloads with lane-varying seeds: fast and slow lanes, so the
/// scheduler's pop order is exercised well beyond round-robin.
fn traces(lanes: usize, insts: u64, seed: u64) -> Vec<TraceProgram> {
    let mix = [
        Benchmark::Gzip,
        Benchmark::Qsort,
        Benchmark::Sha,
        Benchmark::Mcf,
    ];
    (0..lanes)
        .map(|p| WorkloadGen::new(mix[p % mix.len()], insts, seed + p as u64).collect_trace())
        .collect()
}

fn policies(lanes: usize) -> Vec<UnsyncPolicy> {
    (0..lanes)
        .map(|p| {
            UnsyncPolicy::new(
                "sched_equiv",
                UnsyncConfig::paper_baseline(),
                WritePolicy::WriteThrough,
                2 * p,
            )
        })
        .collect()
}

/// Asserts full equality of two system runs: per-lane results (counters,
/// event streams, memory images) and the shared-L2 statistics.
fn assert_equal(
    label: &str,
    (new, new_mem): &(Vec<RunResult>, MemSystem),
    (old, old_mem): &(Vec<RunResult>, MemSystem),
) {
    assert_eq!(new.len(), old.len(), "{label}: lane count");
    for (p, (n, o)) in new.iter().zip(old.iter()).enumerate() {
        assert_eq!(n.out, o.out, "{label}: lane {p} outcome counters");
        assert_eq!(n.events, o.events, "{label}: lane {p} event stream");
        assert_eq!(n.memory, o.memory, "{label}: lane {p} memory image");
    }
    assert_eq!(
        new_mem.l2_stats().miss_rate(),
        old_mem.l2_stats().miss_rate(),
        "{label}: L2 miss rate"
    );
    assert_eq!(
        new_mem
            .l2_contention()
            .map(|c| (c.conflicts, c.stall_cycles, c.requests)),
        old_mem
            .l2_contention()
            .map(|c| (c.conflicts, c.stall_cycles, c.requests)),
        "{label}: L2 contention statistics"
    );
}

#[test]
fn event_scheduler_matches_laggard_loop_at_2_8_and_16_lanes() {
    let driver = RedundantDriver::new(CoreConfig::table1());
    for lanes in [2usize, 8, 16] {
        let ts = traces(lanes, 800, 31);
        let new = driver.run_system(&mut policies(lanes), &ts);
        let old = driver.run_system_reference(&mut policies(lanes), &ts);
        assert!(
            new.0.iter().all(|r| r.out.committed == 800),
            "{lanes} lanes: every lane must finish"
        );
        assert_equal(&format!("{lanes} lanes, flat L2"), &new, &old);
    }
}

#[test]
fn event_scheduler_matches_laggard_loop_under_l2_contention() {
    // Contention stalls perturb lane clocks, so the pop order itself
    // depends on the contention model — both loops must still agree.
    let driver = RedundantDriver::new(CoreConfig::table1())
        .with_l2_contention(L2ContentionConfig::many_core());
    for lanes in [2usize, 8] {
        let ts = traces(lanes, 600, 47);
        let new = driver.run_system(&mut policies(lanes), &ts);
        let old = driver.run_system_reference(&mut policies(lanes), &ts);
        assert_equal(&format!("{lanes} lanes, contended L2"), &new, &old);
    }
}

#[test]
fn event_scheduler_handles_unequal_trace_lengths() {
    // Short lanes retire from the queue early; the reference scan just
    // skips them. Both must agree on everything that remains.
    let driver = RedundantDriver::new(CoreConfig::table1());
    let ts = vec![
        WorkloadGen::new(Benchmark::Sha, 300, 3).collect_trace(),
        WorkloadGen::new(Benchmark::Gzip, 1_200, 4).collect_trace(),
        WorkloadGen::new(Benchmark::Mcf, 700, 5).collect_trace(),
    ];
    let new = driver.run_system(&mut policies(3), &ts);
    let old = driver.run_system_reference(&mut policies(3), &ts);
    assert_eq!(new.0[0].out.committed, 300);
    assert_eq!(new.0[1].out.committed, 1_200);
    assert_equal("unequal lanes", &new, &old);
}

/// A rollback policy with a planted fault schedule. The reference loop
/// takes bare traces, so the faults enter through `prepare_faults`;
/// every other callback the rollback schemes override is forwarded.
struct Planted<P> {
    inner: P,
    faults: Vec<PairFault>,
}

/// Forwards each listed callback to `self.inner`.
macro_rules! forward {
    (&self $($name:ident($($arg:ident: $ty:ty),*) -> $ret:ty;)*) => {$(
        fn $name(&self, $($arg: $ty),*) -> $ret {
            self.inner.$name($($arg),*)
        }
    )*};
    (&mut self $($name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)?;)*) => {$(
        fn $name(&mut self, $($arg: $ty),*) $(-> $ret)? {
            self.inner.$name($($arg),*)
        }
    )*};
}

impl<P: RedundancyPolicy> RedundancyPolicy for Planted<P> {
    type Hooks = P::Hooks;

    fn prepare_faults(
        &mut self,
        insts: &[Inst],
        _: Vec<PairFault>,
        ev: &mut EventStream,
    ) -> Vec<PairFault> {
        self.inner.prepare_faults(insts, self.faults.clone(), ev)
    }

    forward! { &self
        name() -> &'static str;
        golden_requires_recoverable() -> bool;
        rolls_back() -> bool;
        segment_end(insts: &[Inst], start: usize) -> usize;
    }

    forward! { &mut self
        hooks_mut(core: usize) -> &mut P::Hooks;
        begin_attempt(lane: &mut LaneState, attempt: u32);
        pre_execute(lane: &mut LaneState, inst: &Inst, core: usize, seq: u64,
            faults: &[PairFault], first: bool);
        effective_addr(lane: &mut LaneState, inst: &Inst, core: usize, seq: u64, addr: u64,
            faults: &[PairFault], first: bool) -> u64;
        transform_load(lane: &mut LaneState, inst: &Inst, core: usize, seq: u64, value: u64,
            first: bool) -> u64;
        transform_result(lane: &mut LaneState, inst: &Inst, core: usize, seq: u64, result: u64,
            faults: &[PairFault], first: bool) -> u64;
        executed(lane: &mut LaneState, inst: &Inst, core: usize, seq: u64, result: u64);
        end_segment(mem: &mut MemSystem, lane: &mut LaneState, insts: &[Inst], start: usize,
            end: usize, attempt: u32) -> SegmentVerdict;
    }
}

/// One ROB transient on lane `p`, mid-trace: its corrupted result
/// diverges the fingerprints, so the segment holding it retries.
fn rob_fault(p: usize, insts: u64) -> PairFault {
    PairFault {
        at: insts / 2 + 17 * p as u64,
        core: p % 2,
        site: FaultSite {
            target: FaultTarget::Rob,
            bit_offset: 5 + p as u64,
        },
        kind: FaultKind::Single,
    }
}

/// Four faulted lanes of a rollback scheme on the contended L2: the
/// scheduler matches the reference scan, and the planted policies match
/// the same faults given as lane schedules.
fn check_rollback_lanes<P: RedundancyPolicy>(label: &str, policy: impl Fn() -> P) {
    const LANES: usize = 4;
    const INSTS: u64 = 600;
    let driver = RedundantDriver::new(CoreConfig::table1())
        .with_l2_contention(L2ContentionConfig::many_core());
    let ts = traces(LANES, INSTS, 53);
    let planted = || -> Vec<Planted<P>> {
        (0..LANES)
            .map(|p| Planted {
                inner: policy(),
                faults: vec![rob_fault(p, INSTS)],
            })
            .collect()
    };
    let new = driver.run_system(&mut planted(), &ts);
    let old = driver.run_system_reference(&mut planted(), &ts);
    assert_equal(&format!("{label}: scheduler vs reference"), &new, &old);
    let scheduled = driver.run(
        &mut (0..LANES).map(|_| policy()).collect::<Vec<_>>(),
        ts.iter()
            .enumerate()
            .map(|(p, t)| Lane {
                faults: vec![rob_fault(p, INSTS)],
                ..Lane::new(t)
            })
            .collect(),
    );
    assert_equal(
        &format!("{label}: planted vs lane faults"),
        &new,
        &scheduled,
    );
    for (p, r) in new.0.iter().enumerate() {
        assert_eq!(r.out.committed, INSTS, "{label}: lane {p} committed");
        assert!(
            r.events.count(TraceEventKind::Rollback) >= 1,
            "{label}: lane {p} must roll back"
        );
        assert!(
            r.out.memory_matches_golden,
            "{label}: lane {p} memory vs golden"
        );
    }
}

#[test]
fn run_system_with_empty_faults_is_run_system() {
    let driver = RedundantDriver::new(CoreConfig::table1());
    let ts = traces(4, 500, 9);
    let plain = driver.run_system(&mut policies(4), &ts);
    let faulted = driver.run(&mut policies(4), ts.iter().map(Lane::new).collect());
    assert_equal("no faults", &faulted, &plain);
    let empty_lists = driver.run(
        &mut policies(4),
        ts.iter()
            .map(|t| Lane {
                faults: Vec::new(),
                ..Lane::new(t)
            })
            .collect(),
    );
    assert_equal("empty per-lane fault lists", &empty_lists, &plain);
}

#[test]
fn rollback_schemes_match_the_reference_under_contention() {
    check_rollback_lanes("reunion", || {
        ReunionPolicy::new(ReunionConfig::paper_baseline())
    });
    check_rollback_lanes("flex", || {
        FlexGranularityPolicy::new(FlexConfig::paper_baseline())
    });
}
