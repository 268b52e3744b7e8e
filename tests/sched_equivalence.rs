//! Differential test: the discrete-event scheduler behind
//! `RedundantDriver::run_system` against the historical laggard loop
//! (`run_system_reference`, a linear `min_by_key` scan kept as the
//! oracle). Same traces, same seeds → byte-identical per-lane results:
//! outcome counters, trace-event streams, and final committed memory
//! images, plus identical shared-L2 statistics. This is the contract
//! that let the scheduler land without re-blessing a single golden
//! snapshot. Faulted lanes are held to it too: rollback schemes'
//! retried segments re-execute across scheduler ticks, and UnSync's
//! recoveries stall a lane while the others run on.

use unsync_core::{UnsyncConfig, UnsyncPolicy};
use unsync_exec::{
    FlexConfig, FlexGranularityPolicy, Lane, RedundancyPolicy, RedundantDriver, RunResult,
    TraceEventKind,
};
use unsync_fault::{FaultKind, FaultSite, FaultTarget, PairFault};
use unsync_isa::TraceProgram;
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

/// One fault-free lane per trace.
fn lanes_of(ts: &[TraceProgram]) -> Vec<Lane<'_>> {
    ts.iter().map(Lane::new).collect()
}

/// Lane `p`'s UnSync policy, its CB on cores `2p` and `2p + 1`.
fn unsync_policy(p: usize) -> UnsyncPolicy {
    UnsyncPolicy::new(
        "sched_equiv",
        UnsyncConfig::paper_baseline(),
        WritePolicy::WriteThrough,
        2 * p,
    )
}

fn policies(lanes: usize) -> Vec<UnsyncPolicy> {
    (0..lanes).map(unsync_policy).collect()
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
        let old = driver.run_system_reference(&mut policies(lanes), lanes_of(&ts));
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
        let old = driver.run_system_reference(&mut policies(lanes), lanes_of(&ts));
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
    let old = driver.run_system_reference(&mut policies(3), lanes_of(&ts));
    assert_eq!(new.0[0].out.committed, 300);
    assert_eq!(new.0[1].out.committed, 1_200);
    assert_equal("unequal lanes", &new, &old);
}

/// One ROB transient on lane `p`, mid-trace. Under a rollback scheme
/// its corrupted result diverges the fingerprints, so the segment
/// holding it retries; UnSync detects it in hardware and recovers.
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

/// Four faulted lanes on the contended L2, one fault each: the
/// scheduler matches the reference scan on the same lane schedules, and
/// every lane recovers its fault (`recovered`), commits its whole trace
/// and ends with memory equal to golden. `policy` builds lane `p`'s
/// policy.
fn check_faulted_lanes<P: RedundancyPolicy>(
    label: &str,
    policy: impl Fn(usize) -> P,
    recovered: impl Fn(&RunResult) -> bool,
) {
    const LANES: usize = 4;
    const INSTS: u64 = 600;
    let driver = RedundantDriver::new(CoreConfig::table1())
        .with_l2_contention(L2ContentionConfig::many_core());
    let ts = traces(LANES, INSTS, 53);
    let policies = || (0..LANES).map(&policy).collect::<Vec<_>>();
    let faulted = || {
        ts.iter()
            .enumerate()
            .map(|(p, t)| Lane {
                faults: vec![rob_fault(p, INSTS)],
                ..Lane::new(t)
            })
            .collect()
    };
    let new = driver.run(&mut policies(), faulted());
    let old = driver.run_system_reference(&mut policies(), faulted());
    assert_equal(&format!("{label}: scheduler vs reference"), &new, &old);
    for (p, r) in new.0.iter().enumerate() {
        assert_eq!(r.out.committed, INSTS, "{label}: lane {p} committed");
        assert!(recovered(r), "{label}: lane {p} must recover");
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
    let rolled_back = |r: &RunResult| r.events.count(TraceEventKind::Rollback) >= 1;
    check_faulted_lanes(
        "reunion",
        |_| ReunionPolicy::new(ReunionConfig::paper_baseline()),
        rolled_back,
    );
    check_faulted_lanes(
        "flex",
        |_| FlexGranularityPolicy::new(FlexConfig::paper_baseline()),
        rolled_back,
    );
    // UnSync recovers always-forward: one recovery episode per lane
    // instead of a rollback.
    check_faulted_lanes("unsync", unsync_policy, |r| r.out.recoveries == 1);
}
