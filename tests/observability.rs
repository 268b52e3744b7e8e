//! End-to-end observability properties: the recovery-episode spans a
//! run produces must agree with the event-stream counters they are
//! derived from, cycle stamps must be monotone per lane, and all of it
//! must be deterministic.

use unsync::core::{UnsyncConfig, UnsyncPolicy};
use unsync::exec::{overlap_fraction, Lane, RedundantDriver, RunResult, TraceEventKind};
use unsync::mem::WritePolicy;
use unsync::prelude::*;
use unsync::sim::CoreConfig;

fn strikes(insts: u64, n: u64) -> Vec<PairFault> {
    (0..n)
        .map(|i| PairFault {
            at: (i + 1) * insts / (n + 1),
            core: (i % 2) as usize,
            site: FaultSite {
                target: FaultTarget::RegisterFile,
                bit_offset: 3 + i,
            },
            kind: unsync::fault::FaultKind::Single,
        })
        .collect()
}

fn faulted_pair_run(seed: u64) -> RunResult {
    let t = WorkloadGen::new(Benchmark::Gzip, 5_000, seed).collect_trace();
    let driver = RedundantDriver::new(CoreConfig::table1());
    let policy = UnsyncPolicy::new(
        "unsync_pair",
        UnsyncConfig::paper_baseline(),
        WritePolicy::WriteThrough,
        0,
    );
    let mut lane = Lane::new(&t);
    lane.faults = strikes(5_000, 3);
    driver.run(&mut [policy], vec![lane]).0.remove(0)
}

/// Span-derived statistics are pinned to the event-stream counters
/// they must agree with: one episode per completed recovery, and the
/// per-episode stalls summing to the counted recovery stall.
#[test]
fn span_stats_agree_with_event_counters() {
    let res = faulted_pair_run(11);
    let ev = &res.events;
    assert!(res.out.recoveries > 0, "fixture must recover");
    assert_eq!(
        ev.episodes().len() as u64,
        ev.count(TraceEventKind::RecoveryEnd)
    );
    assert_eq!(
        ev.episodes().iter().map(|e| e.stall).sum::<u64>(),
        ev.sum(TraceEventKind::RecoveryEnd)
    );
    let stats = ev.span_stats();
    assert_eq!(stats.episodes, res.out.recoveries);
    assert_eq!(stats.total_stall, res.out.recovery_stall_cycles);
    assert!(stats.mttr_max >= stats.mttr_p95 && stats.mttr_p95 >= stats.mttr_p50);
    assert!(stats.mttr_p50 > 0, "UnSync recovery is never free");
}

/// Episodes carry causally ordered stamps: a detection at or before the
/// recovery start, which is at or before the end; the stall never
/// exceeds the run length.
#[test]
fn episodes_are_causally_ordered() {
    let res = faulted_pair_run(12);
    assert!(!res.events.episodes().is_empty());
    for ep in res.events.episodes() {
        assert!(ep.start <= ep.end, "{ep:?}");
        if let Some(d) = ep.detect {
            assert!(d <= ep.start, "{ep:?}");
        }
        assert!(ep.end <= res.out.cycles, "{ep:?}");
        assert!(ep.duration() <= res.out.cycles);
    }
    // A single lane never overlaps with itself under UnSync's
    // stop-both-cores recovery.
    assert_eq!(overlap_fraction(res.events.episodes()), 0.0);
}

/// Every lane's ring stamps are monotone non-decreasing — the per-lane
/// cycle-stamp guarantee the stream clock enforces.
#[test]
fn ring_stamps_are_monotone_per_lane() {
    for res in [faulted_pair_run(13), faulted_pair_run(17)] {
        let stamps: Vec<u64> = res.events.recent().map(|e| e.cycle).collect();
        assert!(!stamps.is_empty());
        assert!(
            stamps.windows(2).all(|w| w[0] <= w[1]),
            "stamps regressed: {stamps:?}"
        );
        // Events exist and are stamped within the run.
        assert!(stamps.iter().all(|&c| c <= res.out.cycles));
    }
}

/// Spans, stamps, and stats are bit-deterministic across repeated runs.
#[test]
fn observability_layer_is_deterministic() {
    let a = faulted_pair_run(14);
    let b = faulted_pair_run(14);
    assert_eq!(a.out, b.out);
    assert_eq!(a.events.episodes(), b.events.episodes());
    assert_eq!(a.events.span_stats(), b.events.span_stats());
    let (ra, rb): (Vec<_>, Vec<_>) = (a.events.recent().collect(), b.events.recent().collect());
    assert_eq!(ra, rb);
}

/// Reunion's rollback recoveries also pair into episodes (synthesized
/// from bare `Rollback` events — rollback *is* its recovery), so
/// episode accounting spans both recovery disciplines.
#[test]
fn rollback_schemes_produce_episodes_too() {
    let t = WorkloadGen::new(Benchmark::Gzip, 5_000, 21).collect_trace();
    let fault = PairFault {
        at: 2_500,
        core: 0,
        site: FaultSite {
            target: FaultTarget::Rob,
            bit_offset: 7,
        },
        kind: unsync::fault::FaultKind::Single,
    };
    let driver = RedundantDriver::new(CoreConfig::table1());
    let policy =
        unsync::reunion::ReunionPolicy::new(unsync::reunion::ReunionConfig::paper_baseline());
    let mut lane = Lane::new(&t);
    lane.faults = vec![fault];
    let res = driver.run(&mut [policy], vec![lane]).0.remove(0);
    let rollbacks = res.events.count(TraceEventKind::Rollback);
    assert!(rollbacks > 0, "fixture must roll back");
    let episodes = res.events.episodes();
    assert_eq!(episodes.iter().map(|e| e.rollbacks).sum::<u64>(), rollbacks);
    for ep in episodes {
        assert!(ep.detect.is_some(), "rollback follows a detection: {ep:?}");
    }
}
