//! The engine's ROB-occupancy statistics against a linear recount.
//!
//! `OooEngine::feed` counts in-flight ROB entries with a cursor over the
//! released prefix of the window, relying on the window being sorted by
//! release (the `CoreHooks::rob_release` contract) and on dispatch never
//! moving back. These tests recount every sample the way the engine once
//! did — a scan of the window — from the returned timings, under hooks
//! that release at commit, after commit, and only once a fingerprint
//! verifies; with pipeline flushes that empty the window, and across a
//! clone of the engine taken mid-run.

use unsync_isa::{Inst, InstStream};
use unsync_mem::{HierarchyConfig, MemSystem, WritePolicy};
use unsync_reunion::{ReunionConfig, ReunionHooks};
use unsync_sim::{CoreConfig, CoreHooks, CoreStats, InstTiming, NullHooks, OooEngine, RobRelease};
use unsync_workloads::{Benchmark, WorkloadGen};

/// Releases each ROB entry `k` cycles after commit, with `k` growing
/// along the program (so releases stay sorted).
struct LateRelease;

impl CoreHooks for LateRelease {
    fn rob_release(&mut self, inst: &Inst, commit: u64) -> RobRelease {
        RobRelease::At(commit + inst.seq / 97 * 3)
    }
}

/// Feeds `bench` through a fresh engine, flushing the pipeline after
/// every `flush_every` instructions (never if 0); returns its statistics,
/// every instruction's timing, and the index of the first instruction
/// after each flush.
fn run<H: CoreHooks>(
    bench: Benchmark,
    hooks: &mut H,
    flush_every: u64,
) -> (CoreStats, Vec<InstTiming>, Vec<usize>) {
    let mut mem = MemSystem::new(HierarchyConfig::table1(), 1, WritePolicy::WriteThrough);
    let mut engine = OooEngine::new(CoreConfig::table1(), 0);
    let mut gen = WorkloadGen::new(bench, 6_000, 5);
    let (mut timings, mut flushes) = (Vec::new(), Vec::new());
    while let Some(inst) = gen.next_inst() {
        timings.push(engine.feed(&inst, &mut mem, hooks));
        if flush_every > 0 && inst.seq % flush_every == flush_every - 1 {
            engine.flush_pipeline(engine.now() + 40);
            flushes.push(timings.len());
        }
    }
    (*engine.stats(), timings, flushes)
}

/// Asserts the engine's occupancy statistics equal a scan of the window
/// at each dispatch: the youngest `rob_size - 1` older instructions
/// since the last flush before it, counted while
/// `in_flight(older, dispatch)`.
fn assert_matches_scan(
    stats: &CoreStats,
    timings: &[InstTiming],
    flushes: &[usize],
    in_flight: impl Fn(&InstTiming, u64) -> bool,
) {
    let rob = CoreConfig::table1().rob_size as usize;
    let (mut sum, mut hist) = (0u64, [0u64; 17]);
    for (i, t) in timings.iter().enumerate() {
        let flushed = flushes.iter().rev().find(|&&f| f <= i).map_or(0, |&f| f);
        let window = &timings[(i + 1).saturating_sub(rob).max(flushed)..i];
        let count = window.iter().filter(|o| in_flight(o, t.dispatch)).count();
        sum += count as u64;
        hist[(count * 16 / rob).min(16)] += 1;
    }
    assert_eq!(stats.rob_occupancy_samples, timings.len() as u64);
    assert_eq!(stats.rob_occupancy_sum, sum);
    assert_eq!(stats.rob_occupancy_hist, hist);
}

/// Released at commit, or later: in flight while the release is still
/// ahead of the dispatch.
fn ahead(o: &InstTiming, dispatch: u64) -> bool {
    o.rob_free > dispatch
}

#[test]
fn occupancy_equals_a_scan_of_the_window() {
    // Never flushed, and flushed every 317 instructions: each flush
    // empties the window, so the recount restarts there.
    for flush_every in [0, 317] {
        for bench in [Benchmark::Mcf, Benchmark::Gzip, Benchmark::Sha] {
            let (stats, timings, flushes) = run(bench, &mut NullHooks, flush_every);
            let expected_flushes = 6_000u64.checked_div(flush_every).unwrap_or(0);
            assert_eq!(flushes.len() as u64, expected_flushes);
            assert_eq!(stats.recoveries, expected_flushes);
            assert_matches_scan(&stats, &timings, &flushes, ahead);
            let (stats, timings, flushes) = run(bench, &mut LateRelease, flush_every);
            assert!(timings.iter().any(|t| t.rob_free > t.commit));
            assert_matches_scan(&stats, &timings, &flushes, ahead);
            // Reunion's releases are pending until consumed: every entry
            // of the window is in flight.
            let mut reunion = ReunionHooks::new(ReunionConfig::paper_baseline());
            let (stats, timings, flushes) = run(bench, &mut reunion, flush_every);
            assert_matches_scan(&stats, &timings, &flushes, |_, _| true);
            assert!(
                stats.rob_occupancy_hist[15] > 0,
                "{bench:?}: the window fills"
            );
        }
    }
}

#[test]
fn a_clone_taken_mid_run_continues_like_the_original() {
    for bench in [Benchmark::Mcf, Benchmark::Gzip] {
        let mut mem = MemSystem::new(HierarchyConfig::table1(), 1, WritePolicy::WriteThrough);
        let mut engine = OooEngine::new(CoreConfig::table1(), 0);
        let mut hooks = LateRelease;
        let mut gen = WorkloadGen::new(bench, 6_000, 5);
        let mut timings = Vec::new();
        let mut twin = None;
        while let Some(inst) = gen.next_inst() {
            if inst.seq == 2_999 {
                twin = Some((engine.clone(), mem.clone(), Vec::new()));
            }
            timings.push(engine.feed(&inst, &mut mem, &mut hooks));
            if let Some((e, m, t)) = &mut twin {
                t.push(e.feed(&inst, m, &mut LateRelease));
            }
        }
        let (twin, _, twin_timings) = twin.expect("cloned");
        assert_eq!(twin_timings, timings[2_999..]);
        assert_eq!(twin.stats(), engine.stats());
        assert_matches_scan(engine.stats(), &timings, &[], ahead);
    }
}
