//! The engine's ROB-occupancy statistics against a linear recount.
//!
//! `OooEngine::feed` counts in-flight ROB entries with a binary search,
//! relying on the window being sorted by release (the
//! `CoreHooks::rob_release` contract). This test recounts every sample
//! the way the engine once did — a scan of the window — from the
//! returned timings, under hooks that release at commit, after commit,
//! and only once a fingerprint verifies.

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

/// Feeds `bench` through a fresh engine; returns its statistics and every
/// instruction's timing.
fn run<H: CoreHooks>(bench: Benchmark, hooks: &mut H) -> (CoreStats, Vec<InstTiming>) {
    let mut mem = MemSystem::new(HierarchyConfig::table1(), 1, WritePolicy::WriteThrough);
    let mut engine = OooEngine::new(CoreConfig::table1(), 0);
    let mut gen = WorkloadGen::new(bench, 6_000, 5);
    let mut timings = Vec::new();
    while let Some(inst) = gen.next_inst() {
        timings.push(engine.feed(&inst, &mut mem, hooks));
    }
    (*engine.stats(), timings)
}

/// Asserts the engine's occupancy statistics equal a scan of the window
/// at each dispatch: the youngest `rob_size - 1` older instructions,
/// counted while `in_flight(older, dispatch)`.
fn assert_matches_scan(
    stats: &CoreStats,
    timings: &[InstTiming],
    in_flight: impl Fn(&InstTiming, u64) -> bool,
) {
    let rob = CoreConfig::table1().rob_size as usize;
    let (mut sum, mut hist) = (0u64, [0u64; 17]);
    for (i, t) in timings.iter().enumerate() {
        let window = &timings[(i + 1).saturating_sub(rob)..i];
        let count = window.iter().filter(|o| in_flight(o, t.dispatch)).count();
        sum += count as u64;
        hist[(count * 16 / rob).min(16)] += 1;
    }
    assert_eq!(stats.rob_occupancy_samples, timings.len() as u64);
    assert_eq!(stats.rob_occupancy_sum, sum);
    assert_eq!(stats.rob_occupancy_hist, hist);
}

#[test]
fn occupancy_equals_a_scan_of_the_window() {
    for bench in [Benchmark::Mcf, Benchmark::Gzip, Benchmark::Sha] {
        // Released at commit, or later: in flight while the release is
        // still ahead of the dispatch.
        let ahead = |o: &InstTiming, dispatch| o.rob_free > dispatch;
        let (stats, timings) = run(bench, &mut NullHooks);
        assert_matches_scan(&stats, &timings, ahead);
        let (stats, timings) = run(bench, &mut LateRelease);
        assert!(timings.iter().any(|t| t.rob_free > t.commit));
        assert_matches_scan(&stats, &timings, ahead);
        // Reunion's releases are pending until consumed: every entry of
        // the window is in flight.
        let mut reunion = ReunionHooks::new(ReunionConfig::paper_baseline());
        let (stats, timings) = run(bench, &mut reunion);
        assert_matches_scan(&stats, &timings, |_, _| true);
        assert!(
            stats.rob_occupancy_hist[15] > 0,
            "{bench:?}: the window fills"
        );
    }
}
