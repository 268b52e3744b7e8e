//! Granularity monotonicity of the FlexStep-style scheme: sweeping the
//! comparison window from per-instruction (1) to per-1k-instruction
//! (1024) windows must *never decrease* detection latency and *never
//! increase* the number of boundary comparisons. The invariants are
//! asserted over the sweep — not exact numbers — so they survive timing
//! retunes.

use unsync::prelude::TraceEventKind::{Detection, FingerprintMismatch, Rollback, WindowCompared};
use unsync::prelude::*;

/// Doubling window sweep, 1 → 1024.
const WINDOWS: [u32; 11] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

/// Trace length: a power of two so every window divides it evenly and
/// the error-free compare count is exactly `n / W`.
const INSTS: u64 = 2_048;

fn run(window: u32, faults: &[PairFault]) -> RunResult {
    let t = WorkloadGen::new(Benchmark::Gzip, INSTS, 5).collect_trace();
    FlexPair::new(CoreConfig::table1(), FlexConfig::with_window(window)).run(&t, faults)
}

/// Average pending stores observed per window boundary.
fn occupancy(out: &RunResult) -> f64 {
    let compares = out.events.count(WindowCompared);
    out.events.sum(WindowCompared) as f64 / compares as f64
}

fn rob_strike(at: u64) -> PairFault {
    PairFault {
        at,
        core: 1,
        site: FaultSite {
            target: FaultTarget::Rob,
            bit_offset: 23,
        },
        kind: unsync_fault::FaultKind::Single,
    }
}

#[test]
fn error_free_compare_count_never_increases_with_the_window() {
    let outs: Vec<RunResult> = WINDOWS.iter().map(|&w| run(w, &[])).collect();
    for (i, out) in outs.iter().enumerate() {
        assert_eq!(
            out.events.count(WindowCompared),
            INSTS / u64::from(WINDOWS[i]),
            "window {}",
            WINDOWS[i]
        );
        assert!(out.correct(), "window {}: {out:?}", WINDOWS[i]);
    }
    for pair in outs.windows(2) {
        assert!(pair[1].events.count(WindowCompared) <= pair[0].events.count(WindowCompared));
    }
}

#[test]
fn detection_latency_never_decreases_and_compares_never_increase() {
    // Several strike points so the invariant is not an artifact of one
    // alignment (window boundaries shift relative to `at`).
    for at in [137u64, 777, 1_500] {
        let outs: Vec<RunResult> = WINDOWS.iter().map(|&w| run(w, &[rob_strike(at)])).collect();
        for (i, out) in outs.iter().enumerate() {
            let w = WINDOWS[i];
            assert_eq!(
                out.events.count(FingerprintMismatch),
                1,
                "window {w}, strike {at}"
            );
            assert_eq!(out.events.count(Rollback), 1, "window {w}, strike {at}");
            // An in-window strike is caught at its own window boundary.
            assert_eq!(
                out.events.sum(Detection),
                u64::from(w) - at % u64::from(w),
                "window {w}, strike {at}"
            );
            assert!(out.correct(), "window {w}, strike {at}: {out:?}");
        }
        for (pair, w) in outs.windows(2).zip(WINDOWS.windows(2)) {
            assert!(
                pair[1].events.sum(Detection) >= pair[0].events.sum(Detection),
                "strike {at}: latency shrank going from window {} to {}",
                w[0],
                w[1]
            );
            assert!(
                pair[1].events.count(WindowCompared) <= pair[0].events.count(WindowCompared),
                "strike {at}: compare count grew going from window {} to {}",
                w[0],
                w[1]
            );
        }
    }
}

#[test]
fn store_buffer_occupancy_scales_with_the_window() {
    let outs: Vec<RunResult> = WINDOWS.iter().map(|&w| run(w, &[])).collect();
    // CB/CSB pressure grows with granularity: the coarsest window must
    // buffer strictly more unverified stores on average than the finest.
    assert!(
        occupancy(outs.last().unwrap()) > occupancy(&outs[0]),
        "{:?} vs {:?}",
        outs.last().unwrap(),
        outs[0]
    );
    // And the trend is monotone across the doubling sweep.
    for pair in outs.windows(2) {
        assert!(
            occupancy(&pair[1]) >= occupancy(&pair[0]),
            "{:?} vs {:?}",
            pair[1],
            pair[0]
        );
    }
}
