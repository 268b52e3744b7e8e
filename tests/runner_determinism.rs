//! Determinism regression below the experiment table: same-seed reruns
//! of single runs and many-lane systems must be byte-identical. Every
//! table row's worker-count independence is gated by
//! `tests/golden_values.rs`.

use unsync_bench::{experiments, render, ExperimentConfig, RunLog, Runner};
use unsync_core::{UnsyncConfig, UnsyncPolicy};
use unsync_mem::WritePolicy;

/// One UnSync pair policy per lane, lane `p` on cores `2p` and `2p + 1`.
fn unsync_policies(lanes: usize) -> Vec<UnsyncPolicy> {
    let ucfg = UnsyncConfig::paper_baseline();
    (0..lanes)
        .map(|p| UnsyncPolicy::new("unsync_pair", ucfg, WritePolicy::WriteThrough, 2 * p))
        .collect()
}

/// The Fig. 4 run log's deterministic portion (header + records, no
/// meta line).
fn fig4_jsonl(cfg: ExperimentConfig) -> Vec<String> {
    let rows = experiments::fig4_on(Runner::new(2), cfg);
    let mut log = RunLog::start("fig4", cfg);
    for row in &rows {
        log.record(render::jsonl::fig4(row));
    }
    log.deterministic_lines().to_vec()
}

#[test]
fn fig4_jsonl_depends_on_seed_not_workers() {
    // The worker-count gate is not vacuous: a different seed must
    // actually change the recorded rows.
    let a = fig4_jsonl(ExperimentConfig {
        inst_count: 1_500,
        seed: 7,
    });
    let b = fig4_jsonl(ExperimentConfig {
        inst_count: 1_500,
        seed: 8,
    });
    assert_ne!(a[1..], b[1..], "seed change must alter Fig. 4 measurements");
}

#[test]
fn new_schemes_are_deterministic_across_repeated_same_seed_runs() {
    use unsync::prelude::*;
    let t = WorkloadGen::new(Benchmark::Dijkstra, 4_000, 17).collect_trace();
    let strike = |core: usize| PairFault {
        at: 2_111,
        core,
        site: FaultSite {
            target: FaultTarget::Rob,
            bit_offset: 29,
        },
        kind: unsync_fault::FaultKind::Single,
    };

    let tmr = || TmrTriple::new(CoreConfig::table1()).run(&t, &[strike(2)]);
    let tmr_ref = tmr();
    assert_eq!(tmr_ref.events.count(TraceEventKind::Corrected), 1);

    let flex =
        || FlexPair::new(CoreConfig::table1(), FlexConfig::with_window(64)).run(&t, &[strike(1)]);
    let flex_ref = flex();
    assert_eq!(flex_ref.events.count(TraceEventKind::Rollback), 1);

    let secded = || SecdedOnlyCore::new(CoreConfig::table1()).run(&t, &[strike(0)]);
    let secded_ref = secded();
    assert_eq!(secded_ref.events.count(TraceEventKind::CorrectedInPlace), 1);

    for _ in 0..2 {
        assert_eq!(tmr(), tmr_ref, "TMR diverged on a same-seed rerun");
        assert_eq!(flex(), flex_ref, "FlexStep diverged on a same-seed rerun");
        assert_eq!(
            secded(),
            secded_ref,
            "SECDED-only diverged on a same-seed rerun"
        );
    }
}

#[test]
fn run_system_is_deterministic_at_2_8_and_16_lanes() {
    // The heap-scheduled laggard loop must pick lanes exactly like the
    // linear min-scan it replaced: smallest lane clock first, lowest
    // lane index on ties. Per-lane outcomes pin the interleaving — any
    // scheduling difference shifts shared-L2 contention and shows up in
    // cycles/miss-rate — and repeated runs must be byte-identical.
    use unsync::prelude::*;
    use unsync_exec::RedundantDriver;
    let driver = RedundantDriver::new(CoreConfig::table1());
    for lanes in [2usize, 8, 16] {
        let traces: Vec<TraceProgram> = (0..lanes)
            .map(|p| WorkloadGen::new(Benchmark::Gzip, 1_000, 23 + p as u64).collect_trace())
            .collect();
        let run = || {
            let (out, mem) = driver.run_system(&mut unsync_policies(lanes), &traces);
            (out, mem.l2_stats().miss_rate())
        };
        let reference = run();
        assert_eq!(reference.0.len(), lanes);
        for (p, r) in reference.0.iter().enumerate() {
            assert_eq!(r.committed, 1_000, "lane {p} of {lanes}");
            assert!(r.correct(), "lane {p} of {lanes}: {r:?}");
        }
        // Distinct per-lane seeds must yield distinct lane outcomes —
        // otherwise the equality below could pass vacuously.
        assert!(
            reference.0.windows(2).any(|w| w[0].cycles != w[1].cycles),
            "expected per-lane variation across seeds"
        );
        for _ in 0..2 {
            assert_eq!(run(), reference, "{lanes}-lane system diverged");
        }
    }
}

#[test]
fn run_system_is_byte_identical_on_rerun_at_64_lanes() {
    // Many-core scale: the event queue drives 64 lanes (128 cores) over
    // one shared memory system. Full RunResult equality — counters,
    // event streams, final memory images — across a same-seed rerun.
    use unsync::prelude::*;
    use unsync_exec::RedundantDriver;
    let lanes = 64usize;
    let traces: Vec<TraceProgram> = (0..lanes)
        .map(|p| {
            WorkloadGen::new_at(
                Benchmark::Gzip,
                300,
                41 + p as u64,
                0x1000_0000 + p as u64 * 0x0100_0000,
            )
            .collect_trace()
        })
        .collect();
    let driver = RedundantDriver::new(CoreConfig::table1());
    let run = || driver.run_system(&mut unsync_policies(lanes), &traces);
    let (reference, _) = run();
    assert_eq!(reference.len(), lanes);
    assert!(reference.iter().all(|r| r.out.committed == 300));
    let (again, _) = run();
    assert_eq!(again, reference, "64-lane system diverged on rerun");
}

#[test]
fn lockstep_pair_is_deterministic_across_repeated_runs() {
    use unsync::prelude::*;
    use unsync::reunion::LockstepPair;
    let t = WorkloadGen::new(Benchmark::Qsort, 5_000, 11).collect_trace();
    let run = |window: u64| {
        let mut pair = LockstepPair::new(CoreConfig::table1());
        pair.window = window;
        pair.run(&t)
    };
    for window in [1, 8, 64] {
        let reference = run(window);
        assert!(reference.cycles > 0);
        for _ in 0..2 {
            assert_eq!(run(window), reference, "window {window} diverged");
        }
    }
}
