//! Property tests over cycle-scheduled uncore fault injection (a
//! lane's `uncore` schedule in `RedundantDriver::run`) and the ROEC 2.0
//! campaign built on it:
//!
//! * a zero-strike campaign run is byte-identical to `run_system` —
//!   the injection path costs nothing when unused;
//! * every classified strike carries exactly one of the four outcome
//!   labels, and the label round-trips through its string form — also
//!   under Reunion, a rollback scheme;
//! * `masked` strikes left the committed memory image byte-identical
//!   to the golden run, `sdc` strikes provably diverged;
//! * the campaign is bit-identical across worker counts and reruns;
//! * the records the `roec_uncore` row logs are the sequential
//!   `run_collected` reference's record lines;
//! * the smoke grid's `BENCH_roec.json` labels every strike of every
//!   cell, with no SDC under UnSync;
//! * mixed core + uncore schedules deliver in cycle order (the
//!   uncore-before-core contract is a `debug_assert` in the driver, so
//!   this binary exercising it under `cargo test` is the enforcement).

use std::collections::BTreeSet;

use unsync_bench::campaign::{run_collected, run_records, CampaignGrid};
use unsync_bench::roec_uncore::{self, classify_strike_result};
use unsync_bench::{ExperimentConfig, Json, RunLog, Runner};
use unsync_core::{UnsyncConfig, UnsyncPolicy};
use unsync_exec::event::DEFAULT_JOURNAL_CAP;
use unsync_exec::{Lane, RedundantDriver};
use unsync_fault::roec::{StrikeOutcome, ALL_OUTCOMES};
use unsync_fault::uncore::{UncoreSite, UncoreStrike, UncoreTarget};
use unsync_fault::{FaultKind, FaultSite, FaultTarget, PairFault};
use unsync_isa::{golden_run, TraceProgram};
use unsync_mem::{L2ContentionConfig, WritePolicy};
use unsync_reunion::{ReunionConfig, ReunionPolicy};
use unsync_sim::CoreConfig;
use unsync_workloads::{Benchmark, WorkloadGen};

fn traces(lanes: usize, insts: u64, seed: u64) -> Vec<TraceProgram> {
    (0..lanes)
        .map(|p| WorkloadGen::new(Benchmark::Gzip, insts, seed + p as u64).collect_trace())
        .collect()
}

fn policies(lanes: usize) -> Vec<UnsyncPolicy> {
    (0..lanes)
        .map(|p| {
            UnsyncPolicy::new(
                "uncore_faults_test",
                UnsyncConfig::paper_baseline(),
                WritePolicy::WriteThrough,
                2 * p,
            )
        })
        .collect()
}

#[test]
fn zero_strike_run_is_byte_identical_to_run_system() {
    let driver = RedundantDriver::new(CoreConfig::table1());
    let ts = traces(3, 500, 7);
    let (plain, plain_mem) = driver.run_system(&mut policies(3), &ts);
    let (with, with_mem) = driver.run(
        &mut policies(3),
        ts.iter()
            .map(|t| Lane {
                faults: Vec::new(),
                uncore: Vec::new(),
                ..Lane::new(t)
            })
            .collect(),
    );
    assert_eq!(plain.len(), with.len());
    for (p, (a, b)) in plain.iter().zip(with.iter()).enumerate() {
        assert_eq!(a.out, b.out, "lane {p} outcome counters");
        assert_eq!(a.events, b.events, "lane {p} event stream");
        assert_eq!(a.memory, b.memory, "lane {p} memory image");
    }
    assert_eq!(
        plain_mem.l2_stats().miss_rate(),
        with_mem.l2_stats().miss_rate(),
        "shared L2 statistics"
    );
    // No journal unless the driver asks for one.
    assert!(with[0].events.journal().is_none());
}

/// The run's outcome label and its `memory_matches` field.
fn outcome(record: &Json) -> (StrikeOutcome, bool) {
    let label = record.get("outcome").and_then(Json::as_str);
    let outcome = label.and_then(StrikeOutcome::from_label);
    let matches = record.get("memory_matches").and_then(Json::as_u64);
    (
        outcome.unwrap_or_else(|| panic!("unknown outcome {label:?}")),
        matches == Some(1),
    )
}

#[test]
fn every_strike_gets_exactly_one_of_the_four_labels() {
    let records = run_records(&roec_uncore::grid(23, true), &Runner::new(2));
    assert!(!records.is_empty());
    for r in &records {
        let (outcome, _) = outcome(r);
        assert!(
            ALL_OUTCOMES.contains(&outcome),
            "unknown outcome {outcome:?}"
        );
        assert_eq!(
            r.get("outcome").and_then(Json::as_str),
            Some(outcome.label()),
            "label must round-trip"
        );
    }
}

#[test]
fn masked_means_clean_memory_and_sdc_means_diverged() {
    for r in run_records(&roec_uncore::grid(5, true), &Runner::new(2)) {
        match outcome(&r) {
            (StrikeOutcome::Masked, clean) => {
                assert!(clean, "masked strike corrupted memory: {}", r.render())
            }
            (StrikeOutcome::Sdc, clean) => {
                assert!(!clean, "SDC strike left memory clean: {}", r.render())
            }
            _ => {}
        }
    }
}

#[test]
fn campaign_is_deterministic_across_worker_counts_and_reruns() {
    let grid = roec_uncore::grid(11, true);
    let one = run_records(&grid, &Runner::new(1));
    let two = run_records(&grid, &Runner::new(2));
    let eight = run_records(&grid, &Runner::new(8));
    assert_eq!(one, two, "1 vs 2 workers");
    assert_eq!(one, eight, "1 vs 8 workers");
    let rerun = run_records(&grid, &Runner::new(2));
    assert_eq!(two, rerun, "same-seed rerun");
}

/// The row's records, framed as its run log frames them, are the
/// record lines of the sequential reference over the `campaign` bin's
/// `campaign_uncore` grid, which the bin checks its own log against —
/// one strike path, whatever the caller.
#[test]
fn row_records_are_the_sequential_reference_lines() {
    for seed in [42, 11] {
        let grid = roec_uncore::grid(seed, true);
        let mut log = RunLog::start(
            "roec_uncore",
            ExperimentConfig {
                inst_count: grid.inst_count,
                seed,
            },
        );
        for record in run_records(&grid, &Runner::new(2)) {
            log.record(record);
        }
        let reference = run_collected(&CampaignGrid {
            name: "campaign_uncore".into(),
            ..grid
        });
        assert_eq!(reference.len(), log.deterministic_lines().len());
        assert_eq!(
            log.deterministic_lines()[1..],
            reference[1..],
            "seed {seed}"
        );
    }
}

/// The `BENCH_roec.json` summary of the smoke grid (`grid(11, true)`):
/// two strikes in each of the 18 structure × scheme cells, each strike
/// with one label, and no SDC under UnSync.
#[test]
fn smoke_summary_covers_every_cell_without_unsync_sdc() {
    let grid = roec_uncore::grid(11, true);
    let records = run_records(&grid, &Runner::new(2));
    let doc = Json::parse(&roec_uncore::summary_json(&grid, &records).render())
        .expect("BENCH_roec.json parses");
    assert_eq!(doc.get("schema").and_then(Json::as_u64), Some(1));
    assert_eq!(doc.get("strikes_per_cell").and_then(Json::as_u64), Some(2));
    let Some(Json::Arr(rows)) = doc.get("table") else {
        panic!("no table array");
    };
    let name = |r: &Json, key: &str| r.get(key).and_then(Json::as_str).expect(key).to_string();
    let set = |key: &str| -> BTreeSet<String> { rows.iter().map(|r| name(r, key)).collect() };
    let cells: BTreeSet<(String, String)> = rows
        .iter()
        .map(|r| (name(r, "structure"), name(r, "scheme")))
        .collect();
    let strings = |names: &[&str]| names.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        set("structure"),
        strings(&[
            "l2_data",
            "l2_tag",
            "mshr_entry",
            "bank_arbiter",
            "cb_data",
            "cb_tag"
        ])
    );
    assert_eq!(
        set("scheme"),
        strings(&["unsync_pair", "tmr_vote", "secded_only"])
    );
    assert_eq!((cells.len(), rows.len()), (18, 18));
    for r in rows {
        let count = |key| r.get(key).and_then(Json::as_u64).expect(key);
        let total = count("masked")
            + count("detected_recovered")
            + count("detected_unrecoverable")
            + count("sdc");
        assert!(total == count("strikes") && total == 2, "{r:?}");
        if name(r, "scheme") == "unsync_pair" {
            assert_eq!(
                count("sdc"),
                0,
                "UnSync let an uncore strike through: {r:?}"
            );
        }
    }
}

/// Mixed schedule: an uncore strike *and* a core fault on the same
/// lane. The driver's delivery contract (uncore strikes drain at the
/// tick boundary before the instruction; delivery cycles advance
/// monotonically) is pinned by `debug_assert`s in `LaneRunner::tick`,
/// so this test running under `cargo test` (debug assertions on) is
/// what enforces it. The core fault must still be detected and
/// recovered exactly as in a pure core-fault campaign.
#[test]
fn mixed_core_and_uncore_schedules_deliver_in_cycle_order() {
    let driver = RedundantDriver::new(CoreConfig::table1()).with_journal(DEFAULT_JOURNAL_CAP);
    let ts = traces(1, 600, 3);
    let strike = UncoreStrike {
        cycle: 40,
        lane: 0,
        site: UncoreSite::plan_in(UncoreTarget::L2Data, 9, 1),
        kind: FaultKind::Single,
        directed: false,
    };
    let fault = PairFault {
        at: 300,
        core: 0,
        site: FaultSite {
            target: FaultTarget::RegisterFile,
            bit_offset: 17,
        },
        kind: FaultKind::Single,
    };
    let mut lane = Lane::new(&ts[0]);
    (lane.faults, lane.uncore) = (vec![fault], vec![strike]);
    let (results, _) = driver.run(&mut policies(1), vec![lane]);
    let r = &results[0];
    assert_eq!(r.out.recoveries, 1, "core fault must still recover");
    assert!(r.out.detections >= 1, "core fault must still be detected");
    assert!(
        r.out.correct(),
        "mixed schedule must stay recoverable: {:?}",
        r.out
    );
    // The journal records both deliveries, cycle-stamped.
    let journal = r.events.journal().expect("journal requested");
    assert!(journal.windows(2).all(|w| w[0].cycle <= w[1].cycle));
}

/// A one-lane Reunion run takes a directed L2 strike on the contended
/// L2 — the rollback scheme on the uncore-strike path — finishes its
/// trace, and its strike gets exactly one of the four labels.
#[test]
fn reunion_strike_gets_exactly_one_of_the_four_labels() {
    let driver = RedundantDriver::new(CoreConfig::table1())
        .with_l2_contention(L2ContentionConfig::many_core());
    let ts = traces(1, 400, 13);
    let golden = golden_run(&ts[0]).1;
    let mut lane = Lane::new(&ts[0]);
    lane.uncore = vec![UncoreStrike::plan_in(UncoreTarget::L2Data, 7, 1, 0, 400).directed()];
    lane.golden = Some(&golden);
    let policy = ReunionPolicy::new(ReunionConfig::paper_baseline());
    let (results, _) = driver.run(&mut [policy], vec![lane]);
    assert_eq!(results[0].out.committed, 400);
    let (outcome, _) = classify_strike_result(&results[0], &golden);
    assert!(ALL_OUTCOMES.contains(&outcome), "{outcome:?}");
    assert_eq!(StrikeOutcome::from_label(outcome.label()), Some(outcome));
}
