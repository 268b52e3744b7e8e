//! Determinism regression for the streaming campaign engine: the same
//! [`CampaignGrid`] must produce byte-identical normalized JSONL at
//! any worker count, and a run killed mid-grid must resume to the same
//! bytes an uninterrupted run produces. The engine appends records in
//! row order, so a fresh log is the sequential reference line for
//! line, and a resume that crosses a chunk boundary stays byte-identical
//! without normalizing. Alongside, a property test
//! that the job → SplitMix64 stream mapping never hands two jobs of a
//! grid the same stream.

use std::path::PathBuf;

use proptest::prelude::*;
use unsync_bench::campaign::run_collected;
use unsync_bench::{normalized_lines, CampaignEngine, CampaignGrid, Json};
use unsync_fault::roec::StrikeOutcome;
use unsync_fault::uncore::StrikePlan;
use unsync_mem::L2ContentionConfig;
use unsync_workloads::WorkloadSpec;

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// A fast uncore strike grid: small traces, one strike per cell, the
/// three bracketing schemes.
fn strike_grid() -> CampaignGrid {
    CampaignGrid {
        name: "campaign_det".into(),
        inst_count: 120,
        seeds: vec![11, 12],
        workloads: vec![WorkloadSpec::parse("gzip").expect("static workload")],
        schemes: vec!["unsync_pair", "tmr_vote", "secded_only"],
        strikes: Some(StrikePlan::all_uncore(1, 240)),
        contention: Some(L2ContentionConfig::many_core()),
    }
}

/// A log's lines without its trailing meta line (wall-clock and
/// metrics, the one part of a log that differs between runs).
fn without_meta(text: &str) -> Vec<&str> {
    text.lines()
        .filter(|l| !l.starts_with("{\"kind\":\"meta\""))
        .collect()
}

/// A scratch path unique to this test process and `label`.
fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("unsync_campaign_det_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(format!("{label}.jsonl"))
}

/// Runs the engine on a fresh log and returns the normalized lines.
fn engine_lines(grid: &CampaignGrid, workers: usize, label: &str) -> Vec<String> {
    let path = scratch(label);
    let _ = std::fs::remove_file(&path);
    CampaignEngine::new(workers)
        .run_streaming(grid, &path)
        .expect("campaign run");
    let text = std::fs::read_to_string(&path).expect("read campaign log");
    let _ = std::fs::remove_file(&path);
    normalized_lines(&text)
}

#[test]
fn campaign_jsonl_is_byte_identical_across_worker_counts() {
    let grid = strike_grid();
    let reference = normalized_lines(&run_collected(&grid).join("\n"));
    assert_eq!(
        reference.len(),
        grid.len() + 1,
        "expected a header plus one record per job"
    );
    for workers in WORKER_COUNTS {
        let lines = engine_lines(&grid, workers, &format!("workers_{workers}"));
        assert_eq!(
            lines, reference,
            "engine at {workers} workers diverged from the sequential reference"
        );
    }
}

#[test]
fn campaign_resumes_killed_run_to_identical_bytes() {
    let grid = strike_grid();
    let path = scratch("kill_resume");
    let _ = std::fs::remove_file(&path);

    // The uninterrupted run is the oracle.
    CampaignEngine::new(2)
        .run_streaming(&grid, &path)
        .expect("uninterrupted campaign run");
    let full = std::fs::read_to_string(&path).expect("read campaign log");
    let reference = normalized_lines(&full);

    // "Kill" the run: keep the header and the first few records, then
    // a torn half-written line, as a mid-write SIGKILL would leave.
    let keep = 5;
    let prefix: Vec<&str> = full.lines().take(1 + keep).collect();
    let mut torn = prefix.join("\n");
    torn.push_str("\n{\"kind\":\"record\",\"row\":99,\"trunc");
    std::fs::write(&path, &torn).expect("write truncated log");

    let report = CampaignEngine::new(8)
        .run_streaming(&grid, &path)
        .expect("resumed campaign run");
    assert_eq!(
        report.jobs_skipped, keep,
        "resume must skip the kept records"
    );
    assert_eq!(
        report.jobs_run,
        grid.len() - keep,
        "resume must run exactly the missing jobs"
    );
    let resumed = std::fs::read_to_string(&path).expect("read resumed log");
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        normalized_lines(&resumed),
        reference,
        "resumed log diverged from the uninterrupted run"
    );
}

/// Every scheme table row runs on a strike grid, not only the three of
/// the default ROEC grid: lockstep, the rollback schemes and the
/// one-replica checkpoint scheme too.
#[test]
fn strike_grid_over_the_other_table_schemes_is_deterministic() {
    let grid = CampaignGrid {
        name: "campaign_det_table".into(),
        schemes: vec!["lockstep", "reunion", "checkpoint", "flex"],
        ..strike_grid()
    };
    let one = engine_lines(&grid, 1, "table_1");
    assert_eq!(one.len(), grid.len() + 1);
    assert_eq!(engine_lines(&grid, 2, "table_2"), one);
    for line in &one[1..] {
        let json = Json::parse(line).expect("record parses");
        let label = json.get("outcome").and_then(Json::as_str);
        assert!(
            label.and_then(StrikeOutcome::from_label).is_some(),
            "{line}"
        );
    }
}

#[test]
fn fresh_log_is_the_sequential_reference_in_row_order() {
    let grid = strike_grid();
    let path = scratch("row_order");
    let _ = std::fs::remove_file(&path);
    CampaignEngine::new(2)
        .run_streaming(&grid, &path)
        .expect("campaign run");
    let text = std::fs::read_to_string(&path).expect("read campaign log");
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        without_meta(&text),
        run_collected(&grid),
        "raw log must list the reference records in row order"
    );
}

#[test]
fn resume_across_a_chunk_boundary_is_byte_identical() {
    // 6 structures × 8 strikes × 3 schemes × 2 seeds = 288 jobs: more
    // than one 256-job chunk, so the kill lands inside the second.
    let grid = CampaignGrid {
        strikes: Some(StrikePlan::all_uncore(8, 240)),
        ..strike_grid()
    };
    assert_eq!(grid.len(), 288);
    let path = scratch("chunk_resume");
    let _ = std::fs::remove_file(&path);
    CampaignEngine::new(2)
        .run_streaming(&grid, &path)
        .expect("uninterrupted campaign run");
    let full = std::fs::read_to_string(&path).expect("read campaign log");

    let keep = 270;
    let mut torn = full.lines().take(1 + keep).collect::<Vec<_>>().join("\n");
    torn.push_str("\n{\"kind\":\"record\",\"row\":270,\"trunc");
    std::fs::write(&path, &torn).expect("write truncated log");

    let report = CampaignEngine::new(2)
        .run_streaming(&grid, &path)
        .expect("resumed campaign run");
    assert_eq!(report.jobs_skipped, keep);
    assert_eq!(report.jobs_run, grid.len() - keep);
    let resumed = std::fs::read_to_string(&path).expect("read resumed log");
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        without_meta(&resumed),
        without_meta(&full),
        "resumed log diverged from the uninterrupted run"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Every job of an arbitrary grid draws a distinct SplitMix64
    /// stream: no two cells of the cartesian product — across
    /// workloads, seeds, schemes, strike cells, and both job kinds —
    /// collide on `stream_seed`.
    #[test]
    fn job_stream_mapping_is_injective(
        inst_count in 50u64..5_000,
        raw_seeds in proptest::collection::vec(0u64..1_000_000, 1..4),
        n_schemes in 1usize..4,
        strikes in 0u64..3,
    ) {
        let mut seeds = raw_seeds;
        seeds.sort_unstable();
        seeds.dedup();
        let schemes: Vec<&'static str> =
            ["unsync_pair", "tmr_vote", "secded_only"][..n_schemes].to_vec();
        let grid = CampaignGrid {
            name: "campaign_prop".into(),
            inst_count,
            seeds,
            workloads: vec![
                WorkloadSpec::parse("gzip").expect("static workload"),
                WorkloadSpec::parse("qsort").expect("static workload"),
            ],
            schemes,
            strikes: (strikes > 0).then(|| StrikePlan::all_uncore(strikes, inst_count)),
            contention: None,
        };
        let jobs = grid.expand();
        prop_assert_eq!(jobs.len(), grid.len());
        let mut streams: Vec<u64> = jobs.iter().map(|j| j.stream_seed()).collect();
        streams.sort_unstable();
        let before = streams.len();
        streams.dedup();
        prop_assert_eq!(streams.len(), before, "two jobs drew the same stream");
    }
}
