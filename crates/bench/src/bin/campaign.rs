//! The batched campaign driver: runs the uncore strike grid of the
//! `roec_uncore` row ([`unsync_bench::roec_uncore::grid`]) and a
//! scheme-comparator grid through the streaming
//! [`unsync_bench::campaign`] engine, once each, and exits non-zero if
//! either normalized JSONL log differs from the sequential
//! `run_collected` reference.
//!
//! Logs land in the results directory as `campaign_uncore.jsonl` /
//! `campaign_compare.jsonl` (the dashboard renders their meta lines as
//! the campaign table). Throughput is measured by the repository
//! benchmark (`examples/benchmark`), not here.
//!
//! Both grids run at base seed [`roec_uncore::SEED`] (11). Environment
//! knobs: `UNSYNC_CAMPAIGN_SMOKE=1` (the CI grids),
//! `UNSYNC_CAMPAIGN_RESUME_ONLY=1` (resume the logs in place instead
//! of starting fresh — the CI kill-then-resume check),
//! `UNSYNC_WORKERS` (engine worker count), and `UNSYNC_RESULTS_DIR`.
//! A flag other than `0` or `1` exits 2.

use unsync_bench::campaign::{normalized_lines, run_collected, CampaignEngine, CampaignGrid};
use unsync_bench::{env, roec_uncore, runlog, scheme, Runner};
use unsync_workloads::WorkloadSpec;

fn workload(name: &str) -> WorkloadSpec {
    WorkloadSpec::parse(name).expect("campaign workload list is static")
}

/// The scheme-comparator grid: fault-free overhead of every comparator
/// across workloads × seeds.
fn compare_grid(seed: u64, smoke: bool) -> CampaignGrid {
    if smoke {
        CampaignGrid {
            name: "campaign_compare".into(),
            inst_count: 120,
            seeds: vec![seed],
            workloads: vec![workload("gzip")],
            schemes: vec!["lockstep", "unsync_pair", "tmr_vote"],
            strikes: None,
            contention: None,
        }
    } else {
        CampaignGrid {
            name: "campaign_compare".into(),
            inst_count: 400,
            seeds: vec![seed, seed + 1],
            workloads: vec![workload("gzip"), workload("kernel:qsort")],
            schemes: scheme::TABLE.iter().map(|s| s.name).collect(),
            strikes: None,
            contention: None,
        }
    }
}

/// Runs `grid` through the engine into `<name>.jsonl` — from scratch,
/// or resuming the existing log — and checks the normalized log
/// against the sequential reference.
fn run_grid(grid: &CampaignGrid, workers: usize, resume: bool) -> Result<(), String> {
    let path = runlog::results_dir().join(format!("{}.jsonl", grid.name));
    if !resume {
        let _ = std::fs::remove_file(&path);
    }
    let report = CampaignEngine::new(workers).run_streaming(grid, &path)?;
    println!(
        "{}: {} jobs, {} run, {} skipped, {} ms at {workers} workers ({:.1} jobs/sec)",
        path.display(),
        report.jobs_total,
        report.jobs_run,
        report.jobs_skipped,
        report.wall_ms,
        report.jobs_per_sec()
    );
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    if normalized_lines(&text) != run_collected(grid) {
        return Err(format!(
            "{} diverged from the sequential reference",
            path.display()
        ));
    }
    Ok(())
}

fn main() {
    let seed = roec_uncore::SEED;
    let workers = env::or_exit(Runner::from_env()).workers();
    let smoke = env::or_exit(env::flag("UNSYNC_CAMPAIGN_SMOKE"));
    let resume = env::or_exit(env::flag("UNSYNC_CAMPAIGN_RESUME_ONLY"));
    // The row's grid under its own log name, so both logs can share a
    // results directory.
    let uncore = CampaignGrid {
        name: "campaign_uncore".into(),
        ..roec_uncore::grid(seed, smoke)
    };
    for grid in [uncore, compare_grid(seed, smoke)] {
        if let Err(e) = run_grid(&grid, workers, resume) {
            eprintln!("error: campaign {}: {e}", grid.name);
            std::process::exit(1);
        }
    }
}
