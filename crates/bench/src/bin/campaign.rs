//! The batched campaign driver: runs a roec-style uncore strike grid
//! and a scheme-comparator grid through the streaming
//! [`unsync_bench::campaign`] engine, once each, and exits non-zero if
//! either normalized JSONL log differs from the sequential
//! `run_collected` reference.
//!
//! Logs land in the results directory as `campaign_uncore.jsonl` /
//! `campaign_compare.jsonl` (the dashboard renders their meta lines as
//! the campaign table). Throughput is measured by the repository
//! benchmark (`examples/benchmark`), not here.
//!
//! Environment knobs: `UNSYNC_SEED` (base seed, default 11),
//! `UNSYNC_CAMPAIGN_SMOKE=1` (tiny CI grids),
//! `UNSYNC_CAMPAIGN_RESUME_ONLY=1` (resume the logs in place instead
//! of starting fresh — the CI kill-then-resume check),
//! `UNSYNC_WORKERS` (engine worker count), and `UNSYNC_RESULTS_DIR`.

use unsync_bench::campaign::{normalized_lines, run_collected, CampaignEngine, CampaignGrid};
use unsync_bench::roec_uncore::SCHEMES;
use unsync_bench::{env, runlog, scheme, Runner};
use unsync_fault::uncore::StrikePlan;
use unsync_mem::L2ContentionConfig;
use unsync_workloads::WorkloadSpec;

fn env_flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| v.trim() == "1")
}

fn workload(name: &str) -> WorkloadSpec {
    WorkloadSpec::parse(name).expect("campaign workload list is static")
}

/// The roec-style reference grid: every uncore structure struck under
/// the three bracketing schemes, shared-L2 contention on.
fn uncore_grid(seed: u64, smoke: bool) -> CampaignGrid {
    let (inst_count, strikes_per_cell) = if smoke { (120, 1) } else { (400, 8) };
    CampaignGrid {
        name: "campaign_uncore".into(),
        inst_count,
        seeds: vec![seed],
        workloads: vec![workload("gzip")],
        schemes: SCHEMES.to_vec(),
        strikes: Some(StrikePlan::all_uncore(strikes_per_cell, inst_count * 2)),
        contention: Some(L2ContentionConfig::many_core()),
    }
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
    let seed = env::or_exit(env::var("UNSYNC_SEED")).unwrap_or(11);
    let workers = env::or_exit(Runner::from_env()).workers();
    let smoke = env_flag("UNSYNC_CAMPAIGN_SMOKE");
    let resume = env_flag("UNSYNC_CAMPAIGN_RESUME_ONLY");
    for grid in [uncore_grid(seed, smoke), compare_grid(seed, smoke)] {
        if let Err(e) = run_grid(&grid, workers, resume) {
            eprintln!("error: campaign {}: {e}", grid.name);
            std::process::exit(1);
        }
    }
    runlog::export_metrics();
}
