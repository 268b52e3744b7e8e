//! The results dashboard: per-scheme event-rate tables from a results
//! directory, run-to-run diffing, and a textual cycle-domain timeline.
//!
//! ```text
//! dashboard [DIR]                          # table (default: results dir)
//! dashboard --diff A B [--tolerance T] [--meta]
//! dashboard timeline                       # swimlane + episode table
//! ```
//!
//! `timeline` renders the same scenario `--bin trace_export` serializes
//! (`UNSYNC_LANES` / `UNSYNC_INSTS` / `UNSYNC_SEED` shape it) as a
//! textual swimlane per lane plus the episode table.
//!
//! Exit codes: 0 = rendered / diff clean, 1 = diff found deltas,
//! 2 = usage or I/O error. See EXPERIMENTS.md ("Results dashboard").

use std::path::PathBuf;
use std::process::ExitCode;

use unsync_bench::dashboard::{
    bank_rows, campaign_rows, diff_dirs, health_counters, load_dir, render_bank_table,
    render_campaign_table, render_health_line, render_scheme_table, roec_table, scheme_rows,
    scheme_stats, DiffOptions,
};
use unsync_bench::roec_uncore::render_vulnerability_table;
use unsync_bench::runlog;
use unsync_bench::timeline::TimelineScenarioConfig;

fn usage() -> ExitCode {
    eprintln!("usage: dashboard [DIR]");
    eprintln!("       dashboard --diff DIR_A DIR_B [--tolerance T] [--meta]");
    eprintln!("       dashboard timeline");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--diff") {
        return run_diff(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("timeline") {
        return run_timeline(&args[1..]);
    }
    let dir = match args.len() {
        0 => runlog::results_dir(),
        1 if !args[0].starts_with("--") => PathBuf::from(&args[0]),
        _ => return usage(),
    };
    let logs = match load_dir(&dir) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("dashboard: {e}");
            return ExitCode::from(2);
        }
    };
    let stats = scheme_stats(&logs);
    let rows = scheme_rows(&stats);
    if rows.is_empty() {
        eprintln!(
            "dashboard: no scheme metrics in {} ({} log files) — run an experiment first",
            dir.display(),
            logs.len()
        );
        return ExitCode::from(2);
    }
    println!(
        "Per-scheme metrics from {} ({} log files)",
        dir.display(),
        logs.len()
    );
    print!("{}", render_scheme_table(&rows));
    let banks = bank_rows(&stats);
    if !banks.is_empty() {
        println!();
        println!("L2 bank occupancy ({} banks with traffic)", banks.len());
        print!("{}", render_bank_table(&banks));
    }
    let health = health_counters(&logs);
    if !health.clean() {
        println!();
        println!("{}", render_health_line(&health));
    }
    let roec = roec_table(&logs);
    if roec.total() > 0 {
        println!();
        println!(
            "Uncore vulnerability (ROEC campaign, {} strikes)",
            roec.total()
        );
        print!("{}", render_vulnerability_table(&roec));
    }
    let campaigns = campaign_rows(&logs);
    if !campaigns.is_empty() {
        println!();
        println!("Campaign engine runs ({} logs)", campaigns.len());
        print!("{}", render_campaign_table(&campaigns));
    }
    ExitCode::SUCCESS
}

/// Renders the shared timeline scenario as a textual swimlane.
fn run_timeline(args: &[String]) -> ExitCode {
    if !args.is_empty() {
        return usage();
    }
    let cfg = unsync_bench::env::or_exit(TimelineScenarioConfig::from_env());
    let timeline = unsync_bench::build_timeline(&cfg);
    print!("{}", timeline.render_summary(72));
    ExitCode::SUCCESS
}

fn run_diff(args: &[String]) -> ExitCode {
    let mut dirs: Vec<PathBuf> = Vec::new();
    let mut opts = DiffOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tolerance" => {
                let Some(t) = args.get(i + 1).and_then(|t| t.parse::<f64>().ok()) else {
                    return usage();
                };
                if t.is_nan() || t < 0.0 {
                    return usage();
                }
                opts.tolerance = t;
                i += 2;
            }
            "--meta" => {
                opts.include_meta = true;
                i += 1;
            }
            a if !a.starts_with("--") => {
                dirs.push(PathBuf::from(a));
                i += 1;
            }
            _ => return usage(),
        }
    }
    let [a, b] = dirs.as_slice() else {
        return usage();
    };
    match diff_dirs(a, b, opts) {
        Ok(report) => {
            for w in &report.warnings {
                println!("warning: {w}");
            }
            if report.clean() {
                println!(
                    "diff clean: {} leaves compared within tolerance {}",
                    report.compared, opts.tolerance
                );
                ExitCode::SUCCESS
            } else {
                println!(
                    "{} delta(s) over {} compared leaves (tolerance {}):",
                    report.deltas.len(),
                    report.compared,
                    opts.tolerance
                );
                for d in &report.deltas {
                    println!("  {d}");
                }
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("dashboard: {e}");
            ExitCode::from(2)
        }
    }
}
