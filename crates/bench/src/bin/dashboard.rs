//! The results dashboard: per-scheme event-rate tables from a results
//! directory, and run-to-run diffing.
//!
//! ```text
//! dashboard [DIR]          # table (default: results dir)
//! dashboard --diff A B     # exact diff of the deterministic lines
//! ```
//!
//! Exit codes: 0 = rendered / diff clean, 1 = diff found deltas,
//! 2 = usage or I/O error. See EXPERIMENTS.md ("Results dashboard").

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use unsync_bench::dashboard::{
    bank_rows, campaign_rows, diff_dirs, health_counters, load_dir, render_bank_table,
    render_campaign_table, render_health_line, render_scheme_table, roec_table, scheme_rows,
    scheme_stats,
};
use unsync_bench::roec_uncore::render_vulnerability_table;
use unsync_bench::runlog;

fn usage() -> ExitCode {
    eprintln!("usage: dashboard [DIR]");
    eprintln!("       dashboard --diff DIR_A DIR_B");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--diff") {
        return run_diff(&args[1..]);
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

fn run_diff(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        return usage();
    };
    if a.starts_with("--") || b.starts_with("--") {
        return usage();
    }
    match diff_dirs(Path::new(a), Path::new(b)) {
        Ok(report) => {
            for w in &report.warnings {
                println!("warning: {w}");
            }
            if report.clean() {
                println!("diff clean: {} leaves compared", report.compared);
                ExitCode::SUCCESS
            } else {
                println!(
                    "{} delta(s) over {} compared leaves:",
                    report.deltas.len(),
                    report.compared
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
