//! `paper` — runs one row of the experiment table
//! (`unsync_bench::experiment::TABLE`).
//!
//! ```text
//! paper              list the rows and the paper section each reproduces
//! paper <name>       run one row
//! paper all          run every paper row in table order into one log
//! ```
//!
//! A row prints its text, writes its files (figure CSVs under the
//! results directory, `KERNEL_stats.json`, `BENCH_roec.json`) and its
//! `<name>.jsonl` run log. An unknown name, or a malformed environment
//! knob, exits 2.
//!
//! Environment: `UNSYNC_INSTS` (at least 1000, default 100000) and
//! `UNSYNC_SEED` (default 1) set the experiment config,
//! `UNSYNC_WORKERS` the worker pool, `UNSYNC_RESULTS_DIR` the results
//! directory (default `results/`). The `roec_uncore` row also reads
//! `UNSYNC_ROEC_SMOKE=1` (the CI smoke grid) and `UNSYNC_ROEC_OUT`
//! (summary path, default `BENCH_roec.json`).

use std::process::exit;

use unsync_bench::experiment::{self, TABLE};
use unsync_bench::{env, ExperimentConfig, Runner};

/// One line per row: its name and the paper section it reproduces.
fn rows() -> String {
    TABLE
        .iter()
        .map(|row| format!("{:<18} {}\n", row.name, row.section.label()))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = match args.as_slice() {
        [] => return print!("{}", rows()),
        [name] => name.as_str(),
        _ => {
            eprintln!("usage: paper [<name> | all]");
            exit(2);
        }
    };
    let run = match experiment::find(name) {
        Some(row) => row.run,
        None if name == "all" => experiment::all,
        None => {
            eprint!(
                "error: unknown experiment `{name}`; the rows are:\n{}",
                rows()
            );
            exit(2);
        }
    };
    let cfg = env::or_exit(ExperimentConfig::from_env());
    let runner = env::or_exit(Runner::from_env());

    let out = run(runner, cfg);
    for (path, contents) in &out.files {
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, contents));
        if let Err(e) = written {
            eprintln!("error: could not write {}: {e}", path.display());
            exit(1);
        }
    }
    print!("{}", out.text);
    if let Some(p) = out.log(name).write(runner.workers()) {
        eprintln!("run log: {}", p.display());
    }
}
