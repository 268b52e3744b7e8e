//! Golden-value tests for the paper's headline experiments: the
//! quick-config (`ExperimentConfig::quick()`) JSONL run logs of Table I,
//! Fig. 4, Fig. 5, the comparators and the scheme-values study are
//! snapshotted under `tests/golden/` and any drift fails the build.
//! Table I, Fig. 4, the comparators and the scheme values are read
//! through their `experiment::TABLE` rows, so each snapshot is exactly
//! the deterministic part of the log `paper <name>` writes.
//!
//! When a change *intentionally* moves the numbers (new timing model,
//! retuned workload profiles, …), regenerate the snapshots with
//!
//! ```text
//! UNSYNC_BLESS=1 cargo test -q --test golden_values
//! ```
//!
//! and commit the diff — the review then shows exactly which measured
//! values moved, and by how much.

use std::fs;
use std::path::PathBuf;

use unsync::prelude::Benchmark;
use unsync_bench::{experiment, experiments, render, ExperimentConfig, RunLog, Runner};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.jsonl"))
}

/// Compares `lines` against the checked-in snapshot, or rewrites the
/// snapshot when `UNSYNC_BLESS` is set.
fn check(name: &str, lines: &[String]) {
    let text = lines.join("\n") + "\n";
    let path = golden_path(name);
    if std::env::var_os("UNSYNC_BLESS").is_some() {
        fs::create_dir_all(path.parent().expect("golden dir")).expect("create tests/golden");
        fs::write(&path, &text).expect("write golden snapshot");
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); generate it with \
             `UNSYNC_BLESS=1 cargo test -q --test golden_values`",
            path.display()
        )
    });
    assert_eq!(
        text, want,
        "{name} drifted from its golden snapshot; if the change is intended, \
         regenerate with `UNSYNC_BLESS=1 cargo test -q --test golden_values`"
    );
}

/// The deterministic lines of table row `name`'s run log at the quick
/// config, on two workers so the snapshot also pins the parallel
/// path's ordering.
fn row_lines(name: &str) -> Vec<String> {
    let row = experiment::find(name).expect("experiment table row");
    let out = (row.run)(Runner::new(2), ExperimentConfig::quick());
    out.log(name).deterministic_lines().to_vec()
}

#[test]
fn fig4_quick_matches_golden() {
    check("fig4", &row_lines("fig4"));
}

#[test]
fn fig5_quick_matches_golden() {
    let cfg = ExperimentConfig::quick();
    // The paper's two highlighted benchmarks keep the snapshot (and the
    // test) small; the full `FIG5_BENCHES` sweep is the fig5 row's.
    let benches = [Benchmark::Ammp, Benchmark::Galgel];
    let cells = experiments::fig5_on(Runner::new(2), cfg, &benches);
    let mut log = RunLog::start("fig5", cfg);
    for cell in &cells {
        log.record(render::jsonl::fig5(cell));
    }
    check("fig5", log.deterministic_lines());
}

#[test]
fn comparators_quick_matches_golden() {
    // The original four-discipline records come first and keep their
    // frozen shape (rows 0-4 must stay byte-identical across PRs); the
    // new schemes append their own records after them.
    check("comparators", &row_lines("comparators"));
}

#[test]
fn scheme_values_quick_match_golden() {
    // The measured real-ISA kernel rows append strictly after the
    // synthetic rows: the pre-existing snapshot lines keep their byte
    // positions (see `synthetic_scheme_rows_are_an_untouched_prefix`).
    check("schemes", &row_lines("schemes"));
}

/// Pins the seam refactor's no-drift guarantee: the synthetic scheme
/// rows (header + three benchmarks x three schemes) must remain a
/// byte-identical prefix of `schemes.jsonl` — kernel rows may only
/// append after them.
#[test]
fn synthetic_scheme_rows_are_an_untouched_prefix() {
    let cfg = ExperimentConfig::quick();
    let rows = experiments::scheme_values_on(Runner::new(2), cfg);
    let mut log = RunLog::start("schemes", cfg);
    for row in &rows {
        log.record(render::jsonl::scheme_values(row));
    }
    let prefix = log.deterministic_lines().join("\n") + "\n";
    let snapshot = fs::read_to_string(golden_path("schemes")).expect("schemes golden");
    assert!(
        snapshot.starts_with(&prefix),
        "synthetic scheme rows must stay a byte-identical prefix of schemes.jsonl"
    );
}

#[test]
fn table1_matches_golden() {
    check("table1", &row_lines("table1"));
}
