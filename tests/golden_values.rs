//! The reproducibility gate: every row of `experiment::TABLE` against
//! a committed snapshot.
//!
//! [`gate`] runs one row at the tiny config (1 000 instructions, seed 1)
//! on 1, 2 and 8 workers. The row's printed text, its run log (header
//! and records; the wall-clock `meta` line is left out) and the files
//! it would write must be byte-identical across the three runs, and
//! equal to the row's snapshot `tests/golden/rows/<row>.txt`. Rows are
//! pure: they print and write nothing themselves but return an
//! `Output`, so the gate reads exactly what `paper <row>` prints and
//! writes, and writes no file either. Each row has one `#[test]` in
//! [`rows`]; [`every_row_has_a_gate_and_every_snapshot_an_owner`] fails
//! when a row has no gate or a snapshot has no row.
//!
//! Five larger snapshots at the quick config
//! (`ExperimentConfig::quick()`, 10 000 instructions) stay beside them
//! as `tests/golden/<name>.jsonl`: the run logs of Table I, Fig. 4, the
//! comparators and the scheme values, and a two-benchmark subset of
//! Fig. 5.
//!
//! Every row is a function of its worker pool and config alone, so the
//! gate holds whatever `UNSYNC_*` knobs the environment sets (CI runs
//! it once more under `UNSYNC_SEED=3 UNSYNC_INSTS=2000`). When a change
//! *intentionally* moves the numbers (new timing model, retuned
//! workload profiles, …), regenerate every snapshot with
//!
//! ```text
//! UNSYNC_BLESS=1 cargo test -q --test golden_values
//! ```
//!
//! and commit the diff: the review then shows exactly which printed or
//! measured values moved, and by how much.

use std::fs;
use std::path::{Path, PathBuf};

use unsync::prelude::Benchmark;
use unsync_bench::experiment::{self, Output, TABLE};
use unsync_bench::{experiments, render, ExperimentConfig, RunLog, Runner};

/// The config every row runs at in the gate.
const TINY: ExperimentConfig = ExperimentConfig {
    inst_count: 1_000,
    seed: 1,
};

/// The quick-config run-log snapshots, `tests/golden/<name>.jsonl`.
const QUICK: [&str; 5] = ["table1", "fig4", "fig5", "comparators", "schemes"];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Compares `text` against the snapshot `tests/golden/<file>`, or
/// rewrites the snapshot when `UNSYNC_BLESS` is set.
fn check(file: &str, text: &str) {
    let path = golden_dir().join(file);
    if std::env::var_os("UNSYNC_BLESS").is_some() {
        fs::create_dir_all(path.parent().expect("golden dir")).expect("create tests/golden");
        fs::write(&path, text).expect("write golden snapshot");
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); generate it with \
             `UNSYNC_BLESS=1 cargo test -q --test golden_values`",
            path.display()
        )
    });
    assert_same(
        text,
        &want,
        &format!(
            "{file} drifted from its golden snapshot; if the change is intended, \
             regenerate with `UNSYNC_BLESS=1 cargo test -q --test golden_values`"
        ),
    );
}

/// Panics with `what` and the first line where `got` leaves `want`.
fn assert_same(got: &str, want: &str, what: &str) {
    if got == want {
        return;
    }
    let line = got
        .lines()
        .zip(want.lines())
        .position(|(g, w)| g != w)
        .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
    panic!(
        "{what}\nfirst difference at line {}:\n want: {:?}\n  got: {:?}",
        line + 1,
        want.lines().nth(line),
        got.lines().nth(line)
    );
}

/// One row's output as a snapshot: its text, its run log without the
/// `meta` line, then each file it writes under its file name.
fn snapshot(name: &str, out: &Output) -> String {
    let mut s = format!("==> text <==\n{}", out.text);
    s.push_str("==> run log <==\n");
    for line in out.log(name).deterministic_lines() {
        s.push_str(line);
        s.push('\n');
    }
    for (path, contents) in &out.files {
        let file = path.file_name().expect("a file name").to_string_lossy();
        s.push_str(&format!("==> {file} <==\n{contents}"));
    }
    s
}

/// Runs row `name` at [`TINY`] on 1, 2 and 8 workers, asserts the three
/// snapshots are byte-identical and checks them against
/// `tests/golden/rows/<name>.txt`.
fn gate(name: &str) {
    let row = experiment::find(name)
        .unwrap_or_else(|| panic!("{name} is not a row of experiment::TABLE"));
    let run = |workers| snapshot(name, &(row.run)(Runner::new(workers), TINY));
    let one = run(1);
    for workers in [2, 8] {
        assert_same(
            &run(workers),
            &one,
            &format!("{name} diverged between 1 and {workers} workers"),
        );
    }
    check(&format!("rows/{name}.txt"), &one);
}

/// Declares one gate test per row, and [`rows::GATED`], the rows they
/// gate in declaration order.
macro_rules! gates {
    ($($row:ident),* $(,)?) => {
        $(
            #[test]
            fn $row() {
                super::gate(stringify!($row));
            }
        )*
        /// The rows with a gate test, in declaration order.
        pub const GATED: &[&str] = &[$(stringify!($row)),*];
    };
}

/// One gate test per row of `experiment::TABLE`, in table order.
mod rows {
    gates!(
        table1,
        table2,
        table3,
        fig4,
        fig5,
        fig6,
        ser_sweep,
        roec,
        comparators,
        schemes,
        fig4_ci,
        kernel_stats,
        roec_uncore,
    );
}

/// A new row without a gate, or a snapshot that no row or quick test
/// reads, fails here, the way CI fails a `results/*.txt` that names no
/// row.
#[test]
fn every_row_has_a_gate_and_every_snapshot_an_owner() {
    let names: Vec<&str> = TABLE.iter().map(|row| row.name).collect();
    assert_eq!(
        rows::GATED,
        names,
        "every experiment::TABLE row needs a gate in `mod rows`, in table order"
    );
    let mut owned: Vec<PathBuf> = names
        .iter()
        .map(|name| PathBuf::from(format!("rows/{name}.txt")))
        .collect();
    owned.extend(
        QUICK
            .iter()
            .map(|name| PathBuf::from(format!("{name}.jsonl"))),
    );
    fn files(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in fs::read_dir(dir).expect("read tests/golden") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                files(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut found = Vec::new();
    files(&golden_dir(), &mut found);
    for path in found {
        let rel = path.strip_prefix(golden_dir()).expect("under tests/golden");
        assert!(
            owned.iter().any(|o| o == rel),
            "tests/golden/{} belongs to no experiment row or quick snapshot",
            rel.display()
        );
    }
}

// ─────────────────────── Quick-config snapshots ────────────────────────

/// Compares a quick-config run log with `tests/golden/<name>.jsonl`.
fn check_quick(name: &str, lines: &[String]) {
    assert!(QUICK.contains(&name), "{name} is not a quick snapshot");
    check(&format!("{name}.jsonl"), &(lines.join("\n") + "\n"));
}

/// The deterministic lines of table row `name`'s run log at the quick
/// config, on two workers.
fn row_lines(name: &str) -> Vec<String> {
    let row = experiment::find(name).expect("experiment table row");
    let out = (row.run)(Runner::new(2), ExperimentConfig::quick());
    out.log(name).deterministic_lines().to_vec()
}

#[test]
fn fig4_quick_matches_golden() {
    check_quick("fig4", &row_lines("fig4"));
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
    check_quick("fig5", log.deterministic_lines());
}

#[test]
fn comparators_quick_matches_golden() {
    // The original four-discipline records come first and keep their
    // frozen shape (rows 0-4 must stay byte-identical across PRs); the
    // new schemes append their own records after them.
    check_quick("comparators", &row_lines("comparators"));
}

#[test]
fn scheme_values_quick_match_golden() {
    // The measured real-ISA kernel rows append strictly after the
    // synthetic rows: the pre-existing snapshot lines keep their byte
    // positions (see `synthetic_scheme_rows_are_an_untouched_prefix`).
    check_quick("schemes", &row_lines("schemes"));
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
    let snapshot = fs::read_to_string(golden_dir().join("schemes.jsonl")).expect("schemes golden");
    assert!(
        snapshot.starts_with(&prefix),
        "synthetic scheme rows must stay a byte-identical prefix of schemes.jsonl"
    );
}

#[test]
fn table1_matches_golden() {
    check_quick("table1", &row_lines("table1"));
}
