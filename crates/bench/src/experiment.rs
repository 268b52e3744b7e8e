//! The one experiment table: every paper artifact and study the harness
//! regenerates is a row of [`TABLE`], run by `--bin paper -- <name>`.
//!
//! A row is a name, the paper section it reproduces (or
//! [`Section::Extension`]) and one `run` function. `run` takes the
//! worker pool and the experiment config and returns an [`Output`]: the
//! text the row prints, the records of its `<name>.jsonl` run log, and
//! any files it writes besides (figure CSVs, `BENCH_roec.json`,
//! `KERNEL_stats.json`). Rows print and write nothing themselves, so
//! the golden tests read a row's records exactly as the binary logs
//! them. [`all`] runs the paper rows in table order into one tagged
//! `all` log.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use unsync_mem::HierarchyConfig;
use unsync_sim::CoreConfig;
use unsync_workloads::Benchmark;

use crate::experiments::{self as exp, ExperimentConfig};
use crate::runlog::{self, Json, RunLog};
use crate::runner::Runner;
use crate::{campaign, kernelstats, render, roec_uncore, stats};

/// Where a row sits in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// Reproduces the named table, figure or section of the paper.
    Paper(&'static str),
    /// A study beyond the paper's evaluation.
    Extension,
}

impl Section {
    /// The section label (`Fig. 4`, `§VI-C`, …, or `extension`).
    pub fn label(self) -> &'static str {
        match self {
            Section::Paper(label) => label,
            Section::Extension => "extension",
        }
    }
}

/// One experiment: a named row of [`TABLE`].
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The row's name: its `paper` argument, its run-log name and its
    /// `results/<name>.txt`.
    pub name: &'static str,
    /// The paper section the row reproduces.
    pub section: Section,
    /// Runs the experiment on `runner` at `cfg`.
    pub run: Run,
}

/// A row's experiment: the worker pool and config in, its output out.
pub(crate) type Run = fn(Runner, ExperimentConfig) -> Output;

/// What one row produced.
#[derive(Debug)]
pub struct Output {
    /// The text the row prints on stdout.
    pub text: String,
    /// The config the run log's header records; `None` for the analytic
    /// rows, whose header carries `"config":null`.
    pub(crate) config: Option<ExperimentConfig>,
    /// The run log's records, in order, before `kind`/`row` framing.
    pub(crate) records: Vec<Json>,
    /// Files the row writes besides its run log: path and contents.
    pub files: Vec<(PathBuf, String)>,
    started: Instant,
}

impl Output {
    fn new(config: Option<ExperimentConfig>) -> Output {
        Output {
            text: String::new(),
            config,
            records: Vec::new(),
            files: Vec::new(),
            started: Instant::now(),
        }
    }

    /// Appends each of `lines` as one line of text.
    fn lines(&mut self, lines: &[&str]) {
        for line in lines {
            self.text.push_str(line);
            self.text.push('\n');
        }
    }

    /// Adds `contents` as `<results dir>/<file>`.
    fn csv(&mut self, file: &str, contents: String) {
        self.files
            .push((runlog::results_dir().join(file), contents));
    }

    /// The run log `name`: the header, then every record. Its meta line
    /// times the row from the moment it started.
    pub fn log(&self, name: &str) -> RunLog {
        let mut log = match self.config {
            Some(cfg) => RunLog::start(name, cfg),
            None => RunLog::start_static(name),
        };
        log.started = self.started;
        for rec in &self.records {
            log.record(rec.clone());
        }
        log
    }
}

/// Appends one formatted line to an [`Output`]'s text.
macro_rules! outln {
    ($o:expr) => {
        $o.text.push('\n')
    };
    ($o:expr, $($arg:tt)*) => {{
        let _ = writeln!($o.text, $($arg)*);
    }};
}

/// Every experiment: the paper's artifacts in paper order, then the
/// extension studies.
pub const TABLE: [Experiment; 13] = [
    paper("table1", "Table I", table1),
    paper("table2", "Table II", table2),
    paper("table3", "Table III", table3),
    paper("fig4", "Fig. 4", fig4),
    paper("fig5", "Fig. 5", fig5),
    paper("fig6", "Fig. 6", fig6),
    paper("ser_sweep", "§VI-C", ser_sweep),
    paper("roec", "§VI-D", roec),
    extension("comparators", comparators),
    extension("schemes", schemes),
    extension("fig4_ci", fig4_ci),
    extension("kernel_stats", kernel_stats),
    extension("roec_uncore", roec_uncore),
];

const fn paper(name: &'static str, label: &'static str, run: Run) -> Experiment {
    Experiment {
        name,
        section: Section::Paper(label),
        run,
    }
}

const fn extension(name: &'static str, run: Run) -> Experiment {
    Experiment {
        name,
        section: Section::Extension,
        run,
    }
}

/// The table row named `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    TABLE.iter().find(|e| e.name == name)
}

/// The full evaluation: every paper row in table order, each under a
/// banner naming its section. The records go into one log with each
/// record tagged `{"artifact": <row>, "data": <record>}`; the rows'
/// files are all written.
pub fn all(runner: Runner, cfg: ExperimentConfig) -> Output {
    let mut all = Output::new(Some(cfg));
    for row in TABLE.iter().filter(|e| e.section != Section::Extension) {
        let out = (row.run)(runner, cfg);
        outln!(all, "{:=<50}", banner(row.section));
        all.text.push_str(&out.text);
        all.records.extend(
            out.records
                .into_iter()
                .map(|rec| Json::obj().field("artifact", row.name).field("data", rec)),
        );
        all.files.extend(out.files);
    }
    all
}

/// The start of the banner [`all`] prints above a section; `=` pads it
/// to 50 columns.
fn banner(section: Section) -> String {
    format!("==================== {} ", section.label())
}

// ───────────────────────────── Paper rows ───────────────────────────────

fn table1(_: Runner, _: ExperimentConfig) -> Output {
    let core = CoreConfig::table1();
    let mem = HierarchyConfig::table1();
    let (l1, l2) = (mem.l1d, mem.l2);
    let mut o = Output::new(None);
    o.records.push(render::jsonl::table1());
    o.lines(&[
        "Table I — simulated baseline CMP parameters",
        "Processor Cores    4 logical cores, Alpha 21264-class",
    ]);
    outln!(
        o,
        "{:<18} {:.0} GHz, 5-stage pipeline; out-of-order, {}-wide fetch/issue/commit",
        "",
        core.clock_ghz,
        core.fetch_width
    );
    outln!(o, "{:<18} {}", "Issue Queue", core.iq_size);
    outln!(
        o,
        "{:<18} ROB {}, LSQ {}",
        "Windows",
        core.rob_size,
        core.lsq_size
    );
    outln!(
        o,
        "{:<18} {} KB split I/D, {}-way, {} MSHRs, {}-cycle access, {}-byte lines",
        "L1 Cache",
        l1.size_bytes / 1024,
        l1.assoc,
        l1.mshrs,
        l1.hit_latency,
        l1.line_bytes
    );
    outln!(
        o,
        "{:<18} {} MB, {}-way, {}-byte lines, {}-cycle access, {} MSHRs",
        "Shared L2 Cache",
        l2.size_bytes / (1024 * 1024),
        l2.assoc,
        l2.line_bytes,
        l2.hit_latency,
        l2.mshrs
    );
    for (name, tlb) in [("I-TLB", mem.itlb), ("D-TLB", mem.dtlb)] {
        outln!(o, "{name:<18} {} entries, {}-way", tlb.entries, tlb.assoc);
    }
    let (bits, latency) = (mem.bus_bytes_per_cycle * 8, mem.dram_latency);
    outln!(
        o,
        "{:<18} {bits}-bit wide, {latency} cycles access latency",
        "Memory"
    );
    o
}

fn table2(_: Runner, _: ExperimentConfig) -> Output {
    let opt = |v: Option<f64>| v.map_or(Json::Null, Json::F64);
    let t = unsync_hwcost::table2();
    let mut o = Output::new(None);
    o.lines(&["Table II — hardware overhead comparison (65 nm, 300 MHz, post-PNR model)"]);
    outln!(o, "{}", t.render());
    for r in [&t.basic, &t.reunion, &t.unsync] {
        o.records.push(
            Json::obj()
                .field("config", r.name)
                .field("core_area_um2", r.core_area_um2)
                .field("l1_area_mm2", r.l1_area_mm2)
                .field("cb_area_mm2", opt(r.cb_area_mm2))
                .field("total_area_um2", r.total_area_um2)
                .field("area_overhead_pct", opt(r.area_overhead_pct))
                .field("core_power_w", r.core_power_w)
                .field("l1_power_mw", r.l1_power_mw)
                .field("cb_power_mw", opt(r.cb_power_mw))
                .field("total_power_w", r.total_power_w),
        );
    }
    o.lines(&[
        "Paper reference values: Reunion +20.77 % area / +74.79 % power;",
        "UnSync +7.45 % area / +40.34 % power; CB 0.00387 mm² / 0.77258 mW.",
    ]);
    o
}

fn table3(_: Runner, _: ExperimentConfig) -> Output {
    let t = unsync_hwcost::table3();
    let mut o = Output::new(None);
    outln!(o, "Table III — projected die sizes under Reunion / UnSync");
    outln!(o, "{}", t.render());
    for p in &t.rows {
        o.records.push(
            Json::obj()
                .field("chip", p.chip.name)
                .field("node_nm", p.chip.node_nm)
                .field("cores", p.chip.cores)
                .field("die_area_mm2", p.chip.die_area_mm2)
                .field("reunion_mm2", p.reunion_mm2)
                .field("unsync_mm2", p.unsync_mm2)
                .field("difference_mm2", p.reunion_mm2 - p.unsync_mm2),
        );
    }
    outln!(o, "Paper reference: differences 26.64 / 30.69 / 51.15 mm².");
    o
}

fn fig4(runner: Runner, cfg: ExperimentConfig) -> Output {
    let rows = exp::fig4_on(runner, cfg);
    let mut o = Output::new(Some(cfg));
    o.text.push_str(&render::fig4(&rows));
    o.records = rows.iter().map(render::jsonl::fig4).collect();
    o.csv("fig4.csv", render::csv::fig4(&rows));
    o.lines(&[
        "",
        "Paper claims: Reunion averages ~8 % and exceeds 10 % on bzip2 (2 % serializing),",
        "ammp (1.7 %) and galgel (1 %, worst — ROB occupancy); UnSync stays ~2 %.",
    ]);
    o
}

fn fig5(runner: Runner, cfg: ExperimentConfig) -> Output {
    let cells = exp::fig5_on(runner, cfg, &exp::FIG5_BENCHES);
    let mut o = Output::new(Some(cfg));
    o.text.push_str(&render::fig5(&cells));
    o.records = cells.iter().map(render::jsonl::fig5).collect();
    o.csv("fig5.csv", render::csv::fig5(&cells));
    o.lines(&[
        "",
        "Paper claims: at FI=30/latency=40 ammp degrades ~27 % and galgel ~41 %;",
        "UnSync is flat (no fingerprints, no inter-core comparison).",
    ]);
    o
}

fn fig6(runner: Runner, cfg: ExperimentConfig) -> Output {
    let rows = exp::fig6_on(runner, cfg, &exp::FIG6_BENCHES);
    let mut o = Output::new(Some(cfg));
    o.text.push_str(&render::fig6(&rows));
    o.records = rows.iter().map(render::jsonl::fig6).collect();
    o.csv("fig6.csv", render::csv::fig6(&rows));
    o.lines(&[
        "",
        "Paper claims: small CBs stall the cores; 2 KB / 4 KB buffers eliminate the",
        "resource-occupancy bottleneck (runtime ≈ baseline).",
    ]);
    o
}

fn ser_sweep(runner: Runner, cfg: ExperimentConfig) -> Output {
    let sweep = exp::ser_sweep_on(runner, cfg, &exp::SER_BENCHES);
    let mut o = Output::new(Some(cfg));
    o.text.push_str(&render::ser(&sweep));
    o.records = render::jsonl::ser(&sweep);
    o.csv("ser_sweep.csv", render::csv::ser(&sweep));
    o.lines(&[
        "",
        "Paper claims: IPC does not vary from SER 1e-7 to 1e-17 (or lower); UnSync",
        "outperforms Reunion throughout; the hypothetical break-even is 1.29e-3.",
    ]);
    o
}

fn roec(runner: Runner, cfg: ExperimentConfig) -> Output {
    let report = exp::roec_on(runner, cfg, exp::ROEC_CAMPAIGNS);
    let mut o = Output::new(Some(cfg));
    o.text.push_str(&render::roec(&report));
    o.records = render::jsonl::roec(&report);
    o.lines(&[
        "",
        "Paper claims: both architectures execute correctly in the presence of the",
        "errors they cover, but Reunion's ROEC stops at the pre-commit pipeline",
        "(ARF/TLB strikes escape), while UnSync covers every sequential block + L1.",
    ]);
    o
}

// ──────────────────────────── Extension rows ────────────────────────────

/// Error-free overhead of every redundancy discipline in the
/// repository, side by side: tight lockstep (§II mainframes), Reunion,
/// coarse checkpointing (Smolens 2004), UnSync, majority-voting TMR,
/// FlexStep-style granularity (128-instruction window) and the
/// SECDED-only non-redundant floor.
fn comparators(runner: Runner, cfg: ExperimentConfig) -> Output {
    let rows = exp::comparators_on(runner, cfg);
    let mut o = Output::new(Some(cfg));
    outln!(
        o,
        "Error-free runtime overhead vs baseline ({} instructions)",
        cfg.inst_count
    );
    o.lines(&[
        "benchmark      lockstep    Reunion   checkpoint     UnSync        TMR   FlexStep     SECDED",
    ]);
    // The original four columns keep their frozen record shape (golden
    // rows stay byte-identical); the new schemes append their own rows.
    o.records = rows.iter().map(render::jsonl::comparators).collect();
    for row in &rows {
        o.records.push(render::jsonl::comparator_schemes(row));
        outln!(
            o,
            "{:<12} {:>9.2}% {:>9.2}% {:>11.2}% {:>9.2}% {:>9.2}% {:>9.2}% {:>9.2}%",
            row.bench,
            row.lockstep_overhead * 100.0,
            row.reunion_overhead * 100.0,
            row.checkpoint_overhead * 100.0,
            row.unsync_overhead * 100.0,
            row.tmr_overhead * 100.0,
            row.flex_overhead * 100.0,
            row.secded_overhead * 100.0
        );
    }
    o.lines(&[
        "",
        "Reading: runtime coupling orders by synchronization frequency, but runtime",
        "is not the whole story. Lockstep's modest cycle overhead hides its real cost:",
        "it only works if both cores see bit-identical timing forever (no independent",
        "DVFS, recovery, or asynchronous events) — the scaling burden §II cites for",
        "abandoning it. Reunion/checkpointing relax that but tax every instruction;",
        "UnSync decouples completely and bets on errors being rare (its per-error",
        "recovery is the most expensive — paper ser_sweep prints its cycles).",
        "The new columns bracket the space: TMR pays ~3x resources to vote errors",
        "away with zero rollback, FlexStep tunes the compare interval at runtime,",
        "and SECDED-only shows what a lone ECC-protected core gets you for free.",
    ]);
    o
}

/// The scheme-values study: TMR, FlexStep and SECDED-only under one
/// mid-trace ROB strike, on the synthetic benchmarks and then on the
/// real-ISA kernels.
fn schemes(runner: Runner, cfg: ExperimentConfig) -> Output {
    let mut rows = exp::scheme_values_on(runner, cfg);
    rows.extend(exp::kernel_scheme_values_on(runner, cfg));
    let mut o = Output::new(Some(cfg));
    outln!(
        o,
        "Scheme counters under one mid-trace ROB strike ({} instructions, seed {})",
        cfg.inst_count,
        cfg.seed
    );
    o.lines(&[
        "workload             scheme          cycles committed detect   corr compares    ecc  correct",
    ]);
    for r in &rows {
        o.records.push(render::jsonl::scheme_values(r));
        outln!(
            o,
            "{:<20} {:<12} {:>9} {:>9} {:>6} {:>6} {:>8} {:>6} {:>8}",
            r.bench,
            r.scheme,
            r.cycles,
            r.committed,
            r.detections,
            r.corrections,
            r.compares,
            r.corrected_in_place,
            r.correct
        );
    }
    o
}

/// Fig. 4 across five workload seeds, reported as mean ± 95 % CI: how
/// much of each single-seed number is workload-draw noise.
fn fig4_ci(runner: Runner, cfg: ExperimentConfig) -> Output {
    let summary_json = |s: &stats::Summary| {
        Json::obj()
            .field("n", s.n)
            .field("mean", s.mean)
            .field("stddev", s.stddev)
            .field("ci95", s.ci95)
    };
    let seeds: Vec<u64> = (cfg.seed..cfg.seed + 5).collect();
    let mut o = Output::new(Some(cfg));
    outln!(
        o,
        "Fig. 4 across {} seeds ({} instructions each): overhead vs baseline, mean ± 95% CI",
        seeds.len(),
        cfg.inst_count
    );

    // One full Fig. 4 per seed, the seeds spread over the pool.
    let runs = runner.map(&seeds, |&seed| {
        exp::fig4_on(Runner::new(1), ExperimentConfig { seed, ..cfg })
    });

    o.lines(&["benchmark        Reunion overhead %    UnSync overhead %"]);
    let mut all_r = Vec::new();
    let mut all_u = Vec::new();
    for (i, bench) in Benchmark::all().iter().enumerate() {
        let r: Vec<f64> = runs
            .iter()
            .map(|rows| rows[i].reunion_overhead * 100.0)
            .collect();
        let u: Vec<f64> = runs
            .iter()
            .map(|rows| rows[i].unsync_overhead * 100.0)
            .collect();
        let (sr, su) = (stats::Summary::of(&r), stats::Summary::of(&u));
        all_r.extend_from_slice(&r);
        all_u.extend_from_slice(&u);
        let (rd, ud) = (sr.display(), su.display());
        outln!(o, "{:<14} {rd:>20} {ud:>20}", bench.name());
        o.records.push(
            Json::obj()
                .field("benchmark", bench.name())
                .field("reunion_overhead_pct", summary_json(&sr))
                .field("unsync_overhead_pct", summary_json(&su)),
        );
    }
    let (sr, su) = (stats::Summary::of(&all_r), stats::Summary::of(&all_u));
    outln!(o, "{:<14} {:>20} {:>20}", "ALL", sr.display(), su.display());
    o.records.push(
        Json::obj()
            .field("benchmark", "ALL")
            .field("reunion_overhead_pct", summary_json(&sr))
            .field("unsync_overhead_pct", summary_json(&su)),
    );
    o
}

/// Measured per-kernel workload statistics (see [`kernelstats`]),
/// written as the committed `KERNEL_stats.json` summary.
fn kernel_stats(runner: Runner, cfg: ExperimentConfig) -> Output {
    const OUT_PATH: &str = "KERNEL_stats.json";
    let rows = kernelstats::kernel_stats(runner, cfg);
    let mut o = Output::new(Some(cfg));
    outln!(
        o,
        "Measured kernel-workload statistics ({} instructions, seed {})",
        cfg.inst_count,
        cfg.seed
    );
    o.lines(&[
        "kernel                serial   store    load  branch mispred     lines   words    cycles    IPC",
    ]);
    for r in &rows {
        outln!(
            o,
            "{:<20} {:>6.3}% {:>6.2}% {:>6.2}% {:>6.2}% {:>6.2}% {:>9} {:>7} {:>9} {:>6.3}",
            r.name,
            r.serializing_fraction * 100.0,
            r.store_fraction * 100.0,
            r.load_fraction * 100.0,
            r.branch_fraction * 100.0,
            r.mispredict_rate * 100.0,
            r.distinct_lines,
            r.footprint_words,
            r.baseline_cycles,
            r.baseline_ipc
        );
    }
    o.records = rows.iter().map(kernelstats::row_json).collect();
    let mut text = kernelstats::stats_json(cfg, &rows).render();
    text.push('\n');
    o.files.push((PathBuf::from(OUT_PATH), text));
    outln!(o, "wrote {OUT_PATH} ({} kernels)", rows.len());
    o.lines(&[
        "",
        "Reading: the synthetic profiles assert these numbers; the kernels measure",
        "them. A serializing fraction near the profile table's value says the paper's",
        "Fig. 5 sensitivity transfers to executed code; a mispredict rate well above",
        "the gshare floor says the branch stream carries real data-dependent control.",
    ]);
    o
}

/// The uncore vulnerability campaign (ROEC 2.0, see [`mod@crate::roec_uncore`]):
/// structure × scheme × strike, each strike classified against the
/// golden memory image, summarized in `BENCH_roec.json`. The grid is
/// [`roec_uncore::grid`] and its records come from the campaign
/// engine's job path ([`campaign::run_records`]), so they equal the
/// `campaign` bin's `campaign_uncore` records line for line.
///
/// The campaign has its own trace length and seed
/// ([`roec_uncore::SEED`]), so it ignores `cfg` the way the analytic
/// rows do.
fn roec_uncore(runner: Runner, _: ExperimentConfig) -> Output {
    const OUT_PATH: &str = "BENCH_roec.json";
    let grid = roec_uncore::grid(roec_uncore::SEED, false);
    let plan = grid.strikes.as_ref().expect("the uncore grid strikes");
    let records = campaign::run_records(&grid, &runner);
    let mut o = Output::new(Some(ExperimentConfig {
        inst_count: grid.inst_count,
        seed: roec_uncore::SEED,
    }));
    outln!(
        o,
        "Uncore vulnerability campaign ({} × {} insts, seed {}, {} strikes/cell, horizon {})",
        grid.workloads[0].name(),
        grid.inst_count,
        roec_uncore::SEED,
        plan.strikes_per_cell,
        plan.horizon
    );
    let table = roec_uncore::vulnerability_table(&records);
    o.text
        .push_str(&roec_uncore::render_vulnerability_table(&table));
    outln!(o);
    o.text.push_str(&roec_uncore::claim(&table));
    let mut text = roec_uncore::summary_json(&grid, &records).render();
    text.push('\n');
    o.files.push((PathBuf::from(OUT_PATH), text));
    outln!(o, "wrote {OUT_PATH} ({} strikes)", records.len());
    o.records = records;
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_names_are_unique_and_find_rejects_unknown_names() {
        for (i, row) in TABLE.iter().enumerate() {
            let name = row.name;
            assert!(
                TABLE[..i].iter().all(|r| r.name != name),
                "duplicate {name}"
            );
            assert_eq!(find(row.name).map(|r| r.name), Some(row.name));
        }
        assert!(find("all").is_none(), "`all` is the whole table, not a row");
        assert!(find("fig7").is_none());
        assert!(find("").is_none());
    }

    #[test]
    fn all_runs_every_paper_row_once_in_table_order() {
        let cfg = ExperimentConfig {
            inst_count: 1_000,
            seed: 1,
        };
        let out = all(Runner::new(2), cfg);
        let tag = |rec: &Json| rec.get("artifact").and_then(Json::as_str).map(String::from);
        let mut tags: Vec<String> = out.records.iter().filter_map(tag).collect();
        tags.dedup();
        let paper = TABLE.iter().filter(|e| e.section != Section::Extension);
        assert_eq!(tags, paper.map(|e| e.name).collect::<Vec<_>>());
        assert_eq!(out.files.len(), 4, "the four figure CSVs");
    }
}
