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

use unsync_core::{
    DrainPolicy, L1Protection, RecoveryMode, UnsyncConfig, UnsyncGroup, UnsyncPair, UnsyncSystem,
};
use unsync_exec::TraceEventKind;
use unsync_fault::{avf, Coverage, FaultKind, FaultSite, FaultTarget, PairFault, ScrubModel};
use unsync_hwcost::{CacheModel, CacheProtection, CoreModel, DvfsModel, EnergyReport};
use unsync_mem::{HierarchyConfig, WritePolicy};
use unsync_reunion::{
    checkpoint_error_cost, CheckpointConfig, CheckpointHooks, ReunionConfig, ReunionPair,
};
use unsync_sim::{run_baseline, run_stream, CoreConfig};
use unsync_workloads::{Benchmark, SyntheticSource, WorkloadGen, WorkloadSource};

use crate::experiments::{self as exp, ExperimentConfig};
use crate::runlog::{self, Json, RunLog};
use crate::runner::{baseline_cycles, Runner};
use crate::{campaign, env, kernelstats, render, roec_uncore, stats};

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
pub type Run = fn(Runner, ExperimentConfig) -> Output;

/// What one row produced.
#[derive(Debug)]
pub struct Output {
    /// The text the row prints on stdout.
    pub text: String,
    /// The config the run log's header records; `None` for the analytic
    /// rows, whose header carries `"config":null`.
    pub config: Option<ExperimentConfig>,
    /// The run log's records, in order, before `kind`/`row` framing.
    pub records: Vec<Json>,
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
pub const TABLE: [Experiment; 22] = [
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
    extension("ablation_recovery", ablation_recovery),
    extension("ablation_cb", ablation_cb),
    extension("energy", energy),
    extension("avf", avf),
    extension("dvfs", dvfs),
    extension("scrub", scrub),
    extension("memstats", memstats),
    extension("fig4_ci", fig4_ci),
    extension("mbu", mbu),
    extension("sensitivity", sensitivity),
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
    dashboard_coverage_runs(cfg);
    o.lines(&[
        "",
        "Reading: runtime coupling orders by synchronization frequency, but runtime",
        "is not the whole story. Lockstep's modest cycle overhead hides its real cost:",
        "it only works if both cores see bit-identical timing forever (no independent",
        "DVFS, recovery, or asynchronous events) — the scaling burden §II cites for",
        "abandoning it. Reunion/checkpointing relax that but tax every instruction;",
        "UnSync decouples completely and bets on errors being rare (its per-error",
        "recovery is the most expensive — see paper ablation_recovery).",
        "The new columns bracket the space: TMR pays ~3x resources to vote errors",
        "away with zero rollback, FlexStep tunes the compare interval at runtime,",
        "and SECDED-only shows what a lone ECC-protected core gets you for free.",
    ]);
    o
}

/// Small faulted runs of the three runners the error-free comparator
/// table does not exercise — a struck pair, a 3-way group, and a
/// two-pair system — so one `comparators` run leaves metrics
/// (including recovery MTTR histograms) for every scheme in the
/// dashboard. These contribute nothing to the records: the extra
/// schemes surface only through the nondeterministic `meta` metrics
/// snapshot.
fn dashboard_coverage_runs(cfg: ExperimentConfig) {
    let insts = cfg.inst_count.min(5_000);
    let trace = SyntheticSource::new(Benchmark::Gzip, insts, cfg.seed).trace();
    let strike = |at| PairFault {
        at,
        core: 0,
        site: FaultSite {
            target: FaultTarget::RegisterFile,
            bit_offset: 5,
        },
        kind: FaultKind::Single,
    };
    let faults = [strike(insts / 3), strike(2 * insts / 3)];
    let ccfg = CoreConfig::table1();
    let ucfg = UnsyncConfig::paper_baseline();
    let _ = UnsyncPair::new(ccfg, ucfg).run(&trace, &faults);
    let _ = UnsyncGroup::new(ccfg, ucfg, 3).run(&trace, &faults);
    let short = SyntheticSource::new(Benchmark::Qsort, insts, cfg.seed).trace();
    let _ = UnsyncSystem::new(ccfg, ucfg).run(&[trace, short]);
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

/// Recovery disciplines across soft-error rates.
///
/// Three ways to buy back a detected error:
/// * **UnSync** — always-forward state copy: zero re-execution, expensive
///   per event (whole-L1 copy), *nothing* paid when error-free;
/// * **Reunion** — fine-grained rollback: cheap per event, but the
///   fingerprint machinery taxes every instruction;
/// * **Checkpointing** (Smolens 2004) — coarse rollback: cheap machinery,
///   but half a (multi-thousand-instruction) interval re-executes per
///   event and every boundary stalls for the heavy-weight snapshot.
///
/// The sweep shows where each discipline wins as the error rate rises —
/// the §VI-C analysis generalized to three designs.
fn ablation_recovery(_: Runner, cfg: ExperimentConfig) -> Output {
    let bench = Benchmark::Gzip;
    let t = WorkloadGen::new(bench, cfg.inst_count, cfg.seed).collect_trace();
    let insts = cfg.inst_count as f64;
    let base = baseline_cycles(bench, cfg) as f64;

    // Error-free runtimes.
    let unsync = UnsyncPair::new(CoreConfig::table1(), UnsyncConfig::paper_baseline());
    let reunion = ReunionPair::new(CoreConfig::table1(), ReunionConfig::paper_baseline());
    let u0 = unsync.run(&t, &[]).cycles as f64;
    let r0 = reunion.run(&t, &[]).cycles as f64;
    let ckpt_cfg = CheckpointConfig::default();
    let c0 = {
        let mut s = WorkloadGen::new(bench, cfg.inst_count, cfg.seed);
        let mut hooks = CheckpointHooks::new(ckpt_cfg);
        run_stream(
            CoreConfig::table1(),
            &mut s,
            &mut hooks,
            WritePolicy::WriteThrough,
        )
        .core
        .last_commit_cycle as f64
    };

    // Per-error costs: measured for UnSync/Reunion, analytic for the
    // checkpoint scheme.
    let k = 10u64;
    let faults: Vec<PairFault> = (0..k)
        .map(|i| PairFault {
            at: (i + 1) * cfg.inst_count / (k + 1),
            core: (i % 2) as usize,
            site: FaultSite {
                target: FaultTarget::Rob,
                bit_offset: 7 + i,
            },
            kind: FaultKind::Single,
        })
        .collect();
    let u_cost = (unsync.run(&t, &faults).cycles as f64 - u0) / k as f64;
    let r_cost = (reunion.run(&t, &faults).cycles as f64 - r0) / k as f64;
    let c_cost = checkpoint_error_cost(&ckpt_cfg, c0 / insts);

    let mut o = Output::new(Some(cfg));
    outln!(
        o,
        "Ablation — recovery disciplines on {} ({} instructions)",
        bench.name(),
        cfg.inst_count
    );
    outln!(o, "discipline       error-free ovh   cycles per error");
    for (name, t0, cost) in [
        ("UnSync", u0, u_cost),
        ("Reunion", r0, r_cost),
        ("Checkpoint", c0, c_cost),
    ] {
        let ovh = (t0 / base - 1.0) * 100.0;
        o.records.push(
            Json::obj()
                .field("discipline", name)
                .field("error_free_overhead_pct", ovh)
                .field("cycles_per_error", cost),
        );
        outln!(o, "{name:<14} {ovh:>15.2}% {cost:>18.0}");
    }

    o.lines(&["", "projected runtime (normalized to baseline) vs SER:"]);
    outln!(o, " SER (/inst)     UnSync    Reunion   Checkpoint");
    for exp in [-17i32, -9, -7, -6, -5, -4, -3] {
        let rate = 10f64.powi(exp);
        let [u, r, c] = [(u0, u_cost), (r0, r_cost), (c0, c_cost)]
            .map(|(t0, cost)| (t0 + rate * insts * cost) / base);
        o.records.push(
            Json::obj()
                .field("ser_per_inst", rate)
                .field("unsync_norm", u)
                .field("reunion_norm", r)
                .field("checkpoint_norm", c),
        );
        outln!(o, "{rate:>12.0e} {u:>10.4} {r:>10.4} {c:>12.4}");
    }
    o.lines(&[
        "",
        "Reading: at physical rates (≤1e-7) the error-free column dominates and the",
        "cheapest machinery (UnSync) wins; only at absurd rates do rollback disciplines",
        "catch up — the paper's always-forward bet, quantified across three designs.",
    ]);

    // Second axis: the always-forward recovery's own L1 strategy.
    let mut inval_cfg = UnsyncConfig::paper_baseline();
    inval_cfg.recovery_mode = RecoveryMode::InvalidateOnly;
    let inval = UnsyncPair::new(CoreConfig::table1(), inval_cfg);
    let i0 = inval.run(&t, &[]).cycles as f64;
    let i_cost = (inval.run(&t, &faults).cycles as f64 - i0) / k as f64;
    o.lines(&[
        "",
        "UnSync L1-recovery strategy ablation (same always-forward discipline):",
    ]);
    outln!(o, "{:<22} {:>18}", "strategy", "cycles per error");
    outln!(o, "{:<22} {:>18.0}", "copy whole L1 (paper)", u_cost);
    outln!(o, "{:<22} {:>18.0}", "invalidate + refill", i_cost);
    o.records.push(
        Json::obj()
            .field("l1_recovery_ablation", true)
            .field("copy_whole_l1_cycles_per_error", u_cost)
            .field("invalidate_refill_cycles_per_error", i_cost),
    );
    o.lines(&[
        "The invalidate-only variant shifts the cost into post-recovery cold misses,",
        "which the per-error figure above already includes (measured end to end).",
    ]);
    o
}

/// Communication-Buffer drain policy: both-complete (the paper's §III-A
/// rule) vs. eager first-copy drain. Eager drains earlier (slightly
/// lower CB pressure) but reopens the silent-corruption window the
/// both-complete rule exists to close — a corrupted store value can
/// reach the ECC-protected L2 before its parity error is detected.
fn ablation_cb(_: Runner, cfg: ExperimentConfig) -> Output {
    let insts = cfg.inst_count;
    let bench = Benchmark::Qsort;
    let t = WorkloadGen::new(bench, insts, cfg.seed).collect_trace();
    let base = baseline_cycles(bench, cfg) as f64;

    // LSQ faults snapped to stores — the hazard-triggering class.
    let stores: Vec<u64> = t
        .insts()
        .iter()
        .filter(|i| i.op.is_store())
        .map(|i| i.seq)
        .collect();
    let faults: Vec<PairFault> = (0..20u64)
        .map(|i| PairFault {
            at: stores[(i as usize + 1) * stores.len() / 22],
            core: 0,
            site: FaultSite {
                target: FaultTarget::Lsq,
                bit_offset: 3 + i,
            },
            kind: FaultKind::Single,
        })
        .collect();

    let mut o = Output::new(Some(cfg));
    outln!(
        o,
        "Ablation — CB drain policy on {} ({insts} instructions, 20 LSQ faults on stores)",
        bench.name()
    );
    o.lines(&["policy            runtime norm      CB stalls   recoveries     silent"]);
    for (name, policy) in [
        ("both-complete", DrainPolicy::BothComplete),
        ("eager", DrainPolicy::Eager),
    ] {
        let ucfg = UnsyncConfig {
            drain_policy: policy,
            ..UnsyncConfig::paper_baseline()
        };
        let clean = UnsyncPair::new(CoreConfig::table1(), ucfg).run(&t, &[]);
        let faulty = UnsyncPair::new(CoreConfig::table1(), ucfg).run(&t, &faults);
        let norm = clean.cycles as f64 / base;
        let stalls = clean.events.sum(TraceEventKind::CbFullStall);
        let (recoveries, silent) = (faulty.recoveries, faulty.silent_faults);
        o.records.push(
            Json::obj()
                .field("policy", name)
                .field("runtime_norm", norm)
                .field("cb_full_stall_cycles", stalls)
                .field("recoveries", recoveries)
                .field("silent_faults", silent),
        );
        outln!(
            o,
            "{name:<16} {norm:>13.4} {stalls:>14} {recoveries:>12} {silent:>10}"
        );
    }
    o.lines(&[
        "",
        "Reading: eager saves a little CB occupancy but lets corrupted store values",
        "escape to the L2 before detection — the both-complete rule is what makes the",
        "CB a correctness mechanism, not just a write buffer.",
    ]);
    o
}

/// Runtime-integrated energy: Table II's power numbers × simulated
/// runtimes ⇒ energy and EDP per configuration per benchmark.
fn energy(_: Runner, cfg: ExperimentConfig) -> Output {
    let insts = cfg.inst_count;
    let clock_hz = CoreConfig::table1().clock_ghz * 1e9;
    let mut o = Output::new(Some(cfg));
    outln!(
        o,
        "Energy accounting ({insts} instructions per benchmark, 2 GHz)"
    );
    o.lines(&[
        "benchmark  config          cores    power W    energy mJ    nJ per inst     EDP rel.",
    ]);
    for bench in [
        Benchmark::Bzip2,
        Benchmark::Galgel,
        Benchmark::Sha,
        Benchmark::Mcf,
    ] {
        let t = WorkloadGen::new(bench, insts, cfg.seed).collect_trace();
        let base_cycles = baseline_cycles(bench, cfg);
        let unsync_cycles = UnsyncPair::new(CoreConfig::table1(), UnsyncConfig::paper_baseline())
            .run(&t, &[])
            .cycles;
        let reunion_cycles =
            ReunionPair::new(CoreConfig::table1(), ReunionConfig::paper_baseline())
                .run(&t, &[])
                .cycles;

        let reports = [
            EnergyReport::new(&CoreModel::mips_baseline(), 1, base_cycles, insts, clock_hz),
            EnergyReport::new(&CoreModel::reunion(), 2, reunion_cycles, insts, clock_hz),
            EnergyReport::new(&CoreModel::unsync(), 2, unsync_cycles, insts, clock_hz),
        ];
        let base_edp = reports[0].edp;
        for r in &reports {
            o.records.push(
                Json::obj()
                    .field("benchmark", bench.name())
                    .field("config", r.name)
                    .field("cores", r.cores)
                    .field("power_w", r.power_w)
                    .field("energy_mj", r.energy_j * 1e3)
                    .field("nj_per_inst", r.energy_per_inst_nj)
                    .field("edp_rel", r.edp / base_edp),
            );
            outln!(
                o,
                "{:<10} {:<12} {:>8} {:>10.2} {:>12.3} {:>14.2} {:>12.2}",
                bench.name(),
                r.name,
                r.cores,
                r.power_w,
                r.energy_j * 1e3,
                r.energy_per_inst_nj,
                r.edp / base_edp
            );
        }
    }
    o.lines(&[
        "",
        "Reading: redundancy inherently doubles core energy; UnSync's pair stays",
        "close to 2× baseline while Reunion compounds higher power with longer runtime.",
    ]);
    o
}

/// AVF-weighted SDC/DUE analysis per architecture: how much *silent*
/// vulnerability each scheme leaves, weighted by how often struck bits
/// actually hold live data.
fn avf(_: Runner, cfg: ExperimentConfig) -> Output {
    let mut o = Output::new(Some(cfg));
    outln!(
        o,
        "AVF-weighted vulnerability ({} instructions per benchmark)",
        cfg.inst_count
    );
    o.lines(&[
        "benchmark      RF AVF  ROB AVF  L1 reuse    baseline SDC%   Reunion SDC%    UnSync SDC%",
    ]);
    for bench in [
        Benchmark::Bzip2,
        Benchmark::Galgel,
        Benchmark::Mcf,
        Benchmark::Sha,
        Benchmark::Qsort,
    ] {
        let t = WorkloadGen::new(bench, cfg.inst_count, cfg.seed).collect_trace();
        let mut s = WorkloadGen::new(bench, cfg.inst_count, cfg.seed);
        let sim = run_baseline(CoreConfig::table1(), &mut s);
        let core = CoreConfig::table1();
        let est = avf::estimate(
            &t,
            sim.core.avg_rob_occupancy() / core.rob_size as f64,
            // IQ/LSQ utilization approximated from ROB occupancy scaled
            // by their relative depths.
            sim.core.avg_rob_occupancy() / core.rob_size as f64,
            sim.core.avg_rob_occupancy() / core.rob_size as f64 * 0.5,
        );
        let [base, reunion, unsync] = [
            Coverage::baseline(),
            Coverage::reunion(),
            Coverage::unsync(),
        ]
        .map(|c| avf::SdcDueSplit::compute(&est, &c).sdc_fraction() * 100.0);
        let (rf, rob, l1) = (est.register_file, est.rob, est.l1_data);
        o.records.push(
            Json::obj()
                .field("benchmark", bench.name())
                .field("rf_avf", rf)
                .field("rob_avf", rob)
                .field("l1_reuse", l1)
                .field("baseline_sdc_pct", base)
                .field("reunion_sdc_pct", reunion)
                .field("unsync_sdc_pct", unsync),
        );
        outln!(
            o,
            "{:<12} {rf:>8.3} {rob:>8.3} {l1:>9.3}   {base:>13.1}% {reunion:>13.1}% {unsync:>13.1}%",
            bench.name()
        );
    }
    o.lines(&[
        "",
        "Reading: UnSync's placement drives AVF-weighted silent corruption to zero;",
        "Reunion's residual SDC comes from the ARF and TLB it leaves uncovered.",
    ]);
    o
}

/// DVFS iso-performance: because UnSync is faster than Reunion at equal
/// frequency, an UnSync pair can be *downclocked to Reunion's
/// throughput* and bank the voltage savings on top of Table II's power
/// advantage.
fn dvfs(_: Runner, cfg: ExperimentConfig) -> Output {
    let dvfs = DvfsModel::default();
    let f_nom = CoreConfig::table1().clock_ghz * 1e9;
    let mut o = Output::new(Some(cfg));
    outln!(
        o,
        "DVFS iso-performance study ({} instructions; nominal {} GHz)",
        cfg.inst_count,
        f_nom / 1e9
    );
    o.lines(&["benchmark     iso f GHz  P(UnSync) W       P(iso) W   P(Reunion) W       saving"]);
    for bench in [
        Benchmark::Bzip2,
        Benchmark::Galgel,
        Benchmark::Sha,
        Benchmark::Qsort,
    ] {
        let t = WorkloadGen::new(bench, cfg.inst_count, cfg.seed).collect_trace();
        let u_cycles = UnsyncPair::new(CoreConfig::table1(), UnsyncConfig::paper_baseline())
            .run(&t, &[])
            .cycles;
        let r_cycles = ReunionPair::new(CoreConfig::table1(), ReunionConfig::paper_baseline())
            .run(&t, &[])
            .cycles;
        // Treat the measured cycle counts as core-bound at the nominal
        // clock (memory time folded in — a conservative choice: it makes
        // the achievable downclock smaller, not larger).
        let target = r_cycles as f64 / f_nom;
        let f_iso = dvfs
            .iso_performance_frequency(u_cycles, 0.0, target)
            .unwrap_or(f_nom);
        let unsync = CoreModel::unsync();
        let reunion = CoreModel::reunion();
        let p_full = 2.0 * dvfs.power_at(&unsync, f_nom);
        let p_iso = 2.0 * dvfs.power_at(&unsync, f_iso.min(f_nom));
        let p_reunion = 2.0 * dvfs.power_at(&reunion, f_nom);
        let (ghz, saving) = (f_iso / 1e9, 1.0 - p_iso / p_reunion);
        o.records.push(
            Json::obj()
                .field("benchmark", bench.name())
                .field("iso_freq_ghz", ghz)
                .field("unsync_pair_power_w", p_full)
                .field("iso_pair_power_w", p_iso)
                .field("reunion_pair_power_w", p_reunion)
                .field("saving_fraction", saving),
        );
        outln!(
            o,
            "{:<12} {ghz:>10.2} {p_full:>12.2} {p_iso:>14.2} {p_reunion:>14.2} {:>11.1}%",
            bench.name(),
            saving * 100.0
        );
    }
    o.lines(&[
        "",
        "Reading: matching Reunion's throughput lets the UnSync pair shed frequency",
        "AND voltage; the last column is the total pair-power saving vs a Reunion pair",
        "at nominal clock (Table II's static 34.5% claim, compounded by DVFS).",
    ]);
    o
}

/// L2 ECC scrubbing: how often the shared L2 must be scrubbed for its
/// "always a correct copy" role in UnSync's recovery story to hold at a
/// given reliability budget.
fn scrub(_: Runner, _: ExperimentConfig) -> Output {
    let m = ScrubModel::l2_table1();
    let mut o = Output::new(None);
    outln!(
        o,
        "Shared L2 ({} codewords × {} bits, {} FIT/bit raw rate)",
        m.codewords,
        m.codeword_bits,
        m.fit_per_bit
    );
    outln!(o, "{:>16} {:>24}", "scrub period", "uncorrectable FIT (L2)");
    for (label, secs) in [
        ("1 minute", 60.0),
        ("1 hour", 3_600.0),
        ("1 day", 86_400.0),
        ("1 week", 604_800.0),
        ("1 month", 2_592_000.0),
        ("1 year", 31_536_000.0),
    ] {
        let fit = m.uncorrectable_fit(secs);
        outln!(o, "{label:>16} {fit:>24.6}");
        o.records.push(
            Json::obj()
                .field("scrub_period_s", secs)
                .field("uncorrectable_fit", fit),
        );
    }
    for target in [1.0, 0.01] {
        let t = m.required_scrub_interval(target);
        o.records.push(
            Json::obj()
                .field("target_fit", target)
                .field("required_scrub_interval_s", t),
        );
        outln!(
            o,
            "\nto keep the whole L2 at ≤ {target} FIT of uncorrectable errors, scrub every \
             {:.1} hours",
            t / 3_600.0
        );
    }
    o.lines(&[
        "",
        "Reading: double-strike accumulation is quadratic in the scrub period, so even",
        "leisurely scrub rates keep the SECDED L2 effectively error-free — which is what",
        "lets both the paper's recovery (UnSync) and its baseline assumption (Reunion's",
        "ECC L1/L2) treat the protected arrays as always-correct sources.",
    ]);
    o
}

/// Workload characterization: baseline IPC, cache miss rates and stall
/// breakdown per benchmark — the substrate numbers behind Figures 4–6.
fn memstats(_: Runner, cfg: ExperimentConfig) -> Output {
    let mut o = Output::new(Some(cfg));
    outln!(
        o,
        "Baseline workload characterization ({} instructions, seed {})",
        cfg.inst_count,
        cfg.seed
    );
    o.lines(&[
        "benchmark          IPC  L1D miss   L2 miss   ROB occ   ROB sat  IQ stalls   ser stl",
    ]);
    for &bench in Benchmark::all() {
        let mut s = WorkloadGen::new(bench, cfg.inst_count, cfg.seed);
        let r = run_baseline(CoreConfig::table1(), &mut s);
        o.records.push(
            Json::obj()
                .field("benchmark", bench.name())
                .field("ipc", r.ipc())
                .field("l1d_miss_rate", r.l1d_miss_rate)
                .field("l2_miss_rate", r.l2_miss_rate)
                .field("avg_rob_occupancy", r.core.avg_rob_occupancy())
                .field("rob_saturation_fraction", r.core.rob_saturation_fraction())
                .field("iq_full_cycles", r.core.iq_full_cycles)
                .field("serialize_stall_cycles", r.core.serialize_stall_cycles),
        );
        outln!(
            o,
            "{:<14} {:>7.3} {:>8.2}% {:>8.2}% {:>9.1} {:>8.1}% {:>10} {:>9}",
            bench.name(),
            r.ipc(),
            r.l1d_miss_rate * 100.0,
            r.l2_miss_rate * 100.0,
            r.core.avg_rob_occupancy(),
            r.core.rob_saturation_fraction() * 100.0,
            r.core.iq_full_cycles,
            r.core.serialize_stall_cycles
        );
    }
    o.lines(&[
        "",
        "(ROB sat = fraction of dispatches finding the ROB completely full — the",
        "precondition for Fig. 5's CHECK-stage back-pressure argument.)",
    ]);
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

/// Multi-bit upsets (§VIII future work: "multi-bit correction for cache
/// blocks"): adjacent double-bit strikes on the L1 defeat the paper's
/// 1-bit line parity, and what upgrading to SECDED costs.
fn mbu(_: Runner, cfg: ExperimentConfig) -> Output {
    let t = WorkloadGen::new(Benchmark::Gzip, cfg.inst_count, cfg.seed).collect_trace();
    let campaigns = 40u64;
    let mut o = Output::new(Some(cfg));
    outln!(
        o,
        "MBU campaign: {campaigns} adjacent double-bit L1 strikes on gzip"
    );
    o.lines(&["L1 protection            detected   recoveries     silent   correct"]);
    for (label, prot) in [
        ("line parity (paper)", L1Protection::LineParity),
        ("SECDED (§VIII)", L1Protection::Secded),
    ] {
        let ucfg = UnsyncConfig {
            l1_protection: prot,
            ..UnsyncConfig::paper_baseline()
        };
        let pair = UnsyncPair::new(CoreConfig::table1(), ucfg);
        let (mut det, mut rec, mut silent, mut correct) = (0u64, 0u64, 0u64, 0u64);
        for i in 0..campaigns {
            let fault = PairFault {
                at: 500 + i * (cfg.inst_count - 1_000) / campaigns,
                core: (i % 2) as usize,
                site: FaultSite {
                    target: FaultTarget::L1Data,
                    bit_offset: 1_000 + i * 997,
                },
                kind: FaultKind::AdjacentDouble,
            };
            let out = pair.run(&t, &[fault]);
            det += out.detections;
            rec += out.recoveries;
            silent += out.silent_faults;
            correct += u64::from(out.correct());
        }
        o.records.push(
            Json::obj()
                .field("l1_protection", label)
                .field("campaigns", campaigns)
                .field("detected", det)
                .field("recoveries", rec)
                .field("silent", silent)
                .field("correct", correct),
        );
        outln!(
            o,
            "{label:<22} {det:>10} {rec:>12} {silent:>10} {correct:>6}/{campaigns}"
        );
    }

    let parity = CacheModel::l1(CacheProtection::parity_per_256());
    let secded = CacheModel::l1(CacheProtection::Secded);
    o.records.push(
        Json::obj()
            .field("hw_cost", true)
            .field("parity_area_mm2", parity.area_mm2())
            .field("secded_area_mm2", secded.area_mm2())
            .field("parity_power_mw", parity.power_mw())
            .field("secded_power_mw", secded.power_mw()),
    );
    outln!(
        o,
        "\nhardware cost of closing the hole: L1 {:.4} → {:.4} mm² (+{:.1}%), \
         {:.2} → {:.2} mW (+{:.1}%)",
        parity.area_mm2(),
        secded.area_mm2(),
        (secded.area_mm2() / parity.area_mm2() - 1.0) * 100.0,
        parity.power_mw(),
        secded.power_mw(),
        (secded.power_mw() / parity.power_mw() - 1.0) * 100.0
    );
    o.lines(&[
        "",
        "Reading: single-event upsets (the paper's threat model) are fully covered by",
        "parity; once multi-bit upsets matter, the L1 needs SECDED — which also corrects",
        "single strikes in place, removing those pair recoveries entirely.",
    ]);
    o
}

/// The Table I core with one parameter family changed.
fn variant(name: &str) -> CoreConfig {
    let mut c = CoreConfig::table1();
    match name {
        "2-wide" => {
            c.fetch_width = 2;
            c.dispatch_width = 2;
            c.commit_width = 2;
            c.int_alus = 2;
            c.mem_ports = 1;
            c.iq_size = 32;
            c.rob_size = 64;
            c.lsq_size = 32;
        }
        "table1" => {}
        "6-wide" => {
            c.fetch_width = 6;
            c.dispatch_width = 6;
            c.commit_width = 6;
            c.int_alus = 6;
            c.fp_units = 3;
            c.mem_ports = 3;
            c.iq_size = 96;
            c.rob_size = 192;
            c.lsq_size = 96;
        }
        "rob-64" => c.rob_size = 64,
        "rob-256" => c.rob_size = 256,
        other => panic!("unknown variant {other}"),
    }
    c
}

/// Do the headline conclusions survive changes to the Table I machine?
/// Sweeps core width and ROB depth and re-measures the Reunion/UnSync
/// overheads on the serializing-heavy trio.
fn sensitivity(_: Runner, cfg: ExperimentConfig) -> Output {
    let benches = Benchmark::serializing_heavy();
    let mut o = Output::new(Some(cfg));
    outln!(
        o,
        "Core-configuration sensitivity on {{bzip2, ammp, galgel}} ({} instructions)",
        cfg.inst_count
    );
    o.lines(&["machine         Reunion ovh (avg)       UnSync ovh (avg)"]);
    for name in ["2-wide", "rob-64", "table1", "rob-256", "6-wide"] {
        let core = variant(name);
        let (mut r_sum, mut u_sum) = (0.0, 0.0);
        for bench in benches {
            let t = WorkloadGen::new(bench, cfg.inst_count, cfg.seed).collect_trace();
            let mut s = WorkloadGen::new(bench, cfg.inst_count, cfg.seed);
            let base = run_baseline(core, &mut s).core.last_commit_cycle as f64;
            let r = ReunionPair::new(core, ReunionConfig::paper_baseline())
                .run(&t, &[])
                .cycles;
            let u = UnsyncPair::new(core, UnsyncConfig::paper_baseline())
                .run(&t, &[])
                .cycles;
            r_sum += r as f64 / base - 1.0;
            u_sum += u as f64 / base - 1.0;
        }
        let (r_avg, u_avg) = (
            r_sum / benches.len() as f64 * 100.0,
            u_sum / benches.len() as f64 * 100.0,
        );
        o.records.push(
            Json::obj()
                .field("machine", name)
                .field("reunion_overhead_avg_pct", r_avg)
                .field("unsync_overhead_avg_pct", u_avg),
        );
        outln!(o, "{name:<10} {r_avg:>21.2}% {u_avg:>21.2}%");
    }
    o.lines(&[
        "",
        "Reading: the ordering (Reunion pays double digits on serializing workloads,",
        "UnSync stays near zero) is robust across machine widths and window depths —",
        "it follows from the synchronization protocol, not from Table I specifics.",
    ]);
    o
}

/// Measured per-kernel workload statistics (see [`kernelstats`]),
/// written as the committed `KERNEL_stats.json` summary.
fn kernel_stats(_: Runner, cfg: ExperimentConfig) -> Output {
    const OUT_PATH: &str = "KERNEL_stats.json";
    let rows = kernelstats::kernel_stats(cfg);
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

/// The uncore vulnerability campaign (ROEC 2.0, see [`roec_uncore`]):
/// structure × scheme × strike, each strike classified against the
/// golden memory image, summarized in `BENCH_roec.json`. The grid is
/// [`roec_uncore::grid`] and its records come from the campaign
/// engine's job path ([`campaign::run_records`]), so they equal the
/// `campaign` bin's `campaign_uncore` records line for line.
///
/// The campaign has its own trace length, and its own default seed
/// (11), so it reads `UNSYNC_SEED` itself instead of taking `cfg`.
/// `UNSYNC_ROEC_SMOKE=1` selects the CI smoke grid and
/// `UNSYNC_ROEC_OUT` the summary path.
fn roec_uncore(runner: Runner, _: ExperimentConfig) -> Output {
    let seed = env::or_exit(env::var("UNSYNC_SEED")).unwrap_or(11);
    let grid = roec_uncore::grid(seed, env::or_exit(env::flag("UNSYNC_ROEC_SMOKE")));
    let plan = grid.strikes.as_ref().expect("the uncore grid strikes");
    let records = campaign::run_records(&grid, &runner);
    let mut o = Output::new(Some(ExperimentConfig {
        inst_count: grid.inst_count,
        seed,
    }));
    outln!(
        o,
        "Uncore vulnerability campaign ({} × {} insts, seed {seed}, {} strikes/cell, horizon {})",
        grid.workloads[0].name(),
        grid.inst_count,
        plan.strikes_per_cell,
        plan.horizon
    );
    o.text.push_str(&roec_uncore::render_table(&records));
    o.lines(&[
        "",
        "Paper claims (§III-B1): UnSync's uncore placement — SECDED L2, parity MSHRs,",
        "duplicated arbiters, fingerprinted CB — leaves no live uncore strike silent,",
        "where TMR's sphere of replication ends at the core boundary (bare uncore).",
    ]);
    let out_path =
        std::env::var("UNSYNC_ROEC_OUT").unwrap_or_else(|_| "BENCH_roec.json".to_string());
    let mut text = roec_uncore::summary_json(&grid, &records).render();
    text.push('\n');
    o.files.push((PathBuf::from(&out_path), text));
    outln!(o, "wrote {out_path} ({} strikes)", records.len());
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
