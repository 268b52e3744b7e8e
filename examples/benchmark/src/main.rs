//! The repository benchmark. One invocation runs one workload:
//!
//! ```text
//! benchmark --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]] [--out <file>]
//! benchmark --smoke
//! ```
//!
//! It sets the workload up (median of several cold set-ups), measures
//! untraced passes for `--seconds`, checks every pass's output digest,
//! and prints each metric as `<name> <value> <unit>`, then one JSON
//! result line. `--trace` adds a traced pass, the cost ledger and the
//! sub-layer calibrations, reports the per-layer metrics instead, and
//! writes the spans as Chrome-trace JSON. See README.md.

mod calibrate;
mod host;
mod ledger;
mod spans;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::Instant;

use unsync_bench::runlog::Json;

use host::{digest_lines, median, quantile, ScratchDir};
use workloads::{Inputs, Pass, Size, Workload, FULL, SMOKE};

/// Cold set-ups per run; `setup_s` is their median.
const SETUPS: u64 = 5;
/// Each extra set-up runs on its own seed so that no process-wide memo
/// cache is warm for it.
const SETUP_SEED_STRIDE: u64 = 1_000_003;
/// The timed phase runs at least this many passes.
const MIN_PASSES: usize = 3;
/// Ledger gates: layer self times must sum to the untraced busy time
/// within this share, and child spans must cover this share of the job
/// span in 99% of jobs (an interrupt landing between two child spans can
/// uncover a few µs of an otherwise covered job).
const MAX_RESIDUAL: f64 = 0.10;
const MIN_CHILD_COVER: f64 = 0.98;
/// Brackets (untraced, traced, untraced pass) tried before the residual
/// gate fails.
const LEDGER_ATTEMPTS: usize = 3;

/// Output digests of the `FULL` inputs, by workload and seed.
const DIGESTS: &str = include_str!("../digests.json");

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 11,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = Workload::parse(&name).ok_or(format!("unknown workload {name}"))?;
                args.workload = Some(w);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            "--trace" => {
                args.trace = it
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1");
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a non-negative number, not {}",
            args.seconds
        ));
    }
    if !args.smoke && args.workload.is_none() {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        return Err(format!("--workload is required ({})", names.join(", ")));
    }
    Ok(args)
}

type Metric = (String, f64, &'static str);

/// One workload run: its checks and its metrics.
struct Report {
    failed: u64,
    attempted: u64,
    gates_ok: bool,
    metrics: Vec<Metric>,
}

fn main() {
    let code = match run() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn run() -> Result<bool, String> {
    let leaked: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("UNSYNC_"))
        .collect();
    if !leaked.is_empty() {
        return Err(format!(
            "refusing to run with {} set: UNSYNC_* variables change what the crates do",
            leaked.join(", ")
        ));
    }
    let args = parse_args()?;
    if args.smoke {
        // Smoke passes last milliseconds, too short for the ledger gates
        // to mean anything; only the output checks count here.
        let started = Instant::now();
        let (mut attempted, mut failed) = (0, 0);
        for w in Workload::ALL {
            let r = run_workload(w, &args, &SMOKE, 0.0, true)?;
            attempted += r.attempted;
            failed += r.failed;
        }
        println!("# smoke took {:.2} s", started.elapsed().as_secs_f64());
        print_result(failed == 0, attempted, failed, &[]);
        return Ok(failed == 0);
    }
    let w = args.workload.expect("checked in parse_args");
    let r = run_workload(w, &args, &FULL, args.seconds, args.trace)?;
    let correct = r.failed == 0;
    print_result(correct, r.attempted, r.failed, &r.metrics);
    Ok(correct && r.gates_ok)
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let mut m = Json::obj();
    for (name, value, unit) in metrics {
        m = m.field(
            name,
            Json::obj().field("value", *value).field("unit", *unit),
        );
    }
    let result = Json::obj()
        .field("correct", correct)
        .field("attempted", attempted)
        .field("failed", failed)
        .field("metrics", m);
    println!("{}", result.render());
}

fn committed_digest(w: Workload, seed: u64) -> Option<String> {
    let doc = Json::parse(DIGESTS).expect("digests.json is valid JSON");
    doc.get(w.name())?
        .get(&seed.to_string())?
        .as_str()
        .map(str::to_string)
}

fn run_workload(
    w: Workload,
    args: &Args,
    size: &Size,
    seconds: f64,
    trace: bool,
) -> Result<Report, String> {
    let nproc = host::nproc();
    let workers = w.workers(nproc);
    let dir = ScratchDir::create(w.name())?;
    let seed = args.seed;
    let setups = if args.smoke { 1 } else { SETUPS };
    println!(
        "# workload {} seed {seed} nproc {nproc} workers {workers} git {} sizes {}",
        w.name(),
        host::git_head(),
        size.describe(w)
    );

    // Set-up, cold each time; the last one is on the run's own seed.
    let mut setup_s = Vec::new();
    let mut inputs: Option<Inputs> = None;
    for k in (0..setups).rev() {
        let started = Instant::now();
        let built = workloads::set_up(w, size, seed + k * SETUP_SEED_STRIDE);
        setup_s.push(started.elapsed().as_secs_f64());
        inputs = Some(built);
    }
    let inputs = inputs.expect("at least one set-up");

    // Timed phase: whole passes until the next would overrun `seconds`.
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut first_lines = Vec::new();
    let mut digests = Vec::new();
    loop {
        let mut pass = workloads::run_pass(&inputs, workers, dir.path())?;
        digests.push(digest_lines(&pass.lines));
        if passes.is_empty() {
            first_lines = std::mem::take(&mut pass.lines);
        } else {
            pass.lines = Vec::new();
        }
        passes.push(pass);
        let typical = median(&passes.iter().map(|p| p.cost.wall_s).collect::<Vec<_>>());
        if passes.len() >= MIN_PASSES && started.elapsed().as_secs_f64() + typical > seconds {
            break;
        }
    }
    let timed_s = started.elapsed().as_secs_f64();
    let peak_rss_mb = host::peak_rss_mb();

    // Output gate.
    let committed = (!args.smoke).then(|| committed_digest(w, seed)).flatten();
    let reference = committed.clone().unwrap_or_else(|| digests[0].clone());
    let attempted: u64 = passes.iter().map(|p| p.jobs).sum();
    let counts: Vec<Vec<u64>> = passes.iter().map(|p| sim_counts(&p.cost.delta)).collect();
    let mut failed: u64 = passes
        .iter()
        .zip(&digests)
        .zip(&counts)
        .filter(|((_, d), c)| **d != reference || **c != counts[0])
        .map(|((p, _), _)| p.jobs)
        .sum();
    if let Inputs::Campaign(grid) = &inputs {
        failed += workloads::spot_check(grid, &first_lines);
    }
    let walls: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.3}", p.cost.wall_s))
        .collect();
    println!(
        "# passes {} timed_s {timed_s:.3} pass_wall_s {} digest {} committed {}",
        passes.len(),
        walls.join(","),
        digests[0],
        committed.as_deref().unwrap_or("none")
    );

    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let instructions = |p: &Pass| {
        (p.cost.delta.counters_ending(".instructions")
            + p.cost.delta.counter("sim.instructions_committed")) as f64
    };
    let mut metrics: Vec<Metric> = vec![
        (
            "jobs_per_s".into(),
            per_pass(&|p| p.jobs as f64 / p.cost.wall_s),
            "1/s",
        ),
        (
            "minst_per_s".into(),
            per_pass(&|p| instructions(p) / p.cost.wall_s / 1e6),
            "Minst/s",
        ),
        ("cpu_s".into(), per_pass(&|p| p.cost.cpu_s), "s"),
        ("setup_s".into(), median(&setup_s), "s"),
        ("peak_rss_mb".into(), peak_rss_mb, "MiB"),
    ];
    let mut gates_ok = true;
    if trace {
        let (layer_metrics, traced_failed, ok) = trace_run(
            w,
            args,
            size,
            workers,
            &inputs,
            dir.path(),
            &passes,
            &first_lines,
            &reference,
        )?;
        failed += traced_failed;
        gates_ok = ok;
        metrics = layer_metrics;
    }
    for (name, value, unit) in &metrics {
        println!("{name} {value} {unit}");
    }
    Ok(Report {
        failed,
        attempted,
        gates_ok,
        metrics,
    })
}

/// Simulated-domain counts of one pass: instructions, cycles,
/// detections, recoveries, dropped journal events, L2 bank conflicts.
/// A pure speed-up leaves every one of them exactly equal.
fn sim_counts(d: &host::Snapshot) -> Vec<u64> {
    vec![
        d.counters_ending(".instructions") + d.counter("sim.instructions_committed"),
        d.counters_ending(".cycles"),
        d.counters_ending(".detections"),
        d.counters_ending(".recoveries"),
        d.counter("exec.journal_dropped"),
        d.histogram_counts_ending(".l2_bank_conflicts"),
    ]
}

const SIM_COUNT_NAMES: [&str; 6] = [
    "exec.instructions",
    "exec.cycles",
    "exec.detections",
    "exec.recoveries",
    "exec.journal_dropped",
    "mem.l2_bank_conflicts",
];

/// The traced pass, the ledger and the calibrations: returns the
/// per-layer metrics, failed jobs, and whether the ledger gates held.
#[allow(clippy::too_many_arguments)]
fn trace_run(
    w: Workload,
    args: &Args,
    size: &Size,
    workers: usize,
    inputs: &Inputs,
    dir: &Path,
    passes: &[Pass],
    first_lines: &[String],
    reference: &str,
) -> Result<(Vec<Metric>, u64, bool), String> {
    // The ledger's untraced reference brackets the traced pass (one pass
    // before, one after), so drift in host speed cancels. Host noise only
    // adds to the residual, so a bracket is retried and the closest kept.
    let jobs = passes[0].jobs;
    let ledger_workers = w.ledger_workers(workers);
    let mut failed = 0;
    let mut best: Option<(f64, f64, ledger::Traced, ledger::Ledger)> = None;
    for _ in 0..LEDGER_ATTEMPTS {
        let before = workloads::run_pass(inputs, ledger_workers, dir)?;
        let traced = ledger::traced_pass(inputs, ledger_workers);
        let after = workloads::run_pass(inputs, ledger_workers, dir)?;
        for lines in [&before.lines, &traced.lines, &after.lines] {
            if digest_lines(lines) != reference {
                failed += jobs;
            }
        }
        let busy_s = (before.cost.cpu_s + after.cost.cpu_s) / 2.0;
        let ledger = ledger::ledger(&traced.spans);
        let residual = (ledger.total_s - busy_s).abs() / busy_s;
        println!("# ledger bracket residual {residual:.4}");
        if best.as_ref().is_none_or(|b| residual < b.0) {
            best = Some((residual, busy_s, traced, ledger));
        }
        if residual <= MAX_RESIDUAL {
            break;
        }
    }
    let (residual, busy_s, traced, ledger) = best.expect("at least one bracket");
    if let Inputs::Campaign(grid) = inputs {
        failed += workloads::spot_check(grid, &traced.lines);
    }
    for (name, calls, self_s) in &ledger.layers {
        println!(
            "# ledger {name} calls {calls} self_s {self_s:.6} share {:.4}",
            self_s / ledger.total_s
        );
    }
    println!(
        "# ledger total_s {:.6} untraced_busy_s {busy_s:.6} residual {residual:.4}",
        ledger.total_s
    );

    let mut m: Vec<Metric> = calibrate::run(&workloads::sources(w, size, args.seed), first_lines);
    let mut put = |name: &str, value: f64, unit: &'static str| m.push((name.into(), value, unit));
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let capacity = |p: &Pass| p.cost.wall_s * workers as f64;
    let prof = |p: &Pass, phase: &str| p.cost.delta.histogram_sum_starting(phase) / 1e6;
    let whole = host::Snapshot::take();
    put(
        "bench.runner.golden_sim_runs",
        whole.counter("runner.golden_sim_runs") as f64,
        "count",
    );
    put(
        "runner.baseline_sim_runs",
        whole.counter("runner.baseline_sim_runs") as f64,
        "count",
    );
    put(
        "runner.cache_hits",
        per_pass(&|p| {
            (p.cost.delta.counter("runner.baseline_cache_hits")
                + p.cost.delta.counter("runner.golden_cache_hits")) as f64
        }),
        "count",
    );
    put(
        "runner.cache_lock_waits",
        per_pass(&|p| p.cost.delta.counter("runner.cache_lock_waits") as f64),
        "count",
    );
    put(
        "bench.runner.cpu_util",
        per_pass(&|p| p.cost.cpu_s / capacity(p)),
        "frac",
    );
    for (name, phase) in [
        ("bench.campaign.busy_frac", "prof.campaign.dispatch."),
        ("bench.campaign.queue_wait_frac", "prof.campaign.queue_wait"),
        ("bench.campaign.steal_frac", "prof.campaign.steal"),
        (
            "bench.campaign.writer_flush_frac",
            "prof.campaign.writer_flush",
        ),
    ] {
        put(name, per_pass(&|p| prof(p, phase) / capacity(p)), "frac");
    }
    put(
        "campaign.steals",
        per_pass(&|p| p.cost.delta.counter("campaign.steals") as f64),
        "count",
    );
    put(
        "campaign.backpressure_stalls",
        per_pass(&|p| p.cost.delta.counter("campaign.backpressure_stalls") as f64),
        "count",
    );
    put(
        "exec.sched_loop_frac",
        per_pass(&|p| prof(p, "prof.sched.run") / p.cost.cpu_s),
        "frac",
    );

    let n = ledger.job_us.len();
    let tail_q = (1.0 - 10.0 / n as f64).clamp(0.5, 0.99);
    put("bench.job_us_p50", quantile(&ledger.job_us, 0.5), "us");
    put("bench.job_us_tail", quantile(&ledger.job_us, tail_q), "us");
    put("bench.job_tail_q", tail_q, "frac");
    put("bench.job_samples", n as f64, "count");
    put("exec.journal_events", traced.journal_events as f64, "count");
    put("ledger.residual_frac", residual, "frac");
    let cover_p1 = quantile(&ledger.child_cover, 0.01);
    put("ledger.child_cover_p1", cover_p1, "frac");
    put("trace.overhead_frac", traced.cpu_s / busy_s - 1.0, "frac");

    for (name, value) in SIM_COUNT_NAMES
        .iter()
        .zip(sim_counts(&passes[0].cost.delta))
    {
        put(name, value as f64, "count");
    }
    for (label, count) in workloads::OUTCOMES
        .iter()
        .zip(workloads::outcome_counts(first_lines))
    {
        put(&format!("roec.{label}"), count as f64, "count");
    }

    let out = args.out.clone().unwrap_or_else(|| {
        PathBuf::from(".bench_out").join(format!("{}-seed{}.trace.json", w.name(), args.seed))
    });
    let meta = Json::obj()
        .field("workload", w.name())
        .field("seed", args.seed)
        .field("nproc", host::nproc())
        .field("workers", workers)
        .field("sizes", size.describe(w))
        .field("git", host::git_head());
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    std::fs::write(&out, spans::chrome_trace(&traced.spans, meta))
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    println!("# spans {}", out.display());

    let gates_ok = residual <= MAX_RESIDUAL && cover_p1 >= MIN_CHILD_COVER;
    if !gates_ok {
        eprintln!(
            "ledger gate failed: residual {residual:.4} (max {MAX_RESIDUAL}), \
             child cover p1 {cover_p1:.4} (min {MIN_CHILD_COVER})"
        );
    }
    Ok((m, failed, gates_ok))
}
