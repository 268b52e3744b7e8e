//! The traced pass: the same work as an untimed pass, rebuilt from the
//! crates' public calls with a span around each layer call, so each
//! layer's self time can be summed and checked against the untraced
//! pass's busy time.
//!
//! A campaign job is composed as the engine composes it: trace memo
//! lookup, `golden_memory_source` (strikes) or the baseline memo
//! (comparators), `run_scheme_with_strikes` or the comparator runner,
//! `classify_strike_result` (strikes), and the record render.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use unsync_bench::campaign::{CampaignGrid, CampaignJob, JobKind};
use unsync_bench::roec_uncore::{classify_strike_result, run_scheme_with_strikes};
use unsync_bench::runlog::Json;
use unsync_bench::runner::{baseline_cycles_source, golden_memory_source};
use unsync_bench::Runner;
use unsync_core::{UnsyncConfig, UnsyncPair};
use unsync_exec::{FlexConfig, FlexPair, RedundantDriver, SecdedOnlyCore, TmrTriple};
use unsync_fault::FaultKind;
use unsync_isa::TraceProgram;
use unsync_mem::{L2ContentionConfig, WritePolicy};
use unsync_reunion::{CheckpointConfig, CheckpointHooks, LockstepPair, ReunionConfig, ReunionPair};
use unsync_sim::CoreConfig;
use unsync_workloads::WorkloadSource;

use crate::host::cpu_seconds;
use crate::spans::{self, Recorder, Span, NO_JOB};
use crate::workloads::{lane_records, manycore_run, Inputs, PAPER};

/// Simulated cycles of one fault-free comparator run (the campaign
/// engine's comparator vocabulary).
pub fn run_comparator(scheme: &str, t: &TraceProgram) -> u64 {
    let cfg = CoreConfig::table1();
    match scheme {
        "lockstep" => LockstepPair::new(cfg).run(t).cycles,
        "reunion" => {
            ReunionPair::new(cfg, ReunionConfig::paper_baseline())
                .run(t, &[])
                .cycles
        }
        "checkpoint" => {
            let mut s = t.clone();
            let mut hooks = CheckpointHooks::new(CheckpointConfig::default());
            unsync_sim::run_stream(cfg, &mut s, &mut hooks, WritePolicy::WriteThrough)
                .core
                .last_commit_cycle
        }
        "unsync_pair" => {
            UnsyncPair::new(cfg, UnsyncConfig::paper_baseline())
                .run(t, &[])
                .cycles
        }
        "tmr_vote" => TmrTriple::new(cfg).run(t, &[]).cycles,
        "flex" => {
            FlexPair::new(cfg, FlexConfig::paper_baseline())
                .run(t, &[])
                .cycles
        }
        "secded_only" => SecdedOnlyCore::new(cfg).run(t, &[]).cycles,
        other => panic!("unknown comparator scheme {other}"),
    }
}

/// What the traced pass produced.
pub struct Traced {
    pub lines: Vec<String>,
    pub spans: Vec<Span>,
    pub cpu_s: f64,
    pub journal_events: u64,
}

pub fn traced_pass(inputs: &Inputs, workers: usize) -> Traced {
    let epoch = Instant::now();
    let cpu = cpu_seconds();
    let (lines, recorders, journal_events) = match inputs {
        Inputs::Campaign(grid) => traced_campaign(grid, workers, epoch),
        Inputs::Manycore(traces) => {
            let mut rec = Recorder::new(epoch, 0);
            rec.open("job", 0);
            let results = rec.time("exec.run_system", 0, || manycore_run(traces));
            rec.close();
            (lane_records(&results), vec![rec], 0)
        }
        Inputs::Paper(cfg, faults) => {
            let mut rec = Recorder::new(epoch, 0);
            let mut lines = Vec::new();
            for (job, (name, exp)) in PAPER.iter().enumerate() {
                let job = job as u64;
                rec.open("job", job);
                let rows = rec.time(name, job, || exp(Runner::new(workers), *cfg, *faults));
                let rendered = rec.time("bench.runlog.render", job, || {
                    rows.iter().map(Json::render).collect::<Vec<_>>()
                });
                rec.close();
                lines.extend(rendered);
            }
            (lines, vec![rec], 0)
        }
    };
    Traced {
        lines,
        spans: spans::merge(recorders),
        cpu_s: cpu_seconds() - cpu,
        journal_events,
    }
}

type TraceMemo = HashMap<(&'static str, u64), TraceProgram>;

fn traced_campaign(
    grid: &CampaignGrid,
    workers: usize,
    epoch: Instant,
) -> (Vec<String>, Vec<Recorder>, u64) {
    let mut main = Recorder::new(epoch, 0);
    let jobs = grid.expand();
    let memo: TraceMemo = main.time("workloads.trace_memo", NO_JOB, || {
        let mut memo = TraceMemo::new();
        for job in &jobs {
            memo.entry((job.workload.name(), job.seed))
                .or_insert_with(|| job.workload.source(grid.inst_count, job.seed).trace());
        }
        memo
    });
    let next = AtomicUsize::new(0);
    let outputs: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (jobs, memo, next) = (&jobs, &memo, &next);
                s.spawn(move || {
                    let mut rec = Recorder::new(epoch, w + 1);
                    let mut out = Vec::new();
                    let mut journal = 0u64;
                    while let Some(&job) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let (line, events) = compose_job(&mut rec, grid, memo, job);
                        out.push((job.id, line));
                        journal += events;
                    }
                    (rec, out, journal)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced worker panicked"))
            .collect()
    });
    let mut records = Vec::with_capacity(jobs.len());
    let mut recorders = vec![main];
    let mut journal_events = 0;
    for (rec, out, journal) in outputs {
        recorders.push(rec);
        records.extend(out);
        journal_events += journal;
    }
    records.sort_by_key(|&(id, _)| id);
    let mut lines = vec![grid.header_line()];
    lines.extend(records.into_iter().map(|(_, line)| line));
    (lines, recorders, journal_events)
}

/// One campaign job from public calls, one span per layer call. Returns
/// the record line and the run's journal length.
fn compose_job(
    rec: &mut Recorder,
    grid: &CampaignGrid,
    memo: &TraceMemo,
    job: CampaignJob,
) -> (String, u64) {
    let id = job.id;
    rec.open("job", id);
    let trace = rec.time("workloads.trace", id, || {
        &memo[&(job.workload.name(), job.seed)]
    });
    let source = job.workload.source(job.inst_count, job.seed);
    let record = || {
        Json::obj()
            .field("kind", "record")
            .field("row", id)
            .field("workload", job.workload.name())
            .field("inst_count", job.inst_count)
            .field("seed", job.seed)
            .field("scheme", job.scheme)
    };
    let (line, journal) = match job.kind {
        JobKind::Compare => {
            let base = rec.time("runner.baseline", id, || baseline_cycles_source(&source));
            let cycles = rec.time("exec.lane", id, || run_comparator(job.scheme, trace));
            let line = rec.time("bench.runlog.render", id, || {
                record()
                    .field("job", "compare")
                    .field("cycles", cycles)
                    .field("baseline_cycles", base)
                    .field("overhead", cycles as f64 / base as f64 - 1.0)
                    .render()
            });
            (line, 0)
        }
        JobKind::Strike { target, index } => {
            let plan = grid
                .strikes
                .as_ref()
                .expect("strike job implies a strike plan");
            let golden = rec.time("isa.golden", id, || golden_memory_source(&source));
            let (strike, result) = rec.time("exec.lane", id, || {
                let strike = plan.strike(target, index, job.stream_seed(), 0);
                let contention = grid
                    .contention
                    .unwrap_or_else(L2ContentionConfig::many_core);
                let driver =
                    RedundantDriver::new(CoreConfig::table1()).with_l2_contention(contention);
                let result = run_scheme_with_strikes(
                    &driver,
                    job.scheme,
                    trace,
                    vec![strike],
                    Some(&golden),
                );
                (strike, result)
            });
            // The run result is released inside the classify span, its
            // last consumer, so no job time falls between child spans.
            let (outcome, memory_matches, out, journal) = rec.time("fault.classify", id, || {
                let (outcome, memory_matches) = classify_strike_result(&result, &golden);
                let journal = result.events.journal().map_or(0, |j| j.len() as u64);
                let out = result.out;
                drop((result, golden));
                (outcome, memory_matches, out, journal)
            });
            let line = rec.time("bench.runlog.render", id, || {
                let fault_kind = match strike.kind {
                    FaultKind::Single => "single",
                    FaultKind::AdjacentDouble => "double",
                };
                record()
                    .field("job", "strike")
                    .field("structure", target.label())
                    .field("strike", index)
                    .field("cycle", strike.cycle)
                    .field("bit_offset", strike.site.bit_offset)
                    .field("fault_kind", fault_kind)
                    .field("directed", u64::from(strike.directed))
                    .field("outcome", outcome.label())
                    .field("detections", out.detections)
                    .field("recoveries", out.recoveries)
                    .field("memory_matches", u64::from(memory_matches))
                    .render()
            });
            (line, journal)
        }
    };
    rec.close();
    (line, journal)
}

/// The cost ledger of a traced pass.
pub struct Ledger {
    /// Per layer (span name): calls and total self seconds, in name order.
    pub layers: Vec<(&'static str, u64, f64)>,
    /// Σ layer self time, i.e. the traced pass's busy time.
    pub total_s: f64,
    /// Share of each job span its child spans cover, one per job.
    pub child_cover: Vec<f64>,
    /// Job span durations, µs.
    pub job_us: Vec<f64>,
}

pub fn ledger(spans: &[Span]) -> Ledger {
    let layers: Vec<_> = spans::self_time_by_name(spans)
        .into_iter()
        .map(|(name, (calls, ns))| (name, calls, ns as f64 / 1e9))
        .collect();
    let total_s = layers.iter().map(|l| l.2).sum();
    let child = spans::child_ns(spans);
    let mut child_cover = Vec::new();
    let mut job_us = Vec::new();
    for (s, c) in spans.iter().zip(&child) {
        if s.name == "job" && s.parent.is_none() {
            job_us.push(s.dur_ns() as f64 / 1e3);
            child_cover.push(*c as f64 / s.dur_ns().max(1) as f64);
        }
    }
    Ledger {
        layers,
        total_s,
        child_cover,
        job_us,
    }
}
