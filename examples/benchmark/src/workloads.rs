//! The four workloads: their inputs (a pure function of the seed), the
//! set-up that fills the memo caches and warms up on ~2% of the jobs,
//! one measured pass, and the output lines the pass is checked by.
//!
//! Every workload is closed-loop batch: a pass submits its whole grid at
//! once and ends when the last job finishes, because campaign users
//! submit grids, not arrival streams.

use std::path::Path;
use std::time::Instant;

use unsync_bench::campaign::{normalized_lines, run_job, CampaignEngine, CampaignGrid};
use unsync_bench::experiments::{self, ExperimentConfig};
use unsync_bench::render::jsonl;
use unsync_bench::roec_uncore::SCHEMES as UNCORE_SCHEMES;
use unsync_bench::runlog::Json;
use unsync_bench::runner::{
    baseline_cycles, baseline_cycles_source, golden_memory, golden_memory_source,
};
use unsync_bench::Runner;
use unsync_core::{UnsyncConfig, UnsyncPolicy};
use unsync_exec::{RedundantDriver, RunResult};
use unsync_fault::uncore::StrikePlan;
use unsync_isa::TraceProgram;
use unsync_mem::{L2ContentionConfig, WritePolicy};
use unsync_sim::CoreConfig;
use unsync_workloads::source::DEFAULT_DATA_BASE;
use unsync_workloads::{AnySource, Benchmark, WorkloadSource, WorkloadSpec};

use crate::host::{cpu_seconds, Fnv64, Snapshot};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    UncoreCampaign,
    CompareGrid,
    ManycoreSystem,
    PaperEval,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::UncoreCampaign,
        Workload::CompareGrid,
        Workload::ManycoreSystem,
        Workload::PaperEval,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::UncoreCampaign => "uncore_campaign",
            Workload::CompareGrid => "compare_grid",
            Workload::ManycoreSystem => "manycore_system",
            Workload::PaperEval => "paper_eval",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads: the many-core system is one `run_system` call on
    /// one thread; the others use at most two workers.
    pub fn workers(self, nproc: usize) -> usize {
        match self {
            Workload::ManycoreSystem => 1,
            _ => nproc.clamp(1, 2),
        }
    }

    /// Worker threads of the traced pass and the untraced passes its
    /// ledger is checked against. A paper experiment's span wraps a whole
    /// `Runner::map`, so its wall time is busy time only on one worker.
    pub fn ledger_workers(self, workers: usize) -> usize {
        match self {
            Workload::PaperEval => 1,
            _ => workers,
        }
    }
}

/// Input sizes. `FULL` passes take about 1–2 s on a 2-core host, so a
/// 10 s run measures several passes and reports their median.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    pub strikes_per_cell: u64,
    pub uncore_insts: u64,
    pub compare_insts: u64,
    pub lanes: usize,
    pub lane_insts: u64,
    pub paper_insts: u64,
    pub roec_faults: u64,
}

pub const FULL: Size = Size {
    strikes_per_cell: 96,
    uncore_insts: 1_000,
    compare_insts: 50_000,
    lanes: 128,
    lane_insts: 10_000,
    paper_insts: 20_000,
    roec_faults: 40,
};

pub const SMOKE: Size = Size {
    strikes_per_cell: 2,
    uncore_insts: 300,
    compare_insts: 1_500,
    lanes: 8,
    lane_insts: 600,
    paper_insts: 1_000,
    roec_faults: 4,
};

impl Size {
    pub fn describe(&self, w: Workload) -> String {
        match w {
            Workload::UncoreCampaign => format!(
                "strikes_per_cell={} insts={}",
                self.strikes_per_cell, self.uncore_insts
            ),
            Workload::CompareGrid => format!("insts={}", self.compare_insts),
            Workload::ManycoreSystem => {
                format!("lanes={} insts_per_lane={}", self.lanes, self.lane_insts)
            }
            Workload::PaperEval => {
                format!(
                    "insts={} roec_faults={}",
                    self.paper_insts, self.roec_faults
                )
            }
        }
    }
}

/// What a pass runs, built from the seed.
pub enum Inputs {
    Campaign(CampaignGrid),
    Manycore(Vec<TraceProgram>),
    Paper(ExperimentConfig, u64),
}

fn spec(name: &str) -> WorkloadSpec {
    WorkloadSpec::parse(name).expect("static workload name")
}

/// Base address of many-core lane `p`: disjoint per-lane address
/// spaces, one process per lane.
pub fn lane_base(p: usize) -> u64 {
    0x1000_0000 + p as u64 * 0x0100_0000
}

/// The trace sources a workload runs, with their data base addresses.
pub fn sources(w: Workload, size: &Size, seed: u64) -> Vec<(AnySource, u64)> {
    let grid_sources = |names: &[&str], seeds: &[u64], insts: u64| {
        names
            .iter()
            .flat_map(|&n| {
                seeds
                    .iter()
                    .map(move |&s| (spec(n).source(insts, s), DEFAULT_DATA_BASE))
            })
            .collect()
    };
    match w {
        Workload::UncoreCampaign => grid_sources(&UNCORE_WORKLOADS, &[seed], size.uncore_insts),
        Workload::CompareGrid => {
            grid_sources(&COMPARE_WORKLOADS, &compare_seeds(seed), size.compare_insts)
        }
        Workload::ManycoreSystem => (0..size.lanes)
            .map(|p| {
                (
                    spec("gzip").source(size.lane_insts, seed + p as u64),
                    lane_base(p),
                )
            })
            .collect(),
        Workload::PaperEval => Benchmark::all()
            .iter()
            .map(|&b| {
                let s = WorkloadSpec::Synthetic(b).source(size.paper_insts, seed);
                (s, DEFAULT_DATA_BASE)
            })
            .collect(),
    }
}

/// gzip against a real-ISA kernel: a statistical trace and an executed one.
const UNCORE_WORKLOADS: [&str; 2] = ["gzip", "kernel:qsort"];
/// gzip against mcf varies the working set relative to the caches.
const COMPARE_WORKLOADS: [&str; 4] = ["gzip", "mcf", "kernel:qsort", "kernel:dijkstra"];
pub const COMPARATORS: [&str; 7] = [
    "lockstep",
    "reunion",
    "checkpoint",
    "unsync_pair",
    "tmr_vote",
    "flex",
    "secded_only",
];

fn compare_seeds(seed: u64) -> [u64; 3] {
    [seed, seed + 1, seed + 2]
}

fn build(w: Workload, size: &Size, seed: u64) -> Inputs {
    let list = |names: &[&str]| names.iter().map(|&n| spec(n)).collect();
    match w {
        Workload::UncoreCampaign => Inputs::Campaign(CampaignGrid {
            name: w.name().into(),
            inst_count: size.uncore_insts,
            seeds: vec![seed],
            workloads: list(&UNCORE_WORKLOADS),
            schemes: UNCORE_SCHEMES.to_vec(),
            strikes: Some(StrikePlan::all_uncore(
                size.strikes_per_cell,
                size.uncore_insts * 2,
            )),
            contention: Some(L2ContentionConfig::many_core()),
        }),
        Workload::CompareGrid => Inputs::Campaign(CampaignGrid {
            name: w.name().into(),
            inst_count: size.compare_insts,
            seeds: compare_seeds(seed).to_vec(),
            workloads: list(&COMPARE_WORKLOADS),
            schemes: COMPARATORS.to_vec(),
            strikes: None,
            contention: None,
        }),
        Workload::ManycoreSystem => Inputs::Manycore(
            sources(w, size, seed)
                .iter()
                .map(|(s, base)| s.trace_at(*base))
                .collect(),
        ),
        Workload::PaperEval => Inputs::Paper(
            ExperimentConfig {
                inst_count: size.paper_insts,
                seed,
            },
            size.roec_faults,
        ),
    }
}

/// Builds the inputs, fills the memo caches the pass reads, and runs an
/// untimed warm-up over about 2% of the jobs.
pub fn set_up(w: Workload, size: &Size, seed: u64) -> Inputs {
    let inputs = build(w, size, seed);
    match &inputs {
        Inputs::Campaign(grid) => {
            for (source, _) in sources(w, size, seed) {
                if grid.strikes.is_some() {
                    golden_memory_source(&source);
                } else {
                    baseline_cycles_source(&source);
                }
            }
            for job in grid.expand().into_iter().step_by(50) {
                run_job(grid, job, true);
            }
        }
        Inputs::Manycore(traces) => {
            let lanes = traces.len().div_ceil(50);
            manycore_run(&traces[..lanes]);
        }
        Inputs::Paper(cfg, _) => {
            for &b in Benchmark::all() {
                baseline_cycles(b, *cfg);
            }
            // The SER sweep's goldens; gzip's also serves ROEC.
            for b in SER_BENCHES {
                golden_memory(b, *cfg);
            }
            experiments::ser_sweep_on(Runner::new(1), *cfg, &[Benchmark::Gzip]);
        }
    }
    inputs
}

/// Wall and CPU time plus metric deltas over one measured call.
pub struct Measured {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub delta: Snapshot,
}

fn measure<T>(f: impl FnOnce() -> T) -> (T, Measured) {
    let snap = Snapshot::take();
    let cpu = cpu_seconds();
    let started = Instant::now();
    let out = f();
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu;
    let delta = Snapshot::take().since(&snap);
    (
        out,
        Measured {
            wall_s,
            cpu_s,
            delta,
        },
    )
}

/// One measured pass: its cost, the jobs it completed, and its output.
pub struct Pass {
    pub cost: Measured,
    pub jobs: u64,
    pub lines: Vec<String>,
}

pub fn run_pass(inputs: &Inputs, workers: usize, dir: &Path) -> Result<Pass, String> {
    match inputs {
        Inputs::Campaign(grid) => {
            let path = dir.join(format!("{}.jsonl", grid.name));
            let _ = std::fs::remove_file(&path);
            let (report, cost) =
                measure(|| CampaignEngine::new(workers).run_streaming(grid, &path));
            report?;
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            let jobs = cost.delta.counter("campaign.jobs_completed");
            Ok(Pass {
                cost,
                jobs,
                lines: normalized_lines(&text),
            })
        }
        Inputs::Manycore(traces) => {
            let (results, cost) = measure(|| manycore_run(traces));
            Ok(Pass {
                cost,
                jobs: results.len() as u64,
                lines: lane_records(&results),
            })
        }
        Inputs::Paper(cfg, faults) => {
            let runner = Runner::new(workers);
            let (lines, cost) = measure(|| {
                PAPER
                    .iter()
                    .flat_map(|(_, exp)| exp(runner, *cfg, *faults))
                    .map(|row| row.render())
                    .collect::<Vec<_>>()
            });
            let jobs = cost.delta.counter("runner.jobs_completed");
            Ok(Pass { cost, jobs, lines })
        }
    }
}

/// One UnSync pair per trace over one shared, contended L2.
pub fn manycore_run(traces: &[TraceProgram]) -> Vec<RunResult> {
    let driver = RedundantDriver::new(CoreConfig::table1())
        .with_l2_contention(L2ContentionConfig::many_core());
    let mut policies: Vec<UnsyncPolicy> = (0..traces.len())
        .map(|p| {
            UnsyncPolicy::new(
                "manycore",
                UnsyncConfig::paper_baseline(),
                WritePolicy::WriteThrough,
                2 * p,
            )
        })
        .collect();
    driver.run_system(&mut policies, traces).0
}

/// One record per lane: its outcome counters and a digest of its
/// committed memory image.
pub fn lane_records(results: &[RunResult]) -> Vec<String> {
    results
        .iter()
        .enumerate()
        .map(|(p, r)| {
            let mut memory = Fnv64::new();
            for (addr, value) in r.memory.iter() {
                memory.update(&addr.to_le_bytes());
                memory.update(&value.to_le_bytes());
            }
            let o = &r.out;
            Json::obj()
                .field("lane", p)
                .field("committed", o.committed)
                .field("cycles", o.cycles)
                .field("detections", o.detections)
                .field("recoveries", o.recoveries)
                .field("recovery_stall_cycles", o.recovery_stall_cycles)
                .field("unrecoverable", o.unrecoverable)
                .field("silent_faults", o.silent_faults)
                .field("memory_matches_golden", o.memory_matches_golden)
                .field("memory_fnv64", memory.hex())
                .render()
        })
        .collect()
}

const FIG5_BENCHES: [Benchmark; 5] = [
    Benchmark::Ammp,
    Benchmark::Galgel,
    Benchmark::Sha,
    Benchmark::Bzip2,
    Benchmark::Mcf,
];
const FIG6_BENCHES: [Benchmark; 5] = [
    Benchmark::Qsort,
    Benchmark::Rijndael,
    Benchmark::Bzip2,
    Benchmark::Gzip,
    Benchmark::Stringsearch,
];
const SER_BENCHES: [Benchmark; 8] = [
    Benchmark::Bzip2,
    Benchmark::Gzip,
    Benchmark::Ammp,
    Benchmark::Galgel,
    Benchmark::Qsort,
    Benchmark::Sha,
    Benchmark::Dijkstra,
    Benchmark::Fft,
];

type Experiment = fn(Runner, ExperimentConfig, u64) -> Vec<Json>;

/// The paper's evaluation as its binaries run it (same benchmark lists),
/// each experiment's rows turned into their run-log records.
pub const PAPER: [(&str, Experiment); 5] = [
    ("exp.fig4", |r, cfg, _| {
        experiments::fig4_on(r, cfg)
            .iter()
            .map(jsonl::fig4)
            .collect()
    }),
    ("exp.fig5", |r, cfg, _| {
        experiments::fig5_on(r, cfg, &FIG5_BENCHES)
            .iter()
            .map(jsonl::fig5)
            .collect()
    }),
    ("exp.fig6", |r, cfg, _| {
        experiments::fig6_on(r, cfg, &FIG6_BENCHES)
            .iter()
            .map(jsonl::fig6)
            .collect()
    }),
    ("exp.ser_sweep", |r, cfg, _| {
        jsonl::ser(&experiments::ser_sweep_on(r, cfg, &SER_BENCHES))
    }),
    ("exp.roec", |r, cfg, faults| {
        jsonl::roec(&experiments::roec_on(r, cfg, faults))
    }),
];

/// Compares every 64th campaign record against a fresh
/// `run_job(grid, job, false)` (trace regenerated, golden re-executed).
/// Returns the number of mismatching records; a wrong line count or
/// header fails every job.
pub fn spot_check(grid: &CampaignGrid, lines: &[String]) -> u64 {
    let jobs = grid.expand();
    if lines.len() != jobs.len() + 1 || lines[0] != grid.header_line() {
        return jobs.len() as u64;
    }
    jobs.iter()
        .step_by(64)
        .filter(|job| lines[1 + job.id as usize] != run_job(grid, **job, false))
        .count() as u64
}

/// Strike outcome tallies of a campaign's records, in label order.
pub const OUTCOMES: [&str; 4] = [
    "masked",
    "detected_recovered",
    "detected_unrecoverable",
    "sdc",
];

pub fn outcome_counts(lines: &[String]) -> [u64; 4] {
    OUTCOMES.map(|label| {
        let needle = format!("\"outcome\":\"{label}\"");
        lines.iter().filter(|l| l.contains(&needle)).count() as u64
    })
}
