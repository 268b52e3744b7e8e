//! The batched campaign engine (ROADMAP: "fault campaigns as a
//! service").
//!
//! ROEC-style vulnerability numbers only become statistically
//! meaningful at thousands of strikes per structure, and replay-style
//! detection studies run the same workload grid hundreds of times
//! over — so the grid loop, not the simulator, is what has to scale.
//! The engine runs on the same [`Runner`] pool as every other
//! experiment and adds only what a long grid needs on top of it:
//!
//! * A [`CampaignGrid`] names a full experiment request — scheme ×
//!   workload source × seed × optional [`StrikePlan`] — and
//!   [`CampaignGrid::expand`] flattens it into [`CampaignJob`]s in a
//!   fixed grid order. Each job derives its private SplitMix64 stream
//!   from `job_seed_named`, so results are a pure function of the
//!   job alone: bit-identical across worker counts, reruns, and
//!   resumes.
//! * [`CampaignEngine::run_streaming`] runs the pending jobs on one
//!   worker pool through `Runner::map_chunks` and appends each
//!   fixed-size chunk's records to the JSONL log in row order before
//!   the workers start the next. Memory stays bounded by one chunk no
//!   matter how large the grid.
//! * Because every finished chunk is on disk, a killed run leaves a
//!   valid prefix and loses at most one chunk of work. On restart the
//!   engine replays the partial log, validates the header against the
//!   grid, drops torn or meta lines, and skips completed job ids — a
//!   resumed run's normalized output is byte-identical to an
//!   uninterrupted one.
//!
//! * A grid naming a scheme outside the one scheme table
//!   ([`crate::scheme::TABLE`], shared by compare and strike grids) is
//!   refused with an error before the log is touched, never by a panic
//!   mid-campaign.
//!
//! Strike jobs reuse the memoized golden image
//! ([`golden_memory_source`]) both for SDC classification *and* —
//! unlike the sequential reference path — inside the driver (the run's
//! [`unsync_exec::Lane::golden`]), eliminating the per-job golden
//! re-execution. Records are unaffected: a trace's golden image is
//! unique.
//!
//! This is the only code that runs a strike job: the `roec_uncore`
//! row takes its records from [`run_records`], the engine's job path
//! without the log.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use unsync_exec::{Lane, RedundantDriver};
use unsync_fault::uncore::{StrikePlan, UncoreTarget};
use unsync_isa::exec::splitmix64;
use unsync_isa::TraceProgram;
use unsync_mem::L2ContentionConfig;
use unsync_obs::prof;
use unsync_sim::{metrics, CoreConfig};
use unsync_workloads::{WorkloadSource, WorkloadSpec};

use crate::experiments::ExperimentConfig;
use crate::roec_uncore::{classify_strike_result, run_scheme_with_strikes};
use crate::runlog::{metrics_snapshot_json, prof_block_json, Json};
use crate::runner::{baseline_cycles_source, golden_memory_source, job_seed_named, Runner};
use crate::scheme;

/// A grid of experiment requests: the cartesian product of workloads ×
/// seeds × schemes, each cell either one comparator run (`strikes:
/// None`) or one run per strike-plan cell (`strikes: Some`).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignGrid {
    /// Experiment name: the JSONL log is `<name>.jsonl`.
    pub name: String,
    /// Instructions per trace.
    pub inst_count: u64,
    /// Trace seeds swept.
    pub seeds: Vec<u64>,
    /// Workload sources swept (synthetic or `kernel:` backends).
    pub workloads: Vec<WorkloadSpec>,
    /// Scheme names swept, each a row of [`crate::scheme::TABLE`].
    pub schemes: Vec<&'static str>,
    /// When set, every (workload, seed, scheme) cell expands into one
    /// job per strike of the plan instead of one comparator job.
    pub strikes: Option<StrikePlan>,
    /// Shared-L2 contention model for strike runs (bank arbiters only
    /// exist — and can only be struck live — when this is on).
    pub contention: Option<L2ContentionConfig>,
}

impl CampaignGrid {
    /// Total number of jobs the grid expands into.
    pub fn len(&self) -> usize {
        let per_cell = self.strikes.as_ref().map_or(1, StrikePlan::len);
        self.workloads.len() * self.seeds.len() * self.schemes.len() * per_cell
    }

    /// Whether the grid expands into no jobs at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flattens the grid into jobs in fixed grid order —
    /// workload-major, then seed, then scheme, then strike cell — with
    /// ids numbering that order. Job ids are the `row` keys of the
    /// JSONL log, so the order is part of the on-disk contract.
    pub fn expand(&self) -> Vec<CampaignJob> {
        let _t = prof::scope("campaign.expand");
        let mut jobs = Vec::with_capacity(self.len());
        for &workload in &self.workloads {
            for &seed in &self.seeds {
                for &scheme in &self.schemes {
                    match &self.strikes {
                        None => jobs.push(CampaignJob {
                            id: jobs.len() as u64,
                            workload,
                            inst_count: self.inst_count,
                            seed,
                            scheme,
                            kind: JobKind::Compare,
                        }),
                        Some(plan) => {
                            for (target, index) in plan.cells() {
                                jobs.push(CampaignJob {
                                    id: jobs.len() as u64,
                                    workload,
                                    inst_count: self.inst_count,
                                    seed,
                                    scheme,
                                    kind: JobKind::Strike { target, index },
                                });
                            }
                        }
                    }
                }
            }
        }
        jobs
    }

    /// The log's header line: the grid spec a partial log is validated
    /// against on resume. A pure function of the grid, so two runs of
    /// the same grid — interrupted or not — agree byte-for-byte.
    pub fn header_line(&self) -> String {
        let strikes = match &self.strikes {
            None => Json::Null,
            Some(plan) => Json::obj()
                .field(
                    "targets",
                    Json::Arr(
                        plan.targets
                            .iter()
                            .map(|t| Json::Str(t.label().to_string()))
                            .collect(),
                    ),
                )
                .field("strikes_per_cell", plan.strikes_per_cell)
                .field("horizon", plan.horizon)
                .field("alternate_directed", u64::from(plan.alternate_directed)),
        };
        let config = Json::obj()
            .field("inst_count", self.inst_count)
            .field(
                "seeds",
                Json::Arr(self.seeds.iter().map(|&s| Json::U64(s)).collect()),
            )
            .field(
                "workloads",
                Json::Arr(
                    self.workloads
                        .iter()
                        .map(|w| Json::Str(w.name().to_string()))
                        .collect(),
                ),
            )
            .field(
                "schemes",
                Json::Arr(
                    self.schemes
                        .iter()
                        .map(|s| Json::Str((*s).to_string()))
                        .collect(),
                ),
            )
            .field("strikes", strikes)
            .field("contention", u64::from(self.contention.is_some()));
        Json::obj()
            .field("kind", "header")
            .field("experiment", self.name.as_str())
            .field("schema", 1u64)
            .field("config", config)
            .render()
    }
}

/// What one job runs on top of its workload trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// One fault-free comparator run: cycles vs. the memoized baseline.
    Compare,
    /// One strike of the grid's [`StrikePlan`]: inject, classify.
    Strike {
        /// The struck uncore structure.
        target: UncoreTarget,
        /// Strike index within the (structure, scheme) cell.
        index: u64,
    },
}

/// One expanded unit of campaign work — a pure function of its fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignJob {
    /// Grid-order index; doubles as the record's `row` key.
    pub id: u64,
    /// The workload backend.
    pub workload: WorkloadSpec,
    /// Instructions in the trace.
    pub inst_count: u64,
    /// Trace seed.
    pub seed: u64,
    /// Scheme name.
    pub scheme: &'static str,
    /// Compare or strike.
    pub kind: JobKind,
}

impl CampaignJob {
    fn experiment(&self) -> ExperimentConfig {
        ExperimentConfig {
            inst_count: self.inst_count,
            seed: self.seed,
        }
    }

    /// The job's salt into [`job_seed_named`]: a SplitMix64 chain over
    /// the struck structure's label, the scheme name and the strike
    /// index for strike jobs; compare jobs hash the scheme under a
    /// distinct prefix so the two kinds can never collide.
    pub(crate) fn salt(&self) -> u64 {
        match self.kind {
            JobKind::Strike { target, index } => strike_salt(target, self.scheme, index),
            JobKind::Compare => {
                let mut h = 0xc0f_f33_u64;
                for b in self.scheme.bytes() {
                    h = splitmix64(h ^ u64::from(b));
                }
                splitmix64(h)
            }
        }
    }

    /// The job's private deterministic stream seed.
    pub fn stream_seed(&self) -> u64 {
        job_seed_named(self.experiment(), self.workload.name(), self.salt())
    }
}

/// The salt of one strike cell: a SplitMix64 chain over the structure
/// label, the scheme name, and the strike index.
fn strike_salt(target: UncoreTarget, scheme: &str, strike: u64) -> u64 {
    let mut h = 0x5ca1_ab1e_u64;
    for b in target.label().bytes().chain(scheme.bytes()) {
        h = splitmix64(h ^ u64::from(b));
    }
    splitmix64(h ^ strike)
}

/// A per-run memo of generated traces, keyed by `(workload name,
/// seed)` — every job of a campaign cell shares one trace, and
/// generating it is a measurable fraction of a short job, so the
/// engine builds the memo up front and workers borrow from it. The
/// sequential reference ([`run_collected`]) passes `None` and
/// regenerates per job.
type TraceMemo = HashMap<(&'static str, u64), TraceProgram>;

fn trace_memo(grid: &CampaignGrid, jobs: &[CampaignJob]) -> TraceMemo {
    let mut memo = TraceMemo::new();
    for job in jobs {
        memo.entry((job.workload.name(), job.seed))
            .or_insert_with(|| job.workload.source(grid.inst_count, job.seed).trace());
    }
    memo
}

/// Runs one job and renders its JSONL record line (framed with `row` =
/// job id, so normalized logs diff independently of completion order).
///
/// `reuse_cached_golden` feeds the memoized golden image into the
/// driver so strike jobs skip the per-job golden re-execution; `false`
/// preserves the sequential reference cost model
/// ([`run_collected`]). Records are byte-identical either way.
pub fn run_job(grid: &CampaignGrid, job: CampaignJob, reuse_cached_golden: bool) -> String {
    run_job_inner(grid, job, reuse_cached_golden, None)
}

fn run_job_inner(
    grid: &CampaignGrid,
    job: CampaignJob,
    reuse_cached_golden: bool,
    memo: Option<&TraceMemo>,
) -> String {
    let mut framed = Json::obj().field("kind", "record").field("row", job.id);
    if let (Json::Obj(dst), Json::Obj(pairs)) = (
        &mut framed,
        job_record(grid, job, reuse_cached_golden, memo),
    ) {
        dst.extend(pairs);
    }
    framed.render()
}

/// Runs every job of `grid` on `runner` through the engine's job path —
/// the trace memo built up front, the cached golden fed to the driver —
/// and returns each job's record fields in grid order, unframed. A
/// record's `kind`/`row` framing with `row` = its index reproduces the
/// engine's log line byte for byte.
pub fn run_records(grid: &CampaignGrid, runner: &Runner) -> Vec<Json> {
    let jobs = grid.expand();
    let memo = trace_memo(grid, &jobs);
    runner.map(&jobs, |job| job_record(grid, *job, true, Some(&memo)))
}

/// Runs one job: its record's fields, before `kind`/`row` framing.
fn job_record(
    grid: &CampaignGrid,
    job: CampaignJob,
    reuse_cached_golden: bool,
    memo: Option<&TraceMemo>,
) -> Json {
    let memoized = memo.and_then(|m| m.get(&(job.workload.name(), job.seed)));
    let generated;
    let trace = match memoized {
        Some(t) => t,
        None => {
            generated = job.workload.source(job.inst_count, job.seed).trace();
            &generated
        }
    };
    let fields = match job.kind {
        JobKind::Compare => {
            let _t = prof::scope("campaign.dispatch.compare");
            run_compare_job(job, trace)
        }
        JobKind::Strike { target, index } => {
            let _t = prof::scope("campaign.dispatch.strike");
            run_strike_job(grid, job, trace, target, index, reuse_cached_golden)
        }
    };
    metrics::global().counter("campaign.jobs_completed").inc();
    fields
}

/// One fault-free comparator run: `scheme` cycles against the memoized
/// unprotected baseline.
fn run_compare_job(job: CampaignJob, t: &TraceProgram) -> Json {
    let source = job.workload.source(job.inst_count, job.seed);
    let base = baseline_cycles_source(&source);
    let scheme = scheme::find(job.scheme)
        .unwrap_or_else(|| panic!("unknown comparator scheme {}", job.scheme));
    let driver = RedundantDriver::new(CoreConfig::table1());
    let cycles = (scheme.run)(&driver, Lane::new(t), true).cycles;
    Json::obj()
        .field("workload", job.workload.name())
        .field("inst_count", job.inst_count)
        .field("seed", job.seed)
        .field("scheme", job.scheme)
        .field("job", "compare")
        .field("cycles", cycles)
        .field("baseline_cycles", base)
        .field("overhead", cycles as f64 / base as f64 - 1.0)
}

/// One strike of the grid's plan: inject, classify, and record the
/// grid axes, the planned strike and its outcome.
fn run_strike_job(
    grid: &CampaignGrid,
    job: CampaignJob,
    trace: &TraceProgram,
    target: UncoreTarget,
    index: u64,
    reuse_cached_golden: bool,
) -> Json {
    let plan = grid
        .strikes
        .as_ref()
        .expect("strike job implies a strike plan");
    let strike = plan.strike(target, index, job.stream_seed(), 0);
    let source = job.workload.source(job.inst_count, job.seed);
    let golden = golden_memory_source(&source);
    let contention = grid
        .contention
        .unwrap_or_else(L2ContentionConfig::many_core);
    let driver = RedundantDriver::new(CoreConfig::table1()).with_l2_contention(contention);
    let supplied = reuse_cached_golden.then_some(&*golden);
    let result = run_scheme_with_strikes(&driver, job.scheme, trace, vec![strike], supplied);
    let (outcome, memory_matches) = classify_strike_result(&result, &golden);
    Json::obj()
        .field("workload", job.workload.name())
        .field("inst_count", job.inst_count)
        .field("seed", job.seed)
        .field("scheme", job.scheme)
        .field("job", "strike")
        .field("structure", target.label())
        .field("strike", index)
        .field("cycle", strike.cycle)
        .field("bit_offset", strike.site.bit_offset)
        .field(
            "fault_kind",
            match strike.kind {
                unsync_fault::FaultKind::Single => "single",
                unsync_fault::FaultKind::AdjacentDouble => "double",
            },
        )
        .field("directed", u64::from(strike.directed))
        .field("outcome", outcome.label())
        .field("detections", result.out.detections)
        .field("recoveries", result.out.recoveries)
        .field("memory_matches", u64::from(memory_matches))
}

/// Jobs per log append. The pool starts no job of the next chunk
/// before a chunk's records reach the log, so a killed run loses at
/// most one chunk of work; larger chunks only amortize the append and
/// the wait for each chunk's slowest job.
const CHUNK: usize = 256;

/// What one [`CampaignEngine::run_streaming`] call did.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// The JSONL log path.
    pub(crate) path: PathBuf,
    /// Worker threads used.
    pub(crate) workers: usize,
    /// Jobs in the full grid.
    pub jobs_total: usize,
    /// Jobs executed this call.
    pub jobs_run: usize,
    /// Jobs skipped because a resumed log already held their records.
    pub jobs_skipped: usize,
    /// Wall-clock milliseconds of the streaming run (expansion through
    /// the last chunk's append, excluding the meta stamp).
    pub wall_ms: u64,
}

impl CampaignReport {
    /// Jobs per wall-clock second for the jobs actually executed.
    pub fn jobs_per_sec(&self) -> f64 {
        if self.wall_ms == 0 {
            return self.jobs_run as f64 * 1000.0;
        }
        self.jobs_run as f64 * 1000.0 / self.wall_ms as f64
    }
}

/// The streaming campaign engine: a worker count for the [`Runner`]
/// pool it runs the grid on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignEngine {
    /// Worker threads executing jobs.
    pub(crate) workers: usize,
}

impl CampaignEngine {
    /// An engine with `workers` threads.
    pub fn new(workers: usize) -> CampaignEngine {
        CampaignEngine {
            workers: workers.max(1),
        }
    }

    /// Runs `grid`, streaming records to `path` as JSONL, resuming
    /// from a partial log at the same path if one exists. Returns the
    /// report; errors are I/O or header-mismatch strings.
    pub fn run_streaming(
        &self,
        grid: &CampaignGrid,
        path: &Path,
    ) -> Result<CampaignReport, String> {
        let started = Instant::now();
        // Refuse schemes outside the table before touching the log.
        if let Some(s) = grid.schemes.iter().find(|s| scheme::find(s).is_none()) {
            return Err(format!("grid {}: unknown scheme {s}", grid.name));
        }
        let jobs = grid.expand();
        let header = grid.header_line();
        let completed = replay_partial_log(path, &header)?;
        let pending: Vec<CampaignJob> = jobs
            .iter()
            .filter(|j| !completed.contains(&j.id))
            .copied()
            .collect();
        let jobs_skipped = jobs.len() - pending.len();
        let memo = trace_memo(grid, &pending);

        let mut file = fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        metrics::global()
            .gauge("campaign.workers")
            .set(self.workers as f64);
        Runner::new(self.workers).map_chunks(
            &pending,
            CHUNK,
            |job| run_job_inner(grid, *job, true, Some(&memo)),
            |lines| {
                let mut text = lines.join("\n");
                text.push('\n');
                let _t = prof::scope("campaign.writer_flush");
                file.write_all(text.as_bytes())
                    .and_then(|()| file.flush())
                    .map_err(|e| format!("append {}: {e}", path.display()))
            },
        )?;

        let wall_ms = started.elapsed().as_millis() as u64;
        let report = CampaignReport {
            path: path.to_path_buf(),
            workers: self.workers,
            jobs_total: jobs.len(),
            jobs_run: pending.len(),
            jobs_skipped,
            wall_ms,
        };
        let meta = Json::obj()
            .field("kind", "meta")
            .field("schema", 2u64)
            .field("experiment", grid.name.as_str())
            .field("workers", self.workers)
            .field("wall_clock_ms", wall_ms)
            .field("jobs", jobs.len() as u64)
            .field("jobs_run", report.jobs_run as u64)
            .field("jobs_skipped", jobs_skipped as u64)
            .field("jobs_per_sec", report.jobs_per_sec())
            .field("prof", prof_block_json())
            .field("metrics", metrics_snapshot_json());
        let mut line = meta.render();
        line.push('\n');
        fs::OpenOptions::new()
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .map_err(|e| format!("append meta {}: {e}", path.display()))?;
        Ok(report)
    }
}

/// Replays a partial run log at `path`: validates the header against
/// the grid's, keeps parseable record lines (dropping the meta line
/// and any torn trailing line), rewrites the file to that valid
/// prefix, and returns the completed job ids. A missing file starts a
/// fresh log containing only the header.
fn replay_partial_log(path: &Path, header: &str) -> Result<HashSet<u64>, String> {
    let mut completed = HashSet::new();
    let mut kept: Vec<&str> = vec![header];
    let existing = match fs::read_to_string(path) {
        Ok(text) => Some(text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    if let Some(text) = &existing {
        let mut lines = text.lines();
        match lines.next() {
            Some(first) if first == header => {}
            Some(_) => {
                return Err(format!(
                    "refusing to resume {}: header does not match this grid \
                     (the grid changed, or the log belongs to another experiment)",
                    path.display()
                ));
            }
            None => {}
        }
        for line in lines {
            let Ok(json) = Json::parse(line) else {
                continue; // torn tail of a killed run
            };
            if json.get("kind").and_then(Json::as_str) != Some("record") {
                continue; // stale meta line from a finished earlier run
            }
            let Some(row) = json.get("row").and_then(Json::as_u64) else {
                continue;
            };
            if completed.insert(row) {
                kept.push(line);
            }
        }
    }
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let mut text = kept.join("\n");
    text.push('\n');
    fs::write(path, text).map_err(|e| format!("rewrite {}: {e}", path.display()))?;
    Ok(completed)
}

/// The sequential reference path: runs the whole grid in grid order on
/// the caller's thread — no pool, no log file, no trace memo, and no
/// cached-golden reuse inside the driver (each strike job re-executes
/// the golden run) — and returns the header plus the rendered record
/// lines. Every engine run must reproduce these lines exactly.
pub fn run_collected(grid: &CampaignGrid) -> Vec<String> {
    let mut lines = vec![grid.header_line()];
    for job in grid.expand() {
        lines.push(run_job(grid, job, false));
    }
    lines
}

/// Normalizes JSONL text for byte comparison: the header line followed
/// by record lines sorted by `row`, with meta and unparseable lines
/// dropped. A resumed run appends the missing rows after whatever the
/// partial log kept, so its records need not be in row order;
/// normalized, it must equal the sequential reference exactly.
pub fn normalized_lines(text: &str) -> Vec<String> {
    let mut header = None;
    let mut records: Vec<(u64, &str)> = Vec::new();
    for line in text.lines() {
        let Ok(json) = Json::parse(line) else {
            continue;
        };
        match json.get("kind").and_then(Json::as_str) {
            Some("header") if header.is_none() => header = Some(line),
            Some("record") => {
                if let Some(row) = json.get("row").and_then(Json::as_u64) {
                    records.push((row, line));
                }
            }
            _ => {}
        }
    }
    records.sort_by_key(|&(row, _)| row);
    header
        .into_iter()
        .chain(records.into_iter().map(|(_, line)| line))
        .map(str::to_string)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsync_workloads::Benchmark;

    fn compare_grid() -> CampaignGrid {
        CampaignGrid {
            name: "campaign_test_compare".into(),
            inst_count: 120,
            seeds: vec![7, 8],
            workloads: vec![
                WorkloadSpec::Synthetic(Benchmark::Gzip),
                WorkloadSpec::Synthetic(Benchmark::Mcf),
            ],
            schemes: vec!["lockstep", "unsync_pair"],
            strikes: None,
            contention: None,
        }
    }

    fn strike_grid() -> CampaignGrid {
        CampaignGrid {
            name: "campaign_test_strike".into(),
            inst_count: 120,
            seeds: vec![17],
            workloads: vec![WorkloadSpec::Synthetic(Benchmark::Gzip)],
            schemes: vec!["unsync_pair", "secded_only"],
            strikes: Some(StrikePlan::all_uncore(1, 240)),
            contention: Some(L2ContentionConfig::many_core()),
        }
    }

    #[test]
    fn expand_orders_ids_and_counts_jobs() {
        let grid = compare_grid();
        let jobs = grid.expand();
        assert_eq!(jobs.len(), grid.len());
        assert_eq!(jobs.len(), 2 * 2 * 2);
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(job.id, i as u64);
        }
        assert_eq!(jobs[0].workload.name(), "gzip");
        assert_eq!(jobs[0].seed, 7);
        assert_eq!(jobs[0].scheme, "lockstep");
        assert_eq!(jobs[1].scheme, "unsync_pair");
        assert_eq!(jobs[2].seed, 8);
        assert_eq!(jobs[4].workload.name(), "mcf");
    }

    #[test]
    fn stream_seeds_are_distinct_across_the_grid() {
        let mut grid = strike_grid();
        grid.seeds = vec![17, 18];
        let mut seen = std::collections::HashSet::new();
        for job in grid.expand() {
            assert!(
                seen.insert(job.stream_seed()),
                "duplicate stream seed for {job:?}"
            );
        }
    }

    #[test]
    fn streaming_matches_sequential_reference() {
        let grid = compare_grid();
        let dir = std::env::temp_dir().join("unsync_campaign_mod_test");
        let path = dir.join("compare.jsonl.partial");
        fs::create_dir_all(&dir).unwrap();
        let _ = fs::remove_file(&path);
        let report = CampaignEngine::new(2).run_streaming(&grid, &path).unwrap();
        assert_eq!(report.jobs_run, grid.len());
        assert_eq!(report.jobs_skipped, 0);
        let streamed = normalized_lines(&fs::read_to_string(&path).unwrap());
        assert_eq!(streamed, run_collected(&grid));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn unknown_schemes_are_refused_before_the_log_is_touched() {
        let dir = std::env::temp_dir().join("unsync_campaign_mod_test");
        let path = dir.join("unknown.jsonl.partial");
        fs::create_dir_all(&dir).unwrap();
        let _ = fs::remove_file(&path);
        let (mut strike, mut compare) = (strike_grid(), compare_grid());
        strike.schemes.push("nonesuch");
        compare.schemes.push("no_such_scheme");
        for (grid, bad) in [(strike, "nonesuch"), (compare, "no_such_scheme")] {
            let err = CampaignEngine::new(2).run_streaming(&grid, &path);
            assert!(err.unwrap_err().contains(bad));
            assert!(!path.exists(), "the log must stay untouched");
        }
    }

    #[test]
    fn resume_skips_completed_jobs_and_stays_byte_identical() {
        let grid = strike_grid();
        let dir = std::env::temp_dir().join("unsync_campaign_mod_test");
        let path = dir.join("strike.jsonl.partial");
        fs::create_dir_all(&dir).unwrap();
        let _ = fs::remove_file(&path);
        let full = CampaignEngine::new(1).run_streaming(&grid, &path).unwrap();
        assert_eq!(full.jobs_run, grid.len());
        let complete = fs::read_to_string(&path).unwrap();

        // Kill mid-run: keep the header, the first 3 records, and a
        // torn half-line; the meta line from the finished run stays to
        // prove it gets dropped.
        let keep: Vec<&str> = complete.lines().take(4).collect();
        let truncated = format!("{}\n{{\"kind\":\"rec", keep.join("\n"));
        fs::write(&path, truncated).unwrap();

        let resumed = CampaignEngine::new(2).run_streaming(&grid, &path).unwrap();
        assert_eq!(resumed.jobs_skipped, 3);
        assert_eq!(resumed.jobs_run, grid.len() - 3);
        assert_eq!(
            normalized_lines(&fs::read_to_string(&path).unwrap()),
            normalized_lines(&complete),
            "resumed run must be byte-identical to the uninterrupted one"
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn resume_refuses_a_changed_grid() {
        let grid = compare_grid();
        let dir = std::env::temp_dir().join("unsync_campaign_mod_test");
        let path = dir.join("mismatch.jsonl.partial");
        fs::create_dir_all(&dir).unwrap();
        let _ = fs::remove_file(&path);
        CampaignEngine::new(1).run_streaming(&grid, &path).unwrap();
        let mut changed = grid.clone();
        changed.inst_count += 1;
        let err = CampaignEngine::new(1)
            .run_streaming(&changed, &path)
            .unwrap_err();
        assert!(err.contains("header does not match"), "{err}");
        let _ = fs::remove_file(&path);
    }
}
