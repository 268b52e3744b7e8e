//! The uncore vulnerability campaign (ROEC 2.0).
//!
//! §VI-D of the paper argues coverage with a static mechanism table;
//! this campaign *measures* it for the shared machinery the paper only
//! sketches. The grid is structure × scheme × strike: every cell runs
//! the same workload once per strike, with exactly **one**
//! deterministic [`UncoreStrike`] injected through
//! [`RedundantDriver::run`], and the final committed memory
//! diffed against the memoized golden image.
//! [`unsync_fault::roec::classify`] labels each run from its event
//! counts and that diff —
//! masked / detected-recovered / detected-unrecoverable / SDC — and the
//! per-cell tallies aggregate into an AVF-style
//! [`VulnerabilityTable`].
//!
//! Strikes alternate uniform / importance-sampled: even strike indices
//! draw the struck entry uniformly over the whole array (measuring the
//! live fraction — the `avf` column is therefore a *sampled* AVF under
//! this 50/50 mix, not the pure architectural AVF), odd indices are
//! [`UncoreStrike::directed`] — conditioned on hitting live state — so
//! the coverage and SDC-rate columns resolve even for structures whose
//! occupancy is a tiny fraction of capacity (a 65 536-line L2 holds a
//! few hundred valid lines at these trace lengths; uniform sampling
//! alone would need thousands of strikes per cell to see one live hit).
//!
//! Every row of [`crate::scheme::TABLE`] runs on a strike grid; the
//! default grid ([`SCHEMES`]) takes the three that bracket the design
//! space:
//! * `unsync_pair` — the paper's architecture: SECDED L2, parity
//!   MSHRs, duplicated arbiters, fingerprinted CB (strikes on the CB
//!   run the real §III-A recovery).
//! * `tmr_vote` — triplicated cores, *bare* uncore: the sphere of
//!   replication ends at the core boundary.
//! * `secded_only` — ECC on the L2 arrays and nothing else.
//!
//! Every job is a pure function of `(config, structure, scheme,
//! strike index)` — strike placement comes from the per-job SplitMix64
//! stream ([`crate::runner::job_seed`]) — so results are bit-identical
//! across worker counts and reruns; the CI smoke reruns the grid and
//! diffs at zero tolerance.

use std::sync::Arc;

use unsync_exec::{Lane, RedundantDriver, RunResult, TraceEventKind};
use unsync_fault::roec::{classify, RoecEvent, RoecEventKind, StrikeOutcome, VulnerabilityTable};
use unsync_fault::uncore::{StrikePlan, UncoreStrike, UncoreTarget};
use unsync_isa::{ArchMemory, TraceProgram};
use unsync_mem::L2ContentionConfig;
use unsync_sim::CoreConfig;
use unsync_workloads::{Benchmark, SyntheticSource, WorkloadSource};

use crate::experiments::ExperimentConfig;
use crate::runlog::{Json, RunLog};
use crate::runner::{golden_memory, job_seed, Runner};
use crate::scheme;

/// The schemes the campaign compares, in table order (a subset of
/// [`crate::scheme::TABLE`]).
pub const SCHEMES: [&str; 3] = ["unsync_pair", "tmr_vote", "secded_only"];

/// Configuration of one uncore campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct RoecUncoreConfig {
    /// Instructions per run.
    pub inst_count: u64,
    /// Base seed: strike placement derives from
    /// `job_seed(cfg, bench, salt(structure, scheme, strike))`.
    pub seed: u64,
    /// Strikes per (structure, scheme) cell.
    pub strikes_per_cell: u64,
    /// The shared-L2 contention model (bank arbiters only exist — and
    /// can only be struck live — when this is on).
    pub contention: L2ContentionConfig,
    /// The workload every run executes.
    pub benchmark: Benchmark,
}

impl RoecUncoreConfig {
    /// The committed-golden campaign: 6 structures × 3 schemes ×
    /// 8 strikes at 400 instructions.
    pub fn full(seed: u64) -> Self {
        RoecUncoreConfig {
            inst_count: 400,
            seed,
            strikes_per_cell: 8,
            contention: L2ContentionConfig::many_core(),
            benchmark: Benchmark::Gzip,
        }
    }

    /// The CI smoke grid: 2 strikes per cell, short traces.
    pub fn smoke(seed: u64) -> Self {
        RoecUncoreConfig {
            inst_count: 150,
            strikes_per_cell: 2,
            ..Self::full(seed)
        }
    }

    fn experiment(&self) -> ExperimentConfig {
        ExperimentConfig {
            inst_count: self.inst_count,
            seed: self.seed,
        }
    }

    /// The strike-placement horizon: a generous cycles-per-instruction
    /// bound so strikes land mid-run (the planner draws from the middle
    /// half of `[0, horizon)`).
    pub fn horizon(&self) -> u64 {
        self.inst_count * 2
    }

    /// The campaign's strike plan: every uncore structure,
    /// `strikes_per_cell` strikes each, alternating uniform / directed
    /// sampling. The campaign grid is this plan × [`SCHEMES`].
    pub fn strike_plan(&self) -> StrikePlan {
        StrikePlan::all_uncore(self.strikes_per_cell, self.horizon())
    }
}

/// One classified strike.
#[derive(Debug, Clone, PartialEq)]
pub struct StrikeRecord {
    /// The struck structure's label.
    pub structure: &'static str,
    /// The scheme metric prefix.
    pub scheme: &'static str,
    /// Strike index within the cell.
    pub strike: u64,
    /// The planned strike (cycle, site, kind).
    pub cycle: u64,
    /// Bit offset within the structure.
    pub bit_offset: u64,
    /// `"single"` or `"double"` upset.
    pub kind: &'static str,
    /// Importance-sampled (liveness-conditioned) strike — see
    /// [`UncoreStrike::directed`].
    pub directed: bool,
    /// The classified outcome.
    pub outcome: StrikeOutcome,
    /// Detections the run emitted.
    pub detections: u64,
    /// Recovery episodes the run completed.
    pub recoveries: u64,
    /// Whether final committed memory matched the golden image.
    pub memory_matches: bool,
}

/// One job of the campaign grid.
#[derive(Debug, Clone, Copy)]
struct Job {
    target: UncoreTarget,
    scheme: &'static str,
    strike: u64,
}

/// The per-job salt of a strike cell: a SplitMix64 chain over the
/// structure label, scheme name, and strike index. Exported so the
/// campaign engine's strike jobs reproduce `roec` grid placements
/// byte-for-byte.
pub fn strike_salt(target: UncoreTarget, scheme: &str, strike: u64) -> u64 {
    let mut h = 0x5ca1_ab1e_u64;
    for b in target.label().bytes().chain(scheme.bytes()) {
        h = unsync_isa::exec::splitmix64(h ^ u64::from(b));
    }
    unsync_isa::exec::splitmix64(h ^ strike)
}

/// Runs `trace` under the [`crate::scheme::TABLE`] row named `scheme`
/// with `strikes` injected. `golden` optionally supplies the memoized
/// fault-free memory image so the driver skips its per-run golden
/// re-execution (results are bit-identical either way — a trace's
/// golden is unique).
///
/// # Panics
///
/// If no table row is named `scheme`.
pub fn run_scheme_with_strikes(
    driver: &RedundantDriver,
    scheme: &str,
    trace: &TraceProgram,
    strikes: Vec<UncoreStrike>,
    golden: Option<&ArchMemory>,
) -> RunResult {
    let row = scheme::find(scheme).unwrap_or_else(|| panic!("unknown scheme {scheme}"));
    let lane = Lane {
        uncore: strikes,
        golden,
        ..Lane::new(trace)
    };
    (row.run)(driver, lane)
}

/// Classifies one finished strike run: diffs committed memory against
/// the golden image (no policy-specific gating — SDC is SDC under
/// every scheme) and labels the run from its event counts. Returns
/// `(outcome, memory_matches)`.
///
/// The counts never truncate, unlike the bounded journal, which can
/// drop a late detection; the classifier reads them as a summary of at
/// most one detection and one unrecoverable event.
pub fn classify_strike_result(result: &RunResult, golden: &ArchMemory) -> (StrikeOutcome, bool) {
    let memory_matches = golden
        .iter()
        .all(|(addr, val)| result.memory.read(addr) == val);
    let fired = |kinds: &[TraceEventKind]| kinds.iter().any(|&k| result.events.count(k) > 0);
    let mut summary = Vec::new();
    if fired(&[
        TraceEventKind::Detection,
        TraceEventKind::CorrectedInPlace,
        TraceEventKind::Corrected,
    ]) {
        summary.push(RoecEvent::at(RoecEventKind::Detection, 0));
    }
    if fired(&[TraceEventKind::Unrecoverable]) {
        summary.push(RoecEvent::at(RoecEventKind::Unrecoverable, 0));
    }
    (classify(&summary, memory_matches), memory_matches)
}

/// Runs one strike job: one simulation, one strike, one label.
fn run_job(cfg: &RoecUncoreConfig, job: Job, golden: &ArchMemory) -> StrikeRecord {
    let seed = job_seed(
        cfg.experiment(),
        cfg.benchmark,
        strike_salt(job.target, job.scheme, job.strike),
    );
    // Odd strike indices run importance-sampled (conditioned on hitting
    // live state) so low-occupancy structures still measure coverage;
    // even indices sample the array uniformly and measure the AVF-style
    // live fraction — [`StrikePlan::strike`] encodes the alternation.
    let strike = cfg.strike_plan().strike(job.target, job.strike, seed, 0);
    let trace = SyntheticSource::new(cfg.benchmark, cfg.inst_count, cfg.seed).trace();
    let driver = RedundantDriver::new(CoreConfig::table1()).with_l2_contention(cfg.contention);
    let result = run_scheme_with_strikes(&driver, job.scheme, &trace, vec![strike], Some(golden));
    let (outcome, memory_matches) = classify_strike_result(&result, golden);
    StrikeRecord {
        structure: job.target.label(),
        scheme: job.scheme,
        strike: job.strike,
        cycle: strike.cycle,
        bit_offset: strike.site.bit_offset,
        kind: match strike.kind {
            unsync_fault::FaultKind::Single => "single",
            unsync_fault::FaultKind::AdjacentDouble => "double",
        },
        directed: strike.directed,
        outcome,
        detections: result.out.detections,
        recoveries: result.out.recoveries,
        memory_matches,
    }
}

/// Runs the full structure × scheme × strike grid on `runner`,
/// returning records in grid order (structure-major, then scheme, then
/// strike index) regardless of worker count.
pub fn run_campaign(cfg: &RoecUncoreConfig, runner: &Runner) -> Vec<StrikeRecord> {
    let golden: Arc<ArchMemory> = golden_memory(cfg.benchmark, cfg.experiment());
    let plan = cfg.strike_plan();
    let strikes_per_cell = plan.strikes_per_cell;
    let jobs: Vec<Job> = plan
        .targets
        .iter()
        .flat_map(|&target| {
            SCHEMES.iter().flat_map(move |&scheme| {
                (0..strikes_per_cell).map(move |strike| Job {
                    target,
                    scheme,
                    strike,
                })
            })
        })
        .collect();
    runner.map(&jobs, |job| run_job(cfg, *job, &golden))
}

/// Aggregates classified strikes into the per-structure table.
pub fn vulnerability_table(records: &[StrikeRecord]) -> VulnerabilityTable {
    let mut table = VulnerabilityTable::new();
    for r in records {
        table.record(r.structure, r.scheme, r.outcome);
    }
    table
}

/// The JSON fields of one strike record (run-log rows; covered by
/// `dashboard --diff` like every other record row).
pub fn record_json(r: &StrikeRecord) -> Json {
    Json::obj()
        .field("structure", r.structure)
        .field("scheme", r.scheme)
        .field("strike", r.strike)
        .field("cycle", r.cycle)
        .field("bit_offset", r.bit_offset)
        .field("fault_kind", r.kind)
        .field("directed", u64::from(r.directed))
        .field("outcome", r.outcome.label())
        .field("detections", r.detections)
        .field("recoveries", r.recoveries)
        .field("memory_matches", u64::from(r.memory_matches))
}

/// Builds the `roec_uncore` JSONL run log for `records`.
pub fn campaign_log(cfg: &RoecUncoreConfig, records: &[StrikeRecord]) -> RunLog {
    let mut log = RunLog::start("roec_uncore", cfg.experiment());
    for r in records {
        log.record(record_json(r));
    }
    log
}

/// The `BENCH_roec.json` document: config echo plus one row per
/// (structure, scheme) cell with counts and derived rates.
pub fn summary_json(cfg: &RoecUncoreConfig, records: &[StrikeRecord]) -> Json {
    let table = vulnerability_table(records);
    let rows: Vec<Json> = table
        .rows()
        .iter()
        .map(|row| {
            let c = row.counts;
            Json::obj()
                .field("structure", row.structure.as_str())
                .field("scheme", row.scheme.as_str())
                .field("strikes", c.total())
                .field("masked", c.masked)
                .field("detected_recovered", c.detected_recovered)
                .field("detected_unrecoverable", c.detected_unrecoverable)
                .field("sdc", c.sdc)
                .field("avf", c.avf())
                .field("coverage", c.coverage())
                .field("sdc_rate", c.sdc_rate())
        })
        .collect();
    Json::obj()
        .field("schema", 1u64)
        .field("inst_count", cfg.inst_count)
        .field("seed", cfg.seed)
        .field("strikes_per_cell", cfg.strikes_per_cell)
        .field("benchmark", cfg.benchmark.name())
        .field("horizon", cfg.horizon())
        .field("table", Json::Arr(rows))
}

/// Renders classified strikes as the aligned per-structure text table.
pub fn render_table(records: &[StrikeRecord]) -> String {
    render_vulnerability_table(&vulnerability_table(records))
}

/// Renders a [`VulnerabilityTable`] as aligned text (the `roec`
/// binary's uncore section and the dashboard's ROEC section share it).
pub fn render_vulnerability_table(table: &VulnerabilityTable) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:<12} {:>7} {:>7} {:>9} {:>7} {:>5} {:>6} {:>9} {:>9}\n",
        "structure",
        "scheme",
        "strikes",
        "masked",
        "recovered",
        "unrec",
        "sdc",
        "avf",
        "coverage",
        "sdc_rate"
    ));
    for row in table.rows() {
        let c = row.counts;
        out.push_str(&format!(
            "{:<14} {:<12} {:>7} {:>7} {:>9} {:>7} {:>5} {:>6.3} {:>9.3} {:>9.3}\n",
            row.structure,
            row.scheme,
            c.total(),
            c.masked,
            c.detected_recovered,
            c.detected_unrecoverable,
            c.sdc,
            c.avf(),
            c.coverage(),
            c.sdc_rate(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsync_fault::uncore::ALL_UNCORE_TARGETS;

    fn tiny() -> RoecUncoreConfig {
        RoecUncoreConfig {
            inst_count: 120,
            seed: 17,
            strikes_per_cell: 1,
            contention: L2ContentionConfig::many_core(),
            benchmark: Benchmark::Gzip,
        }
    }

    #[test]
    fn campaign_covers_the_whole_grid() {
        let cfg = tiny();
        let records = run_campaign(&cfg, &Runner::new(2));
        assert_eq!(
            records.len(),
            ALL_UNCORE_TARGETS.len() * SCHEMES.len() * cfg.strikes_per_cell as usize
        );
        let table = vulnerability_table(&records);
        assert_eq!(table.total(), records.len() as u64);
        assert_eq!(
            table.rows().len(),
            ALL_UNCORE_TARGETS.len() * SCHEMES.len(),
            "every cell reports even when all-masked"
        );
    }

    #[test]
    fn campaign_is_worker_count_independent() {
        let cfg = tiny();
        let a = run_campaign(&cfg, &Runner::new(1));
        let b = run_campaign(&cfg, &Runner::new(4));
        assert_eq!(a, b);
    }

    #[test]
    fn masked_strikes_left_memory_clean() {
        let cfg = RoecUncoreConfig {
            strikes_per_cell: 2,
            ..tiny()
        };
        for r in run_campaign(&cfg, &Runner::new(2)) {
            if r.outcome == StrikeOutcome::Masked {
                assert!(r.memory_matches, "masked ⇒ memory == golden: {r:?}");
            }
            if r.outcome == StrikeOutcome::Sdc {
                assert!(!r.memory_matches, "SDC ⇒ memory diverged: {r:?}");
            }
        }
    }

    #[test]
    fn summary_parses_and_carries_every_cell() {
        let cfg = tiny();
        let records = run_campaign(&cfg, &Runner::new(2));
        let text = summary_json(&cfg, &records).render();
        let doc = Json::parse(&text).expect("summary must be valid JSON");
        let rows = match doc.get("table") {
            Some(Json::Arr(items)) => items,
            other => panic!("expected table array, got {other:?}"),
        };
        assert_eq!(rows.len(), ALL_UNCORE_TARGETS.len() * SCHEMES.len());
        for row in rows {
            let outcome_sum = [
                "masked",
                "detected_recovered",
                "detected_unrecoverable",
                "sdc",
            ]
            .iter()
            .map(|k| row.get(k).and_then(Json::as_u64).expect("count field"))
            .sum::<u64>();
            assert_eq!(Some(outcome_sum), row.get("strikes").and_then(Json::as_u64));
        }
    }
}
