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
//! [`grid`] is the campaign's one description — the `roec_uncore`
//! row, the `campaign` bin and the tests all take it from there — and
//! its strike jobs run through the campaign engine's job path
//! ([`crate::campaign::run_records`]). Every job is a pure function of
//! its grid cell — strike placement comes from the job's private
//! SplitMix64 stream — so records are bit-identical across worker
//! counts and reruns (`tests/uncore_faults.rs` pins the smoke grid at
//! 1, 2 and 8 workers).

use unsync_exec::{Lane, RedundantDriver, RunResult, TraceEventKind};
use unsync_fault::roec::{
    classify, RoecEvent, RoecEventKind, StrikeOutcome, VulnerabilityRow, VulnerabilityTable,
};
use unsync_fault::uncore::{StrikePlan, UncoreStrike};
use unsync_isa::{ArchMemory, TraceProgram};
use unsync_mem::L2ContentionConfig;
use unsync_workloads::{Benchmark, WorkloadSpec};

use crate::campaign::CampaignGrid;
use crate::runlog::Json;
use crate::runner::reference_run;
use crate::scheme;

/// The schemes the campaign compares, in table order (a subset of
/// [`crate::scheme::TABLE`]).
pub const SCHEMES: [&str; 3] = ["unsync_pair", "tmr_vote", "secded_only"];

/// The campaign's base seed: the `roec_uncore` row and the `campaign`
/// bin both run [`grid`] at it.
pub const SEED: u64 = 11;

/// The campaign grid at base seed `seed`: gzip, every uncore structure
/// × [`SCHEMES`] × 8 strikes at 400 instructions, shared-L2 contention
/// on (bank arbiters only exist — and can only be struck live — when
/// it is). `smoke` selects the smoke grid: 2 strikes per cell at 150
/// instructions.
pub fn grid(seed: u64, smoke: bool) -> CampaignGrid {
    let (inst_count, strikes_per_cell) = if smoke { (150, 2) } else { (400, 8) };
    CampaignGrid {
        name: "roec_uncore".into(),
        inst_count,
        seeds: vec![seed],
        workloads: vec![WorkloadSpec::Synthetic(Benchmark::Gzip)],
        schemes: SCHEMES.to_vec(),
        // The planner draws from the middle half of `[0, horizon)`, and
        // the horizon is 2 cycles per instruction: [200, 600) at 400
        // instructions. A fault-free gzip run of 400 instructions takes
        // 14,501 cycles (tmr_vote 14,517), so strikes land in its first
        // 1–5 %, not mid-run.
        strikes: Some(StrikePlan::all_uncore(strikes_per_cell, inst_count * 2)),
        contention: Some(L2ContentionConfig::many_core()),
    }
}

/// Runs `trace` under the [`crate::scheme::TABLE`] row named `scheme`
/// with `strikes` injected. `golden` optionally supplies the memoized
/// fault-free memory image so the driver skips its per-run golden
/// re-execution. Supplying it also opts into the strike-free reference
/// memo (`crate::runner::reference_run`): a run whose strikes all
/// leave state untouched ends at its last strike and takes the rest of
/// its result from the memoized strike-free run. Results are
/// bit-identical either way (a trace's golden is unique, and an early
/// exit reproduces the full run's [`RunResult`]); with `None` every
/// run is simulated in full, the independent oracle.
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
    let stored = golden
        .filter(|_| !strikes.is_empty())
        .and_then(|g| Some((reference_run(driver, row, trace, g)?, g)));
    let lane = Lane {
        uncore: strikes,
        golden,
        reference: stored.as_ref().map(|(run, g)| run.view(g)),
        ..Lane::new(trace)
    };
    (row.run)(driver, lane, true)
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

/// Aggregates campaign strike records — their `structure`, `scheme`
/// and `outcome` fields — into the per-structure table. Records
/// missing a field, or whose outcome label does not parse, are skipped.
pub(crate) fn vulnerability_table<'a>(
    records: impl IntoIterator<Item = &'a Json>,
) -> VulnerabilityTable {
    let mut table = VulnerabilityTable::new();
    for r in records {
        let field = |k: &str| r.get(k).and_then(Json::as_str);
        let outcome = field("outcome").and_then(StrikeOutcome::from_label);
        if let (Some(structure), Some(scheme), Some(outcome)) =
            (field("structure"), field("scheme"), outcome)
        {
            table.record(structure, scheme, outcome);
        }
    }
    table
}

/// The `BENCH_roec.json` document: an echo of `grid` (a [`grid`]: one
/// workload, one seed, a strike plan) plus one row per (structure,
/// scheme) cell of `records` with counts and derived rates.
///
/// # Panics
///
/// If `grid` has no strike plan, workload or seed.
pub fn summary_json(grid: &CampaignGrid, records: &[Json]) -> Json {
    let plan = grid.strikes.as_ref().expect("the uncore grid strikes");
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
        .field("inst_count", grid.inst_count)
        .field("seed", grid.seeds[0])
        .field("strikes_per_cell", plan.strikes_per_cell)
        .field("benchmark", grid.workloads[0].name())
        .field("horizon", plan.horizon)
        .field("table", Json::Arr(rows))
}

/// Renders a [`VulnerabilityTable`] as aligned text (the `roec_uncore`
/// experiment and the dashboard's ROEC section share it).
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

/// The §III-B1 claim lines under the `roec_uncore` table, computed from
/// `table`: the `unsync_pair` SDC count over its strikes, naming each
/// cell with an SDC, then the paper's claim only when that count is 0;
/// otherwise the claim is "not shown at this grid".
pub(crate) fn claim(table: &VulnerabilityTable) -> String {
    let rows: Vec<VulnerabilityRow> = table
        .rows()
        .into_iter()
        .filter(|r| r.scheme == "unsync_pair")
        .collect();
    let strikes: u64 = rows.iter().map(|r| r.counts.total()).sum();
    let sdc: u64 = rows.iter().map(|r| r.counts.sdc).sum();
    let cells: Vec<String> = rows
        .iter()
        .filter(|r| r.counts.sdc > 0)
        .map(|r| format!("{}: {} of {}", r.structure, r.counts.sdc, r.counts.total()))
        .collect();
    let mut out = format!("unsync_pair: {sdc} SDC in {strikes} strikes");
    if !cells.is_empty() {
        out.push_str(&format!(" ({})", cells.join(", ")));
    }
    out.push_str(".\n");
    out.push_str(if sdc == 0 {
        "Paper claims (§III-B1): UnSync's uncore placement — SECDED L2, parity MSHRs,\n\
         duplicated arbiters, fingerprinted CB — leaves no live uncore strike silent,\n\
         where TMR's sphere of replication ends at the core boundary (bare uncore).\n"
    } else {
        "Paper claim (§III-B1) not shown at this grid: that UnSync's uncore placement —\n\
         SECDED L2, parity MSHRs, duplicated arbiters, fingerprinted CB — leaves no\n\
         live uncore strike silent.\n"
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_records;
    use crate::runner::Runner;
    use unsync_fault::uncore::ALL_UNCORE_TARGETS;

    #[test]
    fn summary_parses_and_carries_every_cell() {
        let grid = grid(17, true);
        let records = run_records(&grid, &Runner::new(2));
        assert_eq!(records.len(), grid.len());
        let text = summary_json(&grid, &records).render();
        let doc = Json::parse(&text).expect("summary must be valid JSON");
        assert_eq!(doc.get("strikes_per_cell").and_then(Json::as_u64), Some(2));
        let rows = match doc.get("table") {
            Some(Json::Arr(items)) => items,
            other => panic!("expected table array, got {other:?}"),
        };
        assert_eq!(
            rows.len(),
            ALL_UNCORE_TARGETS.len() * SCHEMES.len(),
            "every cell reports even when all-masked"
        );
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
            assert_eq!(outcome_sum, 2);
        }
    }

    #[test]
    fn claim_is_stated_only_when_unsync_pair_has_no_sdc() {
        let mut table = VulnerabilityTable::new();
        table.record("l2_data", "unsync_pair", StrikeOutcome::Masked);
        table.record(
            "mshr_entry",
            "unsync_pair",
            StrikeOutcome::DetectedRecovered,
        );
        table.record("mshr_entry", "tmr_vote", StrikeOutcome::Sdc);
        let clean = claim(&table);
        assert!(
            clean.starts_with("unsync_pair: 0 SDC in 2 strikes.\n"),
            "{clean}"
        );
        assert!(
            clean.contains("leaves no live uncore strike silent,"),
            "{clean}"
        );
        assert!(!clean.contains("not shown"), "{clean}");

        table.record("mshr_entry", "unsync_pair", StrikeOutcome::Sdc);
        let escaped = claim(&table);
        assert!(
            escaped.starts_with("unsync_pair: 1 SDC in 3 strikes (mshr_entry: 1 of 2).\n"),
            "{escaped}"
        );
        assert!(escaped.contains("not shown at this grid"), "{escaped}");
    }
}
