//! The results dashboard: render per-scheme tables from JSONL run logs
//! and diff two results directories.
//!
//! Every bench bin leaves a run log under the results directory (see
//! [`crate::runlog`]); the trailing `meta` line carries the full
//! metrics snapshot, including the per-scheme counters and the
//! MTTR/detection-latency histograms the execution driver publishes.
//! This module reads those logs *back* — with [`crate::Json::parse`],
//! the inverse of the hand-rolled serializer — and answers the two
//! questions the ROADMAP's observability items ask:
//!
//! * **What did the schemes do?** [`scheme_stats`] +
//!   [`render_scheme_table`] aggregate every `<scheme>.*` metric across
//!   the directory into one table row per scheme (detections per
//!   megacycle, recovery-stall fraction, CB occupancy, MTTR
//!   percentiles).
//! * **Did anything change between two runs?** [`diff_dirs`] flattens
//!   the deterministic lines (and, opted in, the meta metrics) of each
//!   log into `path = value` leaves and reports per-leaf deltas beyond
//!   a relative tolerance — `--diff --tolerance 0` of two same-seed
//!   runs must come back clean, which is exactly a CI determinism /
//!   perf-regression gate.
//!
//! Metrics snapshots are cumulative within one process, and several
//! rows may append to one registry lifetime (`paper all`), so a metric
//! observed in multiple files is aggregated by **max** (counters are
//! monotonic; the largest snapshot is the most complete one).
//! Histograms aggregate by largest observation count for the same
//! reason.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use crate::runlog::Json;

/// One parsed run-log file: the file name (no directory) and its
/// parsed lines. Single-document JSON files (e.g. `BENCH_driver.json`)
/// load as one "line".
#[derive(Debug, Clone)]
pub struct LoadedLog {
    /// File name within the results directory.
    pub file: String,
    /// Parsed lines, in file order.
    pub lines: Vec<Json>,
}

impl LoadedLog {
    /// The `metrics` object of the trailing `meta` line, if present.
    pub fn meta_metrics(&self) -> Option<&Json> {
        self.lines
            .iter()
            .rev()
            .find(|l| l.get("kind").and_then(Json::as_str) == Some("meta"))
            .and_then(|l| l.get("metrics"))
    }
}

/// Loads every `.jsonl` / `.json` file under `dir`, sorted by name.
/// Files that parse neither per-line nor as one JSON document are
/// reported in the error.
pub fn load_dir(dir: &Path) -> Result<Vec<LoadedLog>, String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut names: Vec<String> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".jsonl") || name.ends_with(".json") {
            names.push(name);
        }
    }
    names.sort();
    let mut logs = Vec::with_capacity(names.len());
    for name in names {
        let path = dir.join(&name);
        let text = fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        logs.push(LoadedLog {
            lines: parse_log(&text).map_err(|e| format!("{}: {e}", path.display()))?,
            file: name,
        });
    }
    Ok(logs)
}

/// Parses JSONL text line by line; if any line is malformed, falls back
/// to parsing the whole text as a single JSON document (covers
/// pretty-printed single-object files like `BENCH_driver.json`).
fn parse_log(text: &str) -> Result<Vec<Json>, String> {
    let per_line: Result<Vec<Json>, String> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(Json::parse)
        .collect();
    match per_line {
        Ok(lines) => Ok(lines),
        Err(line_err) => Json::parse(text)
            .map(|doc| vec![doc])
            .map_err(|doc_err| format!("not JSONL ({line_err}) nor one document ({doc_err})")),
    }
}

/// Per-scheme metrics (`suffix → value`), aggregated across every
/// file's meta line by max (see the module docs for why max).
pub type SchemeStats = BTreeMap<String, BTreeMap<String, Json>>;

/// Aggregates every `<scheme>.<suffix>` metric found in the logs' meta
/// lines. A dotted prefix counts as a scheme when it publishes `.runs`,
/// `.cycles`, *and* `.instructions` — the per-policy counters the
/// execution driver registers together — which keeps harness-level
/// groups (`runner.*`, `sim.*`) out of the table.
pub fn scheme_stats(logs: &[LoadedLog]) -> SchemeStats {
    let mut by_prefix: SchemeStats = BTreeMap::new();
    for log in logs {
        let Some(Json::Obj(fields)) = log.meta_metrics() else {
            continue;
        };
        for (name, value) in fields {
            let Some((prefix, suffix)) = name.rsplit_once('.') else {
                continue;
            };
            let slot = by_prefix
                .entry(prefix.to_string())
                .or_default()
                .entry(suffix.to_string());
            let slot = slot.or_insert(Json::Null);
            *slot = merge_metric(slot, value);
        }
    }
    by_prefix.retain(|_, m| {
        m.contains_key("runs") && m.contains_key("cycles") && m.contains_key("instructions")
    });
    by_prefix
}

/// Max-merge for one metric across files: numerics by value, histogram
/// objects by observation count; anything else last-wins.
fn merge_metric(have: &Json, new: &Json) -> Json {
    match (have.as_f64(), new.as_f64()) {
        (Some(a), Some(b)) => {
            return if b > a { new.clone() } else { have.clone() };
        }
        (Some(_), None) => return have.clone(),
        _ => {}
    }
    let count = |j: &Json| j.get("count").and_then(Json::as_u64);
    match (count(have), count(new)) {
        (Some(a), Some(b)) if a > b => have.clone(),
        _ => new.clone(),
    }
}

/// A nearest-rank percentile estimate from a serialized histogram
/// (`{count, sum, buckets: [{le, count}]}` — per-bucket counts with a
/// trailing `le: null` overflow bucket). Returns the upper bound of the
/// bucket containing the target rank: `Some(inf)` when the rank lands
/// in the overflow bucket, `None` for empty/absent histograms.
pub fn histogram_percentile(hist: &Json, q: f64) -> Option<f64> {
    let total = hist.get("count").and_then(Json::as_u64)?;
    if total == 0 {
        return None;
    }
    let Some(Json::Arr(buckets)) = hist.get("buckets") else {
        return None;
    };
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for b in buckets {
        seen += b.get("count").and_then(Json::as_u64).unwrap_or(0);
        if seen >= rank {
            // The overflow bucket's `le` serializes as null (infinity).
            return Some(b.get("le").and_then(Json::as_f64).unwrap_or(f64::INFINITY));
        }
    }
    Some(f64::INFINITY)
}

/// One rendered dashboard row (all rates derived from the aggregated
/// counters; `None` rates mean a zero denominator).
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeRow {
    /// Scheme metric prefix (`unsync_pair`, `tmr_vote`, …).
    pub scheme: String,
    /// Driver runs aggregated into this row.
    pub runs: u64,
    /// Committed instructions.
    pub instructions: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Detections.
    pub detections: u64,
    /// Detections per megacycle.
    pub detections_per_mcycle: Option<f64>,
    /// Completed recoveries.
    pub recoveries: u64,
    /// Fraction of cycles spent stalled in recovery.
    pub recovery_stall_fraction: Option<f64>,
    /// Fraction of cycles lost to a full communication buffer.
    pub cb_full_fraction: Option<f64>,
    /// Fraction of cycles requests spent waiting for contended L2 bank
    /// ports (zero unless the banked-L2 model was enabled).
    pub l2_contention_fraction: Option<f64>,
    /// Mean store-buffer occupancy at comparison-window boundaries.
    pub window_occupancy_mean: Option<f64>,
    /// MTTR percentiles (p50, p95, max bucket bound), when the scheme
    /// recorded any recovery episodes.
    pub mttr: Option<(f64, f64, f64)>,
    /// The hottest L2 bank and its share of all bank conflicts, from
    /// the `l2_bank_conflicts` histogram (absent unless the banked-L2
    /// model recorded conflicts).
    pub l2_hot_bank: Option<(u64, f64)>,
}

/// The most-conflicted bank index and its share of all recorded bank
/// conflicts, from a serialized `l2_bank_conflicts` histogram (each
/// finite bucket's bound is a bank index and its count that bank's
/// conflict tally). `None` for empty or absent histograms.
pub fn hot_bank(hist: &Json) -> Option<(u64, f64)> {
    let total = hist.get("count").and_then(Json::as_u64)?;
    if total == 0 {
        return None;
    }
    let Some(Json::Arr(buckets)) = hist.get("buckets") else {
        return None;
    };
    let mut best: Option<(u64, u64)> = None;
    for b in buckets {
        // The overflow bucket (`le: null`) holds nothing by
        // construction — bank indices never exceed the last bound.
        let Some(le) = b.get("le").and_then(Json::as_f64) else {
            continue;
        };
        let n = b.get("count").and_then(Json::as_u64).unwrap_or(0);
        if n > 0 && best.is_none_or(|(_, bn)| n > bn) {
            best = Some((le as u64, n));
        }
    }
    best.map(|(bank, n)| (bank, n as f64 / total as f64))
}

/// One per-bank row of the L2 occupancy table: conflicts and stall
/// cycles attributed to one bank of one scheme's runs.
#[derive(Debug, Clone, PartialEq)]
pub struct BankRow {
    /// Scheme metric prefix.
    pub scheme: String,
    /// Bank index.
    pub bank: u64,
    /// Conflicts recorded on this bank.
    pub conflicts: u64,
    /// Share of the scheme's conflicts landing on this bank.
    pub conflict_share: f64,
    /// Bank-wait cycles attributed to this bank.
    pub stall_cycles: u64,
}

/// Per-bank tallies of a bank-indexed histogram (each finite bucket's
/// bound is a bank index, its count that bank's tally); empty-count
/// banks are skipped.
fn bank_tallies(hist: Option<&Json>) -> BTreeMap<u64, u64> {
    let mut out = BTreeMap::new();
    let Some(Json::Arr(buckets)) = hist.and_then(|h| h.get("buckets")) else {
        return out;
    };
    for b in buckets {
        let Some(le) = b.get("le").and_then(Json::as_f64) else {
            continue;
        };
        let n = b.get("count").and_then(Json::as_u64).unwrap_or(0);
        if n > 0 {
            out.insert(le as u64, n);
        }
    }
    out
}

/// Expands every scheme's `l2_bank_conflicts` / `l2_bank_stalls`
/// histograms into per-bank rows (banks that saw neither a conflict
/// nor a stall are omitted; empty when no banked-L2 run is present).
pub fn bank_rows(stats: &SchemeStats) -> Vec<BankRow> {
    let mut rows = Vec::new();
    for (scheme, m) in stats {
        let conflicts = bank_tallies(m.get("l2_bank_conflicts"));
        let stalls = bank_tallies(m.get("l2_bank_stalls"));
        let total: u64 = conflicts.values().sum();
        let banks: std::collections::BTreeSet<u64> =
            conflicts.keys().chain(stalls.keys()).copied().collect();
        for bank in banks {
            let n = conflicts.get(&bank).copied().unwrap_or(0);
            rows.push(BankRow {
                scheme: scheme.clone(),
                bank,
                conflicts: n,
                conflict_share: if total > 0 {
                    n as f64 / total as f64
                } else {
                    0.0
                },
                stall_cycles: stalls.get(&bank).copied().unwrap_or(0),
            });
        }
    }
    rows
}

/// Renders the per-bank L2 table (empty string when no rows — the
/// detailed expansion of the scheme table's `hotbank` column).
pub fn render_bank_table(rows: &[BankRow]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>5} {:>10} {:>7} {:>11}",
        "scheme", "bank", "conflicts", "share", "stall cyc"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<14} {:>5} {:>10} {:>6.1}% {:>11}",
            r.scheme,
            r.bank,
            r.conflicts,
            r.conflict_share * 100.0,
            r.stall_cycles
        );
    }
    out
}

/// Engine health counters, max-merged across every log's meta metrics
/// (max for the same reason scheme metrics merge by max: the counters
/// are monotonic within one process).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthCounters {
    /// Cycle-journal events dropped on the bounded journal
    /// (`exec.journal_dropped`) — non-zero means exported timelines
    /// are incomplete.
    pub journal_dropped: u64,
    /// Contended acquisitions of the runner's sharded cache locks
    /// (`runner.cache_lock_waits`).
    pub cache_lock_waits: u64,
}

impl HealthCounters {
    /// Whether every counter is zero.
    pub fn clean(&self) -> bool {
        *self == HealthCounters::default()
    }
}

/// Collects [`HealthCounters`] from the logs' meta lines.
pub fn health_counters(logs: &[LoadedLog]) -> HealthCounters {
    let mut h = HealthCounters::default();
    for log in logs {
        let Some(m) = log.meta_metrics() else {
            continue;
        };
        let get = |k: &str| m.get(k).and_then(Json::as_u64).unwrap_or(0);
        h.journal_dropped = h.journal_dropped.max(get("exec.journal_dropped"));
        h.cache_lock_waits = h.cache_lock_waits.max(get("runner.cache_lock_waits"));
    }
    h
}

/// Renders the one-line health summary; journal truncation is the one
/// condition that corrupts downstream artifacts (timeline exports), so
/// it gets an explicit warning suffix.
pub fn render_health_line(h: &HealthCounters) -> String {
    let mut line = format!(
        "health: journal_dropped={} cache_lock_waits={}",
        h.journal_dropped, h.cache_lock_waits
    );
    if h.journal_dropped > 0 {
        line.push_str("  !! journal truncated: timeline exports are incomplete");
    }
    line
}

/// Builds the table rows from [`scheme_stats`] output.
pub fn scheme_rows(stats: &SchemeStats) -> Vec<SchemeRow> {
    let get = |m: &BTreeMap<String, Json>, k: &str| m.get(k).and_then(Json::as_u64).unwrap_or(0);
    stats
        .iter()
        .map(|(scheme, m)| {
            let cycles = get(m, "cycles");
            let detections = get(m, "detections");
            let ratio = |num: u64| (cycles > 0).then(|| num as f64 / cycles as f64);
            let compares = get(m, "window_compares");
            let mttr = m.get("recovery_mttr_cycles").and_then(|h| {
                Some((
                    histogram_percentile(h, 0.50)?,
                    histogram_percentile(h, 0.95)?,
                    histogram_percentile(h, 1.0)?,
                ))
            });
            SchemeRow {
                scheme: scheme.clone(),
                runs: get(m, "runs"),
                instructions: get(m, "instructions"),
                cycles,
                detections,
                detections_per_mcycle: ratio(detections).map(|r| r * 1e6),
                recoveries: get(m, "recoveries"),
                recovery_stall_fraction: ratio(get(m, "recovery_stall_cycles")),
                cb_full_fraction: ratio(get(m, "cb_full_stall_cycles")),
                l2_contention_fraction: ratio(get(m, "l2_contention_stall_cycles")),
                window_occupancy_mean: (compares > 0)
                    .then(|| get(m, "window_occupancy_sum") as f64 / compares as f64),
                mttr,
                l2_hot_bank: m.get("l2_bank_conflicts").and_then(hot_bank),
            }
        })
        .collect()
}

fn fmt_opt(v: Option<f64>, digits: usize) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x:.digits$}"),
        Some(_) => "inf".to_string(),
        None => "-".to_string(),
    }
}

fn fmt_cycles(v: f64) -> String {
    if v.is_infinite() {
        ">1e6".to_string()
    } else {
        format!("{v:.0}")
    }
}

/// Renders the per-scheme table (one row per scheme, header included;
/// empty string when no scheme metrics were found).
pub fn render_scheme_table(rows: &[SchemeRow]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>5} {:>12} {:>12} {:>8} {:>9} {:>7} {:>8} {:>8} {:>8} {:>8} {:>7} {:>8} {:>8} {:>8}",
        "scheme",
        "runs",
        "insts",
        "cycles",
        "detect",
        "det/Mcyc",
        "recov",
        "stall%",
        "cbfull%",
        "l2stl%",
        "hotbank",
        "w.occ",
        "mttr p50",
        "p95",
        "max"
    );
    for r in rows {
        let (p50, p95, max) = match r.mttr {
            Some((a, b, c)) => (fmt_cycles(a), fmt_cycles(b), fmt_cycles(c)),
            None => ("-".into(), "-".into(), "-".into()),
        };
        let hot = match r.l2_hot_bank {
            Some((bank, share)) => format!("{bank}:{:.0}%", share * 100.0),
            None => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<14} {:>5} {:>12} {:>12} {:>8} {:>9} {:>7} {:>8} {:>8} {:>8} {:>8} {:>7} {:>8} {:>8} {:>8}",
            r.scheme,
            r.runs,
            r.instructions,
            r.cycles,
            r.detections,
            fmt_opt(r.detections_per_mcycle, 2),
            r.recoveries,
            fmt_opt(r.recovery_stall_fraction.map(|f| f * 100.0), 3),
            fmt_opt(r.cb_full_fraction.map(|f| f * 100.0), 3),
            fmt_opt(r.l2_contention_fraction.map(|f| f * 100.0), 3),
            hot,
            fmt_opt(r.window_occupancy_mean, 1),
            p50,
            p95,
            max
        );
    }
    out
}

/// One campaign-engine run, read back from a campaign log's meta line
/// (campaign metas are the ones carrying `jobs_per_sec` — see
/// [`crate::campaign`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRow {
    /// Experiment (grid) name.
    pub experiment: String,
    /// Worker threads of the run.
    pub workers: u64,
    /// Jobs in the full grid.
    pub jobs: u64,
    /// Jobs executed by this run (less than `jobs` after a resume).
    pub jobs_run: u64,
    /// Jobs skipped because a resumed log already held them.
    pub jobs_skipped: u64,
    /// Wall-clock milliseconds.
    pub wall_ms: u64,
    /// Streaming throughput of the run.
    pub jobs_per_sec: f64,
    /// Golden-image memo hit rate, when the run recorded the counters.
    pub golden_hit_pct: Option<f64>,
    /// Baseline-cycles memo hit rate, when recorded.
    pub baseline_hit_pct: Option<f64>,
}

/// Extracts one [`CampaignRow`] per campaign meta line found in `logs`
/// (file order). Non-campaign logs — whose meta lines lack
/// `jobs_per_sec` — are ignored.
pub fn campaign_rows(logs: &[LoadedLog]) -> Vec<CampaignRow> {
    fn u(line: &Json, name: &str) -> u64 {
        line.get(name).and_then(Json::as_u64).unwrap_or(0)
    }
    fn hit_pct(metrics: Option<&Json>, hits: &str, runs: &str) -> Option<f64> {
        let m = metrics?;
        let hits = m.get(hits).and_then(Json::as_f64)?;
        let runs = m.get(runs).and_then(Json::as_f64)?;
        let total = hits + runs;
        (total > 0.0).then(|| 100.0 * hits / total)
    }
    let mut rows = Vec::new();
    for log in logs {
        for line in &log.lines {
            if line.get("kind").and_then(Json::as_str) != Some("meta") {
                continue;
            }
            let Some(jobs_per_sec) = line.get("jobs_per_sec").and_then(Json::as_f64) else {
                continue;
            };
            let metrics = line.get("metrics");
            rows.push(CampaignRow {
                experiment: line
                    .get("experiment")
                    .and_then(Json::as_str)
                    .unwrap_or(&log.file)
                    .to_string(),
                workers: u(line, "workers"),
                jobs: u(line, "jobs"),
                jobs_run: u(line, "jobs_run"),
                jobs_skipped: u(line, "jobs_skipped"),
                wall_ms: u(line, "wall_clock_ms"),
                jobs_per_sec,
                golden_hit_pct: hit_pct(
                    metrics,
                    "runner.golden_cache_hits",
                    "runner.golden_sim_runs",
                ),
                baseline_hit_pct: hit_pct(
                    metrics,
                    "runner.baseline_cache_hits",
                    "runner.baseline_sim_runs",
                ),
            });
        }
    }
    rows
}

/// Renders the campaign-run table (one row per campaign meta line;
/// empty string when `rows` is empty).
pub fn render_campaign_table(rows: &[CampaignRow]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:>7} {:>6} {:>6} {:>7} {:>8} {:>9} {:>8} {:>8}",
        "campaign",
        "workers",
        "jobs",
        "run",
        "skipped",
        "wall ms",
        "jobs/sec",
        "gold hit",
        "base hit"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<18} {:>7} {:>6} {:>6} {:>7} {:>8} {:>9.1} {:>8} {:>8}",
            r.experiment,
            r.workers,
            r.jobs,
            r.jobs_run,
            r.jobs_skipped,
            r.wall_ms,
            r.jobs_per_sec,
            fmt_opt(r.golden_hit_pct, 1),
            fmt_opt(r.baseline_hit_pct, 1)
        );
    }
    out
}

/// Rebuilds the uncore vulnerability table from every `roec_uncore`
/// run log in `logs` (record rows carry `structure` / `scheme` /
/// `outcome`; rows whose outcome label fails to parse are skipped).
/// Empty when no campaign log is present.
pub fn roec_table(logs: &[LoadedLog]) -> unsync_fault::roec::VulnerabilityTable {
    let mut table = unsync_fault::roec::VulnerabilityTable::new();
    for log in logs {
        let is_campaign = log.lines.first().is_some_and(|l| {
            l.get("kind").and_then(Json::as_str) == Some("header")
                && l.get("experiment").and_then(Json::as_str) == Some("roec_uncore")
        });
        if !is_campaign {
            continue;
        }
        for line in &log.lines {
            if line.get("kind").and_then(Json::as_str) != Some("record") {
                continue;
            }
            let field = |k: &str| line.get(k).and_then(Json::as_str);
            let (Some(structure), Some(scheme), Some(label)) =
                (field("structure"), field("scheme"), field("outcome"))
            else {
                continue;
            };
            let Some(outcome) = unsync_fault::roec::StrikeOutcome::from_label(label) else {
                continue;
            };
            table.record(structure, scheme, outcome);
        }
    }
    table
}

/// Diff configuration.
#[derive(Debug, Clone, Copy)]
pub struct DiffOptions {
    /// Relative tolerance: numeric leaves differing by more than
    /// `tolerance * max(|a|, |b|)` count as deltas (0.0 = exact).
    pub tolerance: f64,
    /// Also compare the nondeterministic meta metrics (wall-clock and
    /// worker count stay excluded — they differ by construction).
    pub include_meta: bool,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            tolerance: 0.0,
            include_meta: false,
        }
    }
}

/// The outcome of diffing two results directories.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Human-readable delta lines (`file: path: a -> b`).
    pub deltas: Vec<String>,
    /// Leaves compared.
    pub compared: usize,
    /// Health warnings that do not fail the diff but flag suspect
    /// inputs (currently: non-zero `exec.journal_dropped` on either
    /// side, which means that side's timeline exports are incomplete).
    pub warnings: Vec<String>,
}

impl DiffReport {
    /// Whether the two directories agree within tolerance.
    pub fn clean(&self) -> bool {
        self.deltas.is_empty()
    }
}

/// One flattened scalar leaf of a log line.
#[derive(Debug, Clone, PartialEq)]
enum Leaf {
    Num(f64),
    Text(String),
    Bool(bool),
    Null,
}

fn flatten(value: &Json, path: &mut String, out: &mut Vec<(String, Leaf)>) {
    match value {
        Json::Obj(fields) => {
            for (k, v) in fields {
                let len = path.len();
                if !path.is_empty() {
                    path.push('.');
                }
                path.push_str(k);
                flatten(v, path, out);
                path.truncate(len);
            }
        }
        Json::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                let len = path.len();
                let _ = write!(path, "[{i}]");
                flatten(v, path, out);
                path.truncate(len);
            }
        }
        Json::Null => out.push((path.clone(), Leaf::Null)),
        Json::Bool(b) => out.push((path.clone(), Leaf::Bool(*b))),
        Json::Str(s) => out.push((path.clone(), Leaf::Text(s.clone()))),
        other => out.push((
            path.clone(),
            Leaf::Num(other.as_f64().expect("numeric variant")),
        )),
    }
}

/// Flattens one log into comparable `path → leaf` pairs. Deterministic
/// lines always compare; the meta line joins only with `include_meta`,
/// minus the environment-shaped `workers` / `wall_clock_ms` fields, the
/// host-domain `prof` block, and every `prof.*` metric — wall-clock
/// profiles differ across reruns by construction and must never fail a
/// determinism diff.
fn comparable_leaves(log: &LoadedLog, include_meta: bool) -> Vec<(String, Leaf)> {
    let mut out = Vec::new();
    for (i, line) in log.lines.iter().enumerate() {
        let kind = line.get("kind").and_then(Json::as_str);
        if kind == Some("meta") {
            if !include_meta {
                continue;
            }
            let mut pruned = line.clone();
            if let Json::Obj(fields) = &mut pruned {
                fields.retain(|(k, _)| k != "workers" && k != "wall_clock_ms" && k != "prof");
                if let Some((_, Json::Obj(metrics))) =
                    fields.iter_mut().find(|(k, _)| k == "metrics")
                {
                    metrics.retain(|(k, _)| !k.starts_with("prof."));
                }
            }
            let mut path = "meta".to_string();
            flatten(&pruned, &mut path, &mut out);
            continue;
        }
        let mut path = match (kind, line.get("row").and_then(Json::as_u64)) {
            (Some("record"), Some(row)) => format!("record[{row}]"),
            (Some(k), _) => k.to_string(),
            (None, _) => format!("line[{i}]"),
        };
        flatten(line, &mut path, &mut out);
    }
    out
}

fn leaf_delta(a: &Leaf, b: &Leaf, tolerance: f64) -> Option<String> {
    match (a, b) {
        (Leaf::Num(x), Leaf::Num(y)) => {
            let scale = x.abs().max(y.abs());
            ((x - y).abs() > tolerance * scale && x != y).then(|| format!("{x} -> {y}"))
        }
        _ => (a != b).then(|| format!("{a:?} -> {b:?}")),
    }
}

/// Diffs two results directories file by file. Files present in only
/// one directory count as deltas; within a shared file, leaves are
/// matched by path and compared under [`DiffOptions::tolerance`].
pub fn diff_dirs(dir_a: &Path, dir_b: &Path, opts: DiffOptions) -> Result<DiffReport, String> {
    let a = load_dir(dir_a)?;
    let b = load_dir(dir_b)?;
    let mut report = DiffReport::default();
    for (side, logs) in [("A", &a), ("B", &b)] {
        let h = health_counters(logs);
        if h.journal_dropped > 0 {
            report.warnings.push(format!(
                "{side}: journal_dropped={} (cycle journal truncated; timeline exports from this side are incomplete)",
                h.journal_dropped
            ));
        }
    }
    let index = |logs: &[LoadedLog]| -> BTreeMap<String, LoadedLog> {
        logs.iter().map(|l| (l.file.clone(), l.clone())).collect()
    };
    let (a, b) = (index(&a), index(&b));
    for file in a
        .keys()
        .chain(b.keys())
        .collect::<std::collections::BTreeSet<_>>()
    {
        match (a.get(file), b.get(file)) {
            (Some(la), Some(lb)) => {
                let la: BTreeMap<String, Leaf> = comparable_leaves(la, opts.include_meta)
                    .into_iter()
                    .collect();
                let lb: BTreeMap<String, Leaf> = comparable_leaves(lb, opts.include_meta)
                    .into_iter()
                    .collect();
                for path in la
                    .keys()
                    .chain(lb.keys())
                    .collect::<std::collections::BTreeSet<_>>()
                {
                    match (la.get(path), lb.get(path)) {
                        (Some(x), Some(y)) => {
                            report.compared += 1;
                            if let Some(d) = leaf_delta(x, y, opts.tolerance) {
                                report.deltas.push(format!("{file}: {path}: {d}"));
                            }
                        }
                        (Some(_), None) => {
                            report.deltas.push(format!("{file}: {path}: only in A"));
                        }
                        (None, Some(_)) => {
                            report.deltas.push(format!("{file}: {path}: only in B"));
                        }
                        (None, None) => unreachable!("path from one of the maps"),
                    }
                }
            }
            (Some(_), None) => report.deltas.push(format!("{file}: only in A")),
            (None, Some(_)) => report.deltas.push(format!("{file}: only in B")),
            (None, None) => unreachable!("file from one of the maps"),
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(file: &str, lines: &[&str]) -> LoadedLog {
        LoadedLog {
            file: file.to_string(),
            lines: lines
                .iter()
                .map(|l| Json::parse(l).expect("test line parses"))
                .collect(),
        }
    }

    const META_A: &str = r#"{"kind":"meta","schema":2,"experiment":"x","workers":1,"wall_clock_ms":5,"metrics":{"unsync_pair.runs":2,"unsync_pair.cycles":1000,"unsync_pair.detections":4,"unsync_pair.recoveries":4,"unsync_pair.recovery_stall_cycles":100,"unsync_pair.instructions":500,"unsync_pair.recovery_mttr_cycles":{"count":4,"sum":100.0,"buckets":[{"le":10.0,"count":1},{"le":100.0,"count":3},{"le":null,"count":0}]},"runner.baseline_sim_runs":7}}"#;

    #[test]
    fn scheme_stats_groups_and_filters_prefixes() {
        let stats = scheme_stats(&[log("a.jsonl", &[META_A])]);
        assert_eq!(stats.len(), 1, "runner.* must not count as a scheme");
        let m = &stats["unsync_pair"];
        assert_eq!(m["runs"].as_u64(), Some(2));
        assert_eq!(m["cycles"].as_u64(), Some(1000));
    }

    #[test]
    fn metrics_aggregate_by_max_across_files() {
        let meta_b = META_A.replace("\"unsync_pair.cycles\":1000", "\"unsync_pair.cycles\":1500");
        let stats = scheme_stats(&[log("a.jsonl", &[META_A]), log("b.jsonl", &[&meta_b])]);
        assert_eq!(stats["unsync_pair"]["cycles"].as_u64(), Some(1500));
    }

    #[test]
    fn rows_derive_rates_and_percentiles() {
        let rows = scheme_rows(&scheme_stats(&[log("a.jsonl", &[META_A])]));
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.scheme, "unsync_pair");
        assert_eq!(r.detections, 4);
        assert_eq!(r.recovery_stall_fraction, Some(0.1));
        // 4 observations: 1 ≤ 10, 3 ≤ 100 → p50 rank 2 lands in the
        // second bucket, max in the second as well.
        assert_eq!(r.mttr, Some((100.0, 100.0, 100.0)));
        let table = render_scheme_table(&rows);
        assert!(table.contains("unsync_pair"));
        assert!(table.lines().count() >= 2);
    }

    #[test]
    fn hot_bank_column_reads_the_bank_histogram() {
        // META_A has no l2_bank_conflicts histogram → column absent.
        let rows = scheme_rows(&scheme_stats(&[log("a.jsonl", &[META_A])]));
        assert_eq!(rows[0].l2_hot_bank, None);
        assert!(render_scheme_table(&rows)
            .lines()
            .next()
            .unwrap()
            .contains("hotbank"));

        // Add a bank profile: bank 2 owns 6 of 10 conflicts.
        let meta = META_A.replace(
            "\"runner.baseline_sim_runs\":7",
            concat!(
                "\"unsync_pair.l2_bank_conflicts\":{\"count\":10,\"sum\":14.0,",
                "\"buckets\":[{\"le\":0.0,\"count\":1},{\"le\":1.0,\"count\":3},",
                "{\"le\":2.0,\"count\":6},{\"le\":null,\"count\":0}]}"
            ),
        );
        let rows = scheme_rows(&scheme_stats(&[log("a.jsonl", &[&meta])]));
        let (bank, share) = rows[0].l2_hot_bank.expect("histogram present");
        assert_eq!(bank, 2);
        assert!((share - 0.6).abs() < 1e-12);
        assert!(render_scheme_table(&rows).contains("2:60%"));
    }

    #[test]
    fn histogram_percentile_handles_overflow_and_empty() {
        let h = Json::parse(
            r#"{"count":2,"sum":0.0,"buckets":[{"le":10.0,"count":1},{"le":null,"count":1}]}"#,
        )
        .unwrap();
        assert_eq!(histogram_percentile(&h, 0.5), Some(10.0));
        assert_eq!(histogram_percentile(&h, 1.0), Some(f64::INFINITY));
        let empty = Json::parse(r#"{"count":0,"sum":0.0,"buckets":[]}"#).unwrap();
        assert_eq!(histogram_percentile(&empty, 0.5), None);
    }

    #[test]
    fn diff_reports_deltas_and_respects_tolerance() {
        let dir_a = std::env::temp_dir().join("unsync_dash_diff_a");
        let dir_b = std::env::temp_dir().join("unsync_dash_diff_b");
        for d in [&dir_a, &dir_b] {
            let _ = fs::remove_dir_all(d);
            fs::create_dir_all(d).unwrap();
        }
        let header = r#"{"kind":"header","experiment":"t","schema":1,"config":{"seed":1}}"#;
        fs::write(
            dir_a.join("t.jsonl"),
            format!("{header}\n{{\"kind\":\"record\",\"row\":0,\"ipc\":1.0}}\n"),
        )
        .unwrap();
        fs::write(
            dir_b.join("t.jsonl"),
            format!("{header}\n{{\"kind\":\"record\",\"row\":0,\"ipc\":1.05}}\n"),
        )
        .unwrap();
        fs::write(dir_b.join("extra.jsonl"), format!("{header}\n")).unwrap();

        let strict = diff_dirs(&dir_a, &dir_b, DiffOptions::default()).unwrap();
        assert!(!strict.clean());
        assert!(strict.deltas.iter().any(|d| d.contains("record[0].ipc")));
        assert!(strict.deltas.iter().any(|d| d.contains("only in B")));

        let loose = diff_dirs(
            &dir_a,
            &dir_b,
            DiffOptions {
                tolerance: 0.10,
                include_meta: false,
            },
        )
        .unwrap();
        // The 5% ipc delta is inside tolerance; the extra file is not.
        assert!(
            loose.deltas.iter().all(|d| d.contains("only in B")),
            "{loose:?}"
        );

        let same = diff_dirs(&dir_a, &dir_a, DiffOptions::default()).unwrap();
        assert!(same.clean());
        assert!(same.compared > 0);
    }

    #[test]
    fn meta_lines_join_the_diff_only_on_request() {
        let dir_a = std::env::temp_dir().join("unsync_dash_meta_a");
        let dir_b = std::env::temp_dir().join("unsync_dash_meta_b");
        for d in [&dir_a, &dir_b] {
            let _ = fs::remove_dir_all(d);
            fs::create_dir_all(d).unwrap();
        }
        let meta_b = META_A.replace("\"unsync_pair.cycles\":1000", "\"unsync_pair.cycles\":2000");
        fs::write(dir_a.join("x.jsonl"), format!("{META_A}\n")).unwrap();
        fs::write(dir_b.join("x.jsonl"), format!("{meta_b}\n")).unwrap();
        let without = diff_dirs(&dir_a, &dir_b, DiffOptions::default()).unwrap();
        assert!(without.clean(), "{without:?}");
        let with = diff_dirs(
            &dir_a,
            &dir_b,
            DiffOptions {
                tolerance: 0.0,
                include_meta: true,
            },
        )
        .unwrap();
        assert!(with
            .deltas
            .iter()
            .any(|d| d.contains("meta.metrics.unsync_pair.cycles")));
        // workers / wall_clock_ms never compare, even with meta on.
        assert!(with.deltas.iter().all(|d| !d.contains("wall_clock_ms")));
    }

    #[test]
    fn bank_rows_expand_conflicts_and_stalls_per_bank() {
        let meta = META_A.replace(
            "\"runner.baseline_sim_runs\":7",
            concat!(
                "\"unsync_pair.l2_bank_conflicts\":{\"count\":10,\"sum\":14.0,",
                "\"buckets\":[{\"le\":0.0,\"count\":4},{\"le\":2.0,\"count\":6},",
                "{\"le\":null,\"count\":0}]},",
                "\"unsync_pair.l2_bank_stalls\":{\"count\":90,\"sum\":100.0,",
                "\"buckets\":[{\"le\":0.0,\"count\":30},{\"le\":2.0,\"count\":60},",
                "{\"le\":null,\"count\":0}]}"
            ),
        );
        let rows = bank_rows(&scheme_stats(&[log("a.jsonl", &[&meta])]));
        assert_eq!(rows.len(), 2);
        assert_eq!(
            (rows[0].bank, rows[0].conflicts, rows[0].stall_cycles),
            (0, 4, 30)
        );
        assert_eq!(
            (rows[1].bank, rows[1].conflicts, rows[1].stall_cycles),
            (2, 6, 60)
        );
        assert!((rows[1].conflict_share - 0.6).abs() < 1e-12);
        let table = render_bank_table(&rows);
        assert!(table.lines().next().unwrap().contains("stall cyc"));
        assert!(table.contains("60.0%"));
        // No bank histograms → no table.
        assert!(bank_rows(&scheme_stats(&[log("a.jsonl", &[META_A])])).is_empty());
    }

    #[test]
    fn health_counters_max_merge_and_flag_journal_drops() {
        let clean = health_counters(&[log("a.jsonl", &[META_A])]);
        assert!(clean.clean());
        let meta = META_A.replace(
            "\"runner.baseline_sim_runs\":7",
            "\"exec.journal_dropped\":3,\"runner.cache_lock_waits\":5",
        );
        let h = health_counters(&[log("a.jsonl", &[META_A]), log("b.jsonl", &[&meta])]);
        assert_eq!(h.journal_dropped, 3);
        assert_eq!(h.cache_lock_waits, 5);
        assert!(!h.clean());
        let line = render_health_line(&h);
        assert!(line.contains("journal_dropped=3"));
        assert!(line.contains("journal truncated"));
        assert!(!render_health_line(&clean).contains("truncated"));
    }

    #[test]
    fn prof_data_never_joins_a_meta_diff() {
        let dir_a = std::env::temp_dir().join("unsync_dash_prof_a");
        let dir_b = std::env::temp_dir().join("unsync_dash_prof_b");
        for d in [&dir_a, &dir_b] {
            let _ = fs::remove_dir_all(d);
            fs::create_dir_all(d).unwrap();
        }
        // Identical deterministic metrics; wildly different host-domain
        // prof blocks and prof.* histograms, as two reruns would show.
        let meta = |us: u64| {
            META_A.replace(
                "\"wall_clock_ms\":5,",
                &format!(
                    concat!(
                        "\"wall_clock_ms\":5,",
                        "\"prof\":{{\"sched.run\":{{\"count\":1,\"sum_us\":{us}.0,\"mean_us\":{us}.0}}}},"
                    ),
                    us = us
                ),
            )
            .replace(
                "\"runner.baseline_sim_runs\":7",
                &format!(
                    "\"prof.sched.run\":{{\"count\":1,\"sum\":{us}.0,\"buckets\":[{{\"le\":null,\"count\":1}}]}}"
                ),
            )
        };
        fs::write(dir_a.join("x.jsonl"), format!("{}\n", meta(10))).unwrap();
        fs::write(dir_b.join("x.jsonl"), format!("{}\n", meta(9000))).unwrap();
        let report = diff_dirs(
            &dir_a,
            &dir_b,
            DiffOptions {
                tolerance: 0.0,
                include_meta: true,
            },
        )
        .unwrap();
        assert!(report.clean(), "{report:?}");
    }

    #[test]
    fn diff_warns_on_truncated_journals() {
        let dir_a = std::env::temp_dir().join("unsync_dash_warn_a");
        let dir_b = std::env::temp_dir().join("unsync_dash_warn_b");
        for d in [&dir_a, &dir_b] {
            let _ = fs::remove_dir_all(d);
            fs::create_dir_all(d).unwrap();
        }
        let dropped = META_A.replace(
            "\"runner.baseline_sim_runs\":7",
            "\"exec.journal_dropped\":41",
        );
        fs::write(dir_a.join("x.jsonl"), format!("{dropped}\n")).unwrap();
        fs::write(dir_b.join("x.jsonl"), format!("{META_A}\n")).unwrap();
        let report = diff_dirs(&dir_a, &dir_b, DiffOptions::default()).unwrap();
        // Warnings flag side A without failing the (meta-free) diff.
        assert!(report.clean(), "{report:?}");
        assert_eq!(report.warnings.len(), 1);
        assert!(report.warnings[0].starts_with("A:"));
        assert!(report.warnings[0].contains("journal_dropped=41"));
    }

    #[test]
    fn whole_file_fallback_parses_single_document_logs() {
        let lines = parse_log("{\n  \"schema\": 1,\n  \"v\": [1, 2]\n}\n").unwrap();
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].get("schema").and_then(Json::as_u64), Some(1));
    }
}
