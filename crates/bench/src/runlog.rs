//! Machine-readable JSONL run logs.
//!
//! Every experiment binary emits one JSON-Lines file alongside its text
//! output: one `record` line per result row, framed by a `header` line
//! (experiment name, config, seed) and a trailing `meta` line (worker
//! count, wall-clock, metrics snapshot). The header and records are a
//! pure function of `(experiment, ExperimentConfig)` — byte-identical
//! across worker counts and machines — which is exactly what the
//! determinism and golden tests compare. Everything environment-shaped
//! lives only on the `meta` line, so consumers (and tests) drop it with
//! a one-line filter.
//!
//! The serializer is a tiny hand-rolled [`Json`] tree: object keys keep
//! insertion order, `f64` renders via Rust's shortest-roundtrip `{:?}`,
//! and non-finite floats render as `null`, so output is reproducible
//! down to the byte with no external dependencies.

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use unsync_sim::metrics::{self, MetricValue};

use crate::experiments::ExperimentConfig;

/// A JSON value with insertion-ordered object keys.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (covers every counter in the repo).
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float; non-finite values serialize as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Inserts `key: value`, returning `self` for chaining.
    ///
    /// # Panics
    /// Panics if `self` is not an object.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("field() on non-object Json"),
        }
        self
    }

    /// Serializes to a single compact line (no trailing newline).
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    /// Parses one JSON text back into a tree (the inverse of
    /// [`Json::render`], for the dashboard reading run logs back).
    ///
    /// Numbers parse as `U64` when they are non-negative integers that
    /// fit, `I64` for other integers, `F64` otherwise — matching what
    /// [`Json::render`] produces for each variant. Returns `Err` with a
    /// byte offset and message on malformed input; trailing non-space
    /// input after the value is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let b = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(b, &mut pos)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing input at byte {pos}"));
        }
        Ok(v)
    }

    /// Looks up `key` in an object (`None` for non-objects or missing
    /// keys; last insertion wins, like serde maps).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value as `f64` (`U64`/`I64`/`F64`; `None` otherwise).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(n) => Some(*n as f64),
            Json::I64(n) => Some(*n as f64),
            Json::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            Json::I64(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The string content (`None` for non-strings).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::I64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(x) if x.is_finite() => {
                let _ = write!(out, "{x:?}");
            }
            Json::F64(_) => out.push_str("null"),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    let err = |pos: usize, what: &str| Err(format!("{what} at byte {pos}"));
    match b.get(*pos) {
        None => err(*pos, "unexpected end of input"),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return err(*pos, "expected ',' or ']'"),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return err(*pos, "expected ':'");
                }
                *pos += 1;
                fields.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return err(*pos, "expected ',' or '}'"),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut s = String::new();
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(s);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'b') => s.push('\u{8}'),
                    Some(b'f') => s.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}", pos = *pos))?;
                        // The serializer only emits \u for control chars;
                        // surrogate pairs are not produced, so reject them.
                        s.push(
                            char::from_u32(hex).ok_or_else(|| {
                                format!("bad \\u escape at byte {pos}", pos = *pos)
                            })?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            _ => {
                // Copy the run up to the next quote or escape in one
                // piece; both stop bytes are ASCII, so a run cut from
                // valid UTF-8 is valid UTF-8. Validating only the run
                // keeps a long document linear to parse.
                let start = *pos;
                while b.get(*pos).is_some_and(|&c| c != b'"' && c != b'\\') {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&b[start..*pos])
                    .map_err(|_| format!("invalid UTF-8 at byte {start}"))?;
                s.push_str(run);
            }
        }
    }
    Err("unterminated string".to_string())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(
        b.get(*pos),
        Some(b'0'..=b'9') | Some(b'.') | Some(b'e') | Some(b'E') | Some(b'+') | Some(b'-')
    ) {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii number");
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::U64(n));
        }
        if let Ok(n) = text.parse::<i64>() {
            return Ok(Json::I64(n));
        }
    }
    text.parse::<f64>()
        .map(Json::F64)
        .map_err(|_| format!("invalid number at byte {start}"))
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::U64(u64::from(v))
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::I64(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

/// A JSONL run log under construction: header, records, then a meta
/// line stamped at `RunLog::finish`.
#[derive(Debug)]
pub struct RunLog {
    experiment: String,
    lines: Vec<String>,
    pub(crate) started: Instant,
}

impl RunLog {
    /// Starts a log for `experiment` with the standard header line.
    pub fn start(experiment: &str, cfg: ExperimentConfig) -> RunLog {
        Self::with_header(
            experiment,
            Json::obj()
                .field("inst_count", cfg.inst_count)
                .field("seed", cfg.seed),
        )
    }

    /// Starts a log for an analytic experiment with no simulation
    /// config (the hardware-model tables).
    pub(crate) fn start_static(experiment: &str) -> RunLog {
        Self::with_header(experiment, Json::Null)
    }

    fn with_header(experiment: &str, config: Json) -> RunLog {
        let header = Json::obj()
            .field("kind", "header")
            .field("experiment", experiment)
            .field("schema", 1u64)
            .field("config", config);
        RunLog {
            experiment: experiment.to_string(),
            lines: vec![header.render()],
            started: Instant::now(),
        }
    }

    /// Appends one deterministic record line. `fields` should already be
    /// a [`Json::Obj`]; the standard `kind`/`row` framing is added here.
    pub fn record(&mut self, fields: Json) {
        let row = self.lines.len() - 1;
        let mut framed = Json::obj().field("kind", "record").field("row", row);
        if let Json::Obj(pairs) = fields {
            if let Json::Obj(dst) = &mut framed {
                dst.extend(pairs);
            }
        } else {
            framed = framed.field("value", fields);
        }
        self.lines.push(framed.render());
    }

    /// The deterministic portion of the log: every line except the
    /// trailing `meta` line (which `finish` appends).
    pub fn deterministic_lines(&self) -> &[String] {
        &self.lines
    }

    /// Stamps the nondeterministic `meta` line (worker count, wall-clock
    /// milliseconds, host-domain `prof` phase summary, metrics
    /// snapshot) and returns the full log text.
    ///
    /// The meta line carries its own `schema` field, bumped to 2 when
    /// the histogram/span metrics landed. The *header* stays at
    /// `"schema":1` — it describes the deterministic record shape,
    /// which is unchanged, and schema-1 consumers (and the golden
    /// snapshots) compare those lines byte-for-byte.
    pub(crate) fn finish(mut self, workers: usize) -> String {
        let ms = metrics_snapshot_json();
        let meta = Json::obj()
            .field("kind", "meta")
            .field("schema", 2u64)
            .field("experiment", self.experiment.as_str())
            .field("workers", workers)
            .field("wall_clock_ms", self.started.elapsed().as_millis() as u64)
            .field("prof", prof_block_json())
            .field("metrics", ms);
        self.lines.push(meta.render());
        let mut text = self.lines.join("\n");
        text.push('\n');
        text
    }

    /// Finishes the log and writes it under the results directory
    /// (`UNSYNC_RESULTS_DIR`, default `results/`) as
    /// `<experiment>.jsonl`. Returns the path on success; on any I/O
    /// failure prints a warning and returns `None` — run logs must
    /// never fail an experiment.
    pub fn write(self, workers: usize) -> Option<PathBuf> {
        let dir = results_dir();
        let path = dir.join(format!("{}.jsonl", self.experiment));
        let text = self.finish(workers);
        let io = fs::create_dir_all(&dir)
            .and_then(|()| fs::File::create(&path))
            .and_then(|mut f| f.write_all(text.as_bytes()));
        match io {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("warning: could not write run log {}: {e}", path.display());
                None
            }
        }
    }
}

/// The run-log output directory: `UNSYNC_RESULTS_DIR` or `results/`.
pub fn results_dir() -> PathBuf {
    std::env::var_os("UNSYNC_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// The global metrics registry rendered as one JSON object, exactly as
/// it appears under the `metrics` key of a run log's `meta` line.
/// [`RunLog::finish`] and the campaign engine's streamed meta line
/// share this encoding, so the dashboard reads both identically.
pub(crate) fn metrics_snapshot_json() -> Json {
    let snapshot = metrics::global().snapshot();
    let mut ms = Json::obj();
    for (name, value) in metric_fields(&snapshot) {
        ms = ms.field(&name, value);
    }
    ms
}

/// The host-domain profiler summary embedded as the meta line's `prof`
/// block: every `prof.*` histogram of the global registry, keyed by
/// phase (the name minus the `prof.` prefix), condensed to
/// `{count, sum_us, mean_us}`. Wall-clock numbers — like `workers` and
/// `wall_clock_ms`, this block lives on the meta line only and is
/// excluded from run-to-run diffs.
pub(crate) fn prof_block_json() -> Json {
    let mut block = Json::obj();
    for (name, value) in metrics::global().snapshot() {
        let Some(phase) = name.strip_prefix("prof.") else {
            continue;
        };
        if let MetricValue::Histogram { count, sum, .. } = value {
            let mean = if count == 0 { 0.0 } else { sum / count as f64 };
            block = block.field(
                phase,
                Json::obj()
                    .field("count", count)
                    .field("sum_us", sum)
                    .field("mean_us", mean),
            );
        }
    }
    block
}

fn metric_fields(snapshot: &[(String, MetricValue)]) -> Vec<(String, Json)> {
    snapshot
        .iter()
        .map(|(name, value)| {
            let json = match value {
                MetricValue::Counter(n) => Json::U64(*n),
                MetricValue::Gauge(x) => Json::F64(*x),
                MetricValue::Histogram {
                    count,
                    sum,
                    buckets,
                } => Json::obj().field("count", *count).field("sum", *sum).field(
                    "buckets",
                    Json::Arr(
                        buckets
                            .iter()
                            .map(|(le, n)| Json::obj().field("le", *le).field("count", *n))
                            .collect(),
                    ),
                ),
            };
            (name.clone(), json)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_ordered_json() {
        let j = Json::obj()
            .field("b", 1u64)
            .field("a", Json::Arr(vec![Json::Bool(true), Json::Null]))
            .field("x", 0.5f64)
            .field("s", "q\"\n");
        assert_eq!(j.render(), r#"{"b":1,"a":[true,null],"x":0.5,"s":"q\"\n"}"#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::F64(f64::NAN).render(), "null");
        assert_eq!(Json::F64(f64::INFINITY).render(), "null");
        assert_eq!(Json::F64(1.0 / 3.0).render(), "0.3333333333333333");
    }

    #[test]
    fn log_frames_header_records_meta() {
        let cfg = ExperimentConfig {
            inst_count: 10,
            seed: 7,
        };
        let mut log = RunLog::start("unit", cfg);
        log.record(Json::obj().field("benchmark", "gzip").field("ipc", 1.5f64));
        log.record(Json::obj().field("benchmark", "mcf").field("ipc", 0.25f64));
        let text = log.finish(3);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with(r#"{"kind":"header","experiment":"unit","schema":1"#));
        assert!(lines[1].contains(r#""row":0,"benchmark":"gzip""#));
        assert!(lines[2].contains(r#""row":1,"benchmark":"mcf""#));
        assert!(lines[3].contains(r#""kind":"meta""#) && lines[3].contains(r#""workers":3"#));
    }

    /// The meta line is schema 2 (histogram/span metrics); the header —
    /// the deterministic record shape schema-1 consumers compare — is
    /// unchanged.
    #[test]
    fn meta_is_schema_2_and_header_stays_schema_1() {
        let cfg = ExperimentConfig {
            inst_count: 10,
            seed: 7,
        };
        let text = RunLog::start("unit4", cfg).finish(1);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with(r#"{"kind":"header","experiment":"unit4","schema":1"#));
        let meta = Json::parse(lines.last().expect("meta line")).expect("meta parses");
        assert_eq!(meta.get("kind").and_then(Json::as_str), Some("meta"));
        assert_eq!(meta.get("schema").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn parse_round_trips_rendered_json() {
        let j = Json::obj()
            .field("b", 1u64)
            .field("neg", -3i64)
            .field("a", Json::Arr(vec![Json::Bool(true), Json::Null]))
            .field("x", 0.5f64)
            .field("big", u64::MAX)
            .field("s", "q\"\\\n\t\u{1}π")
            .field("empty_arr", Json::Arr(vec![]))
            .field("empty_obj", Json::obj());
        let parsed = Json::parse(&j.render()).expect("round trip parses");
        assert_eq!(parsed, j);
        // Accessors.
        assert_eq!(parsed.get("b").and_then(Json::as_u64), Some(1));
        assert_eq!(parsed.get("neg").and_then(Json::as_f64), Some(-3.0));
        assert_eq!(parsed.get("missing"), None);
        assert_eq!(Json::Null.get("b"), None);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse(r#"{"a":1,}"#).is_err());
        assert!(Json::parse(r#""unterminated"#).is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn parse_accepts_whitespace_and_scientific_floats() {
        let v = Json::parse(" { \"a\" : [ 1 , 2.5e3 , -7 ] } ").expect("parses");
        let arr = match v.get("a") {
            Some(Json::Arr(items)) => items,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(arr[0], Json::U64(1));
        assert_eq!(arr[1], Json::F64(2500.0));
        assert_eq!(arr[2], Json::I64(-7));
    }
}
