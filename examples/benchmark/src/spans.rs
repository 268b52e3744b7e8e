//! In-memory host-time spans for the traced run, written at exit as a
//! Chrome-trace JSON file (`chrome://tracing`, Perfetto).
//!
//! Each worker thread owns a [`Recorder`]; spans nest through an open
//! stack, so a span's parent is the span open when it started. A job's
//! spans share its job id. Self time is a span's duration minus its
//! children's (children on one thread never overlap).

use std::collections::BTreeMap;
use std::time::Instant;

use unsync_bench::runlog::Json;

/// Job id of spans that belong to no job (pass-level work).
pub const NO_JOB: u64 = u64::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u64,
    pub tid: usize,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span log.
pub struct Recorder {
    epoch: Instant,
    tid: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(epoch: Instant, tid: usize) -> Recorder {
        Recorder {
            epoch,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; it ends at the matching [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, job: u64) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            job,
            tid: self.tid,
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn close(&mut self) {
        let i = self.open.pop().expect("close without open");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, job: u64, f: impl FnOnce() -> T) -> T {
        self.open(name, job);
        let out = f();
        self.close();
        out
    }
}

/// Every thread's spans, parent indices rebased into one list.
pub fn merge(recorders: Vec<Recorder>) -> Vec<Span> {
    let mut all = Vec::new();
    for r in recorders {
        assert!(r.open.is_empty(), "span left open");
        let base = all.len();
        all.extend(r.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Summed duration of each span's direct children.
pub fn child_ns(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.dur_ns();
        }
    }
    child
}

/// Per span name: (calls, total self ns), in name order.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let child = child_ns(spans);
    let mut by_name = BTreeMap::new();
    for (s, c) in spans.iter().zip(&child) {
        let e = by_name.entry(s.name).or_insert((0u64, 0u64));
        e.0 += 1;
        e.1 += s.dur_ns().saturating_sub(*c);
    }
    by_name
}

/// The spans as Chrome-trace JSON: complete (`"X"`) events with
/// host-microsecond timestamps, plus `meta` under `otherData`.
pub fn chrome_trace(spans: &[Span], meta: Json) -> String {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let job = if s.job == NO_JOB {
                Json::Null
            } else {
                Json::U64(s.job)
            };
            Json::obj()
                .field("name", s.name)
                .field("ph", "X")
                .field("ts", s.start_ns as f64 / 1e3)
                .field("dur", s.dur_ns() as f64 / 1e3)
                .field("pid", 1u64)
                .field("tid", s.tid)
                .field(
                    "args",
                    Json::obj()
                        .field("id", i)
                        .field(
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                        )
                        .field("job", job),
                )
        })
        .collect();
    Json::obj()
        .field("traceEvents", Json::Arr(events))
        .field("displayTimeUnit", "ns")
        .field("otherData", meta.field("ts_unit", "host_us"))
        .render()
}
