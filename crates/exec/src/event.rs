//! The structured trace-event stream.
//!
//! Policies emit [`TraceEvent`]s as detection/recovery/compare activity
//! happens; the driver aggregates them into [`OutcomeCore`] counters
//! and publishes them to `unsync_sim::metrics` once per run (never per
//! instruction — the execution loop is the hot path, so the stream is
//! plain per-kind accumulators plus a short ring of recent events).
//!
//! Every event carries a `cycle` stamp: the emitting lane's wall clock
//! at the moment of emission. The driver mirrors the lane clock into
//! the stream (see `crate::LaneState::sync_clock`), so the plain
//! [`EventStream::emit`] / [`EventStream::emit_value`] calls stamp the
//! current cycle for free; policies that know a more precise point (a
//! recovery's stall start, a compare rendezvous) pass it explicitly via
//! [`EventStream::emit_at`]. Stamps are clamped monotone per stream —
//! an explicit cycle below the stream clock is raised to it — so the
//! event sequence is always ordered in time.
//!
//! Two consumers ride on the stamps:
//! * an incremental `crate::spans::SpanTracker` pairs recovery
//!   start/end (and rollback) events into recovery *episodes*, giving
//!   MTTR and detection→recovery latency distributions without keeping
//!   the full event sequence;
//! * an opt-in bounded *journal* ([`EventStream::with_journal`])
//!   retains the full stamped sequence for timeline exports — the ring
//!   alone keeps only the last `RECENT_CAP` (64) events.
//!
//! [`OutcomeCore`]: crate::OutcomeCore

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use unsync_sim::metrics::{Counter, Gauge, Histogram};

use crate::spans::{Episode, SpanStats, SpanTracker};

/// How many recent events the stream retains for inspection.
const RECENT_CAP: usize = 64;

/// Default cap of the opt-in cycle-stamped journal (events per lane).
pub const DEFAULT_JOURNAL_CAP: usize = 65_536;

/// Bucket bounds (cycles) for the recovery-latency histograms every
/// scheme publishes (`<scheme>.recovery_mttr_cycles`,
/// `<scheme>.detection_to_recovery_cycles`).
pub(crate) const LATENCY_HIST_BOUNDS: [f64; 6] =
    [10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0];

/// Bucket bounds (bank index) for the per-bank L2 conflict histogram
/// (`<scheme>.l2_bank_conflicts`): one finite bucket per bank of the
/// widest supported interleave, observations are bank indices, so each
/// bucket's count is that bank's conflict tally.
pub(crate) const L2_BANK_HIST_BOUNDS: [f64; 16] = [
    0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
];

/// One kind of trace event a redundancy scheme can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum TraceEventKind {
    /// An error was detected (hardware block or fingerprint mismatch).
    Detection,
    /// A recovery procedure began.
    RecoveryStart,
    /// A recovery procedure completed; the value is the stall it cost.
    RecoveryEnd,
    /// A rollback re-execution was initiated.
    Rollback,
    /// A fingerprint comparison matched.
    FingerprintMatch,
    /// A fingerprint comparison mismatched.
    FingerprintMismatch,
    /// Entries drained through a communication buffer; the value is the
    /// drain count.
    CbDrain,
    /// Commit cycles lost to a full communication buffer (value).
    CbFullStall,
    /// A fault escaped detection entirely.
    SilentFault,
    /// A strike on a dead value that never needed detection.
    BenignFault,
    /// A strike corrected in place (ECC) — no pair-level recovery.
    CorrectedInPlace,
    /// An event the scheme could not recover from.
    Unrecoverable,
    /// Cycles lost re-synchronizing a lockstepped pair (value).
    CouplingStall,
    /// A majority vote outvoted one replica and repaired it in place
    /// (TMR); the value is the repair stall in cycles.
    Corrected,
    /// A comparison-window boundary was checked (FlexStep-style
    /// granularity schemes); the value is the store-buffer occupancy
    /// observed at the boundary.
    WindowCompared,
    /// A shared-L2 bank conflict stalled this lane's request (contended
    /// L2 model, [`unsync_mem::L2Contention`]); the value is the stall
    /// in cycles.
    L2Contention,
}

/// Every kind, in `repr` order (indexes the accumulator arrays).
const KINDS: [TraceEventKind; 16] = [
    TraceEventKind::Detection,
    TraceEventKind::RecoveryStart,
    TraceEventKind::RecoveryEnd,
    TraceEventKind::Rollback,
    TraceEventKind::FingerprintMatch,
    TraceEventKind::FingerprintMismatch,
    TraceEventKind::CbDrain,
    TraceEventKind::CbFullStall,
    TraceEventKind::SilentFault,
    TraceEventKind::BenignFault,
    TraceEventKind::CorrectedInPlace,
    TraceEventKind::Unrecoverable,
    TraceEventKind::CouplingStall,
    TraceEventKind::Corrected,
    TraceEventKind::WindowCompared,
    TraceEventKind::L2Contention,
];

impl TraceEventKind {
    /// The metric-name suffix this kind publishes under
    /// (`<scheme>.<suffix>` in the registry).
    pub fn metric_suffix(self) -> &'static str {
        match self {
            TraceEventKind::Detection => "detections",
            TraceEventKind::RecoveryStart => "recovery_starts",
            TraceEventKind::RecoveryEnd => "recoveries",
            TraceEventKind::Rollback => "rollbacks",
            TraceEventKind::FingerprintMatch => "fingerprint_matches",
            TraceEventKind::FingerprintMismatch => "mismatches",
            TraceEventKind::CbDrain => "cb_drained",
            TraceEventKind::CbFullStall => "cb_full_stall_cycles",
            TraceEventKind::SilentFault => "silent_faults",
            TraceEventKind::BenignFault => "benign_faults",
            TraceEventKind::CorrectedInPlace => "corrected_in_place",
            TraceEventKind::Unrecoverable => "unrecoverable",
            TraceEventKind::CouplingStall => "coupling_stall_cycles",
            TraceEventKind::Corrected => "corrections",
            TraceEventKind::WindowCompared => "window_compares",
            TraceEventKind::L2Contention => "l2_contention_stall_cycles",
        }
    }

    /// Whether the metric publishes the summed values (`CbDrain`,
    /// stall-cycle kinds) rather than the occurrence count.
    pub(crate) fn publishes_sum(self) -> bool {
        matches!(
            self,
            TraceEventKind::CbDrain
                | TraceEventKind::CbFullStall
                | TraceEventKind::CouplingStall
                | TraceEventKind::L2Contention
        )
    }
}

/// A scheme's counter handles, resolved against the global registry
/// once and reused for every publish of that scheme. Registry handles
/// are update-lock-free, so caching them removes the per-run
/// `format!` + registry lock per kind that [`EventStream::publish`]
/// (and the driver's run/instruction/cycle counters) used to pay.
pub(crate) struct SchemeCounters {
    /// One counter per [`TraceEventKind`], in `repr` order.
    pub(crate) kinds: [Counter; KINDS.len()],
    /// `<scheme>.recovery_stall_cycles`.
    pub(crate) recovery_stall: Counter,
    /// `<scheme>.window_occupancy_sum` — the summed store-buffer
    /// occupancies observed at comparison-window boundaries
    /// (`WindowCompared` publishes its count under `window_compares`;
    /// the sum would otherwise be lost).
    pub(crate) window_occupancy: Counter,
    /// `<scheme>.runs`.
    pub(crate) runs: Counter,
    /// `<scheme>.instructions`.
    pub(crate) instructions: Counter,
    /// `<scheme>.cycles`.
    pub(crate) cycles: Counter,
    /// `<scheme>.recovery_mttr_cycles` — one observation per recovery
    /// episode (its stall).
    pub(crate) mttr: Histogram,
    /// `<scheme>.detection_to_recovery_cycles` — one observation per
    /// episode with a preceding detection stamp.
    pub(crate) detect_latency: Histogram,
    /// `<scheme>.l2_bank_conflicts` — one observation per recorded
    /// bank-conflict stall, valued at the conflicted bank's index, so
    /// the bucket profile is the per-bank occupancy-pressure histogram
    /// the dashboard renders.
    pub(crate) l2_banks: Histogram,
    /// `<scheme>.l2_bank_stalls` — the stall-cycle companion of
    /// `l2_banks`: one pre-aggregated observation batch per bank,
    /// valued at the bank index and weighted by the cycles requests
    /// spent waiting on that bank, so each bucket's count is the bank's
    /// total stall cycles (the dashboard's per-bank occupancy column).
    pub(crate) l2_bank_stalls: Histogram,
    /// `<scheme>.recovery_overlap_fraction`, registered by the first
    /// run of the scheme.
    recovery_overlap: OnceLock<Gauge>,
}

impl SchemeCounters {
    /// Sets `<scheme>.recovery_overlap_fraction` (see
    /// `crate::spans::overlap_fraction`); `scheme` names the metric on
    /// first use only.
    pub(crate) fn set_recovery_overlap(&self, scheme: &str, fraction: f64) {
        self.recovery_overlap
            .get_or_init(|| {
                unsync_sim::metrics::global().gauge(&format!("{scheme}.recovery_overlap_fraction"))
            })
            .set(fraction);
    }
}

/// The (cached) counter handles for `scheme`.
pub(crate) fn scheme_counters(scheme: &str) -> Arc<SchemeCounters> {
    static CACHE: OnceLock<Mutex<HashMap<String, Arc<SchemeCounters>>>> = OnceLock::new();
    let mut cache = CACHE
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("scheme counter cache poisoned");
    if let Some(c) = cache.get(scheme) {
        return Arc::clone(c);
    }
    let m = unsync_sim::metrics::global();
    let c = Arc::new(SchemeCounters {
        kinds: KINDS.map(|k| m.counter(&format!("{scheme}.{}", k.metric_suffix()))),
        recovery_stall: m.counter(&format!("{scheme}.recovery_stall_cycles")),
        window_occupancy: m.counter(&format!("{scheme}.window_occupancy_sum")),
        runs: m.counter(&format!("{scheme}.runs")),
        instructions: m.counter(&format!("{scheme}.instructions")),
        cycles: m.counter(&format!("{scheme}.cycles")),
        mttr: m.histogram(
            &format!("{scheme}.recovery_mttr_cycles"),
            &LATENCY_HIST_BOUNDS,
        ),
        detect_latency: m.histogram(
            &format!("{scheme}.detection_to_recovery_cycles"),
            &LATENCY_HIST_BOUNDS,
        ),
        l2_banks: m.histogram(&format!("{scheme}.l2_bank_conflicts"), &L2_BANK_HIST_BOUNDS),
        l2_bank_stalls: m.histogram(&format!("{scheme}.l2_bank_stalls"), &L2_BANK_HIST_BOUNDS),
        recovery_overlap: OnceLock::new(),
    });
    cache.insert(scheme.to_string(), Arc::clone(&c));
    c
}

/// One emitted event: the kind, its value payload (a stall length, a
/// drain count — `0` for pure occurrences), and the emitting lane's
/// cycle stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: TraceEventKind,
    /// The event's value payload (kind-specific; `0` for occurrences).
    pub value: u64,
    /// The emitting lane's wall clock when the event was emitted.
    pub cycle: u64,
}

/// The opt-in full-event journal: the first `cap` events, plus a count
/// of how many were dropped once full (the prefix is kept — recovery
/// episodes cluster early around injected faults, and a truncated tail
/// is detectable through [`EventStream::journal_dropped`]).
#[derive(Debug, Clone)]
struct Journal {
    events: Vec<TraceEvent>,
    cap: usize,
    dropped: u64,
}

impl Journal {
    fn new(cap: usize) -> Self {
        Journal {
            events: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }
}

/// Per-kind accumulators plus a bounded ring of the most recent events,
/// a recovery-span tracker, and (opt-in) the full stamped journal.
#[derive(Debug, Clone)]
pub struct EventStream {
    counts: [u64; KINDS.len()],
    sums: [u64; KINDS.len()],
    recent: Vec<TraceEvent>,
    next: usize,
    /// The stream clock: the emitting lane's wall clock, mirrored in by
    /// the driver; stamps are clamped to never run backwards.
    clock: u64,
    journal: Option<Journal>,
    spans: SpanTracker,
}

impl Default for EventStream {
    fn default() -> Self {
        Self::new()
    }
}

/// Two streams are equal when their *observable emission history*
/// agrees: per-kind counts and sums, the recent-event ring in emission
/// order, the stream clock, and the paired recovery episodes. The
/// opt-in journal is deliberately excluded — two identical executions
/// must compare equal whether or not journaling was on.
impl PartialEq for EventStream {
    fn eq(&self, other: &Self) -> bool {
        self.counts == other.counts
            && self.sums == other.sums
            && self.clock == other.clock
            && self.recent().eq(other.recent())
            && self.episodes() == other.episodes()
    }
}

impl EventStream {
    /// An empty stream, without a journal.
    pub(crate) fn new() -> Self {
        EventStream {
            counts: [0; KINDS.len()],
            sums: [0; KINDS.len()],
            recent: Vec::new(),
            next: 0,
            clock: 0,
            journal: None,
            spans: SpanTracker::default(),
        }
    }

    /// An empty stream with a journal of at most `cap` events.
    pub fn with_journal(cap: usize) -> Self {
        EventStream {
            journal: Some(Journal::new(cap)),
            ..Self::new()
        }
    }

    /// Records an occurrence of `kind` at the current stream clock.
    pub fn emit(&mut self, kind: TraceEventKind) {
        self.emit_at(kind, 0, self.clock);
    }

    /// Records an occurrence of `kind` carrying `value` (a stall
    /// length, a drain count, …) at the current stream clock.
    pub fn emit_value(&mut self, kind: TraceEventKind, value: u64) {
        self.emit_at(kind, value, self.clock);
    }

    /// Records an occurrence of `kind` carrying `value`, stamped at
    /// `cycle` (clamped to the stream clock so stamps stay monotone;
    /// the clock is raised to the stamp).
    pub fn emit_at(&mut self, kind: TraceEventKind, value: u64, cycle: u64) {
        let cycle = cycle.max(self.clock);
        self.clock = cycle;
        let k = kind as usize;
        self.counts[k] += 1;
        self.sums[k] += value;
        let ev = TraceEvent { kind, value, cycle };
        self.spans.observe(&ev);
        if let Some(j) = &mut self.journal {
            j.push(ev);
        }
        if self.recent.len() < RECENT_CAP {
            self.recent.push(ev);
        } else {
            self.recent[self.next] = ev;
            self.next = (self.next + 1) % RECENT_CAP;
        }
    }

    /// Raises the stream clock to `cycle` (never lowers it). The driver
    /// mirrors the lane clock here after every point that can advance
    /// an engine, so plain [`emit`](EventStream::emit) stamps the
    /// current cycle.
    pub(crate) fn set_clock(&mut self, cycle: u64) {
        self.clock = self.clock.max(cycle);
    }

    /// The stream clock (the stamp the next plain `emit` would carry).
    pub(crate) fn clock(&self) -> u64 {
        self.clock
    }

    /// How many events of `kind` were emitted.
    pub fn count(&self, kind: TraceEventKind) -> u64 {
        self.counts[kind as usize]
    }

    /// The summed value payloads of `kind`.
    pub fn sum(&self, kind: TraceEventKind) -> u64 {
        self.sums[kind as usize]
    }

    /// How many events were emitted, of every kind.
    pub(crate) fn emitted(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The most recent events, oldest first (bounded ring).
    pub fn recent(&self) -> impl Iterator<Item = &TraceEvent> {
        let (tail, head) = self.recent.split_at(self.next.min(self.recent.len()));
        head.iter().chain(tail.iter())
    }

    /// The full stamped event journal, oldest first — `None` unless
    /// the stream was built by [`EventStream::with_journal`].
    pub fn journal(&self) -> Option<&[TraceEvent]> {
        self.journal.as_ref().map(|j| j.events.as_slice())
    }

    /// How many events overflowed the journal cap (0 when disabled).
    pub fn journal_dropped(&self) -> u64 {
        self.journal.as_ref().map_or(0, |j| j.dropped)
    }

    /// The recovery episodes paired so far (see [`crate::spans`]).
    pub fn episodes(&self) -> &[Episode] {
        self.spans.episodes()
    }

    /// Span-derived summary statistics over [`EventStream::episodes`].
    pub fn span_stats(&self) -> SpanStats {
        SpanStats::from_episodes(self.episodes())
    }

    /// Publishes every non-zero kind to the metrics registry under
    /// `<scheme>.<suffix>`, through the per-scheme handle cache.
    pub fn publish(&self, scheme: &str) {
        self.publish_to(&scheme_counters(scheme));
    }

    /// [`EventStream::publish`] into already-resolved handles (the
    /// driver resolves a scheme's handles once per run).
    pub(crate) fn publish_to(&self, c: &SchemeCounters) {
        for kind in KINDS {
            let k = kind as usize;
            if self.counts[k] == 0 {
                continue;
            }
            let v = if kind.publishes_sum() {
                self.sums[k]
            } else {
                self.counts[k]
            };
            c.kinds[k].add(v);
        }
        // Recoveries publish both the count (above) and the stall total.
        let stall = self.sum(TraceEventKind::RecoveryEnd);
        if stall > 0 {
            c.recovery_stall.add(stall);
        }
        // Window compares publish count (above) and occupancy sum.
        let occupancy = self.sum(TraceEventKind::WindowCompared);
        if occupancy > 0 {
            c.window_occupancy.add(occupancy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `recent()` yields oldest-first at every fill level around the
    /// ring's wrap boundary.
    #[test]
    fn ring_orders_oldest_first_across_the_wrap() {
        for total in [
            RECENT_CAP - 1,
            RECENT_CAP,
            RECENT_CAP + 1,
            3 * RECENT_CAP + 5,
        ] {
            let mut ev = EventStream::new();
            for i in 0..total {
                ev.emit_value(TraceEventKind::Detection, i as u64);
            }
            let got: Vec<u64> = ev.recent().map(|e| e.value).collect();
            let expect_len = total.min(RECENT_CAP);
            let first = total - expect_len;
            let want: Vec<u64> = (first..total).map(|i| i as u64).collect();
            assert_eq!(got, want, "total={total}");
        }
    }

    #[test]
    fn stamps_follow_the_stream_clock_and_stay_monotone() {
        let mut ev = EventStream::new();
        ev.emit(TraceEventKind::Detection); // clock 0
        ev.set_clock(100);
        ev.emit_value(TraceEventKind::CbDrain, 3); // clock 100
        ev.emit_at(TraceEventKind::RecoveryStart, 0, 150);
        // An explicit stamp below the clock is clamped up, not reordered.
        ev.emit_at(TraceEventKind::RecoveryEnd, 60, 90);
        ev.set_clock(40); // never lowers
        ev.emit(TraceEventKind::SilentFault);
        let stamps: Vec<u64> = ev.recent().map(|e| e.cycle).collect();
        assert_eq!(stamps, vec![0, 100, 150, 150, 150]);
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(ev.clock(), 150);
    }

    #[test]
    fn journal_keeps_the_bounded_prefix_and_counts_drops() {
        let mut ev = EventStream::with_journal(4);
        for i in 0..6u64 {
            ev.emit_value(TraceEventKind::Rollback, i);
        }
        let j = ev.journal().expect("journal on");
        assert_eq!(j.len(), 4);
        assert_eq!(j.iter().map(|e| e.value).collect::<Vec<_>>(), [0, 1, 2, 3]);
        assert_eq!(ev.journal_dropped(), 2);
        // Accumulators still saw everything.
        assert_eq!(ev.count(TraceEventKind::Rollback), 6);
    }

    #[test]
    fn journal_disabled_by_default_in_tests() {
        // A plain stream keeps no journal; the ring and accumulators
        // must be unaffected by journal mode being off.
        let mut ev = EventStream::new();
        ev.emit(TraceEventKind::Detection);
        assert!(ev.journal().is_none());
        assert_eq!(ev.journal_dropped(), 0);
        assert_eq!(ev.count(TraceEventKind::Detection), 1);
    }

    #[test]
    fn spans_pair_recovery_events_inline() {
        let mut ev = EventStream::new();
        ev.set_clock(10);
        ev.emit(TraceEventKind::Detection);
        ev.emit_at(TraceEventKind::RecoveryStart, 0, 25);
        ev.emit_at(TraceEventKind::RecoveryEnd, 90, 100);
        let eps = ev.episodes();
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].detect, Some(10));
        assert_eq!(eps[0].start, 25);
        assert_eq!(eps[0].end, 100);
        assert_eq!(eps[0].stall, 90);
        assert_eq!(ev.span_stats().episodes, 1);
    }
}
