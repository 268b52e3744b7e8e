//! The cycle-domain timeline model and its two renderers.
//!
//! A [`Timeline`] is assembled from the cycle-stamped sources a run
//! already produces — the event journal (`RedundantDriver::with_journal`),
//! recovery [`Episode`]s, the driver's per-bank
//! [`unsync_mem::L2ContentionEvent`]s, and the uncore strike schedule —
//! and rendered either as Chrome Trace Event Format JSON
//! ([`Timeline::chrome_trace`], loadable in Perfetto /
//! `chrome://tracing`) or as a textual swimlane + episode table
//! ([`Timeline::render_summary`], which `trace_export` prints).
//!
//! Track layout of the Chrome export:
//!
//! * pid 1 ("lanes") — one thread per lane; recovery episodes as
//!   `"B"`/`"E"` duration events, every other journal event as an
//!   instant (`"i"`).
//! * pid 2 ("uncore") — tid 0 carries uncore strike instants, tid 1 the
//!   cumulative per-bank `l2_bank_conflicts` counter (`"C"` events),
//!   tid 2 the checkpoint-buffer drain instants of all lanes.
//!
//! One trace `ts` unit is one simulated cycle. Every number in the
//! export is an integer from the cycle domain, so a same-seed rerun
//! renders a **byte-identical** file (pinned by
//! `tests/timeline_export.rs`).

use unsync_exec::spans::Episode;
use unsync_exec::{EventStream, RunResult, TraceEventKind};
use unsync_fault::uncore::UncoreStrike;
use unsync_mem::L2ContentionEvent;

/// One instantaneous journal event on a lane track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TimelineInstant {
    /// What happened.
    pub(crate) kind: TraceEventKind,
    /// Cycle stamp.
    pub(crate) cycle: u64,
    /// The event's value payload (stall length, occupancy, …).
    pub(crate) value: u64,
}

/// One uncore strike on the uncore track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrikeMark {
    /// The struck lane.
    pub(crate) lane: usize,
    /// Strike cycle.
    pub(crate) cycle: u64,
    /// Label of the struck structure (`UncoreTarget::label`).
    pub(crate) target: &'static str,
    /// Struck bit offset within the structure.
    pub(crate) bit_offset: u64,
    /// Whether the strike was importance-sampled onto live state.
    pub(crate) directed: bool,
}

/// One bank-conflict stall on the L2-banks counter track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankConflictMark {
    /// The requesting lane.
    pub(crate) lane: usize,
    /// The contended bank.
    pub(crate) bank: usize,
    /// Cycle the request arrived at the occupied bank.
    pub(crate) cycle: u64,
    /// Cycles the request waited for the port.
    pub(crate) stall: u64,
}

/// One lane's cycle-domain history.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneTimeline {
    /// Lane index (track id).
    pub(crate) lane: usize,
    /// The lane's final cycle (track extent).
    pub(crate) cycles: u64,
    /// Recovery episodes, time-ordered and non-overlapping per lane.
    pub episodes: Vec<Episode>,
    /// Instantaneous events (journal order). Recovery start/end pairs
    /// live in [`LaneTimeline::episodes`], checkpoint-buffer drains in
    /// [`LaneTimeline::cb_drains`], bank conflicts on the counter
    /// track — none of those are duplicated here.
    pub(crate) instants: Vec<TimelineInstant>,
    /// Checkpoint-buffer drain events, rendered on the shared CB track.
    pub(crate) cb_drains: Vec<TimelineInstant>,
}

/// The assembled cycle-domain timeline of one (multi-lane) run.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Display name (run or experiment name).
    pub(crate) name: String,
    /// One entry per lane, in lane order.
    pub lanes: Vec<LaneTimeline>,
    /// Uncore strikes across all lanes.
    pub strikes: Vec<StrikeMark>,
    /// Bank-conflict stalls across all lanes.
    pub bank_conflicts: Vec<BankConflictMark>,
}

impl Timeline {
    /// An empty timeline named `name`.
    pub fn new(name: &str) -> Self {
        Timeline {
            name: name.to_string(),
            lanes: Vec::new(),
            strikes: Vec::new(),
            bank_conflicts: Vec::new(),
        }
    }

    /// Builds the whole timeline of a system run: one lane per
    /// [`RunResult`] plus the uncore strike schedule that was delivered
    /// to it (`strikes[p]` hit lane `p`; pass `&[]` for none).
    pub fn from_results(name: &str, results: &[RunResult], strikes: &[Vec<UncoreStrike>]) -> Self {
        let mut tl = Timeline::new(name);
        for (lane, r) in results.iter().enumerate() {
            tl.add_run(lane, r);
        }
        for sched in strikes {
            tl.add_strikes(sched);
        }
        tl
    }

    /// Adds one lane from its event stream: episodes from the inline
    /// span tracker, instants from the journal (falling back to the
    /// recent-events ring when no journal was kept — a truncated but
    /// still valid track).
    pub(crate) fn add_lane(&mut self, lane: usize, events: &EventStream, cycles: u64) {
        let mut instants = Vec::new();
        let mut cb_drains = Vec::new();
        let source: Vec<(TraceEventKind, u64, u64)> = match events.journal() {
            Some(j) => j.iter().map(|e| (e.kind, e.cycle, e.value)).collect(),
            None => events
                .recent()
                .map(|e| (e.kind, e.cycle, e.value))
                .collect(),
        };
        for (kind, cycle, value) in source {
            let instant = TimelineInstant { kind, cycle, value };
            match kind {
                // Recovery pairs become the lane's duration events.
                TraceEventKind::RecoveryStart | TraceEventKind::RecoveryEnd => {}
                // Bank conflicts live on the counter track (the journal
                // entry has lost the bank index anyway).
                TraceEventKind::L2Contention => {}
                TraceEventKind::CbDrain => cb_drains.push(instant),
                _ => instants.push(instant),
            }
        }
        self.lanes.push(LaneTimeline {
            lane,
            cycles,
            episodes: events.episodes().to_vec(),
            instants,
            cb_drains,
        });
    }

    /// Adds one lane from a completed [`RunResult`]: the event stream
    /// plus the run's bank-conflict events (which keep the bank index).
    pub fn add_run(&mut self, lane: usize, result: &RunResult) {
        self.add_lane(lane, &result.events, result.out.cycles);
        self.add_l2_events(lane, &result.l2_events);
    }

    /// Adds bank-conflict events attributed to `lane`.
    pub(crate) fn add_l2_events(&mut self, lane: usize, events: &[L2ContentionEvent]) {
        for e in events {
            self.bank_conflicts.push(BankConflictMark {
                lane,
                bank: e.bank,
                cycle: e.cycle,
                stall: e.stall,
            });
        }
    }

    /// Adds uncore strikes (each mark keeps its schedule's lane).
    pub(crate) fn add_strikes(&mut self, strikes: &[UncoreStrike]) {
        for s in strikes {
            self.strikes.push(StrikeMark {
                lane: s.lane,
                cycle: s.cycle,
                target: s.site.target.label(),
                bit_offset: s.site.bit_offset,
                directed: s.directed,
            });
        }
    }

    /// The last cycle on any track.
    pub fn end_cycle(&self) -> u64 {
        let lanes = self.lanes.iter().map(|l| l.cycles).max().unwrap_or(0);
        let strikes = self.strikes.iter().map(|s| s.cycle).max().unwrap_or(0);
        lanes.max(strikes)
    }

    /// Total episodes across all lanes.
    pub fn episode_count(&self) -> usize {
        self.lanes.iter().map(|l| l.episodes.len()).sum()
    }

    /// Renders the timeline as Chrome Trace Event Format JSON (the
    /// JSON-object form: `traceEvents` + metadata). Deterministic: the
    /// output is a pure function of the cycle-domain model, every
    /// number an integer, so same-seed reruns are byte-identical.
    pub fn chrome_trace(&self) -> String {
        let mut ev: Vec<String> = Vec::new();
        // Track metadata first: process names, then thread names in
        // fixed track order.
        ev.push(meta_event("process_name", 1, 0, "lanes (cycle domain)"));
        ev.push(meta_event("process_name", 2, 0, "uncore (cycle domain)"));
        for l in &self.lanes {
            ev.push(meta_event(
                "thread_name",
                1,
                l.lane as u64,
                &format!("lane {}", l.lane),
            ));
        }
        ev.push(meta_event("thread_name", 2, 0, "uncore strikes"));
        ev.push(meta_event("thread_name", 2, 1, "l2 banks"));
        ev.push(meta_event("thread_name", 2, 2, "checkpoint buffer"));

        for l in &self.lanes {
            let tid = l.lane as u64;
            for ep in &l.episodes {
                let detect = ep
                    .detect
                    .map(|d| format!("\"detect\":{d},"))
                    .unwrap_or_default();
                ev.push(format!(
                    "{{\"name\":\"recovery\",\"cat\":\"recovery\",\"ph\":\"B\",\"ts\":{},\
                     \"pid\":1,\"tid\":{tid},\"args\":{{{detect}\"stall\":{},\"rollbacks\":{}}}}}",
                    ep.start, ep.stall, ep.rollbacks
                ));
                ev.push(format!(
                    "{{\"name\":\"recovery\",\"ph\":\"E\",\"ts\":{},\"pid\":1,\"tid\":{tid}}}",
                    ep.end
                ));
            }
            for i in &l.instants {
                ev.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"event\",\"ph\":\"i\",\"ts\":{},\"pid\":1,\
                     \"tid\":{tid},\"s\":\"t\",\"args\":{{\"value\":{}}}}}",
                    esc(i.kind.metric_suffix()),
                    i.cycle,
                    i.value
                ));
            }
            for c in &l.cb_drains {
                ev.push(format!(
                    "{{\"name\":\"cb_drain\",\"cat\":\"cb\",\"ph\":\"i\",\"ts\":{},\"pid\":2,\
                     \"tid\":2,\"s\":\"t\",\"args\":{{\"lane\":{},\"value\":{}}}}}",
                    c.cycle, l.lane, c.value
                ));
            }
        }
        for s in &self.strikes {
            ev.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"strike\",\"ph\":\"i\",\"ts\":{},\"pid\":2,\
                 \"tid\":0,\"s\":\"p\",\"args\":{{\"lane\":{},\"bit_offset\":{},\"directed\":{}}}}}",
                esc(s.target),
                s.cycle,
                s.lane,
                s.bit_offset,
                s.directed
            ));
        }
        // Counter events want non-decreasing ts: sort a copy by
        // (cycle, lane, bank, stall) — a total, deterministic key —
        // and accumulate per-bank conflict counts in that order.
        let mut conflicts = self.bank_conflicts.clone();
        conflicts.sort_by_key(|c| (c.cycle, c.lane, c.bank, c.stall));
        let max_bank = conflicts.iter().map(|c| c.bank).max();
        let mut cumulative = vec![0u64; max_bank.map_or(0, |b| b + 1)];
        for c in &conflicts {
            cumulative[c.bank] += 1;
            ev.push(format!(
                "{{\"name\":\"l2_bank_conflicts\",\"ph\":\"C\",\"ts\":{},\"pid\":2,\"tid\":1,\
                 \"args\":{{\"bank{}\":{}}}}}",
                c.cycle, c.bank, cumulative[c.bank]
            ));
        }

        let mut out = String::from("{\"traceEvents\":[");
        out.push_str(&ev.join(","));
        out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":{");
        out.push_str(&format!(
            "\"name\":\"{}\",\"lanes\":{},\"end_cycle\":{},\"episodes\":{},\"strikes\":{},\
             \"bank_conflicts\":{},\"ts_unit\":\"cycle\"",
            esc(&self.name),
            self.lanes.len(),
            self.end_cycle(),
            self.episode_count(),
            self.strikes.len(),
            self.bank_conflicts.len()
        ));
        out.push_str("}}\n");
        out
    }

    /// Renders a fixed-width textual swimlane: one row per lane, one
    /// column per `end_cycle / width` cycles. `#` marks recovery
    /// episodes, `D` detections, `S` uncore strikes, `!` bank
    /// conflicts, `.` idle; later marks in that priority order win a
    /// contended column.
    pub(crate) fn render_swimlane(&self, width: usize) -> String {
        let width = width.max(8);
        let end = self.end_cycle().max(1);
        let col =
            |cycle: u64| (cycle.min(end) as u128 * (width as u128 - 1) / end as u128) as usize;
        let mut out = String::new();
        for l in &self.lanes {
            let mut row = vec![b'.'; width];
            for c in self.bank_conflicts.iter().filter(|c| c.lane == l.lane) {
                row[col(c.cycle)] = b'!';
            }
            for ep in &l.episodes {
                row[col(ep.start)..=col(ep.end)].fill(b'#');
            }
            for i in &l.instants {
                if i.kind == TraceEventKind::Detection {
                    row[col(i.cycle)] = b'D';
                }
            }
            for s in self.strikes.iter().filter(|s| s.lane == l.lane) {
                row[col(s.cycle)] = b'S';
            }
            out.push_str(&format!(
                "lane {:>3} |{}| {} episodes\n",
                l.lane,
                String::from_utf8(row).expect("ASCII swimlane"),
                l.episodes.len()
            ));
        }
        out
    }

    /// Renders the per-episode table (one row per recovery episode,
    /// lane-major).
    pub(crate) fn render_episode_table(&self) -> String {
        let mut out =
            String::from("lane    detect     start       end  duration     stall  rollbacks\n");
        for l in &self.lanes {
            for ep in &l.episodes {
                let detect = ep
                    .detect
                    .map(|d| d.to_string())
                    .unwrap_or_else(|| "-".to_string());
                out.push_str(&format!(
                    "{:>4}  {:>8}  {:>8}  {:>8}  {:>8}  {:>8}  {:>9}\n",
                    l.lane,
                    detect,
                    ep.start,
                    ep.end,
                    ep.duration(),
                    ep.stall,
                    ep.rollbacks
                ));
            }
        }
        out
    }

    /// The full textual summary: header, swimlane, episode table, and
    /// strike/conflict totals — what `trace_export` prints, rendered
    /// from the same model as the Chrome export.
    pub fn render_summary(&self, width: usize) -> String {
        let mut out = format!(
            "timeline '{}': {} lanes, end cycle {}, {} episodes, {} strikes, {} bank conflicts\n",
            self.name,
            self.lanes.len(),
            self.end_cycle(),
            self.episode_count(),
            self.strikes.len(),
            self.bank_conflicts.len()
        );
        out.push_str("legend: # recovery  D detection  S uncore strike  ! bank conflict\n");
        out.push_str(&self.render_swimlane(width));
        if self.episode_count() > 0 {
            out.push('\n');
            out.push_str(&self.render_episode_table());
        }
        out
    }
}

/// One `"M"` (metadata) trace event naming a process or thread.
fn meta_event(kind: &str, pid: u64, tid: u64, name: &str) -> String {
    format!(
        "{{\"name\":\"{kind}\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
         \"args\":{{\"name\":\"{}\"}}}}",
        esc(name)
    )
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_with_episode() -> EventStream {
        let mut ev = EventStream::with_journal(64);
        ev.emit_at(TraceEventKind::Detection, 0, 100);
        ev.emit_at(TraceEventKind::RecoveryStart, 0, 110);
        ev.emit_at(TraceEventKind::RecoveryEnd, 40, 150);
        ev.emit_at(TraceEventKind::CbDrain, 3, 200);
        ev
    }

    #[test]
    fn lanes_split_journal_events_by_track() {
        let ev = stream_with_episode();
        let mut tl = Timeline::new("unit");
        tl.add_lane(0, &ev, 250);
        let lane = &tl.lanes[0];
        assert_eq!(lane.episodes.len(), 1);
        assert_eq!(lane.episodes[0].start, 110);
        assert_eq!(lane.episodes[0].end, 150);
        assert_eq!(
            lane.instants.len(),
            1,
            "detection only: {:?}",
            lane.instants
        );
        assert_eq!(lane.instants[0].kind, TraceEventKind::Detection);
        assert_eq!(lane.cb_drains.len(), 1);
        assert_eq!(tl.end_cycle(), 250);
    }

    #[test]
    fn chrome_trace_is_deterministic_and_structured() {
        let build = || {
            let ev = stream_with_episode();
            let mut tl = Timeline::new("unit");
            tl.add_lane(0, &ev, 250);
            tl.add_l2_events(
                0,
                &[L2ContentionEvent {
                    core: 0,
                    bank: 3,
                    cycle: 120,
                    stall: 4,
                }],
            );
            tl
        };
        let a = build().chrome_trace();
        assert_eq!(a, build().chrome_trace(), "export must be byte-identical");
        assert!(a.contains("\"ph\":\"B\"") && a.contains("\"ph\":\"E\""));
        assert!(a.contains("\"name\":\"recovery\""));
        assert!(a.contains("\"name\":\"l2_bank_conflicts\""));
        assert!(a.contains("\"bank3\":1"));
        assert!(a.contains("\"thread_name\""));
        assert!(a.ends_with("}\n"));
    }

    #[test]
    fn empty_timeline_renders_a_valid_trace() {
        let tl = Timeline::new("empty");
        let json = tl.chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"lanes\":0"));
        assert_eq!(tl.end_cycle(), 0);
        assert!(tl.render_summary(40).contains("0 lanes"));
    }

    #[test]
    fn swimlane_marks_follow_priority() {
        let ev = stream_with_episode();
        let mut tl = Timeline::new("unit");
        tl.add_lane(0, &ev, 250);
        let lane = tl.render_swimlane(50);
        assert!(lane.contains('#'), "{lane}");
        assert!(lane.contains('D'), "{lane}");
        assert!(lane.contains("1 episodes"), "{lane}");
        let table = tl.render_episode_table();
        assert!(table.contains("110"), "{table}");
        assert!(table.contains("40"), "{table}");
    }
}
