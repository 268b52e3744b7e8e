//! Recovery-episode spans derived from the trace-event stream.
//!
//! Counters answer "how many recoveries, how many cycles total"; the
//! questions the related work actually evaluates — MEEK and FlexStep
//! both report detection/recovery *latency distributions*, and the
//! paper's always-forward-recovery claim is a claim about the *tail*
//! of recovery stalls — need per-episode timing. This module pairs the
//! cycle-stamped [`TraceEvent`]s into [`Episode`]s:
//!
//! * `RecoveryStart` opens an episode (adopting the stamp of the most
//!   recent unconsumed `Detection` as its detection point);
//! * `RecoveryEnd` closes it (the event's value is the stall cost); a
//!   bare `RecoveryEnd` synthesizes the episode from its stall value —
//!   schemes that emit only the end marker still produce spans;
//! * `Rollback` inside an open episode counts a retry; a bare
//!   `Rollback` (Reunion, FlexStep — rollback *is* the recovery, and
//!   its re-execution cost is carried by the retried segment, not an
//!   explicit stall event) becomes a zero-stall episode so episode
//!   counts and detection→recovery latencies still line up.
//!
//! `SpanTracker` does this incrementally inside
//! [`crate::EventStream`] — O(1) state per open episode, no dependence
//! on the bounded ring or the opt-in journal — and the pure
//! [`episodes_from`] runs the same pairing over any stored event
//! sequence (e.g. a journal replay). [`SpanStats`] summarizes a run;
//! [`overlap_fraction`] measures how much recovery time overlaps across
//! lanes of a multi-pair system.

use crate::event::{TraceEvent, TraceEventKind};

/// Hard cap on retained episodes — far above any real fault campaign
/// (one episode per injected fault); overflow is dropped, not grown.
const EPISODE_CAP: usize = 65_536;

/// One recovery episode: from the cycle recovery began to the cycle
/// the lane resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Episode {
    /// Stamp of the detection that triggered this episode, if one was
    /// observed since the previous episode closed.
    pub detect: Option<u64>,
    /// Cycle the recovery procedure began.
    pub start: u64,
    /// Cycle the lane resumed.
    pub end: u64,
    /// Rollback re-executions attributed to this episode.
    pub rollbacks: u64,
    /// The stall cost the scheme reported (the `RecoveryEnd` value; 0
    /// for synthesized rollback episodes, whose cost is re-execution).
    pub stall: u64,
}

impl Episode {
    /// Wall-clock cycles from recovery start to resume.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Cycles from the triggering detection to recovery start (`None`
    /// when no detection stamp was attached).
    pub(crate) fn detection_latency(&self) -> Option<u64> {
        self.detect.map(|d| self.start.saturating_sub(d))
    }
}

/// Incremental episode builder — fed one event at a time (the
/// [`crate::EventStream`] calls [`SpanTracker::observe`] from its emit
/// path; everything except detection/recovery/rollback kinds is
/// ignored, so the hot path pays one match).
#[derive(Debug, Clone, Default)]
pub(crate) struct SpanTracker {
    pending_detect: Option<u64>,
    open: Option<Episode>,
    episodes: Vec<Episode>,
}

impl SpanTracker {
    /// Folds one event into the span state machine.
    pub(crate) fn observe(&mut self, ev: &TraceEvent) {
        match ev.kind {
            TraceEventKind::Detection => {
                // Keep the earliest unconsumed detection: the episode's
                // latency measures from the first trigger.
                self.pending_detect.get_or_insert(ev.cycle);
            }
            TraceEventKind::RecoveryStart => {
                if let Some(stale) = self.open.take() {
                    // Malformed pairing (start without end): close the
                    // stale episode at this stamp rather than lose it.
                    self.push(Episode {
                        end: ev.cycle,
                        ..stale
                    });
                }
                self.open = Some(Episode {
                    detect: self.pending_detect.take(),
                    start: ev.cycle,
                    end: ev.cycle,
                    rollbacks: 0,
                    stall: 0,
                });
            }
            TraceEventKind::RecoveryEnd => {
                let ep = match self.open.take() {
                    Some(ep) => Episode {
                        end: ev.cycle,
                        stall: ev.value,
                        ..ep
                    },
                    // Bare end marker: reconstruct the start from the
                    // stall value.
                    None => Episode {
                        detect: self.pending_detect.take(),
                        start: ev.cycle.saturating_sub(ev.value),
                        end: ev.cycle,
                        rollbacks: 0,
                        stall: ev.value,
                    },
                };
                self.push(ep);
            }
            TraceEventKind::Rollback => match &mut self.open {
                Some(ep) => ep.rollbacks += 1,
                None => {
                    let ep = Episode {
                        detect: self.pending_detect.take(),
                        start: ev.cycle,
                        end: ev.cycle,
                        rollbacks: 1,
                        stall: ev.value,
                    };
                    self.push(ep);
                }
            },
            _ => {}
        }
    }

    fn push(&mut self, ep: Episode) {
        if self.episodes.len() < EPISODE_CAP {
            self.episodes.push(ep);
        }
    }

    /// The episodes closed so far, in order.
    pub(crate) fn episodes(&self) -> &[Episode] {
        &self.episodes
    }
}

/// Pairs a stored event sequence (journal, ring) into episodes — the
/// same state machine [`crate::EventStream`] runs inline.
pub fn episodes_from<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> Vec<Episode> {
    let mut t = SpanTracker::default();
    for ev in events {
        t.observe(ev);
    }
    t.episodes
}

/// Summary statistics over a run's recovery episodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanStats {
    /// Closed episodes.
    pub episodes: u64,
    /// Total rollback re-executions across episodes.
    pub(crate) rollbacks: u64,
    /// Sum of per-episode stall costs.
    pub total_stall: u64,
    /// Mean stall per episode (MTTR); 0 with no episodes.
    pub mttr_mean: f64,
    /// Median stall (nearest-rank).
    pub mttr_p50: u64,
    /// 95th-percentile stall (nearest-rank).
    pub mttr_p95: u64,
    /// Maximum stall.
    pub mttr_max: u64,
    /// Mean detection→recovery-start latency over episodes that carry a
    /// detection stamp; 0 when none do.
    pub(crate) detect_latency_mean: f64,
}

impl SpanStats {
    /// Computes the summary for `episodes`.
    pub(crate) fn from_episodes(episodes: &[Episode]) -> SpanStats {
        let n = episodes.len() as u64;
        let total_stall: u64 = episodes.iter().map(|e| e.stall).sum();
        let rollbacks: u64 = episodes.iter().map(|e| e.rollbacks).sum();
        let mut stalls: Vec<u64> = episodes.iter().map(|e| e.stall).collect();
        stalls.sort_unstable();
        let lat: Vec<u64> = episodes
            .iter()
            .filter_map(|e| e.detection_latency())
            .collect();
        SpanStats {
            episodes: n,
            rollbacks,
            total_stall,
            mttr_mean: if n == 0 {
                0.0
            } else {
                total_stall as f64 / n as f64
            },
            mttr_p50: percentile(&stalls, 0.50),
            mttr_p95: percentile(&stalls, 0.95),
            mttr_max: stalls.last().copied().unwrap_or(0),
            detect_latency_mean: if lat.is_empty() {
                0.0
            } else {
                lat.iter().sum::<u64>() as f64 / lat.len() as f64
            },
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted slice (0 if empty).
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The fraction of recovery-covered cycles during which two or more
/// episodes were simultaneously open — 0.0 when episodes never overlap
/// (always true within one lane), approaching 1.0 when a multi-pair
/// system spends its recovery time in lock-step storms. Pass the
/// concatenated episodes of every lane.
pub fn overlap_fraction(episodes: &[Episode]) -> f64 {
    // Sweep the start/end boundaries in cycle order, integrating how
    // long the open-episode count sat at ≥1 and at ≥2.
    let mut bounds: Vec<(u64, i64)> = Vec::with_capacity(episodes.len() * 2);
    for ep in episodes {
        if ep.end > ep.start {
            bounds.push((ep.start, 1));
            bounds.push((ep.end, -1));
        }
    }
    if bounds.is_empty() {
        return 0.0;
    }
    bounds.sort_unstable();
    let mut covered = 0u64;
    let mut overlapped = 0u64;
    let mut depth = 0i64;
    let mut prev = bounds[0].0;
    for (cycle, delta) in bounds {
        let span = cycle - prev;
        if depth >= 1 {
            covered += span;
        }
        if depth >= 2 {
            overlapped += span;
        }
        depth += delta;
        prev = cycle;
    }
    if covered == 0 {
        0.0
    } else {
        overlapped as f64 / covered as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: TraceEventKind, value: u64, cycle: u64) -> TraceEvent {
        TraceEvent { kind, value, cycle }
    }

    #[test]
    fn pairs_start_end_with_detection_latency() {
        let events = [
            ev(TraceEventKind::Detection, 0, 100),
            ev(TraceEventKind::RecoveryStart, 0, 130),
            ev(TraceEventKind::RecoveryEnd, 400, 520),
            ev(TraceEventKind::Detection, 0, 1_000),
            ev(TraceEventKind::RecoveryStart, 0, 1_040),
            ev(TraceEventKind::RecoveryEnd, 300, 1_330),
        ];
        let eps = episodes_from(&events);
        assert_eq!(eps.len(), 2);
        assert_eq!(eps[0].detection_latency(), Some(30));
        assert_eq!(eps[0].duration(), 390);
        assert_eq!(eps[0].stall, 400);
        assert_eq!(eps[1].detection_latency(), Some(40));
        let stats = SpanStats::from_episodes(&eps);
        assert_eq!(stats.episodes, 2);
        assert_eq!(stats.total_stall, 700);
        assert_eq!(stats.mttr_p50, 300);
        assert_eq!(stats.mttr_p95, 400);
        assert_eq!(stats.mttr_max, 400);
        assert!((stats.mttr_mean - 350.0).abs() < 1e-12);
        assert!((stats.detect_latency_mean - 35.0).abs() < 1e-12);
    }

    #[test]
    fn bare_end_and_bare_rollback_synthesize_episodes() {
        let events = [
            // A scheme emitting only the end marker (stall 250).
            ev(TraceEventKind::RecoveryEnd, 250, 600),
            // A rollback scheme: detection at the window boundary, then
            // the rollback itself.
            ev(TraceEventKind::Detection, 0, 900),
            ev(TraceEventKind::Rollback, 0, 910),
        ];
        let eps = episodes_from(&events);
        assert_eq!(eps.len(), 2);
        assert_eq!(eps[0].start, 350);
        assert_eq!(eps[0].end, 600);
        assert_eq!(eps[0].stall, 250);
        assert_eq!(eps[1].rollbacks, 1);
        assert_eq!(eps[1].stall, 0);
        assert_eq!(eps[1].detection_latency(), Some(10));
        let stats = SpanStats::from_episodes(&eps);
        assert_eq!(stats.rollbacks, 1);
    }

    #[test]
    fn rollback_inside_an_open_episode_counts_as_retry() {
        let events = [
            ev(TraceEventKind::RecoveryStart, 0, 10),
            ev(TraceEventKind::Rollback, 0, 20),
            ev(TraceEventKind::Rollback, 0, 30),
            ev(TraceEventKind::RecoveryEnd, 90, 100),
        ];
        let eps = episodes_from(&events);
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].rollbacks, 2);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted = [10, 20, 30, 40];
        assert_eq!(percentile(&sorted, 0.50), 20);
        assert_eq!(percentile(&sorted, 0.95), 40);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.95), 7);
    }

    #[test]
    fn overlap_fraction_measures_concurrent_recovery() {
        let e = |start, end| Episode {
            detect: None,
            start,
            end,
            rollbacks: 0,
            stall: end - start,
        };
        // Disjoint: no overlap.
        assert_eq!(overlap_fraction(&[e(0, 10), e(20, 30)]), 0.0);
        // [0,10) and [5,15): covered 15, overlapped 5.
        let f = overlap_fraction(&[e(0, 10), e(5, 15)]);
        assert!((f - 5.0 / 15.0).abs() < 1e-12, "{f}");
        // Identical episodes overlap fully.
        assert_eq!(overlap_fraction(&[e(3, 9), e(3, 9)]), 1.0);
        // Empty and zero-length episodes are no coverage.
        assert_eq!(overlap_fraction(&[]), 0.0);
        assert_eq!(overlap_fraction(&[e(5, 5)]), 0.0);
    }
}
