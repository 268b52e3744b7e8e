//! ROEC 2.0 — strike-outcome classification and the per-structure
//! vulnerability table.
//!
//! §VI-D of the paper argues coverage *statically*: a table of which
//! mechanism guards which structure. This module makes the claim
//! measurable. A fault campaign runs one strike per simulation with the
//! cycle-stamped trace journal enabled; [`classify`] then labels what
//! actually happened from two observables — the journal (did any
//! detection mechanism fire? did the machine declare the error
//! unrecoverable? did a recovery episode run?) and the final committed
//! memory image diffed against the golden run:
//!
//! | detected | memory == golden | label |
//! |----------|------------------|-------|
//! | no       | yes              | [`StrikeOutcome::Masked`] |
//! | no       | no               | [`StrikeOutcome::Sdc`] |
//! | yes      | yes (and never declared unrecoverable) | [`StrikeOutcome::DetectedRecovered`] |
//! | yes      | no, or declared unrecoverable | [`StrikeOutcome::DetectedUnrecoverable`] |
//!
//! The construction guarantees two properties the campaign's tests pin:
//! every strike gets **exactly one** of the four labels, and a strike
//! labelled *masked* always left memory equal to golden.
//!
//! [`VulnerabilityTable`] aggregates labels over a structure × scheme
//! grid into AVF-style rates: the per-structure architectural
//! vulnerability factor (fraction of strikes that were live), the
//! detection coverage of live strikes, and the SDC rate — the number
//! the whole architecture exists to drive to zero.
//!
//! This crate sits *below* the execution layer, so the events arrive
//! as [`RoecEvent`]s — a minimal mirror of the executor's trace events
//! (`unsync_bench::roec_uncore` summarizes a run's event counts into
//! them).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// The event classes the classifier reads — a stable, minimal mirror
/// of the executor's `TraceEventKind` (only detection-relevant kinds
/// are distinguished; everything else maps to [`RoecEventKind::Other`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RoecEventKind {
    /// A detection mechanism fired.
    Detection,
    /// A recovery procedure began.
    RecoveryStart,
    /// A recovery procedure completed.
    RecoveryEnd,
    /// An error was corrected in place (SECDED single, DMR refetch).
    CorrectedInPlace,
    /// An error was repaired by redundancy (TMR outvote).
    Corrected,
    /// The machine declared the error unrecoverable.
    Unrecoverable,
    /// A fault corrupted state with no mechanism firing.
    SilentFault,
    /// A strike hit dead state (not live — no effect possible).
    BenignFault,
    /// Any other journal event (timing, occupancy, contention).
    Other,
}

/// One journal event as the classifier sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoecEvent {
    /// What happened.
    pub(crate) kind: RoecEventKind,
    /// Kind-specific payload (stall length for `RecoveryEnd`).
    pub(crate) value: u64,
    /// The lane's wall clock at emission.
    pub(crate) cycle: u64,
}

impl RoecEvent {
    /// An event with no payload.
    pub fn at(kind: RoecEventKind, cycle: u64) -> Self {
        RoecEvent {
            kind,
            value: 0,
            cycle,
        }
    }
}

/// The four-way outcome of one strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum StrikeOutcome {
    /// Not live, or overwritten before use: no detection, memory clean.
    Masked,
    /// A mechanism fired and the machine ended bit-correct.
    DetectedRecovered,
    /// A mechanism fired but correctness was lost (detected
    /// unrecoverable error — DUE).
    DetectedUnrecoverable,
    /// Silent data corruption: no mechanism fired, memory diverged.
    Sdc,
}

/// All outcomes in table order.
pub const ALL_OUTCOMES: [StrikeOutcome; 4] = [
    StrikeOutcome::Masked,
    StrikeOutcome::DetectedRecovered,
    StrikeOutcome::DetectedUnrecoverable,
    StrikeOutcome::Sdc,
];

impl StrikeOutcome {
    /// Stable label used in run logs and `BENCH_roec.json`.
    pub fn label(self) -> &'static str {
        match self {
            StrikeOutcome::Masked => "masked",
            StrikeOutcome::DetectedRecovered => "detected_recovered",
            StrikeOutcome::DetectedUnrecoverable => "detected_unrecoverable",
            StrikeOutcome::Sdc => "sdc",
        }
    }

    /// The outcome for a label, inverse of [`StrikeOutcome::label`].
    pub fn from_label(label: &str) -> Option<StrikeOutcome> {
        ALL_OUTCOMES.iter().copied().find(|o| o.label() == label)
    }
}

/// Whether any detection mechanism fired in `events`.
pub(crate) fn detected(events: &[RoecEvent]) -> bool {
    events.iter().any(|e| {
        matches!(
            e.kind,
            RoecEventKind::Detection | RoecEventKind::CorrectedInPlace | RoecEventKind::Corrected
        )
    })
}

/// Labels one strike from its run's journal and the final-memory diff
/// (see the [module docs](self) for the decision table).
pub fn classify(events: &[RoecEvent], memory_matches_golden: bool) -> StrikeOutcome {
    let det = detected(events);
    let unrecoverable = events
        .iter()
        .any(|e| e.kind == RoecEventKind::Unrecoverable);
    match (det, memory_matches_golden) {
        (false, true) => StrikeOutcome::Masked,
        (false, false) => StrikeOutcome::Sdc,
        (true, true) if !unrecoverable => StrikeOutcome::DetectedRecovered,
        (true, _) => StrikeOutcome::DetectedUnrecoverable,
    }
}

/// Outcome tallies of one (structure, scheme) cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutcomeCounts {
    /// Strikes labelled masked.
    pub masked: u64,
    /// Strikes detected and recovered.
    pub detected_recovered: u64,
    /// Strikes detected but unrecoverable (DUE).
    pub detected_unrecoverable: u64,
    /// Silent data corruptions.
    pub sdc: u64,
}

impl OutcomeCounts {
    /// Adds one labelled strike.
    pub(crate) fn record(&mut self, outcome: StrikeOutcome) {
        match outcome {
            StrikeOutcome::Masked => self.masked += 1,
            StrikeOutcome::DetectedRecovered => self.detected_recovered += 1,
            StrikeOutcome::DetectedUnrecoverable => self.detected_unrecoverable += 1,
            StrikeOutcome::Sdc => self.sdc += 1,
        }
    }

    /// Total strikes in the cell.
    pub fn total(&self) -> u64 {
        self.masked + self.detected_recovered + self.detected_unrecoverable + self.sdc
    }

    /// Strikes that were architecturally live (not masked).
    pub(crate) fn live(&self) -> u64 {
        self.total() - self.masked
    }

    /// Architectural vulnerability factor: the fraction of strikes that
    /// were live.
    pub fn avf(&self) -> f64 {
        ratio(self.live(), self.total())
    }

    /// Detection coverage of live strikes (1.0 = no live strike
    /// escaped silently).
    pub fn coverage(&self) -> f64 {
        ratio(
            self.detected_recovered + self.detected_unrecoverable,
            self.live(),
        )
    }

    /// Silent-corruption rate over all strikes.
    pub fn sdc_rate(&self) -> f64 {
        ratio(self.sdc, self.total())
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One row of the rendered vulnerability table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VulnerabilityRow {
    /// Structure label ([`crate::uncore::UncoreTarget::label`]).
    pub structure: String,
    /// Scheme metric prefix (`unsync_pair`, `tmr_vote`, …).
    pub scheme: String,
    /// The cell's outcome tallies.
    pub counts: OutcomeCounts,
}

/// The AVF-style per-structure vulnerability table: outcome tallies
/// keyed by (structure, scheme), deterministically ordered.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct VulnerabilityTable {
    cells: BTreeMap<(String, String), OutcomeCounts>,
}

impl VulnerabilityTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one labelled strike in its (structure, scheme) cell.
    pub fn record(&mut self, structure: &str, scheme: &str, outcome: StrikeOutcome) {
        self.cells
            .entry((structure.to_string(), scheme.to_string()))
            .or_default()
            .record(outcome);
    }

    /// The rows in (structure, scheme) order.
    pub fn rows(&self) -> Vec<VulnerabilityRow> {
        self.cells
            .iter()
            .map(|((structure, scheme), counts)| VulnerabilityRow {
                structure: structure.clone(),
                scheme: scheme.clone(),
                counts: *counts,
            })
            .collect()
    }

    /// Total strikes recorded.
    pub fn total(&self) -> u64 {
        self.cells.values().map(OutcomeCounts::total).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: RoecEventKind) -> RoecEvent {
        RoecEvent::at(kind, 100)
    }

    #[test]
    fn the_decision_table_is_total_and_exclusive() {
        // Every (journal, memory) combination lands on exactly one of
        // the four labels.
        let journals: [&[RoecEvent]; 4] = [
            &[],
            &[ev(RoecEventKind::Detection), ev(RoecEventKind::RecoveryEnd)],
            &[
                ev(RoecEventKind::Detection),
                ev(RoecEventKind::Unrecoverable),
            ],
            &[ev(RoecEventKind::SilentFault)],
        ];
        for events in journals {
            for matches in [true, false] {
                let outcome = classify(events, matches);
                assert_eq!(
                    ALL_OUTCOMES.iter().filter(|&&o| o == outcome).count(),
                    1,
                    "exactly one label"
                );
            }
        }
    }

    #[test]
    fn known_answers_per_label() {
        assert_eq!(classify(&[], true), StrikeOutcome::Masked);
        assert_eq!(
            classify(&[ev(RoecEventKind::SilentFault)], false),
            StrikeOutcome::Sdc
        );
        assert_eq!(
            classify(
                &[ev(RoecEventKind::Detection), ev(RoecEventKind::RecoveryEnd)],
                true
            ),
            StrikeOutcome::DetectedRecovered
        );
        assert_eq!(
            classify(&[ev(RoecEventKind::Detection)], false),
            StrikeOutcome::DetectedUnrecoverable
        );
        // A declared-unrecoverable error never reports as recovered,
        // even if the image happens to match.
        assert_eq!(
            classify(
                &[
                    ev(RoecEventKind::Detection),
                    ev(RoecEventKind::Unrecoverable)
                ],
                true
            ),
            StrikeOutcome::DetectedUnrecoverable
        );
        // Corrected-in-place counts as detection.
        assert_eq!(
            classify(&[ev(RoecEventKind::CorrectedInPlace)], true),
            StrikeOutcome::DetectedRecovered
        );
    }

    #[test]
    fn labels_round_trip() {
        for o in ALL_OUTCOMES {
            assert_eq!(StrikeOutcome::from_label(o.label()), Some(o));
        }
        assert_eq!(StrikeOutcome::from_label("nonsense"), None);
    }

    #[test]
    fn counts_derive_avf_coverage_and_sdc_rate() {
        let mut c = OutcomeCounts::default();
        for _ in 0..6 {
            c.record(StrikeOutcome::Masked);
        }
        for _ in 0..3 {
            c.record(StrikeOutcome::DetectedRecovered);
        }
        c.record(StrikeOutcome::Sdc);
        assert_eq!(c.total(), 10);
        assert_eq!(c.live(), 4);
        assert!((c.avf() - 0.4).abs() < 1e-12);
        assert!((c.coverage() - 0.75).abs() < 1e-12);
        assert!((c.sdc_rate() - 0.1).abs() < 1e-12);
        // Zero denominators stay finite.
        assert_eq!(OutcomeCounts::default().avf(), 0.0);
        assert_eq!(OutcomeCounts::default().coverage(), 0.0);
    }

    #[test]
    fn table_rows_are_deterministically_ordered() {
        let mut t = VulnerabilityTable::new();
        t.record("mshr_entry", "tmr_vote", StrikeOutcome::Sdc);
        t.record("cb_data", "unsync_pair", StrikeOutcome::DetectedRecovered);
        t.record("cb_data", "unsync_pair", StrikeOutcome::Masked);
        let rows = t.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].structure, "cb_data");
        assert_eq!(rows[0].counts.total(), 2);
        assert_eq!(t.total(), 3);
    }

    #[test]
    fn detection_reads_the_journal() {
        let events = [
            ev(RoecEventKind::Detection),
            ev(RoecEventKind::RecoveryStart),
            ev(RoecEventKind::RecoveryEnd),
            ev(RoecEventKind::Other),
        ];
        assert!(detected(&events));
        assert!(!detected(&[ev(RoecEventKind::BenignFault)]));
    }
}
