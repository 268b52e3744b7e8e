//! Differential tests pinning the ROEC 2.0 outcome classifier
//! (`unsync_fault::roec::classify`) on hand-constructed journals —
//! known answer per label — and golden-locking the per-structure
//! vulnerability table for one fixed smoke grid, so any change to
//! strike planning, liveness probes, delivery order, or classification
//! rules shows up as a reviewable diff here.

use unsync_bench::campaign::run_records;
use unsync_bench::roec_uncore::{self, classify_strike_result, SCHEMES};
use unsync_bench::{Json, Runner};
use unsync_exec::{EventStream, OutcomeCore, RunResult, TraceEventKind};
use unsync_fault::roec::{classify, RoecEvent, RoecEventKind, StrikeOutcome};
use unsync_isa::ArchMemory;

fn ev(kind: RoecEventKind, cycle: u64) -> RoecEvent {
    RoecEvent::at(kind, cycle)
}

#[test]
fn empty_journal_with_clean_memory_is_masked() {
    assert_eq!(classify(&[], true), StrikeOutcome::Masked);
    // A benign (dead-state) delivery event changes nothing.
    assert_eq!(
        classify(&[ev(RoecEventKind::BenignFault, 10)], true),
        StrikeOutcome::Masked
    );
    // Unrelated journal noise never counts as detection.
    assert_eq!(
        classify(
            &[ev(RoecEventKind::Other, 3), ev(RoecEventKind::Other, 9)],
            true
        ),
        StrikeOutcome::Masked
    );
}

#[test]
fn silent_corruption_with_diverged_memory_is_sdc() {
    assert_eq!(
        classify(&[ev(RoecEventKind::SilentFault, 42)], false),
        StrikeOutcome::Sdc
    );
    // Memory divergence alone — even with an empty journal — is SDC:
    // nothing fired, the image is wrong.
    assert_eq!(classify(&[], false), StrikeOutcome::Sdc);
}

#[test]
fn detection_plus_clean_memory_is_detected_recovered() {
    // A full recovery episode.
    let episode = [
        ev(RoecEventKind::Detection, 100),
        ev(RoecEventKind::RecoveryStart, 104),
        ev(RoecEventKind::RecoveryEnd, 940),
    ];
    assert_eq!(classify(&episode, true), StrikeOutcome::DetectedRecovered);
    // In-place correction (SECDED single, DMR refetch) counts as
    // detected even without a recovery span.
    let corrected = [
        ev(RoecEventKind::Detection, 100),
        ev(RoecEventKind::CorrectedInPlace, 100),
    ];
    assert_eq!(classify(&corrected, true), StrikeOutcome::DetectedRecovered);
    // A TMR outvote likewise.
    assert_eq!(
        classify(&[ev(RoecEventKind::Corrected, 7)], true),
        StrikeOutcome::DetectedRecovered
    );
}

#[test]
fn detection_without_correctness_is_detected_unrecoverable() {
    // Detected, but the machine declared the error unrecoverable —
    // even when memory happens to match (DUE by declaration).
    let due = [
        ev(RoecEventKind::Detection, 50),
        ev(RoecEventKind::Unrecoverable, 50),
    ];
    assert_eq!(classify(&due, true), StrikeOutcome::DetectedUnrecoverable);
    // Detected and memory diverged (DED without correction).
    assert_eq!(
        classify(&[ev(RoecEventKind::Detection, 50)], false),
        StrikeOutcome::DetectedUnrecoverable
    );
}

#[test]
fn detection_beats_silent_fault_in_mixed_journals() {
    // Parity caught the first flip, a second flip slipped through, the
    // image ended clean: the run detected *something* and ended
    // correct — detected-recovered, not masked.
    let mixed = [
        ev(RoecEventKind::SilentFault, 10),
        ev(RoecEventKind::Detection, 20),
        ev(RoecEventKind::RecoveryStart, 24),
        ev(RoecEventKind::RecoveryEnd, 800),
    ];
    assert_eq!(classify(&mixed, true), StrikeOutcome::DetectedRecovered);
}

#[test]
fn strike_label_survives_a_truncated_journal() {
    // A one-event journal fills with the contention stall and drops the
    // detection behind it; the label must come from the event counts,
    // which never truncate.
    let mut events = EventStream::with_journal(1);
    events.emit_value(TraceEventKind::L2Contention, 3);
    events.emit(TraceEventKind::Detection);
    events.emit(TraceEventKind::RecoveryStart);
    events.emit_value(TraceEventKind::RecoveryEnd, 40);
    assert!(events.journal_dropped() > 0, "the detection was dropped");
    let result = RunResult {
        out: OutcomeCore::default(),
        events,
        memory: ArchMemory::new(),
        l2_events: Vec::new(),
    };
    assert_eq!(
        classify_strike_result(&result, &ArchMemory::new()),
        (StrikeOutcome::DetectedRecovered, true)
    );
}

/// Golden lock: the complete per-cell outcome sequence of the
/// `grid(42, true)` smoke grid (2 strikes per cell — strike 0 uniform,
/// strike 1 liveness-conditioned). Regenerate by printing
/// `run_records(&roec_uncore::grid(42, true), ..)` if an intentional
/// model change lands; any *unintentional* drift in strike planning,
/// occupancy probes, or classification fails here first.
#[test]
fn smoke_grid_42_vulnerability_table_is_locked() {
    const EXPECTED: [(&str, &str, [&str; 2]); 18] = [
        (
            "l2_data",
            "unsync_pair",
            ["masked", "detected_unrecoverable"],
        ),
        ("l2_data", "tmr_vote", ["masked", "sdc"]),
        ("l2_data", "secded_only", ["masked", "detected_recovered"]),
        (
            "l2_tag",
            "unsync_pair",
            ["masked", "detected_unrecoverable"],
        ),
        ("l2_tag", "tmr_vote", ["masked", "sdc"]),
        ("l2_tag", "secded_only", ["masked", "detected_recovered"]),
        (
            "mshr_entry",
            "unsync_pair",
            ["masked", "detected_recovered"],
        ),
        ("mshr_entry", "tmr_vote", ["masked", "sdc"]),
        ("mshr_entry", "secded_only", ["masked", "sdc"]),
        (
            "bank_arbiter",
            "unsync_pair",
            ["masked", "detected_recovered"],
        ),
        ("bank_arbiter", "tmr_vote", ["masked", "sdc"]),
        ("bank_arbiter", "secded_only", ["sdc", "sdc"]),
        ("cb_data", "unsync_pair", ["masked", "detected_recovered"]),
        ("cb_data", "tmr_vote", ["sdc", "sdc"]),
        ("cb_data", "secded_only", ["sdc", "sdc"]),
        ("cb_tag", "unsync_pair", ["masked", "detected_recovered"]),
        ("cb_tag", "tmr_vote", ["sdc", "sdc"]),
        ("cb_tag", "secded_only", ["sdc", "sdc"]),
    ];
    let grid = roec_uncore::grid(42, true);
    let plan = grid.strikes.as_ref().expect("a strike grid");
    assert_eq!(
        plan.strikes_per_cell, 2,
        "lock assumes the smoke grid shape"
    );
    let records = run_records(&grid, &Runner::new(2));
    assert_eq!(records.len(), EXPECTED.len() * 2);
    let field = |r: &Json, k: &str| r.get(k).and_then(Json::as_str).map(str::to_string);
    for (structure, scheme, outcomes) in EXPECTED {
        assert!(SCHEMES.contains(&scheme));
        for (strike, want) in outcomes.iter().enumerate() {
            let got = records
                .iter()
                .find(|r| {
                    field(r, "structure").as_deref() == Some(structure)
                        && field(r, "scheme").as_deref() == Some(scheme)
                        && r.get("strike").and_then(Json::as_u64) == Some(strike as u64)
                })
                .unwrap_or_else(|| panic!("missing cell {structure}/{scheme}/{strike}"));
            assert_eq!(
                field(got, "outcome").as_deref(),
                Some(*want),
                "outcome drifted at {structure}/{scheme} strike {strike}"
            );
        }
    }
}
