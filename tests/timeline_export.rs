//! End-to-end properties of the cycle-domain timeline export: the
//! Chrome-trace JSON must be byte-identical across same-seed reruns,
//! its episode spans must agree exactly with the span tracker the
//! run log reports (same MTTR), and even an event-free run must
//! serialize to a valid, loadable trace.

use unsync::core::{UnsyncConfig, UnsyncPolicy};
use unsync::exec::{Lane, RedundantDriver, RunResult};
use unsync::mem::WritePolicy;
use unsync::obs::Timeline;
use unsync::prelude::*;
use unsync::sim::CoreConfig;
use unsync_bench::timeline::{build_timeline, TimelineScenarioConfig};
use unsync_bench::Json;

fn scenario() -> TimelineScenarioConfig {
    TimelineScenarioConfig {
        lanes: 4,
        insts_per_lane: 800,
        seed: 11,
        strikes_per_lane: 2,
    }
}

fn faulted_pair_run(seed: u64) -> RunResult {
    let insts = 5_000u64;
    let t = WorkloadGen::new(Benchmark::Gzip, insts, seed).collect_trace();
    let driver = RedundantDriver::new(CoreConfig::table1());
    let policy = UnsyncPolicy::new(
        "unsync_pair",
        UnsyncConfig::paper_baseline(),
        WritePolicy::WriteThrough,
        0,
    );
    let faults: Vec<PairFault> = (0..3)
        .map(|i| PairFault {
            at: (i + 1) * insts / 4,
            core: (i % 2) as usize,
            site: FaultSite {
                target: FaultTarget::RegisterFile,
                bit_offset: 3 + i,
            },
            kind: unsync::fault::FaultKind::Single,
        })
        .collect();
    let mut lane = Lane::new(&t);
    lane.faults = faults;
    driver.run(&mut [policy], vec![lane]).0.remove(0)
}

#[test]
fn same_seed_chrome_traces_are_byte_identical() {
    let cfg = scenario();
    let a = build_timeline(&cfg).chrome_trace();
    let b = build_timeline(&cfg).chrome_trace();
    assert_eq!(a, b, "cycle-domain export must be deterministic");
    // And not vacuously: the scenario populates every track.
    let t = build_timeline(&cfg);
    assert!(t.episode_count() > 0, "no recovery episodes in fixture");
    assert!(!t.strikes.is_empty(), "no uncore strikes in fixture");
    assert!(!t.bank_conflicts.is_empty(), "no bank conflicts in fixture");
}

#[test]
fn episode_spans_match_the_span_tracker_exactly() {
    let res = faulted_pair_run(11);
    assert!(res.out.recoveries > 0, "fixture must recover");
    let mut tl = Timeline::new("episode_check");
    tl.add_run(0, &res);

    // The timeline's episodes are the span tracker's episodes —
    // identical spans, so identical MTTR in any downstream view.
    let stats = res.events.span_stats();
    let eps = &tl.lanes[0].episodes;
    assert_eq!(eps.len() as u64, stats.episodes);
    assert_eq!(eps.iter().map(|e| e.stall).sum::<u64>(), stats.total_stall);
    let mean = eps.iter().map(|e| e.stall).sum::<u64>() as f64 / eps.len() as f64;
    assert!((mean - stats.mttr_mean).abs() < 1e-9);

    // The serialized B/E spans carry exactly those cycles.
    let doc = Json::parse(&tl.chrome_trace()).expect("trace parses");
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("no traceEvents");
    };
    let ph_ts = |ph: &str| -> Vec<u64> {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("recovery"))
            .map(|e| e.get("ts").and_then(Json::as_u64).expect("integer ts"))
            .collect()
    };
    let (begins, ends) = (ph_ts("B"), ph_ts("E"));
    assert_eq!(begins.len(), eps.len());
    assert_eq!(ends.len(), eps.len());
    for (i, ep) in eps.iter().enumerate() {
        assert_eq!(begins[i], ep.start);
        assert_eq!(ends[i], ep.end);
        assert_eq!(ends[i] - begins[i], ep.duration());
    }
}

#[test]
fn zero_event_run_exports_a_valid_empty_trace() {
    let t = WorkloadGen::new(Benchmark::Gzip, 500, 3).collect_trace();
    let driver = RedundantDriver::new(CoreConfig::table1());
    let policy = UnsyncPolicy::new(
        "unsync_pair",
        UnsyncConfig::paper_baseline(),
        WritePolicy::WriteThrough,
        0,
    );
    let res = driver.run(&mut [policy], vec![Lane::new(&t)]).0.remove(0);
    assert_eq!(res.out.detections, 0, "fixture must be fault-free");

    let mut tl = Timeline::new("empty");
    tl.add_run(0, &res);
    let text = tl.chrome_trace();
    let doc = Json::parse(&text).expect("empty trace still parses");
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("no traceEvents");
    };
    // Track metadata only — no spans, instants, or counters. (The
    // fault-free run may still legitimately journal window compares,
    // so only recovery/detection/strike shapes are asserted absent.)
    assert!(events
        .iter()
        .all(|e| e.get("ph").and_then(Json::as_str) != Some("B")));
    let other = doc.get("otherData").expect("otherData present");
    assert_eq!(other.get("episodes").and_then(Json::as_u64), Some(0));
    assert_eq!(other.get("strikes").and_then(Json::as_u64), Some(0));
    assert_eq!(other.get("ts_unit").and_then(Json::as_str), Some("cycle"));
}

#[test]
fn chrome_trace_carries_required_tracks_and_fields() {
    let doc = Json::parse(&build_timeline(&scenario()).chrome_trace()).expect("trace parses");
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("no traceEvents");
    };
    let with_ph = |ph: &str| {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
            .count()
    };
    // Balanced duration spans, at least one instant and one counter.
    assert_eq!(with_ph("B"), with_ph("E"));
    assert!(with_ph("B") > 0);
    assert!(with_ph("i") > 0);
    assert!(with_ph("C") > 0);
    // Both cycle-domain processes announce their names, and every lane
    // of the scenario has a named thread track.
    let names: Vec<(&str, u64)> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
        .filter_map(|e| {
            Some((
                e.get("args")?.get("name")?.as_str()?,
                e.get("pid")?.as_u64()?,
            ))
        })
        .collect();
    assert!(names.contains(&("lanes (cycle domain)", 1)));
    assert!(names.contains(&("uncore (cycle domain)", 2)));
    for lane in 0..scenario().lanes {
        let label = format!("lane {lane}");
        assert!(
            names.iter().any(|(n, pid)| *pid == 1 && *n == label),
            "missing thread track for {label}"
        );
    }
    // Every non-metadata event stamps an integer cycle.
    for e in events {
        if e.get("ph").and_then(Json::as_str) != Some("M") {
            assert!(e.get("ts").and_then(Json::as_u64).is_some());
        }
    }
}

/// `trace_export` at its scenario (8 lanes, 2 000 instructions per
/// lane, seed 11): the export re-renders byte-identically, parses with
/// every field Perfetto needs, a `prof` scope around the build lands in
/// a `prof.trace_export.build` histogram, and the textual view draws
/// every lane.
#[test]
fn default_scenario_exports_a_loadable_trace() {
    use unsync::obs::prof;
    let cfg = TimelineScenarioConfig::default_scenario();
    let timeline = {
        let _t = prof::scope("trace_export.build");
        build_timeline(&cfg)
    };
    let json = timeline.chrome_trace();
    let again = build_timeline(&cfg).chrome_trace();
    assert_eq!(json, again, "same-seed re-export");
    assert!(
        unsync::sim::metrics::global()
            .snapshot()
            .iter()
            .any(|(name, value)| name == "prof.trace_export.build"
                && matches!(value, unsync::sim::metrics::MetricValue::Histogram { .. })),
        "the build must land in a prof.trace_export.build histogram"
    );
    assert!(timeline.render_summary(72).contains("lane   7"));

    let doc = Json::parse(&json).expect("trace parses");
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("no traceEvents");
    };
    assert!(!events.is_empty(), "empty traceEvents");
    let mut phases = std::collections::BTreeMap::new();
    for e in events {
        assert!(e.get("pid").is_some(), "event lacks pid: {e:?}");
        let ph = e.get("ph").and_then(Json::as_str).expect("event has ph");
        match ph {
            "M" => assert!(e.get("name").is_some(), "metadata lacks name: {e:?}"),
            "B" | "E" | "i" | "C" => {
                assert!(e.get("ts").and_then(Json::as_u64).is_some(), "{e:?}");
                assert!(e.get("tid").is_some(), "event lacks tid: {e:?}");
            }
            other => panic!("unexpected phase {other:?}"),
        }
        *phases.entry(ph).or_insert(0u64) += 1;
    }
    let count = |ph| phases.get(ph).copied().unwrap_or(0);
    assert!(count("B") == count("E") && count("B") > 0, "{phases:?}");
    assert!(count("i") > 0 && count("C") > 0, "{phases:?}");
    let other = doc.get("otherData").expect("otherData");
    for key in [
        "name",
        "lanes",
        "end_cycle",
        "episodes",
        "strikes",
        "bank_conflicts",
    ] {
        assert!(other.get(key).is_some(), "otherData lacks {key}");
    }
    assert_eq!(other.get("ts_unit").and_then(Json::as_str), Some("cycle"));
    assert_eq!(other.get("lanes").and_then(Json::as_u64), Some(8));
    assert!(other.get("episodes").and_then(Json::as_u64) > Some(0));
    assert!(other.get("strikes").and_then(Json::as_u64) > Some(0));
}
