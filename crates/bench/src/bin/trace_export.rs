//! `trace_export` — exports the cycle-domain timeline of a seeded
//! multi-lane faulted run as Chrome Trace Event Format JSON.
//!
//! Load the output in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`: one track per lane (episodes as duration spans,
//! detections and faults as instants), plus uncore tracks for strikes,
//! per-bank L2 conflict counters, and checkpoint-buffer drains. The
//! `ts` field is the simulated cycle, so the file is byte-identical
//! across same-seed reruns.
//!
//! It runs [`TimelineScenarioConfig::default_scenario`] (8 lanes, 2000
//! instructions per lane, seed 11), writes the trace to
//! `TRACE_timeline.json` in the current directory, and prints the same
//! timeline as a textual swimlane per lane plus the episode table.

use unsync_bench::timeline::TimelineScenarioConfig;
use unsync_bench::Json;

/// Where the trace lands.
const OUT_PATH: &str = "TRACE_timeline.json";

fn main() {
    let timeline = unsync_bench::build_timeline(&TimelineScenarioConfig::default_scenario());
    let json = timeline.chrome_trace();
    validate(&json);

    std::fs::write(OUT_PATH, &json).unwrap_or_else(|e| panic!("writing {OUT_PATH}: {e}"));

    println!(
        "trace_export: {OUT_PATH} — {} lanes, {} episodes, {} strikes, {} bank conflicts, end cycle {}",
        timeline.lanes.len(),
        timeline.episode_count(),
        timeline.strikes.len(),
        timeline.bank_conflicts.len(),
        timeline.end_cycle()
    );
    println!("  wrote {} bytes to {OUT_PATH}", json.len());
    print!("{}", timeline.render_summary(72));
}

/// Re-parses the rendered trace with the in-repo JSON parser and
/// asserts the fields Perfetto needs are present. Panics (non-zero
/// exit) on any violation, so every export checks itself.
fn validate(text: &str) {
    let v = Json::parse(text).expect("exported trace must be valid JSON");
    let events = match v.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        _ => panic!("trace must carry a traceEvents array"),
    };
    assert!(
        !events.is_empty(),
        "traceEvents must at least carry track metadata"
    );
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("event {i} lacks ph"));
        assert!(e.get("pid").is_some(), "event {i} lacks pid");
        match ph {
            "M" => assert!(e.get("name").is_some(), "metadata event {i} lacks name"),
            "B" | "E" | "i" | "C" => {
                assert!(
                    e.get("ts").and_then(Json::as_u64).is_some(),
                    "event {i} lacks integer ts"
                );
                assert!(e.get("tid").is_some(), "event {i} lacks tid");
            }
            other => panic!("event {i} has unexpected phase {other:?}"),
        }
    }
    let other = v.get("otherData").expect("trace must carry otherData");
    assert_eq!(
        other.get("ts_unit").and_then(Json::as_str),
        Some("cycle"),
        "otherData.ts_unit must be \"cycle\""
    );
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
}
