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
//! Environment: `UNSYNC_LANES` / `UNSYNC_INSTS` / `UNSYNC_SEED` shape
//! the scenario (defaults 8 / 2000 / 11); `UNSYNC_TRACE_OUT` names the
//! output file (default `TRACE_timeline.json`); `UNSYNC_METRICS_FILE`
//! additionally dumps the metrics registry — including the host-domain
//! `prof.*` histograms — after the export.

use unsync_bench::timeline::TimelineScenarioConfig;
use unsync_bench::Json;
use unsync_bench::{env, runlog};
use unsync_obs::prof;

fn main() {
    let cfg = env::or_exit(TimelineScenarioConfig::from_env());
    let timeline = {
        let _t = prof::scope("trace_export.build");
        unsync_bench::build_timeline(&cfg)
    };
    let json = {
        let _t = prof::scope("trace_export.render");
        timeline.chrome_trace()
    };
    validate(&json);

    let path =
        std::env::var("UNSYNC_TRACE_OUT").unwrap_or_else(|_| "TRACE_timeline.json".to_string());
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    runlog::export_metrics();

    println!(
        "trace_export: {} — {} lanes, {} episodes, {} strikes, {} bank conflicts, end cycle {}",
        path,
        timeline.lanes.len(),
        timeline.episode_count(),
        timeline.strikes.len(),
        timeline.bank_conflicts.len(),
        timeline.end_cycle()
    );
    println!("  wrote {} bytes to {path}", json.len());
}

/// Re-parses the rendered trace with the in-repo JSON parser and
/// asserts the fields Perfetto needs are present. Panics (non-zero
/// exit) on any violation, so CI can run the binary as a smoke test.
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
