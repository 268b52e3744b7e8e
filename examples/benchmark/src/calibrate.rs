//! Sub-layer calibrations: each layer's public entry point timed alone
//! on the workload's own traces and records, so layers the traced pass
//! cannot wrap in spans from outside (engine `feed`, the cache
//! hierarchy, the scheduler loop, metrics publish) still get a cost.

use std::hint::black_box;
use std::time::{Duration, Instant};

use unsync_bench::roec_uncore::{classify_strike_result, run_scheme_with_strikes};
use unsync_bench::runlog::Json;
use unsync_core::{UnsyncConfig, UnsyncPolicy};
use unsync_exec::RedundantDriver;
use unsync_fault::uncore::{StrikePlan, ALL_UNCORE_TARGETS};
use unsync_isa::{golden_run, TraceProgram};
use unsync_mem::{HierarchyConfig, L2ContentionConfig, MemSystem, WritePolicy};
use unsync_sim::{run_baseline, CoreConfig};
use unsync_workloads::{AnySource, WorkloadSource};

use crate::host::{median, Snapshot};
use crate::ledger::run_comparator;
use crate::workloads::{lane_base, COMPARATORS};

/// Calibrations use at most this many of the workload's traces, spread
/// evenly over its source list.
const TRACES: usize = 4;
/// Lanes of the scheduler calibration's `run_system` call.
const SCHED_LANES: usize = 8;

/// Median duration of one call of `run` on fresh state from `setup`
/// (untimed), over at least 3 calls and 50 ms of timed calls.
fn median_call<S>(mut setup: impl FnMut() -> S, mut run: impl FnMut(&mut S)) -> Duration {
    let mut samples = Vec::new();
    let mut total = Duration::ZERO;
    while samples.len() < 3 || (total < Duration::from_millis(50) && samples.len() < 100_000) {
        let mut state = setup();
        let started = Instant::now();
        run(&mut state);
        let took = started.elapsed();
        drop(state);
        total += took;
        samples.push(took.as_secs_f64());
    }
    Duration::from_secs_f64(median(&samples))
}

/// Replicas a comparator runs per instruction (for the lane self share).
fn replicas(scheme: &str) -> f64 {
    match scheme {
        "tmr_vote" => 3.0,
        "checkpoint" | "secded_only" => 1.0,
        _ => 2.0,
    }
}

fn ns(d: Duration, per: f64) -> f64 {
    d.as_secs_f64() * 1e9 / per
}

/// Replays every instruction fetch and data access of `traces` through
/// one fresh single-core memory system per trace.
fn replay(mems: &mut [MemSystem], traces: &[TraceProgram]) {
    for (mem, t) in mems.iter_mut().zip(traces) {
        for (cycle, inst) in (0u64..).zip(t.insts()) {
            black_box(mem.fetch(0, inst.pc, cycle));
            if let Some(m) = inst.mem {
                if inst.op.is_load() {
                    black_box(mem.load(0, m.addr, cycle));
                } else {
                    black_box(mem.store(0, m.addr, cycle));
                }
            }
            if let Some(events) = mem.l2_events_mut() {
                events.clear();
            }
        }
    }
}

fn memory(cores: usize, contended: bool) -> MemSystem {
    let mut mem = MemSystem::new(HierarchyConfig::table1(), cores, WritePolicy::WriteThrough);
    if contended {
        mem.enable_l2_contention(L2ContentionConfig::many_core());
    }
    mem
}

/// Every calibration metric as `(name, value, unit)`. `records` are the
/// workload's output lines.
pub fn run(sources: &[(AnySource, u64)], records: &[String]) -> Vec<(String, f64, &'static str)> {
    let picked: Vec<(AnySource, u64)> = (0..TRACES.min(sources.len()))
        .map(|i| sources[i * sources.len() / TRACES.min(sources.len())])
        .collect();
    let traces: Vec<TraceProgram> = picked.iter().map(|(s, base)| s.trace_at(*base)).collect();
    let insts: f64 = traces.iter().map(|t| t.len() as f64).sum();
    let accesses: f64 = traces
        .iter()
        .flat_map(|t| t.insts())
        .map(|i| 1.0 + f64::from(u8::from(i.mem.is_some())))
        .sum();
    let mut out = Vec::new();
    let mut put =
        |name: &str, value: f64, unit: &'static str| out.push((name.to_string(), value, unit));

    let gen = median_call(
        || (),
        |_| {
            for (s, base) in &picked {
                black_box(s.trace_at(*base));
            }
        },
    );
    put("workloads.trace_ns_per_inst", ns(gen, insts), "ns");
    let golden = median_call(
        || (),
        |_| traces.iter().for_each(|t| drop(black_box(golden_run(t)))),
    );
    put("isa.golden_ns_per_inst", ns(golden, insts), "ns");
    let baseline = median_call(
        || traces.clone(),
        |ts| {
            for t in ts.iter_mut() {
                black_box(run_baseline(CoreConfig::table1(), t));
            }
        },
    );
    let baseline_ns = ns(baseline, insts);
    put("sim.baseline_ns_per_inst", baseline_ns, "ns");

    for (name, contended) in [("mem.access_ns", false), ("mem.contended_access_ns", true)] {
        let d = median_call(
            || {
                traces
                    .iter()
                    .map(|_| memory(1, contended))
                    .collect::<Vec<_>>()
            },
            |mems| replay(mems, &traces),
        );
        put(name, ns(d, accesses), "ns");
    }
    let build = median_call(|| (), |_| drop(black_box(memory(2, true))));
    put("mem.build_us", build.as_secs_f64() * 1e6, "us");

    for scheme in COMPARATORS {
        let d = median_call(
            || (),
            |_| {
                for t in &traces {
                    black_box(run_comparator(scheme, t));
                }
            },
        );
        let lane_ns = ns(d, insts);
        put(&format!("exec.lane_ns_per_inst.{scheme}"), lane_ns, "ns");
        put(
            &format!("exec.lane_self_frac.{scheme}"),
            1.0 - replicas(scheme) * baseline_ns / lane_ns,
            "frac",
        );
    }

    put(
        "exec.sched_ns_per_lane_inst",
        sched_ns_per_lane_inst(&picked),
        "ns",
    );

    // One directed L2 strike on the first trace under UnSync: the run
    // whose events are published and whose outcome is classified.
    let trace = &traces[0];
    let image = golden_run(trace).1;
    let plan = StrikePlan::all_uncore(2, trace.len() as u64 * 2);
    let strike = plan.strike(ALL_UNCORE_TARGETS[0], 1, 0x5eed, 0);
    let driver = RedundantDriver::new(CoreConfig::table1())
        .with_l2_contention(L2ContentionConfig::many_core());
    let result = run_scheme_with_strikes(&driver, "unsync_pair", trace, vec![strike], Some(&image));
    const BATCH: f64 = 100.0;
    let publish = median_call(
        || (),
        |_| (0..BATCH as usize).for_each(|_| result.events.publish("benchmark_calibration")),
    );
    put("exec.publish_ns", ns(publish, BATCH), "ns");
    let classify = median_call(
        || (),
        |_| {
            black_box(classify_strike_result(&result, &image));
        },
    );
    put("fault.classify_us", classify.as_secs_f64() * 1e6, "us");

    let parsed: Vec<Json> = records.iter().filter_map(|l| Json::parse(l).ok()).collect();
    let n = parsed.len().max(1) as f64;
    let render = median_call(
        || (),
        |_| parsed.iter().for_each(|j| drop(black_box(j.render()))),
    );
    put(
        "bench.runlog.render_us",
        render.as_secs_f64() * 1e6 / n,
        "us",
    );
    let bytes: usize = records.iter().map(String::len).sum();
    put("bench.runlog.bytes_per_record", bytes as f64 / n, "bytes");
    out
}

/// Host ns of the discrete-event tick loop (`prof.sched.run`) per lane
/// instruction, over one contended `run_system` call whose lanes cycle
/// through `picked` at disjoint bases.
fn sched_ns_per_lane_inst(picked: &[(AnySource, u64)]) -> f64 {
    let traces: Vec<TraceProgram> = (0..SCHED_LANES)
        .map(|p| picked[p % picked.len()].0.trace_at(lane_base(p)))
        .collect();
    let lane_insts: f64 = traces.iter().map(|t| t.len() as f64).sum();
    let driver = RedundantDriver::new(CoreConfig::table1())
        .with_l2_contention(L2ContentionConfig::many_core());
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 3
        || (started.elapsed() < Duration::from_millis(50) && samples.len() < 1000)
    {
        let mut policies: Vec<UnsyncPolicy> = (0..SCHED_LANES)
            .map(|p| {
                let cfg = UnsyncConfig::paper_baseline();
                UnsyncPolicy::new(
                    "benchmark_calibration",
                    cfg,
                    WritePolicy::WriteThrough,
                    2 * p,
                )
            })
            .collect();
        let before = Snapshot::take();
        black_box(driver.run_system(&mut policies, &traces));
        let loop_us = Snapshot::take()
            .since(&before)
            .histogram_sum_starting("prof.sched.run");
        samples.push(loop_us * 1e3 / lane_insts);
    }
    median(&samples)
}
