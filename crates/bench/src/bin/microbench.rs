//! Hot-path microbenchmarks for the shared `RedundantDriver` loop.
//!
//! Benches each layer of the per-instruction path — the `ArchMemory`
//! word store, the forwarding-heavy pending-store tracking exercised by
//! rollback schemes, full pair runs, the multi-lane `run_system`
//! scheduler at 2/8/16 lanes, the discrete-event queue itself (bare
//! components and a contended-L2 system run), event/metric
//! publication, and the campaign engine's dispatch path (grid
//! expansion, per-job cost with a cached golden, and the bounded
//! writer-queue cycle), plus the observability layer (scoped `prof`
//! timer overhead, timeline model build, Chrome-trace render) — and writes
//! the per-bench statistics to `BENCH_driver.json` so successive PRs
//! have a machine-readable perf trajectory (see EXPERIMENTS.md,
//! "Driver microbenchmarks").
//!
//! `UNSYNC_BENCH_MS` scales the per-bench budget (CI smoke uses 20 ms);
//! `UNSYNC_BENCH_FILTER` selects a subset by substring.

use unsync_bench::microbench::{self, bb, Bench, BenchResult};
use unsync_bench::runlog::Json;
use unsync_core::{UnsyncConfig, UnsyncPair, UnsyncSystem};
use unsync_isa::{golden_run, ArchMemory};
use unsync_reunion::{ReunionConfig, ReunionPair};
use unsync_sim::CoreConfig;
use unsync_workloads::{Benchmark, Kernel, SyntheticSource, WorkloadSource};

/// Where the machine-readable results land (workspace root under CI).
const OUT_PATH: &str = "BENCH_driver.json";

fn mem_benches(results: &mut Vec<BenchResult>) {
    let mut g = Bench::group("mem");
    // A working set of 8 Ki words over 128 pages: every write lands in
    // an already-allocated page after the first pass, like a trace's
    // steady state.
    g.bench("archmem/write_8k_words", || {
        let mut m = ArchMemory::new();
        for i in 0..8_192u64 {
            m.write(i * 8, i);
        }
        bb(m.footprint_words())
    });
    let mut warm = ArchMemory::new();
    for i in 0..8_192u64 {
        warm.write(i * 8, i);
    }
    g.bench("archmem/read_hit_8k", || {
        let mut acc = 0u64;
        for i in 0..8_192u64 {
            acc = acc.wrapping_add(warm.read(bb(i * 8)));
        }
        bb(acc)
    });
    g.bench("archmem/read_cold_8k", || {
        let mut acc = 0u64;
        for i in 0..8_192u64 {
            acc = acc.wrapping_add(warm.read(bb(0x4000_0000 + i * 8)));
        }
        bb(acc)
    });
    let t = SyntheticSource::new(Benchmark::Gzip, 4_000, 11).trace();
    g.bench("archmem/golden_run_4k", || {
        bb(golden_run(&t)).1.footprint_words()
    });
    results.extend(g.into_results());
}

fn driver_benches(results: &mut Vec<BenchResult>) {
    let mut g = Bench::group("driver");
    let t = SyntheticSource::new(Benchmark::Gzip, 4_000, 11).trace();
    let qsort = SyntheticSource::new(Benchmark::Qsort, 4_000, 11).trace();
    let unsync = UnsyncPair::new(CoreConfig::table1(), UnsyncConfig::paper_baseline());
    g.bench("pair_run/gzip_4k", || bb(unsync.run(&t, &[])).cycles);
    // Qsort is the store-heaviest workload: the CB and pending-store
    // paths dominate.
    g.bench("pair_run/qsort_4k", || bb(unsync.run(&qsort, &[])).cycles);
    // Reunion rolls back per interval, so its pending set grows to the
    // fingerprint interval — the forwarding-heavy case.
    let reunion = ReunionPair::new(CoreConfig::table1(), ReunionConfig::paper_baseline());
    g.bench("reunion_run/qsort_4k", || {
        bb(reunion.run(&qsort, &[])).cycles
    });
    results.extend(g.into_results());
}

fn system_benches(results: &mut Vec<BenchResult>) {
    let mut g = Bench::group("system");
    for lanes in [2usize, 8, 16] {
        let traces: Vec<_> = (0..lanes)
            .map(|p| SyntheticSource::new(Benchmark::Gzip, 1_000, 11 + p as u64).trace())
            .collect();
        let sys = UnsyncSystem::new(CoreConfig::table1(), UnsyncConfig::paper_baseline());
        g.bench(&format!("system_run/{lanes}_lanes_1k"), || {
            bb(sys.run(&traces)).pairs.len()
        });
    }
    results.extend(g.into_results());
}

fn sched_benches(results: &mut Vec<BenchResult>) {
    use unsync_exec::sched::{self, Component};
    use unsync_exec::RedundantDriver;
    use unsync_mem::{L2ContentionConfig, WritePolicy};

    /// A toy component hopping `left` times with an id-dependent
    /// stride: exercises the queue's pop/reschedule cycle with nothing
    /// else on the profile.
    struct Hopper {
        id: usize,
        t: u64,
        left: u32,
    }
    impl Component for Hopper {
        type Ctx = u64;
        fn next_tick(&self) -> Option<u64> {
            (self.left > 0).then_some(self.t)
        }
        fn tick(&mut self, _now: u64, ticks: &mut u64) {
            *ticks += 1;
            self.t += 1 + (self.id as u64 % 7);
            self.left -= 1;
        }
    }

    let mut g = Bench::group("sched");
    g.bench("queue_cycle/64_components_16k_ticks", || {
        let mut comps: Vec<Hopper> = (0..64)
            .map(|id| Hopper {
                id,
                t: id as u64,
                left: 256,
            })
            .collect();
        let mut ticks = 0u64;
        bb(sched::run(&mut comps, &mut ticks))
    });
    // The full driver loop under the banked-L2 model: scheduler +
    // contention accounting + event draining on the hot path.
    let traces: Vec<_> = (0..8usize)
        .map(|p| {
            SyntheticSource::new(Benchmark::Gzip, 500, 11 + p as u64)
                .trace_at(0x1000_0000 + p as u64 * 0x0100_0000)
        })
        .collect();
    g.bench("contended_run/8_lanes_500", || {
        let driver = RedundantDriver::new(CoreConfig::table1())
            .with_l2_contention(L2ContentionConfig::many_core());
        let mut policies: Vec<unsync_core::UnsyncPolicy> = (0..traces.len())
            .map(|p| {
                unsync_core::UnsyncPolicy::new(
                    "microbench_sched",
                    UnsyncConfig::paper_baseline(),
                    WritePolicy::WriteThrough,
                    2 * p,
                )
            })
            .collect();
        bb(driver.run_system(&mut policies, &traces)).0.len()
    });
    results.extend(g.into_results());
}

fn workload_benches(results: &mut Vec<BenchResult>) {
    // Trace production itself: the synthetic generator vs. the
    // real-ISA kernel backend (which also executes what it emits).
    let mut g = Bench::group("workloads");
    g.bench("gen/synthetic_gzip_4k", || {
        bb(SyntheticSource::new(Benchmark::Gzip, 4_000, 11).trace()).len()
    });
    g.bench("gen/kernel_qsort_4k", || {
        bb(Kernel::Qsort.source(4_000, 11).trace()).len()
    });
    results.extend(g.into_results());
}

fn event_benches(results: &mut Vec<BenchResult>) {
    use unsync_exec::{EventStream, TraceEventKind};
    let mut g = Bench::group("events");
    let mut ev = EventStream::new();
    for i in 0..100u64 {
        ev.emit_value(TraceEventKind::Detection, 0);
        ev.emit_value(TraceEventKind::RecoveryEnd, 40 + i);
        ev.emit_value(TraceEventKind::CbDrain, 3);
    }
    g.bench("publish/3_kinds", || ev.publish(bb("microbench_scheme")));
    results.extend(g.into_results());
}

fn campaign_benches(results: &mut Vec<BenchResult>) {
    use unsync_bench::campaign::run_job;
    use unsync_bench::CampaignGrid;
    use unsync_fault::uncore::StrikePlan;
    use unsync_mem::L2ContentionConfig;
    use unsync_workloads::WorkloadSpec;

    let mut g = Bench::group("campaign");
    let grid = CampaignGrid {
        name: "microbench_campaign".into(),
        inst_count: 400,
        seeds: vec![11],
        workloads: vec![WorkloadSpec::parse("gzip").expect("static workload")],
        schemes: vec!["unsync_pair", "tmr_vote", "secded_only"],
        strikes: Some(StrikePlan::all_uncore(8, 800)),
        contention: Some(L2ContentionConfig::many_core()),
    };
    g.bench("grid/expand_144_jobs", || bb(grid.expand()).len());
    // Per-job dispatch: one strike simulation plus record rendering,
    // with the golden image memoized (the engine's steady state).
    let jobs = grid.expand();
    g.bench("dispatch/strike_job_cached_golden", || {
        bb(run_job(&grid, jobs[0], true)).len()
    });
    let compare = CampaignGrid {
        schemes: vec!["unsync_pair"],
        strikes: None,
        contention: None,
        ..grid.clone()
    };
    let cjobs = compare.expand();
    g.bench("dispatch/compare_job", || {
        bb(run_job(&compare, cjobs[0], true)).len()
    });
    results.extend(g.into_results());
}

fn obs_benches(results: &mut Vec<BenchResult>) {
    use unsync_bench::timeline::{build_timeline, TimelineScenarioConfig};
    use unsync_obs::prof;

    let mut g = Bench::group("obs");
    // Scoped-timer overhead: what one instrumented engine phase costs
    // when nothing else happens inside the scope.
    g.bench("prof/scope_enter_exit", || {
        let t = bb(prof::scope("microbench.obs_overhead"));
        t.stop();
    });
    // The timeline model build (a faulted 2-lane contended run plus
    // event-stream conversion) and the Chrome-trace serialization.
    let cfg = TimelineScenarioConfig {
        lanes: 2,
        insts_per_lane: 400,
        seed: 11,
        strikes_per_lane: 1,
    };
    g.bench("timeline/build_2_lanes_400i", || {
        bb(build_timeline(&cfg)).episode_count()
    });
    let timeline = build_timeline(&cfg);
    g.bench("timeline/chrome_trace_render", || {
        bb(timeline.chrome_trace()).len()
    });
    results.extend(g.into_results());
}

fn write_json(results: &[BenchResult], bench_ms: u64) {
    let rows: Vec<Json> = results
        .iter()
        .map(|r| {
            Json::obj()
                .field("name", r.name.as_str())
                .field("median_ns", r.median_ns)
                .field("mean_ns", r.mean_ns)
                .field("min_ns", r.min_ns)
                .field("samples", r.samples)
                .field("batch", r.batch)
        })
        .collect();
    let doc = Json::obj()
        .field("schema", 1u64)
        .field("bench_ms", bench_ms)
        .field("results", Json::Arr(rows));
    let mut text = doc.render();
    text.push('\n');
    match std::fs::write(OUT_PATH, &text) {
        Ok(()) => println!("\nwrote {} ({} benches)", OUT_PATH, results.len()),
        Err(e) => {
            eprintln!("error: could not write {OUT_PATH}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let bench_ms = unsync_bench::env::or_exit(microbench::bench_ms());
    let mut results = Vec::new();
    mem_benches(&mut results);
    driver_benches(&mut results);
    system_benches(&mut results);
    sched_benches(&mut results);
    workload_benches(&mut results);
    event_benches(&mut results);
    campaign_benches(&mut results);
    obs_benches(&mut results);
    assert!(
        !results.is_empty(),
        "UNSYNC_BENCH_FILTER removed every bench"
    );
    write_json(&results, bench_ms);
}
