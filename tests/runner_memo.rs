//! The runner's memo caches: each baseline and golden image is simulated
//! once, then served from the cache. The checks read process-global
//! counters, so they run alone: one `#[test]` in its own binary.

use unsync_bench::runner::{
    baseline_cycles, baseline_cycles_source, golden_memory, golden_memory_source,
};
use unsync_bench::{ExperimentConfig, Runner};
use unsync_isa::golden_run;
use unsync_sim::metrics;
use unsync_workloads::{Benchmark, SyntheticSource, WorkloadSource};

#[test]
fn memo_caches_simulate_once_then_serve_hits() {
    // The baseline is simulated once, then cached.
    let cfg = ExperimentConfig {
        inst_count: 2_000,
        seed: 940_271,
    };
    let runs = metrics::global().counter("runner.baseline_sim_runs");
    let hits = metrics::global().counter("runner.baseline_cache_hits");
    let (runs0, hits0) = (runs.get(), hits.get());
    let a = baseline_cycles(Benchmark::Sha, cfg);
    // Concurrent and repeated lookups all reuse the one simulation.
    let again = Runner::new(4).map(&[0u64; 8], |_| baseline_cycles(Benchmark::Sha, cfg));
    assert!(again.iter().all(|&c| c == a));
    assert_eq!(runs.get() - runs0, 1, "exactly one simulation");
    assert_eq!(hits.get() - hits0, 8, "every other lookup hit the cache");

    // The golden image is simulated once, then cached.
    let cfg = ExperimentConfig {
        inst_count: 1_500,
        seed: 552_803,
    };
    let runs = metrics::global().counter("runner.golden_sim_runs");
    let hits = metrics::global().counter("runner.golden_cache_hits");
    let (runs0, hits0) = (runs.get(), hits.get());
    let g = golden_memory(Benchmark::Dijkstra, cfg);
    let again = Runner::new(4).map(&[0u64; 6], |_| golden_memory(Benchmark::Dijkstra, cfg));
    assert!(again.iter().all(|m| **m == *g));
    assert_eq!(runs.get() - runs0, 1, "exactly one golden execution");
    assert_eq!(hits.get() - hits0, 6, "every other lookup hit the cache");
    // And the image really is the golden run of that trace.
    let trace = SyntheticSource::new(Benchmark::Dijkstra, cfg.inst_count, cfg.seed).trace();
    assert_eq!(*g, golden_run(&trace).1);

    // Kernel sources share the memo caches.
    let source = unsync_workloads::Kernel::Crc32.source(1_200, 77_031);
    let runs = metrics::global().counter("runner.baseline_sim_runs");
    let runs0 = runs.get();
    let a = baseline_cycles_source(&source);
    let b = baseline_cycles_source(&source);
    assert_eq!(a, b);
    assert_eq!(runs.get() - runs0, 1, "kernel baseline simulated once");
    let g = golden_memory_source(&source);
    assert_eq!(*g, golden_run(&source.trace()).1);
}
