//! Whole-trace convenience runners.

use serde::{Deserialize, Serialize};
use unsync_isa::InstStream;
use unsync_mem::{HierarchyConfig, MemSystem, WritePolicy};

use crate::config::CoreConfig;
use crate::engine::OooEngine;
use crate::hooks::{BaselineHooks, CoreHooks};
use crate::stats::CoreStats;

/// The result of running one stream to completion on one core.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Core-side statistics.
    pub core: CoreStats,
}

impl SimResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.core.ipc()
    }
}

/// Runs `stream` to completion on a single core with the given hooks over
/// a fresh Table I memory system.
pub fn run_stream<S: InstStream, H: CoreHooks>(
    cfg: CoreConfig,
    stream: &mut S,
    hooks: &mut H,
    l1_policy: WritePolicy,
) -> SimResult {
    let mut mem = MemSystem::new(HierarchyConfig::table1(), 1, l1_policy);
    let mut engine = OooEngine::new(cfg, 0);
    stream.reset();
    while let Some(inst) = stream.next_inst() {
        engine.feed(&inst, &mut mem, hooks);
    }
    let result = SimResult {
        core: *engine.stats(),
    };
    record_run(&result.core);
    result
}

/// Publishes one finished core run's aggregates to the global metrics
/// registry. Called once per run (not per instruction) so simulation hot
/// paths pay nothing for observability.
pub(crate) fn record_run(core: &CoreStats) {
    let m = crate::metrics::global();
    m.counter("sim.runs").inc();
    m.counter("sim.instructions_committed").add(core.committed);
    m.counter("sim.cycles").add(core.last_commit_cycle);
    m.counter("sim.recoveries").add(core.recoveries);
    m.counter("sim.recovery_stall_cycles")
        .add(core.recovery_stall_cycles);
    m.histogram("sim.ipc", &[0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0])
        .observe(core.ipc());
}

/// Runs `stream` on the realistic write-through baseline (FIFO write
/// buffer draining to L2) — the unprotected Table I CMP that Figures 4–6
/// normalize against.
pub fn run_baseline<S: InstStream>(cfg: CoreConfig, stream: &mut S) -> SimResult {
    let mut hooks = BaselineHooks::default();
    run_stream(cfg, stream, &mut hooks, WritePolicy::WriteThrough)
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsync_workloads::{Benchmark, SyntheticSource, WorkloadSource};

    #[test]
    fn baseline_runs_every_benchmark_sanely() {
        for &b in &[
            Benchmark::Bzip2,
            Benchmark::Galgel,
            Benchmark::Mcf,
            Benchmark::Sha,
        ] {
            let mut g = SyntheticSource::new(b, 20_000, 1).trace();
            let r = run_baseline(CoreConfig::table1(), &mut g);
            assert_eq!(r.core.committed, 20_000);
            // mcf's 8 MB pointer-chasing working set is legitimately
            // pathological over a cold 20 k-instruction window.
            let floor = if b == Benchmark::Mcf { 0.005 } else { 0.05 };
            assert!(
                r.ipc() > floor && r.ipc() < 4.0,
                "{}: ipc {}",
                b.name(),
                r.ipc()
            );
        }
    }

    #[test]
    fn cache_friendly_beats_cache_hostile() {
        // Times the run as `run_baseline` does, over a memory system the
        // test keeps so it can read the L1D miss rate afterwards.
        let run = |b: Benchmark| {
            let mut mem = MemSystem::new(HierarchyConfig::table1(), 1, WritePolicy::WriteThrough);
            let mut engine = OooEngine::new(CoreConfig::table1(), 0);
            let mut hooks = BaselineHooks::default();
            let mut trace = SyntheticSource::new(b, 20_000, 2).trace();
            while let Some(inst) = trace.next_inst() {
                engine.feed(&inst, &mut mem, &mut hooks);
            }
            (engine.stats().ipc(), mem.l1d_stats(0).miss_rate())
        };
        let (sha_ipc, sha_miss) = run(Benchmark::Sha);
        let (mcf_ipc, mcf_miss) = run(Benchmark::Mcf);
        assert!(sha_ipc > mcf_ipc, "sha {sha_ipc} vs mcf {mcf_ipc}");
        assert!(mcf_miss > sha_miss, "sha {sha_miss} vs mcf {mcf_miss}");
    }

    #[test]
    fn run_is_deterministic() {
        let run = || {
            run_baseline(
                CoreConfig::table1(),
                &mut SyntheticSource::new(Benchmark::Ammp, 10_000, 5).trace(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn galgel_sustains_high_rob_occupancy() {
        // The Fig. 5 precondition: galgel keeps the ROB fuller than a
        // memory-bound code keeps it busy with *useful* work.
        let galgel = run_baseline(
            CoreConfig::table1(),
            &mut SyntheticSource::new(Benchmark::Galgel, 20_000, 3).trace(),
        );
        assert!(
            galgel.core.avg_rob_occupancy() > 20.0,
            "galgel occupancy {}",
            galgel.core.avg_rob_occupancy()
        );
    }
}

#[cfg(test)]
mod debug_tests {
    use super::*;
    use unsync_workloads::{Benchmark, SyntheticSource, WorkloadSource};

    #[test]
    fn debug_dump() {
        let mut g = SyntheticSource::new(Benchmark::Bzip2, 20_000, 1).trace();
        let r = run_baseline(CoreConfig::table1(), &mut g);
        eprintln!("{:#?}", r);
        eprintln!("avg_rob_occ {}", r.core.avg_rob_occupancy());
    }
}
