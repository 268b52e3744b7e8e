//! The shared timeline-export scenario: a seeded multi-lane faulted
//! run under shared-L2 contention, rendered as an
//! [`unsync_obs::Timeline`].
//!
//! `--bin trace_export` builds its model here and renders it both as
//! Chrome Trace Event Format JSON (for Perfetto / `chrome://tracing`)
//! and as a textual swimlane + episode table, so the two views always
//! agree on what happened. The scenario is deterministic: every cycle
//! stamp comes from the simulated clock, so the exported trace is
//! byte-identical across same-seed reruns.
//!
//! Each lane is one UnSync pair running its own disjoint-address
//! workload over the banked many-core L2, takes one mid-trace core
//! transient (so the trace shows recovery episodes), and absorbs two
//! planned uncore strikes (so the uncore track is populated).

use unsync_core::{UnsyncConfig, UnsyncPolicy};
use unsync_exec::event::DEFAULT_JOURNAL_CAP;
use unsync_exec::{Lane, RedundantDriver, RunResult};
use unsync_fault::uncore::{StrikePlan, UncoreStrike};
use unsync_fault::PairFault;
use unsync_mem::{L2ContentionConfig, WritePolicy};
use unsync_obs::Timeline;
use unsync_sim::CoreConfig;
use unsync_workloads::{Benchmark, WorkloadSource, WorkloadSpec};

/// Configuration of the timeline scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineScenarioConfig {
    /// Lanes (UnSync pairs) in the system.
    pub lanes: usize,
    /// Instructions per lane.
    pub insts_per_lane: usize,
    /// Base seed; lane `p` draws workload seed `seed + p`.
    pub seed: u64,
    /// Uncore strikes planned per lane.
    pub strikes_per_lane: u64,
}

impl TimelineScenarioConfig {
    /// The default export scenario: 8 lanes, 2000 instructions per
    /// lane, seed 11, two uncore strikes per lane.
    pub fn default_scenario() -> Self {
        TimelineScenarioConfig {
            lanes: 8,
            insts_per_lane: 2_000,
            seed: 11,
            strikes_per_lane: 2,
        }
    }

    /// A stable name embedded in the trace's `otherData` block.
    pub(crate) fn name(&self) -> String {
        format!(
            "timeline[lanes={},insts={},seed={}]",
            self.lanes, self.insts_per_lane, self.seed
        )
    }
}

/// Plans the per-lane uncore strike schedules, sorted by cycle as
/// [`RedundantDriver::run`] requires. Lane
/// `p` takes strikes on rotating targets drawn from the all-uncore
/// plan so the uncore track samples several structures.
pub(crate) fn plan_strikes(cfg: &TimelineScenarioConfig) -> Vec<Vec<UncoreStrike>> {
    // Strikes land in the middle half of [0, horizon); traces retire at
    // least one instruction per cycle-ish, so the instruction count is
    // a safe horizon.
    let plan = StrikePlan::all_uncore(cfg.strikes_per_lane, cfg.insts_per_lane as u64);
    (0..cfg.lanes)
        .map(|p| {
            let mut strikes: Vec<UncoreStrike> = (0..cfg.strikes_per_lane)
                .map(|i| {
                    let target = plan.targets[(p + i as usize) % plan.targets.len()];
                    plan.strike(target, i, cfg.seed ^ ((p as u64) << 16), p)
                })
                .collect();
            strikes.sort_by_key(|s| s.cycle);
            strikes
        })
        .collect()
}

/// Runs the scenario and builds the [`Timeline`] model `trace_export`
/// renders.
pub fn build_timeline(cfg: &TimelineScenarioConfig) -> Timeline {
    let uncore = plan_strikes(cfg);
    Timeline::from_results(&cfg.name(), &run_scenario(cfg, &uncore), &uncore)
}

/// Runs the scenario's lanes, each struck by its `uncore` schedule.
fn run_scenario(cfg: &TimelineScenarioConfig, uncore: &[Vec<UncoreStrike>]) -> Vec<RunResult> {
    // The journal is what the timeline renders.
    let driver = RedundantDriver::new(CoreConfig::table1())
        .with_l2_contention(L2ContentionConfig::many_core())
        .with_journal(DEFAULT_JOURNAL_CAP);
    // Disjoint per-lane address spaces: the trace should show uncore
    // contention, not false sharing.
    let traces: Vec<_> = (0..cfg.lanes)
        .map(|p| {
            let base = 0x1000_0000u64 + p as u64 * 0x0100_0000;
            WorkloadSpec::Synthetic(Benchmark::Gzip)
                .source(cfg.insts_per_lane as u64, cfg.seed + p as u64)
                .trace_at(base)
        })
        .collect();
    let mut policies: Vec<UnsyncPolicy> = (0..cfg.lanes)
        .map(|p| {
            UnsyncPolicy::new(
                "timeline",
                UnsyncConfig::paper_baseline(),
                WritePolicy::WriteThrough,
                2 * p,
            )
        })
        .collect();
    // One mid-trace transient per lane so every swimlane row shows a
    // detection and a recovery episode.
    let mid = (cfg.insts_per_lane / 2) as u64;
    let lanes: Vec<Lane> = traces
        .iter()
        .zip(uncore)
        .enumerate()
        .map(|(p, (trace, strikes))| Lane {
            faults: vec![PairFault::plan(
                cfg.seed ^ ((cfg.lanes as u64) << 32) ^ p as u64,
                mid,
            )],
            uncore: strikes.clone(),
            ..Lane::new(trace)
        })
        .collect();
    driver.run(&mut policies, lanes).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strikes_are_sorted_and_lane_tagged() {
        let cfg = TimelineScenarioConfig {
            lanes: 3,
            insts_per_lane: 400,
            seed: 7,
            strikes_per_lane: 2,
        };
        let plans = plan_strikes(&cfg);
        assert_eq!(plans.len(), 3);
        for (p, lane_plan) in plans.iter().enumerate() {
            assert_eq!(lane_plan.len(), 2);
            for w in lane_plan.windows(2) {
                assert!(w[0].cycle <= w[1].cycle);
            }
            for s in lane_plan {
                assert_eq!(s.lane, p);
            }
        }
    }

    #[test]
    fn scenario_produces_a_populated_timeline() {
        let cfg = TimelineScenarioConfig {
            lanes: 2,
            insts_per_lane: 400,
            seed: 11,
            strikes_per_lane: 1,
        };
        let t = build_timeline(&cfg);
        assert_eq!(t.lanes.len(), 2);
        assert!(t.end_cycle() > 0);
        assert_eq!(t.strikes.len(), 2);
        // One planned core transient per lane surfaces as episodes.
        assert!(t.episode_count() >= 1, "expected recovery episodes");
    }

    #[test]
    fn scenario_runs_keep_complete_journals() {
        let cfg = TimelineScenarioConfig {
            lanes: 2,
            insts_per_lane: 400,
            seed: 11,
            strikes_per_lane: 2,
        };
        for r in run_scenario(&cfg, &plan_strikes(&cfg)) {
            assert!(r.events.journal().is_some_and(|j| !j.is_empty()));
            assert_eq!(r.events.journal_dropped(), 0);
        }
    }

    #[test]
    fn same_seed_reruns_render_identical_traces() {
        let cfg = TimelineScenarioConfig {
            lanes: 2,
            insts_per_lane: 300,
            seed: 5,
            strikes_per_lane: 1,
        };
        let a = build_timeline(&cfg).chrome_trace();
        let b = build_timeline(&cfg).chrome_trace();
        assert_eq!(a, b, "cycle-domain trace must be byte-identical");
    }
}
