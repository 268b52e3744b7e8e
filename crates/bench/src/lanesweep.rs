//! The many-core lane sweep: UnSync pairs 2 → 1000 over a contended
//! shared L2.
//!
//! The paper evaluates at most two pairs on the Table I machine, where
//! the flat shared-L2 model (any number of simultaneous lookups) is
//! harmless. This sweep asks the question the paper could not: *where
//! does pairing stop scaling once the uncore is finite?* Every lane is
//! one UnSync pair running its own disjoint-address workload; the
//! shared L2 is banked ([`unsync_mem::L2ContentionConfig`]), so demand
//! fills and CB drains from different pairs serialize on bank ports,
//! and each lane takes one mid-trace fault so recovery (MTTR) is
//! measured *under* contention rather than in isolation.
//!
//! Per lane count the sweep reports throughput (committed instructions
//! per makespan cycle), the L2 bank-conflict stall share, and the mean
//! MTTR — the "contention knee" is where throughput per lane starts
//! dropping while stall share climbs. Results land in a
//! `lanesweep.jsonl` run log (diffable by the dashboard) and the
//! `BENCH_lanesweep.json` summary.

use unsync_core::{UnsyncConfig, UnsyncPolicy};
use unsync_exec::{Lane, RedundantDriver};
use unsync_fault::PairFault;
use unsync_mem::{L2ContentionConfig, WritePolicy};
use unsync_sim::CoreConfig;
use unsync_workloads::{Benchmark, WorkloadSource, WorkloadSpec};

use crate::runlog::{Json, RunLog};

/// Configuration of one lane sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneSweepConfig {
    /// Lane (pair) counts to sweep, in order.
    pub lane_counts: Vec<usize>,
    /// Instructions per lane.
    pub insts_per_lane: usize,
    /// Base seed; lane `p` of an `L`-lane system draws workload seed
    /// `seed + p` and its fault from `PairFault::plan(seed ^ L, mid)`.
    pub seed: u64,
    /// The shared-L2 contention model applied to every system.
    pub contention: L2ContentionConfig,
    /// The workload every lane runs (synthetic benchmark or real-ISA
    /// kernel).
    pub workload: WorkloadSpec,
}

impl LaneSweepConfig {
    /// The full 2 → 1000 sweep (ISSUE: 2 → 64 → 1000) at 400
    /// instructions per lane under the many-core contention model.
    pub fn full(seed: u64) -> Self {
        LaneSweepConfig {
            lane_counts: vec![2, 4, 8, 16, 32, 64, 128, 256, 512, 1000],
            insts_per_lane: 400,
            seed,
            contention: L2ContentionConfig::many_core(),
            workload: WorkloadSpec::Synthetic(Benchmark::Gzip),
        }
    }

    /// The smoke sweep: 2 and 8 lanes, short traces.
    pub fn smoke(seed: u64) -> Self {
        LaneSweepConfig {
            lane_counts: vec![2, 8],
            insts_per_lane: 200,
            seed,
            contention: L2ContentionConfig::many_core(),
            workload: WorkloadSpec::Synthetic(Benchmark::Gzip),
        }
    }
}

/// One lane count's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneSweepRow {
    /// Lane (pair) count.
    pub lanes: usize,
    /// Instructions committed across all lanes.
    pub committed: u64,
    /// Makespan: the slowest lane's cycle count.
    pub makespan_cycles: u64,
    /// Committed instructions per makespan cycle (system throughput).
    pub throughput_ipc: f64,
    /// Mean per-lane IPC (throughput divided by lanes).
    pub per_lane_ipc: f64,
    /// L2 bank-conflict requests over all requests.
    pub l2_conflict_rate: f64,
    /// Total cycles requests waited for L2 bank ports.
    pub l2_stall_cycles: u64,
    /// Requests routed through the banks.
    pub l2_requests: u64,
    /// Mean bank wait per request, cycles.
    pub avg_stall_cycles: f64,
    /// Bank-wait cycles per available core-cycle
    /// (`l2_stall_cycles / (makespan × lanes)`). Exceeds 1.0 when many
    /// requests queue on the same bank concurrently — it is a queueing
    /// *delay-sum*, not a utilization.
    pub stall_share: f64,
    /// Shared-L2 miss rate.
    pub l2_miss_rate: f64,
    /// Recovery episodes observed (one fault per lane is injected).
    pub recoveries: u64,
    /// Mean time to recover over all episodes, cycles (0 when none).
    pub mttr_cycles: f64,
}

/// Runs one lane count of the sweep.
pub fn sweep_point(cfg: &LaneSweepConfig, lanes: usize) -> LaneSweepRow {
    assert!(lanes >= 1, "at least one lane");
    let driver = RedundantDriver::new(CoreConfig::table1()).with_l2_contention(cfg.contention);
    // Disjoint per-lane address spaces: each lane is its own process,
    // so the sweep measures uncore contention, not false sharing.
    let traces: Vec<_> = (0..lanes)
        .map(|p| {
            let base = 0x1000_0000u64 + p as u64 * 0x0100_0000;
            cfg.workload
                .source(cfg.insts_per_lane as u64, cfg.seed + p as u64)
                .trace_at(base)
        })
        .collect();
    let mut policies: Vec<UnsyncPolicy> = (0..lanes)
        .map(|p| {
            UnsyncPolicy::new(
                "lanesweep",
                UnsyncConfig::paper_baseline(),
                WritePolicy::WriteThrough,
                2 * p,
            )
        })
        .collect();
    // One mid-trace transient per lane, planned deterministically from
    // (seed, lane count, lane): MTTR is measured under contention.
    let mid = (cfg.insts_per_lane / 2) as u64;
    let specs: Vec<Lane> = traces
        .iter()
        .enumerate()
        .map(|(p, trace)| Lane {
            faults: vec![PairFault::plan(
                cfg.seed ^ ((lanes as u64) << 32) ^ p as u64,
                mid,
            )],
            ..Lane::new(trace)
        })
        .collect();
    let (results, mem) = driver.run(&mut policies, specs);

    let committed: u64 = results.iter().map(|r| r.out.committed).sum();
    let makespan = results.iter().map(|r| r.out.cycles).max().unwrap_or(0);
    let episodes: Vec<_> = results
        .iter()
        .flat_map(|r| r.events.episodes().iter().copied())
        .collect();
    let mttr = if episodes.is_empty() {
        0.0
    } else {
        episodes.iter().map(|e| e.stall as f64).sum::<f64>() / episodes.len() as f64
    };
    let (conflict_rate, stall_cycles, requests) = mem
        .l2_contention()
        .map(|c| (c.conflict_rate(), c.stall_cycles, c.requests))
        .unwrap_or((0.0, 0, 0));
    LaneSweepRow {
        lanes,
        committed,
        makespan_cycles: makespan,
        throughput_ipc: if makespan == 0 {
            0.0
        } else {
            committed as f64 / makespan as f64
        },
        per_lane_ipc: if makespan == 0 || lanes == 0 {
            0.0
        } else {
            committed as f64 / makespan as f64 / lanes as f64
        },
        l2_conflict_rate: conflict_rate,
        l2_stall_cycles: stall_cycles,
        l2_requests: requests,
        avg_stall_cycles: if requests == 0 {
            0.0
        } else {
            stall_cycles as f64 / requests as f64
        },
        stall_share: if makespan == 0 {
            0.0
        } else {
            stall_cycles as f64 / (makespan as f64 * lanes as f64)
        },
        l2_miss_rate: mem.l2_stats().miss_rate(),
        recoveries: results.iter().map(|r| r.out.recoveries).sum(),
        mttr_cycles: mttr,
    }
}

/// Runs the whole sweep, in the configured lane-count order.
pub fn run_sweep(cfg: &LaneSweepConfig) -> Vec<LaneSweepRow> {
    cfg.lane_counts
        .iter()
        .map(|&l| sweep_point(cfg, l))
        .collect()
}

/// The JSON fields of one row (shared by the run log and the summary).
pub fn row_json(r: &LaneSweepRow) -> Json {
    Json::obj()
        .field("lanes", r.lanes)
        .field("committed", r.committed)
        .field("makespan_cycles", r.makespan_cycles)
        .field("throughput_ipc", r.throughput_ipc)
        .field("per_lane_ipc", r.per_lane_ipc)
        .field("l2_conflict_rate", r.l2_conflict_rate)
        .field("l2_stall_cycles", r.l2_stall_cycles)
        .field("l2_requests", r.l2_requests)
        .field("avg_stall_cycles", r.avg_stall_cycles)
        .field("stall_share", r.stall_share)
        .field("l2_miss_rate", r.l2_miss_rate)
        .field("recoveries", r.recoveries)
        .field("mttr_cycles", r.mttr_cycles)
}

/// Builds the `lanesweep` JSONL run log (header + one record per lane
/// count) for `rows`.
pub fn sweep_log(cfg: &LaneSweepConfig, rows: &[LaneSweepRow]) -> RunLog {
    let mut log = RunLog::start(
        "lanesweep",
        crate::experiments::ExperimentConfig {
            inst_count: cfg.insts_per_lane as u64,
            seed: cfg.seed,
        },
    );
    for r in rows {
        log.record(row_json(r));
    }
    log
}

/// The `BENCH_lanesweep.json` document for `rows`.
pub fn summary_json(cfg: &LaneSweepConfig, rows: &[LaneSweepRow]) -> Json {
    Json::obj()
        .field("schema", 1u64)
        .field("insts_per_lane", cfg.insts_per_lane)
        .field("seed", cfg.seed)
        .field("workload", cfg.workload.name())
        .field(
            "contention",
            Json::obj()
                .field("banks", cfg.contention.banks)
                .field("bank_busy_beats", cfg.contention.bank_busy_beats)
                .field("mshrs", cfg.contention.mshrs),
        )
        .field("results", Json::Arr(rows.iter().map(row_json).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LaneSweepConfig {
        LaneSweepConfig {
            lane_counts: vec![2, 4],
            insts_per_lane: 120,
            seed: 11,
            contention: L2ContentionConfig::many_core(),
            workload: WorkloadSpec::Synthetic(Benchmark::Gzip),
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let cfg = tiny();
        assert_eq!(run_sweep(&cfg), run_sweep(&cfg));
    }

    #[test]
    fn every_lane_commits_and_recovers() {
        let cfg = tiny();
        for row in run_sweep(&cfg) {
            assert_eq!(
                row.committed,
                (row.lanes * cfg.insts_per_lane) as u64,
                "all lanes must finish"
            );
            assert_eq!(
                row.recoveries, row.lanes as u64,
                "one injected fault per lane must recover"
            );
            assert!(row.mttr_cycles > 0.0);
        }
    }

    #[test]
    fn contention_grows_with_lanes() {
        let cfg = LaneSweepConfig {
            lane_counts: vec![2, 16],
            insts_per_lane: 150,
            seed: 5,
            contention: L2ContentionConfig {
                banks: 2,
                bank_busy_beats: 8,
                mshrs: 20,
            },
            workload: WorkloadSpec::Synthetic(Benchmark::Gzip),
        };
        let rows = run_sweep(&cfg);
        assert!(
            rows[1].l2_stall_cycles >= rows[0].l2_stall_cycles,
            "more lanes cannot reduce total bank stalls: {rows:?}"
        );
    }

    #[test]
    fn kernel_workloads_sweep_end_to_end() {
        let cfg = LaneSweepConfig {
            lane_counts: vec![2, 8],
            insts_per_lane: 150,
            seed: 7,
            contention: L2ContentionConfig::many_core(),
            workload: WorkloadSpec::Kernel(unsync_workloads::Kernel::Dijkstra),
        };
        let rows = run_sweep(&cfg);
        assert_eq!(rows, run_sweep(&cfg), "kernel sweeps are deterministic");
        for row in rows {
            assert_eq!(row.committed, (row.lanes * cfg.insts_per_lane) as u64);
            assert_eq!(row.recoveries, row.lanes as u64);
        }
        let text = summary_json(&cfg, &run_sweep(&cfg)).render();
        assert!(text.contains("\"workload\":\"kernel:dijkstra\""));
    }

    #[test]
    fn summary_json_parses_back() {
        let cfg = tiny();
        let rows = run_sweep(&cfg);
        let text = summary_json(&cfg, &rows).render();
        let doc = Json::parse(&text).expect("summary must be valid JSON");
        let results = match doc.get("results") {
            Some(Json::Arr(items)) => items,
            other => panic!("expected results array, got {other:?}"),
        };
        assert_eq!(results.len(), cfg.lane_counts.len());
        assert_eq!(
            results[0].get("lanes").and_then(Json::as_u64),
            Some(cfg.lane_counts[0] as u64)
        );
    }
}
