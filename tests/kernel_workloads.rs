//! End-to-end coverage of the real-ISA kernel workloads (the
//! `WorkloadSource` seam's second backend): determinism of the emitted
//! traces and memory images, byte-identical multi-lane system runs at
//! 2 and 8 lanes, a `run_system` vs `run_system_reference` scheduler
//! differential over kernel traces, and all four kernels executing
//! through the unmodified `RedundantDriver` under UnsyncPair and TMR;
//! and the `kernel_stats` row's summary.

use unsync_bench::Json;
use unsync_core::{UnsyncConfig, UnsyncPair, UnsyncPolicy};
use unsync_exec::{Lane, RedundantDriver, TmrTriple};
use unsync_isa::{golden_run, TraceProgram};
use unsync_mem::{L2ContentionConfig, WritePolicy};
use unsync_sim::CoreConfig;
use unsync_workloads::{Kernel, WorkloadSource};

const INSTS: u64 = 1_200;
const SEED: u64 = 41;

/// One kernel trace per lane, lane-varying seeds and disjoint data
/// segments so lanes do not share cache lines.
fn lane_traces(kernel: Kernel, lanes: usize) -> Vec<TraceProgram> {
    (0..lanes)
        .map(|p| {
            kernel
                .source(INSTS, SEED + p as u64)
                .trace_at(0x1000_0000 + p as u64 * 0x0100_0000)
        })
        .collect()
}

fn policies(lanes: usize) -> Vec<UnsyncPolicy> {
    (0..lanes)
        .map(|p| {
            UnsyncPolicy::new(
                "kernel_system",
                UnsyncConfig::paper_baseline(),
                WritePolicy::WriteThrough,
                2 * p,
            )
        })
        .collect()
}

#[test]
fn same_kernel_and_seed_is_byte_identical_at_2_and_8_lanes() {
    let driver = RedundantDriver::new(CoreConfig::table1());
    for &kernel in Kernel::all() {
        for lanes in [2usize, 8] {
            let ta = lane_traces(kernel, lanes);
            let tb = lane_traces(kernel, lanes);
            assert_eq!(ta, tb, "{}: trace generation must be pure", kernel.name());
            let (ra, _) = driver.run_system(&mut policies(lanes), &ta);
            let (rb, _) = driver.run_system(&mut policies(lanes), &tb);
            for (p, (a, b)) in ra.iter().zip(rb.iter()).enumerate() {
                assert_eq!(a.out, b.out, "{} lane {p}: outcome counters", kernel.name());
                assert_eq!(a.events, b.events, "{} lane {p}: events", kernel.name());
                assert_eq!(a.memory, b.memory, "{} lane {p}: memory", kernel.name());
                assert_eq!(a.out.committed, INSTS, "{} lane {p}", kernel.name());
            }
        }
    }
}

#[test]
fn kernel_lane_memory_matches_the_isa_golden_run() {
    // The driver's committed memory image for a fault-free kernel lane
    // must equal architecturally executing the same trace.
    let driver = RedundantDriver::new(CoreConfig::table1());
    for &kernel in Kernel::all() {
        let ts = lane_traces(kernel, 2);
        let (results, _) = driver.run_system(&mut policies(2), &ts);
        for (p, (r, t)) in results.iter().zip(&ts).enumerate() {
            let (_, golden) = golden_run(t);
            assert_eq!(
                r.memory,
                golden,
                "{} lane {p}: committed memory vs golden run",
                kernel.name()
            );
        }
    }
}

#[test]
fn scheduler_matches_reference_loop_on_kernel_traces() {
    // The discrete-event scheduler against the laggard-scan oracle,
    // over kernel traces and a contended L2 (stalls perturb lane
    // clocks, so pop order depends on the contention model).
    let driver = RedundantDriver::new(CoreConfig::table1())
        .with_l2_contention(L2ContentionConfig::many_core());
    for &kernel in &[Kernel::Crc32, Kernel::Stringsearch] {
        for lanes in [2usize, 8] {
            let ts = lane_traces(kernel, lanes);
            let (new, new_mem) = driver.run_system(&mut policies(lanes), &ts);
            let (old, old_mem) = driver
                .run_system_reference(&mut policies(lanes), ts.iter().map(Lane::new).collect());
            for (p, (n, o)) in new.iter().zip(old.iter()).enumerate() {
                assert_eq!(n.out, o.out, "{} lane {p}: counters", kernel.name());
                assert_eq!(n.events, o.events, "{} lane {p}: events", kernel.name());
                assert_eq!(n.memory, o.memory, "{} lane {p}: memory", kernel.name());
            }
            assert_eq!(
                new_mem
                    .l2_contention()
                    .map(|c| (c.conflicts, c.stall_cycles, c.requests)),
                old_mem
                    .l2_contention()
                    .map(|c| (c.conflicts, c.stall_cycles, c.requests)),
                "{} x{lanes}: L2 contention statistics",
                kernel.name()
            );
        }
    }
}

#[test]
fn every_kernel_runs_under_unsync_pair_and_tmr() {
    for &kernel in Kernel::all() {
        let t = kernel.source(INSTS, SEED).trace();
        let pair = UnsyncPair::new(CoreConfig::table1(), UnsyncConfig::paper_baseline());
        let p = pair.run(&t, &[]);
        assert_eq!(p.committed, INSTS, "{}: pair commits", kernel.name());
        assert!(p.correct(), "{}: pair correct: {:?}", kernel.name(), p.out);

        let tmr = TmrTriple::new(CoreConfig::table1()).run(&t, &[]);
        assert_eq!(tmr.committed, INSTS, "{}: TMR commits", kernel.name());
        assert!(tmr.correct(), "{}: TMR correct", kernel.name());
    }
}

/// `paper kernel_stats` at 2 000 instructions and seed 7 writes a
/// `KERNEL_stats.json` listing the four kernels, each with a measured
/// instruction mix in range.
#[test]
fn kernel_stats_row_writes_a_sane_summary() {
    let row = unsync_bench::experiment::find("kernel_stats").expect("kernel_stats row");
    let cfg = unsync_bench::ExperimentConfig {
        inst_count: 2_000,
        seed: 7,
    };
    let out = (row.run)(unsync_bench::Runner::new(2), cfg);
    let (_, text) = out
        .files
        .iter()
        .find(|(path, _)| path.ends_with("KERNEL_stats.json"))
        .expect("the row writes KERNEL_stats.json");
    let doc = Json::parse(text).expect("KERNEL_stats.json parses");
    assert_eq!(doc.get("schema").and_then(Json::as_u64), Some(1));
    let Some(Json::Arr(rows)) = doc.get("kernels") else {
        panic!("no kernels array");
    };
    let names: Vec<&str> = rows
        .iter()
        .map(|r| r.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(
        names,
        [
            "kernel:qsort",
            "kernel:crc32",
            "kernel:dijkstra",
            "kernel:stringsearch"
        ]
    );
    for r in rows {
        let field = |key| r.get(key).and_then(Json::as_f64).expect(key);
        assert_eq!(field("instructions"), 2_000.0, "{r:?}");
        assert!(field("serializing_fraction") > 0.0, "{r:?}");
        assert!(field("store_fraction") > 0.0, "{r:?}");
        let mispredict = field("mispredict_rate");
        assert!(0.0 < mispredict && mispredict < 0.5, "{r:?}");
        assert!(field("baseline_cycles") >= field("instructions"), "{r:?}");
    }
}
