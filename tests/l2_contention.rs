//! Properties and golden pins for the banked shared-L2 contention
//! model (`unsync_mem::L2Contention`):
//!
//! * bank-conflict stalls are monotone in request density — packing the
//!   same requests closer together never reduces total stall;
//! * MSHR occupancy never exceeds the configured limit;
//! * the zero-contention configuration reproduces the flat (pre-L2)
//!   model cycle-for-cycle, which is what keeps every pre-existing
//!   golden snapshot byte-identical.

use proptest::prelude::*;
use unsync_core::{UnsyncConfig, UnsyncPolicy};
use unsync_exec::RedundantDriver;
use unsync_mem::{HierarchyConfig, L2Contention, L2ContentionConfig, MemSystem, WritePolicy};
use unsync_sim::CoreConfig;
use unsync_workloads::{Benchmark, WorkloadGen};

fn policies(lanes: usize) -> Vec<UnsyncPolicy> {
    (0..lanes)
        .map(|p| {
            UnsyncPolicy::new(
                "l2c_test",
                UnsyncConfig::paper_baseline(),
                WritePolicy::WriteThrough,
                2 * p,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Density monotonicity: the same request sequence issued with
    /// smaller inter-arrival gaps can only stall more in total —
    /// shrinking every gap moves requests into (or deeper into) their
    /// banks' busy windows.
    #[test]
    fn stalls_are_monotone_in_request_density(
        lines in prop::collection::vec(any::<u64>(), 1..120),
        banks in 1u32..8,
        beats in 0u32..12,
        gap in 0u64..20,
    ) {
        let cfg = L2ContentionConfig { banks, bank_busy_beats: beats, mshrs: 20 };
        let stall_at = |g: u64| {
            let mut c = L2Contention::new(cfg);
            let mut cycle = 0u64;
            for &line in &lines {
                c.access(0, line % 64, cycle);
                cycle += g;
            }
            c.stall_cycles
        };
        let dense = stall_at(gap);
        let sparse = stall_at(gap + 1);
        prop_assert!(
            dense >= sparse,
            "denser issue must not stall less: gap {} → {}, gap {} → {}",
            gap, dense, gap + 1, sparse
        );
    }

    /// The shared-L2 MSHR file never tracks more outstanding misses
    /// than the configured capacity, no matter the access pattern.
    #[test]
    fn mshr_occupancy_never_exceeds_limit(
        addrs in prop::collection::vec(any::<u64>(), 1..200),
        mshrs in 1u32..6,
    ) {
        let mut mem = MemSystem::new(HierarchyConfig::table1(), 2, WritePolicy::WriteThrough);
        mem.enable_l2_contention(L2ContentionConfig { banks: 4, bank_busy_beats: 2, mshrs });
        let mut cycle = 0u64;
        let mut saw_pressure = 0usize;
        for &a in &addrs {
            // A sparse stride so most accesses miss the L2 and allocate;
            // back-to-back issue keeps many misses in flight at once.
            let addr = (a % 4_096) * 8_192;
            let _ = mem.load(0, addr, cycle);
            cycle += 1;
            let outstanding = mem.l2_mshr_outstanding(cycle);
            saw_pressure = saw_pressure.max(outstanding);
            prop_assert!(
                outstanding <= mshrs as usize,
                "MSHR occupancy {} exceeded the limit of {}",
                outstanding, mshrs
            );
        }
        // The property must not hold vacuously: with misses issued every
        // cycle against a 400-cycle DRAM, the file does fill up.
        if addrs.len() > mshrs as usize * 4 {
            prop_assert!(saw_pressure >= 1, "expected some outstanding misses");
        }
    }
}

#[test]
fn zero_contention_config_reproduces_the_flat_model_exactly() {
    // Enabling the model with zero bank occupancy and the Table I MSHR
    // count must be cycle-identical to never enabling it: same lane
    // results (counters, events, memory) and same L2 statistics.
    let driver_flat = RedundantDriver::new(CoreConfig::table1());
    let driver_zero = RedundantDriver::new(CoreConfig::table1())
        .with_l2_contention(L2ContentionConfig::zero_contention());
    for lanes in [1usize, 4] {
        let traces: Vec<_> = (0..lanes)
            .map(|p| WorkloadGen::new(Benchmark::Qsort, 900, 13 + p as u64).collect_trace())
            .collect();
        let (flat, flat_mem) = driver_flat.run_system(&mut policies(lanes), &traces);
        let (zero, zero_mem) = driver_zero.run_system(&mut policies(lanes), &traces);
        for (p, (f, z)) in flat.iter().zip(zero.iter()).enumerate() {
            assert_eq!(f.out, z.out, "lane {p} of {lanes}: outcome counters");
            assert_eq!(f.events, z.events, "lane {p} of {lanes}: event stream");
            assert_eq!(f.memory, z.memory, "lane {p} of {lanes}: memory image");
        }
        assert_eq!(
            flat_mem.l2_stats().miss_rate(),
            zero_mem.l2_stats().miss_rate(),
            "{lanes} lanes: L2 miss rate"
        );
        let c = zero_mem.l2_contention().expect("model enabled");
        assert_eq!(c.conflicts, 0, "zero-occupancy banks never conflict");
        assert_eq!(c.stall_cycles, 0);
        assert!(c.requests > 0, "traffic must actually route through banks");
    }
}

#[test]
fn contention_slows_the_system_down_and_emits_events() {
    // A heavily-serialized L2 (one bank, long occupancy) must cost
    // cycles relative to the flat model and surface cycle-stamped
    // L2Contention events in the lane streams.
    use unsync_exec::TraceEventKind;
    let traces: Vec<_> = (0..4usize)
        .map(|p| {
            WorkloadGen::new_at(
                Benchmark::Gzip,
                600,
                7 + p as u64,
                0x1000_0000 + p as u64 * 0x0100_0000,
            )
            .collect_trace()
        })
        .collect();
    let flat = RedundantDriver::new(CoreConfig::table1());
    let slow = RedundantDriver::new(CoreConfig::table1()).with_l2_contention(L2ContentionConfig {
        banks: 1,
        bank_busy_beats: 16,
        mshrs: 20,
    });
    let (flat_res, _) = flat.run_system(&mut policies(4), &traces);
    let (slow_res, slow_mem) = slow.run_system(&mut policies(4), &traces);
    let flat_makespan = flat_res.iter().map(|r| r.out.cycles).max().unwrap();
    let slow_makespan = slow_res.iter().map(|r| r.out.cycles).max().unwrap();
    assert!(
        slow_makespan > flat_makespan,
        "a serialized L2 must cost cycles: {slow_makespan} vs {flat_makespan}"
    );
    let c = slow_mem.l2_contention().expect("model enabled");
    assert!(c.conflicts > 0, "one bank must conflict");
    let stamped: u64 = slow_res
        .iter()
        .map(|r| r.events.sum(TraceEventKind::L2Contention))
        .sum();
    assert_eq!(
        stamped, c.stall_cycles,
        "every bank-stall cycle must be attributed to some lane's event stream"
    );
    assert!(
        slow_res
            .iter()
            .any(|r| r.events.count(TraceEventKind::L2Contention) > 0),
        "conflict events must reach the lane streams"
    );
}

#[test]
fn unsync_system_goldens_are_untouched_by_the_model_existing() {
    // The contention model is opt-in: a plain run_system run (no
    // contention configured) must behave exactly as before the model
    // existed. The committed goldens under tests/golden/ pin this at
    // the JSONL level; this pins the in-process outcome shape.
    let t = WorkloadGen::new(Benchmark::Gzip, 1_000, 3).collect_trace();
    let driver = RedundantDriver::new(CoreConfig::table1());
    let (out, _) = driver.run_system(&mut policies(1), std::slice::from_ref(&t));
    assert_eq!(out[0].committed, 1_000);
    assert!(out[0].correct());
}
