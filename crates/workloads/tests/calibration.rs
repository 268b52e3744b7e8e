//! Calibration tests: every benchmark's generated traces must match its
//! declared profile statistics — this is what makes the synthetic-trace
//! substitution (DESIGN.md §2) defensible.

use unsync_isa::{InstStream, OpClass};
use unsync_workloads::{Benchmark, WorkloadGen};

const N: u64 = 60_000;

#[test]
fn every_benchmark_matches_its_declared_mix() {
    for &bench in Benchmark::all() {
        let p = bench.profile();
        let stats = WorkloadGen::new(bench, N, 101).collect_trace().stats();
        let close = |got: f64, want: f64, tol: f64, label: &str| {
            assert!(
                (got - want).abs() < tol,
                "{}: {label} = {got:.4}, declared {want:.4}",
                bench.name()
            );
        };
        close(
            stats.fraction(OpClass::Load),
            p.frac_load,
            0.01,
            "load fraction",
        );
        close(
            stats.fraction(OpClass::Store),
            p.frac_store,
            0.01,
            "store fraction",
        );
        close(
            stats.fraction(OpClass::Branch),
            p.frac_branch,
            0.01,
            "branch fraction",
        );
        close(
            stats.serializing_fraction(),
            p.frac_serializing,
            0.004,
            "serializing fraction",
        );
        close(
            stats.fraction(OpClass::FpAlu)
                + stats.fraction(OpClass::FpMul)
                + stats.fraction(OpClass::FpDiv),
            p.frac_fp_alu + p.frac_fp_mul + p.frac_fp_div,
            0.012,
            "fp fraction",
        );
        if p.frac_branch > 0.03 {
            close(
                stats.mispredict_rate(),
                p.mispredict_rate,
                0.03,
                "mispredict rate",
            );
        }
    }
}

#[test]
fn working_sets_stay_within_declared_bounds() {
    for &bench in Benchmark::all() {
        let p = bench.profile();
        let t = WorkloadGen::new(bench, N, 102).collect_trace();
        for inst in t.insts() {
            if let Some(m) = inst.mem {
                assert!(
                    m.addr >= 0x1000_0000 && m.addr < 0x1000_0000 + p.ws_lines * 64,
                    "{}: address {:#x} outside declared working set",
                    bench.name(),
                    m.addr
                );
            }
        }
        // Footprint (distinct lines) never exceeds the declared working set.
        assert!(
            t.stats().distinct_lines <= p.ws_lines,
            "{}: {} distinct lines > ws {}",
            bench.name(),
            t.stats().distinct_lines,
            p.ws_lines
        );
    }
}

#[test]
fn seeds_change_traces_but_not_statistics() {
    for &bench in &[Benchmark::Ammp, Benchmark::Dijkstra] {
        let a = WorkloadGen::new(bench, N, 1).collect_trace();
        let b = WorkloadGen::new(bench, N, 2).collect_trace();
        assert_ne!(a.insts(), b.insts(), "{}", bench.name());
        let (sa, sb) = (a.stats(), b.stats());
        assert!(
            (sa.store_fraction() - sb.store_fraction()).abs() < 0.01,
            "{}",
            bench.name()
        );
        assert!(
            (sa.serializing_fraction() - sb.serializing_fraction()).abs() < 0.004,
            "{}",
            bench.name()
        );
    }
}

#[test]
fn streams_and_collected_traces_agree() {
    let mut g = WorkloadGen::new(Benchmark::Twolf, 5_000, 9);
    let collected = WorkloadGen::new(Benchmark::Twolf, 5_000, 9).collect_trace();
    let mut idx = 0;
    while let Some(inst) = g.next_inst() {
        assert_eq!(inst, collected.insts()[idx]);
        idx += 1;
    }
    assert_eq!(idx, collected.len());
}
