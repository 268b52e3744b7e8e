//! Micro-benches over the experiment drivers — one group per paper
//! artifact, at reduced instruction counts so `cargo bench` finishes in
//! minutes while exercising exactly the code paths the binaries use.

use unsync_bench::experiments::{self, ExperimentConfig};
use unsync_bench::microbench::Bench;
use unsync_bench::Runner;
use unsync_core::{UnsyncConfig, UnsyncPair};
use unsync_reunion::{ReunionConfig, ReunionPair};
use unsync_sim::{run_baseline, CoreConfig};
use unsync_workloads::{Benchmark, WorkloadGen};

const N: u64 = 20_000;

fn bench_table2_table3() {
    let mut g = Bench::group("tables");
    g.bench("table2/hwcost-model", unsync_hwcost::table2);
    g.bench("table3/die-projection", unsync_hwcost::table3);
}

fn bench_fig4_architectures() {
    let mut g = Bench::group("fig4");
    for bench in [Benchmark::Bzip2, Benchmark::Galgel] {
        let trace = WorkloadGen::new(bench, N, 1).collect_trace();
        g.bench(&format!("baseline/{}", bench.name()), || {
            let mut s = WorkloadGen::new(bench, N, 1);
            run_baseline(CoreConfig::table1(), &mut s)
        });
        let reunion = ReunionPair::new(CoreConfig::table1(), ReunionConfig::paper_baseline());
        g.bench(&format!("reunion-pair/{}", bench.name()), || {
            reunion.run(&trace, &[])
        });
        let unsync = UnsyncPair::new(CoreConfig::table1(), UnsyncConfig::paper_baseline());
        g.bench(&format!("unsync-pair/{}", bench.name()), || {
            unsync.run(&trace, &[])
        });
    }
}

fn bench_fig5_sweep_point() {
    let mut g = Bench::group("fig5");
    for (fi, lat) in [(1u32, 10u32), (30, 40)] {
        g.bench(&format!("reunion/fi{fi}-lat{lat}"), || {
            let mut s = WorkloadGen::new(Benchmark::Galgel, N, 1);
            let mut hooks = unsync_reunion::ReunionHooks::new(ReunionConfig::for_fi(fi, lat));
            unsync_sim::run_stream(
                CoreConfig::table1(),
                &mut s,
                &mut hooks,
                unsync_mem::WritePolicy::WriteThrough,
            )
        });
    }
}

fn bench_fig6_cb_sizes() {
    let mut g = Bench::group("fig6");
    let trace = WorkloadGen::new(Benchmark::Qsort, N, 1).collect_trace();
    for entries in [2usize, 256] {
        let pair = UnsyncPair::new(CoreConfig::table1(), UnsyncConfig::with_cb_entries(entries));
        g.bench(&format!("unsync-cb/{entries}"), || pair.run(&trace, &[]));
    }
}

fn bench_comparators_and_extensions() {
    let mut g = Bench::group("extensions");
    let trace = WorkloadGen::new(Benchmark::Gzip, N, 1).collect_trace();
    let lockstep = unsync_reunion::LockstepPair::new(CoreConfig::table1());
    g.bench("lockstep-pair", || lockstep.run(&trace));
    g.bench("checkpoint-hooks", || {
        let mut s = WorkloadGen::new(Benchmark::Gzip, N, 1);
        let mut hooks =
            unsync_reunion::CheckpointHooks::new(unsync_reunion::CheckpointConfig::default());
        unsync_sim::run_stream(
            CoreConfig::table1(),
            &mut s,
            &mut hooks,
            unsync_mem::WritePolicy::WriteThrough,
        )
    });
    for ways in [2usize, 3] {
        let grp = unsync_core::UnsyncGroup::new(
            CoreConfig::table1(),
            UnsyncConfig::paper_baseline(),
            ways,
        );
        g.bench(&format!("nway-group/{ways}"), || grp.run(&trace, &[]));
    }
    let ta = WorkloadGen::new_at(Benchmark::Sha, N / 2, 1, 0x1000_0000).collect_trace();
    let tb = WorkloadGen::new_at(Benchmark::Qsort, N / 2, 2, 0x9000_0000).collect_trace();
    let sys = unsync_core::UnsyncSystem::new(CoreConfig::table1(), UnsyncConfig::paper_baseline());
    let both = [ta, tb];
    g.bench("two-pair-system", || sys.run(&both));
    g.bench("trace-codec-roundtrip", || {
        let bytes = unsync_isa::encode_trace(&trace);
        unsync_isa::decode_trace(&bytes).unwrap().len()
    });
    g.bench("avf-estimate", || {
        unsync_fault::avf::estimate(&trace, 0.5, 0.5, 0.25)
    });
}

fn bench_reliability() {
    let mut g = Bench::group("reliability");
    g.bench("ser-sweep", || {
        experiments::ser_sweep_on(
            Runner::new(1),
            ExperimentConfig::quick(),
            &[Benchmark::Gzip],
        )
    });
    g.bench("roec-campaign", || {
        experiments::roec_on(Runner::new(1), ExperimentConfig::quick(), 6)
    });
}

fn main() {
    bench_table2_table3();
    bench_fig4_architectures();
    bench_fig5_sweep_point();
    bench_fig6_cb_sizes();
    bench_comparators_and_extensions();
    bench_reliability();
}
