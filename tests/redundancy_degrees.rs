//! Cross-crate checks of the configurability extensions: N-way groups,
//! multi-pair systems, and the energy model tied to measured runtimes.

use unsync::core::UnsyncSystem;
use unsync::prelude::*;

#[test]
fn redundancy_degree_trades_cycles_for_burst_tolerance() {
    let t = WorkloadGen::new(Benchmark::Gzip, 8_000, 33).collect_trace();
    // A burst striking two replicas at once.
    let burst = [
        PairFault {
            at: 3_000,
            core: 0,
            site: FaultSite {
                target: FaultTarget::RegisterFile,
                bit_offset: 70,
            },
            kind: unsync_fault::FaultKind::Single,
        },
        PairFault {
            at: 3_000,
            core: 1,
            site: FaultSite {
                target: FaultTarget::Lsq,
                bit_offset: 7,
            },
            kind: unsync_fault::FaultKind::Single,
        },
    ];
    let g2 = UnsyncGroup::new(CoreConfig::table1(), UnsyncConfig::paper_baseline(), 2);
    let g3 = UnsyncGroup::new(CoreConfig::table1(), UnsyncConfig::paper_baseline(), 3);
    let o2 = g2.run(&t, &burst);
    let o3 = g3.run(&t, &burst);
    assert!(
        !o2.correct(),
        "2-way cannot source recovery for a double strike"
    );
    assert!(o3.correct(), "3-way has a clean replica: {o3:?}");
    // Error-free: wider groups are never faster.
    let f2 = g2.run(&t, &[]);
    let f3 = g3.run(&t, &[]);
    assert!(f3.cycles >= f2.cycles);
    assert!(f2.correct() && f3.correct());
}

#[test]
fn system_and_pair_agree_for_one_pair() {
    let t = WorkloadGen::new(Benchmark::Fft, 8_000, 34).collect_trace();
    let sys = UnsyncSystem::new(CoreConfig::table1(), UnsyncConfig::paper_baseline());
    let sys_out = sys.run(std::slice::from_ref(&t));
    let pair_out =
        UnsyncPair::new(CoreConfig::table1(), UnsyncConfig::paper_baseline()).run(&t, &[]);
    assert_eq!(sys_out.pairs[0].cycles, pair_out.cycles);
    assert_eq!(
        sys_out.pairs[0].cb_drained,
        pair_out.events.sum(TraceEventKind::CbDrain)
    );
}

#[test]
fn energy_reflects_measured_runtimes() {
    let t = WorkloadGen::new(Benchmark::Galgel, 20_000, 35).collect_trace();
    let mut s = WorkloadGen::new(Benchmark::Galgel, 20_000, 35);
    let base_cycles = run_baseline(CoreConfig::table1(), &mut s)
        .core
        .last_commit_cycle;
    let u_cycles = UnsyncPair::new(CoreConfig::table1(), UnsyncConfig::paper_baseline())
        .run(&t, &[])
        .cycles;
    let r_cycles = ReunionPair::new(CoreConfig::table1(), ReunionConfig::paper_baseline())
        .run(&t, &[])
        .cycles;
    let clock = 2e9;
    let base = EnergyReport::new(&CoreModel::mips_baseline(), 1, base_cycles, 20_000, clock);
    let unsync = EnergyReport::new(&CoreModel::unsync(), 2, u_cycles, 20_000, clock);
    let reunion = EnergyReport::new(&CoreModel::reunion(), 2, r_cycles, 20_000, clock);
    // Redundancy costs energy; UnSync's pair undercuts Reunion's on both
    // energy and EDP (the paper's power claim compounded with runtime).
    assert!(unsync.energy_j > base.energy_j);
    assert!(unsync.energy_j < reunion.energy_j);
    assert!(unsync.edp < reunion.edp);
}

#[test]
fn copy_l1_recovery_is_correct_under_bursts() {
    let t = WorkloadGen::new(Benchmark::Qsort, 10_000, 36).collect_trace();
    let faults: Vec<PairFault> = (0..6)
        .map(|i| PairFault {
            at: 1_000 + i * 1_400,
            core: (i % 2) as usize,
            site: FaultSite {
                target: FaultTarget::Rob,
                bit_offset: i,
            },
            kind: unsync_fault::FaultKind::Single,
        })
        .collect();
    let out =
        UnsyncPair::new(CoreConfig::table1(), UnsyncConfig::paper_baseline()).run(&t, &faults);
    assert_eq!(out.recoveries, 6);
    assert!(out.correct(), "{out:?}");
}
