//! Cross-crate checks of UnSync redundancy at the pair and system level:
//! a detected strike on both cores at once, a one-pair system against
//! the pair, and recovery under fault bursts.

use unsync::core::UnsyncPolicy;
use unsync::exec::RedundantDriver;
use unsync::prelude::*;

#[test]
fn pair_cannot_recover_a_strike_on_both_cores_at_one_instruction() {
    let t = WorkloadGen::new(Benchmark::Gzip, 8_000, 33).collect_trace();
    // A burst striking both cores at one instruction.
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
    let pair = UnsyncPair::new(CoreConfig::table1(), UnsyncConfig::paper_baseline());
    let out = pair.run(&t, &burst);
    assert_eq!((out.detections, out.unrecoverable), (1, 1), "{out:?}");
    assert_eq!(out.recoveries, 0);
    assert!(
        !out.correct(),
        "2-way cannot source recovery for a double strike"
    );
    // Either strike alone has a clean core to recover from.
    for f in burst {
        let single = pair.run(&t, &[f]);
        assert_eq!(single.recoveries, 1);
        assert!(single.correct(), "{single:?}");
    }
}

#[test]
fn system_and_pair_agree_for_one_pair() {
    let t = WorkloadGen::new(Benchmark::Fft, 8_000, 34).collect_trace();
    let policy = UnsyncPolicy::new(
        "unsync_pair",
        UnsyncConfig::paper_baseline(),
        WritePolicy::WriteThrough,
        0,
    );
    let (sys_out, _) = RedundantDriver::new(CoreConfig::table1())
        .run_system(&mut [policy], std::slice::from_ref(&t));
    let pair_out =
        UnsyncPair::new(CoreConfig::table1(), UnsyncConfig::paper_baseline()).run(&t, &[]);
    assert_eq!(sys_out[0].cycles, pair_out.cycles);
    assert_eq!(
        sys_out[0].events.sum(TraceEventKind::CbDrain),
        pair_out.events.sum(TraceEventKind::CbDrain)
    );
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
