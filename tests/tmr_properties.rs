//! Property tests over the TMR voting scheme: majority voting must
//! absorb *every* single-replica fault — any target, any bit, any
//! strike point, any replica — by outvoting and repairing the struck
//! replica in place, with zero rollbacks and a golden-identical final
//! memory image. Two replicas struck identically outvote the clean one:
//! detected (the schedule is known to the checker) but uncorrectable,
//! and counted as such.

use proptest::prelude::*;
use unsync::prelude::TraceEventKind::{Corrected, Rollback, Unrecoverable};
use unsync::prelude::*;

fn arb_target() -> impl Strategy<Value = FaultTarget> {
    prop::sample::select(unsync::fault::inject::ALL_TARGETS.to_vec())
}

fn arb_bench() -> impl Strategy<Value = Benchmark> {
    prop::sample::select(Benchmark::all().to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn tmr_outvotes_any_single_fault_without_rollback(
        bench in arb_bench(),
        target in arb_target(),
        bit in any::<u64>(),
        at in 50u64..1_950,
        core in 0usize..3,
        seed in 1u64..50,
    ) {
        let t = WorkloadGen::new(bench, 2_000, seed).collect_trace();
        let fault = PairFault {
            at,
            core,
            site: FaultSite { target, bit_offset: bit % target.bits() },
            kind: unsync_fault::FaultKind::Single,
        };
        let out = TmrTriple::new(CoreConfig::table1()).run(&t, &[fault]);
        prop_assert_eq!(out.events.count(Rollback), 0, "TMR never rolls back: {:?}", out);
        prop_assert!(out.events.count(Corrected) >= 1, "{:?} -> {:?}", fault, out);
        prop_assert_eq!(out.events.count(Unrecoverable), 0);
        prop_assert!(out.correct(), "{:?} -> {:?}", fault, out);
        prop_assert_eq!(out.committed, 2_000);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn two_agreeing_strikes_defeat_the_vote_but_are_counted(
        bench in arb_bench(),
        target in arb_target(),
        bit in any::<u64>(),
        at in 50u64..1_950,
        seed in 1u64..50,
    ) {
        let t = WorkloadGen::new(bench, 2_000, seed).collect_trace();
        // The same site struck on two replicas at the same instruction:
        // identical corruption forms a (wrong) majority.
        let site = FaultSite { target, bit_offset: bit % target.bits() };
        let faults: Vec<PairFault> = (0..2)
            .map(|core| PairFault {
                at,
                core,
                site,
                kind: unsync_fault::FaultKind::Single,
            })
            .collect();
        let out = TmrTriple::new(CoreConfig::table1()).run(&t, &faults);
        prop_assert_eq!(out.events.count(Rollback), 0);
        prop_assert_eq!(out.events.count(Corrected), 0, "{:?}", out);
        prop_assert!(out.detections >= 1, "{:?}", out);
        prop_assert!(out.events.count(Unrecoverable) >= 1, "{:?}", out);
        prop_assert!(!out.correct(), "an outvoted clean replica cannot be correct: {:?}", out);
    }
}
