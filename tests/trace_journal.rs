//! The opt-in full trace journal (`RedundantDriver::with_journal`).

use unsync::core::{UnsyncConfig, UnsyncPolicy};
use unsync::exec::event::DEFAULT_JOURNAL_CAP;
use unsync::exec::{episodes_from, Lane, RedundantDriver, TraceEventKind};
use unsync::mem::WritePolicy;
use unsync::prelude::*;
use unsync::sim::CoreConfig;

#[test]
fn journal_captures_the_full_stamped_sequence() {
    let t = WorkloadGen::new(Benchmark::Gzip, 4_000, 5).collect_trace();
    let fault = PairFault {
        at: 2_000,
        core: 1,
        site: FaultSite {
            target: FaultTarget::RegisterFile,
            bit_offset: 9,
        },
        kind: unsync::fault::FaultKind::Single,
    };
    let driver = RedundantDriver::new(CoreConfig::table1()).with_journal(DEFAULT_JOURNAL_CAP);
    let policy = UnsyncPolicy::new(
        "unsync_pair",
        UnsyncConfig::paper_baseline(),
        WritePolicy::WriteThrough,
        0,
    );
    let mut lane = Lane::new(&t);
    lane.faults = vec![fault];
    let res = driver.run(&mut [policy], vec![lane]).0.remove(0);

    let journal = res.events.journal().expect("journal mode is on");
    assert_eq!(res.events.journal_dropped(), 0, "default cap is ample");

    // The journal holds the complete sequence: per-kind counts and sums
    // reconstruct the accumulators exactly, and the stamps are monotone.
    for kind in [
        TraceEventKind::Detection,
        TraceEventKind::RecoveryStart,
        TraceEventKind::RecoveryEnd,
        TraceEventKind::CbDrain,
    ] {
        let n = journal.iter().filter(|e| e.kind == kind).count() as u64;
        assert_eq!(n, res.events.count(kind), "{kind:?} count");
        let s: u64 = journal
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| e.value)
            .sum();
        assert_eq!(s, res.events.sum(kind), "{kind:?} sum");
    }
    assert!(journal.windows(2).all(|w| w[0].cycle <= w[1].cycle));

    // Replaying the journal through the offline pairing reproduces the
    // stream's inline episodes — the journal is a faithful record.
    assert_eq!(episodes_from(journal), res.events.episodes());
    assert_eq!(res.out.recoveries, 1);
    assert_eq!(res.events.episodes().len(), 1);
}
