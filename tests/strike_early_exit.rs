//! A strike lane that ends at its last strike ([`Lane::reference`])
//! gives exactly the result of the full run:
//!
//! * on every job of a strike grid over all seven scheme-table rows and
//!   all six uncore structures, a run given the memoized golden image
//!   (which opts into the strike-free reference memo) equals the full
//!   simulation, journal included — and the memo served references, so
//!   the early exit was on the path;
//! * a two-lane run and a lane that also carries a core fault ignore a
//!   reference and simulate in full.

use unsync_bench::campaign::{CampaignGrid, JobKind};
use unsync_bench::roec_uncore::run_scheme_with_strikes;
use unsync_bench::runner::golden_memory_source;
use unsync_bench::scheme;
use unsync_core::{UnsyncConfig, UnsyncPolicy};
use unsync_exec::{Lane, RedundantDriver, Reference, RunResult};
use unsync_fault::uncore::{StrikePlan, UncoreSite, UncoreStrike, UncoreTarget};
use unsync_fault::{FaultKind, FaultSite, FaultTarget, PairFault};
use unsync_isa::TraceProgram;
use unsync_mem::{L2ContentionConfig, WritePolicy};
use unsync_sim::CoreConfig;
use unsync_workloads::{Benchmark, WorkloadGen, WorkloadSource, WorkloadSpec};

fn served_references() -> u64 {
    unsync_sim::metrics::global()
        .counter("runner.reference_cache_hits")
        .get()
}

#[test]
fn early_exit_equals_the_full_run_on_every_job_of_a_table_grid() {
    let grid = CampaignGrid {
        name: "early_exit".into(),
        inst_count: 300,
        seeds: vec![11],
        workloads: vec![
            WorkloadSpec::Synthetic(Benchmark::Gzip),
            WorkloadSpec::parse("kernel:qsort").expect("known workload"),
        ],
        schemes: scheme::TABLE.iter().map(|s| s.name).collect(),
        strikes: Some(StrikePlan::all_uncore(2, 600)),
        contention: Some(L2ContentionConfig::many_core()),
    };
    let plan = grid.strikes.as_ref().expect("strike grid");
    let contended = RedundantDriver::new(CoreConfig::table1())
        .with_l2_contention(L2ContentionConfig::many_core());
    // A short journal, so the replay must reproduce its drops too.
    let drivers = [contended.clone(), contended.with_journal(32)];
    let served = served_references();
    let jobs = grid.expand();
    assert_eq!(jobs.len(), 2 * 7 * 6 * 2);
    for job in jobs {
        let JobKind::Strike { target, index } = job.kind else {
            panic!("a strike grid has only strike jobs");
        };
        let source = job.workload.source(job.inst_count, job.seed);
        let trace = source.trace();
        let golden = golden_memory_source(&source);
        let strike = plan.strike(target, index, job.stream_seed(), 0);
        for driver in &drivers {
            let run =
                |golden| run_scheme_with_strikes(driver, job.scheme, &trace, vec![strike], golden);
            let (early, full) = (run(Some(&*golden)), run(None));
            let what = format!("{} {} {}", job.workload.name(), job.scheme, target.label());
            assert_eq!(early, full, "{what} strike {index}");
            assert_eq!(early.events.journal(), full.events.journal(), "{what}");
            let dropped = early.events.journal_dropped();
            assert_eq!(dropped, full.events.journal_dropped(), "{what}");
        }
    }
    assert!(
        served_references() > served,
        "no strike job was served a strike-free reference"
    );
}

fn trace(seed: u64) -> TraceProgram {
    WorkloadGen::new(Benchmark::Gzip, 1_500, seed).collect_trace()
}

fn policy(core_base: usize) -> UnsyncPolicy {
    UnsyncPolicy::new(
        "early_exit_test",
        UnsyncConfig::paper_baseline(),
        WritePolicy::WriteThrough,
        core_base,
    )
}

/// A strike on a bank arbiter of an L2 without the contention model:
/// there is no arbiter state, so it is benign and changes nothing.
fn neutral_strike(lane: usize) -> UncoreStrike {
    UncoreStrike {
        cycle: 200,
        lane,
        site: UncoreSite {
            target: UncoreTarget::BankArbiter,
            bit_offset: 1,
        },
        kind: FaultKind::Single,
        directed: false,
    }
}

/// Lane 0's strike-free run of `t` alone, with the journal a reference
/// needs.
fn strike_free(driver: &RedundantDriver, t: &TraceProgram) -> RunResult {
    let reference_driver = driver.reference_driver();
    let mut runs = reference_driver
        .run_unpublished(&mut [policy(0)], vec![Lane::new(t)])
        .0;
    runs.remove(0)
}

#[test]
fn a_two_lane_run_ignores_its_reference() {
    let driver = RedundantDriver::new(CoreConfig::table1());
    let (t0, t1) = (trace(3), trace(4));
    let alone = strike_free(&driver, &t0);
    let run = |reference: Option<Reference<'_>>| {
        let lanes = vec![
            Lane {
                uncore: vec![neutral_strike(0)],
                reference,
                ..Lane::new(&t0)
            },
            Lane::new(&t1),
        ];
        driver.run(&mut [policy(0), policy(2)], lanes).0
    };
    let with = run(Some(Reference::of(&alone)));
    let without = run(None);
    assert_eq!(with, without);
    // The other lane changes lane 0's run, so ending on the one-lane
    // reference would have shown.
    assert_ne!(with[0].out, alone.out);
}

#[test]
fn a_lane_with_a_core_fault_ignores_its_reference() {
    let driver = RedundantDriver::new(CoreConfig::table1());
    let t = trace(5);
    let clean = strike_free(&driver, &t);
    let fault = PairFault {
        at: 900,
        core: 1,
        site: FaultSite {
            target: FaultTarget::Lsq,
            bit_offset: 11,
        },
        kind: FaultKind::Single,
    };
    let run = |reference: Option<Reference<'_>>| {
        let lane = Lane {
            faults: vec![fault],
            uncore: vec![neutral_strike(0)],
            reference,
            ..Lane::new(&t)
        };
        driver.run(&mut [policy(0)], vec![lane]).0.remove(0)
    };
    let with = run(Some(Reference::of(&clean)));
    assert_eq!(with, run(None));
    // The fault is recovered after the strike, so ending on the clean
    // reference would have lost it.
    assert_eq!(with.recoveries, 1);
    assert_eq!(clean.recoveries, 0);
}
