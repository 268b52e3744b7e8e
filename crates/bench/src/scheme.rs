//! The one scheme table: every comparator the experiments and the
//! campaign engine can name, each a [`RedundancyPolicy`] run on one
//! [`Lane`] of a [`RedundantDriver`].
//!
//! The compare grids, the strike grids, the `comparators` and
//! `schemes` experiments and `--bin campaign` all look schemes up
//! here, so a new scheme is one policy plus one row. Each row builds
//! its policy with the arguments its typed wrapper (`UnsyncPair`,
//! `ReunionPair`, …) uses, so a row's run and its wrapper's run are the
//! same simulation.

use unsync_core::{UnsyncConfig, UnsyncPolicy};
use unsync_exec::{
    FlexConfig, FlexGranularityPolicy, Lane, RedundancyPolicy, RedundantDriver, RunResult,
    SecdedOnlyPolicy, TmrVotePolicy,
};
use unsync_mem::WritePolicy::WriteThrough;
use unsync_reunion::{
    CheckpointConfig, CheckpointPolicy, LockstepPolicy, ReunionConfig, ReunionPolicy,
};

/// One named comparator scheme.
#[derive(Debug, Clone, Copy)]
pub struct Scheme {
    /// The name grids and run logs use.
    pub name: &'static str,
    /// Runs one lane under the scheme's policy; with `publish` false the
    /// run leaves the metrics registry as it was
    /// ([`RedundantDriver::run_unpublished`]).
    pub(crate) run: fn(&RedundantDriver, Lane<'_>, bool) -> RunResult,
}

/// Runs `lane` alone on `driver` under `policy`, publishing its metrics
/// if `publish`. The only caller that drops the run's [`MemSystem`]
/// (which, for a lane that ended on its reference, is the system at the
/// stop — see [`Lane::reference`]).
///
/// [`MemSystem`]: unsync_mem::MemSystem
fn one<P: RedundancyPolicy>(
    driver: &RedundantDriver,
    policy: P,
    lane: Lane<'_>,
    publish: bool,
) -> RunResult {
    let (mut results, _) = if publish {
        driver.run(&mut [policy], vec![lane])
    } else {
        driver.run_unpublished(&mut [policy], vec![lane])
    };
    results.remove(0)
}

/// Every comparator scheme, in the column order of the `comparators`
/// experiment.
pub const TABLE: [Scheme; 7] = [
    Scheme {
        name: "lockstep",
        run: |d, l, p| one(d, LockstepPolicy::new(1), l, p),
    },
    Scheme {
        name: "reunion",
        run: |d, l, p| one(d, ReunionPolicy::new(ReunionConfig::paper_baseline()), l, p),
    },
    Scheme {
        name: "checkpoint",
        run: |d, l, p| one(d, CheckpointPolicy::new(CheckpointConfig::default()), l, p),
    },
    Scheme {
        name: "unsync_pair",
        run: |d, l, publish| {
            let ucfg = UnsyncConfig::paper_baseline();
            let p = UnsyncPolicy::new("unsync_pair", ucfg, WriteThrough, 0);
            one(d, p, l, publish)
        },
    },
    Scheme {
        name: "tmr_vote",
        run: |d, l, p| one(d, TmrVotePolicy::new(), l, p),
    },
    Scheme {
        name: "flex",
        run: |d, l, publish| {
            let p = FlexGranularityPolicy::new(FlexConfig::paper_baseline());
            one(d, p, l, publish)
        },
    },
    Scheme {
        name: "secded_only",
        run: |d, l, p| one(d, SecdedOnlyPolicy::new(), l, p),
    },
];

/// The table row named `name`.
pub(crate) fn find(name: &str) -> Option<&'static Scheme> {
    TABLE.iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsync_core::UnsyncPair;
    use unsync_exec::{FlexPair, SecdedOnlyCore, TmrTriple};
    use unsync_isa::TraceProgram;
    use unsync_reunion::{CheckpointHooks, LockstepPair, ReunionPair};
    use unsync_sim::CoreConfig;
    use unsync_workloads::{WorkloadSource, WorkloadSpec};

    /// The typed wrappers' fault-free cycles, in table order; the
    /// checkpoint column is the engine-only `run_stream` timing.
    fn wrapper_cycles(t: &TraceProgram) -> [u64; 7] {
        let cfg = CoreConfig::table1();
        let mut stream = t.clone();
        let mut hooks = CheckpointHooks::new(CheckpointConfig::default());
        let checkpoint = unsync_sim::run_stream(cfg, &mut stream, &mut hooks, WriteThrough);
        [
            LockstepPair::new(cfg).run(t).cycles,
            ReunionPair::new(cfg, ReunionConfig::paper_baseline())
                .run(t, &[])
                .cycles,
            checkpoint.core.last_commit_cycle,
            UnsyncPair::new(cfg, UnsyncConfig::paper_baseline())
                .run(t, &[])
                .cycles,
            TmrTriple::new(cfg).run(t, &[]).cycles,
            FlexPair::new(cfg, FlexConfig::paper_baseline())
                .run(t, &[])
                .cycles,
            SecdedOnlyCore::new(cfg).run(t, &[]).cycles,
        ]
    }

    /// Each row is the simulation its typed wrapper runs (and the
    /// checkpoint row the one `run_stream` times), so calibrations
    /// that call the wrappers measure what the engine runs.
    #[test]
    fn rows_match_their_typed_wrappers() {
        let driver = RedundantDriver::new(CoreConfig::table1());
        for name in ["gzip", "mcf", "kernel:qsort", "kernel:dijkstra"] {
            let spec = WorkloadSpec::parse(name).expect("known workload");
            let t = spec.source(6_000, 11).trace();
            let rows = TABLE.map(|s| {
                let out = (s.run)(&driver, Lane::new(&t), true);
                assert!(out.correct(), "{name} {}: {:?}", s.name, out.out);
                out.cycles
            });
            assert_eq!(rows, wrapper_cycles(&t), "{name}");
        }
    }
}
