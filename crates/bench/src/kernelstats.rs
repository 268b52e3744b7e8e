//! Measured statistics for the real-ISA kernel workloads.
//!
//! The synthetic generators are *calibrated to* the paper's published
//! per-benchmark numbers; the kernels let us *measure* the same
//! quantities from executed code. This module derives, per kernel, the
//! serializing fraction, instruction mix, store intensity, branch
//! mispredict rate, memory footprint, and baseline core performance —
//! everything the profile tables assume — and renders them as the
//! committed `KERNEL_stats.json` document plus a dashboard-diffable
//! `kernel_stats` run log (see the `kernel_stats` row of
//! [`crate::experiment::TABLE`]).

use unsync_isa::OpClass;
use unsync_sim::{run_baseline, CoreConfig};
use unsync_workloads::Kernel;

use crate::runlog::Json;
use crate::runner::Runner;
use crate::ExperimentConfig;

/// Measured statistics of one kernel at one `(length, seed)` point.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct KernelStatsRow {
    /// Workload-spec name (`kernel:qsort`, …).
    pub(crate) name: &'static str,
    /// Emitted trace length (equals the configured instruction count).
    pub(crate) instructions: u64,
    /// Input seed.
    pub(crate) seed: u64,
    /// Fraction of serializing instructions (traps + memory barriers) —
    /// the quantity the paper's Fig. 5 sensitivity turns on.
    pub(crate) serializing_fraction: f64,
    /// Fraction of committed stores (write-through pressure).
    pub(crate) store_fraction: f64,
    /// Fraction of loads.
    pub(crate) load_fraction: f64,
    /// Fraction of branches.
    pub(crate) branch_fraction: f64,
    /// Fraction of plain integer-ALU operations.
    pub(crate) int_alu_fraction: f64,
    /// Mispredicted share of all branches.
    pub(crate) mispredict_rate: f64,
    /// Distinct 64-byte lines the trace touches.
    pub(crate) distinct_lines: u64,
    /// Words the kernel's architectural memory holds after execution.
    pub(crate) footprint_words: u64,
    /// Single-core baseline cycles over the trace (Table I core).
    pub(crate) baseline_cycles: u64,
    /// Single-core baseline IPC.
    pub(crate) baseline_ipc: f64,
}

/// Measures every kernel at `cfg`'s `(inst_count, seed)` point on
/// `runner`'s pool, one kernel per job: builds the trace through the
/// [`unsync_workloads::WorkloadSource`] seam, takes its
/// `TraceStats`, and runs the Table I baseline core over
/// it. Rows come back in [`Kernel::all`] order and are fully
/// deterministic in `cfg`, whatever the worker count.
pub(crate) fn kernel_stats(runner: Runner, cfg: ExperimentConfig) -> Vec<KernelStatsRow> {
    runner.map(Kernel::all(), |&kernel| {
        let source = kernel.source(cfg.inst_count, cfg.seed);
        let (trace, memory) = source.build();
        let stats = trace.stats();
        let baseline = run_baseline(CoreConfig::table1(), &mut trace.clone());
        KernelStatsRow {
            name: kernel.spec_name(),
            instructions: trace.len() as u64,
            seed: cfg.seed,
            serializing_fraction: stats.serializing_fraction(),
            store_fraction: stats.store_fraction(),
            load_fraction: stats.fraction(OpClass::Load),
            branch_fraction: stats.fraction(OpClass::Branch),
            int_alu_fraction: stats.fraction(OpClass::IntAlu),
            mispredict_rate: stats.mispredict_rate(),
            distinct_lines: stats.distinct_lines,
            footprint_words: memory.footprint_words() as u64,
            baseline_cycles: baseline.core.last_commit_cycle,
            baseline_ipc: baseline.ipc(),
        }
    })
}

/// The JSON fields of one row (shared by the run log and the summary).
pub(crate) fn row_json(r: &KernelStatsRow) -> Json {
    Json::obj()
        .field("name", r.name)
        .field("instructions", r.instructions)
        .field("seed", r.seed)
        .field("serializing_fraction", r.serializing_fraction)
        .field("store_fraction", r.store_fraction)
        .field("load_fraction", r.load_fraction)
        .field("branch_fraction", r.branch_fraction)
        .field("int_alu_fraction", r.int_alu_fraction)
        .field("mispredict_rate", r.mispredict_rate)
        .field("distinct_lines", r.distinct_lines)
        .field("footprint_words", r.footprint_words)
        .field("baseline_cycles", r.baseline_cycles)
        .field("baseline_ipc", r.baseline_ipc)
}

/// The `KERNEL_stats.json` document for `rows`.
pub(crate) fn stats_json(cfg: ExperimentConfig, rows: &[KernelStatsRow]) -> Json {
    Json::obj()
        .field("schema", 1u64)
        .field("inst_count", cfg.inst_count)
        .field("seed", cfg.seed)
        .field("kernels", Json::Arr(rows.iter().map(row_json).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            inst_count: 2_000,
            seed: 7,
        }
    }

    #[test]
    fn stats_are_deterministic_and_cover_every_kernel() {
        let rows = kernel_stats(Runner::new(1), tiny());
        assert_eq!(rows.len(), Kernel::all().len());
        assert_eq!(rows, kernel_stats(Runner::new(1), tiny()));
        assert_eq!(rows, kernel_stats(Runner::new(2), tiny()));
        for r in &rows {
            assert_eq!(r.instructions, 2_000, "{}", r.name);
            assert!(r.serializing_fraction > 0.0, "{}", r.name);
            assert!(r.store_fraction > 0.0, "{}", r.name);
            assert!(
                r.mispredict_rate > 0.0 && r.mispredict_rate < 0.5,
                "{}: {}",
                r.name,
                r.mispredict_rate
            );
            assert!(r.baseline_cycles >= r.instructions, "{}", r.name);
            assert!(r.footprint_words > 0, "{}", r.name);
        }
    }

    #[test]
    fn summary_document_parses_back() {
        let cfg = tiny();
        let rows = kernel_stats(Runner::new(1), cfg);
        let doc = Json::parse(&stats_json(cfg, &rows).render()).expect("valid json");
        assert_eq!(doc.get("schema").and_then(Json::as_u64), Some(1));
        let kernels = match doc.get("kernels") {
            Some(Json::Arr(items)) => items,
            other => panic!("kernels array missing: {other:?}"),
        };
        assert_eq!(kernels.len(), rows.len());
        for (item, row) in kernels.iter().zip(&rows) {
            assert_eq!(item.get("name").and_then(Json::as_str), Some(row.name));
            assert_eq!(
                item.get("instructions").and_then(Json::as_u64),
                Some(row.instructions)
            );
        }
    }
}
