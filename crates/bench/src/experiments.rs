//! Experiment drivers for every figure and reliability study.

use serde::Serialize;
use unsync_core::{UnsyncConfig, UnsyncPair};
use unsync_exec::{Lane, RedundantDriver, RunResult, TraceEventKind};
use unsync_fault::{Coverage, FaultTarget, PairFault, SerRate};
use unsync_isa::TraceProgram;
use unsync_reunion::{ReunionConfig, ReunionPair};
use unsync_sim::CoreConfig;
use unsync_workloads::{Benchmark, Kernel, SyntheticSource, WorkloadSource};

// Baseline cycles are memoized process-wide, so every figure
// normalizing against the same baseline shares one simulation.
use crate::runner::{baseline_cycles, Runner};
use crate::scheme;

/// Common knobs for the simulation experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ExperimentConfig {
    /// Instructions simulated per benchmark per configuration.
    pub inst_count: u64,
    /// Workload seed (recorded in EXPERIMENTS.md).
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            inst_count: 100_000,
            seed: 1,
        }
    }
}

impl ExperimentConfig {
    /// A smaller configuration for micro-benches and smoke tests.
    pub fn quick() -> Self {
        ExperimentConfig {
            inst_count: 10_000,
            seed: 1,
        }
    }

    /// Reads overrides from the environment: `UNSYNC_INSTS` (at least
    /// 1 000) and `UNSYNC_SEED` scale every experiment without
    /// recompiling. A malformed or too-small value is an error naming
    /// the variable.
    pub fn from_env() -> Result<Self, String> {
        let mut cfg = Self::default();
        if let Some(n) = crate::env::var_at_least("UNSYNC_INSTS", 1_000)? {
            cfg.inst_count = n;
        }
        if let Some(s) = crate::env::var("UNSYNC_SEED")? {
            cfg.seed = s;
        }
        Ok(cfg)
    }
}

fn trace(bench: Benchmark, cfg: ExperimentConfig) -> TraceProgram {
    SyntheticSource::new(bench, cfg.inst_count, cfg.seed).trace()
}

/// Runs `f` once per benchmark on `runner`, preserving benchmark order.
fn per_benchmark<T, F>(runner: Runner, benches: &[Benchmark], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Benchmark) -> T + Sync,
{
    runner.map(benches, |&bench| f(bench))
}

// ───────────────────────────── Figure 4 ─────────────────────────────────

/// One bar group of Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Fig4Row {
    /// Benchmark name.
    pub bench: &'static str,
    /// Serializing-instruction fraction of the trace.
    pub serializing_fraction: f64,
    /// Baseline IPC.
    pub base_ipc: f64,
    /// Reunion runtime overhead vs. baseline (fraction).
    pub reunion_overhead: f64,
    /// UnSync runtime overhead vs. baseline (fraction).
    pub unsync_overhead: f64,
}

/// Fig. 4: per-benchmark runtime overhead of Reunion (FI = 10) and UnSync
/// relative to the unprotected baseline CMP. The paper's claims: Reunion
/// averages ≈8 % and exceeds 10 % on bzip2/ammp/galgel (which have 2 %,
/// 1.7 % and 1 % serializing instructions); UnSync stays ≈2 %. Results
/// are identical at any worker count (the determinism regression tests
/// rely on this).
pub fn fig4_on(runner: Runner, cfg: ExperimentConfig) -> Vec<Fig4Row> {
    per_benchmark(runner, Benchmark::all(), |bench| {
        let t = trace(bench, cfg);
        let base = baseline_cycles(bench, cfg) as f64;
        // Keep only the cycles: a run's result holds its memory image.
        let reunion = ReunionPair::new(CoreConfig::table1(), ReunionConfig::paper_baseline())
            .run(&t, &[])
            .cycles;
        let unsync = UnsyncPair::new(CoreConfig::table1(), UnsyncConfig::paper_baseline())
            .run(&t, &[])
            .cycles;
        Fig4Row {
            bench: bench.name(),
            serializing_fraction: t.stats().serializing_fraction(),
            base_ipc: cfg.inst_count as f64 / base,
            reunion_overhead: reunion as f64 / base - 1.0,
            unsync_overhead: unsync as f64 / base - 1.0,
        }
    })
}

// ───────────────────────────── Figure 5 ─────────────────────────────────

/// One (FI, latency) point of the Fig. 5 sweep for one benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Fig5Cell {
    /// Benchmark name.
    pub bench: &'static str,
    /// Fingerprint interval.
    pub fi: u32,
    /// Comparison latency, cycles.
    pub latency: u32,
    /// Reunion runtime normalized to baseline (1.0 = no overhead).
    pub reunion_norm: f64,
    /// UnSync runtime normalized to baseline (flat — it has no FI).
    pub unsync_norm: f64,
    /// Reunion's average ROB occupancy at this point.
    pub reunion_rob_occupancy: f64,
}

/// The paper's Fig. 5 sweep points: FI and comparison latency increased
/// together from (1, 10) to (30, 40).
pub const FIG5_POINTS: [(u32, u32); 5] = [(1, 10), (5, 15), (10, 20), (20, 30), (30, 40)];

/// Fig. 5: Reunion's sensitivity to fingerprint interval and comparison
/// latency. The paper: ammp and galgel degrade steeply (ROB saturation),
/// reaching −27 % and −41 % at (30, 40); UnSync is flat.
pub fn fig5_on(runner: Runner, cfg: ExperimentConfig, benches: &[Benchmark]) -> Vec<Fig5Cell> {
    let mut cells = Vec::new();
    for &(fi, latency) in &FIG5_POINTS {
        let mut row = per_benchmark(runner, benches, |bench| {
            let t = trace(bench, cfg);
            let base = baseline_cycles(bench, cfg) as f64;
            let mut stream = trace(bench, cfg);
            let mut hooks = unsync_reunion::ReunionHooks::new(ReunionConfig::for_fi(fi, latency));
            let reunion = unsync_sim::run_stream(
                CoreConfig::table1(),
                &mut stream,
                &mut hooks,
                unsync_mem::WritePolicy::WriteThrough,
            );
            let unsync =
                UnsyncPair::new(CoreConfig::table1(), UnsyncConfig::paper_baseline()).run(&t, &[]);
            Fig5Cell {
                bench: bench.name(),
                fi,
                latency,
                reunion_norm: reunion.core.last_commit_cycle as f64 / base,
                unsync_norm: unsync.cycles as f64 / base,
                reunion_rob_occupancy: reunion.core.avg_rob_occupancy(),
            }
        });
        cells.append(&mut row);
    }
    cells
}

// ───────────────────────────── Figure 6 ─────────────────────────────────

/// One CB-size point for one benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Fig6Row {
    /// Benchmark name.
    pub bench: &'static str,
    /// CB size label in bytes (8-byte entries).
    pub cb_bytes: usize,
    /// CB entries.
    pub cb_entries: usize,
    /// UnSync runtime normalized to baseline.
    pub unsync_norm: f64,
    /// Commit cycles lost to a full CB (both cores).
    pub cb_full_stall_cycles: u64,
}

/// The paper's Fig. 6 CB sizes (bytes).
pub const FIG6_SIZES: [usize; 6] = [16, 64, 256, 1024, 2048, 4096];

/// Fig. 6: UnSync runtime across CB sizes. The paper: small CBs stall the
/// cores; 2 KB / 4 KB buffers eliminate the bottleneck entirely.
pub fn fig6_on(runner: Runner, cfg: ExperimentConfig, benches: &[Benchmark]) -> Vec<Fig6Row> {
    let mut rows = Vec::new();
    for &bytes in &FIG6_SIZES {
        let entries = UnsyncConfig::cb_entries_for_bytes(bytes);
        let mut row = per_benchmark(runner, benches, |bench| {
            let t = trace(bench, cfg);
            let base = baseline_cycles(bench, cfg) as f64;
            let out = UnsyncPair::new(CoreConfig::table1(), UnsyncConfig::with_cb_entries(entries))
                .run(&t, &[]);
            Fig6Row {
                bench: bench.name(),
                cb_bytes: bytes,
                cb_entries: entries,
                unsync_norm: out.cycles as f64 / base,
                cb_full_stall_cycles: out.events.sum(TraceEventKind::CbFullStall),
            }
        });
        rows.append(&mut row);
    }
    rows
}

// ───────────────────────────── §VI-C: SER sweep ─────────────────────────

/// The IPC-vs-SER extrapolation of §VI-C.
#[derive(Debug, Clone, Serialize)]
pub struct SerSweep {
    /// Swept error rates (errors/instruction).
    pub rates: Vec<f64>,
    /// Projected pair IPC for Reunion at each rate.
    pub reunion_ipc: Vec<f64>,
    /// Projected pair IPC for UnSync at each rate.
    pub unsync_ipc: Vec<f64>,
    /// Error-free cycles (Reunion, UnSync) per `inst_count` instructions.
    pub error_free_cycles: (f64, f64),
    /// Measured per-error recovery cost in cycles (Reunion rollback,
    /// UnSync always-forward state copy).
    pub per_error_cycles: (f64, f64),
    /// The measured break-even SER: the rate at which UnSync's cheap
    /// error-free mode + expensive recovery equals Reunion's costly
    /// error-free mode + cheap rollback (paper: 1.29e-3).
    pub break_even: Option<f64>,
}

/// §VI-C: extrapolates average IPC across SER rates 1e-17 … 1e-3, exactly
/// as the paper does — measure error-free runtime and per-error recovery
/// cost, then project. Uses recoverable in-pipeline faults (ROB strikes)
/// to measure the per-event costs.
pub fn ser_sweep_on(runner: Runner, cfg: ExperimentConfig, benches: &[Benchmark]) -> SerSweep {
    // Per-benchmark error-free cycles and per-event costs, averaged.
    let measures = per_benchmark(runner, benches, |bench| {
        let t = trace(bench, cfg);
        let golden = crate::runner::golden_memory(bench, cfg);
        let reunion = ReunionPair::new(CoreConfig::table1(), ReunionConfig::paper_baseline());
        let unsync = UnsyncPair::new(CoreConfig::table1(), UnsyncConfig::paper_baseline());
        // Keep only the cycles: a run's result holds its memory image.
        let r0 = reunion.run_with_golden(&t, &[], Some(&golden)).cycles;
        let u0 = unsync.run_with_golden(&t, &[], Some(&golden)).cycles;
        // Inject K recoverable faults to measure per-event cost.
        let k = 10u64;
        let faults: Vec<PairFault> = (0..k)
            .map(|i| PairFault {
                at: (i + 1) * cfg.inst_count / (k + 1),
                core: (i % 2) as usize,
                site: unsync_fault::FaultSite {
                    target: FaultTarget::Rob,
                    bit_offset: 17 + i,
                },
                kind: unsync_fault::FaultKind::Single,
            })
            .collect();
        let rk = reunion.run_with_golden(&t, &faults, Some(&golden)).cycles;
        let uk = unsync.run_with_golden(&t, &faults, Some(&golden)).cycles;
        let r_cost = (rk.saturating_sub(r0)) as f64 / k as f64;
        let u_cost = (uk.saturating_sub(u0)) as f64 / k as f64;
        (r0 as f64, u0 as f64, r_cost, u_cost)
    });
    let n = measures.len() as f64;
    let (mut r0, mut u0, mut rc, mut uc) = (0.0, 0.0, 0.0, 0.0);
    for (a, b, c, d) in measures {
        r0 += a / n;
        u0 += b / n;
        rc += c / n;
        uc += d / n;
    }

    let insts = cfg.inst_count as f64;
    let mut rates = vec![SerRate::NM90.rate()];
    for exp in (3..=17).rev() {
        rates.push(10f64.powi(-exp));
    }
    rates.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let project = |t0: f64, cost: f64, rate: f64| insts / (t0 + rate * insts * cost);
    let reunion_ipc = rates.iter().map(|&r| project(r0, rc, r)).collect();
    let unsync_ipc = rates.iter().map(|&r| project(u0, uc, r)).collect();
    // Break-even: u0 + r·N·uc = r0 + r·N·rc  ⇒  r = (u0−r0)/(N(rc−uc)).
    let break_even = if (uc - rc).abs() > 1e-9 && r0 > u0 {
        let r = (r0 - u0) / (insts * (uc - rc));
        (r > 0.0).then_some(r)
    } else {
        None
    };
    SerSweep {
        rates,
        reunion_ipc,
        unsync_ipc,
        error_free_cycles: (r0, u0),
        per_error_cycles: (rc, uc),
        break_even,
    }
}

// ───────────────────────────── §VI-D: ROEC ──────────────────────────────

/// Aggregate fault-injection outcomes for one architecture.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct RoecArchStats {
    /// Faults injected.
    pub injected: u64,
    /// Runs that ended bit-identical to the golden run.
    pub correct: u64,
    /// Faults detected (fingerprint mismatch / hardware detector).
    pub detected: u64,
    /// Faults corrected in place (ECC).
    pub corrected_in_place: u64,
    /// Unrecoverable outcomes (divergent state rollback cannot fix).
    pub unrecoverable: u64,
    /// Faults that produced silently corrupt memory.
    pub silent_corruptions: u64,
}

/// The §VI-D region-of-error-coverage comparison.
#[derive(Debug, Clone, Serialize)]
pub struct RoecReport {
    /// Static ROEC fraction (bits covered by a mechanism): UnSync.
    pub unsync_roec: f64,
    /// Static ROEC fraction: Reunion.
    pub reunion_roec: f64,
    /// Injection outcomes under UnSync.
    pub unsync: RoecArchStats,
    /// Injection outcomes under Reunion.
    pub reunion: RoecArchStats,
    /// Injection outcomes per fault target under Reunion
    /// (target, injected, correct).
    pub reunion_by_target: Vec<(&'static str, u64, u64)>,
}

fn target_name(t: FaultTarget) -> &'static str {
    match t {
        FaultTarget::RegisterFile => "RegisterFile",
        FaultTarget::Pc => "PC",
        FaultTarget::PipelineRegs => "PipelineRegs",
        FaultTarget::Rob => "ROB",
        FaultTarget::IssueQueue => "IssueQueue",
        FaultTarget::Lsq => "LSQ",
        FaultTarget::Tlb => "TLB",
        FaultTarget::L1Data => "L1Data",
        FaultTarget::L1Tag => "L1Tag",
    }
}

/// §VI-D: injects `campaigns` single faults — stratified across the nine
/// vulnerable structures so every coverage class is exercised — into each
/// architecture and verifies program outcomes against the golden run.
/// TLB strikes are snapped to store instructions (the mistranslated-store
/// case is the one that escapes Reunion's fingerprint).
pub fn roec_on(runner: Runner, cfg: ExperimentConfig, campaigns: u64) -> RoecReport {
    let bench = Benchmark::Gzip;
    let t = trace(bench, cfg);
    // One golden execution serves every injection below.
    let golden = crate::runner::golden_memory(bench, cfg);
    let targets = unsync_fault::inject::ALL_TARGETS;
    let faults: Vec<PairFault> = (0..campaigns)
        .map(|i| {
            let mut f = PairFault::plan(cfg.seed.wrapping_add(0xabcd), i);
            f.site.target = targets[(i % targets.len() as u64) as usize];
            f.site.bit_offset %= f.site.target.bits();
            // Spread strike points over the middle of the trace.
            f.at = cfg.inst_count / 10 + (i * (cfg.inst_count * 8 / 10)) / campaigns.max(1);
            if f.site.target == FaultTarget::Tlb {
                // Snap to the next store so the strike hits a store
                // translation.
                if let Some(st) = t.insts()[f.at as usize..].iter().find(|x| x.op.is_store()) {
                    f.at = st.seq;
                }
            }
            f
        })
        .collect();

    let reunion = ReunionPair::new(CoreConfig::table1(), ReunionConfig::paper_baseline());
    let unsync = UnsyncPair::new(CoreConfig::table1(), UnsyncConfig::paper_baseline());

    let results = per_benchmark(
        runner,
        // Reuse the parallel helper by chunking campaigns over dummy
        // benchmark slots is awkward; run the two architectures in
        // parallel instead.
        &[Benchmark::Gzip, Benchmark::Bzip2],
        |which| {
            if which == Benchmark::Gzip {
                // UnSync campaigns.
                let mut s = RoecArchStats::default();
                let mut by_target: Vec<(&'static str, u64, u64)> = Vec::new();
                for f in &faults {
                    let out = unsync.run_with_golden(&t, std::slice::from_ref(f), Some(&golden));
                    s.injected += 1;
                    s.detected += out.detections;
                    s.unrecoverable += out.unrecoverable;
                    s.silent_corruptions += u64::from(!out.memory_matches_golden);
                    s.correct += u64::from(out.correct());
                    let name = target_name(f.site.target);
                    match by_target.iter_mut().find(|(n, _, _)| *n == name) {
                        Some(e) => {
                            e.1 += 1;
                            e.2 += u64::from(out.correct());
                        }
                        None => by_target.push((name, 1, u64::from(out.correct()))),
                    }
                }
                (s, by_target)
            } else {
                // Reunion campaigns.
                let mut s = RoecArchStats::default();
                let mut by_target: Vec<(&'static str, u64, u64)> = Vec::new();
                for f in &faults {
                    let out = reunion.run_with_golden(&t, std::slice::from_ref(f), Some(&golden));
                    s.injected += 1;
                    s.detected +=
                        u64::from(out.events.count(TraceEventKind::FingerprintMismatch) > 0);
                    s.corrected_in_place += out.events.count(TraceEventKind::CorrectedInPlace);
                    s.unrecoverable += out.unrecoverable;
                    s.silent_corruptions +=
                        u64::from(out.silent_faults > 0 || !out.memory_matches_golden);
                    s.correct += u64::from(out.correct());
                    let name = target_name(f.site.target);
                    match by_target.iter_mut().find(|(n, _, _)| *n == name) {
                        Some(e) => {
                            e.1 += 1;
                            e.2 += u64::from(out.correct());
                        }
                        None => by_target.push((name, 1, u64::from(out.correct()))),
                    }
                }
                (s, by_target)
            }
        },
    );

    RoecReport {
        unsync_roec: Coverage::unsync().roec_fraction(),
        reunion_roec: Coverage::reunion().roec_fraction(),
        unsync: results[0].0,
        reunion: results[1].0,
        reunion_by_target: results[1].1.clone(),
    }
}

// ─────────────────────────── Comparators ────────────────────────────────

/// Error-free overhead of one benchmark under every redundancy
/// discipline in the repository, relative to the unprotected baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ComparatorRow {
    /// Benchmark name.
    pub bench: &'static str,
    /// Tight-lockstep overhead vs. baseline (fraction).
    pub lockstep_overhead: f64,
    /// Reunion overhead vs. baseline (fraction).
    pub reunion_overhead: f64,
    /// Coarse-checkpointing overhead vs. baseline (fraction).
    pub checkpoint_overhead: f64,
    /// UnSync overhead vs. baseline (fraction).
    pub unsync_overhead: f64,
    /// Majority-voting TMR overhead vs. baseline (fraction).
    pub tmr_overhead: f64,
    /// FlexStep-style pair (128-instruction window) overhead vs.
    /// baseline (fraction).
    pub flex_overhead: f64,
    /// SECDED-only non-redundant core overhead vs. baseline (fraction).
    pub secded_overhead: f64,
}

/// The benchmark subset the comparator study reports (one cache-friendly
/// and one memory-bound representative from each suite).
pub const COMPARATOR_BENCHES: [Benchmark; 5] = [
    Benchmark::Bzip2,
    Benchmark::Galgel,
    Benchmark::Sha,
    Benchmark::Mcf,
    Benchmark::Qsort,
];

/// The Fig. 5 benchmarks: the paper's highlighted ammp and galgel, plus
/// a cache-resident MiBench kernel and a memory-bound code.
pub const FIG5_BENCHES: [Benchmark; 5] = [
    Benchmark::Ammp,
    Benchmark::Galgel,
    Benchmark::Sha,
    Benchmark::Bzip2,
    Benchmark::Mcf,
];

/// The Fig. 6 benchmarks: the store-heavy workloads that pressure the
/// CB hardest.
pub const FIG6_BENCHES: [Benchmark; 5] = [
    Benchmark::Qsort,
    Benchmark::Rijndael,
    Benchmark::Bzip2,
    Benchmark::Gzip,
    Benchmark::Stringsearch,
];

/// The benchmarks the §VI-C SER sweep averages over.
pub const SER_BENCHES: [Benchmark; 8] = [
    Benchmark::Bzip2,
    Benchmark::Gzip,
    Benchmark::Ammp,
    Benchmark::Galgel,
    Benchmark::Qsort,
    Benchmark::Sha,
    Benchmark::Dijkstra,
    Benchmark::Fft,
];

/// Single faults the §VI-D ROEC study injects into each architecture.
pub const ROEC_CAMPAIGNS: u64 = 60;

/// Error-free runtime overhead of every redundancy discipline —
/// lockstep, Reunion, checkpointing, UnSync — on identical workloads.
pub fn comparators_on(runner: Runner, cfg: ExperimentConfig) -> Vec<ComparatorRow> {
    per_benchmark(runner, &COMPARATOR_BENCHES, |bench| {
        let t = trace(bench, cfg);
        let base = baseline_cycles(bench, cfg) as f64;
        let driver = RedundantDriver::new(CoreConfig::table1());

        // One overhead per comparator, in scheme table order.
        let [lockstep, reunion, ckpt, unsync, tmr, flex, secded] =
            scheme::TABLE.map(|s| (s.run)(&driver, Lane::new(&t)).cycles as f64 / base - 1.0);
        ComparatorRow {
            bench: bench.name(),
            lockstep_overhead: lockstep,
            reunion_overhead: reunion,
            checkpoint_overhead: ckpt,
            unsync_overhead: unsync,
            tmr_overhead: tmr,
            flex_overhead: flex,
            secded_overhead: secded,
        }
    })
}

// ─────────────────────────── Scheme values ──────────────────────────────

/// Deterministic counters of one new scheme on one benchmark under a
/// fixed single-strike schedule — the golden/determinism surface of the
/// PR-3 schemes (TMR voting, FlexStep granularity, SECDED-only).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SchemeValuesRow {
    /// Benchmark name.
    pub bench: &'static str,
    /// Scheme metric prefix (`tmr_vote`, `flex_step`, `secded_only`).
    pub scheme: &'static str,
    /// Total cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub committed: u64,
    /// Errors detected.
    pub detections: u64,
    /// TMR majority-vote in-place repairs.
    pub corrections: u64,
    /// FlexStep window-boundary comparisons.
    pub compares: u64,
    /// SECDED single-bit strikes corrected in place.
    pub corrected_in_place: u64,
    /// Whether the run ended fully correct.
    pub correct: bool,
}

/// The benchmark subset the scheme-values study snapshots (kept small —
/// every row simulates three schemes).
pub const SCHEME_BENCHES: [Benchmark; 3] = [Benchmark::Bzip2, Benchmark::Sha, Benchmark::Qsort];

/// The three PR-3 schemes on one trace under the fixed mid-trace ROB
/// strike — shared by the synthetic and kernel scheme-values studies.
fn scheme_values_for(
    workload: &'static str,
    t: &TraceProgram,
    cfg: ExperimentConfig,
) -> [SchemeValuesRow; 3] {
    let driver = RedundantDriver::new(CoreConfig::table1());
    // (table row, row label, struck replica)
    let rows = [
        ("tmr_vote", "tmr_vote", 1),
        ("flex", "flex_step", 1),
        ("secded_only", "secded_only", 0),
    ];
    rows.map(|(name, label, core)| {
        let mut lane = Lane::new(t);
        lane.faults = vec![PairFault {
            at: cfg.inst_count / 2,
            core,
            site: unsync_fault::FaultSite {
                target: FaultTarget::Rob,
                bit_offset: 21,
            },
            kind: unsync_fault::FaultKind::Single,
        }];
        let row = scheme::find(name).expect("scheme table row");
        scheme_values_row(workload, label, &(row.run)(&driver, lane))
    })
}

/// One scheme-values row read off a run.
fn scheme_values_row(bench: &'static str, scheme: &'static str, r: &RunResult) -> SchemeValuesRow {
    SchemeValuesRow {
        bench,
        scheme,
        cycles: r.cycles,
        committed: r.committed,
        detections: r.detections,
        corrections: r.events.count(TraceEventKind::Corrected),
        compares: r.events.count(TraceEventKind::WindowCompared),
        corrected_in_place: r.events.count(TraceEventKind::CorrectedInPlace),
        correct: r.correct(),
    }
}

/// Counter rows for the three PR-3 schemes under one mid-trace ROB
/// strike each (core 1 for the redundant schemes, core 0 for the single
/// SECDED lane), exercising detection, correction, and comparison paths.
pub fn scheme_values_on(runner: Runner, cfg: ExperimentConfig) -> Vec<SchemeValuesRow> {
    let rows = per_benchmark(runner, &SCHEME_BENCHES, |bench| {
        scheme_values_for(bench.name(), &trace(bench, cfg), cfg)
    });
    rows.into_iter().flatten().collect()
}

/// The kernel workloads the scheme-values study also snapshots — the
/// measured real-ISA counterpart of [`SCHEME_BENCHES`].
pub const SCHEME_KERNELS: [Kernel; 4] = [
    Kernel::Qsort,
    Kernel::Crc32,
    Kernel::Dijkstra,
    Kernel::Stringsearch,
];

/// [`scheme_values_on`] over the real-ISA kernel backend: identical
/// schemes and strike schedule, but the traces are measured kernel
/// executions (`kernel:*` rows). These rows are appended *after* the
/// synthetic rows in `tests/golden/schemes.jsonl`, never interleaved,
/// so every pre-existing golden row stays byte-identical.
pub fn kernel_scheme_values_on(runner: Runner, cfg: ExperimentConfig) -> Vec<SchemeValuesRow> {
    let rows = runner.map(&SCHEME_KERNELS, |&kernel| {
        let t = kernel.source(cfg.inst_count, cfg.seed).trace();
        scheme_values_for(kernel.spec_name(), &t, cfg)
    });
    rows.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentConfig {
        ExperimentConfig {
            inst_count: 8_000,
            seed: 1,
        }
    }

    #[test]
    fn fig4_has_all_benchmarks_and_the_paper_shape() {
        let rows = fig4_on(Runner::new(2), quick());
        assert_eq!(rows.len(), unsync_workloads::Benchmark::all().len());
        // UnSync is cheaper than Reunion on average.
        let avg_r: f64 = rows.iter().map(|r| r.reunion_overhead).sum::<f64>() / rows.len() as f64;
        let avg_u: f64 = rows.iter().map(|r| r.unsync_overhead).sum::<f64>() / rows.len() as f64;
        assert!(avg_r > avg_u, "reunion {avg_r} vs unsync {avg_u}");
        assert!(avg_u < 0.05, "unsync must stay near-baseline: {avg_u}");
    }

    #[test]
    fn fig5_degrades_with_fi_and_latency() {
        let cells = fig5_on(Runner::new(2), quick(), &[Benchmark::Galgel]);
        assert_eq!(cells.len(), FIG5_POINTS.len());
        let first = cells.first().unwrap();
        let last = cells.last().unwrap();
        assert!(last.reunion_norm > first.reunion_norm, "{cells:?}");
        // UnSync does not depend on the FI at all.
        assert!((last.unsync_norm - first.unsync_norm).abs() < 1e-9);
    }

    #[test]
    fn fig6_small_cb_is_worse() {
        let rows = fig6_on(Runner::new(2), quick(), &[Benchmark::Rijndael]);
        let tiny = rows.iter().find(|r| r.cb_bytes == 16).unwrap();
        let big = rows.iter().find(|r| r.cb_bytes == 4096).unwrap();
        assert!(tiny.unsync_norm >= big.unsync_norm, "{tiny:?} vs {big:?}");
        assert!(tiny.cb_full_stall_cycles > big.cb_full_stall_cycles);
    }

    #[test]
    fn ser_sweep_is_flat_at_realistic_rates_with_a_break_even() {
        let s = ser_sweep_on(Runner::new(2), quick(), &[Benchmark::Gzip, Benchmark::Sha]);
        // Flat from 1e-17 to 1e-7 (the paper's observation).
        let ipc_at = |rate: f64, v: &[f64]| {
            let i = s
                .rates
                .iter()
                .position(|&r| (r - rate).abs() / rate < 1e-6)
                .unwrap();
            v[i]
        };
        let u_lo = ipc_at(1e-17, &s.unsync_ipc);
        let u_hi = ipc_at(1e-7, &s.unsync_ipc);
        assert!((u_lo - u_hi).abs() / u_lo < 1e-3, "flat region");
        // UnSync ahead at realistic rates.
        assert!(u_lo > ipc_at(1e-17, &s.reunion_ipc));
        // A break-even exists and is a high (unrealistic) rate.
        let be = s.break_even.expect("break-even must exist");
        assert!(be > 1e-7, "break-even {be}");
    }

    #[test]
    fn scheme_values_exercise_every_scheme_path() {
        let rows = scheme_values_on(Runner::new(2), quick());
        assert_eq!(rows.len(), SCHEME_BENCHES.len() * 3);
        for r in &rows {
            match r.scheme {
                "tmr_vote" => {
                    assert_eq!(r.corrections, 1, "{r:?}");
                    assert!(r.correct, "{r:?}");
                }
                "flex_step" => {
                    assert!(r.compares > 0, "{r:?}");
                    assert!(r.correct, "{r:?}");
                }
                "secded_only" => {
                    assert_eq!(r.corrected_in_place, 1, "{r:?}");
                    assert!(r.correct, "{r:?}");
                }
                other => panic!("unexpected scheme {other}"),
            }
            assert!(r.detections <= 1, "{r:?}");
            assert!(r.cycles > 0 && r.committed > 0, "{r:?}");
        }
    }

    #[test]
    fn roec_unsync_dominates() {
        let r = roec_on(Runner::new(2), quick(), 12);
        assert!(r.unsync_roec > r.reunion_roec);
        assert_eq!(r.unsync.injected, 12);
        assert_eq!(
            r.unsync.correct, 12,
            "UnSync recovers everything: {:?}",
            r.unsync
        );
        assert!(r.reunion.correct <= r.reunion.injected);
    }
}
