//! Text rendering of experiment results (the "figures" as tables).

use crate::experiments::{
    ComparatorRow, Fig4Row, Fig5Cell, Fig6Row, RoecReport, SchemeValuesRow, SerSweep,
};

/// Renders Fig. 4 as a per-benchmark overhead table.
pub fn fig4(rows: &[Fig4Row]) -> String {
    let mut s = String::new();
    s.push_str("Fig. 4 — runtime overhead vs. baseline CMP (FI = 10)\n");
    s.push_str(&format!(
        "{:<14} {:>8} {:>10} {:>12} {:>12}\n",
        "benchmark", "ser.%", "base IPC", "Reunion", "UnSync"
    ));
    let mut avg_r = 0.0;
    let mut avg_u = 0.0;
    for r in rows {
        s.push_str(&format!(
            "{:<14} {:>7.2}% {:>10.3} {:>11.2}% {:>11.2}%\n",
            r.bench,
            r.serializing_fraction * 100.0,
            r.base_ipc,
            r.reunion_overhead * 100.0,
            r.unsync_overhead * 100.0
        ));
        avg_r += r.reunion_overhead;
        avg_u += r.unsync_overhead;
    }
    let n = rows.len() as f64;
    s.push_str(&format!(
        "{:<14} {:>8} {:>10} {:>11.2}% {:>11.2}%\n",
        "AVERAGE",
        "",
        "",
        avg_r / n * 100.0,
        avg_u / n * 100.0
    ));
    s
}

/// Renders the Fig. 5 sweep, grouped by (FI, latency) point.
pub fn fig5(cells: &[Fig5Cell]) -> String {
    let mut s = String::new();
    s.push_str("Fig. 5 — Reunion runtime (normalized to baseline) vs. FI and comparison latency\n");
    s.push_str(&format!(
        "{:<14} {:>10} {:>10} {:>14} {:>13} {:>10}\n",
        "benchmark", "FI", "latency", "Reunion norm", "UnSync norm", "ROB occ"
    ));
    for c in cells {
        s.push_str(&format!(
            "{:<14} {:>10} {:>10} {:>14.3} {:>13.3} {:>10.1}\n",
            c.bench, c.fi, c.latency, c.reunion_norm, c.unsync_norm, c.reunion_rob_occupancy
        ));
    }
    s
}

/// Renders the Fig. 6 CB-size sweep.
pub fn fig6(rows: &[Fig6Row]) -> String {
    let mut s = String::new();
    s.push_str("Fig. 6 — UnSync runtime (normalized to baseline) vs. CB size\n");
    s.push_str(&format!(
        "{:<14} {:>9} {:>9} {:>13} {:>16}\n",
        "benchmark", "CB bytes", "entries", "UnSync norm", "CB-full stalls"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<14} {:>9} {:>9} {:>13.4} {:>16}\n",
            r.bench, r.cb_bytes, r.cb_entries, r.unsync_norm, r.cb_full_stall_cycles
        ));
    }
    s
}

/// Renders the §VI-C SER sweep.
pub fn ser(sweep: &SerSweep) -> String {
    let mut s = String::new();
    s.push_str("§VI-C — projected pair IPC vs. soft-error rate\n");
    s.push_str(&format!(
        "error-free cycles: Reunion {:.0}, UnSync {:.0}\n",
        sweep.error_free_cycles.0, sweep.error_free_cycles.1
    ));
    s.push_str(&format!(
        "per-error recovery cycles: Reunion {:.0} (rollback), UnSync {:.0} (always-forward copy)\n",
        sweep.per_error_cycles.0, sweep.per_error_cycles.1
    ));
    s.push_str(&format!(
        "{:>12} {:>14} {:>14}\n",
        "SER (/inst)", "Reunion IPC", "UnSync IPC"
    ));
    for (i, &rate) in sweep.rates.iter().enumerate() {
        s.push_str(&format!(
            "{:>12.2e} {:>14.4} {:>14.4}\n",
            rate, sweep.reunion_ipc[i], sweep.unsync_ipc[i]
        ));
    }
    match sweep.break_even {
        Some(be) => s.push_str(&format!(
            "break-even SER: {be:.3e} per instruction (paper's hypothetical: 1.29e-3)\n"
        )),
        None => s.push_str("no break-even in the modelled range\n"),
    }
    s
}

/// Renders the §VI-D ROEC comparison.
pub fn roec(report: &RoecReport) -> String {
    let mut s = String::new();
    s.push_str("§VI-D — region of error coverage (ROEC)\n");
    s.push_str(&format!(
        "static ROEC (fraction of vulnerable bits covered): UnSync {:.1}%, Reunion {:.1}%\n",
        report.unsync_roec * 100.0,
        report.reunion_roec * 100.0
    ));
    s.push_str(&format!(
        "{:<10} {:>9} {:>9} {:>9} {:>10} {:>13} {:>8}\n",
        "arch", "injected", "correct", "detected", "ECC-fixed", "unrecov.", "silent"
    ));
    for (name, a) in [("UnSync", &report.unsync), ("Reunion", &report.reunion)] {
        s.push_str(&format!(
            "{:<10} {:>9} {:>9} {:>9} {:>10} {:>13} {:>8}\n",
            name,
            a.injected,
            a.correct,
            a.detected,
            a.corrected_in_place,
            a.unrecoverable,
            a.silent_corruptions
        ));
    }
    s.push_str("\nReunion outcomes by struck structure (injected/correct):\n");
    for (name, injected, correct) in &report.reunion_by_target {
        s.push_str(&format!("  {name:<14} {injected:>4} / {correct:>4}\n"));
    }
    s
}

/// CSV serialization of the figure data (one artifact per call), for
/// plotting outside the repository.
pub mod csv {
    use super::*;

    /// Fig. 4 rows as CSV.
    pub fn fig4(rows: &[Fig4Row]) -> String {
        let mut s = String::from(
            "benchmark,serializing_fraction,base_ipc,reunion_overhead,unsync_overhead\n",
        );
        for r in rows {
            s.push_str(&format!(
                "{},{:.6},{:.6},{:.6},{:.6}\n",
                r.bench, r.serializing_fraction, r.base_ipc, r.reunion_overhead, r.unsync_overhead
            ));
        }
        s
    }

    /// Fig. 5 cells as CSV.
    pub fn fig5(cells: &[Fig5Cell]) -> String {
        let mut s =
            String::from("benchmark,fi,latency,reunion_norm,unsync_norm,reunion_rob_occupancy\n");
        for c in cells {
            s.push_str(&format!(
                "{},{},{},{:.6},{:.6},{:.3}\n",
                c.bench, c.fi, c.latency, c.reunion_norm, c.unsync_norm, c.reunion_rob_occupancy
            ));
        }
        s
    }

    /// Fig. 6 rows as CSV.
    pub fn fig6(rows: &[Fig6Row]) -> String {
        let mut s =
            String::from("benchmark,cb_bytes,cb_entries,unsync_norm,cb_full_stall_cycles\n");
        for r in rows {
            s.push_str(&format!(
                "{},{},{},{:.6},{}\n",
                r.bench, r.cb_bytes, r.cb_entries, r.unsync_norm, r.cb_full_stall_cycles
            ));
        }
        s
    }

    /// SER sweep as CSV.
    pub fn ser(sweep: &SerSweep) -> String {
        let mut s = String::from("ser_per_inst,reunion_ipc,unsync_ipc\n");
        for (i, &rate) in sweep.rates.iter().enumerate() {
            s.push_str(&format!(
                "{:e},{:.6},{:.6}\n",
                rate, sweep.reunion_ipc[i], sweep.unsync_ipc[i]
            ));
        }
        s
    }
}

/// JSONL record builders for the figure data — one
/// [`Json`](crate::runlog::Json) object per result row, consumed by the
/// binaries' [`RunLog`](crate::RunLog)s.
/// Deterministic: a pure function of the experiment output.
pub mod jsonl {
    use super::*;
    use crate::runlog::Json;

    /// The Table I machine parameters as a single record.
    pub fn table1() -> Json {
        let core = unsync_sim::CoreConfig::table1();
        let mem = unsync_mem::HierarchyConfig::table1();
        Json::obj()
            .field("clock_ghz", core.clock_ghz)
            .field("fetch_width", u64::from(core.fetch_width))
            .field("iq_size", core.iq_size)
            .field("rob_size", core.rob_size)
            .field("lsq_size", core.lsq_size)
            .field("l1d_bytes", mem.l1d.size_bytes)
            .field("l1d_assoc", mem.l1d.assoc)
            .field("l1d_mshrs", mem.l1d.mshrs)
            .field("l1d_hit_latency", mem.l1d.hit_latency)
            .field("l2_bytes", mem.l2.size_bytes)
            .field("l2_assoc", mem.l2.assoc)
            .field("l2_hit_latency", mem.l2.hit_latency)
            .field("l2_mshrs", mem.l2.mshrs)
            .field("itlb_entries", mem.itlb.entries)
            .field("dtlb_entries", mem.dtlb.entries)
            .field("bus_bytes_per_cycle", mem.bus_bytes_per_cycle)
            .field("dram_latency", mem.dram_latency)
    }

    /// One Fig. 4 row.
    pub fn fig4(r: &Fig4Row) -> Json {
        Json::obj()
            .field("benchmark", r.bench)
            .field("serializing_fraction", r.serializing_fraction)
            .field("base_ipc", r.base_ipc)
            .field("reunion_overhead", r.reunion_overhead)
            .field("unsync_overhead", r.unsync_overhead)
    }

    /// One Fig. 5 cell.
    pub fn fig5(c: &Fig5Cell) -> Json {
        Json::obj()
            .field("benchmark", c.bench)
            .field("fi", c.fi)
            .field("latency", c.latency)
            .field("reunion_norm", c.reunion_norm)
            .field("unsync_norm", c.unsync_norm)
            .field("reunion_rob_occupancy", c.reunion_rob_occupancy)
    }

    /// One comparator-study row — the original four disciplines. The
    /// field set is frozen: pre-existing golden rows must stay
    /// byte-identical, so new schemes get their own records via
    /// [`comparator_schemes`].
    pub fn comparators(r: &ComparatorRow) -> Json {
        Json::obj()
            .field("benchmark", r.bench)
            .field("lockstep_overhead", r.lockstep_overhead)
            .field("reunion_overhead", r.reunion_overhead)
            .field("checkpoint_overhead", r.checkpoint_overhead)
            .field("unsync_overhead", r.unsync_overhead)
    }

    /// The same comparator row's PR-3 scheme columns (TMR voting,
    /// FlexStep-style granularity, SECDED-only baseline) as a separate
    /// record, appended after the frozen originals.
    pub fn comparator_schemes(r: &ComparatorRow) -> Json {
        Json::obj()
            .field("benchmark", r.bench)
            .field("tmr_overhead", r.tmr_overhead)
            .field("flex_overhead", r.flex_overhead)
            .field("secded_overhead", r.secded_overhead)
    }

    /// One scheme-values row (the new schemes' golden/determinism
    /// surface).
    pub fn scheme_values(r: &SchemeValuesRow) -> Json {
        Json::obj()
            .field("benchmark", r.bench)
            .field("scheme", r.scheme)
            .field("cycles", r.cycles)
            .field("committed", r.committed)
            .field("detections", r.detections)
            .field("corrections", r.corrections)
            .field("compares", r.compares)
            .field("corrected_in_place", r.corrected_in_place)
            .field("correct", r.correct)
    }

    /// One Fig. 6 row.
    pub fn fig6(r: &Fig6Row) -> Json {
        Json::obj()
            .field("benchmark", r.bench)
            .field("cb_bytes", r.cb_bytes)
            .field("cb_entries", r.cb_entries)
            .field("unsync_norm", r.unsync_norm)
            .field("cb_full_stall_cycles", r.cb_full_stall_cycles)
    }

    /// The SER sweep: one record per swept rate plus a summary.
    pub fn ser(sweep: &SerSweep) -> Vec<Json> {
        let mut out: Vec<Json> = sweep
            .rates
            .iter()
            .enumerate()
            .map(|(i, &rate)| {
                Json::obj()
                    .field("ser_per_inst", rate)
                    .field("reunion_ipc", sweep.reunion_ipc[i])
                    .field("unsync_ipc", sweep.unsync_ipc[i])
            })
            .collect();
        out.push(
            Json::obj()
                .field("summary", true)
                .field("reunion_error_free_cycles", sweep.error_free_cycles.0)
                .field("unsync_error_free_cycles", sweep.error_free_cycles.1)
                .field("reunion_per_error_cycles", sweep.per_error_cycles.0)
                .field("unsync_per_error_cycles", sweep.per_error_cycles.1)
                .field(
                    "break_even_ser",
                    sweep.break_even.map_or(Json::Null, Json::F64),
                ),
        );
        out
    }

    /// The ROEC report: one record per architecture plus per-target rows.
    pub fn roec(report: &RoecReport) -> Vec<Json> {
        let arch = |name: &str, roec: f64, a: &crate::experiments::RoecArchStats| {
            Json::obj()
                .field("arch", name)
                .field("static_roec", roec)
                .field("injected", a.injected)
                .field("correct", a.correct)
                .field("detected", a.detected)
                .field("corrected_in_place", a.corrected_in_place)
                .field("unrecoverable", a.unrecoverable)
                .field("silent_corruptions", a.silent_corruptions)
        };
        let mut out = vec![
            arch("unsync", report.unsync_roec, &report.unsync),
            arch("reunion", report.reunion_roec, &report.reunion),
        ];
        for &(target, injected, correct) in &report.reunion_by_target {
            out.push(
                Json::obj()
                    .field("arch", "reunion")
                    .field("target", target)
                    .field("injected", injected)
                    .field("correct", correct),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{self, ExperimentConfig};
    use crate::runner::Runner;
    use unsync_workloads::Benchmark;

    #[test]
    fn csv_outputs_are_well_formed() {
        let cfg = ExperimentConfig {
            inst_count: 3_000,
            seed: 1,
        };
        let rows = experiments::fig6_on(Runner::new(1), cfg, &[Benchmark::Sha]);
        let c = csv::fig6(&rows);
        let lines: Vec<&str> = c.lines().collect();
        assert_eq!(lines.len(), rows.len() + 1);
        assert!(lines[0].starts_with("benchmark,"));
        for l in &lines[1..] {
            assert_eq!(l.split(',').count(), 5, "{l}");
        }
    }

    #[test]
    fn renders_contain_headers() {
        let cfg = ExperimentConfig {
            inst_count: 3_000,
            seed: 1,
        };
        let (r, sha) = (Runner::new(1), [Benchmark::Sha]);
        let f6 = fig6(&experiments::fig6_on(r, cfg, &sha));
        assert!(f6.contains("CB size"));
        let f5 = fig5(&experiments::fig5_on(r, cfg, &sha));
        assert!(f5.contains("latency"));
    }
}
