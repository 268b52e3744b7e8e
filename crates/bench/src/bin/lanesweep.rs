//! The many-core lane sweep: UnSync pairs 2 → 1000 over a banked,
//! contended shared L2 (see `unsync_bench::lanesweep`).
//!
//! Prints one row per lane count (throughput, per-lane IPC, L2
//! bank-conflict stall share, MTTR under contention), writes the
//! `lanesweep.jsonl` run log (dashboard-diffable) and the
//! `BENCH_lanesweep.json` summary.
//!
//! Environment knobs: `UNSYNC_LANES` (comma-separated lane counts,
//! default the full 2 → 1000 sweep), `UNSYNC_INSTS` (instructions per
//! lane), `UNSYNC_SEED`, and `UNSYNC_WORKLOAD` (any synthetic
//! benchmark name such as `gzip`, or a real-ISA kernel such as
//! `kernel:crc32`; default `gzip`).

use unsync_bench::env;
use unsync_bench::lanesweep::{run_sweep, summary_json, sweep_log, LaneSweepConfig};
use unsync_workloads::WorkloadSpec;

/// Where the machine-readable summary lands (workspace root under CI).
const OUT_PATH: &str = "BENCH_lanesweep.json";

/// The sweep config from the environment over the full default sweep.
fn config() -> Result<LaneSweepConfig, String> {
    let mut cfg = LaneSweepConfig::full(env::var("UNSYNC_SEED")?.unwrap_or(11));
    if let Some(insts) = env::var("UNSYNC_INSTS")? {
        cfg.insts_per_lane = insts as usize;
    }
    if let Some(counts) = env::var_list("UNSYNC_LANES")? {
        cfg.lane_counts = counts.into_iter().map(|n| n as usize).collect();
    }
    if let Ok(name) = std::env::var("UNSYNC_WORKLOAD") {
        cfg.workload =
            WorkloadSpec::parse(name.trim()).map_err(|e| format!("UNSYNC_WORKLOAD: {e}"))?;
    }
    Ok(cfg)
}

fn main() {
    let cfg = env::or_exit(config());
    println!(
        "Lane sweep over contended shared L2 ({} × {} insts/lane, seed {}, {} banks × {}-cycle ports, {} MSHRs)",
        cfg.workload.name(),
        cfg.insts_per_lane,
        cfg.seed,
        cfg.contention.banks,
        cfg.contention.bank_busy_beats,
        cfg.contention.mshrs
    );
    println!(
        "{:>6} {:>10} {:>12} {:>9} {:>10} {:>10} {:>11} {:>9} {:>9}",
        "lanes",
        "thru IPC",
        "IPC/lane",
        "conflict",
        "stall cyc",
        "avg stall",
        "stall share",
        "L2 miss",
        "MTTR"
    );
    let rows = run_sweep(&cfg);
    for r in &rows {
        println!(
            "{:>6} {:>10.3} {:>12.4} {:>8.2}% {:>10} {:>10.2} {:>10.3}% {:>8.2}% {:>9.1}",
            r.lanes,
            r.throughput_ipc,
            r.per_lane_ipc,
            r.l2_conflict_rate * 100.0,
            r.l2_stall_cycles,
            r.avg_stall_cycles,
            r.stall_share * 100.0,
            r.l2_miss_rate * 100.0,
            r.mttr_cycles
        );
    }
    if let Some((knee, _)) = rows
        .windows(2)
        .map(|w| (w[1].lanes, w[0].per_lane_ipc / w[1].per_lane_ipc.max(1e-12)))
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite ratios"))
    {
        println!("\n(largest per-lane IPC drop lands at {knee} lanes — the contention knee)");
    }

    let mut text = summary_json(&cfg, &rows).render();
    text.push('\n');
    match std::fs::write(OUT_PATH, &text) {
        Ok(()) => println!("wrote {OUT_PATH} ({} lane counts)", rows.len()),
        Err(e) => {
            eprintln!("error: could not write {OUT_PATH}: {e}");
            std::process::exit(1);
        }
    }
    if let Some(p) = sweep_log(&cfg, &rows).write(1) {
        eprintln!("run log: {}", p.display());
    }
}
