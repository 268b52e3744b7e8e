//! Ablation: Communication-Buffer drain policy.
//!
//! Both-complete (the paper's §III-A rule) vs. eager first-copy drain:
//! eager drains earlier (slightly lower CB pressure) but reopens the
//! silent-corruption window the both-complete rule exists to close — a
//! corrupted store value can reach the ECC-protected L2 before its
//! parity error is detected.

use unsync_bench::{ExperimentConfig, Json, RunLog};
use unsync_core::{DrainPolicy, UnsyncConfig, UnsyncPair};
use unsync_exec::TraceEventKind;
use unsync_fault::{FaultSite, FaultTarget, PairFault};
use unsync_sim::{run_baseline, CoreConfig};
use unsync_workloads::{Benchmark, WorkloadGen};

fn main() {
    let insts = 100_000u64;
    let bench = Benchmark::Qsort;
    let t = WorkloadGen::new(bench, insts, 1).collect_trace();
    let mut s = WorkloadGen::new(bench, insts, 1);
    let base = run_baseline(CoreConfig::table1(), &mut s)
        .core
        .last_commit_cycle as f64;

    // LSQ faults snapped to stores — the hazard-triggering class.
    let stores: Vec<u64> = t
        .insts()
        .iter()
        .filter(|i| i.op.is_store())
        .map(|i| i.seq)
        .collect();
    let faults: Vec<PairFault> = (0..20u64)
        .map(|i| {
            let at = stores[(i as usize + 1) * stores.len() / 22];
            PairFault {
                at,
                core: 0,
                site: FaultSite {
                    target: FaultTarget::Lsq,
                    bit_offset: 3 + i,
                },
                kind: unsync_fault::FaultKind::Single,
            }
        })
        .collect();

    println!(
        "Ablation — CB drain policy on {} ({insts} instructions, 20 LSQ faults on stores)",
        bench.name()
    );
    println!(
        "{:<16} {:>13} {:>14} {:>12} {:>10}",
        "policy", "runtime norm", "CB stalls", "recoveries", "silent"
    );
    let mut log = RunLog::start(
        "ablation_cb",
        ExperimentConfig {
            inst_count: insts,
            seed: 1,
        },
    );
    for (name, policy) in [
        ("both-complete", DrainPolicy::BothComplete),
        ("eager", DrainPolicy::Eager),
    ] {
        let cfg = UnsyncConfig {
            drain_policy: policy,
            ..UnsyncConfig::paper_baseline()
        };
        let clean = UnsyncPair::new(CoreConfig::table1(), cfg).run(&t, &[]);
        let faulty = UnsyncPair::new(CoreConfig::table1(), cfg).run(&t, &faults);
        let cb_full_stall_cycles = clean.events.sum(TraceEventKind::CbFullStall);
        log.record(
            Json::obj()
                .field("policy", name)
                .field("runtime_norm", clean.cycles as f64 / base)
                .field("cb_full_stall_cycles", cb_full_stall_cycles)
                .field("recoveries", faulty.recoveries)
                .field("silent_faults", faulty.silent_faults),
        );
        println!(
            "{:<16} {:>13.4} {:>14} {:>12} {:>10}",
            name,
            clean.cycles as f64 / base,
            cb_full_stall_cycles,
            faulty.recoveries,
            faulty.silent_faults
        );
    }
    if let Some(p) = log.write(1) {
        eprintln!("run log: {}", p.display());
    }
    println!("\nReading: eager saves a little CB occupancy but lets corrupted store values");
    println!("escape to the L2 before detection — the both-complete rule is what makes the");
    println!("CB a correctness mechanism, not just a write buffer.");
}
