//! Fault-injection campaign: strike both architectures with the same set
//! of soft errors and verify the outcomes against a golden run — the
//! §VI-D region-of-error-coverage experiment in miniature.
//!
//! ```sh
//! cargo run --release --example fault_injection_campaign
//! ```

use unsync::prelude::*;

fn main() {
    let insts = 20_000u64;
    let campaigns = 30u64;
    let trace = WorkloadGen::new(Benchmark::Gzip, insts, 7).collect_trace();

    println!(
        "static ROEC: UnSync {:.1}% of vulnerable bits, Reunion {:.1}%\n",
        Coverage::unsync().roec_fraction() * 100.0,
        Coverage::reunion().roec_fraction() * 100.0
    );

    let reunion = ReunionPair::new(CoreConfig::table1(), ReunionConfig::paper_baseline());
    let unsync = UnsyncPair::new(CoreConfig::table1(), UnsyncConfig::paper_baseline());

    println!(
        "{:<4} {:<14} {:<6} {:>18} {:>18}",
        "#", "struck", "core", "Reunion outcome", "UnSync outcome"
    );
    let (mut r_ok, mut u_ok) = (0, 0);
    // Stratified over structures so every coverage class appears (the
    // §VI-D campaign binary samples proportionally to bit capacity
    // instead, which is dominated by the L1 arrays).
    let targets = unsync::fault::inject::ALL_TARGETS;
    for i in 0..campaigns {
        let mut fault = PairFault::plan(1234, i);
        fault.site.target = targets[(i % targets.len() as u64) as usize];
        fault.site.bit_offset %= fault.site.target.bits();
        fault.at = 1_000 + i * (insts - 2_000) / campaigns;

        let r = reunion.run(&trace, &[fault]);
        let u = unsync.run(&trace, &[fault]);
        let describe_r = if r.correct() {
            r_ok += 1;
            if r.events.count(TraceEventKind::CorrectedInPlace) > 0 {
                "ECC-corrected"
            } else if r.events.count(TraceEventKind::Rollback) > 0 {
                "rolled back"
            } else {
                "benign"
            }
        } else if r.unrecoverable > 0 {
            "UNRECOVERABLE"
        } else {
            "SILENT CORRUPTION"
        };
        let describe_u = if u.correct() {
            u_ok += 1;
            "recovered"
        } else {
            "FAILED"
        };
        println!(
            "{:<4} {:<14} {:<6} {:>18} {:>18}",
            i,
            format!("{:?}", fault.site.target),
            fault.core,
            describe_r,
            describe_u
        );
    }
    println!(
        "\ncorrect outcomes: Reunion {r_ok}/{campaigns}, UnSync {u_ok}/{campaigns} \
         (UnSync's always-forward recovery covers every sequential element)"
    );
}
