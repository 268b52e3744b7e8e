//! The incremental out-of-order timing engine.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};
use unsync_isa::exec::splitmix64;
use unsync_isa::{Inst, OpClass};
use unsync_mem::MemSystem;

use crate::config::CoreConfig;
use crate::hooks::{CoreHooks, RobRelease};
use crate::stats::CoreStats;

/// The computed pipeline timestamps of one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstTiming {
    /// Fetch cycle.
    pub fetch: u64,
    /// Dispatch (rename + ROB/IQ insertion) cycle.
    pub dispatch: u64,
    /// Issue (execution start) cycle.
    pub issue: u64,
    /// Completion (result available) cycle.
    pub complete: u64,
    /// Commit cycle.
    pub commit: u64,
    /// Cycle the ROB entry is recycled (≥ commit; later under Reunion).
    pub rob_free: u64,
}

/// Bandwidth tracker: at most `width` events per cycle, requests arriving
/// with non-decreasing lower bounds (program order).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct WidthTracker {
    cycle: u64,
    used: u32,
}

impl WidthTracker {
    fn new() -> Self {
        WidthTracker { cycle: 0, used: 0 }
    }

    /// Earliest slot at `cycle >= at_least` honouring the width.
    fn slot(&mut self, at_least: u64, width: u32) -> u64 {
        if at_least > self.cycle {
            self.cycle = at_least;
            self.used = 0;
        }
        if self.used < width {
            self.used += 1;
        } else {
            self.cycle += 1;
            self.used = 1;
        }
        self.cycle
    }

    fn reset_to(&mut self, cycle: u64) {
        if cycle > self.cycle {
            self.cycle = cycle;
            self.used = 0;
        }
    }
}

/// One core's out-of-order timing engine.
///
/// Feed instructions in program order with [`OooEngine::feed`]; the engine
/// returns each instruction's pipeline timestamps and keeps all
/// microarchitectural state (dataflow readiness, window occupancy,
/// functional units, front-end redirects) internally.
///
/// # Examples
///
/// ```
/// use unsync_isa::InstStream;
/// use unsync_mem::{HierarchyConfig, MemSystem, WritePolicy};
/// use unsync_sim::{CoreConfig, NullHooks, OooEngine};
/// use unsync_workloads::{Benchmark, WorkloadGen};
///
/// let mut mem = MemSystem::new(HierarchyConfig::table1(), 1, WritePolicy::WriteThrough);
/// let mut engine = OooEngine::new(CoreConfig::table1(), 0);
/// let mut hooks = NullHooks;
/// let mut gen = WorkloadGen::new(Benchmark::Sha, 2_000, 1);
/// while let Some(inst) = gen.next_inst() {
///     let t = engine.feed(&inst, &mut mem, &mut hooks);
///     assert!(t.fetch <= t.dispatch && t.dispatch < t.commit);
/// }
/// assert_eq!(engine.stats().committed, 2_000);
/// ```
#[derive(Debug, Clone)]
pub struct OooEngine {
    cfg: CoreConfig,
    core_id: usize,
    fetch_tr: WidthTracker,
    dispatch_tr: WidthTracker,
    commit_tr: WidthTracker,
    /// Dispatch cycles of the youngest `fetch_buffer` instructions
    /// (front-end back-pressure).
    fetch_buf: VecDeque<u64>,
    /// Cycle each architectural register's latest value is available.
    reg_avail: [u64; 64],
    /// ROB-entry releases of the youngest `rob_size` instructions.
    rob: VecDeque<RobRelease>,
    /// Leading `rob` entries released at or before the last dispatch.
    rob_released: usize,
    /// Issue cycles of the youngest `iq_size` instructions.
    iq: VecDeque<u64>,
    /// Commit cycles of the youngest `lsq_size` memory instructions.
    lsq: VecDeque<u64>,
    /// Next-free cycle per functional unit, per kind.
    fu_free: [Vec<u64>; 4],
    /// Front-end floor (mispredict redirect / recovery).
    fetch_floor: u64,
    /// Dispatch floor (serializing drain / recovery).
    dispatch_floor: u64,
    /// Last commit cycle (commit is in order).
    last_commit: u64,
    /// Sequence-number residue (mod `drift_period`) of this core's drift
    /// events.
    drift_phase: u64,
    stats: CoreStats,
}

impl OooEngine {
    /// A fresh engine for core `core_id` (its port index in the shared
    /// [`MemSystem`]).
    pub fn new(cfg: CoreConfig, core_id: usize) -> Self {
        cfg.validate().expect("core config must be valid");
        let fu_free = [
            vec![0u64; cfg.int_alus as usize],
            vec![0u64; cfg.int_muldivs as usize],
            vec![0u64; cfg.fp_units as usize],
            vec![0u64; cfg.mem_ports as usize],
        ];
        let drift_phase = match cfg.drift_period {
            0 => 0,
            period => splitmix64(core_id as u64 + 1) % period as u64,
        };
        OooEngine {
            cfg,
            core_id,
            fetch_tr: WidthTracker::new(),
            dispatch_tr: WidthTracker::new(),
            commit_tr: WidthTracker::new(),
            fetch_buf: VecDeque::with_capacity(cfg.fetch_buffer as usize + 1),
            reg_avail: [0; 64],
            rob: VecDeque::with_capacity(cfg.rob_size as usize + 1),
            rob_released: 0,
            iq: VecDeque::with_capacity(cfg.iq_size as usize + 1),
            lsq: VecDeque::with_capacity(cfg.lsq_size as usize + 1),
            fu_free,
            fetch_floor: 0,
            dispatch_floor: 0,
            last_commit: 0,
            drift_phase,
            stats: CoreStats::default(),
        }
    }

    /// Current time: the last commit cycle.
    pub fn now(&self) -> u64 {
        self.last_commit
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Runs one instruction through the pipeline model.
    pub fn feed<H: CoreHooks>(
        &mut self,
        inst: &Inst,
        mem: &mut MemSystem,
        hooks: &mut H,
    ) -> InstTiming {
        let cfg = self.cfg;

        // ── Fetch ──────────────────────────────────────────────────────
        // Front-end back-pressure: a fetch-buffer entry must be free.
        let mut fetch_lb = self.fetch_floor;
        if self.fetch_buf.len() >= cfg.fetch_buffer as usize {
            fetch_lb = fetch_lb.max(self.fetch_buf.pop_front().expect("non-empty"));
        }
        let fetch = self.fetch_tr.slot(fetch_lb, cfg.fetch_width);

        // ── Dispatch: front-end depth + structural windows ─────────────
        let mut dispatch_lb = (fetch + cfg.frontend_depth as u64).max(self.dispatch_floor);
        dispatch_lb = hooks.dispatch_gate(inst, dispatch_lb);
        // ROB window: entry `i` needs entry `i − rob_size` released.
        if self.rob.len() >= cfg.rob_size as usize {
            let release = match self.rob.pop_front().expect("non-empty") {
                RobRelease::At(r) => r,
                RobRelease::Pending(seq) => hooks.resolve_rob_release(seq),
            };
            self.rob_released = self.rob_released.saturating_sub(1);
            dispatch_lb = dispatch_lb.max(release);
        }
        // Issue-queue window: freed at issue.
        if self.iq.len() >= cfg.iq_size as usize {
            dispatch_lb = dispatch_lb.max(self.iq.pop_front().expect("non-empty"));
        }
        // LSQ window: memory ops only, freed at commit.
        if inst.op.is_mem() && self.lsq.len() >= cfg.lsq_size as usize {
            dispatch_lb = dispatch_lb.max(self.lsq.pop_front().expect("non-empty"));
        }
        let dispatch = self.dispatch_tr.slot(dispatch_lb, cfg.dispatch_width);
        self.fetch_buf.push_back(dispatch);

        // ROB occupancy sample: in-flight entries at dispatch time
        // (pending releases are by definition still in flight). The
        // window is sorted by release (the `CoreHooks::rob_release`
        // contract), so the released entries are a prefix, and dispatch
        // never moves back, so that prefix only grows until its entries
        // are popped: the cursor passes each entry at most once.
        while matches!(self.rob.get(self.rob_released), Some(RobRelease::At(c)) if *c <= dispatch) {
            self.rob_released += 1;
        }
        debug_assert_eq!(
            self.rob_released,
            self.rob
                .partition_point(|r| matches!(r, RobRelease::At(c) if *c <= dispatch)),
            "ROB release cursor out of step with the window"
        );
        let in_flight = self.rob.len() - self.rob_released;
        self.stats.rob_occupancy_sum += in_flight as u64;
        self.stats.rob_occupancy_samples += 1;
        let bucket = (in_flight * 16 / cfg.rob_size as usize).min(16);
        self.stats.rob_occupancy_hist[bucket] += 1;

        // ── Ready: dataflow ────────────────────────────────────────────
        let mut ready = dispatch + 1;
        for src in inst.sources() {
            ready = ready.max(self.reg_avail[src.index()]);
        }

        // ── Issue: functional unit ─────────────────────────────────────
        let pool = &mut self.fu_free[inst.op.fu_kind().index()];
        let (unit_idx, &unit_free) = pool
            .iter()
            .enumerate()
            .min_by_key(|&(_, &f)| f)
            .expect("pool non-empty");
        let issue = ready.max(unit_free);
        pool[unit_idx] = if inst.op.is_pipelined() {
            issue + 1
        } else {
            issue + inst.op.exec_latency() as u64
        };

        // ── Execute / complete ─────────────────────────────────────────
        let complete = match inst.op {
            OpClass::Load => {
                let m = inst.mem.expect("load has mem info");
                // One cycle of address generation, then the cache round
                // trip.
                let out = mem.load(self.core_id, m.addr, issue + 1);
                out.done
            }
            // Stores only generate address+data here; the memory update
            // happens at commit (store-buffer semantics).
            OpClass::Store => issue + 1,
            op => issue + op.exec_latency() as u64,
        };

        // Mispredicted branch (the trace's annotation, so every scheme
        // sees identical control flow): redirect the front end after
        // resolution.
        if inst.is_mispredicted_branch() {
            self.fetch_floor = self
                .fetch_floor
                .max(complete + cfg.mispredict_penalty as u64);
        }

        // ── Commit: in order, gated, width-limited ─────────────────────
        let mut commit_lb = (complete + 1).max(self.last_commit);
        commit_lb = hooks.commit_gate(inst, commit_lb);
        let mut commit = self.commit_tr.slot(commit_lb, cfg.commit_width);

        if inst.op.is_store() {
            let m = inst.mem.expect("store has mem info");
            // The architectural L1 update happens now; a write-through
            // copy leaves the core and enters the downstream buffer.
            let out = mem.store(self.core_id, m.addr, commit);
            if let Some(line) = out.write_through {
                let after = hooks.store_committed(inst, line, commit, mem);
                if after > commit {
                    commit = after;
                    self.commit_tr.reset_to(commit);
                }
            }
        }

        // ── Bookkeeping ────────────────────────────────────────────────
        if let Some(d) = inst.arch_dest() {
            self.reg_avail[d.index()] = complete;
        }
        let release = match hooks.rob_release(inst, commit) {
            RobRelease::At(r) => RobRelease::At(r.max(commit)),
            p => p,
        };
        let rob_free = match release {
            RobRelease::At(r) => r,
            RobRelease::Pending(_) => commit, // reported estimate only
        };
        debug_assert!(
            match (self.rob.back(), release) {
                (Some(RobRelease::At(older)), RobRelease::At(r)) => *older <= r,
                (Some(RobRelease::Pending(_)), RobRelease::At(_)) => false,
                _ => true,
            },
            "ROB releases out of order: {release:?} after {:?}",
            self.rob.back()
        );
        self.rob.push_back(release);
        self.iq.push_back(issue);
        if inst.op.is_mem() {
            self.lsq.push_back(commit);
        }
        // Asynchronous core-local stall events (refresh/interrupt class):
        // each core's events land at a different phase, so paired cores
        // drift apart.
        if cfg.drift_max > 0
            && cfg.drift_period > 0
            && inst.seq % cfg.drift_period as u64 == self.drift_phase
        {
            let stall = splitmix64(
                (self.core_id as u64 + 1) ^ inst.seq.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            ) % cfg.drift_max as u64;
            commit += stall;
            self.commit_tr.reset_to(commit);
            self.fetch_floor = self.fetch_floor.max(commit);
        }
        self.last_commit = commit;
        self.stats.committed += 1;
        self.stats.last_commit_cycle = commit;
        // on_commit runs before serialize_release so architectures can
        // close fingerprint intervals at the serializing instruction and
        // report the verification time as the release point.
        hooks.on_commit(inst, commit, mem);
        if inst.op.is_serializing() {
            self.dispatch_floor = self
                .dispatch_floor
                .max(hooks.serialize_release(inst, commit));
        }

        InstTiming {
            fetch,
            dispatch,
            issue,
            complete,
            commit,
            rob_free,
        }
    }

    /// Raises the dispatch floor (used by pair runners to retro-extend a
    /// serializing rendezvous once the partner core's timing is known).
    pub fn raise_dispatch_floor(&mut self, cycle: u64) {
        self.dispatch_floor = self.dispatch_floor.max(cycle);
    }

    /// Store-path back-pressure from outside the engine (the UnSync
    /// Communication Buffer is owned by the pair runner): nothing commits
    /// before `cycle`.
    pub fn backpressure_until(&mut self, cycle: u64) {
        self.last_commit = self.last_commit.max(cycle);
        self.commit_tr.reset_to(cycle);
        self.stats.last_commit_cycle = self.stats.last_commit_cycle.max(cycle);
    }

    /// Externally imposed stall (error recovery): nothing fetches,
    /// dispatches or commits before `cycle`.
    pub fn stall_until(&mut self, cycle: u64) {
        if cycle > self.last_commit {
            self.stats.recovery_stall_cycles += cycle - self.last_commit;
        }
        self.stats.recoveries += 1;
        self.fetch_floor = self.fetch_floor.max(cycle);
        self.dispatch_floor = self.dispatch_floor.max(cycle);
        self.last_commit = self.last_commit.max(cycle);
        self.commit_tr.reset_to(cycle);
        self.fetch_tr.reset_to(cycle);
        self.dispatch_tr.reset_to(cycle);
        self.stats.last_commit_cycle = self.stats.last_commit_cycle.max(cycle);
    }

    /// Pipeline flush at `cycle` (recovery step 2): in-flight windows are
    /// reset and every register is deemed available at `cycle` (the
    /// architectural state was just overwritten wholesale).
    pub fn flush_pipeline(&mut self, cycle: u64) {
        self.fetch_buf.clear();
        self.rob.clear();
        self.rob_released = 0;
        self.iq.clear();
        self.lsq.clear();
        for pool in &mut self.fu_free {
            pool.fill(cycle);
        }
        for r in &mut self.reg_avail {
            *r = (*r).max(cycle);
        }
        self.stall_until(cycle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NullHooks;
    use unsync_isa::{BranchInfo, MemInfo, Reg};
    use unsync_mem::{HierarchyConfig, WritePolicy};

    fn mem() -> MemSystem {
        MemSystem::new(HierarchyConfig::table1(), 1, WritePolicy::WriteThrough)
    }

    fn engine() -> OooEngine {
        OooEngine::new(CoreConfig::table1(), 0)
    }

    fn alu(seq: u64, dest: u8, s0: u8, s1: u8) -> Inst {
        Inst::build(OpClass::IntAlu)
            .seq(seq)
            .pc(seq * 4)
            .dest(Reg::int(dest))
            .src0(Reg::int(s0))
            .src1(Reg::int(s1))
            .finish()
    }

    #[test]
    fn independent_alus_reach_full_width_ipc() {
        // Drift events off: this test isolates pipeline bandwidth.
        let mut cfg = CoreConfig::table1();
        cfg.drift_max = 0;
        let mut e = OooEngine::new(cfg, 0);
        let mut m = mem();
        let mut h = NullHooks;
        // 4-wide core, 4 int ALUs, no dependencies: IPC → 4.
        for i in 0..4000u64 {
            let inst = alu(i, (i % 8) as u8, (8 + (i % 8)) as u8, (16 + (i % 8)) as u8);
            e.feed(&inst, &mut m, &mut h);
        }
        assert!(e.stats().ipc() > 3.5, "ipc = {}", e.stats().ipc());
    }

    #[test]
    fn drift_events_stall_deterministically_and_differ_per_core() {
        let run = |core_id: usize, drift_max: u32| {
            let mut cfg = CoreConfig::table1();
            cfg.drift_max = drift_max;
            let mut m = MemSystem::new(HierarchyConfig::table1(), 2, WritePolicy::WriteThrough);
            let mut e = OooEngine::new(cfg, core_id);
            let mut h = NullHooks;
            for i in 0..5000u64 {
                e.feed(&alu(i, (i % 8) as u8, 9, 10), &mut m, &mut h);
            }
            e.now()
        };
        let drift_max = CoreConfig::table1().drift_max;
        let (a, b) = (run(0, drift_max), run(1, drift_max));
        let steady = run(0, 0);
        assert_eq!(run(1, 0), steady, "without drift the cores agree");
        assert!(a > steady && b > steady, "{a}, {b} vs {steady}");
        assert_ne!(a, b, "cores must drift differently");
        assert_eq!(run(0, drift_max), a, "deterministic");
    }

    #[test]
    fn dependency_chain_serializes_to_ipc_one() {
        let mut e = engine();
        let mut m = mem();
        let mut h = NullHooks;
        // Every instruction reads the previous result: IPC ≤ 1.
        for i in 0..2000u64 {
            e.feed(&alu(i, 1, 1, 1), &mut m, &mut h);
        }
        let ipc = e.stats().ipc();
        assert!(ipc <= 1.05, "chain ipc = {ipc}");
        assert!(ipc > 0.8, "chain ipc = {ipc}");
    }

    #[test]
    fn unpipelined_divides_throttle_throughput() {
        let mut e = engine();
        let mut m = mem();
        let mut h = NullHooks;
        // Independent divides, single unpipelined div unit (20 cycles):
        // IPC ≈ 1/20.
        for i in 0..500u64 {
            let inst = Inst::build(OpClass::IntDiv)
                .seq(i)
                .dest(Reg::int((i % 8) as u8))
                .src0(Reg::int(10))
                .src1(Reg::int(11))
                .finish();
            e.feed(&inst, &mut m, &mut h);
        }
        let ipc = e.stats().ipc();
        assert!((ipc - 0.05).abs() < 0.01, "div ipc = {ipc}");
    }

    #[test]
    fn mispredicted_branch_costs_a_redirect() {
        let run = |mispredict: bool| {
            let mut e = engine();
            let mut m = mem();
            let mut h = NullHooks;
            for i in 0..200u64 {
                if i % 10 == 5 {
                    let b = Inst::build(OpClass::Branch)
                        .seq(i)
                        .src0(Reg::int(1))
                        .branch(BranchInfo {
                            taken: true,
                            mispredicted: mispredict,
                            target: 0,
                        })
                        .finish();
                    e.feed(&b, &mut m, &mut h);
                } else {
                    e.feed(&alu(i, (i % 8) as u8, 9, 10), &mut m, &mut h);
                }
            }
            e.stats().last_commit_cycle
        };
        let clean = run(false);
        let dirty = run(true);
        assert!(dirty > clean + 100, "clean {clean}, mispredicted {dirty}");
    }

    #[test]
    fn load_miss_latency_is_exposed_on_dependents() {
        let mut e = engine();
        let mut m = mem();
        let mut h = NullHooks;
        let ld = Inst::build(OpClass::Load)
            .seq(0)
            .dest(Reg::int(1))
            .src0(Reg::int(2))
            .mem(MemInfo::dword(0x10_0000))
            .finish();
        let t_ld = e.feed(&ld, &mut m, &mut h);
        // Dependent consumer cannot complete before the DRAM fill.
        let t_use = e.feed(&alu(1, 3, 1, 1), &mut m, &mut h);
        assert!(t_ld.complete > 400, "cold miss must see DRAM: {t_ld:?}");
        assert!(t_use.issue >= t_ld.complete);
    }

    #[test]
    fn serializing_instruction_drains_the_pipeline() {
        let mut e = engine();
        let mut m = mem();
        let mut h = NullHooks;
        for i in 0..50u64 {
            e.feed(&alu(i, (i % 8) as u8, 9, 10), &mut m, &mut h);
        }
        let trap = Inst::build(OpClass::Trap).seq(50).finish();
        let t_trap = e.feed(&trap, &mut m, &mut h);
        let t_next = e.feed(&alu(51, 1, 9, 10), &mut m, &mut h);
        assert!(
            t_next.dispatch > t_trap.commit,
            "post-trap dispatch {} must follow trap commit {}",
            t_next.dispatch,
            t_trap.commit
        );
    }

    #[test]
    fn rob_window_bounds_inflight_instructions() {
        // A long-latency load followed by many independent ALUs: dispatch
        // of instruction rob_size+k must wait for the load to release its
        // ROB entry.
        let mut e = engine();
        let mut m = mem();
        let mut h = NullHooks;
        let ld = Inst::build(OpClass::Load)
            .seq(0)
            .dest(Reg::int(1))
            .src0(Reg::int(2))
            .mem(MemInfo::dword(0x20_0000))
            .finish();
        let t_ld = e.feed(&ld, &mut m, &mut h);
        let rob = e.cfg.rob_size as u64;
        let mut last = InstTiming {
            fetch: 0,
            dispatch: 0,
            issue: 0,
            complete: 0,
            commit: 0,
            rob_free: 0,
        };
        for i in 1..(rob + 8) {
            last = e.feed(&alu(i, (i % 8) as u8, 9, 10), &mut m, &mut h);
        }
        assert!(
            last.dispatch >= t_ld.commit,
            "instruction {} dispatched at {} before the load's ROB release {}",
            rob + 8,
            last.dispatch,
            t_ld.commit
        );
    }

    #[test]
    fn full_issue_queue_holds_back_dispatch() {
        // A cold load's 70 dependents wait in the issue queue until it
        // completes; an independent instruction behind them dispatches
        // only once a 64-entry queue frees a slot.
        let run = |iq_size: u32| {
            let mut cfg = CoreConfig::table1();
            cfg.iq_size = iq_size;
            let mut e = OooEngine::new(cfg, 0);
            let mut m = mem();
            let mut h = NullHooks;
            let ld = Inst::build(OpClass::Load)
                .seq(0)
                .dest(Reg::int(1))
                .src0(Reg::int(2))
                .mem(MemInfo::dword(0x20_0000))
                .finish();
            let t_ld = e.feed(&ld, &mut m, &mut h);
            for i in 1..=70u64 {
                e.feed(&alu(i, (2 + i % 6) as u8, 1, 1), &mut m, &mut h);
            }
            let last = e.feed(&alu(71, 9, 10, 11), &mut m, &mut h);
            (last.dispatch, t_ld.complete)
        };
        let (full, load_done) = run(CoreConfig::table1().iq_size);
        assert!(
            full >= load_done,
            "dispatched at {full}, load done {load_done}"
        );
        let (roomy, _) = run(CoreConfig::table1().rob_size);
        assert!(
            roomy < load_done,
            "dispatched at {roomy}, load done {load_done}"
        );
    }

    #[test]
    fn full_lsq_holds_back_memory_dispatch() {
        // LSQ entries free at commit: behind a cold load, the memory
        // instruction one LSQ-depth younger waits for the load to commit.
        let run = |lsq_size: u32| {
            let mut cfg = CoreConfig::table1();
            cfg.lsq_size = lsq_size;
            let mut e = OooEngine::new(cfg, 0);
            let mut m = mem();
            let mut h = NullHooks;
            let load = |seq: u64| {
                Inst::build(OpClass::Load)
                    .seq(seq)
                    .dest(Reg::int((3 + seq % 5) as u8))
                    .src0(Reg::int(2))
                    .mem(MemInfo::dword(0x20_0000 + seq * 8))
                    .finish()
            };
            let t_ld = e.feed(&load(0), &mut m, &mut h);
            let mut last = t_ld;
            for i in 1..=64u64 {
                last = e.feed(&load(i), &mut m, &mut h);
            }
            (last.dispatch, t_ld.commit)
        };
        let (full, load_commit) = run(CoreConfig::table1().lsq_size);
        assert!(
            full >= load_commit,
            "dispatched at {full}, load committed {load_commit}"
        );
        let (roomy, _) = run(2 * CoreConfig::table1().lsq_size);
        assert!(
            roomy < load_commit,
            "dispatched at {roomy}, load committed {load_commit}"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "ROB releases out of order")]
    fn unsorted_rob_releases_are_caught() {
        // Each release earlier than the previous one's: the occupancy
        // count's release cursor would be wrong, so debug builds refuse.
        struct Shrinking;
        impl CoreHooks for Shrinking {
            fn rob_release(&mut self, inst: &Inst, commit: u64) -> RobRelease {
                RobRelease::At(commit + 1_000 - inst.seq * 100)
            }
        }
        let mut e = engine();
        let mut m = mem();
        for i in 0..2u64 {
            e.feed(&alu(i, 1, 2, 3), &mut m, &mut Shrinking);
        }
    }

    #[test]
    fn stall_until_floors_subsequent_activity() {
        let mut e = engine();
        let mut m = mem();
        let mut h = NullHooks;
        e.feed(&alu(0, 1, 2, 3), &mut m, &mut h);
        e.stall_until(10_000);
        let t = e.feed(&alu(1, 1, 2, 3), &mut m, &mut h);
        assert!(t.fetch >= 10_000);
        assert!(t.commit >= 10_000);
        assert_eq!(e.stats().recoveries, 1);
        assert!(e.stats().recovery_stall_cycles > 9_000);
    }

    #[test]
    fn flush_resets_windows_and_registers() {
        let mut e = engine();
        let mut m = mem();
        let mut h = NullHooks;
        for i in 0..100u64 {
            e.feed(&alu(i, 1, 1, 1), &mut m, &mut h);
        }
        e.flush_pipeline(5_000);
        assert!(e.reg_avail[Reg::int(1).index()] >= 5_000);
        let t = e.feed(&alu(100, 2, 1, 1), &mut m, &mut h);
        assert!(t.commit >= 5_000);
    }

    #[test]
    fn feeding_is_deterministic() {
        let run = || {
            let mut e = engine();
            let mut m = mem();
            let mut h = NullHooks;
            let mut acc = Vec::new();
            for i in 0..300u64 {
                let inst = if i % 7 == 3 {
                    Inst::build(OpClass::Load)
                        .seq(i)
                        .dest(Reg::int((i % 8) as u8))
                        .src0(Reg::int(9))
                        .mem(MemInfo::dword(0x1000 + (i % 32) * 8))
                        .finish()
                } else {
                    alu(i, (i % 8) as u8, ((i + 1) % 8) as u8, 9)
                };
                acc.push(e.feed(&inst, &mut m, &mut h));
            }
            acc
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn backpressure_floors_commits_but_not_fetch() {
        let mut e = engine();
        let mut m = mem();
        let mut h = NullHooks;
        e.feed(&alu(0, 1, 2, 3), &mut m, &mut h);
        e.backpressure_until(50_000);
        assert_eq!(e.stats().last_commit_cycle, 50_000);
        let t = e.feed(&alu(1, 1, 2, 3), &mut m, &mut h);
        assert!(t.commit >= 50_000);
        // Unlike stall_until, fetch/dispatch are NOT floored: the front
        // end keeps running into its buffer.
        assert!(t.fetch < 50_000);
    }

    #[test]
    fn a_trap_drain_delays_the_run() {
        // The same 140 instructions with a trap or a nop at 100: only the
        // trap drains the pipeline.
        let run = |op: OpClass| {
            let mut cfg = CoreConfig::table1();
            cfg.drift_max = 0;
            let mut e = OooEngine::new(cfg, 0);
            let mut m = mem();
            let mut h = NullHooks;
            for i in 0..140u64 {
                let inst = if i == 100 {
                    Inst::build(op).seq(i).finish()
                } else {
                    alu(i, (i % 8) as u8, 9, 10)
                };
                e.feed(&inst, &mut m, &mut h);
            }
            e.now()
        };
        let (trap, nop) = (run(OpClass::Trap), run(OpClass::Nop));
        assert!(trap > nop, "trap run {trap}, nop run {nop}");
    }

    #[test]
    fn commit_is_monotonic_in_program_order() {
        let mut e = engine();
        let mut m = mem();
        let mut h = NullHooks;
        let mut prev = 0;
        for i in 0..500u64 {
            let inst = if i % 11 == 0 {
                Inst::build(OpClass::FpDiv)
                    .seq(i)
                    .dest(Reg::fp((i % 16) as u8))
                    .src0(Reg::fp(1))
                    .src1(Reg::fp(2))
                    .finish()
            } else {
                alu(i, (i % 8) as u8, 9, 10)
            };
            let t = e.feed(&inst, &mut m, &mut h);
            assert!(t.commit >= prev, "commit order violated at {i}");
            prev = t.commit;
        }
    }
}
