//! The CHECK-stage timing model as [`CoreHooks`].

use std::collections::VecDeque;

use unsync_isa::Inst;
use unsync_mem::MemSystem;
use unsync_sim::{CoreHooks, RobRelease};

use crate::config::ReunionConfig;

#[derive(Debug, Clone, Copy)]
struct CsbEntry {
    /// Verification cycle; `None` while the entry's interval is open.
    verify: Option<u64>,
}

/// Verification cycles of closed-but-unconsumed ROB entries, indexed by
/// `seq - base`. The keys are dense: intervals close consecutive
/// sequence numbers, and the engine consumes its ROB entries oldest
/// first, so the live entries form one window that slides upward. A
/// rollback flushes the engine's ROB but not this table; its replay
/// re-closes the interval, possibly below `base` (the window then grows
/// downward), and the orphaned entries of the flushed ROB are dropped
/// once a younger entry is consumed.
#[derive(Debug, Clone, Default)]
struct VerifyTable {
    slots: VecDeque<Option<u64>>,
    /// Sequence number of `slots[0]`.
    base: u64,
}

impl VerifyTable {
    fn set(&mut self, seq: u64, verify: u64) {
        if self.slots.is_empty() {
            self.base = seq;
        } else if seq < self.base {
            for _ in seq..self.base {
                self.slots.push_front(None);
            }
            self.base = seq;
        }
        let i = (seq - self.base) as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        self.slots[i] = Some(verify);
    }

    fn get(&self, seq: u64) -> Option<u64> {
        let i = seq.checked_sub(self.base)? as usize;
        self.slots.get(i).copied().flatten()
    }

    /// Consumes `seq`'s entry. The engine consumes in sequence order
    /// until a flush, and a replay re-closes every entry it consumes, so
    /// the entries older than `seq` are dead and go with it.
    fn take(&mut self, seq: u64) -> Option<u64> {
        let verify = self.get(seq)?;
        self.slots.drain(..=(seq - self.base) as usize);
        self.base = seq + 1;
        Some(verify)
    }
}

/// Reunion's per-core checking machinery, as engine hooks.
///
/// Committed instructions enter the CHECK-stage buffer and their ROB
/// entries stay allocated until the fingerprint covering them has made
/// the round trip to the partner core (`commit cycle of the interval's
/// last instruction + comparison latency`). Serializing instructions cut
/// the interval immediately and stall dispatch until verification.
///
/// The hooks model only the timing of that round trip. The CRC-16
/// fingerprints themselves are folded and compared by
/// [`ReunionPolicy`](crate::ReunionPolicy), which drives these hooks.
#[derive(Debug, Clone)]
pub struct ReunionHooks {
    cfg: ReunionConfig,
    /// Sequence numbers of the open interval's members.
    interval_members: Vec<u64>,
    /// Write-through lines produced by the open interval (released to the
    /// L2 only after verification).
    interval_stores: Vec<u64>,
    /// Resolved verification cycle per sequence number.
    verify_of: VerifyTable,
    /// CHECK-stage buffer occupancy, commit order.
    csb: VecDeque<CsbEntry>,
    /// Cycle of the most recent verification.
    pub(crate) last_verify: u64,
    /// Sequence numbers of the most recently closed interval (for
    /// cross-core verify patching by the pair runner).
    last_closed: Vec<u64>,
    /// Whether this core releases verified stores to the memory system.
    /// In a vocal/mute pair only the vocal core does (RMT-style
    /// single-instance release); standalone cores leave it `true`.
    pub(crate) release_stores: bool,
    /// The core whose bus carries the released stores.
    pub(crate) core: usize,
}

impl ReunionHooks {
    /// Hooks for the given configuration.
    pub fn new(cfg: ReunionConfig) -> Self {
        cfg.validate().expect("Reunion config must be valid");
        ReunionHooks {
            cfg,
            interval_members: Vec::with_capacity(cfg.fingerprint_interval as usize),
            interval_stores: Vec::new(),
            verify_of: VerifyTable::default(),
            csb: VecDeque::with_capacity(cfg.csb_entries as usize + 1),
            last_verify: 0,
            last_closed: Vec::new(),
            release_stores: true,
            core: 0,
        }
    }

    /// In a vocal/mute pair the fingerprint comparison completes only
    /// after *both* cores have produced it: the pair runner calls this
    /// after each interval boundary with `max(close_A, close_B) +
    /// latency` to extend the most recently closed interval's
    /// verification time. Returns the patched verify cycle.
    pub(crate) fn patch_last_verify(&mut self, verify: u64) -> u64 {
        let verify = verify.max(self.last_verify);
        for seq in &self.last_closed {
            self.verify_of.set(*seq, verify);
        }
        // The last interval's CSB entries are the trailing run whose
        // verify equals the pre-patch value; rewrite the trailing
        // non-None run (entries of earlier intervals already retired or
        // carry earlier times — patching to a later time only ever
        // *extends*, preserving FIFO retire order).
        let n = self.last_closed.len();
        let len = self.csb.len();
        for i in len.saturating_sub(n)..len {
            if let Some(e) = self.csb.get_mut(i) {
                if let Some(v) = e.verify {
                    e.verify = Some(v.max(verify));
                }
            }
        }
        self.last_verify = verify;
        verify
    }

    fn retire_csb(&mut self, cycle: u64) {
        while self
            .csb
            .front()
            .is_some_and(|e| e.verify.is_some_and(|v| v <= cycle))
        {
            self.csb.pop_front();
        }
    }

    /// Closes the open interval at `cycle`: it verifies after the
    /// comparison latency; CSB entries and ROB releases resolve; buffered
    /// stores drain to the L2.
    fn close_interval(&mut self, cycle: u64, mem: &mut MemSystem) {
        let verify = cycle + self.cfg.comparison_latency as u64;
        self.last_closed.clear();
        for seq in self.interval_members.drain(..) {
            self.verify_of.set(seq, verify);
            self.last_closed.push(seq);
        }
        // The open interval's entries are the trailing `verify: None` run.
        for e in self.csb.iter_mut().rev() {
            if e.verify.is_some() {
                break;
            }
            e.verify = Some(verify);
        }
        // One instance of each verified store is released to the memory
        // hierarchy (RMT-style single-instance release).
        for line in self.interval_stores.drain(..) {
            if self.release_stores {
                mem.drain_write(self.core, line, verify);
            }
        }
        self.last_verify = verify;
    }
}

impl CoreHooks for ReunionHooks {
    fn commit_gate(&mut self, _inst: &Inst, ready: u64) -> u64 {
        self.retire_csb(ready);
        if self.csb.len() < self.cfg.csb_entries as usize {
            return ready;
        }
        // CSB full: commit waits for the head entry's verification.
        let head = self.csb.front().expect("CSB non-empty");
        let v = head.verify.expect(
            "CSB head belongs to the open interval: csb_entries must exceed the FI \
             (enforced by ReunionConfig::validate)",
        );
        self.retire_csb(v);
        v
    }

    fn rob_release(&mut self, inst: &Inst, _commit: u64) -> RobRelease {
        // Held through CHECK until the covering fingerprint verifies.
        RobRelease::Pending(inst.seq)
    }

    fn resolve_rob_release(&mut self, seq: u64) -> u64 {
        self.verify_of.take(seq).expect(
            "pending ROB release consumed before its interval closed — the ROB must be \
             deeper than the fingerprint interval",
        )
    }

    fn store_committed(
        &mut self,
        _inst: &Inst,
        line_addr: u64,
        cycle: u64,
        _mem: &mut MemSystem,
    ) -> u64 {
        // The store parks in the CSB; it reaches the L2 at verification
        // (handled in close_interval). Commit itself is not delayed here —
        // CSB capacity is enforced in commit_gate.
        self.interval_stores.push(line_addr);
        cycle
    }

    fn serialize_release(&mut self, inst: &Inst, _commit: u64) -> u64 {
        // on_commit already cut the interval at this serializing
        // instruction; dispatch resumes once it verifies AND the two
        // cores have rendezvoused (§IV-5).
        let verify = self
            .verify_of
            .get(inst.seq)
            .expect("serializing instruction closed its interval");
        verify + self.cfg.serialize_sync_penalty as u64
    }

    fn on_commit(&mut self, inst: &Inst, cycle: u64, mem: &mut MemSystem) {
        self.csb.push_back(CsbEntry { verify: None });
        self.interval_members.push(inst.seq);
        if self.interval_members.len() >= self.cfg.fingerprint_interval as usize
            || inst.op.is_serializing()
        {
            self.close_interval(cycle, mem);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsync_isa::{Inst, MemInfo, OpClass, Reg};
    use unsync_mem::{HierarchyConfig, WritePolicy};
    use unsync_sim::{run_stream, BaselineHooks, CoreConfig, OooEngine};
    use unsync_workloads::{Benchmark, WorkloadGen};

    fn mem() -> MemSystem {
        MemSystem::new(HierarchyConfig::table1(), 1, WritePolicy::WriteThrough)
    }

    fn alu(seq: u64) -> Inst {
        Inst::build(OpClass::IntAlu)
            .seq(seq)
            .pc(seq * 4)
            .dest(Reg::int((seq % 8) as u8))
            .src0(Reg::int(9))
            .finish()
    }

    #[test]
    fn intervals_close_every_fi_instructions() {
        let mut h = ReunionHooks::new(ReunionConfig::for_fi(10, 6));
        let mut m = mem();
        let mut e = OooEngine::new(CoreConfig::table1(), 0);
        let mut closes = 0;
        for i in 0..100 {
            e.feed(&alu(i), &mut m, &mut h);
            closes += u32::from(h.interval_members.is_empty());
        }
        assert_eq!(closes, 10);
    }

    #[test]
    fn serializing_instruction_cuts_the_interval_early() {
        let mut h = ReunionHooks::new(ReunionConfig::for_fi(10, 6));
        let mut m = mem();
        let mut e = OooEngine::new(CoreConfig::table1(), 0);
        for i in 0..3 {
            e.feed(&alu(i), &mut m, &mut h);
        }
        let trap = Inst::build(OpClass::Trap).seq(3).pc(12).finish();
        let t = e.feed(&trap, &mut m, &mut h);
        assert!(
            h.interval_members.is_empty(),
            "the trap closed the interval"
        );
        assert_eq!(h.last_closed, [0, 1, 2, 3], "a 4-instruction interval");
        // Dispatch after the trap resumes only at verification.
        let next = e.feed(&alu(4), &mut m, &mut h);
        assert!(
            next.dispatch >= t.commit + 6,
            "dispatch {} must wait for verify {}",
            next.dispatch,
            t.commit + 6
        );
    }

    #[test]
    fn rob_entries_resolve_to_verification_time() {
        let mut h = ReunionHooks::new(ReunionConfig::for_fi(10, 6));
        let mut m = mem();
        let mut e = OooEngine::new(CoreConfig::table1(), 0);
        let mut last_commit_of_first_interval = 0;
        for i in 0..10 {
            last_commit_of_first_interval = e.feed(&alu(i), &mut m, &mut h).commit;
        }
        // Instruction 0's release resolves to interval-0's verify cycle.
        let v = h.resolve_rob_release(0);
        assert_eq!(v, last_commit_of_first_interval + 6);
    }

    #[test]
    #[should_panic(expected = "pending ROB release consumed before its interval closed")]
    fn resolving_an_open_interval_panics() {
        let mut h = ReunionHooks::new(ReunionConfig::for_fi(10, 6));
        let mut m = mem();
        let mut e = OooEngine::new(CoreConfig::table1(), 0);
        for i in 0..5 {
            e.feed(&alu(i), &mut m, &mut h);
        }
        h.resolve_rob_release(3);
    }

    /// [`ReunionHooks`] with every verify-table answer checked against a
    /// map of each sequence number's latest close.
    struct Checked {
        inner: ReunionHooks,
        model: std::collections::HashMap<u64, u64>,
        open: Vec<u64>,
        resolved: u64,
    }

    impl CoreHooks for Checked {
        fn commit_gate(&mut self, inst: &Inst, ready: u64) -> u64 {
            self.inner.commit_gate(inst, ready)
        }

        fn rob_release(&mut self, inst: &Inst, commit: u64) -> RobRelease {
            self.inner.rob_release(inst, commit)
        }

        fn resolve_rob_release(&mut self, seq: u64) -> u64 {
            let v = self.inner.resolve_rob_release(seq);
            assert_eq!(self.model.remove(&seq), Some(v), "seq {seq}");
            self.resolved += 1;
            v
        }

        fn store_committed(
            &mut self,
            inst: &Inst,
            line: u64,
            cycle: u64,
            m: &mut MemSystem,
        ) -> u64 {
            self.inner.store_committed(inst, line, cycle, m)
        }

        fn serialize_release(&mut self, inst: &Inst, commit: u64) -> u64 {
            let v = self.inner.serialize_release(inst, commit);
            assert_eq!(Some(v), self.model.get(&inst.seq).map(|m| m + 6));
            v
        }

        fn on_commit(&mut self, inst: &Inst, cycle: u64, m: &mut MemSystem) {
            self.inner.on_commit(inst, cycle, m);
            self.open.push(inst.seq);
            if self.inner.interval_members.is_empty() {
                for seq in self.open.drain(..) {
                    self.model.insert(seq, self.inner.last_verify);
                }
            }
        }
    }

    #[test]
    fn replay_below_the_oldest_unresolved_entry_resolves_like_a_map() {
        // The engine's ROB is flushed and the program replayed from below
        // the table's base, i.e. from entries consumed before the flush;
        // a second flush leaves orphans behind. Every resolution must
        // match a map of the latest close per sequence number.
        let mut cfg = ReunionConfig::for_fi(10, 6);
        cfg.serialize_sync_penalty = 6;
        let mut h = Checked {
            inner: ReunionHooks::new(cfg),
            model: Default::default(),
            open: Vec::new(),
            resolved: 0,
        };
        let mut m = mem();
        let mut e = OooEngine::new(CoreConfig::table1(), 0);
        let trap = |seq| Inst::build(OpClass::Trap).seq(seq).pc(seq * 4).finish();
        let mut feed = |e: &mut OooEngine, h: &mut Checked, seqs: std::ops::Range<u64>| {
            for i in seqs {
                let inst = if i % 37 == 0 { trap(i) } else { alu(i) };
                e.feed(&inst, &mut m, h);
            }
        };
        feed(&mut e, &mut h, 0..300);
        let base = h.inner.verify_of.base;
        assert!(base > 150, "entries below {base} already consumed");
        e.flush_pipeline(e.now() + 10);
        feed(&mut e, &mut h, 150..160);
        assert_eq!(h.inner.verify_of.base, 150, "the table grew downward");
        feed(&mut e, &mut h, 160..330);
        e.flush_pipeline(e.now() + 10);
        feed(&mut e, &mut h, 320..700);
        assert!(h.resolved > 400, "{} resolutions", h.resolved);
        assert!(
            h.inner.verify_of.slots.len() <= 128 + 10,
            "orphans of the flushed ROB were dropped: {} entries",
            h.inner.verify_of.slots.len()
        );
    }

    #[test]
    fn stores_reach_l2_only_after_verification() {
        let mut h = ReunionHooks::new(ReunionConfig::for_fi(4, 20));
        let mut m = mem();
        let mut e = OooEngine::new(CoreConfig::table1(), 0);
        let st = Inst::build(OpClass::Store)
            .seq(0)
            .src0(Reg::int(1))
            .mem(MemInfo::dword(0x100))
            .finish();
        e.feed(&st, &mut m, &mut h);
        let before = m.l2_stats().writes;
        assert_eq!(before, 0, "interval still open: store parked in CSB");
        for i in 1..4 {
            e.feed(&alu(i), &mut m, &mut h);
        }
        assert_eq!(
            m.l2_stats().writes,
            1,
            "verified interval released the store"
        );
    }

    #[test]
    fn patch_last_verify_extends_resolution_and_csb_retire_times() {
        let mut h = ReunionHooks::new(ReunionConfig::for_fi(4, 6));
        let mut m = mem();
        let mut e = OooEngine::new(CoreConfig::table1(), 0);
        let mut close = 0;
        for i in 0..4 {
            close = e.feed(&alu(i), &mut m, &mut h).commit;
        }
        let own_verify = close + 6;
        assert_eq!(h.last_verify, own_verify);
        // Pair runner learns the partner closed later: extend.
        let common = own_verify + 100;
        assert_eq!(h.patch_last_verify(common), common);
        assert_eq!(h.resolve_rob_release(0), common);
        // CSB entries now retire at the common time, not the local one.
        h.retire_csb(own_verify + 1);
        assert_eq!(h.csb.len(), 4);
        h.retire_csb(common);
        assert!(h.csb.is_empty());
        // Patching backwards is a no-op (max semantics).
        assert_eq!(h.patch_last_verify(common - 50), common);
    }

    #[test]
    fn csb_back_pressure_stalls_commit() {
        // Tiny CSB + long latency: the buffer must fill and stall, where a
        // CSB deeper than the run never does.
        let run = |csb_entries| {
            let mut cfg = ReunionConfig::for_fi(4, 200);
            cfg.csb_entries = csb_entries;
            let mut h = ReunionHooks::new(cfg);
            let mut m = mem();
            let mut e = OooEngine::new(CoreConfig::table1(), 0);
            for i in 0..64 {
                e.feed(&alu(i), &mut m, &mut h);
            }
            e.now()
        };
        let (tiny, deep) = (run(6), run(64));
        assert!(tiny > deep + 200, "CSB of 6: {tiny} cycles, of 64: {deep}");
    }

    #[test]
    fn reunion_is_slower_than_baseline_on_serializing_workloads() {
        // The Fig. 4 shape on one benchmark: bzip2 (2 % serializing).
        let cfg = CoreConfig::table1();
        let mut base_stream = WorkloadGen::new(Benchmark::Bzip2, 20_000, 7);
        let mut base_hooks = BaselineHooks::default();
        let base = run_stream(
            cfg,
            &mut base_stream,
            &mut base_hooks,
            WritePolicy::WriteThrough,
        );
        let mut reunion_stream = WorkloadGen::new(Benchmark::Bzip2, 20_000, 7);
        let mut rh = ReunionHooks::new(ReunionConfig::paper_baseline());
        let reunion = run_stream(cfg, &mut reunion_stream, &mut rh, WritePolicy::WriteThrough);
        let overhead = reunion.core.overhead_vs(&base.core);
        assert!(overhead > 0.01, "Reunion overhead on bzip2 = {overhead}");
        assert!(overhead < 1.0, "Reunion overhead on bzip2 = {overhead}");
    }

    #[test]
    fn larger_fi_and_latency_increase_rob_occupancy() {
        // The Fig. 5 mechanism on galgel.
        let cfg = CoreConfig::table1();
        let run = |fi, lat| {
            let mut s = WorkloadGen::new(Benchmark::Galgel, 20_000, 3);
            let mut h = ReunionHooks::new(ReunionConfig::for_fi(fi, lat));
            run_stream(cfg, &mut s, &mut h, WritePolicy::WriteThrough)
        };
        let small = run(1, 10);
        let large = run(30, 40);
        assert!(
            large.core.avg_rob_occupancy() >= small.core.avg_rob_occupancy(),
            "occupancy {} vs {}",
            large.core.avg_rob_occupancy(),
            small.core.avg_rob_occupancy()
        );
        assert!(
            large.core.last_commit_cycle > small.core.last_commit_cycle,
            "FI=30/lat=40 must be slower"
        );
    }
}
