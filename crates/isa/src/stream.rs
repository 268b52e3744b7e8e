//! Instruction streams and trace statistics.

use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use crate::exec::PageIdHasher;
use crate::inst::Inst;
use crate::op::{OpClass, ALL_OP_CLASSES};

/// A source of dynamic instructions.
///
/// Implementors are *replayable*: [`InstStream::reset`] rewinds to the
/// first instruction so the same trace can drive the baseline, Reunion and
/// UnSync simulations, and both cores of a redundant pair.
pub trait InstStream {
    /// Returns the next instruction, or `None` at end of trace.
    fn next_inst(&mut self) -> Option<Inst>;

    /// Rewinds the stream to its first instruction.
    fn reset(&mut self);

    /// Total number of instructions the stream will yield, if known.
    fn len_hint(&self) -> Option<u64> {
        None
    }
}

/// A materialized instruction trace. The instructions are immutable
/// and shared: a clone costs a reference count, not a copy.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TraceProgram {
    insts: Arc<Vec<Inst>>,
    cursor: usize,
    /// [`TraceProgram::digest`], computed on first use.
    digest: OnceLock<u64>,
}

impl TraceProgram {
    /// Wraps a vector of instructions.
    ///
    /// # Panics
    /// Panics if any instruction fails [`Inst::validate`] or if sequence
    /// numbers are not `0, 1, 2, …`.
    pub fn new(insts: Vec<Inst>) -> Self {
        for (i, inst) in insts.iter().enumerate() {
            if let Err(e) = inst.validate() {
                panic!("invalid trace: {e}");
            }
            assert_eq!(
                inst.seq, i as u64,
                "trace sequence numbers must be dense from 0"
            );
        }
        TraceProgram {
            insts: Arc::new(insts),
            cursor: 0,
            digest: OnceLock::new(),
        }
    }

    /// Collects a stream into a materialized trace.
    pub fn from_stream<S: InstStream>(stream: &mut S) -> Self {
        let mut insts = Vec::with_capacity(stream.len_hint().unwrap_or(0) as usize);
        while let Some(i) = stream.next_inst() {
            insts.push(i);
        }
        TraceProgram::new(insts)
    }

    /// The underlying instructions.
    #[inline]
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Number of instructions in the trace.
    #[inline]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the trace is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// A 64-bit hash of the instructions, computed once per trace value:
    /// equal traces have equal digests, so memos key on it (and confirm
    /// a hit with `==`, since unequal traces may collide).
    pub fn digest(&self) -> u64 {
        *self.digest.get_or_init(|| {
            let mut h = PageIdHasher::default();
            self.insts.hash(&mut h);
            h.finish()
        })
    }

    /// Computes summary statistics over the trace.
    pub fn stats(&self) -> TraceStats {
        TraceStats::from_insts(&self.insts)
    }
}

/// Two traces are equal when they contain the same instructions (at
/// once when they share them); the replay cursor is transient state
/// and, like the cached digest, does not participate.
impl PartialEq for TraceProgram {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.insts, &other.insts) || self.insts == other.insts
    }
}

impl Eq for TraceProgram {}

impl InstStream for TraceProgram {
    fn next_inst(&mut self) -> Option<Inst> {
        let inst = self.insts.get(self.cursor).copied();
        if inst.is_some() {
            self.cursor += 1;
        }
        inst
    }

    fn reset(&mut self) {
        self.cursor = 0;
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.insts.len() as u64)
    }
}

/// Summary statistics of a trace — the knobs the paper's evaluation cites
/// (serializing fraction, store intensity, branch behaviour).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Total instructions.
    pub(crate) total: u64,
    /// Count per operation class, indexed by position in
    /// [`ALL_OP_CLASSES`].
    pub(crate) per_class: [u64; 12],
    /// Mispredicted dynamic branches.
    pub(crate) mispredicted_branches: u64,
    /// Distinct 64-byte cache lines touched by loads/stores.
    pub distinct_lines: u64,
}

impl TraceStats {
    /// Computes statistics from a slice of instructions.
    pub(crate) fn from_insts(insts: &[Inst]) -> Self {
        let mut stats = TraceStats {
            total: insts.len() as u64,
            ..Default::default()
        };
        let mut lines = std::collections::BTreeSet::new();
        for inst in insts {
            let idx = ALL_OP_CLASSES
                .iter()
                .position(|&c| c == inst.op)
                .expect("known class");
            stats.per_class[idx] += 1;
            if inst.is_mispredicted_branch() {
                stats.mispredicted_branches += 1;
            }
            if let Some(m) = inst.mem {
                lines.insert(m.addr >> 6);
            }
        }
        stats.distinct_lines = lines.len() as u64;
        stats
    }

    /// Count of instructions of class `op`.
    #[inline]
    pub fn count(&self, op: OpClass) -> u64 {
        let idx = ALL_OP_CLASSES
            .iter()
            .position(|&c| c == op)
            .expect("known class");
        self.per_class[idx]
    }

    /// Fraction of instructions of class `op` (0 if the trace is empty).
    #[inline]
    pub fn fraction(&self, op: OpClass) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(op) as f64 / self.total as f64
        }
    }

    /// Fraction of serializing instructions (traps + memory barriers) —
    /// the statistic Fig. 4 of the paper keys on (bzip2 2 %, ammp 1.7 %,
    /// galgel 1 %).
    #[inline]
    pub fn serializing_fraction(&self) -> f64 {
        self.fraction(OpClass::Trap) + self.fraction(OpClass::MemBarrier)
    }

    /// Fraction of stores — the statistic Fig. 6 (CB pressure) keys on.
    #[inline]
    pub fn store_fraction(&self) -> f64 {
        self.fraction(OpClass::Store)
    }

    /// Branch misprediction rate over dynamic branches (0 if no branches).
    #[inline]
    pub fn mispredict_rate(&self) -> f64 {
        let branches = self.count(OpClass::Branch);
        if branches == 0 {
            0.0
        } else {
            self.mispredicted_branches as f64 / branches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BranchInfo, MemInfo};
    use crate::reg::Reg;

    fn tiny_trace() -> TraceProgram {
        let insts = vec![
            Inst::build(OpClass::IntAlu)
                .seq(0)
                .pc(0)
                .dest(Reg::int(1))
                .src0(Reg::int(2))
                .finish(),
            Inst::build(OpClass::Load)
                .seq(1)
                .pc(4)
                .dest(Reg::int(2))
                .src0(Reg::int(1))
                .mem(MemInfo::dword(0x40))
                .finish(),
            Inst::build(OpClass::Store)
                .seq(2)
                .pc(8)
                .src0(Reg::int(2))
                .mem(MemInfo::dword(0x80))
                .finish(),
            Inst::build(OpClass::Branch)
                .seq(3)
                .pc(12)
                .src0(Reg::int(1))
                .branch(BranchInfo {
                    taken: true,
                    mispredicted: true,
                    target: 0,
                })
                .finish(),
            Inst::build(OpClass::Trap).seq(4).pc(16).finish(),
        ];
        TraceProgram::new(insts)
    }

    #[test]
    fn stream_yields_in_order_and_resets() {
        let mut t = tiny_trace();
        assert_eq!(t.len_hint(), Some(5));
        let mut seqs = Vec::new();
        while let Some(i) = t.next_inst() {
            seqs.push(i.seq);
        }
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        assert!(t.next_inst().is_none());
        t.reset();
        assert_eq!(t.next_inst().unwrap().seq, 0);
    }

    #[test]
    fn stats_count_classes() {
        let s = tiny_trace().stats();
        assert_eq!(s.total, 5);
        assert_eq!(s.count(OpClass::IntAlu), 1);
        assert_eq!(s.count(OpClass::Load), 1);
        assert_eq!(s.count(OpClass::Store), 1);
        assert_eq!(s.count(OpClass::Branch), 1);
        assert_eq!(s.count(OpClass::Trap), 1);
        assert!((s.serializing_fraction() - 0.2).abs() < 1e-12);
        assert!((s.store_fraction() - 0.2).abs() < 1e-12);
        assert!((s.mispredict_rate() - 1.0).abs() < 1e-12);
        assert_eq!(s.distinct_lines, 2);
    }

    #[test]
    fn from_stream_round_trips() {
        let mut t = tiny_trace();
        let u = TraceProgram::from_stream(&mut t);
        assert_eq!(u.len(), 5);
        assert_eq!(u.insts()[3].op, OpClass::Branch);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn non_dense_sequence_numbers_panic() {
        let insts = vec![Inst::build(OpClass::IntAlu)
            .seq(1)
            .dest(Reg::int(1))
            .finish()];
        let _ = TraceProgram::new(insts);
    }

    #[test]
    fn empty_trace_stats_are_zero() {
        let s = TraceProgram::new(vec![]).stats();
        assert_eq!(s.total, 0);
        assert_eq!(s.serializing_fraction(), 0.0);
        assert_eq!(s.mispredict_rate(), 0.0);
    }
}
