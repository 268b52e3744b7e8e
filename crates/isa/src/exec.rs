//! Deterministic functional semantics.
//!
//! The timing models only need *when* things happen, but the fault
//! experiments (§VI-D of the paper — verifying that programs "execute
//! correctly in the presence of errors") need *what* is computed. This
//! module gives every instruction a concrete result: an op-class-specific
//! deterministic mixing function over the source register values. A
//! "golden" [`ArchState`]+[`ArchMemory`] run defines correct execution;
//! fault-injection runs are compared against it bit-for-bit.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

use crate::inst::Inst;
use crate::op::OpClass;
use crate::reg::{Reg, NUM_REGS};

/// Architectural register file + program counter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArchState {
    regs: Vec<u64>,
    /// Program counter (sequence-position based in this trace-driven model).
    pub pc: u64,
}

impl Default for ArchState {
    fn default() -> Self {
        Self::new()
    }
}

impl ArchState {
    /// A fresh architectural state: every register holds a fixed non-zero
    /// seed derived from its index (so that undefined-register reads are
    /// still deterministic), the zero register holds zero, `pc = 0`.
    pub fn new() -> Self {
        let regs = (0..NUM_REGS as u64)
            .map(|i| {
                if i == Reg::ZERO.index() as u64 {
                    0
                } else {
                    splitmix64(i + 1)
                }
            })
            .collect();
        ArchState { regs, pc: 0 }
    }

    /// Reads a register (the zero register always reads zero).
    #[inline]
    pub(crate) fn read(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Writes a register (writes to the zero register are discarded).
    #[inline]
    pub fn write(&mut self, r: Reg, value: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = value;
        }
    }

    /// Raw access to the register array — used by fault injection to flip
    /// bits and by recovery to copy architectural state between cores.
    #[inline]
    pub fn regs(&self) -> &[u64] {
        &self.regs
    }

    /// Mutable raw access (fault injection / recovery copy).
    #[inline]
    pub fn regs_mut(&mut self) -> &mut [u64] {
        &mut self.regs
    }

    /// Computes the result of `inst` against this state *without* applying
    /// it. Loads take the loaded value as an explicit argument (the memory
    /// hierarchy owns it).
    pub fn compute(&self, inst: &Inst, loaded: Option<u64>) -> u64 {
        let a = inst.srcs[0].map_or(0, |r| self.read(r));
        let b = inst.srcs[1].map_or(0, |r| self.read(r));
        match inst.op {
            OpClass::IntAlu => mix(a ^ b, 0x9e37_79b9_7f4a_7c15),
            OpClass::IntMul => mix(a.wrapping_mul(b | 1), 0xbf58_476d_1ce4_e5b9),
            OpClass::IntDiv => mix(a.wrapping_div(b | 1), 0x94d0_49bb_1331_11eb),
            OpClass::FpAlu => mix(a.wrapping_add(b), 0xd6e8_feb8_6659_fd93),
            OpClass::FpMul => mix(a.wrapping_mul(b | 3), 0xa5a5_a5a5_5a5a_5a5a),
            OpClass::FpDiv => mix(a.rotate_left(17) ^ b, 0xc2b2_ae3d_27d4_eb4f),
            OpClass::Load => loaded.expect("load result requires a loaded value"),
            // Stores produce the value to be written to memory.
            OpClass::Store => mix(a ^ b.rotate_left(31), 0x1656_67b1_9e37_79f9),
            OpClass::Branch => a ^ b,
            OpClass::Trap | OpClass::MemBarrier | OpClass::Nop => 0,
        }
    }

    /// Executes `inst`: computes the result, writes the destination
    /// register (if any) and advances the PC. Returns the result value.
    ///
    /// Loads read from `mem`; stores write their computed value to `mem`.
    pub fn execute(&mut self, inst: &Inst, mem: &mut ArchMemory) -> u64 {
        let loaded = if inst.op.is_load() {
            Some(mem.read(inst.mem.expect("load has mem info").addr))
        } else {
            None
        };
        let result = self.compute(inst, loaded);
        if inst.op.is_store() {
            mem.write(inst.mem.expect("store has mem info").addr, result);
        }
        if let Some(d) = inst.arch_dest() {
            self.write(d, result);
        }
        self.pc = match inst.branch {
            Some(b) if b.taken => b.target,
            _ => inst.pc.wrapping_add(4),
        };
        result
    }

    /// Copies the full architectural state from `other` — the operation
    /// the UnSync recovery procedure performs from the error-free core to
    /// the erroneous core (§III-A step 3).
    pub fn copy_from(&mut self, other: &ArchState) {
        self.regs.copy_from_slice(&other.regs);
        self.pc = other.pc;
    }
}

/// Words per [`ArchMemory`] page (4 KiB of 8-byte words).
const PAGE_WORDS: usize = 512;
/// Address bits below the page id: 3 (word) + 9 (word-in-page).
const PAGE_SHIFT: u64 = 12;

/// A fast non-cryptographic hasher for page ids (FxHash-style multiply
/// mix) — page keys are small integers, so `SipHash`'s DoS resistance
/// buys nothing on the per-load/per-store path. It also folds a trace's
/// instructions into [`crate::TraceProgram::digest`], one mix per field.
#[derive(Debug, Clone, Default)]
pub(crate) struct PageIdHasher {
    hash: u64,
}

impl PageIdHasher {
    #[inline]
    fn add(&mut self, n: u64) {
        self.hash = (self.hash.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for PageIdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// One 512-word page: a dense word array plus a written-word bitmask
/// (unwritten slots stay zero, so derived equality over the map is
/// exactly "same written words, same values").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Page {
    words: Box<[u64; PAGE_WORDS]>,
    written: [u64; PAGE_WORDS / 64],
}

impl Page {
    fn new() -> Page {
        Page {
            words: Box::new([0; PAGE_WORDS]),
            written: [0; PAGE_WORDS / 64],
        }
    }
}

/// Sparse 8-byte-granular architectural memory.
///
/// Addresses are rounded down to 8-byte alignment. Unwritten locations
/// read as a deterministic hash of their address, so two independent
/// golden runs always agree.
///
/// Storage is paged: a hash map of 512-word pages keyed by
/// `addr >> 12`, so the per-load/per-store path is one integer-hash
/// lookup plus an array index instead of a `BTreeMap` descent — this is
/// hit on every load, store, commit, and golden verification of every
/// run (see ARCHITECTURE.md, "The per-instruction hot path").
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArchMemory {
    pages: HashMap<u64, Page, BuildHasherDefault<PageIdHasher>>,
    footprint: usize,
}

impl ArchMemory {
    /// An empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the 8-byte word containing `addr`.
    #[inline]
    pub fn read(&self, addr: u64) -> u64 {
        let a = addr & !7;
        let w = ((a >> 3) as usize) & (PAGE_WORDS - 1);
        match self.pages.get(&(a >> PAGE_SHIFT)) {
            Some(p) if (p.written[w >> 6] >> (w & 63)) & 1 == 1 => p.words[w],
            _ => splitmix64(a ^ 0xdead_beef_cafe_f00d),
        }
    }

    /// Writes the 8-byte word containing `addr`.
    #[inline]
    pub fn write(&mut self, addr: u64, value: u64) {
        let a = addr & !7;
        let w = ((a >> 3) as usize) & (PAGE_WORDS - 1);
        let page = self.pages.entry(a >> PAGE_SHIFT).or_insert_with(Page::new);
        let bit = 1u64 << (w & 63);
        if page.written[w >> 6] & bit == 0 {
            page.written[w >> 6] |= bit;
            self.footprint += 1;
        }
        page.words[w] = value;
    }

    /// Number of distinct words ever written.
    #[inline]
    pub fn footprint_words(&self) -> usize {
        self.footprint
    }

    /// Iterates over written (address, value) pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut ids: Vec<u64> = self.pages.keys().copied().collect();
        ids.sort_unstable();
        ids.into_iter().flat_map(move |id| {
            let page = &self.pages[&id];
            (0..PAGE_WORDS)
                .filter(|&w| (page.written[w >> 6] >> (w & 63)) & 1 == 1)
                .map(move |w| ((id << PAGE_SHIFT) | ((w as u64) << 3), page.words[w]))
        })
    }
}

/// Runs a trace functionally with no faults and returns the final
/// architectural state and memory — the correctness oracle for fault
/// experiments.
///
/// # Examples
///
/// ```
/// use unsync_isa::{golden_run, Inst, MemInfo, OpClass, Reg, TraceProgram};
///
/// let trace = TraceProgram::new(vec![
///     Inst::build(OpClass::Store).seq(0).src0(Reg::int(1)).mem(MemInfo::dword(0x40)).finish(),
/// ]);
/// let (state, mem) = golden_run(&trace);
/// assert_eq!(mem.footprint_words(), 1);
/// assert_eq!(state.pc, 4);
/// ```
pub fn golden_run(trace: &crate::stream::TraceProgram) -> (ArchState, ArchMemory) {
    let mut state = ArchState::new();
    let mut mem = ArchMemory::new();
    for inst in trace.insts() {
        state.execute(inst, &mut mem);
    }
    (state, mem)
}

/// SplitMix64 — the deterministic diffusion function used throughout the
/// workload and functional models.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[inline]
fn mix(x: u64, salt: u64) -> u64 {
    splitmix64(x ^ salt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BranchInfo, MemInfo};

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
    fn fresh_state_is_deterministic() {
        assert_eq!(ArchState::new(), ArchState::new());
        assert_eq!(ArchState::new().read(Reg::ZERO), 0);
        assert_ne!(ArchState::new().read(Reg::int(1)), 0);
    }

    #[test]
    fn execute_is_deterministic_and_state_dependent() {
        let mut s1 = ArchState::new();
        let mut s2 = ArchState::new();
        let mut m1 = ArchMemory::new();
        let mut m2 = ArchMemory::new();
        let i = alu(0, 1, 2, 3);
        assert_eq!(s1.execute(&i, &mut m1), s2.execute(&i, &mut m2));
        assert_eq!(s1, s2);
        // Perturb a source: results must diverge.
        s2.write(Reg::int(2), 12345);
        let j = alu(1, 4, 2, 3);
        assert_ne!(s1.clone().execute(&j, &mut m1), s2.execute(&j, &mut m2));
    }

    #[test]
    fn store_then_load_round_trips() {
        let mut s = ArchState::new();
        let mut m = ArchMemory::new();
        let st = Inst::build(OpClass::Store)
            .seq(0)
            .src0(Reg::int(1))
            .src1(Reg::int(2))
            .mem(MemInfo::dword(0x100))
            .finish();
        let stored = s.execute(&st, &mut m);
        let ld = Inst::build(OpClass::Load)
            .seq(1)
            .dest(Reg::int(3))
            .src0(Reg::int(4))
            .mem(MemInfo::dword(0x100))
            .finish();
        let loaded = s.execute(&ld, &mut m);
        assert_eq!(stored, loaded);
        assert_eq!(s.read(Reg::int(3)), stored);
    }

    #[test]
    fn unwritten_memory_reads_deterministically() {
        let m = ArchMemory::new();
        assert_eq!(m.read(0x4000), m.read(0x4007)); // same word
        assert_ne!(m.read(0x4000), m.read(0x4008)); // adjacent word differs
        assert_eq!(ArchMemory::new().read(0x77), m.read(0x77));
    }

    #[test]
    fn taken_branch_redirects_pc() {
        let mut s = ArchState::new();
        let mut m = ArchMemory::new();
        let b = Inst::build(OpClass::Branch)
            .seq(0)
            .pc(0x40)
            .src0(Reg::int(1))
            .branch(BranchInfo {
                taken: true,
                mispredicted: false,
                target: 0x200,
            })
            .finish();
        s.execute(&b, &mut m);
        assert_eq!(s.pc, 0x200);
        let nb = Inst::build(OpClass::Branch)
            .seq(1)
            .pc(0x200)
            .src0(Reg::int(1))
            .branch(BranchInfo {
                taken: false,
                mispredicted: false,
                target: 0x300,
            })
            .finish();
        s.execute(&nb, &mut m);
        assert_eq!(s.pc, 0x204);
    }

    #[test]
    fn copy_from_replicates_state() {
        let mut a = ArchState::new();
        let mut b = ArchState::new();
        let mut m = ArchMemory::new();
        for i in 0..10 {
            a.execute(&alu(i, (i % 30) as u8 + 1, 2, 3), &mut m);
        }
        assert_ne!(a, b);
        b.copy_from(&a);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_register_write_is_discarded_in_execute() {
        let mut s = ArchState::new();
        let mut m = ArchMemory::new();
        let i = Inst::build(OpClass::IntAlu)
            .dest(Reg::ZERO)
            .src0(Reg::int(1))
            .finish();
        s.execute(&i, &mut m);
        assert_eq!(s.read(Reg::ZERO), 0);
    }

    #[test]
    fn memory_footprint_counts_distinct_words() {
        let mut m = ArchMemory::new();
        m.write(0x0, 1);
        m.write(0x7, 2); // same word
        m.write(0x8, 3);
        assert_eq!(m.footprint_words(), 2);
    }

    #[test]
    fn iter_is_address_ordered_across_pages() {
        let mut m = ArchMemory::new();
        m.write(0x9_010, 3); // a later page, inserted first
        m.write(0x0_ff8, 1); // last word of page 0
        m.write(0x1_000, 2); // first word of page 1
        m.write(0x0_ffd, 4); // overwrites the 0xff8 word
        assert_eq!(
            m.iter().collect::<Vec<_>>(),
            vec![(0xff8, 4), (0x1000, 2), (0x9010, 3)]
        );
        assert_eq!(m.footprint_words(), 3);
    }

    #[test]
    fn equality_is_insertion_order_independent() {
        let mut a = ArchMemory::new();
        let mut b = ArchMemory::new();
        for i in 0..2_000u64 {
            a.write(i * 8, i);
            b.write((1_999 - i) * 8, 1_999 - i);
        }
        assert_eq!(a, b);
        b.write(0x100_0000, 7);
        assert_ne!(a, b);
    }
}
