//! Real-ISA MiBench-style kernels: the measured workload backend.
//!
//! Where [`crate::gen::WorkloadGen`] *samples* instruction statistics
//! from a calibrated profile, this module *computes* them: each
//! [`Kernel`] is a real algorithm (quicksort, bitwise CRC-32,
//! Dijkstra's shortest paths, Boyer–Moore–Horspool string search — the
//! MiBench names the paper evaluates) run over seed-derived input
//! data. As the algorithm executes, every idealized machine operation
//! is emitted as an [`Inst`] — loads and stores at the real addresses
//! the algorithm touches, branches with the real taken/not-taken
//! outcome of each comparison, mispredict flags from a 2-bit
//! saturating per-site predictor observing those outcomes. Each
//! emitted instruction is immediately executed through
//! [`ArchState::execute`] against an [`ArchMemory`], so the trace is
//! valid by construction and the final memory image is the
//! deterministic product of the kernel itself ([`unsync_isa::golden_run`]
//! over the emitted trace reproduces it exactly).
//!
//! Consequently the serializing fraction, instruction mix, store
//! intensity and branch mispredict rate reported for a kernel trace
//! (see `KERNEL_stats.json`) are **measurements of executed code**,
//! not profile assumptions.
//!
//! A kernel trace is truncated to exactly the requested length: the
//! kernel re-runs on fresh seed-derived inputs (new "invocations" of
//! the program) until the instruction budget is spent, like sampling a
//! fixed simulation window out of a longer execution. Each invocation
//! opens with a `Trap` (the read-input syscall) and closes with a
//! `MemBarrier` (flushing output), which is where the measured
//! serializing fraction comes from.
//!
//! Adding a new kernel means: add a variant to [`Kernel`], write one
//! `fn my_kernel_instance(&mut Emitter, &mut SplitMixStream, base)`
//! that interleaves the shadow computation with `Emitter` calls, and
//! dispatch to it from [`KernelSource::build_at`]. Everything
//! downstream — policies, goldens, spans, dashboards — consumes the
//! resulting [`TraceProgram`] unchanged.

use std::collections::BTreeMap;

use unsync_isa::{ArchMemory, ArchState, BranchInfo, Inst, MemInfo, OpClass, Reg, TraceProgram};

use crate::rng::SplitMixStream;
use crate::source::{WorkloadSource, DEFAULT_DATA_BASE};

/// The four MiBench kernels implemented as real-ISA programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Quicksort (Lomuto partition, explicit stack) over a word array.
    Qsort,
    /// Bitwise (table-less) CRC-32 over a byte buffer.
    Crc32,
    /// Dijkstra single-source shortest paths over a dense matrix.
    Dijkstra,
    /// Boyer–Moore–Horspool search of a pattern in a text buffer.
    Stringsearch,
}

impl Kernel {
    /// All kernels, in a fixed order.
    pub fn all() -> &'static [Kernel] {
        &[
            Kernel::Qsort,
            Kernel::Crc32,
            Kernel::Dijkstra,
            Kernel::Stringsearch,
        ]
    }

    /// Bare kernel name (`"qsort"`, …).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Qsort => "qsort",
            Kernel::Crc32 => "crc32",
            Kernel::Dijkstra => "dijkstra",
            Kernel::Stringsearch => "stringsearch",
        }
    }

    /// The `kernel:`-prefixed workload-spec name, distinguishing the
    /// executed kernel from the same-named synthetic profile.
    pub fn spec_name(self) -> &'static str {
        match self {
            Kernel::Qsort => "kernel:qsort",
            Kernel::Crc32 => "kernel:crc32",
            Kernel::Dijkstra => "kernel:dijkstra",
            Kernel::Stringsearch => "kernel:stringsearch",
        }
    }

    /// Looks a kernel up by bare name.
    pub(crate) fn from_name(name: &str) -> Option<Kernel> {
        Kernel::all().iter().copied().find(|k| k.name() == name)
    }

    /// Binds the kernel to a trace length and seed.
    pub fn source(self, length: u64, seed: u64) -> KernelSource {
        KernelSource::new(self, length, seed)
    }
}

/// The kernel backend of the [`WorkloadSource`] seam.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelSource {
    /// Which kernel to run.
    pub(crate) kernel: Kernel,
    /// Exact trace length in instructions.
    pub(crate) length: u64,
    /// Seed deriving the kernel's input data.
    pub(crate) seed: u64,
}

impl KernelSource {
    /// A source running `kernel` for exactly `length` instructions.
    pub(crate) fn new(kernel: Kernel, length: u64, seed: u64) -> Self {
        assert!(length > 0, "kernel traces must have at least 1 instruction");
        KernelSource {
            kernel,
            length,
            seed,
        }
    }

    /// Builds the trace *and* the final memory image the kernel's
    /// execution leaves behind (identical to
    /// [`unsync_isa::golden_run`] over the returned trace).
    pub(crate) fn build_at(&self, data_base: u64) -> (TraceProgram, ArchMemory) {
        let base = data_base & !63;
        let code_base = 0x0040_0000 + (self.kernel as u64) * 0x0002_0000;
        let mut e = Emitter::new(self.length as usize, code_base);
        let mut invocation = 0u64;
        while !e.full() {
            let mut rng = SplitMixStream::new(
                self.seed
                    ^ invocation.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    ^ (self.kernel as u64).wrapping_mul(0x6c62_272e_07bb_0142),
            );
            match self.kernel {
                Kernel::Qsort => qsort_instance(&mut e, &mut rng, base, self.qsort_n()),
                Kernel::Crc32 => crc32_instance(&mut e, &mut rng, base, self.crc32_bytes()),
                Kernel::Dijkstra => dijkstra_instance(&mut e, &mut rng, base, self.dijkstra_n()),
                Kernel::Stringsearch => {
                    stringsearch_instance(&mut e, &mut rng, base, self.text_len())
                }
            }
            invocation += 1;
        }
        (TraceProgram::new(e.insts), e.mem)
    }

    /// Builds trace + final memory at the default data base.
    pub fn build(&self) -> (TraceProgram, ArchMemory) {
        self.build_at(DEFAULT_DATA_BASE)
    }

    /// Problem sizes scale with the instruction budget so one
    /// invocation fills a healthy fraction of the trace without
    /// overflowing tiny budgets.
    fn qsort_n(&self) -> usize {
        (self.length / 40).clamp(16, 1024) as usize
    }

    fn crc32_bytes(&self) -> usize {
        (self.length / 42).clamp(8, 4096) as usize
    }

    fn dijkstra_n(&self) -> usize {
        isqrt(self.length / 9).clamp(6, 64) as usize
    }

    fn text_len(&self) -> usize {
        (self.length / 5).clamp(48, 8192) as usize
    }
}

impl WorkloadSource for KernelSource {
    fn name(&self) -> &'static str {
        self.kernel.spec_name()
    }

    fn length(&self) -> u64 {
        self.length
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn trace_at(&self, data_base: u64) -> TraceProgram {
        self.build_at(data_base).0
    }
}

/// Integer square root (monotone bisection; deterministic everywhere).
fn isqrt(x: u64) -> u64 {
    if x < 2 {
        return x;
    }
    let mut lo = 1u64;
    let mut hi = x.min(u32::MAX as u64);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if mid.checked_mul(mid).is_some_and(|sq| sq <= x) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

// Fixed register roles shared by the kernels: scratch values v0–v4,
// a temp, an accumulator, and the address/index/constant registers a
// compiler would pin across a hot loop. r31 is the zero register.
fn v0() -> Reg {
    Reg::int(1)
}
fn v1() -> Reg {
    Reg::int(2)
}
fn v2() -> Reg {
    Reg::int(3)
}
fn v3() -> Reg {
    Reg::int(4)
}
fn v4() -> Reg {
    Reg::int(5)
}
fn tmp() -> Reg {
    Reg::int(6)
}
fn acc() -> Reg {
    Reg::int(7)
}
fn rbase() -> Reg {
    Reg::int(8)
}
fn ri() -> Reg {
    Reg::int(9)
}
fn rj() -> Reg {
    Reg::int(10)
}
fn rk() -> Reg {
    Reg::int(11)
}
fn rlen() -> Reg {
    Reg::int(12)
}
fn rone() -> Reg {
    Reg::int(13)
}
fn rpoly() -> Reg {
    Reg::int(14)
}

// Static branch-site ids (predictor keys), unique per kernel loop.
const S_QFILL: u32 = 0;
const S_QCMP: u32 = 1;
const S_QPART: u32 = 2;
const S_CFILL: u32 = 10;
const S_CLSB: u32 = 13;
const S_CBIT: u32 = 11;
const S_CBYTE: u32 = 12;
const S_DINIT: u32 = 20;
const S_DMIN: u32 = 21;
const S_DSCAN: u32 = 22;
const S_DRELAX: u32 = 23;
const S_DRLOOP: u32 = 24;
const S_SFILL: u32 = 30;
const S_STAB: u32 = 31;
const S_SPAT: u32 = 32;
const S_SCMP: u32 = 33;
const S_SCMPL: u32 = 34;
const S_SSCAN: u32 = 35;

/// Builds the trace while executing it: every emitted [`Inst`] runs
/// through [`ArchState::execute`] immediately, so `pc` follows the
/// architectural next-pc rule (taken branches jump, everything else
/// falls through) and `mem` is the kernel's real output image.
///
/// Once the instruction budget is spent every emit call becomes a
/// no-op, letting the shadow algorithm run to completion cheaply.
struct Emitter {
    insts: Vec<Inst>,
    target: usize,
    state: ArchState,
    mem: ArchMemory,
    pc: u64,
    /// 2-bit saturating counters per static branch site, initialized
    /// weakly-taken — the same shape as a minimal bimodal predictor.
    predictor: BTreeMap<u32, u8>,
}

impl Emitter {
    fn new(target: usize, code_base: u64) -> Self {
        Emitter {
            insts: Vec::with_capacity(target),
            target,
            state: ArchState::new(),
            mem: ArchMemory::new(),
            pc: code_base,
            predictor: BTreeMap::new(),
        }
    }

    fn full(&self) -> bool {
        self.insts.len() >= self.target
    }

    /// Current pc — the address the next emitted instruction gets;
    /// kernels record loop tops with this.
    fn here(&self) -> u64 {
        self.pc
    }

    fn push(&mut self, b: unsync_isa::InstBuilder) {
        if self.full() {
            return;
        }
        let inst = b.seq(self.insts.len() as u64).pc(self.pc).finish();
        self.state.execute(&inst, &mut self.mem);
        self.pc = if let Some(br) = inst.branch {
            if br.taken {
                br.target
            } else {
                inst.pc + 4
            }
        } else {
            inst.pc + 4
        };
        self.insts.push(inst);
    }

    fn alu(&mut self, dest: Reg, a: Reg, b: Reg) {
        self.push(Inst::build(OpClass::IntAlu).dest(dest).src0(a).src1(b));
    }

    fn load(&mut self, dest: Reg, addr: u64) {
        self.push(
            Inst::build(OpClass::Load)
                .dest(dest)
                .src0(rbase())
                .mem(MemInfo::dword(addr)),
        );
    }

    fn store(&mut self, val: Reg, addr: u64) {
        self.push(
            Inst::build(OpClass::Store)
                .src0(val)
                .src1(rbase())
                .mem(MemInfo::dword(addr)),
        );
    }

    fn trap(&mut self) {
        self.push(Inst::build(OpClass::Trap));
    }

    fn barrier(&mut self) {
        self.push(Inst::build(OpClass::MemBarrier));
    }

    fn branch(&mut self, site: u32, taken: bool, target: u64, a: Reg, b: Reg) {
        if self.full() {
            return;
        }
        let ctr = self.predictor.entry(site).or_insert(2);
        let predicted = *ctr >= 2;
        *ctr = if taken {
            (*ctr + 1).min(3)
        } else {
            ctr.saturating_sub(1)
        };
        self.push(
            Inst::build(OpClass::Branch)
                .src0(a)
                .src1(b)
                .branch(BranchInfo {
                    taken,
                    mispredicted: predicted != taken,
                    target,
                }),
        );
    }

    /// Loop bottom: branch back to `top` while `again` holds.
    fn loop_branch(&mut self, site: u32, again: bool, top: u64, a: Reg, b: Reg) {
        self.branch(site, again, top, a, b);
    }

    /// Forward branch over a `skipped`-instruction block ("branch if
    /// condition fails, else fall through into the block"). Taken and
    /// not-taken paths rejoin at the same pc, so loop bodies keep a
    /// static layout across iterations.
    fn skip_branch(&mut self, site: u32, skip: bool, skipped: u64, a: Reg, b: Reg) {
        let target = self.pc + 4 * (skipped + 1);
        self.branch(site, skip, target, a, b);
    }

    /// Forward taken-or-not exit branch (inner-loop early out); the
    /// taken target is a synthetic forward address.
    fn exit_branch(&mut self, site: u32, taken: bool, a: Reg, b: Reg) {
        let target = self.pc + 64;
        self.branch(site, taken, target, a, b);
    }
}

/// Quicksort: fill the array from "input", sort with Lomuto-partition
/// quicksort on an explicit stack, every compare/swap hitting memory.
fn qsort_instance(e: &mut Emitter, rng: &mut SplitMixStream, base: u64, n: usize) {
    e.trap();
    let mut data: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
    let at = |i: usize| base + 8 * i as u64;
    let fill_top = e.here();
    for i in 0..n {
        e.alu(v0(), acc(), v0());
        e.store(v0(), at(i));
        e.loop_branch(S_QFILL, i + 1 < n, fill_top, ri(), rlen());
        if e.full() {
            return;
        }
    }
    let mut stack = vec![(0usize, n - 1)];
    while let Some((lo, hi)) = stack.pop() {
        if e.full() {
            return;
        }
        if lo >= hi {
            continue;
        }
        let pivot = data[hi];
        e.load(v1(), at(hi));
        let mut i = lo;
        let part_top = e.here();
        for j in lo..hi {
            e.load(v2(), at(j));
            let swap = data[j] < pivot;
            // Branch-if-ge over the 4-instruction swap block.
            e.skip_branch(S_QCMP, !swap, 4, v2(), v1());
            if swap {
                e.load(v3(), at(i));
                e.store(v2(), at(i));
                e.store(v3(), at(j));
                e.alu(ri(), ri(), rone());
                data.swap(i, j);
                i += 1;
            }
            e.loop_branch(S_QPART, j + 1 < hi, part_top, rj(), rlen());
            if e.full() {
                return;
            }
        }
        e.load(v3(), at(i));
        e.store(v1(), at(i));
        e.store(v3(), at(hi));
        data.swap(i, hi);
        if i > lo {
            stack.push((lo, i - 1));
        }
        if i + 1 < hi {
            stack.push((i + 1, hi));
        }
    }
    debug_assert!(data.windows(2).all(|w| w[0] <= w[1]), "quicksort bug");
    e.barrier();
}

/// Bitwise CRC-32 (poly 0xEDB88320): per input byte, eight shift
/// rounds whose xor is guarded by the data-dependent low bit — the
/// classic hard-to-predict branch pattern.
fn crc32_instance(e: &mut Emitter, rng: &mut SplitMixStream, base: u64, m: usize) {
    e.trap();
    let data: Vec<u8> = (0..m).map(|_| rng.next_u64() as u8).collect();
    let mut crc: u32 = 0xFFFF_FFFF;
    let fill_top = e.here();
    for i in 0..m {
        e.alu(v0(), acc(), v0());
        e.store(v0(), base + 8 * i as u64);
        e.loop_branch(S_CFILL, i + 1 < m, fill_top, ri(), rlen());
        if e.full() {
            return;
        }
    }
    let byte_top = e.here();
    for (i, &byte) in data.iter().enumerate() {
        e.load(v0(), base + 8 * i as u64);
        e.alu(acc(), acc(), v0());
        crc ^= byte as u32;
        let bit_top = e.here();
        for k in 0..8 {
            let lsb = crc & 1 == 1;
            crc >>= 1;
            e.alu(tmp(), acc(), rone());
            e.skip_branch(S_CLSB, !lsb, 1, tmp(), Reg::ZERO);
            if lsb {
                crc ^= 0xEDB8_8320;
                e.alu(acc(), acc(), rpoly());
            }
            e.alu(acc(), acc(), rone());
            e.loop_branch(S_CBIT, k + 1 < 8, bit_top, rk(), rone());
        }
        e.loop_branch(S_CBYTE, i + 1 < m, byte_top, ri(), rlen());
        if e.full() {
            return;
        }
    }
    e.store(acc(), base + 8 * m as u64);
    e.barrier();
}

/// Dijkstra over a dense `n × n` weight matrix: per round, a linear
/// min-scan over `dist[]`, then a relax pass loading the adjacency
/// row and conditionally storing improved distances.
fn dijkstra_instance(e: &mut Emitter, rng: &mut SplitMixStream, base: u64, n: usize) {
    e.trap();
    let inf = u64::MAX / 4;
    let adj: Vec<u64> = (0..n * n).map(|_| rng.below(100) + 1).collect();
    let dist_base = base + 8 * (n * n) as u64;
    let visited_base = dist_base + 8 * n as u64;
    let mut dist = vec![inf; n];
    dist[0] = 0;
    let mut visited = vec![false; n];
    let init_top = e.here();
    for var in 0..n {
        e.alu(v0(), acc(), rone());
        e.store(v0(), dist_base + 8 * var as u64);
        e.loop_branch(S_DINIT, var + 1 < n, init_top, ri(), rlen());
        if e.full() {
            return;
        }
    }
    for _round in 0..n {
        if e.full() {
            return;
        }
        let mut u = usize::MAX;
        let mut best = inf;
        let scan_top = e.here();
        for var in 0..n {
            e.load(v1(), dist_base + 8 * var as u64);
            let better = !visited[var] && dist[var] < best;
            e.skip_branch(S_DMIN, !better, 1, v1(), v2());
            if better {
                best = dist[var];
                u = var;
                e.alu(v2(), v1(), rone());
            }
            e.loop_branch(S_DSCAN, var + 1 < n, scan_top, ri(), rlen());
        }
        if u == usize::MAX {
            break;
        }
        visited[u] = true;
        e.store(v2(), visited_base + 8 * u as u64);
        let relax_top = e.here();
        for var in 0..n {
            e.load(v3(), base + 8 * (u * n + var) as u64);
            e.load(v4(), dist_base + 8 * var as u64);
            e.alu(tmp(), v2(), v3());
            let cand = dist[u].saturating_add(adj[u * n + var]);
            let improve = !visited[var] && cand < dist[var];
            e.skip_branch(S_DRELAX, !improve, 1, tmp(), v4());
            if improve {
                dist[var] = cand;
                e.store(tmp(), dist_base + 8 * var as u64);
            }
            e.loop_branch(S_DRLOOP, var + 1 < n, relax_top, rj(), rlen());
            if e.full() {
                return;
            }
        }
    }
    e.barrier();
}

/// Boyer–Moore–Horspool search over a 16-letter text with a few
/// planted pattern occurrences: skip-table build, then a scan whose
/// inner compare loop exits on the first (data-dependent) mismatch.
fn stringsearch_instance(e: &mut Emitter, rng: &mut SplitMixStream, base: u64, t_len: usize) {
    const ALPHABET: usize = 16;
    e.trap();
    let p_len = 4 + rng.below(4) as usize;
    let pattern: Vec<u8> = (0..p_len)
        .map(|_| rng.below(ALPHABET as u64) as u8)
        .collect();
    let mut text: Vec<u8> = (0..t_len)
        .map(|_| rng.below(ALPHABET as u64) as u8)
        .collect();
    for _ in 0..(t_len / 64).max(1) {
        if t_len > p_len {
            let plant = rng.below((t_len - p_len) as u64) as usize;
            text[plant..plant + p_len].copy_from_slice(&pattern);
        }
    }
    let skip_base = base + 8 * t_len as u64;
    let pat_base = skip_base + 8 * ALPHABET as u64;
    let fill_top = e.here();
    for i in 0..t_len {
        e.alu(v0(), acc(), v0());
        e.store(v0(), base + 8 * i as u64);
        e.loop_branch(S_SFILL, i + 1 < t_len, fill_top, ri(), rlen());
        if e.full() {
            return;
        }
    }
    let mut skip = [p_len as u64; ALPHABET];
    let tab_top = e.here();
    for c in 0..ALPHABET {
        e.alu(v1(), rlen(), rone());
        e.store(v1(), skip_base + 8 * c as u64);
        e.loop_branch(S_STAB, c + 1 < ALPHABET, tab_top, ri(), rlen());
    }
    let pat_top = e.here();
    for (idx, &c) in pattern[..p_len - 1].iter().enumerate() {
        skip[c as usize] = (p_len - 1 - idx) as u64;
        e.load(v1(), pat_base + 8 * idx as u64);
        e.store(v1(), skip_base + 8 * c as u64);
        e.loop_branch(S_SPAT, idx + 2 < p_len, pat_top, rk(), rlen());
    }
    let mut pos = 0usize;
    let mut found = 0u64;
    let scan_top = e.here();
    while pos + p_len <= t_len {
        if e.full() {
            return;
        }
        let mut k = p_len;
        let cmp_top = e.here();
        let mut matched = true;
        while k > 0 {
            e.load(v2(), base + 8 * (pos + k - 1) as u64);
            e.load(v3(), pat_base + 8 * (k - 1) as u64);
            let eq = text[pos + k - 1] == pattern[k - 1];
            e.exit_branch(S_SCMP, !eq, v2(), v3());
            if !eq {
                matched = false;
                break;
            }
            k -= 1;
            e.loop_branch(S_SCMPL, k > 0, cmp_top, rk(), rone());
        }
        if matched {
            found += 1;
            e.alu(acc(), acc(), rone());
        }
        let last = text[pos + p_len - 1] as usize;
        e.load(v4(), skip_base + 8 * last as u64);
        e.alu(ri(), ri(), v4());
        pos += skip[last] as usize;
        e.loop_branch(S_SSCAN, pos + p_len <= t_len, scan_top, ri(), rlen());
    }
    let _ = found;
    e.store(acc(), pat_base + 8 * p_len as u64);
    e.barrier();
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsync_isa::golden_run;

    #[test]
    fn kernels_hit_exact_length_and_are_deterministic() {
        for &k in Kernel::all() {
            for len in [1u64, 37, 2_000] {
                let src = KernelSource::new(k, len, 5);
                let (a, mem_a) = src.build();
                let (b, mem_b) = src.build();
                assert_eq!(a.len() as u64, len, "{k:?} trace length");
                assert_eq!(a, b, "{k:?} trace must be deterministic");
                assert_eq!(mem_a, mem_b, "{k:?} memory must be deterministic");
            }
        }
    }

    #[test]
    fn emitted_memory_matches_golden_run() {
        for &k in Kernel::all() {
            let (trace, mem) = KernelSource::new(k, 3_000, 11).build();
            let (_, golden) = golden_run(&trace);
            assert_eq!(mem, golden, "{k:?}: emitter executes what it emits");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = KernelSource::new(Kernel::Qsort, 2_000, 1).trace();
        let b = KernelSource::new(Kernel::Qsort, 2_000, 2).trace();
        assert_ne!(a, b);
    }

    #[test]
    fn relocation_moves_only_data_addresses() {
        let a = KernelSource::new(Kernel::Crc32, 2_000, 3).trace_at(0x1000_0000);
        let b = KernelSource::new(Kernel::Crc32, 2_000, 3).trace_at(0x9000_0000);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.insts().iter().zip(b.insts()) {
            assert_eq!(x.op, y.op);
            assert_eq!(x.branch, y.branch);
            match (x.mem, y.mem) {
                (Some(mx), Some(my)) => {
                    assert_eq!(mx.addr - 0x1000_0000, my.addr - 0x9000_0000);
                }
                (mx, my) => assert_eq!(mx, my),
            }
        }
    }

    #[test]
    fn measured_statistics_are_nontrivial() {
        for &k in Kernel::all() {
            let stats = KernelSource::new(k, 10_000, 1).trace().stats();
            assert!(
                stats.serializing_fraction() > 0.0,
                "{k:?} must trap for input"
            );
            assert!(stats.store_fraction() > 0.0, "{k:?} must store");
            assert!(
                stats.fraction(OpClass::Load) > 0.0,
                "{k:?} must load its data"
            );
            let mispredict = stats.mispredict_rate();
            assert!(
                mispredict > 0.0 && mispredict < 0.5,
                "{k:?} mispredict rate {mispredict} out of range"
            );
            assert!(stats.distinct_lines > 4, "{k:?} working set too small");
        }
    }

    #[test]
    fn crc_branches_are_hard_to_predict() {
        let s = KernelSource::new(Kernel::Crc32, 10_000, 1).trace().stats();
        let q = KernelSource::new(Kernel::Qsort, 10_000, 1).trace().stats();
        assert!(
            s.mispredict_rate() > q.mispredict_rate(),
            "data-dependent crc bits ({}) should out-mispredict qsort ({})",
            s.mispredict_rate(),
            q.mispredict_rate()
        );
    }

    #[test]
    fn name_round_trips() {
        for &k in Kernel::all() {
            assert_eq!(Kernel::from_name(k.name()), Some(k));
            assert!(k.spec_name().ends_with(k.name()));
        }
        assert_eq!(Kernel::from_name("gzip"), None);
    }
}
