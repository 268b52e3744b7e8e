//! The trace generator.

use std::collections::VecDeque;

use serde::Serialize;
use unsync_isa::{BranchInfo, Inst, InstStream, MemInfo, OpClass, Reg, TraceProgram};

use crate::profile::{Benchmark, BenchmarkProfile};
use crate::rng::SplitMixStream;

/// Base virtual address of the synthetic data segment.
const DATA_BASE: u64 = 0x1000_0000;
/// Base virtual address of the synthetic code segment.
const CODE_BASE: u64 = 0x0040_0000;
/// Number of static branch sites a program cycles through.
const BRANCH_SITES: u64 = 256;

/// A deterministic instruction-stream generator for one benchmark.
///
/// Implements [`InstStream`]; `reset` rewinds to an identical replay of
/// the same instructions, which is how the same "program" runs on both
/// cores of a redundant pair and on every architecture under comparison.
///
/// # Examples
///
/// ```
/// use unsync_workloads::{Benchmark, WorkloadGen};
///
/// let trace = WorkloadGen::new(Benchmark::Bzip2, 10_000, 1).collect_trace();
/// let stats = trace.stats();
/// // bzip2's defining statistic (Fig. 4): ~2 % serializing instructions.
/// assert!((stats.serializing_fraction() - 0.02).abs() < 0.005);
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct WorkloadGen {
    profile: BenchmarkProfile,
    length: u64,
    seed: u64,
    /// Base address of this process's data segment.
    data_base: u64,
    // --- replayable state ---
    rng: SplitMixStream,
    emitted: u64,
    pc: u64,
    recent_dests: VecDeque<Reg>,
    stream_line: u64,
}

impl WorkloadGen {
    /// A generator for `bench` yielding `length` instructions from `seed`.
    pub fn new(bench: Benchmark, length: u64, seed: u64) -> Self {
        Self::from_profile(bench.profile(), length, seed)
    }

    /// Like [`WorkloadGen::new`], but with the data segment at
    /// `data_base` — distinct bases model distinct processes (no shared
    /// lines), as needed by multi-pair system runs.
    pub fn new_at(bench: Benchmark, length: u64, seed: u64, data_base: u64) -> Self {
        let mut g = Self::from_profile(bench.profile(), length, seed);
        g.data_base = data_base & !63; // line-aligned
        g
    }

    /// A generator from an explicit profile (for sweeping single
    /// profile parameters).
    pub(crate) fn from_profile(profile: BenchmarkProfile, length: u64, seed: u64) -> Self {
        profile.validate().expect("profile must be valid");
        let mut g = WorkloadGen {
            profile,
            length,
            seed,
            data_base: DATA_BASE,
            rng: SplitMixStream::new(seed),
            emitted: 0,
            pc: CODE_BASE,
            recent_dests: VecDeque::new(),
            stream_line: 0,
        };
        g.reset();
        g
    }

    /// Materializes the whole trace.
    pub fn collect_trace(mut self) -> TraceProgram {
        TraceProgram::from_stream(&mut self)
    }

    fn pick_op(&mut self) -> OpClass {
        let p = &self.profile;
        let mut x = self.rng.next_f64();
        let mut table = [
            (OpClass::IntMul, p.frac_int_mul),
            (OpClass::IntDiv, p.frac_int_div),
            (OpClass::FpAlu, p.frac_fp_alu),
            (OpClass::FpMul, p.frac_fp_mul),
            (OpClass::FpDiv, p.frac_fp_div),
            (OpClass::Load, p.frac_load.min(0.6)),
            (OpClass::Store, p.frac_store.min(0.3)),
            (OpClass::Branch, p.frac_branch),
            (OpClass::Trap, p.frac_serializing / 2.0),
            (OpClass::MemBarrier, p.frac_serializing / 2.0),
        ];
        for (op, frac) in table.iter_mut() {
            if x < *frac {
                return *op;
            }
            x -= *frac;
        }
        OpClass::IntAlu
    }

    /// Picks a source register: with probability `dep_locality` one of the
    /// recent destinations (dependency chain), otherwise a uniformly
    /// random live register of the right bank.
    fn pick_src(&mut self, fp: bool) -> Reg {
        if !self.recent_dests.is_empty() && self.rng.chance(self.profile.dep_locality) {
            let idx = self.rng.below(self.recent_dests.len() as u64) as usize;
            return self.recent_dests[idx];
        }
        if fp {
            Reg::fp(self.rng.below(32) as u8)
        } else {
            // r31 is the zero register; keep sources in r0..r30.
            Reg::int(self.rng.below(31) as u8)
        }
    }

    /// Picks the *address* register of a load/store. Unlike data operands,
    /// address computations usually hang off long-settled induction
    /// variables; only pointer-chasing codes (mcf) make addresses depend
    /// on just-loaded values, which is what destroys memory-level
    /// parallelism.
    fn pick_addr_src(&mut self) -> Reg {
        if !self.recent_dests.is_empty() && self.rng.chance(self.profile.pointer_chase) {
            let idx = self.rng.below(self.recent_dests.len() as u64) as usize;
            return self.recent_dests[idx];
        }
        Reg::int(self.rng.below(31) as u8)
    }

    fn pick_dest(&mut self, fp: bool) -> Reg {
        let d = if fp {
            Reg::fp(self.rng.below(32) as u8)
        } else {
            Reg::int(self.rng.below(31) as u8)
        };
        self.recent_dests.push_back(d);
        while self.recent_dests.len() > self.profile.chain_window as usize {
            self.recent_dests.pop_front();
        }
        d
    }

    /// Next data address: continues the sequential stream with probability
    /// `spatial_locality`, otherwise jumps to a random line of the
    /// working set. Addresses are 8-byte aligned.
    fn pick_addr(&mut self) -> u64 {
        if self.rng.chance(self.profile.spatial_locality) {
            // Advance within the stream by one word; wrap at the working
            // set so footprints stay bounded.
            self.stream_line = (self.stream_line + 1) % (self.profile.ws_lines * 8);
        } else if self.rng.chance(self.profile.hot_fraction) {
            // Temporal locality: jump within the cache-resident hot region.
            let hot_words = self.profile.ws_lines.min(128) * 8;
            self.stream_line = self.rng.below(hot_words);
        } else {
            self.stream_line = self.rng.below(self.profile.ws_lines * 8);
        }
        self.data_base + self.stream_line * 8
    }
}

impl InstStream for WorkloadGen {
    fn next_inst(&mut self) -> Option<Inst> {
        if self.emitted >= self.length {
            return None;
        }
        let seq = self.emitted;
        let pc = self.pc;
        let op = self.pick_op();
        let fp = op.is_fp();
        let mut b = Inst::build(op).seq(seq).pc(pc);
        match op {
            OpClass::Load => {
                let addr = self.pick_addr();
                b = b
                    .src0(self.pick_addr_src())
                    .dest(self.pick_dest(fp))
                    .mem(MemInfo::dword(addr));
            }
            OpClass::Store => {
                let addr = self.pick_addr();
                b = b
                    .src0(self.pick_addr_src())
                    .src1(self.pick_src(false))
                    .mem(MemInfo::dword(addr));
            }
            OpClass::Branch => {
                // Real programs revisit a bounded set of static branch
                // sites, most of them strongly biased (loop back-edges,
                // error checks). Model each dynamic branch as one of
                // BRANCH_SITES sites with a per-site bias; the annotated
                // misprediction flag still follows the profile's rate
                // (the calibrated front-end model), while the site/bias
                // structure is what a *live* predictor keys on.
                let site = self.rng.below(BRANCH_SITES);
                let site_pc = CODE_BASE + site * 4;
                let h = unsync_isa::exec::splitmix64(self.seed ^ site.wrapping_mul(0x9e37));
                let bias = match h % 10 {
                    0..=5 => 0.95, // loop back-edges: almost always taken
                    6..=8 => 0.05, // guards: almost never taken
                    _ => 0.55,     // data-dependent branches
                };
                let taken = self.rng.chance(bias);
                let mispredicted = self.rng.chance(self.profile.mispredict_rate);
                let target = CODE_BASE + self.rng.below(1 << 16) * 4;
                b = b.pc(site_pc).src0(self.pick_src(false)).branch(BranchInfo {
                    taken,
                    mispredicted,
                    target,
                });
            }
            OpClass::Trap | OpClass::MemBarrier | OpClass::Nop => {}
            _ => {
                // Register-to-register compute.
                b = b
                    .src0(self.pick_src(fp))
                    .src1(self.pick_src(fp))
                    .dest(self.pick_dest(fp));
            }
        }
        let inst = b.finish();
        self.pc = match inst.branch {
            Some(br) if br.taken => br.target,
            // Non-branch flow (and not-taken branches) continue from the
            // sequential counter; branch instructions themselves carry
            // their static site pc.
            _ => pc.wrapping_add(4),
        };
        self.emitted += 1;
        Some(inst)
    }

    fn reset(&mut self) {
        self.rng = SplitMixStream::new(self.seed);
        self.emitted = 0;
        self.pc = CODE_BASE;
        self.recent_dests.clear();
        // Start the stream at a deterministic pseudo-random line so that
        // different seeds explore different parts of the working set.
        self.stream_line = SplitMixStream::new(self.seed ^ 0x5151).below(self.profile.ws_lines * 8);
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.length)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsync_isa::OpClass;

    const N: u64 = 40_000;

    #[test]
    fn generation_is_deterministic() {
        let a = WorkloadGen::new(Benchmark::Bzip2, 1000, 7).collect_trace();
        let b = WorkloadGen::new(Benchmark::Bzip2, 1000, 7).collect_trace();
        assert_eq!(a.insts(), b.insts());
        let c = WorkloadGen::new(Benchmark::Bzip2, 1000, 8).collect_trace();
        assert_ne!(a.insts(), c.insts());
    }

    #[test]
    fn reset_replays_identically() {
        let mut g = WorkloadGen::new(Benchmark::Ammp, 500, 3);
        let first: Vec<_> = std::iter::from_fn(|| g.next_inst()).collect();
        g.reset();
        let second: Vec<_> = std::iter::from_fn(|| g.next_inst()).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn trace_length_and_density() {
        let t = WorkloadGen::new(Benchmark::Gzip, 1234, 1).collect_trace();
        assert_eq!(t.len(), 1234);
        // TraceProgram::new would have panicked on non-dense seq numbers.
    }

    #[test]
    fn serializing_fraction_matches_profile() {
        for b in [
            Benchmark::Bzip2,
            Benchmark::Ammp,
            Benchmark::Galgel,
            Benchmark::Sha,
        ] {
            let stats = WorkloadGen::new(b, N, 11).collect_trace().stats();
            let want = b.profile().frac_serializing;
            let got = stats.serializing_fraction();
            assert!(
                (got - want).abs() < 0.004,
                "{}: wanted {want}, got {got}",
                b.name()
            );
        }
    }

    #[test]
    fn store_fraction_matches_profile() {
        for b in [Benchmark::Qsort, Benchmark::Bitcount, Benchmark::Rijndael] {
            let stats = WorkloadGen::new(b, N, 13).collect_trace().stats();
            let want = b.profile().frac_store;
            let got = stats.store_fraction();
            assert!(
                (got - want).abs() < 0.01,
                "{}: wanted {want}, got {got}",
                b.name()
            );
        }
    }

    #[test]
    fn mispredict_rate_matches_profile() {
        let b = Benchmark::Parser;
        let stats = WorkloadGen::new(b, N, 17).collect_trace().stats();
        let got = stats.mispredict_rate();
        let want = b.profile().mispredict_rate;
        assert!((got - want).abs() < 0.02, "wanted {want}, got {got}");
    }

    #[test]
    fn working_set_is_respected() {
        let b = Benchmark::Sha; // 256-line working set
        let t = WorkloadGen::new(b, N, 19).collect_trace();
        let stats = t.stats();
        assert!(
            stats.distinct_lines <= 256 * 8 / 8 + 1,
            "lines {}",
            stats.distinct_lines
        );
        // All addresses inside the data segment.
        for i in t.insts() {
            if let Some(m) = i.mem {
                assert!(m.addr >= DATA_BASE);
                assert!(m.addr < DATA_BASE + b.profile().ws_lines * 64);
            }
        }
    }

    #[test]
    fn fp_workloads_emit_fp_ops() {
        let stats = WorkloadGen::new(Benchmark::Galgel, N, 23)
            .collect_trace()
            .stats();
        let fp_frac = stats.fraction(OpClass::FpAlu)
            + stats.fraction(OpClass::FpMul)
            + stats.fraction(OpClass::FpDiv);
        assert!(fp_frac > 0.35, "galgel fp fraction {fp_frac}");
        let int_stats = WorkloadGen::new(Benchmark::Bzip2, N, 23)
            .collect_trace()
            .stats();
        assert_eq!(int_stats.count(OpClass::FpAlu), 0);
    }

    #[test]
    fn taken_branches_redirect_pc_consistently() {
        let t = WorkloadGen::new(Benchmark::Parser, 2000, 29).collect_trace();
        for w in t.insts().windows(2) {
            let (a, b) = (&w[0], &w[1]);
            // Branch instructions carry their static *site* pc, so pc
            // continuity is only checked between non-branch neighbours.
            if b.op.is_branch() {
                continue;
            }
            if let Some(br) = a.branch {
                if br.taken {
                    assert_eq!(b.pc, br.target);
                }
                // Not-taken branches resume the sequential stream from
                // the generator's internal counter.
            } else {
                assert_eq!(b.pc, a.pc.wrapping_add(4));
            }
        }
    }

    #[test]
    fn branches_reuse_a_bounded_set_of_static_sites() {
        let t = WorkloadGen::new(Benchmark::Parser, 40_000, 29).collect_trace();
        let sites: std::collections::BTreeSet<u64> = t
            .insts()
            .iter()
            .filter(|i| i.op.is_branch())
            .map(|i| i.pc)
            .collect();
        assert!(sites.len() <= 256, "{} sites", sites.len());
        assert!(sites.len() > 100, "{} sites", sites.len());
    }

    #[test]
    fn every_benchmark_generates_valid_traces() {
        for &b in Benchmark::all() {
            let t = WorkloadGen::new(b, 2000, 31).collect_trace();
            assert_eq!(t.len(), 2000, "{}", b.name());
            for i in t.insts() {
                i.validate().unwrap_or_else(|e| panic!("{}: {e}", b.name()));
            }
        }
    }

    #[test]
    fn distinct_data_bases_give_disjoint_footprints() {
        let a = WorkloadGen::new_at(Benchmark::Sha, 2_000, 1, 0x1000_0000).collect_trace();
        let b = WorkloadGen::new_at(Benchmark::Sha, 2_000, 1, 0x9000_0000).collect_trace();
        let lines = |t: &unsync_isa::TraceProgram| {
            t.insts()
                .iter()
                .filter_map(|i| i.mem.map(|m| m.addr >> 6))
                .collect::<std::collections::BTreeSet<_>>()
        };
        assert!(lines(&a).is_disjoint(&lines(&b)));
        // Same seed, same relative behaviour: identical op sequences.
        for (x, y) in a.insts().iter().zip(b.insts()) {
            assert_eq!(x.op, y.op);
        }
    }

    #[test]
    fn mcf_misses_more_than_sha_would() {
        // Distinct-lines proxy: mcf's random accesses over a huge working
        // set touch far more lines than sha's streaming over 256.
        let mcf = WorkloadGen::new(Benchmark::Mcf, N, 37)
            .collect_trace()
            .stats();
        let sha = WorkloadGen::new(Benchmark::Sha, N, 37)
            .collect_trace()
            .stats();
        assert!(mcf.distinct_lines > 10 * sha.distinct_lines);
    }
}
