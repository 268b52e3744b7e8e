//! Per-benchmark statistical profiles.
//!
//! Each named SPEC2000 / MiBench program is characterized by the trace
//! statistics the paper's evaluation depends on. Fractions that the paper
//! states explicitly (the serializing-instruction fractions of Fig. 4:
//! bzip2 2 %, ammp 1.7 %, galgel 1 %) are used verbatim; the remaining
//! parameters follow the well-known character of each program (mcf is a
//! pointer-chasing cache thrasher, galgel a high-ILP dense-FP kernel,
//! MiBench kernels are small-footprint integer codes, …).

use serde::{Deserialize, Serialize};

/// Which suite a benchmark belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum Suite {
    /// SPEC CPU2000.
    Spec2000,
    /// MiBench embedded suite.
    MiBench,
}

/// Statistical profile of one benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BenchmarkProfile {
    /// Program name (paper spelling).
    pub(crate) name: &'static str,
    /// Source suite.
    pub(crate) suite: Suite,
    /// Fraction of integer multiplies.
    pub(crate) frac_int_mul: f64,
    /// Fraction of integer divides.
    pub(crate) frac_int_div: f64,
    /// Fraction of FP add/sub.
    pub frac_fp_alu: f64,
    /// Fraction of FP multiplies.
    pub frac_fp_mul: f64,
    /// Fraction of FP divides.
    pub frac_fp_div: f64,
    /// Fraction of loads.
    pub frac_load: f64,
    /// Fraction of stores.
    pub frac_store: f64,
    /// Fraction of branches.
    pub frac_branch: f64,
    /// Fraction of serializing instructions (traps + memory barriers) —
    /// the Fig. 4 statistic.
    pub frac_serializing: f64,
    /// Probability that an operand comes from a recently produced result
    /// (dependency-chain density; high values serialize execution and
    /// keep the ROB full).
    pub(crate) dep_locality: f64,
    /// How far back (in instructions) chained operands reach.
    pub(crate) chain_window: u32,
    /// Data working set in 64-byte lines.
    pub ws_lines: u64,
    /// Probability a memory access continues the current sequential
    /// stream (vs. jumping to a random line of the working set).
    pub(crate) spatial_locality: f64,
    /// Branch misprediction rate.
    pub mispredict_rate: f64,
    /// Probability a load/store *address* depends on a recently produced
    /// value (pointer chasing). High values destroy memory-level
    /// parallelism — mcf's defining trait.
    pub(crate) pointer_chase: f64,
    /// Probability a non-sequential access lands in the cache-resident
    /// *hot region* (the first 128 lines of the working set) instead of a
    /// uniformly random line. Models temporal locality: real programs
    /// re-touch a small hot set far more often than an LRU-hostile
    /// uniform sweep would.
    pub(crate) hot_fraction: f64,
}

impl BenchmarkProfile {
    /// Fraction of plain integer-ALU instructions (the remainder of the
    /// mix).
    pub(crate) fn frac_int_alu(&self) -> f64 {
        1.0 - (self.frac_int_mul
            + self.frac_int_div
            + self.frac_fp_alu
            + self.frac_fp_mul
            + self.frac_fp_div
            + self.frac_load
            + self.frac_store
            + self.frac_branch
            + self.frac_serializing)
    }

    /// Validates that the mix is a proper distribution.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let rem = self.frac_int_alu();
        if rem < 0.0 {
            return Err(format!(
                "{}: mix sums past 1.0 (remainder {rem})",
                self.name
            ));
        }
        for (label, v) in [
            ("int_mul", self.frac_int_mul),
            ("int_div", self.frac_int_div),
            ("fp_alu", self.frac_fp_alu),
            ("fp_mul", self.frac_fp_mul),
            ("fp_div", self.frac_fp_div),
            ("load", self.frac_load),
            ("store", self.frac_store),
            ("branch", self.frac_branch),
            ("serializing", self.frac_serializing),
            ("dep_locality", self.dep_locality),
            ("spatial", self.spatial_locality),
            ("mispredict", self.mispredict_rate),
            ("pointer_chase", self.pointer_chase),
            ("hot_fraction", self.hot_fraction),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{}: {label} = {v} out of [0,1]", self.name));
            }
        }
        if self.ws_lines == 0 || self.chain_window == 0 {
            return Err(format!("{}: zero working set or chain window", self.name));
        }
        Ok(())
    }
}

macro_rules! benchmarks {
    ($( $variant:ident => $profile:expr ),+ $(,)?) => {
        /// A named benchmark from the paper's evaluation.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
        pub enum Benchmark {
            $(
                #[doc = concat!("The `", stringify!($variant), "` workload.")]
                $variant,
            )+
        }

        impl Benchmark {
            /// Every modelled benchmark, SPEC2000 first.
            pub fn all() -> &'static [Benchmark] {
                &[$(Benchmark::$variant),+]
            }

            /// The benchmark's statistical profile.
            pub fn profile(self) -> BenchmarkProfile {
                match self {
                    $(Benchmark::$variant => $profile),+
                }
            }
        }
    };
}

/// Shorthand constructor keeping the table below readable.
#[allow(clippy::too_many_arguments)]
const fn p(
    name: &'static str,
    suite: Suite,
    fp: (f64, f64, f64),    // fp_alu, fp_mul, fp_div
    int_muldiv: (f64, f64), // int_mul, int_div
    mem: (f64, f64),        // load, store
    branch: (f64, f64),     // fraction, mispredict rate
    serializing: f64,
    deps: (f64, u32), // locality, window
    ws: (u64, f64),   // lines, spatial locality
    pointer_chase: f64,
    hot_fraction: f64,
) -> BenchmarkProfile {
    BenchmarkProfile {
        name,
        suite,
        frac_int_mul: int_muldiv.0,
        frac_int_div: int_muldiv.1,
        frac_fp_alu: fp.0,
        frac_fp_mul: fp.1,
        frac_fp_div: fp.2,
        frac_load: mem.0,
        frac_store: mem.1,
        frac_branch: branch.0,
        frac_serializing: serializing,
        dep_locality: deps.0,
        chain_window: deps.1,
        ws_lines: ws.0,
        spatial_locality: ws.1,
        mispredict_rate: branch.1,
        pointer_chase,
        hot_fraction,
    }
}

use Suite::{MiBench, Spec2000};

benchmarks! {
    // ── SPEC2000 ────────────────────────────────────────────────────────
    // bzip2: integer compressor; the paper's highest serializing fraction
    // (2 % of dynamic instructions).
    Bzip2 => p("bzip2", Spec2000, (0.0, 0.0, 0.0), (0.01, 0.001),
               (0.24, 0.12), (0.14, 0.07), 0.020, (0.55, 16), (4096, 0.70), 0.10, 0.70),
    // gzip: lighter compressor, small working set.
    Gzip => p("gzip", Spec2000, (0.0, 0.0, 0.0), (0.008, 0.001),
              (0.22, 0.12), (0.15, 0.06), 0.003, (0.55, 16), (2048, 0.72), 0.10, 0.72),
    // mcf: pointer-chasing network-simplex code; thrashes the L2.
    Mcf => p("mcf", Spec2000, (0.0, 0.0, 0.0), (0.004, 0.001),
             (0.35, 0.09), (0.10, 0.08), 0.002, (0.60, 8), (131072, 0.25), 0.45, 0.35),
    // ammp: FP molecular dynamics; 1.7 % serializing (Fig. 4), dense
    // dependency chains that saturate the ROB (Fig. 5).
    Ammp => p("ammp", Spec2000, (0.20, 0.12, 0.005), (0.003, 0.0),
              (0.27, 0.09), (0.06, 0.02), 0.017, (0.60, 12), (2048, 0.75), 0.08, 0.85),
    // galgel: dense-FP fluid dynamics kernel; 1 % serializing, the
    // paper's worst ROB-occupancy victim — high-ILP, cache-resident.
    Galgel => p("galgel", Spec2000, (0.25, 0.15, 0.005), (0.002, 0.0),
                (0.24, 0.08), (0.04, 0.01), 0.010, (0.50, 16), (1024, 0.85), 0.05, 0.90),
    // equake: FP earthquake simulation, large sparse working set.
    Equake => p("equake", Spec2000, (0.18, 0.10, 0.01), (0.003, 0.0),
                (0.30, 0.08), (0.07, 0.03), 0.004, (0.65, 12), (65536, 0.60), 0.15, 0.50),
    // art: FP neural-net image recognition; streaming, memory bound.
    Art => p("art", Spec2000, (0.16, 0.10, 0.005), (0.002, 0.0),
             (0.32, 0.06), (0.08, 0.03), 0.002, (0.60, 12), (32768, 0.50), 0.12, 0.45),
    // vpr: FPGA place-and-route, mixed int/fp.
    Vpr => p("vpr", Spec2000, (0.06, 0.04, 0.005), (0.01, 0.002),
             (0.26, 0.10), (0.12, 0.07), 0.004, (0.60, 12), (8192, 0.55), 0.20, 0.60),
    // parser: English parser; branchy integer code.
    Parser => p("parser", Spec2000, (0.0, 0.0, 0.0), (0.006, 0.001),
                (0.25, 0.10), (0.18, 0.09), 0.005, (0.55, 16), (4096, 0.60), 0.25, 0.65),
    // twolf: placement/routing, pointer-heavy integer code.
    Twolf => p("twolf", Spec2000, (0.01, 0.005, 0.0), (0.012, 0.002),
               (0.27, 0.09), (0.13, 0.07), 0.003, (0.58, 12), (8192, 0.50), 0.30, 0.55),
    // gcc: compiler; branchy, moderate footprint, some traps (syscalls).
    Gcc => p("gcc", Spec2000, (0.0, 0.0, 0.0), (0.008, 0.001),
             (0.26, 0.11), (0.16, 0.08), 0.006, (0.55, 16), (16384, 0.55), 0.25, 0.65),
    // crafty: chess engine; bit-twiddling integer ALU with high ILP.
    Crafty => p("crafty", Spec2000, (0.0, 0.0, 0.0), (0.015, 0.001),
                (0.20, 0.07), (0.12, 0.06), 0.002, (0.45, 16), (2048, 0.70), 0.10, 0.85),
    // gap: group theory; allocation-heavy integer code.
    Gap => p("gap", Spec2000, (0.0, 0.0, 0.0), (0.01, 0.002),
             (0.27, 0.12), (0.12, 0.06), 0.004, (0.58, 14), (16384, 0.50), 0.25, 0.60),
    // vortex: object database; pointer-rich, store-heavy.
    Vortex => p("vortex", Spec2000, (0.0, 0.0, 0.0), (0.005, 0.001),
                (0.28, 0.14), (0.14, 0.06), 0.005, (0.55, 14), (16384, 0.55), 0.30, 0.60),
    // perlbmk: interpreter; very branchy, dispatch-table driven.
    Perlbmk => p("perlbmk", Spec2000, (0.0, 0.0, 0.0), (0.006, 0.001),
                 (0.26, 0.11), (0.19, 0.09), 0.006, (0.55, 14), (8192, 0.55), 0.22, 0.65),
    // eon: C++ ray tracer; fp-flavoured with virtual dispatch.
    Eon => p("eon", Spec2000, (0.10, 0.07, 0.01), (0.006, 0.001),
             (0.24, 0.10), (0.11, 0.05), 0.003, (0.60, 12), (4096, 0.65), 0.15, 0.75),
    // mesa: software GL; streaming fp over vertex arrays.
    Mesa => p("mesa", Spec2000, (0.16, 0.10, 0.01), (0.004, 0.0),
              (0.26, 0.10), (0.08, 0.03), 0.002, (0.60, 12), (8192, 0.75), 0.08, 0.75),
    // applu: fp PDE solver; dense loops, large working set.
    Applu => p("applu", Spec2000, (0.22, 0.13, 0.01), (0.002, 0.0),
               (0.27, 0.09), (0.04, 0.01), 0.002, (0.55, 14), (32768, 0.75), 0.05, 0.55),
    // mgrid: multigrid; extremely regular fp streaming.
    Mgrid => p("mgrid", Spec2000, (0.24, 0.14, 0.005), (0.002, 0.0),
               (0.30, 0.07), (0.03, 0.01), 0.001, (0.50, 16), (32768, 0.85), 0.04, 0.60),
    // swim: shallow-water model; bandwidth bound fp streaming.
    Swim => p("swim", Spec2000, (0.22, 0.12, 0.005), (0.002, 0.0),
              (0.32, 0.09), (0.03, 0.01), 0.001, (0.50, 16), (65536, 0.85), 0.04, 0.40),
    // wupwise: quantum chromodynamics; fp with dense linear algebra.
    Wupwise => p("wupwise", Spec2000, (0.23, 0.15, 0.005), (0.002, 0.0),
                 (0.26, 0.08), (0.04, 0.01), 0.001, (0.50, 16), (16384, 0.80), 0.05, 0.65),
    // apsi: meteorology; fp with moderate footprint.
    Apsi => p("apsi", Spec2000, (0.20, 0.12, 0.01), (0.003, 0.0),
              (0.26, 0.09), (0.06, 0.02), 0.003, (0.58, 12), (16384, 0.70), 0.08, 0.65),
    // ── MiBench ─────────────────────────────────────────────────────────
    // qsort: recursive sort; store-heavy (swap traffic).
    Qsort => p("qsort", MiBench, (0.0, 0.0, 0.0), (0.004, 0.001),
               (0.25, 0.15), (0.16, 0.08), 0.001, (0.55, 12), (1024, 0.55), 0.15, 0.75),
    // susan: image smoothing; streaming loads.
    Susan => p("susan", MiBench, (0.02, 0.02, 0.0), (0.02, 0.002),
               (0.30, 0.08), (0.10, 0.04), 0.001, (0.60, 12), (2048, 0.80), 0.05, 0.80),
    // dijkstra: graph shortest path; loads + branches.
    Dijkstra => p("dijkstra", MiBench, (0.0, 0.0, 0.0), (0.005, 0.001),
                  (0.30, 0.08), (0.12, 0.06), 0.001, (0.58, 12), (1024, 0.45), 0.30, 0.60),
    // sha: hash kernel; ALU/rotate dominated, tiny footprint.
    Sha => p("sha", MiBench, (0.0, 0.0, 0.0), (0.003, 0.0),
             (0.15, 0.05), (0.06, 0.02), 0.0005, (0.80, 8), (256, 0.90), 0.05, 0.95),
    // stringsearch: branchy byte scanning.
    Stringsearch => p("stringsearch", MiBench, (0.0, 0.0, 0.0), (0.002, 0.0),
                      (0.28, 0.04), (0.20, 0.10), 0.0005, (0.50, 16), (512, 0.75), 0.10, 0.85),
    // bitcount: pure ALU loop, almost no memory.
    Bitcount => p("bitcount", MiBench, (0.0, 0.0, 0.0), (0.01, 0.001),
                  (0.08, 0.03), (0.12, 0.03), 0.0005, (0.70, 8), (128, 0.90), 0.02, 0.95),
    // basicmath: scalar math with divides.
    Basicmath => p("basicmath", MiBench, (0.10, 0.06, 0.03), (0.02, 0.015),
                   (0.18, 0.07), (0.08, 0.04), 0.001, (0.70, 10), (256, 0.80), 0.05, 0.90),
    // fft: FP butterfly kernel.
    Fft => p("fft", MiBench, (0.20, 0.14, 0.01), (0.004, 0.0),
             (0.24, 0.10), (0.06, 0.02), 0.001, (0.75, 8), (1024, 0.70), 0.08, 0.80),
    // crc32: table-driven checksum; load + xor stream.
    Crc32 => p("crc32", MiBench, (0.0, 0.0, 0.0), (0.0, 0.0),
               (0.30, 0.04), (0.10, 0.02), 0.0005, (0.65, 8), (256, 0.85), 0.10, 0.90),
    // rijndael: AES; table loads and stores.
    Rijndael => p("rijndael", MiBench, (0.0, 0.0, 0.0), (0.006, 0.0),
                  (0.28, 0.14), (0.07, 0.03), 0.001, (0.68, 10), (512, 0.80), 0.08, 0.85),
    // blowfish: Feistel cipher; xor/rotate with S-box loads.
    Blowfish => p("blowfish", MiBench, (0.0, 0.0, 0.0), (0.004, 0.0),
                  (0.26, 0.10), (0.06, 0.02), 0.0008, (0.70, 10), (256, 0.85), 0.08, 0.90),
    // gsm: speech codec; fixed-point mul-heavy.
    Gsm => p("gsm", MiBench, (0.0, 0.0, 0.0), (0.08, 0.004),
             (0.22, 0.08), (0.09, 0.04), 0.001, (0.65, 10), (512, 0.80), 0.08, 0.85),
    // adpcm: tiny codec; almost pure ALU streaming.
    Adpcm => p("adpcm", MiBench, (0.0, 0.0, 0.0), (0.004, 0.0),
               (0.18, 0.06), (0.10, 0.03), 0.0005, (0.75, 8), (128, 0.92), 0.05, 0.95),
    // patricia: trie lookups; pointer chasing over a modest trie.
    Patricia => p("patricia", MiBench, (0.0, 0.0, 0.0), (0.003, 0.0),
                  (0.31, 0.07), (0.13, 0.07), 0.001, (0.55, 12), (2048, 0.40), 0.40, 0.60),
    // jpeg: DCT codec; int mul blocks + streaming.
    Jpeg => p("jpeg", MiBench, (0.0, 0.0, 0.0), (0.06, 0.002),
              (0.26, 0.10), (0.08, 0.04), 0.001, (0.62, 12), (2048, 0.80), 0.08, 0.80),
    // lame: mp3 encoder; fp transform heavy.
    Lame => p("lame", MiBench, (0.18, 0.12, 0.01), (0.01, 0.001),
              (0.24, 0.09), (0.07, 0.03), 0.002, (0.62, 12), (4096, 0.75), 0.08, 0.75),
}

impl Benchmark {
    /// The benchmark's display name (paper spelling).
    pub fn name(self) -> &'static str {
        self.profile().name
    }

    /// The three benchmarks Fig. 4 singles out for >10 % Reunion
    /// serialization overhead.
    pub fn serializing_heavy() -> [Benchmark; 3] {
        [Benchmark::Bzip2, Benchmark::Ammp, Benchmark::Galgel]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_profile_validates() {
        for b in Benchmark::all() {
            b.profile().validate().unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn full_roster_is_present() {
        assert_eq!(Benchmark::all().len(), 38);
        let in_suite = |suite| {
            Benchmark::all()
                .iter()
                .filter(|b| b.profile().suite == suite)
                .count()
        };
        assert_eq!(in_suite(Spec2000), 22);
        assert_eq!(in_suite(MiBench), 16);
    }

    #[test]
    fn paper_serializing_fractions() {
        assert!((Benchmark::Bzip2.profile().frac_serializing - 0.020).abs() < 1e-12);
        assert!((Benchmark::Ammp.profile().frac_serializing - 0.017).abs() < 1e-12);
        assert!((Benchmark::Galgel.profile().frac_serializing - 0.010).abs() < 1e-12);
    }

    #[test]
    fn serializing_heavy_ordering_matches_fig4() {
        // bzip2 > ammp > galgel in serializing fraction, all above every
        // other benchmark.
        let heavy = Benchmark::serializing_heavy();
        let fr = |b: Benchmark| b.profile().frac_serializing;
        assert!(fr(heavy[0]) > fr(heavy[1]));
        assert!(fr(heavy[1]) > fr(heavy[2]));
        for b in Benchmark::all() {
            if !heavy.contains(b) {
                assert!(fr(*b) < fr(heavy[2]), "{}", b.name());
            }
        }
    }

    #[test]
    fn int_alu_remainder_is_substantial() {
        for b in Benchmark::all() {
            let rem = b.profile().frac_int_alu();
            assert!(rem > 0.1, "{}: int-ALU remainder {rem}", b.name());
        }
    }

    #[test]
    fn mcf_has_the_biggest_working_set() {
        let mcf = Benchmark::Mcf.profile().ws_lines;
        for b in Benchmark::all() {
            if *b != Benchmark::Mcf {
                assert!(b.profile().ws_lines <= mcf);
            }
        }
        // Bigger than the 4 MB L2 (65536 lines).
        assert!(mcf > 65536);
    }

    #[test]
    fn galgel_is_a_high_ilp_cache_resident_kernel() {
        // The Fig. 5 precondition: galgel sustains high IPC (wide window,
        // cache-resident working set), which is what lets CHECK-stage
        // back-pressure bite.
        let g = Benchmark::Galgel.profile();
        assert!(g.chain_window >= 12, "wide dependence window");
        assert!(g.ws_lines <= 1024, "cache-resident working set");
        assert!(g.mispredict_rate <= 0.02, "near-perfect branches");
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = Benchmark::all().iter().map(|b| b.name()).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
