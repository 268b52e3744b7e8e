//! The workload-production seam: [`WorkloadSource`].
//!
//! Every consumer of traces — the bench runner, the experiment suite,
//! the repo benchmark, the sim and exec test beds — obtains its
//! [`TraceProgram`] through this trait instead of
//! constructing [`WorkloadGen`] directly. That gives the repo exactly
//! one seam where a new trace backend plugs in; today there are two:
//!
//! * [`SyntheticSource`] — the seeded statistical generators
//!   ([`WorkloadGen`]), profiles *calibrated to* the paper's named
//!   statistics. This remains the default everywhere, so every
//!   pre-existing golden stays byte-identical.
//! * `crate::kernels::KernelSource` — real MiBench-style kernels
//!   (qsort, crc32, dijkstra, stringsearch) built directly in the
//!   `unsync-isa` instruction set and executed through
//!   [`unsync_isa::ArchState`] semantics, so their statistics are
//!   *measured from* executed code rather than assumed.
//!
//! [`WorkloadSpec`] is the copyable name of either backend
//! (`"gzip"`, `"kernel:qsort"`, …), parsed by [`WorkloadSpec::parse`].

use unsync_isa::TraceProgram;

use crate::gen::WorkloadGen;
use crate::kernels::{Kernel, KernelSource};
use crate::profile::Benchmark;

/// Default base address of a source's data segment — the same base
/// [`WorkloadGen::new`] uses, so `trace()` and `trace_at(DEFAULT_DATA_BASE)`
/// are the same program.
pub const DEFAULT_DATA_BASE: u64 = 0x1000_0000;

/// A named, seeded producer of deterministic instruction traces.
///
/// Implementations are pure functions of their construction parameters:
/// the same source always yields the identical [`TraceProgram`], on
/// every platform. `trace_at` relocates only the data segment, which is
/// how a many-lane system gives each lane a disjoint address space.
pub trait WorkloadSource {
    /// Stable workload name (`"gzip"`, `"kernel:qsort"`, …); used in
    /// run logs, cache keys and environment knobs.
    fn name(&self) -> &'static str;

    /// Number of instructions the trace will contain.
    fn length(&self) -> u64;

    /// The seed the trace is derived from.
    fn seed(&self) -> u64;

    /// Materializes the trace with the data segment based at
    /// `data_base` (rounded down to a cache-line boundary).
    fn trace_at(&self, data_base: u64) -> TraceProgram;

    /// Materializes the trace at the default data base.
    fn trace(&self) -> TraceProgram {
        self.trace_at(DEFAULT_DATA_BASE)
    }
}

/// The synthetic backend: wraps [`WorkloadGen`] behind the seam.
///
/// Delegates straight to [`WorkloadGen::new_at`], so traces are
/// bit-identical to what direct construction produced before the seam
/// existed — the property every pre-existing golden depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyntheticSource {
    /// The modelled benchmark.
    pub(crate) bench: Benchmark,
    /// Trace length in instructions.
    pub(crate) length: u64,
    /// Generator seed.
    pub(crate) seed: u64,
}

impl SyntheticSource {
    /// A synthetic source for `bench` with the given length and seed.
    pub fn new(bench: Benchmark, length: u64, seed: u64) -> Self {
        SyntheticSource {
            bench,
            length,
            seed,
        }
    }
}

impl WorkloadSource for SyntheticSource {
    fn name(&self) -> &'static str {
        self.bench.name()
    }

    fn length(&self) -> u64 {
        self.length
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn trace_at(&self, data_base: u64) -> TraceProgram {
        WorkloadGen::new_at(self.bench, self.length, self.seed, data_base).collect_trace()
    }
}

/// The copyable name of a workload backend: a synthetic benchmark or a
/// real-ISA kernel.
///
/// Parsed from strings like `"gzip"` (synthetic) or `"kernel:qsort"`
/// (kernel backend). The `kernel:` prefix disambiguates the four
/// MiBench names (`qsort`, `crc32`, `dijkstra`, `stringsearch`) that
/// exist in *both* backends — as calibrated profiles and as executed
/// kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// A seeded statistical generator ([`SyntheticSource`]).
    Synthetic(Benchmark),
    /// A real-ISA kernel (`KernelSource`).
    Kernel(Kernel),
}

impl WorkloadSpec {
    /// Parses a workload name: a synthetic benchmark name (`"gzip"`)
    /// or a `kernel:`-prefixed kernel name (`"kernel:crc32"`).
    pub fn parse(name: &str) -> Result<WorkloadSpec, String> {
        if let Some(kernel) = name.strip_prefix("kernel:") {
            return Kernel::from_name(kernel)
                .map(WorkloadSpec::Kernel)
                .ok_or_else(|| {
                    let names: Vec<_> = Kernel::all().iter().map(|k| k.name()).collect();
                    format!("unknown kernel {kernel:?}; kernels: {}", names.join(", "))
                });
        }
        Benchmark::all()
            .iter()
            .find(|b| b.name() == name)
            .copied()
            .map(WorkloadSpec::Synthetic)
            .ok_or_else(|| format!("unknown benchmark {name:?} (kernels use a \"kernel:\" prefix)"))
    }

    /// The stable name this spec parses back from.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadSpec::Synthetic(b) => b.name(),
            WorkloadSpec::Kernel(k) => k.spec_name(),
        }
    }

    /// Binds the spec to a length and seed, yielding a concrete source.
    pub fn source(self, length: u64, seed: u64) -> AnySource {
        AnySource {
            spec: self,
            length,
            seed,
        }
    }
}

/// A [`WorkloadSource`] over either backend, selected by
/// [`WorkloadSpec`]. Copyable, so configs can carry it by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnySource {
    /// Which backend produces the trace.
    pub(crate) spec: WorkloadSpec,
    /// Trace length in instructions.
    pub(crate) length: u64,
    /// Source seed.
    pub(crate) seed: u64,
}

impl WorkloadSource for AnySource {
    fn name(&self) -> &'static str {
        self.spec.name()
    }

    fn length(&self) -> u64 {
        self.length
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn trace_at(&self, data_base: u64) -> TraceProgram {
        match self.spec {
            WorkloadSpec::Synthetic(b) => {
                SyntheticSource::new(b, self.length, self.seed).trace_at(data_base)
            }
            WorkloadSpec::Kernel(k) => {
                KernelSource::new(k, self.length, self.seed).trace_at(data_base)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_source_is_bit_identical_to_direct_construction() {
        let direct = WorkloadGen::new(Benchmark::Gzip, 2_000, 7).collect_trace();
        let seamed = SyntheticSource::new(Benchmark::Gzip, 2_000, 7).trace();
        assert_eq!(direct, seamed);
        let direct_at = WorkloadGen::new_at(Benchmark::Sha, 1_000, 3, 0x9000_0000).collect_trace();
        let seamed_at = SyntheticSource::new(Benchmark::Sha, 1_000, 3).trace_at(0x9000_0000);
        assert_eq!(direct_at, seamed_at);
    }

    #[test]
    fn spec_parses_both_backends() {
        assert_eq!(
            WorkloadSpec::parse("gzip"),
            Ok(WorkloadSpec::Synthetic(Benchmark::Gzip))
        );
        assert_eq!(
            WorkloadSpec::parse("qsort"),
            Ok(WorkloadSpec::Synthetic(Benchmark::Qsort)),
            "bare MiBench names stay synthetic — kernels need the prefix"
        );
        assert_eq!(
            WorkloadSpec::parse("kernel:qsort"),
            Ok(WorkloadSpec::Kernel(Kernel::Qsort))
        );
        assert!(WorkloadSpec::parse("no_such").is_err());
        assert!(WorkloadSpec::parse("kernel:no_such").is_err());
    }

    #[test]
    fn spec_names_round_trip() {
        for b in Benchmark::all() {
            let spec = WorkloadSpec::Synthetic(*b);
            assert_eq!(WorkloadSpec::parse(spec.name()), Ok(spec));
        }
        for k in Kernel::all() {
            let spec = WorkloadSpec::Kernel(*k);
            assert_eq!(WorkloadSpec::parse(spec.name()), Ok(spec));
        }
    }

    #[test]
    fn any_source_matches_its_backend() {
        let spec = WorkloadSpec::Synthetic(Benchmark::Mcf);
        let via_any = spec.source(1_500, 9).trace();
        let via_backend = SyntheticSource::new(Benchmark::Mcf, 1_500, 9).trace();
        assert_eq!(via_any, via_backend);
        assert_eq!(spec.source(1_500, 9).name(), "mcf");
    }
}
