//! A dependency-free micro-benchmark harness.
//!
//! Replaces the former Criterion benches so `cargo bench` still works
//! with zero external crates. Each benchmark runs a short warm-up, then
//! timed batches until a wall-clock budget is spent, and reports
//! median / mean / min per-iteration times. Intentionally simple: no
//! outlier rejection, no HTML — numbers on stdout for quick relative
//! comparisons, not publication.
//!
//! `UNSYNC_BENCH_MS` overrides the per-benchmark measurement budget and
//! `UNSYNC_BENCH_FILTER` (substring match) selects which benchmarks run.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Re-exported so bench targets can `use unsync_bench::microbench::black_box`.
pub use std::hint::black_box as bb;

/// One benchmark's measured statistics, in nanoseconds per iteration —
/// the machine-readable counterpart of the stdout row (the microbench
/// binary serializes these into `BENCH_driver.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// `group/name` of the benchmark.
    pub name: String,
    /// Median per-iteration time.
    pub median_ns: f64,
    /// Mean per-iteration time.
    pub mean_ns: f64,
    /// Fastest observed per-iteration time.
    pub min_ns: f64,
    /// Timed batches collected.
    pub samples: u64,
    /// Iterations per batch.
    pub batch: u64,
}

/// The per-bench time budget in milliseconds: `UNSYNC_BENCH_MS`,
/// default 300.
pub fn bench_ms() -> Result<u64, String> {
    Ok(crate::env::var("UNSYNC_BENCH_MS")?.unwrap_or(300))
}

/// A group of related micro-benchmarks sharing one stdout table.
pub struct Bench {
    group: String,
    budget: Duration,
    filter: Option<String>,
    results: Vec<BenchResult>,
}

impl Bench {
    /// A named group; reads `UNSYNC_BENCH_MS` / `UNSYNC_BENCH_FILTER`.
    pub fn group(name: &str) -> Bench {
        let ms = crate::env::or_exit(bench_ms());
        let filter = std::env::var("UNSYNC_BENCH_FILTER")
            .ok()
            .filter(|f| !f.is_empty());
        println!("## {name}");
        Bench {
            group: name.to_string(),
            budget: Duration::from_millis(ms),
            filter,
            results: Vec::new(),
        }
    }

    /// Every result measured so far, in run order.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Consumes the group, returning its collected results.
    pub fn into_results(self) -> Vec<BenchResult> {
        self.results
    }

    /// Times `f`, printing one result row. Wrap inputs/outputs in
    /// [`black_box`] inside `f` to defeat constant folding.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        let full = format!("{}/{name}", self.group);
        if let Some(filter) = &self.filter {
            if !full.contains(filter.as_str()) {
                return;
            }
        }
        // Warm-up and batch sizing: grow the batch until it costs ≥ 1 ms.
        let mut batch = 1u64;
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            if t.elapsed() >= Duration::from_millis(1) || batch >= 1 << 20 {
                break;
            }
            batch *= 4;
        }
        let deadline = Instant::now() + self.budget;
        let mut samples: Vec<f64> = Vec::new();
        while Instant::now() < deadline || samples.is_empty() {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            samples.push(t.elapsed().as_secs_f64() / batch as f64);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite sample times"));
        let median = samples[samples.len() / 2];
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        println!(
            "  {full:<44} median {:>12}  mean {:>12}  min {:>12}  ({} samples × {batch})",
            fmt_time(median),
            fmt_time(mean),
            fmt_time(samples[0]),
            samples.len(),
        );
        self.results.push(BenchResult {
            name: full,
            median_ns: median * 1e9,
            mean_ns: mean * 1e9,
            min_ns: samples[0] * 1e9,
            samples: samples.len() as u64,
            batch,
        });
    }
}

fn fmt_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_collects_machine_readable_results() {
        let mut g = Bench {
            group: "unit".to_string(),
            budget: Duration::from_millis(1),
            filter: None,
            results: Vec::new(),
        };
        g.bench("add", || black_box(2u64) + 2);
        let results = g.into_results();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].name, "unit/add");
        assert!(results[0].median_ns > 0.0);
        assert!(results[0].samples > 0 && results[0].batch > 0);
    }

    #[test]
    fn formats_across_scales() {
        assert_eq!(fmt_time(2.5), "2.500 s");
        assert_eq!(fmt_time(2.5e-3), "2.500 ms");
        assert_eq!(fmt_time(2.5e-6), "2.500 µs");
        assert_eq!(fmt_time(2.5e-9), "2.5 ns");
    }
}
