//! A lightweight, dependency-free metrics registry.
//!
//! The experiment harness needs observability into hot paths (how many
//! simulations ran, how often the baseline cache hit, how much time the
//! pair loops spent recovering) without paying for it per instruction.
//! The design follows the usual client-library split:
//!
//! * a process-global [`Registry`] maps names to metric slots,
//! * call sites resolve a [`Counter`] / [`Gauge`] / [`Histogram`] handle
//!   **once** (an `Arc` around atomics) and then update it lock-free,
//! * [`Registry::snapshot`] reads everything for run logs and reports.
//!
//! Metric names are dot-separated (`runner.baseline_sim_runs`). All
//! updates use relaxed atomics: metrics are monotonic aggregates, not
//! synchronization.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing integer metric.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point metric.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }
}

#[derive(Debug)]
struct HistInner {
    /// Upper bounds of the finite buckets, ascending; an implicit
    /// overflow bucket catches everything above the last bound.
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

/// A fixed-bucket histogram of `f64` observations.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistInner>);

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let h = &*self.0;
        let idx = h
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(h.bounds.len());
        h.buckets[idx].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        // f64 add via CAS on the bit pattern.
        let mut cur = h.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match h
                .sum_bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Records `n` identical observations of `v` in one update (one
    /// bucket/count bump instead of `n` — used for pre-aggregated
    /// per-key tallies like the driver's per-bank conflict counts).
    pub fn observe_n(&self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        let h = &*self.0;
        let idx = h
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(h.bounds.len());
        h.buckets[idx].fetch_add(n, Ordering::Relaxed);
        h.count.fetch_add(n, Ordering::Relaxed);
        let mut cur = h.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v * n as f64).to_bits();
            match h
                .sum_bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistInner>),
}

/// A snapshot of one metric's value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram: observation count, sum, and per-bucket
    /// `(upper_bound, count)` pairs; the final bucket's bound is
    /// `f64::INFINITY`.
    Histogram {
        /// Observation count.
        count: u64,
        /// Observation sum.
        sum: f64,
        /// Cumulative-free `(upper_bound, count)` pairs.
        buckets: Vec<(f64, u64)>,
    },
}

/// A named collection of metrics.
#[derive(Debug, Default)]
pub struct Registry {
    slots: Mutex<BTreeMap<String, Slot>>,
}

impl Registry {
    /// An empty registry (tests use private registries; production code
    /// shares [`global`]).
    pub(crate) fn new() -> Self {
        Registry::default()
    }

    /// Resolves (creating on first use) the counter `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut slots = self.slots.lock().expect("metrics registry poisoned");
        let slot = slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Counter(Arc::new(AtomicU64::new(0))));
        match slot {
            Slot::Counter(c) => Counter(Arc::clone(c)),
            _ => panic!("metric {name:?} is not a counter"),
        }
    }

    /// Resolves (creating on first use) the gauge `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut slots = self.slots.lock().expect("metrics registry poisoned");
        let slot = slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))));
        match slot {
            Slot::Gauge(g) => Gauge(Arc::clone(g)),
            _ => panic!("metric {name:?} is not a gauge"),
        }
    }

    /// Resolves (creating on first use) the histogram `name` with the
    /// given ascending finite bucket bounds.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind, or if
    /// `bounds` is empty or unsorted.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        let mut slots = self.slots.lock().expect("metrics registry poisoned");
        let slot = slots.entry(name.to_string()).or_insert_with(|| {
            Slot::Histogram(Arc::new(HistInner {
                bounds: bounds.to_vec(),
                buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0f64.to_bits()),
            }))
        });
        match slot {
            Slot::Histogram(h) => Histogram(Arc::clone(h)),
            _ => panic!("metric {name:?} is not a histogram"),
        }
    }

    /// All metrics, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        let slots = self.slots.lock().expect("metrics registry poisoned");
        slots
            .iter()
            .map(|(name, slot)| {
                let value = match slot {
                    Slot::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
                    Slot::Gauge(g) => MetricValue::Gauge(f64::from_bits(g.load(Ordering::Relaxed))),
                    Slot::Histogram(h) => {
                        let mut buckets: Vec<(f64, u64)> = h
                            .bounds
                            .iter()
                            .zip(&h.buckets)
                            .map(|(&b, c)| (b, c.load(Ordering::Relaxed)))
                            .collect();
                        buckets.push((
                            f64::INFINITY,
                            h.buckets[h.bounds.len()].load(Ordering::Relaxed),
                        ));
                        MetricValue::Histogram {
                            count: h.count.load(Ordering::Relaxed),
                            sum: f64::from_bits(h.sum_bits.load(Ordering::Relaxed)),
                            buckets,
                        }
                    }
                };
                (name.clone(), value)
            })
            .collect()
    }
}

/// The process-global registry every instrumented layer shares.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Bucket bounds (microseconds) shared by every `prof.*` host-domain
/// phase histogram: 1 µs to 1 s in a coarse log ladder. One common
/// ladder keeps phase histograms comparable across layers (scheduler
/// loop, campaign dispatch, cache waits) in per-run meta `prof`
/// blocks.
pub(crate) const PROF_BOUNDS_US: [f64; 11] = [
    1.0,
    5.0,
    10.0,
    50.0,
    100.0,
    500.0,
    1_000.0,
    5_000.0,
    10_000.0,
    100_000.0,
    1_000_000.0,
];

/// Resolves (creating on first use) the host-domain phase histogram
/// `prof.<phase>` in the [`global`] registry, with the shared
/// `PROF_BOUNDS_US` microsecond ladder.
///
/// `prof.*` metrics record **wall-clock** phase durations, never
/// simulated cycles: they exist so a `BENCH_*.json` regression is
/// attributable to a phase instead of a total. They are therefore
/// non-deterministic by design and must stay out of run-to-run diffs
/// (the dashboard's diff excludes the `prof.` namespace). Call sites on
/// hot paths should resolve the handle once (e.g. behind a `OnceLock`)
/// and observe through the cached clone — observation itself is
/// lock-free.
pub fn prof_histogram(phase: &str) -> Histogram {
    global().histogram(&format!("prof.{phase}"), &PROF_BOUNDS_US)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = Registry::new();
        let c = r.counter("a.b");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(r.snapshot(), vec![("a.b".into(), MetricValue::Counter(5))]);
    }

    #[test]
    fn handles_alias_the_same_slot() {
        let r = Registry::new();
        r.counter("x").inc();
        r.counter("x").inc();
        assert_eq!(r.counter("x").get(), 2);
    }

    #[test]
    fn gauges_hold_last_value() {
        let r = Registry::new();
        let g = r.gauge("w");
        g.set(2.5);
        g.set(8.0);
        assert_eq!(r.snapshot(), vec![("w".into(), MetricValue::Gauge(8.0))]);
    }

    #[test]
    fn histograms_bucket_observations() {
        let r = Registry::new();
        let h = r.histogram("ipc", &[1.0, 2.0]);
        for v in [0.5, 1.5, 1.7, 9.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        match &r.snapshot()[0].1 {
            MetricValue::Histogram { sum, buckets, .. } => {
                assert!((sum - 12.7).abs() < 1e-12);
                assert_eq!(buckets[0], (1.0, 1));
                assert_eq!(buckets[1], (2.0, 2));
                assert_eq!(buckets[2].1, 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.gauge("m");
        r.counter("m");
    }

    #[test]
    fn prof_histograms_share_the_us_ladder() {
        let h = prof_histogram("test_only.metrics_unit");
        h.observe(3.0);
        h.observe(700.0);
        assert_eq!(h.count(), 2);
        let snap = global().snapshot();
        let (_, value) = snap
            .iter()
            .find(|(name, _)| name == "prof.test_only.metrics_unit")
            .expect("prof histogram registered under the prof. namespace");
        match value {
            MetricValue::Histogram { buckets, .. } => {
                assert_eq!(buckets.len(), PROF_BOUNDS_US.len() + 1);
                assert_eq!(buckets[1], (5.0, 1), "3 µs lands in the ≤5 µs bucket");
            }
            other => panic!("{other:?}"),
        }
        // Re-resolving aliases the same slot (the cached-handle contract).
        assert_eq!(prof_histogram("test_only.metrics_unit").count(), 2);
    }
}
