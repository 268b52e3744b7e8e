//! Deterministic parallel experiment runner.
//!
//! Every experiment driver fans independent simulations out through one
//! [`Runner`]: a fixed-size worker pool over [`std::thread::scope`]
//! pulling jobs off a shared index queue. Three properties make results
//! trustworthy:
//!
//! * **Worker-count independence.** A job's output depends only on its
//!   input — never on which worker ran it or in what order. Anything a
//!   job randomizes comes from its own [`job_stream`], derived from
//!   `(seed, benchmark, config)` via SplitMix64, so `UNSYNC_WORKERS=1`
//!   and `UNSYNC_WORKERS=64` produce bit-identical results.
//! * **Order preservation.** [`Runner::map`] returns outputs in input
//!   order regardless of completion order.
//! * **Baseline memoization.** Figures 4–6 and the reliability studies
//!   all normalize against the unprotected baseline run of the same
//!   trace. [`baseline_cycles`] memoizes that simulation per
//!   `(benchmark, inst_count, seed)` process-wide, so each baseline
//!   executes exactly once no matter how many experiments ask for it —
//!   observable as `runner.baseline_sim_runs` vs.
//!   `runner.baseline_cache_hits` in the metrics registry.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use unsync_isa::exec::splitmix64;
use unsync_isa::{golden_run, ArchMemory};
use unsync_sim::{metrics, run_baseline, CoreConfig};
use unsync_workloads::{Benchmark, SplitMixStream, SyntheticSource, WorkloadSource};

use crate::experiments::ExperimentConfig;

/// A fixed-size deterministic worker pool.
#[derive(Debug, Clone, Copy)]
pub struct Runner {
    workers: usize,
}

impl Runner {
    /// A runner with exactly `workers` workers.
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "at least one worker");
        Runner { workers }
    }

    /// Worker count from `UNSYNC_WORKERS` (at least 1), defaulting to
    /// the machine's available parallelism. A malformed value is an
    /// error naming the variable.
    pub fn from_env() -> Result<Self, String> {
        let workers = match crate::env::var_at_least("UNSYNC_WORKERS", 1)? {
            Some(w) => w as usize,
            None => std::thread::available_parallelism().map_or(1, |n| n.get()),
        };
        Ok(Runner::new(workers))
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `f` to every item on the worker pool, returning results
    /// in input order. `f` must be a pure function of its item for the
    /// worker-count-independence guarantee to hold.
    ///
    /// # Panics
    /// Propagates a panic from any job after all workers stop.
    pub fn map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(&I) -> T + Sync,
    {
        let m = metrics::global();
        m.gauge("runner.workers").set(self.workers as f64);
        let jobs_done = m.counter("runner.jobs_completed");
        if items.is_empty() {
            return Vec::new();
        }
        let workers = self.workers.min(items.len());
        if workers == 1 {
            return items
                .iter()
                .map(|item| {
                    let r = f(item);
                    jobs_done.inc();
                    r
                })
                .collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = items.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    let r = f(item);
                    *slots[i].lock().expect("result slot poisoned") = Some(r);
                    jobs_done.inc();
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("worker filled slot")
            })
            .collect()
    }
}

/// The seed of a job's private RNG stream: a SplitMix64 chain over the
/// experiment seed, the benchmark name, the instruction count, and a
/// caller-chosen salt. Stable across platforms and worker counts.
pub fn job_seed(cfg: ExperimentConfig, bench: Benchmark, salt: u64) -> u64 {
    job_seed_named(cfg, bench.name(), salt)
}

/// [`job_seed`] keyed on a stable workload *name* instead of a
/// [`Benchmark`] value — byte-identical for synthetic benchmarks
/// (`job_seed` delegates here) and what lets kernel-backed campaign
/// jobs share the same stream mapping.
pub fn job_seed_named(cfg: ExperimentConfig, workload: &str, salt: u64) -> u64 {
    let mut h = splitmix64(cfg.seed ^ 0x7f4a_7c15_9e37_79b9);
    for b in workload.bytes() {
        h = splitmix64(h ^ u64::from(b));
    }
    h = splitmix64(h ^ cfg.inst_count);
    splitmix64(h ^ salt)
}

/// A job's private deterministic RNG stream (see [`job_seed`]).
pub fn job_stream(cfg: ExperimentConfig, bench: Benchmark, salt: u64) -> SplitMixStream {
    SplitMixStream::new(job_seed(cfg, bench, salt))
}

/// Cache key of a memoized per-trace product: the source's stable
/// workload name plus its length and seed. Any [`WorkloadSource`]
/// backend — synthetic or kernel — shares the same caches.
type SourceKey = (&'static str, u64, u64);

fn source_key(source: &dyn WorkloadSource) -> SourceKey {
    (source.name(), source.length(), source.seed())
}

/// Number of independent lock shards per memo cache. Keys hash to a
/// shard via SplitMix64, so concurrent campaigns over *different*
/// traces contend only when their keys collide modulo 16 — not on one
/// global mutex.
const CACHE_SHARDS: usize = 16;

/// A process-wide memo cache split into [`CACHE_SHARDS`] independently
/// locked segments. Each value slot is an `Arc<OnceLock<V>>` so cold
/// racers block on the cell, not the shard lock, and the underlying
/// simulation still runs exactly once.
struct ShardedCache<V> {
    shards: [Mutex<HashMap<SourceKey, Arc<OnceLock<V>>>>; CACHE_SHARDS],
}

impl<V> ShardedCache<V> {
    fn new() -> ShardedCache<V> {
        ShardedCache {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        }
    }

    fn shard_index(key: &SourceKey) -> usize {
        let (name, length, seed) = key;
        let mut h = 0x9e37_79b9_7f4a_7c15;
        for b in name.bytes() {
            h = splitmix64(h ^ u64::from(b));
        }
        h = splitmix64(h ^ length);
        h = splitmix64(h ^ seed);
        (h % CACHE_SHARDS as u64) as usize
    }

    /// Fetch (or insert) the memo cell for `key`, contending only on
    /// the key's shard. An uncontended `try_lock` is the fast path; a
    /// busy shard counts one `runner.cache_lock_waits` — and records
    /// the wall-clock wait into `prof.runner.cache_lock_wait` — before
    /// falling back to a blocking acquire.
    fn cell(&self, key: SourceKey) -> Arc<OnceLock<V>> {
        let shard = &self.shards[Self::shard_index(&key)];
        let mut guard = match shard.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                metrics::global().counter("runner.cache_lock_waits").inc();
                let _t = unsync_obs::prof::scope("runner.cache_lock_wait");
                shard.lock().expect("memo cache shard poisoned")
            }
            Err(std::sync::TryLockError::Poisoned(e)) => {
                panic!("memo cache shard poisoned: {e}")
            }
        };
        Arc::clone(guard.entry(key).or_default())
    }
}

fn baseline_cache() -> &'static ShardedCache<u64> {
    static CACHE: OnceLock<ShardedCache<u64>> = OnceLock::new();
    CACHE.get_or_init(ShardedCache::new)
}

/// Baseline (unprotected Table I CMP) cycle count for one workload
/// source's trace, memoized process-wide per `(name, length, seed)`.
///
/// Concurrent callers racing on a cold key block on one `OnceLock`, so
/// the simulation runs exactly once; everyone else counts as a cache
/// hit.
pub fn baseline_cycles_source(source: &dyn WorkloadSource) -> u64 {
    let cell = baseline_cache().cell(source_key(source));
    let m = metrics::global();
    let mut simulated = false;
    let cycles = *cell.get_or_init(|| {
        simulated = true;
        m.counter("runner.baseline_sim_runs").inc();
        let mut stream = source.trace();
        run_baseline(CoreConfig::table1(), &mut stream)
            .core
            .last_commit_cycle
    });
    if !simulated {
        m.counter("runner.baseline_cache_hits").inc();
    }
    cycles
}

/// [`baseline_cycles_source`] for a synthetic benchmark under `cfg`.
pub fn baseline_cycles(bench: Benchmark, cfg: ExperimentConfig) -> u64 {
    baseline_cycles_source(&SyntheticSource::new(bench, cfg.inst_count, cfg.seed))
}

fn golden_cache() -> &'static ShardedCache<Arc<ArchMemory>> {
    static CACHE: OnceLock<ShardedCache<Arc<ArchMemory>>> = OnceLock::new();
    CACHE.get_or_init(ShardedCache::new)
}

/// The golden (fault-free functional) memory image of one workload
/// source's trace, memoized process-wide per `(name, length, seed)`.
///
/// Fault campaigns verify every injected-fault run against the same
/// golden image; threading this through `run_with_golden` executes
/// [`golden_run`] once per trace instead of once per fault — observable
/// as `runner.golden_sim_runs` vs. `runner.golden_cache_hits`.
pub fn golden_memory_source(source: &dyn WorkloadSource) -> Arc<ArchMemory> {
    let cell = golden_cache().cell(source_key(source));
    let m = metrics::global();
    let mut simulated = false;
    let golden = Arc::clone(cell.get_or_init(|| {
        simulated = true;
        m.counter("runner.golden_sim_runs").inc();
        let trace = source.trace();
        Arc::new(golden_run(&trace).1)
    }));
    if !simulated {
        m.counter("runner.golden_cache_hits").inc();
    }
    golden
}

/// [`golden_memory_source`] for a synthetic benchmark under `cfg`.
pub fn golden_memory(bench: Benchmark, cfg: ExperimentConfig) -> Arc<ArchMemory> {
    golden_memory_source(&SyntheticSource::new(bench, cfg.inst_count, cfg.seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u64> = (0..57).collect();
        let out = Runner::new(4).map(&items, |&x| x * 3);
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn map_is_worker_count_independent() {
        let items: Vec<u64> = (0..23).collect();
        let run = |w: usize| Runner::new(w).map(&items, |&x| splitmix64(x));
        assert_eq!(run(1), run(2));
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn map_handles_empty_and_single() {
        let none: Vec<u64> = Vec::new();
        assert!(Runner::new(3).map(&none, |&x| x).is_empty());
        assert_eq!(Runner::new(3).map(&[9u64], |&x| x + 1), vec![10]);
    }

    #[test]
    fn job_streams_separate_by_every_component() {
        let cfg = ExperimentConfig {
            inst_count: 1_000,
            seed: 1,
        };
        let a = job_seed(cfg, Benchmark::Gzip, 0);
        assert_ne!(a, job_seed(cfg, Benchmark::Gzip, 1));
        assert_ne!(a, job_seed(cfg, Benchmark::Bzip2, 0));
        assert_ne!(
            a,
            job_seed(ExperimentConfig { seed: 2, ..cfg }, Benchmark::Gzip, 0)
        );
        assert_ne!(
            a,
            job_seed(
                ExperimentConfig {
                    inst_count: 2_000,
                    ..cfg
                },
                Benchmark::Gzip,
                0
            )
        );
        assert_eq!(a, job_seed(cfg, Benchmark::Gzip, 0), "stable");
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = Runner::new(0);
    }
}
