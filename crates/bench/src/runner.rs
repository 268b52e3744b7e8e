//! Deterministic parallel experiment runner.
//!
//! Every experiment driver fans independent simulations out through one
//! [`Runner`]: a fixed-size worker pool over [`std::thread::scope`]
//! pulling jobs off a shared index queue. Three properties make results
//! trustworthy:
//!
//! * **Worker-count independence.** A job's output depends only on its
//!   input — never on which worker ran it or in what order. Anything a
//!   job randomizes comes from its own seed (`job_seed_named`), derived
//!   from `(seed, workload, config)` via SplitMix64, so
//!   `UNSYNC_WORKERS=1` and `UNSYNC_WORKERS=64` produce bit-identical
//!   results.
//! * **Order preservation.** [`Runner::map`] returns outputs in input
//!   order regardless of completion order.
//! * **Baseline memoization.** Figures 4–6 and the reliability studies
//!   all normalize against the unprotected baseline run of the same
//!   trace. [`baseline_cycles`] memoizes that simulation per
//!   `(benchmark, inst_count, seed)` process-wide, so each baseline
//!   executes exactly once no matter how many experiments ask for it —
//!   observable as `runner.baseline_sim_runs` vs.
//!   `runner.baseline_cache_hits` in the metrics registry.
//! * **Strike-free references.** A strike job whose strikes change no
//!   state ends at its last strike and takes the rest of its run from
//!   the strike-free run of the same scheme, trace and driver
//!   (`reference_run`, `unsync_exec::Lane::reference`), simulated once
//!   per process — `runner.reference_sim_runs` vs.
//!   `runner.reference_cache_hits`.

use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};

use unsync_exec::{Lane, RedundantDriver, Reference, RunResult};
use unsync_isa::exec::splitmix64;
use unsync_isa::{golden_run, ArchMemory, TraceProgram};
use unsync_sim::{metrics, run_baseline, CoreConfig};
use unsync_workloads::{Benchmark, SyntheticSource, WorkloadSource};

use crate::experiments::ExperimentConfig;
use crate::scheme::Scheme;

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
        let mut out = Vec::new();
        let Ok(()) = self.map_chunks(items, items.len().max(1), f, |all| {
            out = all;
            Ok::<(), Infallible>(())
        });
        out
    }

    /// Applies `f` to every item on one worker pool and hands `sink` the
    /// outputs `chunk` items at a time, in input order (the last chunk
    /// may be short), on the calling thread. Workers start no item past
    /// the chunk being assembled, so at most one chunk of outputs is
    /// held, as if each chunk ran through [`Runner::map`] in turn, but
    /// the threads start once. The first `sink` error stops the workers
    /// taking new items and is returned once the running ones finish.
    ///
    /// # Panics
    /// Panics if `chunk` is zero. Propagates a panic from any job after
    /// all workers stop.
    pub(crate) fn map_chunks<I, T, E, F, S>(
        &self,
        items: &[I],
        chunk: usize,
        f: F,
        mut sink: S,
    ) -> Result<(), E>
    where
        I: Sync,
        T: Send,
        F: Fn(&I) -> T + Sync,
        S: FnMut(Vec<T>) -> Result<(), E>,
    {
        assert!(chunk > 0, "at least one item per chunk");
        let m = metrics::global();
        m.gauge("runner.workers").set(self.workers as f64);
        let jobs_done = m.counter("runner.jobs_completed");
        let run = |item: &I| {
            let r = f(item);
            jobs_done.inc();
            r
        };
        let workers = self.workers.min(items.len());
        if workers <= 1 {
            return items
                .chunks(chunk)
                .try_for_each(|part| sink(part.iter().map(run).collect()));
        }
        let gate = Gate {
            state: Mutex::new((0, false)),
            moved: Condvar::new(),
            chunk,
        };
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let (gate, next, run) = (&gate, &next, &run);
                scope.spawn(move || {
                    let _halt = HaltOnPanic(gate);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() || !gate.admit(i) {
                            break;
                        }
                        if tx.send((i, run(&items[i]))).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);
            let _halt = HaltOnPanic(&gate);
            // The chunk being assembled: items `base..base + slots.len()`,
            // `filled` of them done. The gate keeps every output inside it.
            let (mut base, mut filled) = (0, 0);
            let mut slots: Vec<Option<T>> = Vec::new();
            slots.resize_with(chunk.min(items.len()), || None);
            for (i, r) in rx.iter() {
                slots[i - base] = Some(r);
                filled += 1;
                if filled == slots.len() {
                    let part = slots.drain(..).map(|r| r.expect("filled")).collect();
                    base += filled;
                    if let Err(e) = sink(part) {
                        gate.halt();
                        return Err(e);
                    }
                    filled = 0;
                    slots.resize_with(chunk.min(items.len() - base), || None);
                    gate.advance(base);
                }
            }
            // Every sender is gone: either every chunk reached `sink`, or
            // a worker panicked and the scope re-raises it.
            Ok(())
        })
    }
}

/// Holds back workers that reach past the chunk being assembled, and
/// stops them all on a `sink` error or a panic.
struct Gate {
    /// Items handed to `sink` so far, and whether the pool is stopping.
    state: Mutex<(usize, bool)>,
    moved: Condvar,
    chunk: usize,
}

impl Gate {
    /// Waits until item `i` may start; false once the pool is stopping.
    fn admit(&self, i: usize) -> bool {
        let mut state = self.state.lock().expect("gate poisoned");
        while i >= state.0 + self.chunk && !state.1 {
            state = self.moved.wait(state).expect("gate poisoned");
        }
        !state.1
    }

    fn advance(&self, emitted: usize) {
        self.state.lock().expect("gate poisoned").0 = emitted;
        self.moved.notify_all();
    }

    fn halt(&self) {
        self.state.lock().expect("gate poisoned").1 = true;
        self.moved.notify_all();
    }
}

/// Halts the gate if its thread unwinds, so no worker waits forever on
/// a chunk that will never be handed over.
struct HaltOnPanic<'a>(&'a Gate);

impl Drop for HaltOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.halt();
        }
    }
}

/// The seed of a job's private RNG stream: a SplitMix64 chain over the
/// experiment seed, the stable workload name, the instruction count,
/// and a caller-chosen salt. Stable across platforms and worker counts.
pub(crate) fn job_seed_named(cfg: ExperimentConfig, workload: &str, salt: u64) -> u64 {
    let mut h = splitmix64(cfg.seed ^ 0x7f4a_7c15_9e37_79b9);
    for b in workload.bytes() {
        h = splitmix64(h ^ u64::from(b));
    }
    h = splitmix64(h ^ cfg.inst_count);
    splitmix64(h ^ salt)
}

/// Cache key of a memoized per-trace product: the source's stable
/// workload name plus its length and seed. Any [`WorkloadSource`]
/// backend — synthetic or kernel — shares the same caches.
type SourceKey = (&'static str, u64, u64);

fn source_key(source: &dyn WorkloadSource) -> SourceKey {
    (source.name(), source.length(), source.seed())
}

/// A process-wide memo cache: one locked map from key to memo cell.
/// Each value slot is an `Arc<OnceLock<V>>` so cold racers block on
/// the cell, not the map lock, and the underlying simulation still
/// runs exactly once.
struct MemoCache<V> {
    cells: Mutex<HashMap<SourceKey, Arc<OnceLock<V>>>>,
}

impl<V> MemoCache<V> {
    fn new() -> MemoCache<V> {
        MemoCache {
            cells: Mutex::new(HashMap::new()),
        }
    }

    /// Fetch (or insert) the memo cell for `key`. An uncontended
    /// `try_lock` is the fast path; a busy map counts one
    /// `runner.cache_lock_waits` — and records the wall-clock wait into
    /// `prof.runner.cache_lock_wait` — before falling back to a
    /// blocking acquire.
    fn cell(&self, key: SourceKey) -> Arc<OnceLock<V>> {
        let mut guard = match self.cells.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                metrics::global().counter("runner.cache_lock_waits").inc();
                let _t = unsync_obs::prof::scope("runner.cache_lock_wait");
                self.cells.lock().expect("memo cache poisoned")
            }
            Err(std::sync::TryLockError::Poisoned(e)) => {
                panic!("memo cache poisoned: {e}")
            }
        };
        Arc::clone(guard.entry(key).or_default())
    }
}

fn baseline_cache() -> &'static MemoCache<u64> {
    static CACHE: OnceLock<MemoCache<u64>> = OnceLock::new();
    CACHE.get_or_init(MemoCache::new)
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

fn golden_cache() -> &'static MemoCache<Arc<ArchMemory>> {
    static CACHE: OnceLock<MemoCache<Arc<ArchMemory>>> = OnceLock::new();
    CACHE.get_or_init(MemoCache::new)
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

/// A memoized strike-free run ([`reference_run`]).
#[derive(Debug)]
pub(crate) struct StrikeFreeRun {
    /// The run, its journal complete. Its memory image is left empty
    /// when it equals the golden image, which then stands in for it.
    run: RunResult,
    memory_is_golden: bool,
}

impl StrikeFreeRun {
    /// The run as a lane's [`Reference`]; `golden` must be the golden
    /// image of the trace it ran.
    pub(crate) fn view<'a>(&'a self, golden: &'a ArchMemory) -> Reference<'a> {
        Reference {
            memory: if self.memory_is_golden {
                golden
            } else {
                &self.run.memory
            },
            ..Reference::of(&self.run)
        }
    }
}

/// One memo slot: a strike-free run once simulated, `None` when its
/// journal dropped events.
type RunSlot = Arc<OnceLock<Option<Arc<StrikeFreeRun>>>>;

/// The strike-free runs of one trace: the trace, which confirms every
/// hit, and one slot per scheme row and driver configuration. One copy
/// of the trace serves every scheme and driver that runs it.
struct TraceRuns {
    trace: TraceProgram,
    runs: Vec<(&'static str, RedundantDriver, RunSlot)>,
}

/// The strike-free run memo, keyed by trace digest and length.
fn reference_cache() -> &'static MemoCache<Mutex<TraceRuns>> {
    static CACHE: OnceLock<MemoCache<Mutex<TraceRuns>>> = OnceLock::new();
    CACHE.get_or_init(MemoCache::new)
}

/// The strike-free run of `trace` under the [`Scheme`] row `scheme` on
/// `driver` (with `golden`, the trace's golden image), memoized
/// process-wide per scheme, driver configuration and trace content.
///
/// The run publishes no metrics and keeps a journal
/// ([`RedundantDriver::reference_driver`]). A run whose journal dropped
/// events is never served, and a trace whose digest matches a stored
/// trace that is not equal to it gets no run, so a digest collision can
/// never return another trace's run. Fills count as
/// `runner.reference_sim_runs`, served stored runs as
/// `runner.reference_cache_hits`.
pub(crate) fn reference_run(
    driver: &RedundantDriver,
    scheme: &Scheme,
    trace: &TraceProgram,
    golden: &ArchMemory,
) -> Option<Arc<StrikeFreeRun>> {
    let key = ("strike_free", trace.digest(), trace.len() as u64);
    let cell = reference_cache().cell(key);
    let slot = {
        let mut runs = cell
            .get_or_init(|| {
                Mutex::new(TraceRuns {
                    trace: trace.clone(),
                    runs: Vec::new(),
                })
            })
            .lock()
            .expect("reference memo poisoned");
        if runs.trace != *trace {
            return None;
        }
        // Keep the trace last confirmed: its clones share instructions,
        // so the next lookup with it confirms by identity.
        runs.trace = trace.clone();
        let found = runs
            .runs
            .iter()
            .find(|(name, d, _)| *name == scheme.name && d == driver);
        match found {
            Some((_, _, slot)) => Arc::clone(slot),
            None => {
                let slot = RunSlot::default();
                runs.runs
                    .push((scheme.name, driver.clone(), Arc::clone(&slot)));
                slot
            }
        }
    };
    let m = metrics::global();
    let mut simulated = false;
    let stored = slot.get_or_init(|| {
        simulated = true;
        m.counter("runner.reference_sim_runs").inc();
        let lane = Lane {
            golden: Some(golden),
            ..Lane::new(trace)
        };
        let mut run = (scheme.run)(&driver.reference_driver(), lane, false);
        let memory_is_golden = run.memory == *golden;
        if memory_is_golden {
            run.memory = ArchMemory::new();
        }
        let complete = run.events.journal_dropped() == 0;
        complete.then(|| {
            Arc::new(StrikeFreeRun {
                run,
                memory_is_golden,
            })
        })
    });
    if stored.is_some() && !simulated {
        m.counter("runner.reference_cache_hits").inc();
    }
    stored.clone()
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

    /// A job whose cost varies with its input, so workers finish out of
    /// order.
    fn uneven(x: &u64) -> u64 {
        (0..x % 7 * 500).fold(*x, |h, _| splitmix64(h))
    }

    /// Every chunk `map_chunks` hands over, at `workers` workers.
    fn chunks_of(items: &[u64], workers: usize, chunk: usize) -> Vec<Vec<u64>> {
        let mut chunks = Vec::new();
        let Ok(()) = Runner::new(workers).map_chunks(items, chunk, uneven, |c| {
            chunks.push(c);
            Ok::<(), Infallible>(())
        });
        chunks
    }

    #[test]
    fn map_chunks_hands_over_chunks_in_input_order() {
        let items: Vec<u64> = (0..103).collect();
        for workers in [1, 2, 8] {
            let chunks = chunks_of(&items, workers, 25);
            let sizes: Vec<usize> = chunks.iter().map(Vec::len).collect();
            assert_eq!(sizes, [25, 25, 25, 25, 3], "{workers} workers");
            let expected: Vec<u64> = items.iter().map(uneven).collect();
            assert_eq!(chunks.concat(), expected, "{workers} workers");
        }
        assert!(chunks_of(&[], 2, 25).is_empty());
    }

    #[test]
    fn map_chunks_equals_map_at_any_worker_count() {
        let items: Vec<u64> = (0..300).collect();
        let expected = Runner::new(1).map(&items, uneven);
        for workers in [1, 2, 8] {
            assert_eq!(Runner::new(workers).map(&items, uneven), expected);
            for chunk in [1, 7, 256, 1_000] {
                assert_eq!(chunks_of(&items, workers, chunk).concat(), expected);
            }
        }
    }

    #[test]
    fn a_failing_sink_stops_the_pool() {
        let items: Vec<u64> = (0..1_000).collect();
        for workers in [1, 2, 8] {
            let ran = AtomicUsize::new(0);
            let mut handed = 0;
            let out = Runner::new(workers).map_chunks(
                &items,
                10,
                |x| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    uneven(x)
                },
                |c| {
                    handed += c.len();
                    if handed == 20 {
                        Err(format!("full after {handed}"))
                    } else {
                        Ok(())
                    }
                },
            );
            assert_eq!(out, Err("full after 20".to_string()));
            // No item past the failed chunk starts.
            assert_eq!(ran.load(Ordering::Relaxed), 20, "{workers} workers");
        }
    }

    #[test]
    #[should_panic]
    fn a_panicking_job_stops_the_pool() {
        let items: Vec<u64> = (0..1_000).collect();
        let _ = Runner::new(2).map_chunks(
            &items,
            10,
            |&x| {
                assert_ne!(x, 15, "job 15 fails");
                x
            },
            |_| Ok::<(), Infallible>(()),
        );
    }

    #[test]
    fn job_streams_separate_by_every_component() {
        let cfg = ExperimentConfig {
            inst_count: 1_000,
            seed: 1,
        };
        let a = job_seed_named(cfg, "gzip", 0);
        assert_ne!(a, job_seed_named(cfg, "gzip", 1));
        assert_ne!(a, job_seed_named(cfg, "bzip2", 0));
        assert_ne!(
            a,
            job_seed_named(ExperimentConfig { seed: 2, ..cfg }, "gzip", 0)
        );
        assert_ne!(
            a,
            job_seed_named(
                ExperimentConfig {
                    inst_count: 2_000,
                    ..cfg
                },
                "gzip",
                0
            )
        );
        assert_eq!(a, job_seed_named(cfg, "gzip", 0), "stable");
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = Runner::new(0);
    }
}
