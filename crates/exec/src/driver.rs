//! The shared execution driver.
//!
//! [`RedundantDriver`] owns everything the redundancy schemes used to
//! hand-roll separately: engine construction over a shared
//! [`MemSystem`], per-instruction per-replica interleaving, the
//! functional layer ([`ArchState`] execution, pending-store tracking
//! with cross-replica forwarding, committed memory), segment retry for
//! rollback schemes, golden-run verification, and metrics publication.
//! The scheme-specific 10 % is delegated to a [`RedundancyPolicy`].
//!
//! One entry point, [`RedundantDriver::run`], executes one or more
//! [`Lane`]s (a pair or a TMR triple each) over one shared memory
//! system; a single pair is the one-lane case. Every lane is one
//! discrete-event component ([`crate::sched`]) whose tick executes one
//! instruction across its replicas and opens and closes the policy's
//! segments, so a `Retry` re-executes its segment across later ticks
//! on every kind of run. Lanes are woken exactly at their clocks
//! (lowest lane index on ties — the laggard rule), so requests reach
//! the shared L2 in non-decreasing time order.
//!
//! With [`RedundantDriver::with_l2_contention`], the shared L2 is
//! banked ([`unsync_mem::L2Contention`]): bank conflicts delay the
//! requesting lane and surface as cycle-stamped
//! [`TraceEventKind::L2Contention`] events in that lane's stream. With
//! [`RedundantDriver::with_journal`], every lane keeps its full
//! cycle-stamped event journal ([`EventStream::journal`]). A one-lane
//! strike run given a strike-free [`Lane::reference`] stops at its last
//! strike when every strike left state untouched
//! ([`StrikeVerdict::Neutral`]) and takes the rest of its result from
//! the reference.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

use unsync_fault::uncore::UncoreStrike;
use unsync_fault::PairFault;
use unsync_isa::{golden_run, ArchMemory, ArchState, Inst, TraceProgram};
use unsync_mem::{HierarchyConfig, L2ContentionConfig, L2ContentionEvent, MemSystem};
use unsync_sim::{CoreConfig, OooEngine};

use crate::event::{scheme_counters, EventStream, TraceEventKind, DEFAULT_JOURNAL_CAP};
use crate::outcome::OutcomeCore;
use crate::pending::PendingStores;
use crate::policy::{RedundancyPolicy, SegmentVerdict, StrikeVerdict};
use crate::sched::{self, Component};

/// The per-lane mutable state the driver threads through a run: the
/// engines, the functional layer, the event stream, and the outcome
/// being accumulated. Policies receive `&mut LaneState` in every
/// callback.
pub struct LaneState {
    /// First global core index of this lane (lane `p` of an `n`-replica
    /// system owns cores `p*n .. p*n + n`; single-lane runs start at 0).
    pub core_base: usize,
    /// One engine per replica (global core ids `core_base + i`).
    pub engines: Vec<OooEngine>,
    /// One architectural state per replica.
    pub arch: Vec<ArchState>,
    /// The lane's committed (agreed) memory image.
    pub committed_mem: ArchMemory,
    /// Stores executed but not yet committed (see `PendingStore`).
    pub pending: PendingStores,
    /// The lane's structured trace-event stream.
    pub events: EventStream,
    /// The cycle-stamped bank-conflict events drained from the shared
    /// L2, in drain order. The journal's `L2Contention` entries carry
    /// only the stall; this keeps the bank index so timeline exports
    /// can place each conflict on its bank track, and the published
    /// per-bank histograms are tallied from it. Empty when the
    /// contention model is off.
    pub(crate) l2_events: Vec<L2ContentionEvent>,
    /// The outcome counters being accumulated.
    pub out: OutcomeCore,
    /// Cached wall clock — `max` over the engines, maintained by the
    /// driver (see [`LaneState::now`]).
    clock: u64,
}

impl LaneState {
    pub(crate) fn new(ccfg: CoreConfig, replicas: usize, core_base: usize) -> Self {
        LaneState {
            core_base,
            engines: (0..replicas)
                .map(|c| OooEngine::new(ccfg, core_base + c))
                .collect(),
            arch: (0..replicas).map(|_| ArchState::new()).collect(),
            committed_mem: ArchMemory::new(),
            pending: PendingStores::new(),
            events: EventStream::new(),
            l2_events: Vec::new(),
            out: OutcomeCore::default(),
            clock: 0,
        }
    }

    /// The lane's wall clock: the furthest-ahead replica's time.
    ///
    /// Served from a cache so the scheduler (which reads
    /// it per instruction per lane) does not recompute the max over
    /// engines. The driver refreshes the cache after every point that
    /// can advance an engine — feeds, the per-core policy callbacks,
    /// `after_instruction`/`begin_attempt`/`end_segment`, and
    /// finalization; policies that stall engines outside those windows
    /// (e.g. mid-recovery) call [`LaneState::bump_clock`].
    pub fn now(&self) -> u64 {
        debug_assert_eq!(
            self.clock,
            self.engines.iter().map(|e| e.now()).max().unwrap_or(0),
            "lane clock cache out of sync"
        );
        self.clock
    }

    /// Recomputes the cached wall clock from the engines and mirrors it
    /// into the event stream, so plain [`EventStream::emit`] calls
    /// stamp the current cycle.
    pub(crate) fn sync_clock(&mut self) {
        self.clock = self.engines.iter().map(|e| e.now()).max().unwrap_or(0);
        self.events.set_clock(self.clock);
    }

    /// Raises the cached wall clock to `cycle` (engine clocks only move
    /// forward, so a known lower bound never needs the full recompute).
    /// Mirrored into the event stream like `LaneState::sync_clock`.
    pub fn bump_clock(&mut self, cycle: u64) {
        self.clock = self.clock.max(cycle);
        self.events.set_clock(self.clock);
    }

    /// Commits every pending store both replicas have produced (writes
    /// replica 0's copy) and drops it from the pending set.
    pub fn commit_matched_pending(&mut self) {
        let LaneState {
            pending,
            committed_mem,
            ..
        } = self;
        pending.commit_matched(|addr, value| committed_mem.write(addr, value));
    }

    /// Drains the memory system's pending bank-conflict events into the
    /// lane's stream (called after every scheduled step, so the events
    /// attribute to the lane that issued the requests).
    fn drain_l2_events(&mut self, mem: &mut MemSystem) {
        if let Some(events) = mem.l2_events_mut() {
            for e in events.drain(..) {
                self.l2_events.push(e);
                self.events
                    .emit_at(TraceEventKind::L2Contention, e.stall, e.cycle);
            }
        }
    }
}

/// The result of driving one lane to completion.
///
/// `PartialEq` compares counters, event streams, and the committed
/// memory image — the scheduler-equivalence tests lean on it to assert
/// byte-identical behaviour across scheduler implementations.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The shared outcome counters.
    pub out: OutcomeCore,
    /// The lane's trace-event stream: every scheme-specific counter
    /// (corrections, rollbacks, CB drains, …) is a count or sum of it.
    pub events: EventStream,
    /// The lane's final committed (agreed) memory image.
    pub memory: ArchMemory,
    /// The cycle-stamped bank-conflict events the lane's requests
    /// raised in the shared L2, in drain order (bank index included —
    /// the journal's `L2Contention` entries only keep the stall).
    /// Deterministic like everything else in the cycle domain; empty
    /// when the contention model is off.
    pub l2_events: Vec<L2ContentionEvent>,
}

/// A run's shared counters read straight off its result
/// (`result.cycles`, `result.correct()`).
impl std::ops::Deref for RunResult {
    type Target = OutcomeCore;
    fn deref(&self) -> &OutcomeCore {
        &self.out
    }
}

/// One lane of a [`RedundantDriver::run`]: the trace it executes and
/// what strikes it.
#[derive(Debug, Clone)]
pub struct Lane<'a> {
    /// The instruction trace the lane executes.
    pub trace: &'a TraceProgram,
    /// Core faults, sorted by strike point.
    pub faults: Vec<PairFault>,
    /// Uncore strikes, sorted by cycle and addressed to this lane.
    pub uncore: Vec<UncoreStrike>,
    /// The trace's golden memory image, when the caller has it memoized;
    /// `None` computes it (a trace's golden is unique, so the result is
    /// identical).
    pub golden: Option<&'a ArchMemory>,
    /// The strike-free run of this trace under the same policy and
    /// driver configuration, when the caller has it memoized. It is used
    /// only when the run has this one lane, the lane has no core faults
    /// and at least one uncore strike, and the reference's journal kept
    /// every event. Then, once every strike has been delivered and each
    /// returned [`StrikeVerdict::Neutral`], the lane stops simulating:
    /// the rest of the run is the reference's, so its result is the
    /// reference's counters, memory and bank-conflict events with the
    /// strikes' own events spliced into the replayed event stream — the
    /// same [`RunResult`] the full run gives. The [`MemSystem`] such a
    /// run returns is the system as it was at the stop.
    pub reference: Option<Reference<'a>>,
}

impl<'a> Lane<'a> {
    /// A fault-free lane over `trace`.
    pub fn new(trace: &'a TraceProgram) -> Self {
        Lane {
            trace,
            faults: Vec::new(),
            uncore: Vec::new(),
            golden: None,
            reference: None,
        }
    }
}

/// A finished strike-free run a strike lane may end on
/// ([`Lane::reference`]), borrowed part by part so a memo can share one
/// memory image between the reference and the golden run.
#[derive(Debug, Clone, Copy)]
pub struct Reference<'a> {
    /// The run's outcome counters.
    pub out: OutcomeCore,
    /// The run's event stream, with its journal
    /// ([`RedundantDriver::reference_driver`]).
    pub events: &'a EventStream,
    /// The run's final committed memory image.
    pub memory: &'a ArchMemory,
    /// The run's bank-conflict events.
    pub l2_events: &'a [L2ContentionEvent],
}

impl<'a> Reference<'a> {
    /// The reference view of a whole run.
    pub fn of(run: &'a RunResult) -> Self {
        Reference {
            out: run.out,
            events: &run.events,
            memory: &run.memory,
            l2_events: &run.l2_events,
        }
    }

    /// Whether a lane can end on this run: its journal holds every event.
    fn is_complete(&self) -> bool {
        self.events.journal().is_some() && self.events.journal_dropped() == 0
    }
}

/// The shared redundant-execution driver (see the `driver` module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct RedundantDriver {
    ccfg: CoreConfig,
    hierarchy: HierarchyConfig,
    l2_contention: Option<L2ContentionConfig>,
    journal: Option<usize>,
}

impl RedundantDriver {
    /// A driver building Table I machines from `ccfg`.
    pub fn new(ccfg: CoreConfig) -> Self {
        RedundantDriver {
            ccfg,
            hierarchy: HierarchyConfig::table1(),
            l2_contention: None,
            journal: None,
        }
    }

    /// Enables the banked shared-L2 contention model
    /// ([`unsync_mem::L2Contention`]) on every memory system this
    /// driver builds. Bank-conflict stalls delay the requesting lane
    /// and are re-emitted as cycle-stamped
    /// [`TraceEventKind::L2Contention`] events in that lane's stream.
    pub fn with_l2_contention(mut self, cfg: L2ContentionConfig) -> Self {
        self.l2_contention = Some(cfg);
        self
    }

    /// Keeps every lane's cycle-stamped event journal
    /// ([`EventStream::journal`]), at most `cap` events per lane (off by
    /// default; only timeline exports read it).
    pub fn with_journal(mut self, cap: usize) -> Self {
        self.journal = Some(cap);
        self
    }

    /// This driver with the journal a [`Reference`] needs
    /// ([`DEFAULT_JOURNAL_CAP`] events per lane): the driver to run a
    /// strike-free reference on.
    pub fn reference_driver(&self) -> Self {
        self.clone().with_journal(DEFAULT_JOURNAL_CAP)
    }

    /// Runs one policy per lane over a single shared memory system
    /// (lane `p` on cores `p*n .. p*n + n`, `n` =
    /// `policies[0].replicas()`), scheduled by the discrete-event queue
    /// in [`crate::sched`]. Returns the lane results plus the memory
    /// system for system-level statistics (L2 miss rate, coherence
    /// invalidations).
    ///
    /// Core faults reach the policy's callbacks of the segment they
    /// strike. Each uncore strike reaches
    /// [`RedundancyPolicy::uncore_strike`] at the first tick whose lane
    /// clock has reached its cycle, *before* that tick's instruction;
    /// strikes past the lane's final cycle are delivered at the final
    /// clock.
    ///
    /// # Panics
    ///
    /// On an empty run, a policy count other than the lane count, an
    /// unsorted schedule, a fault core outside the lane's replicas, or
    /// a strike addressed to another lane.
    pub fn run<P: RedundancyPolicy>(
        &self,
        policies: &mut [P],
        lanes: Vec<Lane<'_>>,
    ) -> (Vec<RunResult>, MemSystem) {
        let names: Vec<&'static str> = policies.iter().map(|p| p.name()).collect();
        let (results, mem) = self.run_unpublished(policies, lanes);
        publish(&names, &results);
        (results, mem)
    }

    /// [`RedundantDriver::run`] without publishing the run's metrics:
    /// the registry is left as it was. For runs that are inputs to other
    /// runs rather than results, such as a memoized [`Reference`].
    pub fn run_unpublished<P: RedundancyPolicy>(
        &self,
        policies: &mut [P],
        lanes: Vec<Lane<'_>>,
    ) -> (Vec<RunResult>, MemSystem) {
        let (mut runners, mut mem) = self.start(policies, lanes);
        // Host-domain profile of the tick loop (wall-clock µs, `prof.`
        // namespace only — never the deterministic cycle domain).
        let sched_started = std::time::Instant::now();
        sched::run(&mut runners, &mut mem);
        sched_prof().observe(sched_started.elapsed().as_secs_f64() * 1e6);
        Self::finish(runners, mem)
    }

    /// [`RedundantDriver::run`] over fault-free lanes, one per trace.
    pub fn run_system<P: RedundancyPolicy>(
        &self,
        policies: &mut [P],
        traces: &[TraceProgram],
    ) -> (Vec<RunResult>, MemSystem) {
        self.run(policies, traces.iter().map(Lane::new).collect())
    }

    /// Validates the input, builds the shared memory system (contention
    /// model applied when configured) and one component per lane.
    fn start<'a, P: RedundancyPolicy>(
        &self,
        policies: &'a mut [P],
        lanes: Vec<Lane<'a>>,
    ) -> (Vec<LaneRunner<'a, P>>, MemSystem) {
        assert!(!lanes.is_empty(), "at least one lane");
        assert_eq!(policies.len(), lanes.len(), "one policy per lane");
        let n = policies[0].replicas();
        for (p, lane) in lanes.iter().enumerate() {
            assert!(
                lane.faults.windows(2).all(|w| w[0].at <= w[1].at),
                "faults must be sorted"
            );
            assert!(
                lane.faults.iter().all(|f| f.core < n),
                "fault core out of range"
            );
            assert!(
                lane.uncore.windows(2).all(|w| w[0].cycle <= w[1].cycle),
                "uncore strikes must be sorted by cycle"
            );
            assert!(
                lane.uncore.iter().all(|s| s.lane == p),
                "uncore strike addressed to the wrong lane"
            );
        }
        let alone = lanes.len() == 1;
        let mut mem = MemSystem::new(
            self.hierarchy,
            lanes.len() * n,
            policies[0].l1_write_policy(),
        );
        if let Some(cfg) = self.l2_contention {
            mem.enable_l2_contention(cfg);
        }
        let runners = policies
            .iter_mut()
            .zip(lanes)
            .enumerate()
            .map(|(p, (policy, spec))| {
                // A supplied golden is borrowed, never cloned — only
                // lanes without one pay for a golden execution here.
                let golden = spec
                    .golden
                    .map_or_else(|| Cow::Owned(golden_run(spec.trace).1), Cow::Borrowed);
                let mut lane = LaneState::new(self.ccfg, n, p * n);
                if let Some(cap) = self.journal {
                    lane.events = EventStream::with_journal(cap);
                }
                let insts = spec.trace.insts();
                // Other lanes share the L2 and its contention, and core
                // faults change state the strikes' verdicts do not cover.
                let reference = spec.reference.filter(|r| {
                    alone && spec.faults.is_empty() && !spec.uncore.is_empty() && r.is_complete()
                });
                LaneRunner {
                    policy,
                    insts,
                    golden,
                    lane,
                    idx: 0,
                    seg: 0..0,
                    attempt: 0,
                    open: false,
                    snapshot: Vec::new(),
                    faults: spec.faults,
                    seg_faults: 0..0,
                    uncore: spec.uncore,
                    next_uncore: 0,
                    last_delivery_cycle: 0,
                    reference,
                    strike_events: 0,
                }
            })
            .collect();
        (runners, mem)
    }

    /// Finalizes every lane once the schedule has run dry (see
    /// [`LaneRunner::finish`]); publishes nothing.
    fn finish<P: RedundancyPolicy>(
        runners: Vec<LaneRunner<'_, P>>,
        mut mem: MemSystem,
    ) -> (Vec<RunResult>, MemSystem) {
        let results = runners.into_iter().map(|r| r.finish(&mut mem)).collect();
        (results, mem)
    }

    /// The historical scheduling loop, kept as the differential-test
    /// oracle of [`RedundantDriver::run`]: a linear `min_by_key`
    /// laggard scan (no event queue) over the same lane components and
    /// finalization. `min_by_key` returns the *first* minimum — the
    /// lowest lane index on clock ties, the tie-break the event
    /// scheduler must preserve (`tests/sched_equivalence.rs`).
    #[doc(hidden)]
    pub fn run_system_reference<P: RedundancyPolicy>(
        &self,
        policies: &mut [P],
        lanes: Vec<Lane<'_>>,
    ) -> (Vec<RunResult>, MemSystem) {
        let (mut runners, mut mem) = self.start(policies, lanes);
        while let Some((now, p)) = runners
            .iter()
            .enumerate()
            .filter_map(|(p, r)| Some((r.next_tick()?, p)))
            .min_by_key(|&(now, _)| now)
        {
            runners[p].tick(now, &mut mem);
        }
        let names: Vec<&'static str> = runners.iter().map(|r| r.policy.name()).collect();
        let (results, mem) = Self::finish(runners, mem);
        publish(&names, &results);
        (results, mem)
    }
}

/// Publishes one run's metrics, a function of its results alone: each
/// lane's aggregates under its policy's name (`names[p]` for lane `p`),
/// and the run count and recovery overlap under the first lane's.
fn publish(names: &[&'static str], results: &[RunResult]) {
    // The scheme's metric handles, resolved once per run.
    let scheme = names[0];
    let counters = scheme_counters(scheme);
    counters.runs.inc();
    for (&name, r) in names.iter().zip(results) {
        // A lane whose policy goes by another name publishes under it.
        let lane_counters = if name == scheme {
            Arc::clone(&counters)
        } else {
            scheme_counters(name)
        };
        // Publish run aggregates once per run (never per instruction —
        // the lane loop is the hot path).
        lane_counters.instructions.add(r.out.committed);
        lane_counters.cycles.add(r.out.cycles);
        // Recovery-episode distributions (see `crate::spans`): one MTTR
        // observation per episode, one detection→recovery-start latency
        // observation per episode that carries a detection stamp.
        for ep in r.events.episodes() {
            lane_counters.mttr.observe(ep.stall as f64);
            if let Some(lat) = ep.detection_latency() {
                lane_counters.detect_latency.observe(lat as f64);
            }
        }
        // Per-bank L2 conflict profile: one pre-aggregated observation
        // batch per bank, valued at the bank index — and its stall-
        // cycle companion, weighted by the cycles spent waiting.
        let banks = r.l2_events.iter().map(|e| e.bank + 1).max().unwrap_or(0);
        let (mut conflicts, mut stalls) = (vec![0u64; banks], vec![0u64; banks]);
        for e in &r.l2_events {
            conflicts[e.bank] += 1;
            stalls[e.bank] += e.stall;
        }
        for (bank, (&n, &stall)) in conflicts.iter().zip(&stalls).enumerate() {
            lane_counters.l2_banks.observe_n(bank as f64, n);
            lane_counters.l2_bank_stalls.observe_n(bank as f64, stall);
        }
        r.events.publish_to(&lane_counters);
        // Journal overflow is a health signal: a truncated journal
        // silently under-reports the cycle timeline, so the drop count
        // is surfaced process-wide for the dashboard's health line.
        let dropped = r.events.journal_dropped();
        if dropped > 0 {
            unsync_sim::metrics::global()
                .counter("exec.journal_dropped")
                .add(dropped);
        }
    }
    // System-level recovery concurrency: the fraction of recovery
    // time during which two or more lanes were recovering at once
    // (see `crate::spans::overlap_fraction`).
    let all_episodes: Vec<crate::spans::Episode> = results
        .iter()
        .flat_map(|r| r.events.episodes().iter().copied())
        .collect();
    counters.set_recovery_overlap(scheme, crate::spans::overlap_fraction(&all_episodes));
}

/// Folds a finished lane's event stream into its counters and checks
/// `memory` against the golden image (`requires_recoverable`: an
/// unrecoverable event fails the check whatever the image holds).
fn settle(
    out: &mut OutcomeCore,
    events: &EventStream,
    golden: &ArchMemory,
    requires_recoverable: bool,
    memory: &ArchMemory,
) {
    out.detections = events.count(TraceEventKind::Detection);
    out.recoveries = events.count(TraceEventKind::RecoveryEnd);
    out.recovery_stall_cycles = events.sum(TraceEventKind::RecoveryEnd);
    out.unrecoverable = events.count(TraceEventKind::Unrecoverable);
    out.silent_faults = events.count(TraceEventKind::SilentFault);
    let recoverable = !requires_recoverable || out.unrecoverable == 0;
    out.memory_matches_golden =
        recoverable && golden.iter().all(|(addr, val)| memory.read(addr) == val);
}

/// The cached `prof.sched.run` histogram handle (µs per scheduler
/// invocation), resolved once per process so campaign engines never pay
/// the registry lock per job.
fn sched_prof() -> &'static unsync_sim::metrics::Histogram {
    static H: std::sync::OnceLock<unsync_sim::metrics::Histogram> = std::sync::OnceLock::new();
    H.get_or_init(|| unsync_sim::metrics::prof_histogram("sched.run"))
}

/// One lane as a discrete-event component: wakes at its cached lane
/// clock, executes exactly one instruction across all replicas, and
/// goes back to sleep at the advanced clock (or retires once its trace
/// is exhausted). It carries the policy's current segment, which spans
/// as many ticks as it has instructions; a `Retry` rewinds the lane to
/// the segment start. The shared [`MemSystem`] is the scheduler
/// context, touched only by the lane currently awake.
struct LaneRunner<'a, P: RedundancyPolicy> {
    policy: &'a mut P,
    insts: &'a [Inst],
    /// The golden image the final memory is verified against.
    golden: Cow<'a, ArchMemory>,
    lane: LaneState,
    /// The next instruction to execute.
    idx: usize,
    /// The current segment.
    seg: Range<usize>,
    /// The current segment's attempt (0 = first execution).
    attempt: u32,
    /// Whether the current attempt has begun (`begin_attempt` ran).
    open: bool,
    /// The replicas' state at the segment start (rollback policies).
    snapshot: Vec<ArchState>,
    /// The lane's prepared fault schedule, sorted by strike point.
    faults: Vec<PairFault>,
    /// The faults striking inside `seg` (a window into `faults`).
    seg_faults: Range<usize>,
    /// The lane's uncore strike schedule, sorted by strike cycle.
    uncore: Vec<UncoreStrike>,
    /// Cursor into `uncore`: first strike not yet delivered.
    next_uncore: usize,
    /// Lane clock at the last tick that delivered any fault — the
    /// cycle-ordering witness for the delivery contract (core faults
    /// address instructions by sequence number; this pins down that
    /// their *delivery cycles* still advance monotonically, so an
    /// uncore strike delivered earlier by cycle can never be reordered
    /// after a core fault delivered later).
    last_delivery_cycle: u64,
    /// The strike-free run this lane may end on ([`Lane::reference`]);
    /// dropped at the first strike that is not neutral.
    reference: Option<Reference<'a>>,
    /// Events the strike deliveries emitted into `lane.events`.
    strike_events: u64,
}

impl<P: RedundancyPolicy> LaneRunner<'_, P> {
    /// Whether the lane ended on its reference: every strike has been
    /// delivered and none changed state.
    fn stopped(&self) -> bool {
        self.reference.is_some() && self.next_uncore == self.uncore.len()
    }

    /// Finalizes the lane once the schedule has run dry — late strikes,
    /// policy epilogue, counters from the event stream, golden check —
    /// or, for a lane that ended on its reference, splices the rest of
    /// the reference's run in instead.
    fn finish(self, mem: &mut MemSystem) -> RunResult {
        let stopped = self.stopped();
        let LaneRunner {
            policy,
            golden,
            mut lane,
            uncore,
            next_uncore,
            reference,
            strike_events,
            ..
        } = self;
        let requires_recoverable = policy.golden_requires_recoverable();
        if let (true, Some(reference)) = (stopped, reference) {
            // Up to the stop the lane ran as the reference did, plus the
            // strikes' events; after it, the reference's events follow
            // with their own stamps (a strike never raises the stream
            // clock, so none of them moves).
            let mut events = lane.events;
            let replayed = (events.emitted() - strike_events) as usize;
            let rest = reference
                .events
                .journal()
                .and_then(|j| j.get(replayed..))
                .expect("the reference is this lane's strike-free run");
            for ev in rest {
                events.emit_at(ev.kind, ev.value, ev.cycle);
            }
            events.set_clock(reference.events.clock());
            let mut out = reference.out;
            settle(
                &mut out,
                &events,
                &golden,
                requires_recoverable,
                reference.memory,
            );
            return RunResult {
                out,
                events,
                memory: reference.memory.clone(),
                l2_events: reference.l2_events.to_vec(),
            };
        }
        // Strikes past the lane's last tick: deliver them at the final
        // clock, where state is usually dead (masked) — a schedule must
        // never silently lose strikes.
        for strike in &uncore[next_uncore..] {
            policy.uncore_strike(mem, &mut lane, strike);
            lane.sync_clock();
        }
        lane.sync_clock();
        lane.out.cycles = lane.now();
        policy.finish(mem, &mut lane);
        settle(
            &mut lane.out,
            &lane.events,
            &golden,
            requires_recoverable,
            &lane.committed_mem,
        );
        RunResult {
            out: lane.out,
            events: lane.events,
            memory: lane.committed_mem,
            l2_events: lane.l2_events,
        }
    }

    /// Starts an attempt of the segment at `idx`. The first attempt
    /// also picks the segment's end, its fault window and (for rollback
    /// policies) its snapshot; a retry reuses all three.
    fn begin_attempt(&mut self, wake: u64) {
        let rolls_back = self.policy.rolls_back();
        if self.attempt == 0 {
            let end = self.policy.segment_end(self.insts, self.idx);
            debug_assert!(
                self.idx < end && end <= self.insts.len(),
                "bad segment bounds"
            );
            self.seg = self.idx..end;
            // Faults striking inside this segment. Retries see the same
            // window with `first_attempt == false`: single-event upsets
            // are transient, only their *state* effects persist.
            let lo = self.seg_faults.end;
            let hi = lo + self.faults[lo..].partition_point(|f| f.at < end as u64);
            self.seg_faults = lo..hi;
            if lo < hi {
                // The cycle-ordering half of the delivery contract: a
                // core fault's delivery cycle never precedes an already
                // delivered strike's cycle (lane clocks are monotonic,
                // so this can only trip if delivery is reordered).
                debug_assert!(
                    wake >= self.last_delivery_cycle,
                    "core fault delivered behind an earlier strike's cycle"
                );
                self.last_delivery_cycle = wake;
            }
            if rolls_back {
                self.snapshot.clone_from(&self.lane.arch);
            }
        }
        if rolls_back {
            self.lane.pending.clear();
        }
        self.policy.begin_attempt(&mut self.lane, self.attempt);
        self.lane.sync_clock();
        self.open = true;
    }

    /// Instruction `idx` across every replica — engine feed, then the
    /// functional layer with the policy's transforms — followed by the
    /// policy's per-instruction callback.
    fn step(&mut self, mem: &mut MemSystem) {
        let LaneRunner {
            policy,
            insts,
            lane,
            idx,
            attempt,
            faults,
            seg_faults,
            ..
        } = self;
        let inst = &insts[*idx];
        let seq = *idx as u64;
        let faults = &faults[seg_faults.clone()];
        let first_attempt = *attempt == 0;
        // Pending entries are pair-shaped: a pair forwards and records
        // through them. Any other width commits a store once every
        // replica produced the same copy (a lone replica's at once).
        let paired = policy.replicas() == 2;
        let (mut store, mut unanimous) = (None, true);
        for core in 0..lane.engines.len() {
            let timing = lane.engines[core].feed(inst, mem, policy.hooks_mut(core));
            lane.bump_clock(lane.engines[core].now());

            policy.pre_execute(lane, inst, core, seq, faults, first_attempt);
            let raw = inst.mem.map(|m| m.addr).unwrap_or(0);
            let addr = policy.effective_addr(lane, inst, core, seq, raw, faults, first_attempt);
            // Load value: own pending stores first (store forwarding),
            // then committed memory.
            let loaded = if inst.op.is_load() {
                let fwd = if paired {
                    lane.pending.forward(core, addr & !7)
                } else {
                    None
                };
                Some(fwd.unwrap_or_else(|| lane.committed_mem.read(addr)))
            } else {
                None
            };
            let mut result = lane.arch[core].compute(inst, loaded);
            result = policy.transform_result(lane, inst, core, seq, result, faults, first_attempt);
            if inst.op.is_store() {
                if paired {
                    lane.pending.record(core, seq, addr & !7, result);
                } else {
                    unanimous &= store.is_none_or(|s| s == (addr, result));
                    store = Some((addr, result));
                }
                policy.store_executed(mem, lane, inst, core, seq, addr, result, timing);
                lane.bump_clock(lane.engines[core].now());
            }
            if let Some(d) = inst.arch_dest() {
                lane.arch[core].write(d, result);
            }
            policy.executed(lane, inst, core, seq, result);
        }
        if let (Some((addr, value)), true) = (store, unanimous) {
            lane.committed_mem.write(addr, value);
        }
        policy.after_instruction(mem, lane, inst, seq, faults, first_attempt);
        lane.sync_clock();
    }

    /// Closes the current attempt at the segment's last instruction:
    /// commits on `Commit`/`Abandon`, or restores the snapshot and
    /// rewinds to the segment start on `Retry`.
    fn end_attempt(&mut self, mem: &mut MemSystem) {
        let verdict = self.policy.end_segment(
            mem,
            &mut self.lane,
            self.insts,
            self.seg.start,
            self.seg.end,
            self.attempt,
        );
        self.lane.sync_clock();
        self.open = false;
        match verdict {
            SegmentVerdict::Commit | SegmentVerdict::Abandon => {
                if self.policy.rolls_back() {
                    // Verified (or abandoned): release one instance of
                    // each store.
                    for p in self.lane.pending.drain() {
                        self.lane.committed_mem.write(p.addr[0], p.value[0]);
                    }
                }
                self.lane.out.committed += self.seg.len() as u64;
                self.attempt = 0;
            }
            SegmentVerdict::Retry => {
                self.attempt += 1;
                for (a, s) in self.lane.arch.iter_mut().zip(&self.snapshot) {
                    a.copy_from(s);
                }
                self.idx = self.seg.start;
            }
        }
    }
}

impl<P: RedundancyPolicy> Component for LaneRunner<'_, P> {
    type Ctx = MemSystem;

    fn next_tick(&self) -> Option<u64> {
        (self.idx < self.insts.len() && !self.stopped()).then(|| self.lane.now())
    }

    fn tick(&mut self, _now: u64, mem: &mut MemSystem) {
        // Uncore strikes due at this wake-up, in cycle order, BEFORE
        // the instruction (and thus before any core fault of the same
        // tick — the uncore→core delivery order within a tick is a
        // defined contract, not a race). Strikes becoming due while a
        // delivery stalls the lane wait for the next tick.
        let wake = self.lane.now();
        while self
            .uncore
            .get(self.next_uncore)
            .is_some_and(|s| s.cycle <= wake)
        {
            let strike = self.uncore[self.next_uncore];
            let emitted = self.lane.events.emitted();
            let verdict = self.policy.uncore_strike(mem, &mut self.lane, &strike);
            self.lane.sync_clock();
            self.lane.drain_l2_events(mem);
            self.strike_events += self.lane.events.emitted() - emitted;
            if verdict == StrikeVerdict::Perturbed {
                self.reference = None;
            }
            debug_assert!(
                wake >= self.last_delivery_cycle,
                "uncore strike delivered behind an earlier fault's cycle"
            );
            self.last_delivery_cycle = wake;
            self.next_uncore += 1;
        }
        if self.stopped() {
            // The rest of the run is the reference's (see `finish`).
            return;
        }
        if !self.open {
            self.begin_attempt(wake);
        }
        self.step(mem);
        self.idx += 1;
        if self.idx == self.seg.end {
            self.end_attempt(mem);
        }
        // After the segment boundary, so requests the boundary issues
        // attribute to this lane too.
        self.lane.drain_l2_events(mem);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsync_sim::NullHooks;
    use unsync_workloads::{Benchmark, SyntheticSource, WorkloadSource};

    /// The minimal policy: plain duplex execution, no detection, no
    /// recovery — exactly the "new redundancy scheme" recipe floor.
    struct MinimalDuplex {
        hooks: [NullHooks; 2],
    }

    impl RedundancyPolicy for MinimalDuplex {
        type Hooks = NullHooks;

        fn name(&self) -> &'static str {
            "minimal_duplex"
        }

        fn hooks_mut(&mut self, core: usize) -> &mut NullHooks {
            &mut self.hooks[core]
        }

        fn after_instruction(
            &mut self,
            _mem: &mut MemSystem,
            lane: &mut LaneState,
            _inst: &Inst,
            _seq: u64,
            _faults: &[PairFault],
            _first_attempt: bool,
        ) {
            lane.commit_matched_pending();
        }
    }

    #[test]
    fn minimal_policy_is_a_complete_scheme() {
        let t = SyntheticSource::new(Benchmark::Gzip, 2_000, 3).trace();
        let driver = RedundantDriver::new(CoreConfig::table1());
        let policy = MinimalDuplex {
            hooks: [NullHooks, NullHooks],
        };
        let res = &driver.run(&mut [policy], vec![Lane::new(&t)]).0[0];
        assert_eq!(res.out.committed, 2_000);
        assert!(res.out.cycles > 0);
        assert!(res.out.correct(), "{:?}", res.out);
    }

    /// The floor at other redundancy degrees: `name`, `replicas` and
    /// `hooks_mut` only, so every store commits through the driver's
    /// unanimous-store rule.
    struct Minimal {
        hooks: Vec<NullHooks>,
    }

    impl RedundancyPolicy for Minimal {
        type Hooks = NullHooks;

        fn name(&self) -> &'static str {
            "minimal"
        }

        fn replicas(&self) -> usize {
            self.hooks.len()
        }

        fn hooks_mut(&mut self, core: usize) -> &mut NullHooks {
            &mut self.hooks[core]
        }
    }

    #[test]
    fn minimal_one_and_three_replica_policies_commit_their_stores() {
        let t = SyntheticSource::new(Benchmark::Gzip, 2_000, 3).trace();
        assert!(t.insts().iter().any(|i| i.op.is_store()));
        let golden = golden_run(&t).1;
        let driver = RedundantDriver::new(CoreConfig::table1());
        for n in [1, 3] {
            let policy = Minimal {
                hooks: vec![NullHooks; n],
            };
            let res = &driver.run(&mut [policy], vec![Lane::new(&t)]).0[0];
            assert_eq!(res.committed, 2_000, "{n} replicas");
            assert!(res.correct(), "{n} replicas: {:?}", res.out);
            assert!(golden.iter().all(|(addr, v)| res.memory.read(addr) == v));
        }
    }

    #[test]
    fn driver_runs_are_deterministic() {
        let t = SyntheticSource::new(Benchmark::Qsort, 1_500, 9).trace();
        let driver = RedundantDriver::new(CoreConfig::table1());
        let run = || {
            let policy = MinimalDuplex {
                hooks: [NullHooks, NullHooks],
            };
            driver.run(&mut [policy], vec![Lane::new(&t)]).0.remove(0)
        };
        assert_eq!(run().out, run().out);
    }

    #[test]
    #[should_panic(expected = "faults must be sorted")]
    fn unsorted_faults_rejected() {
        use unsync_fault::{FaultKind, FaultSite, FaultTarget};
        let t = SyntheticSource::new(Benchmark::Gzip, 100, 1).trace();
        let f = |at| PairFault {
            at,
            core: 0,
            site: FaultSite {
                target: FaultTarget::Rob,
                bit_offset: 1,
            },
            kind: FaultKind::Single,
        };
        let driver = RedundantDriver::new(CoreConfig::table1());
        let policy = MinimalDuplex {
            hooks: [NullHooks, NullHooks],
        };
        let mut lane = Lane::new(&t);
        lane.faults = vec![f(50), f(10)];
        let _ = driver.run(&mut [policy], vec![lane]);
    }
}
