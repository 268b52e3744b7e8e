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
//! Two entry points:
//! * [`RedundantDriver::run`] — one lane (a pair or N-way group)
//!   executing one trace;
//! * [`RedundantDriver::run_system`] — several lanes over one shared
//!   memory system, scheduled as discrete-event components
//!   ([`crate::sched`]): each lane is woken exactly at its clock
//!   (smallest first, lowest lane index on ties — the laggard rule),
//!   so requests reach the shared L2 in non-decreasing time order and
//!   stalled or finished lanes cost zero work between wake-ups.
//!
//! With [`RedundantDriver::with_l2_contention`], the shared L2 is
//! banked ([`unsync_mem::L2Contention`]): bank conflicts delay the
//! requesting lane and surface as cycle-stamped
//! [`TraceEventKind::L2Contention`] events in that lane's stream.

use std::sync::Arc;

use unsync_fault::uncore::UncoreStrike;
use unsync_fault::PairFault;
use unsync_isa::{golden_run, ArchMemory, ArchState, Inst, TraceProgram};
use unsync_mem::{HierarchyConfig, L2ContentionConfig, L2ContentionEvent, MemSystem};
use unsync_sim::{CoreConfig, OooEngine};

use crate::event::{scheme_counters, EventStream, SchemeCounters, TraceEventKind};
use crate::outcome::OutcomeCore;
use crate::pending::PendingStores;
use crate::policy::{RedundancyPolicy, SegmentVerdict};
use crate::sched::{self, Component};

pub use crate::pending::PendingStore;

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
    /// Stores executed but not yet committed (see [`PendingStore`]).
    pub pending: PendingStores,
    /// The lane's structured trace-event stream.
    pub events: EventStream,
    /// Per-bank L2 conflict tallies (index = bank), accumulated while
    /// draining [`unsync_mem::L2ContentionEvent`]s and published as the
    /// scheme's `l2_bank_conflicts` histogram at finalization. Empty
    /// when the contention model is off.
    pub bank_conflicts: Vec<u64>,
    /// Per-bank L2 stall-cycle tallies (index = bank), the cycle-
    /// weighted companion of [`LaneState::bank_conflicts`]; published
    /// as the scheme's `l2_bank_stalls` histogram at finalization.
    pub bank_stalls: Vec<u64>,
    /// The cycle-stamped bank-conflict events drained from the shared
    /// L2, in drain order. The journal's `L2Contention` entries carry
    /// only the stall; this keeps the bank index so timeline exports
    /// can place each conflict on its bank track. Empty when the
    /// contention model is off.
    pub l2_events: Vec<L2ContentionEvent>,
    /// The outcome counters being accumulated.
    pub out: OutcomeCore,
    /// Cached wall clock — `max` over the engines, maintained by the
    /// driver (see [`LaneState::now`]).
    clock: u64,
}

impl LaneState {
    fn new(ccfg: CoreConfig, replicas: usize, core_base: usize) -> Self {
        LaneState {
            core_base,
            engines: (0..replicas)
                .map(|c| OooEngine::new(ccfg, core_base + c))
                .collect(),
            arch: (0..replicas).map(|_| ArchState::new()).collect(),
            committed_mem: ArchMemory::new(),
            pending: PendingStores::new(),
            events: EventStream::new(),
            bank_conflicts: Vec::new(),
            bank_stalls: Vec::new(),
            l2_events: Vec::new(),
            out: OutcomeCore::default(),
            clock: 0,
        }
    }

    /// The lane's wall clock: the furthest-ahead replica's time.
    ///
    /// Served from a cache so the `run_system` scheduler (which reads
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
    pub fn sync_clock(&mut self) {
        self.clock = self.engines.iter().map(|e| e.now()).max().unwrap_or(0);
        self.events.set_clock(self.clock);
    }

    /// Raises the cached wall clock to `cycle` (engine clocks only move
    /// forward, so a known lower bound never needs the full recompute).
    /// Mirrored into the event stream like [`LaneState::sync_clock`].
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
    /// The lane's trace-event stream (policies' outcome extensions are
    /// derived from it).
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

/// The shared redundant-execution driver (see the [module docs]).
///
/// [module docs]: crate::driver
pub struct RedundantDriver {
    ccfg: CoreConfig,
    hierarchy: HierarchyConfig,
    l2_contention: Option<L2ContentionConfig>,
}

impl RedundantDriver {
    /// A driver building Table I machines from `ccfg`.
    pub fn new(ccfg: CoreConfig) -> Self {
        RedundantDriver {
            ccfg,
            hierarchy: HierarchyConfig::table1(),
            l2_contention: None,
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

    /// A memory system for `cores` cores, with the contention model
    /// applied when configured.
    fn build_mem(&self, cores: usize, wp: unsync_mem::WritePolicy) -> MemSystem {
        let mut mem = MemSystem::new(self.hierarchy, cores, wp);
        if let Some(cfg) = self.l2_contention {
            mem.enable_l2_contention(cfg);
        }
        mem
    }

    /// Drains the memory system's pending bank-conflict events into the
    /// stepping lane's stream (called after every scheduled step, so the
    /// events attribute to the lane that issued the requests).
    fn drain_l2_events(mem: &mut MemSystem, lane: &mut LaneState) {
        if let Some(events) = mem.l2_events_mut() {
            for e in events.drain(..) {
                if lane.bank_conflicts.len() <= e.bank {
                    lane.bank_conflicts.resize(e.bank + 1, 0);
                    lane.bank_stalls.resize(e.bank + 1, 0);
                }
                lane.bank_conflicts[e.bank] += 1;
                lane.bank_stalls[e.bank] += e.stall;
                lane.l2_events.push(e);
                lane.events
                    .emit_at(TraceEventKind::L2Contention, e.stall, e.cycle);
            }
        }
    }

    /// Runs one lane over `trace` with the given fault schedule
    /// (sorted by strike point).
    pub fn run<P: RedundancyPolicy>(
        &self,
        policy: &mut P,
        trace: &TraceProgram,
        faults: &[PairFault],
    ) -> RunResult {
        self.run_with_golden(policy, trace, faults, None)
    }

    /// Like [`RedundantDriver::run`], but verifying the final memory
    /// image against a caller-supplied golden image instead of
    /// re-executing the golden run. Fault campaigns re-run one trace
    /// hundreds of times; computing [`golden_run`] once and passing it
    /// here removes that per-run cost. `None` falls back to computing
    /// it (the golden of a trace is unique, so the result is identical).
    pub fn run_with_golden<P: RedundancyPolicy>(
        &self,
        policy: &mut P,
        trace: &TraceProgram,
        faults: &[PairFault],
        golden: Option<&ArchMemory>,
    ) -> RunResult {
        assert!(
            faults.windows(2).all(|w| w[0].at <= w[1].at),
            "faults must be sorted"
        );
        let n = policy.replicas();
        assert!(faults.iter().all(|f| f.core < n), "fault core out of range");
        let computed: Option<ArchMemory>;
        let golden: Option<&ArchMemory> = if policy.verify_golden() {
            match golden {
                Some(g) => Some(g),
                None => {
                    computed = Some(golden_run(trace).1);
                    computed.as_ref()
                }
            }
        } else {
            None
        };
        let mut mem = self.build_mem(n, policy.l1_write_policy());
        let mut lane = LaneState::new(self.ccfg, n, 0);
        let insts = trace.insts();
        let fault_list = policy.prepare_faults(insts, faults.to_vec(), &mut lane.events);
        debug_assert!(
            fault_list.windows(2).all(|w| w[0].at <= w[1].at),
            "prepare_faults must keep the schedule sorted"
        );
        self.drive_lane(policy, &mut mem, &mut lane, insts, &fault_list);
        let counters = scheme_counters(policy.name());
        counters.runs.inc();
        self.finalize(policy, &mut mem, &mut lane, golden, &counters);
        RunResult {
            out: lane.out,
            events: lane.events,
            memory: lane.committed_mem,
            l2_events: lane.l2_events,
        }
    }

    /// Runs one per-instruction-policy lane per trace over a single
    /// shared memory system (lane `p` on cores `p*n .. p*n + n`),
    /// scheduled by the discrete-event queue in [`crate::sched`].
    /// Returns the lane results plus the memory system for system-level
    /// statistics (L2 miss rate, coherence invalidations).
    pub fn run_system<P: RedundancyPolicy>(
        &self,
        policies: &mut [P],
        traces: &[TraceProgram],
    ) -> (Vec<RunResult>, MemSystem) {
        self.run_system_with_faults(policies, traces, &[])
    }

    /// Like [`RedundantDriver::run_system`], but striking the lanes
    /// with per-lane fault schedules (`faults[p]` hits lane `p`, sorted
    /// by strike point; an empty outer slice means no faults anywhere).
    /// Faults are run through each policy's
    /// [`RedundancyPolicy::prepare_faults`] and delivered to the
    /// per-instruction callbacks of the instruction they strike, so
    /// detection/recovery behaves exactly as in single-lane campaigns —
    /// this is what lets the lane sweep report MTTR under contention.
    pub fn run_system_with_faults<P: RedundancyPolicy>(
        &self,
        policies: &mut [P],
        traces: &[TraceProgram],
        faults: &[Vec<PairFault>],
    ) -> (Vec<RunResult>, MemSystem) {
        self.run_system_inner(policies, traces, faults, &[], false, &[])
    }

    /// Like [`RedundantDriver::run_system_with_faults`], but
    /// additionally striking *uncore* state ([`UncoreStrike`]) by
    /// cycle: `uncore[p]` hits lane `p`, sorted by strike cycle. Each
    /// strike is handed to the lane policy's
    /// [`RedundancyPolicy::uncore_strike`] at the first tick whose lane
    /// clock has reached the strike cycle, *before* that tick's
    /// instruction (and therefore before any core-side fault of the
    /// same tick — within a tick the uncore→core delivery order is a
    /// defined contract, not a race). Strikes scheduled past the lane's
    /// final cycle are delivered once at the final clock, where they
    /// mostly find dead state.
    ///
    /// Every lane's event stream has the cycle-stamped journal forced
    /// on (the ROEC classifier reads it); journals are excluded from
    /// [`EventStream`] equality, so a zero-strike call remains
    /// result-identical to [`RedundantDriver::run_system`].
    pub fn run_system_with_uncore_faults<P: RedundancyPolicy>(
        &self,
        policies: &mut [P],
        traces: &[TraceProgram],
        faults: &[Vec<PairFault>],
        uncore: &[Vec<UncoreStrike>],
    ) -> (Vec<RunResult>, MemSystem) {
        self.run_system_inner(policies, traces, faults, uncore, true, &[])
    }

    /// Runs one single-lane campaign job: lane 0 of a one-lane system
    /// with the given core-fault and uncore-strike schedules and the
    /// cycle-stamped journal forced on. Batched campaign engines expand
    /// grids into thousands of such jobs; this entry point keeps every
    /// job on the exact
    /// [`RedundantDriver::run_system_with_uncore_faults`] path without
    /// each caller assembling one-element schedule vectors, and lets
    /// the caller supply a memoized golden image so the driver skips
    /// the per-job [`golden_run`] re-execution. The golden of a trace
    /// is unique, so results are bit-identical either way — `None`
    /// simply pays the recomputation, which is what the pre-campaign
    /// sequential path did on every job.
    pub fn run_campaign_lane<P: RedundancyPolicy>(
        &self,
        mut policy: P,
        trace: &TraceProgram,
        faults: Vec<PairFault>,
        uncore: Vec<UncoreStrike>,
        golden: Option<&ArchMemory>,
    ) -> RunResult {
        let fault_sched: Vec<Vec<PairFault>> = if faults.is_empty() {
            Vec::new()
        } else {
            vec![faults]
        };
        let uncore_sched: Vec<Vec<UncoreStrike>> = if uncore.is_empty() {
            Vec::new()
        } else {
            vec![uncore]
        };
        let (mut results, _mem) = self.run_system_inner(
            std::slice::from_mut(&mut policy),
            std::slice::from_ref(trace),
            &fault_sched,
            &uncore_sched,
            true,
            &[golden],
        );
        results.remove(0)
    }

    fn run_system_inner<P: RedundancyPolicy>(
        &self,
        policies: &mut [P],
        traces: &[TraceProgram],
        faults: &[Vec<PairFault>],
        uncore: &[Vec<UncoreStrike>],
        journal: bool,
        supplied_goldens: &[Option<&ArchMemory>],
    ) -> (Vec<RunResult>, MemSystem) {
        assert!(!traces.is_empty(), "at least one pair");
        assert_eq!(policies.len(), traces.len(), "one policy per lane");
        assert!(
            faults.is_empty() || faults.len() == traces.len(),
            "one fault schedule per lane (or none at all)"
        );
        assert!(
            uncore.is_empty() || uncore.len() == traces.len(),
            "one uncore schedule per lane (or none at all)"
        );
        let lanes = traces.len();
        let n = policies[0].replicas();
        let mut mem = self.build_mem(lanes * n, policies[0].l1_write_policy());
        // A caller-supplied golden (memoized across a campaign)
        // replaces the per-lane golden_run; the golden of a trace is
        // unique, so the result is identical. Supplied images are
        // borrowed, never cloned — only lanes without one pay for a
        // golden execution here.
        let computed_goldens: Vec<Option<ArchMemory>> = traces
            .iter()
            .zip(policies.iter())
            .enumerate()
            .map(|(p, (t, pol))| {
                if !pol.verify_golden() || supplied_goldens.get(p).copied().flatten().is_some() {
                    None
                } else {
                    Some(golden_run(t).1)
                }
            })
            .collect();
        let goldens: Vec<Option<&ArchMemory>> = policies
            .iter()
            .enumerate()
            .map(|(p, pol)| {
                if !pol.verify_golden() {
                    return None;
                }
                supplied_goldens
                    .get(p)
                    .copied()
                    .flatten()
                    .or_else(|| computed_goldens[p].as_ref())
            })
            .collect();
        let scheme = policies[0].name();

        // One scheduler component per lane. The event queue always
        // advances the lane whose cores are furthest behind, so
        // requests reach the shared L2 (whose MSHR bookkeeping assumes
        // roughly non-decreasing times) in realistic order even when
        // one lane runs much faster than another; ties pop the lowest
        // lane index (the laggard rule), which is what keeps results
        // byte-identical with the historical `min_by_key` scan
        // (`run_system_reference`, pinned by `tests/sched_equivalence`).
        let mut runners: Vec<LaneRunner<'_, P>> = policies
            .iter_mut()
            .zip(traces.iter())
            .enumerate()
            .map(|(p, (policy, trace))| {
                let mut lane = LaneState::new(self.ccfg, n, p * n);
                if journal {
                    lane.events = EventStream::with_journal(crate::event::DEFAULT_JOURNAL_CAP);
                }
                let lane_uncore: Vec<UncoreStrike> = match uncore.get(p) {
                    Some(u) if !u.is_empty() => {
                        assert!(
                            u.windows(2).all(|w| w[0].cycle <= w[1].cycle),
                            "uncore strikes must be sorted by cycle"
                        );
                        assert!(
                            u.iter().all(|s| s.lane == p),
                            "uncore strike addressed to the wrong lane"
                        );
                        u.clone()
                    }
                    _ => Vec::new(),
                };
                let lane_faults = match faults.get(p) {
                    Some(f) if !f.is_empty() => {
                        assert!(
                            f.windows(2).all(|w| w[0].at <= w[1].at),
                            "faults must be sorted"
                        );
                        assert!(f.iter().all(|f| f.core < n), "fault core out of range");
                        let prepared =
                            policy.prepare_faults(trace.insts(), f.clone(), &mut lane.events);
                        debug_assert!(
                            prepared.windows(2).all(|w| w[0].at <= w[1].at),
                            "prepare_faults must keep the schedule sorted"
                        );
                        prepared
                    }
                    _ => Vec::new(),
                };
                LaneRunner {
                    driver: self,
                    policy,
                    trace,
                    lane,
                    idx: 0,
                    faults: lane_faults,
                    next_fault: 0,
                    uncore: lane_uncore,
                    next_uncore: 0,
                    last_delivery_cycle: 0,
                }
            })
            .collect();
        // Host-domain profile of the discrete-event tick loop: the
        // handle is resolved once per process (the cached-handle rule),
        // the observation is wall-clock microseconds, and the number
        // lands only in the `prof.` namespace — never in the
        // deterministic cycle domain.
        let sched_started = std::time::Instant::now();
        sched::run(&mut runners, &mut mem);
        sched_prof().observe(sched_started.elapsed().as_secs_f64() * 1e6);

        // The scheme's metric handles, resolved once per run.
        let counters = scheme_counters(scheme);
        counters.runs.inc();
        let mut results = Vec::with_capacity(lanes);
        for (runner, golden) in runners.into_iter().zip(goldens.iter()) {
            let LaneRunner {
                policy,
                mut lane,
                uncore: lane_uncore,
                next_uncore,
                ..
            } = runner;
            // Strikes past the lane's last tick: deliver them at the
            // final clock, where state is usually dead (masked) — a
            // schedule must never silently lose strikes.
            for strike in &lane_uncore[next_uncore..] {
                policy.uncore_strike(&mut mem, &mut lane, strike);
                lane.sync_clock();
            }
            let lane_counters = Self::lane_counters(&counters, scheme, policy.name());
            self.finalize(policy, &mut mem, &mut lane, *golden, &lane_counters);
            results.push(RunResult {
                out: lane.out,
                events: lane.events,
                memory: lane.committed_mem,
                l2_events: lane.l2_events,
            });
        }
        // System-level recovery concurrency: the fraction of recovery
        // time during which two or more lanes were recovering at once
        // (see `crate::spans::overlap_fraction`).
        let all_episodes: Vec<crate::spans::Episode> = results
            .iter()
            .flat_map(|r| r.events.episodes().iter().copied())
            .collect();
        counters.set_recovery_overlap(scheme, crate::spans::overlap_fraction(&all_episodes));
        (results, mem)
    }

    /// The historical `run_system` loop, kept as the differential-test
    /// oracle: a linear `min_by_key` laggard scan over the lanes (no
    /// event queue, no faults). `min_by_key` returns the *first*
    /// minimum, i.e. the lowest lane index on clock ties — the exact
    /// tie-break contract the event scheduler must preserve.
    /// `tests/sched_equivalence.rs` asserts byte-identical results
    /// between this and [`RedundantDriver::run_system`].
    #[doc(hidden)]
    pub fn run_system_reference<P: RedundancyPolicy>(
        &self,
        policies: &mut [P],
        traces: &[TraceProgram],
    ) -> (Vec<RunResult>, MemSystem) {
        assert!(!traces.is_empty(), "at least one pair");
        assert_eq!(policies.len(), traces.len(), "one policy per lane");
        let lanes = traces.len();
        let n = policies[0].replicas();
        let mut mem = self.build_mem(lanes * n, policies[0].l1_write_policy());
        let mut lane_states: Vec<LaneState> = (0..lanes)
            .map(|p| LaneState::new(self.ccfg, n, p * n))
            .collect();
        let goldens: Vec<Option<ArchMemory>> = traces
            .iter()
            .zip(policies.iter())
            .map(|(t, pol)| pol.verify_golden().then(|| golden_run(t).1))
            .collect();

        let mut idx = vec![0usize; lanes];
        while let Some(p) = (0..lanes)
            .filter(|&p| idx[p] < traces[p].len())
            .min_by_key(|&p| lane_states[p].now())
        {
            let inst = &traces[p].insts()[idx[p]];
            let seq = idx[p] as u64;
            self.step(
                &mut policies[p],
                &mut mem,
                &mut lane_states[p],
                inst,
                seq,
                &[],
                true,
            );
            policies[p].after_instruction(&mut mem, &mut lane_states[p], inst, seq, &[], true);
            lane_states[p].sync_clock();
            let verdict = policies[p].end_segment(
                &mut mem,
                &mut lane_states[p],
                traces[p].insts(),
                idx[p],
                idx[p] + 1,
                0,
            );
            assert_ne!(
                verdict,
                SegmentVerdict::Retry,
                "run_system supports per-instruction, non-rollback policies only"
            );
            lane_states[p].sync_clock();
            Self::drain_l2_events(&mut mem, &mut lane_states[p]);
            lane_states[p].out.committed += 1;
            idx[p] += 1;
        }
        let scheme = policies[0].name();
        let counters = scheme_counters(scheme);
        counters.runs.inc();
        let mut results = Vec::with_capacity(lanes);
        for (p, mut lane) in lane_states.into_iter().enumerate() {
            let lane_counters = Self::lane_counters(&counters, scheme, policies[p].name());
            self.finalize(
                &mut policies[p],
                &mut mem,
                &mut lane,
                goldens[p].as_ref(),
                &lane_counters,
            );
            results.push(RunResult {
                out: lane.out,
                events: lane.events,
                memory: lane.committed_mem,
                l2_events: lane.l2_events,
            });
        }
        let all_episodes: Vec<crate::spans::Episode> = results
            .iter()
            .flat_map(|r| r.events.episodes().iter().copied())
            .collect();
        counters.set_recovery_overlap(scheme, crate::spans::overlap_fraction(&all_episodes));
        (results, mem)
    }

    /// The segment loop for one lane over a full trace.
    fn drive_lane<P: RedundancyPolicy>(
        &self,
        policy: &mut P,
        mem: &mut MemSystem,
        lane: &mut LaneState,
        insts: &[Inst],
        faults: &[PairFault],
    ) {
        let mut next_fault = 0usize;
        let mut start = 0usize;
        while start < insts.len() {
            let end = policy.segment_end(insts, start);
            debug_assert!(start < end && end <= insts.len(), "bad segment bounds");
            // Faults striking inside this segment (consumed on the
            // first attempt only — single-event upsets are transient;
            // only their *state* effects persist across retries).
            let lo = next_fault;
            while next_fault < faults.len() && faults[next_fault].at < end as u64 {
                debug_assert!(faults[next_fault].at >= start as u64);
                next_fault += 1;
            }
            let seg_faults = &faults[lo..next_fault];

            let snapshot: Option<Vec<ArchState>> = policy.rolls_back().then(|| lane.arch.clone());
            let mut attempt = 0u32;
            loop {
                if policy.rolls_back() {
                    lane.pending.clear();
                }
                policy.begin_attempt(lane, attempt);
                lane.sync_clock();
                for (k, inst) in insts[start..end].iter().enumerate() {
                    let seq = (start + k) as u64;
                    self.step(policy, mem, lane, inst, seq, seg_faults, attempt == 0);
                    policy.after_instruction(mem, lane, inst, seq, seg_faults, attempt == 0);
                    lane.sync_clock();
                    Self::drain_l2_events(mem, lane);
                }
                let verdict = policy.end_segment(mem, lane, insts, start, end, attempt);
                lane.sync_clock();
                match verdict {
                    SegmentVerdict::Commit | SegmentVerdict::Abandon => {
                        if policy.rolls_back() {
                            // Verified (or abandoned): release one
                            // instance of each store.
                            for p in lane.pending.drain() {
                                lane.committed_mem.write(p.addr[0], p.value[0]);
                            }
                        }
                        lane.out.committed += (end - start) as u64;
                        break;
                    }
                    SegmentVerdict::Retry => {
                        attempt += 1;
                        if let Some(snap) = &snapshot {
                            for (a, s) in lane.arch.iter_mut().zip(snap.iter()) {
                                a.copy_from(s);
                            }
                        }
                    }
                }
            }
            start = end;
        }
    }

    /// One instruction across every replica of one lane: engine feed,
    /// then the functional layer with the policy's transforms.
    #[allow(clippy::too_many_arguments)]
    fn step<P: RedundancyPolicy>(
        &self,
        policy: &mut P,
        mem: &mut MemSystem,
        lane: &mut LaneState,
        inst: &Inst,
        seq: u64,
        faults: &[PairFault],
        first_attempt: bool,
    ) {
        for core in 0..lane.engines.len() {
            let timing = lane.engines[core].feed(inst, mem, policy.hooks_mut(core));
            lane.bump_clock(lane.engines[core].now());

            policy.pre_execute(lane, inst, core, seq, faults, first_attempt);
            let raw = inst.mem.map(|m| m.addr).unwrap_or(0);
            let addr = policy.effective_addr(lane, inst, core, seq, raw, faults, first_attempt);
            // Load value: own pending stores first (store forwarding),
            // then committed memory.
            let loaded = if inst.op.is_load() {
                let fwd = if policy.uses_pending() {
                    lane.pending.forward(core, addr & !7)
                } else {
                    None
                };
                let v = fwd.unwrap_or_else(|| lane.committed_mem.read(addr));
                Some(policy.transform_load(lane, inst, core, seq, v, first_attempt))
            } else {
                None
            };
            let mut result = lane.arch[core].compute(inst, loaded);
            result = policy.transform_result(lane, inst, core, seq, result, faults, first_attempt);
            if inst.op.is_store() {
                if policy.uses_pending() {
                    lane.pending.record(core, seq, addr & !7, result);
                }
                policy.store_executed(mem, lane, inst, core, seq, addr, result, timing);
                lane.bump_clock(lane.engines[core].now());
            }
            if let Some(d) = inst.arch_dest() {
                lane.arch[core].write(d, result);
            }
            policy.executed(lane, inst, core, seq, result);
        }
    }

    /// The handles lane finalization publishes into: the run's
    /// `counters` for the run's `scheme`, or a fresh lookup for a lane
    /// whose policy goes by another name.
    fn lane_counters(
        counters: &Arc<SchemeCounters>,
        scheme: &str,
        lane_scheme: &str,
    ) -> Arc<SchemeCounters> {
        if lane_scheme == scheme {
            Arc::clone(counters)
        } else {
            scheme_counters(lane_scheme)
        }
    }

    /// Finalization for one lane: clock, policy epilogue, counter
    /// derivation from the event stream, golden verification, metrics
    /// (published into `counters`, the lane scheme's handles).
    fn finalize<P: RedundancyPolicy>(
        &self,
        policy: &mut P,
        mem: &mut MemSystem,
        lane: &mut LaneState,
        golden: Option<&ArchMemory>,
        counters: &SchemeCounters,
    ) {
        lane.sync_clock();
        lane.out.cycles = lane.now();
        policy.finish(mem, lane);

        lane.out.detections = lane.events.count(TraceEventKind::Detection);
        lane.out.recoveries = lane.events.count(TraceEventKind::RecoveryEnd);
        lane.out.recovery_stall_cycles = lane.events.sum(TraceEventKind::RecoveryEnd);
        lane.out.unrecoverable = lane.events.count(TraceEventKind::Unrecoverable);
        lane.out.silent_faults = lane.events.count(TraceEventKind::SilentFault);

        if let Some(g) = golden {
            let recoverable = !policy.golden_requires_recoverable() || lane.out.unrecoverable == 0;
            lane.out.memory_matches_golden = recoverable
                && g.iter()
                    .all(|(addr, val)| lane.committed_mem.read(addr) == val);
        }

        // Publish run aggregates once per run (never per instruction —
        // the lane loop is the hot path).
        counters.instructions.add(lane.out.committed);
        counters.cycles.add(lane.out.cycles);
        // Recovery-episode distributions (see `crate::spans`): one MTTR
        // observation per episode, one detection→recovery-start latency
        // observation per episode that carries a detection stamp.
        for ep in lane.events.episodes() {
            counters.mttr.observe(ep.stall as f64);
            if let Some(lat) = ep.detection_latency() {
                counters.detect_latency.observe(lat as f64);
            }
        }
        // Per-bank L2 conflict profile: one pre-aggregated observation
        // batch per bank, valued at the bank index — and its stall-
        // cycle companion, weighted by the cycles spent waiting.
        for (bank, &n) in lane.bank_conflicts.iter().enumerate() {
            counters.l2_banks.observe_n(bank as f64, n);
        }
        for (bank, &stall) in lane.bank_stalls.iter().enumerate() {
            counters.l2_bank_stalls.observe_n(bank as f64, stall);
        }
        lane.events.publish_to(counters);
        // Journal overflow is a health signal: a truncated journal
        // silently under-reports the cycle timeline, so the drop count
        // is surfaced process-wide for the dashboard's health line.
        let dropped = lane.events.journal_dropped();
        if dropped > 0 {
            unsync_sim::metrics::global()
                .counter("exec.journal_dropped")
                .add(dropped);
        }
    }
}

/// The cached `prof.sched.run` histogram handle: wall-clock duration
/// (µs) of each `run_system` scheduler invocation (the whole
/// discrete-event tick loop, all lanes). Resolved once per process so
/// campaign engines dispatching thousands of system runs never pay the
/// registry lock per job.
fn sched_prof() -> &'static unsync_sim::metrics::Histogram {
    static H: std::sync::OnceLock<unsync_sim::metrics::Histogram> = std::sync::OnceLock::new();
    H.get_or_init(|| unsync_sim::metrics::prof_histogram("sched.run"))
}

/// One lane as a discrete-event component: wakes at its cached lane
/// clock, executes exactly one instruction across all replicas, and
/// goes back to sleep at the advanced clock (or retires for good once
/// its trace is exhausted). The shared [`MemSystem`] is the scheduler
/// context, so memory-system time is only ever touched by the lane
/// currently awake.
struct LaneRunner<'a, P: RedundancyPolicy> {
    driver: &'a RedundantDriver,
    policy: &'a mut P,
    trace: &'a TraceProgram,
    lane: LaneState,
    idx: usize,
    /// The lane's prepared fault schedule, sorted by strike point.
    faults: Vec<PairFault>,
    /// Cursor into `faults`: first entry not yet delivered.
    next_fault: usize,
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
}

impl<P: RedundancyPolicy> Component for LaneRunner<'_, P> {
    type Ctx = MemSystem;

    fn next_tick(&self) -> Option<u64> {
        (self.idx < self.trace.len()).then(|| self.lane.now())
    }

    fn tick(&mut self, _now: u64, mem: &mut MemSystem) {
        let inst = &self.trace.insts()[self.idx];
        let seq = self.idx as u64;
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
            self.policy.uncore_strike(mem, &mut self.lane, &strike);
            self.lane.sync_clock();
            RedundantDriver::drain_l2_events(mem, &mut self.lane);
            debug_assert!(
                wake >= self.last_delivery_cycle,
                "uncore strike delivered behind an earlier fault's cycle"
            );
            self.last_delivery_cycle = wake;
            self.next_uncore += 1;
        }
        // Faults striking this instruction (strike points are
        // instruction sequence indices, so the window is `at == seq`).
        let lo = self.next_fault;
        while self.next_fault < self.faults.len() && self.faults[self.next_fault].at <= seq {
            self.next_fault += 1;
        }
        let inst_faults = &self.faults[lo..self.next_fault];
        if lo < self.next_fault {
            // The cycle-ordering half of the delivery contract: a core
            // fault's delivery cycle never precedes an already
            // delivered strike's cycle (lane clocks are monotonic, so
            // this can only trip if delivery is reordered).
            debug_assert!(
                wake >= self.last_delivery_cycle,
                "core fault delivered behind an earlier strike's cycle"
            );
            self.last_delivery_cycle = wake;
        }
        self.driver.step(
            self.policy,
            mem,
            &mut self.lane,
            inst,
            seq,
            inst_faults,
            true,
        );
        self.policy
            .after_instruction(mem, &mut self.lane, inst, seq, inst_faults, true);
        self.lane.sync_clock();
        // Per-instruction segment boundary: schemes whose compare point
        // lives in `end_segment` (the TMR vote) still commit under the
        // system scheduler. Rollback (`Retry`) needs the snapshot
        // machinery only `drive_lane` has.
        let verdict = self.policy.end_segment(
            mem,
            &mut self.lane,
            self.trace.insts(),
            self.idx,
            self.idx + 1,
            0,
        );
        assert_ne!(
            verdict,
            SegmentVerdict::Retry,
            "run_system supports per-instruction, non-rollback policies only"
        );
        self.lane.sync_clock();
        RedundantDriver::drain_l2_events(mem, &mut self.lane);
        self.lane.out.committed += 1;
        self.idx += 1;
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
        let mut policy = MinimalDuplex {
            hooks: [NullHooks, NullHooks],
        };
        let res = driver.run(&mut policy, &t, &[]);
        assert_eq!(res.out.committed, 2_000);
        assert!(res.out.cycles > 0);
        assert!(res.out.correct(), "{:?}", res.out);
    }

    #[test]
    fn driver_runs_are_deterministic() {
        let t = SyntheticSource::new(Benchmark::Qsort, 1_500, 9).trace();
        let driver = RedundantDriver::new(CoreConfig::table1());
        let run = || {
            let mut policy = MinimalDuplex {
                hooks: [NullHooks, NullHooks],
            };
            driver.run(&mut policy, &t, &[])
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
        let mut policy = MinimalDuplex {
            hooks: [NullHooks, NullHooks],
        };
        let _ = driver.run(&mut policy, &t, &[f(50), f(10)]);
    }
}
