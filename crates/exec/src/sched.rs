//! Discrete-event scheduling for many-component simulations.
//!
//! The original `run_system` loop kept a `BinaryHeap` of lane clocks
//! inline; growing the system past a handful of lanes (the ROADMAP's
//! 1000-lane contention sweeps) needs that scheduler to be a real,
//! testable component of its own. This module owns it:
//!
//! * [`Component`] — anything with a clock: it names the next cycle at
//!   which it has work ([`Component::next_tick`], `None` when done) and
//!   performs one unit of work when granted the turn
//!   ([`Component::tick`]). A stalled, idle, or recovering component
//!   simply reports a far-future `next_tick` and costs **zero** work
//!   until then — the scheduler never polls.
//! * [`EventQueue`] — a global min-heap of `(next_tick, component)`
//!   wake-ups. Ordering is lexicographic: the smallest tick first, and
//!   on equal ticks the lowest component index — exactly the laggard
//!   rule ("always advance whoever is furthest behind") the driver's
//!   old linear scan and inline heap both implemented, so results stay
//!   byte-identical across all three generations of the loop.
//! * [`run`] — the event loop: seed the queue, repeatedly pop the
//!   earliest wake-up, tick that component, and re-schedule it at its
//!   new `next_tick` — or tick it again straight away while that
//!   wake-up still sorts before the queue's head (the order a push and
//!   pop would give), so a lone component never touches the heap.
//!
//! The contract that makes the loop correct with **one** queue entry
//! per component (no stale-entry filtering): a component's `tick` may
//! only change *its own* `next_tick`. Shared state (the memory system,
//! an interconnect) is threaded through as [`Component::Ctx`] and may
//! mutate freely — it has no `next_tick` of its own; its occupancy
//! feeds back into components' clocks through their next accesses.
//!
//! Invariants (pinned by `tests/sched_properties.rs`):
//!
//! * no component is ever ticked past another live component's earlier
//!   `next_tick` (global tick order is non-decreasing);
//! * equal ticks resolve to the lowest component index;
//! * every component is ticked exactly once per scheduled wake-up — no
//!   lost or duplicated wake-ups ([`run`] returns the total count).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One schedulable simulation component (a lane, a device model).
///
/// See the [module docs](crate::sched) for the scheduling contract.
pub trait Component {
    /// Shared simulation state threaded through every [`tick`]
    /// (e.g. the shared [`unsync_mem::MemSystem`]).
    ///
    /// [`tick`]: Component::tick
    type Ctx;

    /// The next cycle at which this component has work to do, or
    /// `None` once it has finished. Must be non-decreasing across
    /// [`tick`] calls: a tick granted at cycle `t` may not reschedule
    /// the component earlier than `t`.
    ///
    /// [`tick`]: Component::tick
    fn next_tick(&self) -> Option<u64>;

    /// Performs one unit of work at cycle `now` (which equals the
    /// `next_tick` the component reported). May only change its own
    /// `next_tick`, never another component's.
    fn tick(&mut self, now: u64, ctx: &mut Self::Ctx);
}

/// A global min-heap of `(next_tick, component index)` wake-ups.
///
/// `Reverse` lexicographic order pops the smallest tick with
/// lowest-index tie-breaking — the laggard rule.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<(u64, usize)>>,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// A queue with capacity for `n` components pre-allocated.
    pub(crate) fn with_capacity(n: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(n),
        }
    }

    /// Schedules a wake-up for `component` at cycle `tick`.
    pub fn schedule(&mut self, tick: u64, component: usize) {
        self.heap.push(Reverse((tick, component)));
    }

    /// Removes and returns the earliest wake-up: smallest tick,
    /// lowest component index on ties. `None` when no work remains.
    pub fn pop(&mut self) -> Option<(u64, usize)> {
        self.heap.pop().map(|Reverse(entry)| entry)
    }

    /// The earliest pending wake-up without removing it.
    pub(crate) fn peek(&self) -> Option<(u64, usize)> {
        self.heap.peek().map(|&Reverse(entry)| entry)
    }

    /// Whether no wake-ups are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Runs `components` to completion over shared state `ctx`: seeds the
/// queue from each component's initial [`Component::next_tick`], then
/// repeatedly grants the earliest wake-up until every component
/// reports `None`. Returns the total number of ticks executed.
pub fn run<C: Component>(components: &mut [C], ctx: &mut C::Ctx) -> u64 {
    let mut queue = EventQueue::with_capacity(components.len());
    for (i, c) in components.iter().enumerate() {
        if let Some(t) = c.next_tick() {
            queue.schedule(t, i);
        }
    }
    let mut ticks = 0u64;
    while let Some((mut now, i)) = queue.pop() {
        debug_assert_eq!(
            components[i].next_tick(),
            Some(now),
            "component {i} wake-up went stale: a tick changed another \
             component's next_tick"
        );
        // Pushing a wake-up that sorts before the head would only pop it
        // straight back: keep ticking `i` instead.
        loop {
            components[i].tick(now, ctx);
            ticks += 1;
            let Some(next) = components[i].next_tick() else {
                break;
            };
            debug_assert!(
                next >= now,
                "component {i} rescheduled into the past ({next} < {now})"
            );
            if queue.peek().is_some_and(|head| head < (next, i)) {
                queue.schedule(next, i);
                break;
            }
            now = next;
        }
    }
    ticks
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A component that wants turns at a fixed list of ticks and logs
    /// `(tick, id)` into the shared context on each.
    struct Scripted {
        id: usize,
        script: Vec<u64>,
        pos: usize,
    }

    impl Component for Scripted {
        type Ctx = Vec<(u64, usize)>;

        fn next_tick(&self) -> Option<u64> {
            self.script.get(self.pos).copied()
        }

        fn tick(&mut self, now: u64, log: &mut Vec<(u64, usize)>) {
            log.push((now, self.id));
            self.pos += 1;
        }
    }

    fn scripted(scripts: &[&[u64]]) -> Vec<Scripted> {
        scripts
            .iter()
            .enumerate()
            .map(|(id, s)| Scripted {
                id,
                script: s.to_vec(),
                pos: 0,
            })
            .collect()
    }

    #[test]
    fn pops_in_tick_order_with_lowest_index_ties() {
        let mut q = EventQueue::new();
        q.schedule(5, 1);
        q.schedule(3, 2);
        q.schedule(5, 0);
        q.schedule(3, 0);
        assert_eq!(q.heap.len(), 4);
        assert_eq!(q.peek(), Some((3, 0)));
        assert_eq!(q.pop(), Some((3, 0)));
        assert_eq!(q.pop(), Some((3, 2)));
        assert_eq!(q.pop(), Some((5, 0)));
        assert_eq!(q.pop(), Some((5, 1)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn runs_scripts_in_global_time_order() {
        let mut comps = scripted(&[&[0, 10, 20], &[0, 2, 4], &[15]]);
        let mut log = Vec::new();
        let ticks = run(&mut comps, &mut log);
        assert_eq!(ticks, 7);
        assert_eq!(
            log,
            vec![(0, 0), (0, 1), (2, 1), (4, 1), (10, 0), (15, 2), (20, 0)]
        );
    }

    #[test]
    fn idle_components_cost_nothing_between_wakeups() {
        // A component sleeping to cycle 1_000_000 is ticked exactly
        // once, regardless of how busy the other component is.
        let busy: Vec<u64> = (0..100).collect();
        let mut comps = scripted(&[&busy, &[1_000_000]]);
        let mut log = Vec::new();
        assert_eq!(run(&mut comps, &mut log), 101);
        assert_eq!(log.iter().filter(|&&(_, id)| id == 1).count(), 1);
        assert_eq!(log.last(), Some(&(1_000_000, 1)));
    }

    #[test]
    fn finished_and_empty_components_are_skipped() {
        let mut comps = scripted(&[&[], &[7]]);
        let mut log = Vec::new();
        assert_eq!(run(&mut comps, &mut log), 1);
        assert_eq!(log, vec![(7, 1)]);
    }

    #[test]
    fn same_tick_reschedule_keeps_priority_over_higher_index() {
        // Component 0 wants two turns at tick 3; component 1 one turn.
        // The re-scheduled (3, 0) entry must still beat (3, 1).
        let mut comps = scripted(&[&[3, 3], &[3]]);
        let mut log = Vec::new();
        run(&mut comps, &mut log);
        assert_eq!(log, vec![(3, 0), (3, 0), (3, 1)]);
    }
}
