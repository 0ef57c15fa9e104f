//! Scheduler-level accounting for one reactor shard.
//!
//! The sharded runtime multiplexes hundreds of nodes onto a few worker
//! threads; when a swarm misbehaves the question is no longer "what did
//! node 417 do" but "what was *shard 2* doing" — was it parked in
//! `epoll_wait`, grinding through dispatches, or running its timers
//! late? [`ReactorCounters`] answers that with lock-free atomics the
//! worker loop bumps in-line and a scrape or watchdog thread reads
//! concurrently:
//!
//! * **poll** — how often the shard polled, how long it waited, how many
//!   readiness events each poll returned;
//! * **dispatch** — per-callback latencies split by kind (readable /
//!   timer), which is where a slow state machine shows up;
//! * **tick lag** — deadline-vs-actual expiry of every timer, the
//!   direct measure of scheduler overload;
//! * **queues** — wakeup coalescing and the timer-wheel depth after
//!   each turn.
//!
//! [`ReactorSnapshot`] is the owned plain view, a counter family like
//! [`crate::WireCounters`], so swarm-level rollups and interval scrapes
//! compose the same way; `ReactorCounters` is its atomic twin.

use std::sync::atomic::Ordering;

use crate::loghist::LogHistogramSnapshot;
use crate::{CounterFamily, Field};

crate::counter_family! {
    /// An immutable view of a shard's [`ReactorCounters`]: plain counts plus
    /// the three scheduler histograms. A rollup of shards schedules the
    /// union of their `nodes` and keeps the deepest shard's peaks.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct ReactorSnapshot {
        /// Worker-loop turns completed (poll → dispatch → timers).
        pub turns: u64,
        /// Times the shard entered its poller.
        pub polls: u64,
        /// Readiness events returned across all polls.
        pub poll_events: u64,
        /// Wake bytes drained from the loopback waker (each byte one
        /// stop request that woke the shard).
        pub wakeups: u64,
        /// Drain rounds in which at least one wake byte arrived — `wakeups /
        /// wakeup_rounds` is the coalescing factor.
        pub wakeup_rounds: u64,
        /// Readable-socket callbacks dispatched.
        pub readable_dispatches: u64,
        /// Timer callbacks dispatched.
        pub timer_dispatches: u64,
        /// Timers that expired and were routed to their node.
        pub timers_fired: u64,
        /// Timers still armed after the most recent turn (peak across
        /// shards in a rollup).
        pub wheel_depth: u64 [peak],
        /// Nodes the shard schedules (gauge, set once at start).
        pub nodes: u64 [gauge],
        /// Time spent waiting in the poller, microseconds per poll.
        pub poll_wait_us: LogHistogramSnapshot,
        /// Per-callback dispatch latency, nanoseconds (all kinds merged).
        pub dispatch_ns: LogHistogramSnapshot,
        /// Timer lateness: actual expiry minus deadline, microseconds.
        pub tick_lag_us: LogHistogramSnapshot,
    }
    atomic {
        /// Lock-free scheduler counters for one reactor shard.
        ///
        /// Recording methods are called from the shard's worker thread;
        /// [`ReactorCounters::snapshot`] from anywhere. All counters are
        /// monotone except the two gauges ([`wheel depth`](ReactorSnapshot::wheel_depth)
        /// is last-observed, [`nodes`](ReactorSnapshot::nodes) is set once).
        ///
        /// ```
        /// use ltnc_metrics::ReactorCounters;
        ///
        /// let shard = ReactorCounters::new();
        /// shard.set_nodes(250);
        /// shard.record_poll(120, 3); // waited 120us, 3 events ready
        /// shard.record_dispatch_readable(850); // dispatch took 850ns
        /// shard.record_timer_lag(40); // timer fired 40us past its deadline
        /// shard.record_turn(17); // 17 timers still armed after the turn
        /// let snap = shard.snapshot();
        /// assert_eq!(snap.polls, 1);
        /// assert_eq!(snap.poll_events, 3);
        /// assert_eq!(snap.wheel_depth, 17);
        /// assert_eq!(snap.dispatch_ns.count(), 1);
        /// ```
        #[derive(Debug, Default)]
        pub struct ReactorCounters;
    }
}

impl ReactorCounters {
    /// Publishes how many nodes the shard schedules (set once at start).
    pub fn set_nodes(&self, nodes: u64) {
        self.nodes.store(nodes, Ordering::Relaxed);
    }

    /// One poll completed: the shard waited `waited_us` microseconds and
    /// `events` readiness events came back.
    pub fn record_poll(&self, waited_us: u64, events: u64) {
        self.polls.fetch_add(1, Ordering::Relaxed);
        self.poll_events.fetch_add(events, Ordering::Relaxed);
        self.poll_wait_us.record(waited_us);
    }

    /// The waker drained `coalesced` wake bytes in one round (stop
    /// requests that collapsed into a single readiness event).
    pub fn record_wakeups(&self, coalesced: u64) {
        self.wakeups.fetch_add(coalesced, Ordering::Relaxed);
        self.wakeup_rounds.fetch_add(1, Ordering::Relaxed);
    }

    /// One readable-socket callback took `ns` nanoseconds.
    pub fn record_dispatch_readable(&self, ns: u64) {
        self.readable_dispatches.fetch_add(1, Ordering::Relaxed);
        self.dispatch_ns.record(ns);
    }

    /// One timer callback took `ns` nanoseconds.
    pub fn record_dispatch_timer(&self, ns: u64) {
        self.timer_dispatches.fetch_add(1, Ordering::Relaxed);
        self.timers_fired.fetch_add(1, Ordering::Relaxed);
        self.dispatch_ns.record(ns);
    }

    /// A timer fired `lag_us` microseconds past its deadline.
    pub fn record_timer_lag(&self, lag_us: u64) {
        self.tick_lag_us.record(lag_us);
    }

    /// One loop turn ended with `wheel_depth` timers still armed.
    pub fn record_turn(&self, wheel_depth: u64) {
        self.turns.fetch_add(1, Ordering::Relaxed);
        self.wheel_depth.store(wheel_depth, Ordering::Relaxed);
    }
}

impl ReactorSnapshot {
    /// True when nothing has been recorded: every counter is zero and
    /// every histogram empty (gauges ignored).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fields().all(|(_, field)| match field {
            Field::Counter(count) => count == 0,
            Field::Histogram(histogram) => histogram.is_empty(),
            Field::Gauge(_) | Field::Flag(_) => true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_lands_in_every_family() {
        let c = ReactorCounters::new();
        c.set_nodes(10);
        c.record_poll(50, 2);
        c.record_poll(1_000, 0);
        c.record_wakeups(3);
        c.record_dispatch_readable(400);
        c.record_dispatch_timer(900);
        c.record_timer_lag(25);
        c.record_turn(7);
        let s = c.snapshot();
        assert_eq!(s.turns, 1);
        assert_eq!(s.polls, 2);
        assert_eq!(s.poll_events, 2);
        assert_eq!(s.wakeups, 3);
        assert_eq!(s.wakeup_rounds, 1);
        assert_eq!(s.readable_dispatches, 1);
        assert_eq!(s.timer_dispatches, 1);
        assert_eq!(s.timers_fired, 1);
        assert_eq!(s.wheel_depth, 7);
        assert_eq!(s.nodes, 10);
        assert_eq!(s.poll_wait_us.count(), 2);
        assert_eq!(s.dispatch_ns.count(), 2);
        assert_eq!(s.tick_lag_us.max, 25);
        assert!(!s.is_empty());
        assert!(ReactorSnapshot::new().is_empty());
    }

    #[test]
    fn merge_adds_counters_and_maxes_gauges() {
        let a = ReactorCounters::new();
        a.set_nodes(3);
        a.record_poll(10, 1);
        a.record_turn(5);
        let b = ReactorCounters::new();
        b.set_nodes(4);
        b.record_poll(20, 2);
        b.record_poll(30, 0);
        b.record_turn(9);
        let mut rollup = a.snapshot();
        rollup.merge(&b.snapshot());
        assert_eq!(rollup.polls, 3);
        assert_eq!(rollup.poll_events, 3);
        assert_eq!(rollup.turns, 2);
        assert_eq!(rollup.nodes, 7, "a rollup schedules the union of nodes");
        assert_eq!(rollup.wheel_depth, 9, "gauges take the deepest shard");
        assert_eq!(rollup.poll_wait_us.count(), 3);
    }

    #[test]
    fn snapshot_delta_diffs_counters_and_keeps_gauges() {
        let c = ReactorCounters::new();
        c.set_nodes(2);
        c.record_poll(10, 1);
        c.record_turn(3);
        let earlier = c.snapshot();
        c.record_poll(20, 4);
        c.record_dispatch_timer(500);
        c.record_turn(8);
        let delta = c.snapshot().snapshot_delta(&earlier);
        assert_eq!(delta.polls, 1);
        assert_eq!(delta.poll_events, 4);
        assert_eq!(delta.turns, 1);
        assert_eq!(delta.timer_dispatches, 1);
        assert_eq!(delta.wheel_depth, 8, "gauge keeps its current value");
        assert_eq!(delta.nodes, 2);
        assert_eq!(delta.poll_wait_us.count(), 1);
        assert_eq!(delta.dispatch_ns.count(), 1);
        // A stale earlier saturates instead of wrapping.
        assert_eq!(earlier.snapshot_delta(&c.snapshot()).polls, 0);
    }
}
