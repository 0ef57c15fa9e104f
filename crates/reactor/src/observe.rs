//! Instrumentation hooks for the sharded scheduler.
//!
//! `ltnc-reactor` deliberately depends on nothing, so it cannot own
//! histograms or trace rings itself. Instead the worker loop reports
//! through this seam: a [`ShardObserver`] installed via
//! `Reactor::start_observed` receives every scheduler-level occurrence
//! (poll completions, dispatch latencies, timer lag, turns) and
//! the embedding crate turns them into whatever metrics family it
//! keeps. Every method has a no-op default, and the loop takes its
//! extra `Instant::now()` readings only when an observer is installed —
//! with `None` the instrumented loop compiles down to the bare one.
//!
//! Observer methods are called from worker threads, possibly several
//! concurrently (one per shard): implementations must be `Sync`, cheap
//! and non-blocking, as the telemetry crate's `RingSink` is.

use std::time::Duration;

/// The kind of callback a [`ShardObserver::dispatched`] measurement
/// covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dispatch {
    /// A [`crate::Driven::on_readable`] callback (socket drain).
    Readable,
    /// A [`crate::Driven::on_timer`] callback (tick or release).
    Timer,
}

impl Dispatch {
    /// Stable lowercase label (used in metric labels and reports).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Dispatch::Readable => "readable",
            Dispatch::Timer => "timer",
        }
    }
}

/// Receives scheduler-level events from every worker of a `Reactor`.
///
/// `shard` is always the worker index (`0..workers`). All methods
/// default to no-ops so an observer implements only what it measures.
pub trait ShardObserver: Send + Sync + 'static {
    /// A poll completed: the shard waited `waited` in the poller and
    /// `events` readiness events came back (the waker's own event, when
    /// present, is included).
    fn poll_completed(&self, _shard: usize, _waited: Duration, _events: usize) {}

    /// One node callback of the given kind ran for `took`.
    fn dispatched(&self, _shard: usize, _kind: Dispatch, _took: Duration) {}

    /// A timer fired `lag` past its scheduled deadline.
    fn timer_lag(&self, _shard: usize, _lag: Duration) {}

    /// One loop turn (poll → dispatch → timers) ended with
    /// `timers_pending` timers still armed on the shard.
    fn turn_completed(&self, _shard: usize, _timers_pending: usize) {}
}
