//! The per-worker timer set for node deadlines (gossip ticks, pending
//! TTLs, held-datagram releases): one ordered map keyed by deadline,
//! ties by schedule order.
//!
//! A timer fires on the first [`TimerWheel::poll_expired`] at or after
//! its deadline — never early, and late only by however long the caller
//! slept past it. Expirations come out sorted by deadline, ties by
//! schedule order, so a burst of timers due together fires in a
//! deterministic order. A [`TimerId`] carries its deadline, so
//! [`TimerWheel::cancel`] removes the entry outright.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Handle to one scheduled timer, used to cancel it. Handles sort as
/// their timers fire: by deadline, then by schedule order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId {
    deadline: Instant,
    order: u64,
}

/// The armed timers of one worker, in firing order.
#[derive(Default)]
pub struct TimerWheel {
    armed: BTreeSet<TimerId>,
    next_order: u64,
}

impl TimerWheel {
    /// An empty timer set, the same as [`TimerWheel::default`]. All three
    /// arguments are ignored: they are what the slotted wheel this type
    /// replaced took, and the benchmark's frozen `reactor.timer_wheel_ns`
    /// probe still passes them.
    #[must_use]
    pub fn new(_granularity: Duration, _slots: usize, _origin: Instant) -> TimerWheel {
        TimerWheel::default()
    }

    /// Number of timers scheduled and not yet fired or cancelled.
    #[must_use]
    pub fn len(&self) -> usize {
        self.armed.len()
    }

    /// Whether no timer is armed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.armed.is_empty()
    }

    /// Schedules a timer due at `deadline`. A deadline at or before the
    /// next [`TimerWheel::poll_expired`]'s `now` fires on that poll.
    pub fn schedule_at(&mut self, deadline: Instant) -> TimerId {
        let id = TimerId { deadline, order: self.next_order };
        self.next_order += 1;
        self.armed.insert(id);
        id
    }

    /// Cancels a scheduled timer. Returns `false` when the id already
    /// fired or was already cancelled — exactly one of fire/cancel wins.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        self.armed.remove(&id)
    }

    /// Removes and returns every timer due at or before `now`, sorted by
    /// deadline (ties by schedule order).
    pub fn poll_expired(&mut self, now: Instant) -> Vec<(TimerId, Instant)> {
        let mut expired = Vec::new();
        while self.armed.first().is_some_and(|id| id.deadline <= now) {
            let id = self.armed.pop_first().expect("a first entry was just seen");
            expired.push((id, id.deadline));
        }
        expired
    }

    /// The earliest armed deadline, or `None` when nothing is armed —
    /// what a poll loop uses to bound its wait.
    #[must_use]
    pub fn next_deadline(&self) -> Option<Instant> {
        self.armed.first().map(|id| id.deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn wheel(origin: Instant) -> TimerWheel {
        TimerWheel::new(Duration::from_millis(1), 64, origin)
    }

    #[test]
    fn fires_in_deadline_order_never_early() {
        let origin = Instant::now();
        let mut w = wheel(origin);
        let late = w.schedule_at(origin + Duration::from_millis(30));
        let early = w.schedule_at(origin + Duration::from_millis(10));
        let mid = w.schedule_at(origin + Duration::from_millis(20));

        assert!(w.poll_expired(origin + Duration::from_millis(9)).is_empty(), "never early");
        let first = w.poll_expired(origin + Duration::from_millis(10));
        assert_eq!(first.iter().map(|&(id, _)| id).collect::<Vec<_>>(), vec![early]);
        let rest = w.poll_expired(origin + Duration::from_millis(60));
        assert_eq!(rest.iter().map(|&(id, _)| id).collect::<Vec<_>>(), vec![mid, late]);
        assert!(w.is_empty());
    }

    #[test]
    fn a_timer_fires_at_its_deadline_not_at_the_next_millisecond() {
        let origin = Instant::now();
        let mut w = wheel(origin);
        let deadline = origin + Duration::from_micros(1_500);
        let id = w.schedule_at(deadline);
        assert!(w.poll_expired(deadline - Duration::from_nanos(1)).is_empty(), "never early");
        assert_eq!(w.poll_expired(deadline), vec![(id, deadline)]);
    }

    #[test]
    fn same_slot_burst_fires_in_schedule_order() {
        let origin = Instant::now();
        let mut w = wheel(origin);
        let at = origin + Duration::from_millis(5);
        let ids: Vec<TimerId> = (0..8).map(|_| w.schedule_at(at)).collect();
        let fired = w.poll_expired(origin + Duration::from_millis(6));
        assert_eq!(fired.iter().map(|&(id, _)| id).collect::<Vec<_>>(), ids);
    }

    #[test]
    fn cancellation_wins_exactly_once() {
        let origin = Instant::now();
        let mut w = wheel(origin);
        let id = w.schedule_at(origin + Duration::from_millis(5));
        assert!(w.cancel(id), "first cancel wins");
        assert!(!w.cancel(id), "second cancel is a no-op");
        assert!(w.poll_expired(origin + Duration::from_millis(10)).is_empty());
        assert!(w.is_empty());

        let id = w.schedule_at(origin + Duration::from_millis(12));
        assert_eq!(w.poll_expired(origin + Duration::from_millis(20)).len(), 1);
        assert!(!w.cancel(id), "cancelling a fired timer is a no-op");
    }

    #[test]
    fn deadlines_beyond_the_horizon_survive_full_revolutions() {
        let origin = Instant::now();
        let mut w = wheel(origin); // horizon = 64ms
        let far = w.schedule_at(origin + Duration::from_millis(200));
        // Sweep past the slot twice without reaching the deadline.
        assert!(w.poll_expired(origin + Duration::from_millis(130)).is_empty());
        assert_eq!(w.len(), 1, "far timer still parked");
        let fired = w.poll_expired(origin + Duration::from_millis(200));
        assert_eq!(fired.iter().map(|&(id, _)| id).collect::<Vec<_>>(), vec![far]);
    }

    #[test]
    fn zero_and_past_deadlines_fire_on_the_next_poll() {
        let origin = Instant::now();
        let mut w = wheel(origin);
        let past = w.schedule_at(origin.checked_sub(Duration::from_millis(5)).unwrap_or(origin));
        let now = w.schedule_at(origin);
        let fired = w.poll_expired(origin + Duration::from_millis(1));
        assert_eq!(fired.len(), 2);
        assert_eq!(fired.iter().map(|&(id, _)| id).collect::<Vec<_>>(), vec![past, now]);
    }

    #[test]
    fn next_deadline_tracks_the_earliest_live_timer() {
        let origin = Instant::now();
        let mut w = wheel(origin);
        assert_eq!(w.next_deadline(), None);
        let a = w.schedule_at(origin + Duration::from_millis(40));
        let b = w.schedule_at(origin + Duration::from_millis(15));
        assert_eq!(w.next_deadline(), Some(origin + Duration::from_millis(15)));
        assert!(w.cancel(b));
        assert_eq!(w.next_deadline(), Some(origin + Duration::from_millis(40)));
        assert!(w.cancel(a));
        assert_eq!(w.next_deadline(), None);
    }

    proptest! {
        /// Random schedules and cancels: polling at T fires exactly the
        /// non-cancelled timers with deadline <= T, in deadline order.
        #[test]
        fn random_schedules_fire_exactly_once_in_order(
            delays in proptest::collection::vec(0u64..500, 1..40),
            cancel_mask in proptest::collection::vec(proptest::bool::ANY, 40),
        ) {
            let origin = Instant::now();
            let mut w = wheel(origin);
            let mut expected: Vec<(Instant, TimerId)> = Vec::new();
            for (i, &ms) in delays.iter().enumerate() {
                let deadline = origin + Duration::from_millis(ms);
                let id = w.schedule_at(deadline);
                if cancel_mask.get(i).copied().unwrap_or(false) {
                    prop_assert!(w.cancel(id));
                } else {
                    expected.push((deadline, id));
                }
            }
            let horizon = origin + Duration::from_millis(250);
            let fired = w.poll_expired(horizon);
            let mut due: Vec<(Instant, TimerId)> =
                expected.iter().copied().filter(|&(at, _)| at <= horizon).collect();
            due.sort_by_key(|&(at, id)| (at, id));
            prop_assert_eq!(
                fired.iter().map(|&(id, at)| (at, id)).collect::<Vec<_>>(),
                due
            );
            // The remainder fires on the next sweep, exactly once.
            let rest = w.poll_expired(origin + Duration::from_millis(600));
            prop_assert_eq!(rest.len(), expected.len() - fired.len());
            prop_assert!(w.is_empty());
        }
    }
}
