//! A hashed timer wheel for per-node deadlines (gossip ticks, pending
//! TTLs, held-datagram releases).
//!
//! The wheel trades exactness for O(1) schedule/cancel: deadlines are
//! bucketed into fixed-granularity slots, so a timer fires on the first
//! [`TimerWheel::poll_expired`] *at or after* its deadline — never
//! early, up to one granularity late (plus however long the caller
//! slept). Expirations are returned sorted by deadline, ties by
//! schedule order, so a burst of same-slot timers still fires in a
//! deterministic order.
//!
//! Cancellation is lazy: [`TimerWheel::cancel`] forgets the id and the
//! entry is discarded when its slot drains, so cancelling never scans.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Handle to one scheduled timer, used to cancel it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(u64);

/// One scheduled entry, parked in the slot its deadline hashes to.
#[derive(Debug, Clone, Copy)]
struct Entry {
    id: u64,
    deadline: Instant,
    /// Full wheel revolutions left before this entry is due (deadlines
    /// beyond the horizon park in their slot for multiple laps).
    rounds: usize,
}

/// A fixed-granularity hashed timer wheel.
pub struct TimerWheel {
    granularity: Duration,
    slots: Vec<Vec<Entry>>,
    /// Slot the cursor points at — the one `now` falls into.
    cursor: usize,
    /// Slot-aligned instant the cursor was last advanced to.
    now: Instant,
    next_id: u64,
    /// Ids scheduled and neither fired nor cancelled, with their
    /// deadlines; a slot entry missing here was cancelled.
    live: HashMap<u64, Instant>,
}

impl TimerWheel {
    /// A wheel of `slots` buckets of `granularity` each, anchored at
    /// `origin` (deadlines are measured against it; pass `Instant::now()`
    /// for wall-clock use, a fixed instant for deterministic tests).
    ///
    /// # Panics
    ///
    /// Panics when `granularity` is zero or `slots` is zero.
    #[must_use]
    pub fn new(granularity: Duration, slots: usize, origin: Instant) -> TimerWheel {
        assert!(!granularity.is_zero(), "timer wheel granularity must be non-zero");
        assert!(slots > 0, "timer wheel needs at least one slot");
        TimerWheel {
            granularity,
            slots: vec![Vec::new(); slots],
            cursor: 0,
            now: origin,
            next_id: 1,
            live: HashMap::new(),
        }
    }

    /// Number of timers scheduled and not yet fired or cancelled.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether no live timer is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Schedules a timer due at `deadline`. Deadlines at or before the
    /// wheel's current position fire on the next
    /// [`TimerWheel::poll_expired`].
    pub fn schedule_at(&mut self, deadline: Instant) -> TimerId {
        let id = self.next_id;
        self.next_id += 1;
        self.live.insert(id, deadline);
        // Round the displacement *up*: a timer must never fire before
        // its deadline, so it parks in the first slot whose aligned time
        // is >= deadline.
        let delta = deadline.saturating_duration_since(self.now);
        let gran = self.granularity.as_nanos().max(1);
        // ... and at least one slot ahead: a due/past deadline parks in
        // the next slot the cursor sweeps, not the slot it sits in (which
        // would strand it for a full revolution).
        let ticks = usize::try_from(delta.as_nanos().div_ceil(gran)).unwrap_or(usize::MAX).max(1);
        let slot = (self.cursor + ticks % self.slots.len()) % self.slots.len();
        // The cursor reaches `slot` for the first time on sweep
        // ((ticks - 1) % slots) + 1, so the entry must sit out
        // (ticks - 1) / slots revolutions — NOT ticks / slots, which for
        // exact multiples of the slot count would overshoot by one lap.
        let rounds = (ticks - 1) / self.slots.len();
        self.slots[slot].push(Entry { id, deadline, rounds });
        TimerId(id)
    }

    /// Schedules a timer due `after` from the wheel's current position
    /// (the last instant passed to [`TimerWheel::poll_expired`], slot
    /// aligned — not wall-clock now).
    pub fn schedule(&mut self, after: Duration) -> TimerId {
        self.schedule_at(self.now + after)
    }

    /// Cancels a scheduled timer. Returns `false` when the id already
    /// fired or was already cancelled — exactly one of fire/cancel wins.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        self.live.remove(&id.0).is_some()
    }

    /// Advances the wheel to `now` and returns everything that became
    /// due, sorted by deadline (ties by schedule order). Cancelled
    /// entries are discarded silently.
    pub fn poll_expired(&mut self, now: Instant) -> Vec<(TimerId, Instant)> {
        let mut expired: Vec<Entry> = Vec::new();
        while self.now + self.granularity <= now {
            self.cursor = (self.cursor + 1) % self.slots.len();
            self.now += self.granularity;
            let slot = &mut self.slots[self.cursor];
            let mut keep = Vec::new();
            for mut entry in slot.drain(..) {
                if !self.live.contains_key(&entry.id) {
                    continue;
                }
                if entry.rounds == 0 {
                    self.live.remove(&entry.id);
                    expired.push(entry);
                } else {
                    entry.rounds -= 1;
                    keep.push(entry);
                }
            }
            *slot = keep;
        }
        expired.sort_by_key(|entry| (entry.deadline, entry.id));
        expired.into_iter().map(|entry| (TimerId(entry.id), entry.deadline)).collect()
    }

    /// The earliest live deadline, or `None` when the wheel is empty —
    /// what a poll loop uses to bound its wait. O(live timers), not
    /// O(slots): called once per loop iteration.
    #[must_use]
    pub fn next_deadline(&self) -> Option<Instant> {
        self.live.values().min().copied()
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
