//! Deterministic datagram fault injection for transport tests.
//!
//! A transport test over clean localhost sockets exercises none of the
//! failure handling the protocol exists for. This module makes adverse
//! datagram conditions *seeded and reproducible*:
//!
//! * [`DatagramFaultPlan`] is one plan per *link* — per sender, on the
//!   receiving end — of whole-datagram drops, duplicates, reordering
//!   within a bounded window, and per-datagram delays, with per-link
//!   tallies ([`DatagramFaultCounters`]). A swarm gives every overlay
//!   link its own seeded plan ([`crate::TopologyFaults`]), so the UDP
//!   gossip tests exercise exactly the lossy links the paper's
//!   redundancy and this crate's adaptive pacing exist for. A sender
//!   without a plan passes clean, and sends are never faulted.
//!
//! Datagram faults decide per *datagram* in arrival order, so a fixed
//! seed replays the same drop/duplicate/reorder pattern over the same
//! traffic. One state machine carries those decisions out for both swarm
//! drivers, on the node's microsecond clock: each node's inbound side,
//! inside the endpoint (`crate::endpoint`) both drivers run. Nothing
//! sleeps — a delayed datagram is parked until it falls due.

use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::time::Duration;

use ltnc_metrics::CounterFamily;
use ltnc_telemetry::{FaultKind, TraceEvent, Tracer};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::peer::micros;

/// A seeded description of the faults to inject on one *datagram* link:
/// what one sender's datagrams suffer on their way into a swarm node.
///
/// The default plan (via [`DatagramFaultPlan::clean`]) forwards every
/// datagram untouched; builder methods switch individual faults on. All
/// decisions are made per datagram in arrival order from a [`SmallRng`]
/// seeded by the plan, so a fixed seed replays the same fault pattern
/// over the same traffic.
#[derive(Debug, Clone, Copy)]
pub struct DatagramFaultPlan {
    /// Seed for every probabilistic decision this plan makes.
    pub seed: u64,
    /// Probability in `[0, 1]` that a datagram is silently dropped.
    pub drop_rate: f64,
    /// Probability in `[0, 1]` that a datagram is delivered twice.
    pub duplicate_rate: f64,
    /// Probability in `[0, 1]` that a datagram is held back and released
    /// out of order, displaced by at most [`reorder_window`] later
    /// datagrams.
    ///
    /// [`reorder_window`]: DatagramFaultPlan::reorder_window
    pub reorder_rate: f64,
    /// Maximum number of later datagrams that may overtake a held one.
    /// `0` disables reordering regardless of [`reorder_rate`].
    ///
    /// [`reorder_rate`]: DatagramFaultPlan::reorder_rate
    pub reorder_window: usize,
    /// Probability in `[0, 1]` that a datagram is held for [`delay`]
    /// before delivery (link jitter). Nothing waits on it: the datagram
    /// is parked, and traffic behind it passes.
    ///
    /// [`delay`]: DatagramFaultPlan::delay
    pub delay_rate: f64,
    /// How long a delayed datagram is held up.
    pub delay: Duration,
}

impl DatagramFaultPlan {
    /// A plan that forwards every datagram untouched.
    #[must_use]
    pub fn clean(seed: u64) -> DatagramFaultPlan {
        DatagramFaultPlan {
            seed,
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            reorder_rate: 0.0,
            reorder_window: 0,
            delay_rate: 0.0,
            delay: Duration::ZERO,
        }
    }

    /// Drop each datagram with probability `rate` (clamped to `[0, 1]`).
    #[must_use]
    pub fn drop_rate(mut self, rate: f64) -> DatagramFaultPlan {
        self.drop_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Deliver each datagram twice with probability `rate`.
    #[must_use]
    pub fn duplicate_rate(mut self, rate: f64) -> DatagramFaultPlan {
        self.duplicate_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Hold each datagram with probability `rate` and release it after at
    /// most `window` later datagrams have overtaken it.
    #[must_use]
    pub fn reorder(mut self, rate: f64, window: usize) -> DatagramFaultPlan {
        self.reorder_rate = rate.clamp(0.0, 1.0);
        self.reorder_window = window;
        self
    }

    /// Delay each datagram by `delay` with probability `rate`.
    #[must_use]
    pub fn delay(mut self, rate: f64, delay: Duration) -> DatagramFaultPlan {
        self.delay_rate = rate.clamp(0.0, 1.0);
        self.delay = delay;
        self
    }
}

ltnc_metrics::counter_family! {
    /// Snapshot of the faults the link plans into one node have injected
    /// so far.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct DatagramFaultCounters {
        /// Inbound datagrams silently dropped.
        pub dropped_in: u64,
        /// Always 0: faults live on the receiving end of a link, and
        /// nothing is dropped on send. Kept because the reference
        /// benchmark sums it into `faults.dropped`.
        pub dropped_out: u64,
        /// Inbound datagrams delivered twice.
        pub duplicated_in: u64,
        /// Inbound datagrams released out of order.
        pub reordered_in: u64,
        /// Inbound datagrams delayed.
        pub delayed_in: u64,
    }
}

impl DatagramFaultCounters {
    /// Total datagrams affected by any fault.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.fields().filter_map(|(_, field)| field.value()).sum()
    }
}

/// How long datagrams the reorder fault holds may wait for the traffic
/// that would overtake them: this long after the first hold, the links
/// count as idle and everything held is released.
pub(crate) const IDLE_RELEASE: Duration = Duration::from_millis(20);

/// What one plan did to one datagram.
#[derive(Clone, Copy, Default)]
struct Fate {
    delayed: bool,
    dropped: bool,
    /// Parked for reordering: the link now holds the datagram.
    held: bool,
    duplicated: bool,
}

impl Fate {
    /// Copies of the datagram to hand over, now or once its delay is
    /// up: none when it was dropped or held, two when it was duplicated.
    fn copies(self) -> usize {
        if self.dropped || self.held {
            0
        } else {
            1 + usize::from(self.duplicated)
        }
    }

    /// The faults as counters.
    fn counters(self) -> DatagramFaultCounters {
        let [delayed, dropped, reordered, duplicated] =
            [self.delayed, self.dropped, self.held, self.duplicated].map(u64::from);
        DatagramFaultCounters {
            delayed_in: delayed,
            dropped_in: dropped,
            reordered_in: reordered,
            duplicated_in: duplicated,
            ..DatagramFaultCounters::default()
        }
    }

    /// One [`TraceEvent::FaultInjected`] per fault, attributed to `peer`
    /// and stamped `now`.
    fn trace(self, now: u64, tracer: &Tracer, peer: SocketAddr) {
        for (fired, kind) in [
            (self.delayed, FaultKind::Delay),
            (self.dropped, FaultKind::Drop),
            (self.held, FaultKind::Reorder),
            (self.duplicated, FaultKind::Duplicate),
        ] {
            if fired {
                tracer.emit(now, || TraceEvent::FaultInjected { kind, peer: Some(peer) });
            }
        }
    }
}

/// A datagram held back by the reorder fault, released once `remaining`
/// later datagrams have passed it (or the links go idle).
struct HeldDatagram {
    bytes: Vec<u8>,
    remaining: usize,
}

/// One link's fault state: the plan, its seeded RNG, the datagrams the
/// plan parks, and the faults it has injected.
struct LinkState {
    plan: DatagramFaultPlan,
    rng: SmallRng,
    /// Datagrams held by the reorder fault, oldest first.
    held: VecDeque<HeldDatagram>,
    /// Delayed datagrams with the time each falls due on the node's
    /// clock. One plan has one delay, so due order is arrival order.
    delayed: VecDeque<(u64, Vec<u8>)>,
    /// Datagrams due now (holds overtaken or released, delays that came
    /// due), oldest first.
    ready: VecDeque<Vec<u8>>,
    /// The faults this plan has injected.
    counters: DatagramFaultCounters,
}

impl LinkState {
    fn new(plan: DatagramFaultPlan) -> LinkState {
        LinkState {
            plan,
            rng: SmallRng::seed_from_u64(plan.seed ^ 0xDA7A_FA17),
            held: VecDeque::new(),
            delayed: VecDeque::new(),
            ready: VecDeque::new(),
            counters: DatagramFaultCounters::default(),
        }
    }

    /// Decides, tallies and traces the fate of one datagram from `from`
    /// arriving at `now`, after moving the holds it overtakes past their
    /// window onto the ready queue, and parks what the fate holds or
    /// delays. Returns how many copies to hand over now.
    fn arrive(&mut self, now: u64, from: SocketAddr, bytes: &[u8], tracer: &Tracer) -> usize {
        for held in &mut self.held {
            held.remaining = held.remaining.saturating_sub(1);
        }
        while self.held.front().is_some_and(|h| h.remaining == 0) {
            let held = self.held.pop_front().expect("checked non-empty");
            self.ready.push_back(held.bytes);
        }
        let plan = self.plan;
        let delayed = plan.delay_rate > 0.0 && self.rng.gen_bool(plan.delay_rate);
        let mut fate = Fate { delayed, ..Fate::default() };
        if plan.drop_rate > 0.0 && self.rng.gen_bool(plan.drop_rate) {
            fate.dropped = true;
        } else if plan.reorder_window > 0
            && plan.reorder_rate > 0.0
            && self.rng.gen_bool(plan.reorder_rate)
        {
            fate.held = true;
            let remaining = self.rng.gen_range(1..=plan.reorder_window);
            self.held.push_back(HeldDatagram { bytes: bytes.to_vec(), remaining });
        } else if plan.duplicate_rate > 0.0 && self.rng.gen_bool(plan.duplicate_rate) {
            fate.duplicated = true;
        }
        self.counters.merge(&fate.counters());
        fate.trace(now, tracer, from);
        if !fate.delayed {
            return fate.copies();
        }
        let due = now.saturating_add(micros(plan.delay));
        self.delayed.extend(std::iter::repeat_with(|| (due, bytes.to_vec())).take(fate.copies()));
        0
    }
}

/// The inbound side of one node's links, on the node's microsecond
/// clock: one plan per origin that has one, keyed by sender address
/// (ordered, so releases are deterministic). A datagram from an origin
/// without a plan passes clean.
///
/// Nothing here waits. Reordered datagrams are held until enough later
/// traffic has overtaken them or [`IDLE_RELEASE`] has passed, delayed
/// ones until they fall due; [`InboundState::next_release`] says when
/// [`InboundState::release`] next frees something, so a parked datagram
/// is late, never lost.
#[derive(Default)]
pub(crate) struct InboundState {
    links: BTreeMap<SocketAddr, LinkState>,
    /// When the links count as idle and every reorder hold is released:
    /// [`IDLE_RELEASE`] after the first hold since the last release.
    idle_at: Option<u64>,
}

impl InboundState {
    /// Installs (or replaces) the plan for datagrams from `from`.
    pub(crate) fn set_link(&mut self, from: SocketAddr, plan: DatagramFaultPlan) {
        self.links.insert(from, LinkState::new(plan));
    }

    /// Runs one datagram from `from`, arriving at `now`, through that
    /// link's plan, tracing each fault on `tracer`, and returns how many
    /// copies to hand over now: one when the link has no plan, none when
    /// the plan drops, holds or delays it, two when it duplicates it.
    /// The holds it overtook are then ready ([`InboundState::pop_ready`]).
    pub(crate) fn arrive(
        &mut self,
        now: u64,
        from: SocketAddr,
        bytes: &[u8],
        tracer: &Tracer,
    ) -> usize {
        let Some(link) = self.links.get_mut(&from) else { return 1 };
        let copies = link.arrive(now, from, bytes, tracer);
        if self.idle_at.is_none() && !link.held.is_empty() {
            self.idle_at = Some(now + micros(IDLE_RELEASE));
        }
        copies
    }

    /// Makes ready what is due by `now`: every delayed datagram that
    /// fell due and, once the links have gone idle, every reorder hold.
    pub(crate) fn release(&mut self, now: u64) {
        let idle = self.idle_at.is_some_and(|at| at <= now);
        if idle {
            self.idle_at = None;
        }
        for link in self.links.values_mut() {
            if idle {
                link.ready.extend(link.held.drain(..).map(|held| held.bytes));
            }
            while link.delayed.front().is_some_and(|&(due, _)| due <= now) {
                let (_, bytes) = link.delayed.pop_front().expect("checked non-empty");
                link.ready.push_back(bytes);
            }
        }
    }

    /// When [`InboundState::release`] next frees something; `None` while
    /// nothing is parked.
    pub(crate) fn next_release(&self) -> Option<u64> {
        let delays = self.links.values().filter_map(|link| link.delayed.front().map(|d| d.0));
        delays.chain(self.idle_at).min()
    }

    /// Pops the oldest ready datagram of the first link, in address
    /// order, that has one.
    pub(crate) fn pop_ready(&mut self) -> Option<(Vec<u8>, SocketAddr)> {
        self.links.iter_mut().find_map(|(&from, link)| Some((link.ready.pop_front()?, from)))
    }

    /// Faults injected per link plan, ordered by sender address.
    pub(crate) fn link_counters(&self) -> Vec<(SocketAddr, DatagramFaultCounters)> {
        self.links.iter().map(|(&from, link)| (from, link.counters)).collect()
    }

    /// Faults injected on every link.
    pub(crate) fn totals(&self) -> DatagramFaultCounters {
        let mut totals = DatagramFaultCounters::default();
        for link in self.links.values() {
            totals.merge(&link.counters);
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta_subtracts_per_field_and_saturates() {
        let earlier = DatagramFaultCounters { dropped_in: 3, delayed_in: 10, ..Default::default() };
        let later = DatagramFaultCounters {
            dropped_in: 8,
            duplicated_in: 2,
            delayed_in: 10,
            ..Default::default()
        };
        let delta = later.snapshot_delta(&earlier);
        assert_eq!(delta.dropped_in, 5);
        assert_eq!(delta.duplicated_in, 2);
        assert_eq!(delta.delayed_in, 0, "unchanged counters delta to zero");
        assert_eq!(delta.total(), 7);
        // A stale "later" snapshot (e.g. counters from a reset socket)
        // must clamp, not wrap.
        assert_eq!(earlier.snapshot_delta(&later).dropped_in, 0);
    }

    /// The sender every test link is keyed by.
    fn sender() -> SocketAddr {
        SocketAddr::from(([10, 0, 0, 1], 7))
    }

    /// One node's inbound side with `plan` on the link from [`sender`].
    fn linked(plan: DatagramFaultPlan) -> InboundState {
        let mut inbound = InboundState::default();
        inbound.set_link(sender(), plan);
        inbound
    }

    /// Hands over what `inbound` holds ready, in order, into `seen`.
    fn take_ready(inbound: &mut InboundState, seen: &mut Vec<u8>) {
        while let Some((bytes, from)) = inbound.pop_ready() {
            assert_eq!(bytes.len(), 1, "unexpected datagram length");
            seen.push(bytes[0]);
            assert_eq!(from, sender());
        }
    }

    /// Numbered datagram `i` arrives from [`sender`] at `now`: what is
    /// handed over at once, the datagram's copies first.
    fn arrive(inbound: &mut InboundState, now: u64, i: u8) -> Vec<u8> {
        let copies = inbound.arrive(now, sender(), &[i], &Tracer::off());
        let mut seen = vec![i; copies];
        take_ready(inbound, &mut seen);
        seen
    }

    /// Datagrams `0..n` arrive one every 100 µs; then, the traffic over,
    /// every release runs when [`InboundState::next_release`] says. What
    /// the link hands over, in order.
    fn pump_datagrams(inbound: &mut InboundState, n: u8) -> Vec<u8> {
        let mut seen: Vec<u8> =
            (0..n).flat_map(|i| arrive(inbound, u64::from(i) * 100, i)).collect();
        while let Some(at) = inbound.next_release() {
            inbound.release(at);
            take_ready(inbound, &mut seen);
        }
        seen
    }

    #[test]
    fn clean_datagram_plan_is_the_identity() {
        let mut inbound = linked(DatagramFaultPlan::clean(1));
        assert_eq!(pump_datagrams(&mut inbound, 20), (0..20).collect::<Vec<u8>>());
        assert_eq!(inbound.totals(), DatagramFaultCounters::default());
    }

    #[test]
    fn full_drop_rate_delivers_nothing_and_counts() {
        let mut inbound = linked(DatagramFaultPlan::clean(2).drop_rate(1.0));
        let seen = pump_datagrams(&mut inbound, 10);
        assert!(seen.is_empty(), "drop_rate 1.0 must drop everything, got {seen:?}");
        assert_eq!(inbound.totals().dropped_in, 10);
    }

    #[test]
    fn full_duplicate_rate_delivers_everything_twice() {
        let mut inbound = linked(DatagramFaultPlan::clean(3).duplicate_rate(1.0));
        let seen = pump_datagrams(&mut inbound, 5);
        assert_eq!(seen, [0, 0, 1, 1, 2, 2, 3, 3, 4, 4], "both copies at once, in order");
        assert_eq!(inbound.totals().duplicated_in, 5);
    }

    #[test]
    fn reordering_permutes_within_the_window_and_loses_nothing() {
        let mut inbound = linked(DatagramFaultPlan::clean(4).reorder(0.5, 4));
        let n = 40u8;
        let seen = pump_datagrams(&mut inbound, n);
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<u8>>(), "reorder must not lose datagrams");
        assert!(seen != (0..n).collect::<Vec<u8>>(), "something must be out of order");
        assert!(inbound.totals().reordered_in > 0);
        // Window bound: a datagram may be displaced by at most window + the
        // ready-queue backlog; with window 4 a displacement of n would mean
        // a datagram was stranded until the end.
        for (position, &seq) in seen.iter().enumerate() {
            assert!(
                (position as i64 - seq as i64).abs() <= 2 * 4,
                "seq {seq} displaced to position {position}: outside the window"
            );
        }
    }

    #[test]
    fn datagram_drops_are_seed_deterministic() {
        let run = |seed: u64| {
            let plan = DatagramFaultPlan::clean(seed).drop_rate(0.4).duplicate_rate(0.2);
            pump_datagrams(&mut linked(plan), 50)
        };
        let a = run(99);
        let b = run(99);
        let c = run(100);
        assert_eq!(a, b, "same seed, same surviving datagrams");
        assert_ne!(a, c, "different seed, different pattern");
        assert!(a.len() < 60, "rate 0.4 must drop something");
        assert!(!a.is_empty(), "rate 0.4 must keep something");
    }

    #[test]
    fn delayed_datagrams_are_parked_until_due_never_slept_on() {
        let plan = DatagramFaultPlan::clean(27).delay(1.0, Duration::from_millis(60));
        let mut inbound = linked(plan);
        for i in 0..3 {
            assert!(
                arrive(&mut inbound, u64::from(i) * 100, i).is_empty(),
                "delayed datagrams wait"
            );
        }
        assert_eq!(inbound.next_release(), Some(60_000), "due exactly its delay after arrival");
        let mut seen = Vec::new();
        inbound.release(59_999);
        take_ready(&mut inbound, &mut seen);
        assert!(seen.is_empty(), "nothing is released early");
        for (at, i) in [(60_000, 0), (60_100, 1), (60_200, 2)] {
            assert_eq!(inbound.next_release(), Some(at));
            inbound.release(at);
            take_ready(&mut inbound, &mut seen);
            assert_eq!(seen.pop(), Some(i), "each datagram falls due on its own");
        }
        assert_eq!(inbound.next_release(), None, "nothing is parked any more");
        assert_eq!(inbound.totals().delayed_in, 3);
    }

    #[test]
    fn link_plans_shadow_the_default_per_origin() {
        // One sender gets an always-drop link plan — its datagrams die
        // (and are tallied per link); the other sender has no plan and
        // passes untouched.
        let mut inbound = linked(DatagramFaultPlan::clean(12).drop_rate(1.0));
        let fine = SocketAddr::from(([10, 0, 0, 2], 7));
        for i in 0..6u8 {
            assert_eq!(inbound.arrive(u64::from(i), sender(), &[i], &Tracer::off()), 0);
            assert_eq!(inbound.arrive(u64::from(i), fine, &[0x40 + i], &Tracer::off()), 1);
        }
        assert_eq!(inbound.next_release(), None, "a drop parks nothing");

        let links = inbound.link_counters();
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].0, sender());
        assert_eq!(links[0].1.dropped_in, 6, "link tally attributes the drops");
        assert_eq!(inbound.totals().dropped_in, 6, "totals include link faults");
    }

    #[test]
    fn link_reordering_releases_held_datagrams_on_idle() {
        // A link plan that holds everything: the idle release must still
        // hand the datagrams over eventually.
        let mut inbound = linked(DatagramFaultPlan::clean(14).reorder(1.0, 4));
        let seen = pump_datagrams(&mut inbound, 10);
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<u8>>(), "per-link reorder must not lose");
        assert!(inbound.link_counters()[0].1.reordered_in > 0);
    }

    #[test]
    fn a_drop_never_holds_up_the_survivors_behind_it() {
        // A datagram the plan eats must not hold up the ones behind it:
        // every survivor is handed over the moment it arrives, in order.
        let mut inbound = linked(DatagramFaultPlan::clean(21).drop_rate(0.4));
        let seen: Vec<u8> = (0..30).flat_map(|i| arrive(&mut inbound, u64::from(i), i)).collect();
        let dropped = inbound.totals().dropped_in as usize;
        assert!(dropped > 0, "rate 0.4 over 30 datagrams must drop some");
        assert_eq!(seen.len(), 30 - dropped, "every survivor at once");
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "survivors stay in order");
        assert_eq!(inbound.next_release(), None);
    }

    #[test]
    fn idle_release_falls_due_exactly_idle_release_after_the_first_hold() {
        // Nothing but the idle release frees an always-hold window's
        // datagrams, so it must fall due IDLE_RELEASE after the first
        // hold, and not a microsecond sooner.
        let mut inbound = linked(DatagramFaultPlan::clean(23).reorder(1.0, 8));
        assert_eq!(inbound.next_release(), None, "nothing held before traffic");
        for i in 0..4 {
            assert!(arrive(&mut inbound, 1_000 + u64::from(i) * 100, i).is_empty());
        }
        let due = 1_000 + micros(IDLE_RELEASE);
        assert_eq!(inbound.next_release(), Some(due), "the first hold starts the idle clock");

        let mut released = Vec::new();
        inbound.release(due - 1);
        take_ready(&mut inbound, &mut released);
        assert!(released.is_empty(), "the links are not idle yet");
        inbound.release(due);
        take_ready(&mut inbound, &mut released);
        released.sort_unstable();
        assert_eq!(released, (0..4).collect::<Vec<u8>>(), "release frees every held datagram");
        assert_eq!(inbound.next_release(), None);
    }
}
