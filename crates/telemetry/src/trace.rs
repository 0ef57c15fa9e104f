use core::fmt;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The kind of datagram fault a [`TraceEvent::FaultInjected`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The datagram was silently discarded.
    Drop,
    /// The datagram was delivered twice.
    Duplicate,
    /// The datagram was held back and released out of order.
    Reorder,
    /// The datagram was delivered after an artificial delay.
    Delay,
}

impl FaultKind {
    /// Stable lowercase label (used in metric labels and reports).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Reorder => "reorder",
            FaultKind::Delay => "delay",
        }
    }
}

/// Which of a node's three clocks released a [`TraceEvent::OfferSent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OfferTrigger {
    /// The gossip tick — the fallback clock (first offers, and retries
    /// after an abort from an incomplete relay).
    Tick,
    /// A useful `DATA-PAYLOAD` just arrived: one symbol in, one recoded
    /// offer out.
    Delivery,
    /// Feedback arrived for a transfer whose generation the sender holds
    /// completely: the next offer to that peer left one RTT later.
    Feedback,
}

impl OfferTrigger {
    /// Stable lowercase label (used in flight dumps and reports).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            OfferTrigger::Tick => "tick",
            OfferTrigger::Delivery => "delivery",
            OfferTrigger::Feedback => "feedback",
        }
    }
}

/// One typed occurrence on a hot path of the system.
///
/// The vocabulary spans both transports: the UDP gossip plane (offers,
/// feedback, pacing, faults), the TCP serving plane (sessions, store,
/// striped leases), and the overlay harness (relay recoding). Variants
/// carry just enough identity to attribute the event (peer address,
/// generation, replica index) — payloads never travel through the trace.
/// See `docs/OBSERVABILITY.md` for the full catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceEvent {
    /// A `DATA-HEADER` probe was sent to `peer` (handshake opened).
    OfferSent {
        /// Destination of the offer.
        peer: SocketAddr,
        /// Generation the offered symbol belongs to.
        generation: u32,
        /// The clock that released the offer — tick-paced or
        /// self-clocked.
        trigger: OfferTrigger,
    },
    /// Binary feedback for an outstanding offer arrived from `peer`.
    FeedbackReceived {
        /// Sender of the feedback.
        peer: SocketAddr,
        /// `true` = SEND (payload wanted), `false` = ABORT.
        accept: bool,
        /// Offer-to-feedback round-trip time.
        rtt: Duration,
    },
    /// An outstanding offer reached its TTL without feedback — the loss
    /// signal adaptive pacing reacts to.
    OfferTimedOut {
        /// Peer that never answered.
        peer: SocketAddr,
    },
    /// A payload arrived and was handed to the decoder.
    PayloadDelivered {
        /// Generation of the payload.
        generation: u32,
        /// Whether the symbol advanced the decoder's rank.
        useful: bool,
    },
    /// A generation reached full rank and was decoded.
    GenerationDecoded {
        /// The completed generation.
        generation: u32,
    },
    /// Every generation decoded — the node holds the whole object.
    ObjectDecoded,
    /// A relay emitted a symbol recoded from its partial decoder state
    /// (the paper's in-network recoding step).
    RelayRecode {
        /// Generation the recoded symbol belongs to.
        generation: u32,
    },
    /// Adaptive pacing raised `peer`'s in-flight budget (additive
    /// increase on observed feedback).
    BudgetRaised {
        /// Peer whose budget moved.
        peer: SocketAddr,
        /// The new whole-offer budget.
        budget: u64,
    },
    /// Adaptive pacing cut `peer`'s in-flight budget (multiplicative
    /// decrease after offer timeouts).
    BudgetCut {
        /// Peer whose budget moved.
        peer: SocketAddr,
        /// The new whole-offer budget.
        budget: u64,
    },
    /// The fault plan of a link into this node injected a fault on a
    /// datagram arriving over it.
    FaultInjected {
        /// What the fault did to the datagram.
        kind: FaultKind,
        /// The sender at the far end of the link, when attributable.
        peer: Option<SocketAddr>,
    },
    /// A serving connection was accepted by the TCP listener.
    ConnectionOpened {
        /// The client's address, when the socket reports one.
        peer: Option<SocketAddr>,
    },
    /// A serving connection ended (either side closed, or an error).
    ConnectionClosed {
        /// The client's address, when the socket reports one.
        peer: Option<SocketAddr>,
    },
    /// A fetch session was admitted for `object`.
    SessionAccepted {
        /// Object id requested.
        object: u64,
    },
    /// A fetch session was refused (unknown object or invalid request).
    SessionRejected {
        /// Object id requested.
        object: u64,
    },
    /// A fetch session acknowledged full delivery of `object`.
    SessionCompleted {
        /// Object id served.
        object: u64,
    },
    /// A symbol request was answered from the warm generation cache.
    StoreHit {
        /// Object id.
        object: u64,
        /// Generation index within the object.
        generation: u32,
    },
    /// A symbol request had to re-encode (cold cache).
    StoreMiss {
        /// Object id.
        object: u64,
        /// Generation index within the object.
        generation: u32,
    },
    /// A warm generation was evicted to admit another.
    StoreEvicted {
        /// Object id evicted.
        object: u64,
        /// Generation index evicted.
        generation: u32,
    },
    /// A striped-fetch replica stream was declared dead (error or
    /// progress-watermark stall).
    ReplicaFailover {
        /// Index of the dead replica.
        replica: u64,
    },
    /// A generation lease moved from a dead replica to a survivor.
    LeaseReassigned {
        /// The re-leased generation.
        generation: u32,
        /// Replica the lease was taken from.
        from: u64,
        /// Replica the lease now belongs to.
        to: u64,
    },
    /// One scheduler turn (poll → dispatch → timers) completed on a
    /// sharded-runtime worker — the flight recorder's heartbeat.
    ShardTick {
        /// Worker index of the shard.
        shard: u64,
        /// Timers still armed on the shard's wheel after the turn.
        wheel_depth: u64,
    },
    /// A reactor timer fired noticeably past its deadline (emission is
    /// thresholded by the recorder so on-time ticks do not flood the
    /// ring).
    TimerFired {
        /// Worker index of the shard.
        shard: u64,
        /// Microseconds past the scheduled deadline.
        lag_us: u64,
    },
    /// The stall watchdog saw a no-progress window: no node decoded
    /// anything new for longer than the configured stall window.
    StallDetected {
        /// Worker index of the shard this event was recorded on.
        shard: u64,
        /// How long the swarm had made no progress, in milliseconds.
        idle_ms: u64,
    },
}

impl TraceEvent {
    /// Stable snake_case name of the variant (used in reports and tests).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::OfferSent { .. } => "offer_sent",
            TraceEvent::FeedbackReceived { .. } => "feedback_received",
            TraceEvent::OfferTimedOut { .. } => "offer_timed_out",
            TraceEvent::PayloadDelivered { .. } => "payload_delivered",
            TraceEvent::GenerationDecoded { .. } => "generation_decoded",
            TraceEvent::ObjectDecoded => "object_decoded",
            TraceEvent::RelayRecode { .. } => "relay_recode",
            TraceEvent::BudgetRaised { .. } => "budget_raised",
            TraceEvent::BudgetCut { .. } => "budget_cut",
            TraceEvent::FaultInjected { .. } => "fault_injected",
            TraceEvent::ConnectionOpened { .. } => "connection_opened",
            TraceEvent::ConnectionClosed { .. } => "connection_closed",
            TraceEvent::SessionAccepted { .. } => "session_accepted",
            TraceEvent::SessionRejected { .. } => "session_rejected",
            TraceEvent::SessionCompleted { .. } => "session_completed",
            TraceEvent::StoreHit { .. } => "store_hit",
            TraceEvent::StoreMiss { .. } => "store_miss",
            TraceEvent::StoreEvicted { .. } => "store_evicted",
            TraceEvent::ReplicaFailover { .. } => "replica_failover",
            TraceEvent::LeaseReassigned { .. } => "lease_reassigned",
            TraceEvent::ShardTick { .. } => "shard_tick",
            TraceEvent::TimerFired { .. } => "timer_fired",
            TraceEvent::StallDetected { .. } => "stall_detected",
        }
    }
}

/// A [`TraceEvent`] stamped with the time its caller handed in.
///
/// `at` is the caller's clock, not the sink's: inside a swarm the time
/// since the run began (virtual on the virtual-time driver), on the
/// serving path the time since the Unix epoch, as its offers carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// When the event happened, on the caller's clock.
    pub at: Duration,
    /// The event itself.
    pub event: TraceEvent,
}

/// Receives events emitted from instrumented hot paths.
///
/// Implementations must be cheap and non-blocking: `record` is called
/// from reactor workers and serving threads. The bundled [`RingSink`] takes one
/// short mutex; a custom sink could count events in atomics or forward
/// them to a channel.
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use ltnc_telemetry::{TraceEvent, TraceSink, Tracer};
///
/// /// Keeps the latest stamp, nothing else.
/// #[derive(Default)]
/// struct LastSink(AtomicU64);
/// impl TraceSink for LastSink {
///     fn record(&self, now: u64, _event: TraceEvent) {
///         self.0.store(now, Ordering::Relaxed);
///     }
/// }
///
/// let sink = std::sync::Arc::new(LastSink::default());
/// let tracer = Tracer::new(sink.clone());
/// tracer.emit(1_500, || TraceEvent::ObjectDecoded);
/// assert_eq!(sink.0.load(Ordering::Relaxed), 1_500);
/// ```
pub trait TraceSink: Send + Sync {
    /// Accepts one event that happened at `now`, in microseconds on the
    /// caller's clock: sinks read no clock of their own.
    fn record(&self, now: u64, event: TraceEvent);
}

/// A bounded ring-buffer [`TraceSink`].
///
/// Keeps the most recent `capacity` events; older ones are discarded and
/// counted in [`RingSink::dropped`]. Each recorded event keeps the stamp
/// its caller handed in ([`TimedEvent::at`]); the sink reads no clock.
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use ltnc_telemetry::{RingSink, TraceEvent, Tracer};
///
/// let sink = Arc::new(RingSink::new(2));
/// let tracer = Tracer::new(sink.clone());
/// for generation in 0..3 {
///     tracer.emit(1_000 * u64::from(generation), || TraceEvent::GenerationDecoded { generation });
/// }
/// let events = sink.drain();
/// assert_eq!(events.len(), 2); // bounded: the oldest was dropped
/// assert_eq!(sink.dropped(), 1);
/// assert_eq!(events[1].at, Duration::from_millis(2)); // the caller's stamp
/// ```
pub struct RingSink {
    capacity: usize,
    ring: Mutex<VecDeque<TimedEvent>>,
    dropped: AtomicU64,
}

impl RingSink {
    /// A sink keeping at most `capacity` events (at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> RingSink {
        let capacity = capacity.max(1);
        RingSink {
            capacity,
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            dropped: AtomicU64::new(0),
        }
    }

    /// Number of events currently buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.lock().map(|ring| ring.len()).unwrap_or(0)
    }

    /// `true` when nothing is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events discarded because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copies the buffered events, oldest first, leaving them in place.
    #[must_use]
    pub fn events(&self) -> Vec<TimedEvent> {
        self.ring.lock().map(|ring| ring.iter().copied().collect()).unwrap_or_default()
    }

    /// Removes and returns the buffered events, oldest first.
    #[must_use]
    pub fn drain(&self) -> Vec<TimedEvent> {
        self.ring.lock().map(|mut ring| ring.drain(..).collect()).unwrap_or_default()
    }
}

impl TraceSink for RingSink {
    fn record(&self, now: u64, event: TraceEvent) {
        let at = Duration::from_micros(now);
        if let Ok(mut ring) = self.ring.lock() {
            if ring.len() >= self.capacity {
                ring.pop_front();
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            ring.push_back(TimedEvent { at, event });
        }
    }
}

impl fmt::Debug for RingSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RingSink")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// A cheap, cloneable handle hot paths emit through.
///
/// Wraps an optional shared [`TraceSink`]. The disabled handle
/// ([`Tracer::off`], also `Default`) makes [`Tracer::emit`] a single
/// branch on `None`: the closure building the event is never called, so
/// instrumentation costs nothing when tracing is not requested.
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<Arc<dyn TraceSink>>,
}

impl Tracer {
    /// A tracer forwarding to `sink`.
    #[must_use]
    pub fn new(sink: Arc<dyn TraceSink>) -> Tracer {
        Tracer { sink: Some(sink) }
    }

    /// The disabled tracer; every `emit` is a no-op.
    #[must_use]
    pub fn off() -> Tracer {
        Tracer { sink: None }
    }

    /// A tracer from an optional sink (`None` disables).
    #[must_use]
    pub fn from_option(sink: Option<Arc<dyn TraceSink>>) -> Tracer {
        Tracer { sink }
    }

    /// `true` when a sink is installed.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Records the event built by `make` as happening at `now` (µs on
    /// the caller's clock) — or does nothing, without calling `make`,
    /// when no sink is installed.
    #[inline]
    pub fn emit(&self, now: u64, make: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.record(now, make());
        }
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer").field("enabled", &self.is_enabled()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_bounds_and_counts_drops() {
        let sink = RingSink::new(3);
        for generation in 0..5 {
            sink.record(u64::from(generation) * 10, TraceEvent::GenerationDecoded { generation });
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 2);
        let events = sink.events();
        assert_eq!(sink.len(), 3, "events() leaves the ring intact");
        // The survivors are the most recent three, in order.
        let generations: Vec<u32> = events
            .iter()
            .map(|e| match e.event {
                TraceEvent::GenerationDecoded { generation } => generation,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(generations, vec![2, 3, 4]);
        let stamps: Vec<u64> = events.iter().map(|e| e.at.as_micros() as u64).collect();
        assert_eq!(stamps, vec![20, 30, 40], "each event keeps its caller's stamp");
        assert_eq!(sink.drain().len(), 3);
        assert!(sink.is_empty());
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let sink = RingSink::new(0);
        sink.record(0, TraceEvent::ObjectDecoded);
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn disabled_tracer_never_builds_the_event() {
        let tracer = Tracer::off();
        assert!(!tracer.is_enabled());
        tracer.emit(0, || panic!("must not be called"));
    }

    #[test]
    fn tracer_forwards_to_sink() {
        let sink = Arc::new(RingSink::new(8));
        let tracer = Tracer::new(sink.clone());
        assert!(tracer.is_enabled());
        tracer.emit(5, || TraceEvent::ObjectDecoded);
        let tracer2 = tracer.clone();
        tracer2.emit(7, || TraceEvent::GenerationDecoded { generation: 1 });
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.events()[0].event.name(), "object_decoded");
    }

    #[test]
    fn fault_kind_labels_are_stable() {
        assert_eq!(FaultKind::Drop.label(), "drop");
        assert_eq!(FaultKind::Duplicate.label(), "duplicate");
        assert_eq!(FaultKind::Reorder.label(), "reorder");
        assert_eq!(FaultKind::Delay.label(), "delay");
    }

    #[test]
    fn offer_trigger_labels_are_stable() {
        assert_eq!(OfferTrigger::Tick.label(), "tick");
        assert_eq!(OfferTrigger::Delivery.label(), "delivery");
        assert_eq!(OfferTrigger::Feedback.label(), "feedback");
    }
}
