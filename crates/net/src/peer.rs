//! The peer node: one protocol state machine, two drivers.
//!
//! All coding state ([`SourceSession`] / [`ReceiverSession`]) and every
//! protocol transition live in one state machine with two entry points
//! once its driver has wired it to its neighbours — a datagram arrived,
//! the gossip tick fired — which processes inbound messages and pushes
//! header-first transfer offers, subject to the aggressiveness gate and a
//! per-peer in-flight budget. The machine is sans-io: it owns no socket
//! and reads no clock. Every call takes `now` (microseconds on its
//! driver's clock) and returns the datagrams it emits in an outbox. A
//! node only ever runs as a member of a swarm ([`crate::TopologyConfig`]),
//! on one of two drivers: the reactor ([`crate::run_swarm`], real UDP
//! sockets, the run's monotonic clock, many nodes on a few worker threads)
//! and the virtual-time driver ([`crate::run_virtual_swarm`], in-memory
//! links, simulated time).
//!
//! Offers leave on **three clocks**, all through the same gates and each
//! 1:1 with an event, so none can amplify. A *useful* `DATA-PAYLOAD`
//! releases one recoded offer to a random peer (one symbol in, one out).
//! `FEEDBACK`, accept or abort, for a transfer whose generation the
//! sender holds *completely* (a source always does) releases the next
//! offer to that same peer: the pipeline to each neighbour is RTT-paced
//! and window-limited. The gossip tick is the fallback clock: first
//! offers, retries after an abort from an incomplete relay, TTL eviction.
//! Incomplete senders are deliberately not feedback-clocked — measured,
//! they flood a neighbour with dependent recodes of the same few symbols.
//!
//! The in-flight budget is **loss-adaptive** (AIMD, with the
//! asymmetry inverted relative to TCP because loss here is erasure, not
//! congestion): an offer that times out while the peer is still
//! answering *other* offers proves the link lossy — that offer pinned a
//! budget slot down for a whole TTL, so the budget grows additively to
//! hand the slot back and keep the live pipeline deep (the paper's
//! redundancy-tracks-the-channel point applied to pacing). A peer gone
//! entirely silent for a TTL is treated as dead: its budget is cut
//! multiplicatively (at most once per TTL window) down to the floor,
//! sparing offers for live peers — and its feedback, once it returns,
//! grows the budget back to (never past) its initial value, so one
//! outage is not a life sentence at the floor. On a clean link nothing
//! times out and the budget never moves — fixed-cap behaviour exactly.
//! Bounds come from [`NodeOptions::inflight_floor`] /
//! [`NodeOptions::inflight_ceiling`]; per-peer loss estimates (EWMA over
//! offer outcomes) are reported in [`PeerReport::loss_estimates`], and
//! budget moves are counted in [`WireCounters`].
//!
//! The pending TTL itself is **latency-adaptive**: every
//! feedback arrival is an offer→feedback RTT sample, and the TTL in
//! force per peer is a multiple of that peer's RTT EWMA, clamped so the
//! configured [`NodeOptions::pending_ttl`] stays the floor (and the
//! fallback before any feedback has been measured). On localhost the
//! derived TTL equals the floor; across slow or jittery links it grows
//! with the measured round trip, so live offers are not declared lost —
//! and budget slots not churned — by latency alone. Estimates are
//! reported in [`PeerReport::rtt_estimates`].
//!
//! Seeded datagram loss and reordering live in the links, on the
//! receiving end of each ([`crate::TopologyFaults`]), in the endpoint
//! both drivers wrap around the machine (`crate::endpoint`), so a lossy
//! run exercises exactly the code a clean one does.
//!
//! The transfer protocol mirrors the paper's binary feedback channel (see
//! [`crate::envelope`]): `DATA-HEADER` offer → `FEEDBACK-ACCEPT`/`ABORT` →
//! `DATA-PAYLOAD`. An aborted transfer costs the wire only the header and
//! the one-byte-of-intent feedback datagram — never payload bytes.
//! `COMPLETE` messages prune finished generations from every sender's
//! schedule.
//!
//! Its sender half is one [`OfferLedger`] per neighbour, its receiver half
//! one [`AcceptLedger`] per sender, as in `ltnc-serve`; this module adds
//! the policy.
//!
//! What leaves this module is the tuning ([`NodeOptions`]) and each
//! node's final accounting ([`PeerReport`]).

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::Thread;
use std::time::Duration;

use ltnc_gf2::EncodedPacket;
use ltnc_metrics::{HopLatency, LogHistogramSnapshot, OpCounters, WireCounters};
use ltnc_scheme::SchemeParams;
use ltnc_telemetry::{OfferTrigger, RingSink, TimedEvent, TraceEvent, Tracer};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::envelope::{
    self, EnvelopeHeader, EnvelopeView, Message, MessageKind, MessageView, TraceContext,
    GENERATION_OBJECT,
};
use crate::faults::DatagramFaultCounters;
use crate::ledger::{AcceptLedger, OfferLedger};
use ltnc_session::generation::{ObjectManifest, ReceiverSession, SourceSession};

/// The datagrams one [`NodeStateMachine`] call emits, in order:
/// destination and frame bytes. The driver sends them.
pub(crate) type Outbox = Vec<(SocketAddr, Vec<u8>)>;

/// The time from `since` to `now`, both in microseconds on one node's
/// clock (zero if the clock stepped back).
fn elapsed(now: u64, since: u64) -> Duration {
    Duration::from_micros(now.saturating_sub(since))
}

/// `duration` in microseconds, the unit of every node's clock.
pub(crate) fn micros(duration: Duration) -> u64 {
    u64::try_from(duration.as_micros()).unwrap_or(u64::MAX)
}

/// Smoothing factor of the per-peer loss EWMA (higher reacts faster).
const LOSS_EWMA_ALPHA: f64 = 0.1;

/// Multiplicative-decrease factor applied to an adaptive budget when
/// offers to a peer time out.
const BUDGET_CUT_FACTOR: f64 = 0.5;

/// Smoothing factor of the per-peer offer→feedback RTT EWMA.
const RTT_EWMA_ALPHA: f64 = 0.2;

/// Derived pending TTL as a multiple of the measured RTT: an offer is
/// declared lost once several round trips have passed without feedback.
const RTT_TTL_FACTOR: f64 = 4.0;

/// The paper's aggressiveness: the share of `k` a relay must hold of a
/// generation before it recodes it.
const AGGRESSIVENESS: f64 = 0.01;

/// Offers initiated per gossip tick.
const PUSH_RATE: usize = 2;

/// Cap on the derived TTL relative to the configured
/// [`NodeOptions::pending_ttl`] floor, so one absurd RTT sample cannot
/// freeze eviction.
const RTT_TTL_CEILING_FACTOR: u32 = 16;

/// What a node is in the session.
pub(crate) enum NodeRole {
    /// Holds the full object and only emits.
    Source {
        /// The object to disseminate.
        object: Vec<u8>,
        /// Scheme and code dimensions.
        params: SchemeParams,
    },
    /// Starts empty; decodes, relays and eventually reconstructs.
    Peer {
        /// The manifest agreed with the source.
        manifest: ObjectManifest,
    },
}

/// Tuning knobs of a node.
#[derive(Debug, Clone, Copy)]
pub struct NodeOptions {
    /// Transfers simultaneously awaiting feedback per peer: the *initial*
    /// budget, which then adapts to observed loss (AIMD over feedback
    /// arrivals and offer timeouts).
    pub per_peer_inflight: usize,
    /// Lower bound of the budget (treated as at least 1).
    pub inflight_floor: usize,
    /// Upper bound of the budget.
    pub inflight_ceiling: usize,
    /// Gossip tick period.
    pub tick: Duration,
    /// Offers not answered within the pending TTL are forgotten. This
    /// fixed value is the *floor* (and the fallback before any feedback
    /// has been measured): the TTL actually in force per peer is derived
    /// from the offer→feedback RTT EWMA, clamped to
    /// `[pending_ttl, 16 × pending_ttl]`.
    pub pending_ttl: Duration,
    /// Seed of the node's deterministic RNG.
    pub seed: u64,
}

impl NodeOptions {
    /// Bounds of the budget: `(floor, ceiling)`, floor ≥ 1.
    fn budget_bounds(&self) -> (f64, f64) {
        let floor = self.inflight_floor.max(1) as f64;
        let ceiling = (self.inflight_ceiling as f64).max(floor);
        (floor, ceiling)
    }

    /// The clamped budget every fresh per-peer pacing entry starts with
    /// (also the cap for peers with no pacing state yet).
    fn initial_budget(&self) -> f64 {
        let (floor, ceiling) = self.budget_bounds();
        (self.per_peer_inflight.max(1) as f64).clamp(floor, ceiling)
    }

    /// The pending TTL in force for a peer with the given RTT estimate:
    /// `RTT_TTL_FACTOR × rtt` clamped to `[pending_ttl, 16 × pending_ttl]`.
    /// Without a measurement the fixed [`NodeOptions::pending_ttl`]
    /// applies.
    fn derived_ttl(&self, rtt_ewma: Option<f64>) -> Duration {
        let floor = self.pending_ttl;
        let Some(rtt) = rtt_ewma else {
            return floor;
        };
        Duration::from_secs_f64((rtt * RTT_TTL_FACTOR).max(0.0))
            .clamp(floor, floor.saturating_mul(RTT_TTL_CEILING_FACTOR))
    }
}

impl Default for NodeOptions {
    fn default() -> Self {
        NodeOptions {
            per_peer_inflight: 4,
            inflight_floor: 1,
            inflight_ceiling: 64,
            tick: Duration::from_millis(2),
            pending_ttl: Duration::from_millis(250),
            seed: 0xC0DE,
        }
    }
}

/// Full configuration of one node, as [`crate::TopologyConfig`] lays
/// it out.
pub(crate) struct NodeConfig {
    /// Session identifier shared by every node of the dissemination.
    pub(crate) session: u64,
    /// Source or peer.
    pub(crate) role: NodeRole,
    /// Tuning knobs.
    pub(crate) options: NodeOptions,
    /// Optional ring of the [`TraceEvent`]s of the node's hot paths
    /// (offers, feedback, pacing moves, fault injections), drained into
    /// [`PeerReport::events`]. `None` makes every hook a no-op.
    pub(crate) trace: Option<Arc<RingSink>>,
    /// Refresh the node's live mirror each tick — set when the swarm's
    /// aggregated endpoint reads every node's [`Shared`] mid-run.
    pub(crate) publish_live: bool,
}

impl NodeConfig {
    /// A configuration with no trace sink installed.
    pub(crate) fn new(session: u64, role: NodeRole, options: NodeOptions) -> NodeConfig {
        NodeConfig { session, role, options, trace: None, publish_live: false }
    }
}

/// Final accounting of one node of a swarm, in
/// [`crate::SwarmReport::source_report`] and
/// [`crate::SwarmReport::peer_reports`].
#[derive(Debug, Clone)]
pub struct PeerReport {
    /// Transport-level counters.
    pub wire: WireCounters,
    /// Whether every generation decoded.
    pub complete: bool,
    /// Number of generations decoded.
    pub complete_generations: usize,
    /// The reassembled object (receivers only, once complete).
    pub object: Option<Vec<u8>>,
    /// Coding cost of the reception/decoding path.
    pub decoding: OpCounters,
    /// Coding cost of the emission/recoding path.
    pub recoding: OpCounters,
    /// Faults the driver injected on the links into the node (all zero
    /// on clean links).
    pub faults: DatagramFaultCounters,
    /// Final per-peer loss estimates (EWMA over offer outcomes: feedback
    /// arrived = 0, offer timed out = 1), sorted by peer address.
    pub loss_estimates: Vec<(SocketAddr, f64)>,
    /// Final per-peer offer→feedback RTT estimates (EWMA over measured
    /// round trips; peers that never answered are absent), sorted by peer
    /// address. Each peer's pending TTL was derived from this estimate.
    pub rtt_estimates: Vec<(SocketAddr, Duration)>,
    /// Faults injected per link into the node that has a plan
    /// ([`crate::TopologyFaults`]), keyed by sender address — the
    /// per-link attribution of [`PeerReport::faults`].
    pub link_faults: Vec<(SocketAddr, DatagramFaultCounters)>,
    /// Trace events recorded during the run, oldest first, when
    /// [`crate::TopologyConfig::trace_capacity`] is set; empty otherwise.
    pub events: Vec<TimedEvent>,
    /// Origin→delivery latency distributions from wire-carried trace
    /// contexts, one entry per populated hop depth (number of overlay
    /// links crossed), sorted by depth. Sources (which deliver nothing)
    /// report an empty list.
    pub latency_by_hop: Vec<(usize, LogHistogramSnapshot)>,
}

/// State a node publishes for observers outside its reactor worker:
/// the swarm's scrape endpoint, its flight recorder and the driver's
/// completion poll.
#[derive(Default)]
pub(crate) struct Shared {
    pub(crate) complete: AtomicBool,
    /// The swarm driver's thread, parked on its completion poll; unparked
    /// by the node the moment it stores `complete`.
    pub(crate) driver: OnceLock<Thread>,
    pub(crate) complete_generations: AtomicUsize,
    /// Live mirror of the state machine's [`WireCounters`], refreshed
    /// once per gossip tick — only when the swarm's metrics endpoint is
    /// up ([`crate::TopologyConfig::metrics_bind`]); never touched
    /// otherwise.
    pub(crate) wire: Mutex<WireCounters>,
    /// Origin→delivery latency histograms keyed by hop depth, recorded
    /// lock-free by the state machine on every payload arrival and read
    /// live by the scrape endpoint mid-run.
    pub(crate) latency: HopLatency,
    /// Total innovative (rank-increasing) symbols decoded so far, bumped
    /// on every useful delivery. Always maintained — it is one relaxed
    /// add — because the swarm's stall watchdog uses it as its progress
    /// signal even when no metrics endpoint is attached.
    pub(crate) decoded_rank: AtomicU64,
    /// Per-generation decoder rank mirror (useful symbols accumulated
    /// per generation), refreshed once per gossip tick alongside the
    /// wire mirror — same `publish_live` gate, same cost model. Empty
    /// until the first refresh (and always, for sources).
    pub(crate) decoder: Mutex<Vec<u64>>,
}

impl Shared {
    /// The per-generation rank mirror as last published (empty when the
    /// node never published, i.e. no live endpoint was attached).
    pub(crate) fn decoder_ranks(&self) -> Vec<u64> {
        self.decoder.lock().map(|ranks| ranks.clone()).unwrap_or_default()
    }

    /// The wire counters as last published.
    pub(crate) fn wire_snapshot(&self) -> WireCounters {
        self.wire.lock().map(|wire| *wire).unwrap_or_default()
    }

    /// Innovative symbols decoded plus generations completed: monotone,
    /// constant on a source — the stall watchdog's signal.
    pub(crate) fn progress(&self) -> u64 {
        self.decoded_rank.load(Ordering::Relaxed)
            + self.complete_generations.load(Ordering::Acquire) as u64
    }
}

/// One neighbour: the transfer's sender half on its link, and the
/// pacing (from the link's first offer outcome on) that it drives.
struct Link {
    addr: SocketAddr,
    offers: OfferLedger<EncodedPacket>,
    pacing: Option<PeerPacing>,
}

/// Adaptive pacing state for one peer: the AIMD budget and the loss and
/// RTT estimates driving it.
struct PeerPacing {
    /// Fractional in-flight budget; its integer part is the cap.
    budget: f64,
    /// EWMA over offer outcomes (feedback = 0, timeout = 1).
    loss_ewma: f64,
    /// EWMA over measured offer→feedback round trips, in seconds; `None`
    /// until the first feedback arrives. Drives the derived pending TTL.
    rtt_ewma: Option<f64>,
    /// Last time any feedback arrived from this peer — the aliveness
    /// signal that separates "lossy link" (raise) from "dead peer" (cut).
    last_feedback: Option<u64>,
    /// Last multiplicative decrease — cuts fire at most once per pending
    /// TTL so one silent window costs one cut, not a collapse.
    last_cut: Option<u64>,
}

/// The protocol core of one node: every recv, tick and peer-wiring
/// transition lives here, behind a sans-io surface
/// ([`NodeStateMachine::handle_datagram`], [`NodeStateMachine::tick`],
/// [`NodeStateMachine::set_peers`]) that a driver calls with its clock's
/// `now` and whose emitted datagrams it sends — the paper's node loop:
/// on a period, push; on reception, check the header, answer, store,
/// recode.
pub(crate) struct NodeStateMachine {
    session: u64,
    params: SchemeParams,
    options: NodeOptions,
    source: Option<SourceSession>,
    receiver: Option<ReceiverSession>,
    generation_count: u32,
    /// The push set, in order; empty, and so no offer, until wired in.
    links: Vec<Link>,
    link_index: HashMap<SocketAddr, usize>,
    rng: SmallRng,
    announced: HashSet<u32>,
    /// Per-generation recode lineage (relays only): the merged trace of
    /// every payload delivered for that generation — earliest origin
    /// stamp, deepest hop count — so recoded offers advertise the true
    /// critical path of the data they are built from.
    lineage: HashMap<u32, TraceContext>,
    /// Receiver halves by sender, not link: the source is in no push set.
    accepts: HashMap<SocketAddr, AcceptLedger>,
    wire: WireCounters,
    shared: Arc<Shared>,
    /// Where the node's hot paths, and its links' faults, are traced.
    pub(crate) tracer: Tracer,
    trace: Option<Arc<RingSink>>,
    /// Refresh the shared wire mirror each tick (only when a metrics
    /// endpoint reads it — the mirror costs nothing otherwise).
    publish_live: bool,
}

impl NodeStateMachine {
    /// Builds the node. A source is complete by definition, and says so
    /// on `shared` before it is ever scheduled, so completion observers
    /// never see it incomplete.
    pub(crate) fn new(config: NodeConfig, shared: Arc<Shared>) -> NodeStateMachine {
        let tracer = Tracer::from_option(config.trace.clone().map(|ring| ring as _));
        let (manifest, source, receiver) = match config.role {
            NodeRole::Source { object, params } => {
                let source = SourceSession::new(&object, params);
                let generations = source.manifest().generation_count() as usize;
                shared.complete.store(true, Ordering::Release);
                shared.complete_generations.store(generations, Ordering::Release);
                (*source.manifest(), Some(source), None)
            }
            NodeRole::Peer { manifest } => (manifest, None, Some(ReceiverSession::new(manifest))),
        };
        NodeStateMachine {
            session: config.session,
            params: manifest.params,
            options: config.options,
            source,
            receiver,
            generation_count: manifest.generation_count(),
            links: Vec::new(),
            link_index: HashMap::new(),
            rng: SmallRng::seed_from_u64(config.options.seed),
            announced: HashSet::new(),
            lineage: HashMap::new(),
            accepts: HashMap::new(),
            wire: WireCounters::new(),
            shared,
            tracer,
            trace: config.trace,
            publish_live: config.publish_live,
        }
    }

    /// Wires the node into the swarm, one link per neighbour, and opens
    /// the offer gates — the starting gun.
    pub(crate) fn set_peers(&mut self, peers: Vec<SocketAddr>) {
        let generations = self.generation_count;
        self.link_index = peers.iter().enumerate().map(|(index, &addr)| (addr, index)).collect();
        let link = |addr| Link { addr, offers: OfferLedger::new(generations), pacing: None };
        self.links = peers.into_iter().map(link).collect();
    }

    /// Final accounting; consumes the state machine. The fault counters
    /// are the driver's to fill in: it owns the links.
    pub(crate) fn into_report(mut self) -> PeerReport {
        let (complete, complete_generations, object, decoding, mut recoding) = match self
            .receiver
            .as_mut()
        {
            Some(receiver) => (
                receiver.is_complete(),
                receiver.complete_generations(),
                receiver.reassemble(),
                receiver.decoding_counters(),
                receiver.recoding_counters(),
            ),
            None => {
                (true, self.generation_count as usize, None, OpCounters::new(), OpCounters::new())
            }
        };
        if let Some(source) = &self.source {
            recoding.merge(&source.recoding_counters());
        }
        let paced =
            || self.links.iter().filter_map(|link| Some((link.addr, link.pacing.as_ref()?)));
        let mut loss_estimates: Vec<(SocketAddr, f64)> =
            paced().map(|(peer, pacing)| (peer, pacing.loss_ewma)).collect();
        loss_estimates.sort_by_key(|&(peer, _)| peer);
        let mut rtt_estimates: Vec<(SocketAddr, Duration)> = paced()
            .filter_map(|(peer, pacing)| {
                pacing.rtt_ewma.map(|rtt| (peer, Duration::from_secs_f64(rtt.max(0.0))))
            })
            .collect();
        rtt_estimates.sort_by_key(|&(peer, _)| peer);
        self.publish_wire();
        PeerReport {
            wire: self.wire,
            complete,
            complete_generations,
            object,
            decoding,
            recoding,
            faults: DatagramFaultCounters::default(),
            loss_estimates,
            rtt_estimates,
            link_faults: Vec::new(),
            events: self.trace.map(|ring| ring.drain()).unwrap_or_default(),
            latency_by_hop: self.shared.latency.snapshot(),
        }
    }

    /// Copies the node's counters into the shared live mirror — the
    /// scrape endpoint's read side. A no-op unless an endpoint is
    /// attached, so nodes without one never touch the mutex.
    pub(crate) fn publish_wire(&self) {
        if !self.publish_live {
            return;
        }
        if let Ok(mut wire) = self.shared.wire.lock() {
            *wire = self.wire;
        }
        if let Some(receiver) = self.receiver.as_ref() {
            if let Ok(mut ranks) = self.shared.decoder.lock() {
                ranks.clear();
                ranks
                    .extend((0..self.generation_count).map(|g| receiver.useful_received(g) as u64));
            }
        }
    }

    /// Records the outcome of one offer on link `index` at `now` — feedback
    /// arrived after `rtt` (whatever the verdict), or `None`: the offer
    /// died at its TTL — updating the loss and RTT estimates and the AIMD
    /// budget.
    ///
    /// The asymmetry is deliberate and opposite to TCP's: loss here is
    /// *erasure*, not congestion. A timed-out offer to a peer that is
    /// still answering others pinned a budget slot down for a whole TTL —
    /// the additive increase hands that slot back, so the live pipeline
    /// stays as deep as the clean-link one (redundancy tracking channel
    /// loss, as in the paper). Only a peer gone entirely silent for a TTL
    /// triggers the multiplicative decrease, throttling offers to the
    /// dead until the floor.
    fn note_outcome(&mut self, now: u64, index: usize, rtt: Option<Duration>) {
        let options = self.options;
        let (floor, ceiling) = options.budget_bounds();
        let base = options.initial_budget();
        let Link { addr: peer, pacing, .. } = &mut self.links[index];
        let peer = *peer;
        let pacing = pacing.get_or_insert_with(|| PeerPacing {
            budget: base,
            loss_ewma: 0.0,
            rtt_ewma: None,
            last_feedback: None,
            last_cut: None,
        });
        let observed = if rtt.is_some() { 0.0 } else { 1.0 };
        pacing.loss_ewma += LOSS_EWMA_ALPHA * (observed - pacing.loss_ewma);
        let before = pacing.budget as u64;
        if let Some(rtt) = rtt {
            let sample = rtt.as_secs_f64();
            pacing.rtt_ewma = Some(match pacing.rtt_ewma {
                Some(ewma) => ewma + RTT_EWMA_ALPHA * (sample - ewma),
                None => sample,
            });
            pacing.last_feedback = Some(now);
            // A peer cut for silence that answers again recovers: grow
            // back toward the initial budget (never past it — raising
            // above base is reserved for the loss signal), so one
            // transient outage does not pin the peer at the floor for
            // the rest of the session.
            if pacing.budget < base {
                pacing.budget = (pacing.budget + 1.0 / pacing.budget.max(1.0)).min(base);
            }
        } else {
            let ttl = options.derived_ttl(pacing.rtt_ewma);
            if pacing.last_feedback.is_some_and(|at| elapsed(now, at) < ttl) {
                // Lossy but live: the lost offer wasted one slot for a full
                // TTL; grow the budget by one to keep the live pipeline deep.
                pacing.budget = (pacing.budget + 1.0).clamp(floor, ceiling);
            } else if pacing.last_cut.is_none_or(|at| elapsed(now, at) >= ttl) {
                // Silent for a whole TTL: multiplicative decrease, at most
                // once per window, down to the floor.
                pacing.last_cut = Some(now);
                pacing.budget = (pacing.budget * BUDGET_CUT_FACTOR).clamp(floor, ceiling);
            }
        }
        // Counters and trace report whole-offer moves of the budget.
        let budget = pacing.budget as u64;
        if budget > before {
            self.wire.budget_raises += 1;
            self.tracer.emit(now, || TraceEvent::BudgetRaised { peer, budget });
        } else if budget < before {
            self.wire.budget_cuts += 1;
            self.tracer.emit(now, || TraceEvent::BudgetCut { peer, budget });
        }
    }

    /// The pending TTL currently in force for offers on link `index`:
    /// derived from its RTT estimate (fixed [`NodeOptions::pending_ttl`]
    /// as the floor and the fallback before any feedback has been
    /// measured).
    fn ttl_for(&self, index: usize) -> Duration {
        self.options.derived_ttl(self.links[index].pacing.as_ref().and_then(|p| p.rtt_ewma))
    }

    /// The in-flight cap currently in force on link `index`.
    fn inflight_cap(&self, index: usize) -> usize {
        match &self.links[index].pacing {
            Some(pacing) => (pacing.budget as usize).max(1),
            // Not yet tracked: the same clamped initial budget a fresh
            // pacing entry starts with.
            None => self.options.initial_budget() as usize,
        }
    }

    /// Counts one encoded datagram to `to` and queues it.
    fn post(&mut self, out: &mut Outbox, to: SocketAddr, bytes: Vec<u8>) {
        self.wire.datagrams_sent += 1;
        self.wire.bytes_sent += bytes.len() as u64;
        out.push((to, bytes));
    }

    fn header(&self, kind: MessageKind, generation: u32) -> EnvelopeHeader {
        EnvelopeHeader { kind, scheme: self.params.kind, session: self.session, generation }
    }

    /// Handles one datagram `bytes` from `from` that arrived at `now`;
    /// what it answers and offers goes to `out`.
    pub(crate) fn handle_datagram(
        &mut self,
        now: u64,
        from: SocketAddr,
        bytes: &[u8],
        out: &mut Outbox,
    ) {
        // Borrowing decode: the payload of a `DataPayload` stays a view
        // into the datagram buffer until the packet is actually retained
        // below, so frames we drop (corrupt, stale session, no receiver)
        // never copy payload bytes.
        let envelope = match envelope::decode_view(bytes) {
            Ok(envelope) => envelope,
            Err(_) => {
                self.wire.decode_errors += 1;
                return;
            }
        };
        if envelope.header.session != self.session || envelope.header.scheme != self.params.kind {
            // Decoded fine, just not ours (e.g. a stale peer from an
            // earlier run) — keep decode_errors meaning "corrupt bytes".
            self.wire.session_mismatches += 1;
            return;
        }
        self.wire.datagrams_received += 1;
        self.wire.bytes_received += bytes.len() as u64;
        let EnvelopeView { header, message } = envelope;
        match message {
            MessageView::DataHeader { transfer, payload_size, vector, .. } => {
                let generation = header.generation;
                let accept = payload_size == self.params.payload_size
                    && self.receiver.as_ref().is_some_and(|r| r.would_accept(generation, &vector));
                if accept {
                    // A window of offers awaiting feedback plus their payloads.
                    let cap = 2 * self.options.budget_bounds().1 as usize;
                    let ledger = self.accepts.entry(from).or_insert_with(|| AcceptLedger::new(cap));
                    if ledger.accept(transfer, generation).is_some() {
                        self.wire.accepts_evicted += 1;
                    }
                }
                let mut bytes = Vec::new();
                envelope::encode_feedback_into(&mut bytes, &header, transfer, accept);
                self.post(out, from, bytes);
                // Aborts caused by a finished generation also tell the
                // sender to stop offering it altogether. A node with no
                // receiver (a pure source) needs nothing, ever — say so
                // instead of absorbing offers forever.
                let done = match self.receiver.as_ref() {
                    Some(receiver) if receiver.generation_complete(generation) => Some(generation),
                    Some(_) => None,
                    None => Some(GENERATION_OBJECT),
                };
                if let (false, Some(done)) = (accept, done) {
                    let header = self.header(MessageKind::Complete, done);
                    self.post(out, from, envelope::encode(&header, &Message::Complete));
                }
            }
            MessageView::Feedback { transfer, accept } => {
                // Transfer ids are per link, so a verdict is matched only
                // against the offers of the link it arrived on: nobody
                // else (bug or hostility) can decide another peer's offer.
                let Some(&index) = self.link_index.get(&from) else { return };
                // Evicted, duplicate, or never offered: nothing to release.
                let Some(offer) = self.links[index].offers.take(transfer) else { return };
                // Either verdict proves the offer/feedback round trip
                // survived the link — a success for pacing purposes, and
                // an RTT sample for the derived TTL.
                let rtt = elapsed(now, offer.born);
                self.note_outcome(now, index, Some(rtt));
                self.tracer.emit(now, || TraceEvent::FeedbackReceived { peer: from, accept, rtt });
                let generation = offer.generation;
                // Feedback clock: whoever holds the generation completely
                // emits only good packets, so its pipeline to this peer is
                // RTT-paced. An incomplete relay re-offering at that rate
                // floods the peer with dependent recodes — it waits for
                // the tick (or its next useful delivery) instead. The next
                // offer leaves ahead of the payload: the peer answers it
                // before it spends a decode on the payload, so the round
                // trip overlaps the decode.
                let complete =
                    self.receiver.as_ref().is_none_or(|r| r.generation_complete(generation));
                if complete && self.may_offer(index) {
                    self.offer_to(now, out, index, OfferTrigger::Feedback);
                }
                if accept {
                    self.wire.transfers_delivered += 1;
                    self.wire.payload_bytes_sent += offer.packet.payload_size() as u64;
                    let header = self.header(MessageKind::DataPayload, generation);
                    let mut bytes = Vec::new();
                    let (trace, packet) = (&offer.trace, &offer.packet);
                    envelope::encode_payload_into(&mut bytes, &header, transfer, trace, packet);
                    self.post(out, from, bytes);
                } else {
                    self.wire.transfers_aborted += 1;
                }
            }
            MessageView::DataPayload { transfer, trace, packet } => {
                let generation = header.generation;
                // Only a payload this node accepted from `from` is read.
                if !self.accepts.get_mut(&from).is_some_and(|a| a.claim(transfer, generation)) {
                    self.wire.unsolicited_payloads += 1;
                    return;
                }
                // The wire-carried trace is the arriving data's whole
                // history: record the true origin→delivery latency at
                // this hop depth, and fold the lineage into what our own
                // recoded offers for this generation will advertise.
                self.shared.latency.record(trace.links(), trace.latency_micros(now));
                self.lineage
                    .entry(generation)
                    .and_modify(|known| *known = known.absorb(trace))
                    .or_insert(trace);
                let (useful, newly_complete, object_complete) = {
                    let Some(receiver) = self.receiver.as_mut() else { return };
                    let was_complete = receiver.generation_complete(generation);
                    // The single retain point: only here does the borrowed
                    // payload get copied out of the datagram buffer.
                    let useful = receiver.deliver(generation, &packet.into_packet());
                    self.shared
                        .complete_generations
                        .store(receiver.complete_generations(), Ordering::Release);
                    (
                        useful,
                        !was_complete && receiver.generation_complete(generation),
                        receiver.is_complete(),
                    )
                };
                if useful {
                    self.wire.useful_deliveries += 1;
                    self.shared.decoded_rank.fetch_add(1, Ordering::Relaxed);
                }
                self.tracer.emit(now, || TraceEvent::PayloadDelivered { generation, useful });
                if newly_complete {
                    self.tracer.emit(now, || TraceEvent::GenerationDecoded { generation });
                    self.announce_complete(out, generation);
                }
                if object_complete && !self.shared.complete.load(Ordering::Acquire) {
                    self.shared.complete.store(true, Ordering::Release);
                    if let Some(driver) = self.shared.driver.get() {
                        driver.unpark();
                    }
                    self.tracer.emit(now, || TraceEvent::ObjectDecoded);
                    self.announce_complete(out, GENERATION_OBJECT);
                }
                // Innovation clock: one symbol in, one recoded offer out.
                if useful {
                    self.push_once(now, out, OfferTrigger::Delivery);
                }
            }
            MessageView::Complete => {
                // Offers only go to neighbours: anyone else's COMPLETE,
                // like one for a generation the object lacks, is dropped.
                if let Some(&index) = self.link_index.get(&from) {
                    self.links[index].offers.complete(header.generation);
                }
            }
            // The serving handshake (ltnc-serve) rides the same envelope but
            // has no meaning in the gossip protocol.
            MessageView::Request | MessageView::Manifest { .. } | MessageView::Reject => {}
        }
    }

    fn announce_complete(&mut self, out: &mut Outbox, generation: u32) {
        if !self.announced.insert(generation) {
            return;
        }
        let header = self.header(MessageKind::Complete, generation);
        for index in 0..self.links.len() {
            self.post(out, self.links[index].addr, envelope::encode(&header, &Message::Complete));
        }
    }

    /// The gossip tick at `now`: expires stale offers and pushes
    /// [`PUSH_RATE`] new ones into `out`.
    pub(crate) fn tick(&mut self, now: u64, out: &mut Outbox) {
        self.publish_wire();
        self.evict_stale_pending(now);
        for _ in 0..PUSH_RATE {
            self.push_once(now, out, OfferTrigger::Tick);
        }
    }

    /// Expires every offer past its link's TTL, link by link. A link's
    /// offers are born in id order and its TTL holds for the sweep (only
    /// feedback moves it), so each link's sweep stops at its first live
    /// offer.
    fn evict_stale_pending(&mut self, now: u64) {
        for index in 0..self.links.len() {
            let ttl = self.ttl_for(index);
            while self.links[index].offers.expire(now, ttl).is_some() {
                self.wire.offer_timeouts += 1;
                self.note_outcome(now, index, None);
                let peer = self.links[index].addr;
                self.tracer.emit(now, || TraceEvent::OfferTimedOut { peer });
            }
        }
    }

    /// The target gates every clock's offers pass: the peer on link
    /// `index` still needs something and has in-flight budget left.
    fn may_offer(&self, index: usize) -> bool {
        let offers = &self.links[index].offers;
        !offers.object_done() && offers.in_flight() < self.inflight_cap(index)
    }

    /// One offer to a uniformly chosen peer among those [`Self::may_offer`]
    /// admits (counted, then the n-th picked: no per-call allocation).
    fn push_once(&mut self, now: u64, out: &mut Outbox, trigger: OfferTrigger) {
        let admitted = (0..self.links.len()).filter(|&index| self.may_offer(index)).count();
        if admitted == 0 {
            return;
        }
        let pick = self.rng.gen_range(0..admitted);
        if let Some(target) = (0..self.links.len()).filter(|&i| self.may_offer(i)).nth(pick) {
            self.offer_to(now, out, target, trigger);
        }
    }

    /// Offers the peer on link `target` — already past
    /// [`Self::may_offer`] — one packet of a generation it still needs:
    /// every clock's single way out.
    fn offer_to(&mut self, now: u64, out: &mut Outbox, target: usize, trigger: OfferTrigger) {
        let offers = &self.links[target].offers;
        let needs = |generation: u32| -> bool { !offers.is_done(generation) };

        let made = if let Some(source) = self.source.as_mut() {
            source.make_packet(&mut self.rng, needs)
        } else if let Some(receiver) = self.receiver.as_mut() {
            // A relay pushes from generations that passed the gate.
            let threshold =
                ((AGGRESSIVENESS * self.params.code_length as f64).ceil() as usize).max(1);
            // The feedback clock draws on whole generations only (see its arm).
            let partial_ok = trigger != OfferTrigger::Feedback;
            let eligible = |generation: &u32| {
                needs(*generation)
                    && receiver.useful_received(*generation) >= threshold
                    && (partial_ok || receiver.generation_complete(*generation))
            };
            match (0..self.generation_count).filter(eligible).count() {
                0 => None,
                count => (0..self.generation_count)
                    .filter(eligible)
                    .nth(self.rng.gen_range(0..count))
                    .and_then(|generation| {
                        let packet = receiver.make_packet(generation, &mut self.rng)?;
                        Some((generation, packet))
                    }),
            }
        } else {
            None
        };
        let Some((generation, packet)) = made else { return };
        if self.source.is_none() {
            // Relays recode every pushed packet from their partial store.
            self.tracer.emit(now, || TraceEvent::RelayRecode { generation });
        }

        // Sources start a fresh lineage (hop 0, stamped now); relays
        // extend the merged lineage of the payloads the recode is built
        // from. A relay racing ahead of its own lineage record (possible
        // only if it never received a payload, which the gate prevents)
        // degrades to a fresh origin stamp.
        let fresh = TraceContext::origin_now(now);
        let trace = match self.source {
            Some(_) => fresh,
            None => self.lineage.get(&generation).map_or(fresh, |known| known.next_hop()),
        };
        let header = self.header(MessageKind::DataHeader, generation);
        let mut bytes = Vec::new();
        let link = &mut self.links[target];
        link.offers.offer(&mut bytes, &header, trace, packet, now);
        let peer = link.addr;
        self.post(out, peer, bytes);
        self.wire.transfers_offered += 1;
        self.tracer.emit(now, || TraceEvent::OfferSent { peer, generation, trigger });
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::rc::Rc;

    use super::*;
    use crate::{run_virtual_swarm, Topology, TopologyConfig};
    use ltnc_gf2::CodeVector;
    use ltnc_scheme::SchemeKind;

    fn quick_options(seed: u64) -> NodeOptions {
        NodeOptions { tick: Duration::from_millis(1), seed, ..NodeOptions::default() }
    }

    #[test]
    fn source_reports_complete_immediately() {
        // Complete on `Shared` before any driver schedules it, so no
        // completion observer ever sees a source incomplete.
        let params = SchemeParams::new(SchemeKind::Ltnc, 8, 4);
        let role = NodeRole::Source { object: vec![7; 64], params };
        let shared = Arc::new(Shared::default());
        let sm = NodeStateMachine::new(NodeConfig::new(1, role, quick_options(1)), shared.clone());
        assert!(shared.complete.load(Ordering::Acquire));
        assert_eq!(shared.complete_generations.load(Ordering::Acquire), 2);
        let report = sm.into_report();
        assert!(report.complete);
        assert_eq!(report.complete_generations, 2);
        assert!(report.object.is_none(), "sources do not reassemble");
    }

    #[test]
    fn shutdown_without_peers_is_clean() {
        // Line 0-1-2-3 with the source at 2: node 3's only neighbour is
        // the source, so it has no one to push to. It decodes from what
        // the source offers it, answers, and never offers anything.
        let object = (0..200u32).map(|i| (i * 7 % 256) as u8).collect();
        let mut config = TopologyConfig::quick(SchemeKind::Rlnc, object, Topology::line(4));
        config.source = 2;
        config.code_length = 4;
        config.payload_size = 16;
        assert!(config.nodes().1[3].peers.is_empty(), "the leaf has an empty push set");
        let report = run_virtual_swarm(&config);
        assert!(report.converged && report.bit_exact, "{report:?}");
        let leaf = &report.peer_reports[2];
        assert!(leaf.complete);
        assert_eq!(leaf.wire.transfers_offered, 0, "a leaf behind the source offers nothing");
        assert!(leaf.loss_estimates.is_empty() && leaf.rtt_estimates.is_empty());
    }

    /// A source state machine to unit-test the pacing arithmetic on,
    /// wired to one peer: link 0.
    fn pacing_actor(options: NodeOptions) -> NodeStateMachine {
        let params = SchemeParams::new(SchemeKind::Rlnc, 4, 2);
        let role = NodeRole::Source { object: vec![1u8; 8], params };
        let mut actor = NodeStateMachine::new(NodeConfig::new(1, role, options), Arc::default());
        actor.set_peers(vec!["127.0.0.1:9".parse().expect("addr")]);
        actor
    }

    #[test]
    fn budget_recovers_to_base_after_a_silent_period() {
        // A peer goes silent (timeouts only) and is cut to the floor;
        // when it answers again on a clean link, successes must grow the
        // budget back to the initial value — and not past it.
        let options = NodeOptions {
            pending_ttl: Duration::from_millis(5),
            seed: 13,
            ..NodeOptions::default()
        };
        let mut actor = pacing_actor(options);

        // Dead period: a timeout every 2 ms with no feedback, one cut per
        // 5 ms TTL window.
        let mut now = 0;
        for _ in 0..12 {
            actor.note_outcome(now, 0, None);
            now += 2_000;
        }
        assert_eq!(actor.inflight_cap(0), options.inflight_floor.max(1));
        assert!(actor.wire.budget_cuts > 0, "silence must cut");

        // Revival on a clean link: successes alone restore the base cap.
        for _ in 0..64 {
            actor.note_outcome(now, 0, Some(Duration::from_micros(50)));
        }
        assert_eq!(actor.inflight_cap(0), options.per_peer_inflight);
        assert!(actor.wire.budget_raises > 0, "recovery must count as raises");

        // A timeout while the peer is alive grows the budget *past* base.
        actor.note_outcome(now, 0, None);
        assert_eq!(actor.inflight_cap(0), options.per_peer_inflight + 1);
    }

    #[test]
    fn budget_bounds_clamp_the_initial_cap_too() {
        let answered = Some(Duration::from_micros(50));

        // Initial budget above the ceiling: clamped down, tracked or not.
        let over = NodeOptions {
            per_peer_inflight: 100,
            inflight_ceiling: 8,
            seed: 14,
            ..NodeOptions::default()
        };
        let mut actor = pacing_actor(over);
        assert_eq!(actor.inflight_cap(0), 8, "untracked peer clamps to ceiling");
        actor.note_outcome(0, 0, answered);
        assert_eq!(actor.inflight_cap(0), 8, "tracked peer starts clamped");
        assert_eq!(actor.wire.budget_raises, 0, "clamping is not a raise");

        // Initial budget below the floor: clamped up.
        let under = NodeOptions {
            per_peer_inflight: 1,
            inflight_floor: 4,
            seed: 15,
            ..NodeOptions::default()
        };
        let mut actor = pacing_actor(under);
        assert_eq!(actor.inflight_cap(0), 4, "untracked peer clamps to floor");
        actor.note_outcome(0, 0, answered);
        assert_eq!(actor.inflight_cap(0), 4, "tracked peer starts clamped");
    }

    #[test]
    fn budget_moves_are_counted_once_per_whole_offer_step() {
        // `note_outcome` on a script with the clock standing still (the
        // TTL is an hour, then zero), pinned to the exact counts the
        // per-branch accounting it replaced produced on the same script.
        let with_ttl = |pending_ttl| NodeOptions {
            pending_ttl,
            inflight_ceiling: 6,
            seed: 18,
            ..NodeOptions::default()
        };
        let moves = |actor: &NodeStateMachine| {
            (actor.wire.budget_raises, actor.wire.budget_cuts, actor.inflight_cap(0))
        };
        let answered = Some(Duration::from_micros(50));

        // An hour's TTL: a never-heard peer is cut once per window …
        let mut actor = pacing_actor(with_ttl(Duration::from_secs(3600)));
        for _ in 0..4 {
            actor.note_outcome(0, 0, None);
        }
        assert_eq!(moves(&actor), (0, 1, 2), "4 → 2, then the window holds");
        // … answers walk 2 → 2.5 → 2.9 → 3.24 → 3.55 → 3.83 → 4 and stop …
        for _ in 0..10 {
            actor.note_outcome(0, 0, answered);
        }
        assert_eq!(moves(&actor), (2, 1, 4), "two whole steps back to base");
        // … and a live peer's timeouts add one each, up to the ceiling.
        for _ in 0..3 {
            actor.note_outcome(0, 0, None);
        }
        assert_eq!(moves(&actor), (4, 1, 6), "5, 6, and 6 again is no raise");

        // A zero TTL: every timeout finds the peer silent and the window over.
        let mut actor = pacing_actor(with_ttl(Duration::ZERO));
        actor.note_outcome(0, 0, answered);
        for _ in 0..4 {
            actor.note_outcome(0, 0, None);
        }
        assert_eq!(moves(&actor), (0, 2, 1), "4 → 2 → 1, the floor is no cut");
    }

    #[test]
    fn pending_ttl_derives_from_the_rtt_ewma() {
        let options = NodeOptions {
            pending_ttl: Duration::from_millis(10),
            seed: 16,
            ..NodeOptions::default()
        };
        let mut actor = pacing_actor(options);
        let peer: SocketAddr = "127.0.0.1:9".parse().expect("addr");

        // No feedback measured yet: the fixed TTL is the fallback.
        assert_eq!(actor.ttl_for(0), Duration::from_millis(10));

        // Localhost-fast feedback: the floor still applies.
        actor.note_outcome(0, 0, Some(Duration::from_micros(80)));
        assert_eq!(actor.ttl_for(0), Duration::from_millis(10));

        // A slow link: the TTL tracks 4× the RTT EWMA…
        for _ in 0..64 {
            actor.note_outcome(0, 0, Some(Duration::from_millis(50)));
        }
        let ttl = actor.ttl_for(0);
        assert!(ttl > Duration::from_millis(100), "TTL must grow with RTT, got {ttl:?}");
        // …but never past 16× the configured floor.
        for _ in 0..64 {
            actor.note_outcome(0, 0, Some(Duration::from_secs(30)));
        }
        assert_eq!(actor.ttl_for(0), Duration::from_millis(160), "ceiling caps the TTL");

        // The estimate surfaces in the report.
        let report = actor.into_report();
        let (reported_peer, rtt) = report.rtt_estimates.first().expect("rtt tracked");
        assert_eq!(*reported_peer, peer);
        assert!(*rtt > Duration::from_millis(100));
    }

    /// In-memory links between hand-driven state machines: each
    /// datagram a machine emits waits in its destination's inbox, with
    /// its sender, until the test handles it.
    type Wires = Rc<RefCell<BTreeMap<SocketAddr, Vec<(Vec<u8>, SocketAddr)>>>>;

    /// A state machine the test drives by hand: no sockets, no threads,
    /// no reactor, no tick unless the test calls one, and a clock that
    /// stands still — so the event clocks are asserted in offer counts,
    /// never in time.
    struct Driven {
        sm: NodeStateMachine,
        wires: Wires,
        addr: SocketAddr,
    }

    impl Driven {
        fn new(role: NodeRole, options: NodeOptions, wires: &Wires) -> Driven {
            let port = 1000 + wires.borrow().len() as u16;
            let addr = SocketAddr::from(([127, 0, 0, 1], port));
            wires.borrow_mut().insert(addr, Vec::new());
            let config = NodeConfig::new(0xC10C, role, options);
            let sm = NodeStateMachine::new(config, Arc::default());
            Driven { sm, wires: Rc::clone(wires), addr }
        }

        /// The source and an empty receiver of one 8-symbol generation.
        fn source_and_relay(options: NodeOptions, wires: &Wires) -> (Driven, Driven) {
            Driven::pair(1, options, wires)
        }

        /// The same for an object of `generations` 8-symbol generations.
        fn pair(generations: u8, options: NodeOptions, wires: &Wires) -> (Driven, Driven) {
            let params = SchemeParams::new(SchemeKind::Rlnc, 8, 4);
            let object: Vec<u8> = (0..32 * generations).collect();
            let manifest = ltnc_session::generation::split_object(&object, params).0;
            let source = Driven::new(NodeRole::Source { object, params }, options, wires);
            (source, Driven::new(NodeRole::Peer { manifest }, options, wires))
        }

        /// A receiver nobody drives: just an address offers can go to.
        fn bystander(options: NodeOptions, wires: &Wires) -> Driven {
            Driven::source_and_relay(options, wires).1
        }

        /// Puts what the machine emitted on the wires.
        fn post(&self, out: Outbox) {
            let mut wires = self.wires.borrow_mut();
            for (to, bytes) in out {
                wires.entry(to).or_default().push((bytes, self.addr));
            }
        }

        /// Every datagram that reached this node and was not handled yet,
        /// with its sender.
        fn arrived(&self) -> Vec<(Vec<u8>, SocketAddr)> {
            std::mem::take(self.wires.borrow_mut().entry(self.addr).or_default())
        }

        fn tick(&mut self) {
            let mut out = Outbox::new();
            self.sm.tick(0, &mut out);
            self.post(out);
        }

        /// The tick's one job in these tests: a first offer.
        fn push_once(&mut self) {
            let mut out = Outbox::new();
            self.sm.push_once(0, &mut out, OfferTrigger::Tick);
            self.post(out);
        }

        /// Handles one datagram and returns how many offers it released —
        /// never more than one, whatever the datagram.
        fn handle(&mut self, bytes: &[u8], from: SocketAddr) -> u64 {
            let before = self.sm.wire.transfers_offered;
            let mut out = Outbox::new();
            self.sm.handle_datagram(0, from, bytes, &mut out);
            self.post(out);
            let released = self.sm.wire.transfers_offered - before;
            assert!(released <= 1, "one datagram released {released} offers");
            released
        }

        /// Handles everything that arrived; returns the offers released.
        fn handle_arrived(&mut self) -> u64 {
            self.arrived().iter().map(|(bytes, from)| self.handle(bytes, *from)).sum()
        }

        fn complete(&self) -> bool {
            self.sm.receiver.as_ref().is_none_or(ReceiverSession::is_complete)
        }

        /// Runs `source` ⇄ `self` handshakes by hand until one payload is
        /// delivered usefully here; returns the offers that delivery
        /// released. Every other datagram must release none.
        fn next_useful_from(&mut self, source: &mut Driven) -> u64 {
            for _ in 0..64 {
                let mut released_by_useful = None;
                for (bytes, from) in self.arrived() {
                    let useful_before = self.sm.wire.useful_deliveries;
                    let released = self.handle(&bytes, from);
                    if self.sm.wire.useful_deliveries > useful_before {
                        released_by_useful = Some(released);
                        // The same payload again teaches nothing.
                        assert_eq!(self.handle(&bytes, from), 0, "non-useful delivery");
                    } else {
                        assert_eq!(released, 0, "only a useful delivery clocks a relay");
                    }
                }
                source.handle_arrived();
                if let Some(released) = released_by_useful {
                    return released;
                }
            }
            panic!("the source never delivered a useful payload");
        }
    }

    fn kind(datagram: &[u8]) -> MessageKind {
        envelope::decode_view(datagram).expect("valid frame").header.kind
    }

    fn kinds(datagrams: &[(Vec<u8>, SocketAddr)]) -> Vec<MessageKind> {
        datagrams.iter().map(|(bytes, _)| kind(bytes)).collect()
    }

    /// The receiver's verdict on `offer` (a `DATA-HEADER` datagram).
    fn feedback(offer: &[u8], accept: bool) -> Vec<u8> {
        let offer = envelope::decode_view(offer).expect("valid frame");
        let Message::DataHeader { transfer, .. } = offer.message else {
            panic!("not an offer: {:?}", offer.header.kind)
        };
        let mut verdict = Vec::new();
        envelope::encode_feedback_into(&mut verdict, &offer.header, transfer, accept);
        verdict
    }

    /// The code vector a `DATA-HEADER` offers or a `DATA-PAYLOAD` carries.
    fn vector(datagram: &[u8]) -> CodeVector {
        match envelope::decode_view(datagram).expect("valid frame").into_owned().message {
            Message::DataHeader { vector, .. } => vector,
            Message::DataPayload { packet, .. } => packet.vector().clone(),
            other => panic!("no code vector in {:?}", other.kind()),
        }
    }

    /// The one `DATA-PAYLOAD` among `datagrams`.
    fn only_payload(datagrams: &[(Vec<u8>, SocketAddr)]) -> &[u8] {
        let mut payloads = datagrams.iter().filter(|(d, _)| kind(d) == MessageKind::DataPayload);
        let (payload, _) = payloads.next().expect("a payload");
        assert!(payloads.next().is_none(), "one accept released two payloads");
        payload
    }

    #[test]
    fn feedback_from_the_wrong_peer_is_ignored() {
        // A source has one offer pending to each of its neighbours A and
        // C, both under transfer id 1: ids are per link, so C's accept is
        // the very datagram A's would be. The same accept from D, which
        // is no neighbour, releases nothing and leaves both offers
        // pending. C's releases C's own payload, to C, and A's offer
        // still waits for A's own accept.
        let wires = Wires::default();
        let options = NodeOptions { per_peer_inflight: 1, seed: 8, ..NodeOptions::default() };
        let (mut source, a) = Driven::source_and_relay(options, &wires);
        let c = Driven::bystander(options, &wires);
        let d = Driven::bystander(options, &wires);
        source.sm.set_peers(vec![a.addr, c.addr]);
        source.push_once();
        source.push_once(); // one slot per peer: the second offer goes to the other
        let (offer_to_a, _) = a.arrived().pop().expect("one offer reached A");
        let (offer_to_c, _) = c.arrived().pop().expect("one offer reached C");
        let accept = feedback(&offer_to_a, true);
        assert_eq!(accept, feedback(&offer_to_c, true), "one transfer id on both links");
        assert_ne!(vector(&offer_to_a), vector(&offer_to_c), "the two offers are told apart");

        assert_eq!(source.handle(&accept, d.addr), 0, "a stranger's accept released an offer");
        assert!(
            a.arrived().is_empty() && c.arrived().is_empty() && d.arrived().is_empty(),
            "a stranger's accept released data"
        );
        let pending: Vec<usize> = source.sm.links.iter().map(|l| l.offers.in_flight()).collect();
        assert_eq!(pending, [1, 1], "a stranger's accept took an offer");

        source.handle(&accept, c.addr);
        assert!(a.arrived().is_empty(), "C's accept released data to A");
        assert_eq!(vector(only_payload(&c.arrived())), vector(&offer_to_c), "not C's own payload");

        // A's own accept still works: its offer survived C's verdict.
        source.handle(&accept, a.addr);
        assert_eq!(vector(only_payload(&a.arrived())), vector(&offer_to_a));
    }

    /// A `DATA-PAYLOAD` of `packet` under `transfer` and `generation`, as
    /// anyone with the session id can write one.
    fn forged_payload(transfer: u64, generation: u32, packet: &EncodedPacket) -> Vec<u8> {
        let header = EnvelopeHeader {
            kind: MessageKind::DataPayload,
            scheme: SchemeKind::Rlnc,
            session: 0xC10C,
            generation,
        };
        let (mut bytes, trace) = (Vec::new(), TraceContext::origin_now(0));
        envelope::encode_payload_into(&mut bytes, &header, transfer, &trace, packet);
        bytes
    }

    #[test]
    fn a_payload_that_claims_no_accept_never_reaches_the_decoder() {
        // The relay accepts one offer from the source. Four payloads then
        // claim no accept it gave: a fresh symbol from the source under an
        // id it never offered, one from a stranger under the accepted id,
        // one from the source under the accepted id but another
        // generation, and a second copy of the accepted payload. Each is
        // dropped and counted, and moves no rank, latency sample or
        // lineage entry; the accepted payload itself is delivered once.
        let options = quick_options(27);
        let wires = Wires::default();
        let (mut source, mut relay) = Driven::pair(2, options, &wires);
        let stranger = Driven::bystander(options, &wires);
        source.sm.set_peers(vec![relay.addr]);
        source.push_once();
        assert_eq!(relay.handle_arrived(), 0);
        source.handle_arrived();
        let genuine = only_payload(&relay.arrived()).to_vec();
        let view = envelope::decode_view(&genuine).expect("valid frame");
        let Message::DataPayload { transfer, .. } = view.message else { unreachable!() };
        let generation = view.header.generation;
        let mut rng = SmallRng::seed_from_u64(27);
        let mut fresh = || {
            let made = source.sm.source.as_mut().and_then(|s| s.make_packet(&mut rng, |_| true));
            made.expect("a source always has a packet").1
        };
        let state = |relay: &Driven| {
            let shared = &relay.sm.shared;
            let rank = shared.decoded_rank.load(Ordering::Relaxed);
            let samples = shared.latency.total().count();
            (rank, relay.sm.wire.useful_deliveries, samples, relay.sm.lineage.len())
        };
        let unsolicited = |relay: &mut Driven, payload: &[u8], from: SocketAddr| {
            let (before, dropped) = (state(relay), relay.sm.wire.unsolicited_payloads);
            assert_eq!(relay.handle(payload, from), 0);
            assert_eq!(relay.sm.wire.unsolicited_payloads, dropped + 1, "not counted");
            assert_eq!(state(relay), before, "an unsolicited payload moved the relay");
        };

        unsolicited(&mut relay, &forged_payload(transfer + 1, generation, &fresh()), source.addr);
        unsolicited(&mut relay, &forged_payload(transfer, generation, &fresh()), stranger.addr);
        unsolicited(&mut relay, &forged_payload(transfer, 1 << 20, &fresh()), source.addr);
        relay.handle(&genuine, source.addr);
        assert_eq!(state(&relay), (1, 1, 1, 1), "the accepted payload is delivered");
        unsolicited(&mut relay, &genuine, source.addr);
        assert_eq!(relay.sm.wire.unsolicited_payloads, 4);
    }

    #[test]
    fn a_complete_flood_changes_no_state_and_no_offer() {
        // A source wired to A and B is flooded with COMPLETEs that must
        // change nothing: from addresses that are not its neighbours, for
        // any generation, and from A for generations the object does not
        // have. It keeps its two links, each ledger equal to that of a
        // twin nobody flooded, and offers to A and B exactly what the
        // twin offers.
        let options = quick_options(26);
        let world = |wires: &Wires| {
            let (mut source, a) = Driven::pair(2, options, wires);
            let b = Driven::bystander(options, wires);
            source.sm.set_peers(vec![a.addr, b.addr]);
            (source, a, b)
        };
        let (flooded_wires, twin_wires) = (Wires::default(), Wires::default());
        let (mut flooded, a, b) = world(&flooded_wires);
        let (mut twin, twin_a, twin_b) = world(&twin_wires);
        assert_eq!((a.addr, b.addr), (twin_a.addr, twin_b.addr));

        let complete = |generation| {
            let header = EnvelopeHeader {
                kind: MessageKind::Complete,
                scheme: SchemeKind::Rlnc,
                session: 0xC10C,
                generation,
            };
            envelope::encode(&header, &Message::Complete)
        };
        let beyond = [2, 63, 64, 1 << 20, GENERATION_OBJECT - 1];
        for generation in beyond {
            assert_eq!(flooded.handle(&complete(generation), a.addr), 0);
        }
        for port in 0..512u16 {
            let spoofed = SocketAddr::from(([10, 0, (port >> 8) as u8, port as u8], port));
            for generation in [0, 1, GENERATION_OBJECT].into_iter().chain(beyond) {
                assert_eq!(flooded.handle(&complete(generation), spoofed), 0);
            }
        }
        assert_eq!((flooded.sm.links.len(), flooded.sm.link_index.len()), (2, 2));

        for round in 0..4 {
            for (machine, peers) in [(&mut flooded, [&a, &b]), (&mut twin, [&twin_a, &twin_b])] {
                machine.tick();
                for peer in peers {
                    for (offer, _) in peer.arrived() {
                        machine.handle(&feedback(&offer, round % 2 == 0), peer.addr);
                    }
                }
            }
            for (link, twin_link) in flooded.sm.links.iter().zip(&twin.sm.links) {
                let (ledger, twin_ledger) = (&link.offers, &twin_link.offers);
                assert_eq!(
                    format!("{ledger:?}"),
                    format!("{twin_ledger:?}"),
                    "round {round}: a ledger moved"
                );
            }
            assert_eq!(a.arrived(), twin_a.arrived(), "round {round}: offers to A changed");
            assert_eq!(b.arrived(), twin_b.arrived(), "round {round}: offers to B changed");
        }
        assert!(flooded.sm.wire.transfers_offered > 0, "the source offered");
    }

    #[test]
    fn a_source_reoffers_on_feedback_without_a_tick() {
        let wires = Wires::default();
        let (mut source, mut relay) = Driven::source_and_relay(quick_options(21), &wires);
        source.sm.set_peers(vec![relay.addr]);
        source.push_once();

        assert_eq!(relay.handle_arrived(), 0, "an unwired relay accepts and offers nothing");
        assert_eq!(source.handle_arrived(), 1, "the accept clocks the next offer");
        let arrived = relay.arrived();
        // The next offer goes ahead of the accepted payload.
        assert_eq!(kinds(&arrived), [MessageKind::DataHeader, MessageKind::DataPayload]);

        let abort = feedback(&arrived[0].0, false);
        assert_eq!(source.handle(&abort, relay.addr), 1, "an abort clocks the next offer too");
        assert_eq!(kinds(&relay.arrived()), [MessageKind::DataHeader]);
        assert_eq!(source.sm.wire.transfers_offered, 3);

        // Feedback for a transfer that is not pending (a replay) clocks nothing.
        assert_eq!(source.handle(&abort, relay.addr), 0);
    }

    #[test]
    fn a_relay_offers_once_per_useful_delivery_and_on_feedback_only_when_complete() {
        let options = quick_options(22);
        let wires = Wires::default();
        let (mut source, mut relay) = Driven::source_and_relay(options, &wires);
        let sink = Driven::bystander(options, &wires);
        source.sm.set_peers(vec![relay.addr]);
        relay.sm.set_peers(vec![sink.addr]);
        source.push_once();

        let mut accept = true;
        while !relay.complete() {
            assert_eq!(relay.next_useful_from(&mut source), 1, "one symbol in, one offer out");
            // The sink answers every offer, alternating verdicts. While
            // the relay is incomplete neither verdict releases an offer;
            // once it holds the generation, each does.
            for (datagram, _) in sink.arrived() {
                if kind(&datagram) != MessageKind::DataHeader {
                    continue; // the payload of an accepted offer
                }
                let released = relay.handle(&feedback(&datagram, accept), sink.addr);
                assert_eq!(released, u64::from(relay.complete()), "feedback at a relay");
                accept = !accept;
            }
        }
        assert_eq!(relay.sm.wire.useful_deliveries, 8);
        // 8 deliveries, plus the one feedback that found the relay complete.
        assert_eq!(relay.sm.wire.transfers_offered, 9);
        assert_eq!(relay.sm.wire.offer_timeouts, 0);
    }

    #[test]
    fn the_feedback_clock_draws_only_on_generations_held_completely() {
        // Two generations. While the relay holds one and part of the other,
        // feedback for a transfer of the whole one releases an offer, and
        // only ever of the whole one; feedback for a transfer of the
        // partial one releases none.
        let options = quick_options(25);
        let wires = Wires::default();
        let (mut source, mut relay) = Driven::pair(2, options, &wires);
        let sink = Driven::bystander(options, &wires);
        source.sm.set_peers(vec![relay.addr]);
        relay.sm.set_peers(vec![sink.addr]);
        source.push_once();

        let holds = |relay: &Driven, generation: u32| {
            relay.sm.receiver.as_ref().is_some_and(|r| r.generation_complete(generation))
        };
        let (mut accept, mut clocked_while_partial, mut held_back) = (true, 0, 0);
        while !relay.complete() {
            relay.next_useful_from(&mut source);
            for (offer, _) in sink.arrived() {
                if kind(&offer) != MessageKind::DataHeader {
                    continue; // the payload of an accepted offer
                }
                let answered =
                    envelope::decode_view(&offer).expect("valid frame").header.generation;
                let released = relay.handle(&feedback(&offer, accept), sink.addr);
                accept = !accept;
                assert_eq!(released, u64::from(holds(&relay, answered)), "feedback for {answered}");
                if released == 0 {
                    held_back += 1;
                } else if !relay.complete() {
                    // The offer it released is the newest one on the way
                    // to the sink, not yet handled there.
                    let newest = sink.wires.borrow()[&sink.addr]
                        .iter()
                        .rev()
                        .map(|(datagram, _)| envelope::decode_view(datagram).expect("valid frame"))
                        .find(|frame| frame.header.kind == MessageKind::DataHeader)
                        .expect("the released offer")
                        .header
                        .generation;
                    assert!(holds(&relay, newest), "a partial generation was clocked");
                    clocked_while_partial += 1;
                }
            }
        }
        assert!(clocked_while_partial > 0 && held_back > 0, "the mixed state was exercised");
    }

    #[test]
    fn event_clocked_offers_stay_behind_every_gate() {
        let options = NodeOptions {
            per_peer_inflight: 1,
            inflight_ceiling: 1,
            seed: 23,
            ..NodeOptions::default()
        };
        let wires = Wires::default();
        let (mut source, mut relay) = Driven::source_and_relay(options, &wires);
        let sink = Driven::bystander(options, &wires);
        source.sm.set_peers(vec![relay.addr]);
        source.push_once();

        // Before set_peers a useful delivery releases nothing.
        assert_eq!(relay.next_useful_from(&mut source), 0, "not wired in yet");
        relay.sm.set_peers(vec![sink.addr]);
        // Wired: the next one fills the sink's single in-flight slot …
        assert_eq!(relay.next_useful_from(&mut source), 1);
        // … and the sink never answers, so the one after finds the cap.
        assert_eq!(relay.next_useful_from(&mut source), 0, "at the in-flight cap");
        assert_eq!(kinds(&sink.arrived()), [MessageKind::DataHeader]);

        // A peer that said COMPLETE(object) gets its accepted payload and
        // no further offer. (`source` has one offer to the relay pending:
        // the pump above leaves the feedback clock's last offer unanswered
        // — take it from the relay's inbox.)
        assert_eq!(relay.handle_arrived(), 0);
        let offered = source.sm.wire.transfers_offered;
        let header = EnvelopeHeader {
            kind: MessageKind::Complete,
            scheme: SchemeKind::Rlnc,
            session: 0xC10C,
            generation: GENERATION_OBJECT,
        };
        let complete = envelope::encode(&header, &Message::Complete);
        assert_eq!(source.handle(&complete, relay.addr), 0);
        assert_eq!(source.handle_arrived(), 0, "feedback from an object_done peer");
        assert_eq!(source.sm.wire.transfers_offered, offered);
        source.tick();
        assert_eq!(source.sm.wire.transfers_offered, offered, "the tick honours it too");
    }

    #[test]
    fn an_always_abort_peer_cannot_amplify_offers() {
        // The hostile pattern for a feedback clock: a peer that answers
        // every offer with ABORT and never says COMPLETE. It gets one
        // offer per datagram it sent, plus PUSH_RATE per tick — the clock
        // is 1:1 with inbound datagrams, so it cannot be made to multiply.
        let options = quick_options(24);
        let wires = Wires::default();
        let (mut source, peer) = Driven::source_and_relay(options, &wires);
        source.sm.set_peers(vec![peer.addr]);
        let (mut ticks, mut sent_by_peer) = (0u64, 0u64);
        for round in 0..24 {
            if round % 8 == 0 {
                source.tick();
                ticks += 1;
            }
            for (offer, _) in peer.arrived() {
                source.handle(&feedback(&offer, false), peer.addr);
                sent_by_peer += 1;
            }
        }
        let wire = source.sm.wire;
        assert_eq!(wire.transfers_aborted, sent_by_peer);
        assert!(wire.transfers_offered > ticks * PUSH_RATE as u64, "the clock ran");
        assert!(
            wire.transfers_offered <= sent_by_peer + ticks * PUSH_RATE as u64,
            "{} offers for {sent_by_peer} datagrams and {ticks} ticks",
            wire.transfers_offered
        );
    }
}
