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
//! entirely silent for two TTLs is treated as dead: its budget is cut
//! multiplicatively (at most once per TTL window) down to the floor,
//! sparing offers for live peers — and its feedback, once it returns,
//! grows the budget back to (never past) its initial value, so one
//! outage is not a life sentence at the floor. On a clean link nothing
//! times out and the budget never moves — fixed-cap behaviour exactly.
//! The budget starts at 4 offers per peer and moves between 1 and 64,
//! and budget moves are counted in [`WireCounters`].
//!
//! The pending TTL is one constant, 250 ms, on every link, as the
//! paper's node estimates no round trips. A link whose round trip
//! exceeds it is out of scope: every answer on it would come too late
//! and count as a loss. Round trips stay observable, one per feedback,
//! in [`TraceEvent::FeedbackReceived`].
//!
//! Seeded datagram loss and reordering live in the links, on the
//! receiving end of each ([`crate::TopologyFaults`]), in the endpoint
//! both drivers wrap around the machine (`crate::endpoint`), so a lossy
//! run exercises exactly the code a clean one does.
//!
//! The transfer protocol mirrors the paper's feedback channel (see
//! [`crate::envelope`]): `DATA-HEADER` offer → `FEEDBACK-ACCEPT`/`ABORT` →
//! `DATA-PAYLOAD`. An aborted transfer costs the wire only the header and
//! the feedback datagram — never payload bytes. An LTNC receiver's verdict
//! on an offer of a generation it has not finished, accept or abort, says
//! what it holds of it: its `ACCEPT-SUMMARY` or `ABORT-SUMMARY` carries
//! the decoded set and the components (§III-C.2's `cc_r`). The sender
//! keeps the last summary per link and generation, each newer one
//! replacing the one before, and every offer on that link tries a smart
//! packet built from it first (Algorithm 4). It folds each smart packet
//! into its copy, and an accepted packet of degree 1 or 2 too, so the
//! offers in flight on a link do not name one native twice. The receiver
//! still checks every header, so a stale copy costs at most a refused
//! header, and the next verdict replaces it. `COMPLETE` messages prune
//! finished generations from every sender's schedule.
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
use ltnc_metrics::{LogHistogram, LogHistogramSnapshot, OpCounters, WireCounters};
use ltnc_scheme::{SchemeParams, Summary};
use ltnc_telemetry::{OfferTrigger, RingSink, TimedEvent, TraceEvent, Tracer};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::envelope::{
    self, EnvelopeHeader, EnvelopeView, Message, MessageKind, MessageView, GENERATION_OBJECT,
};
use crate::faults::DatagramFaultCounters;
use crate::ledger::{self, AcceptLedger, OfferLedger, MAX_SUMMARY_BYTES};
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

/// Transfers simultaneously awaiting feedback per peer: the *initial*
/// budget, which then adapts to observed loss (AIMD over feedback arrivals
/// and offer timeouts).
const PER_PEER_INFLIGHT: usize = 4;

/// Lower bound of the budget.
const INFLIGHT_FLOOR: usize = 1;

/// Upper bound of the budget.
const INFLIGHT_CEILING: usize = 64;

const _: () = assert!(
    0 < INFLIGHT_FLOOR
        && INFLIGHT_FLOOR <= PER_PEER_INFLIGHT
        && PER_PEER_INFLIGHT <= INFLIGHT_CEILING
);

/// Offers not answered within the pending TTL are forgotten, on every
/// link.
const PENDING_TTL: Duration = Duration::from_millis(250);

/// Multiplicative-decrease factor applied to an adaptive budget when
/// offers to a peer time out.
const BUDGET_CUT_FACTOR: f64 = 0.5;

/// The paper's aggressiveness: the share of `k` a relay must hold of a
/// generation before it recodes it.
const AGGRESSIVENESS: f64 = 0.01;

/// Offers initiated per gossip tick.
const PUSH_RATE: usize = 2;

/// Receiver halves kept, one per sender that had an offer accepted: far
/// above any overlay's degree, so only a stranger spraying addresses
/// reaches it. Past it the ledger whose last accept is oldest goes.
const MAX_ACCEPT_LEDGERS: usize = 256;

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
    /// Gossip tick period.
    pub tick: Duration,
    /// Seed of the node's deterministic RNG.
    pub seed: u64,
}

impl Default for NodeOptions {
    fn default() -> Self {
        NodeOptions { tick: Duration::from_millis(2), seed: 0xC0DE }
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
    /// Faults injected per link into the node that has a plan
    /// ([`crate::TopologyFaults`]), keyed by sender address — the
    /// per-link attribution of [`PeerReport::faults`].
    pub link_faults: Vec<(SocketAddr, DatagramFaultCounters)>,
    /// Trace events recorded during the run, oldest first, when
    /// [`crate::TopologyConfig::trace_capacity`] is set; empty otherwise.
    pub events: Vec<TimedEvent>,
    /// Delivery latency per link, on this node's clock: from its accept
    /// of an offer to the arrival of that transfer's payload, one sample
    /// per payload it accepted. Empty on a source, which accepts nothing.
    pub link_latency: LogHistogramSnapshot,
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
    /// Accept→payload latency ([`PeerReport::link_latency`]), recorded
    /// lock-free by the state machine on every accepted payload and read
    /// live by the scrape endpoint mid-run.
    pub(crate) latency: LogHistogram,
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
/// pacing that it drives.
struct Link {
    addr: SocketAddr,
    offers: OfferLedger<EncodedPacket>,
    pacing: PeerPacing,
}

/// Adaptive pacing state for one peer: the AIMD budget and the feedback
/// times driving it.
struct PeerPacing {
    /// Fractional in-flight budget; its integer part is the cap.
    budget: f64,
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
    source: Option<SourceSession>,
    receiver: Option<ReceiverSession>,
    generation_count: u32,
    /// The push set, in order; empty, and so no offer, until wired in.
    links: Vec<Link>,
    link_index: HashMap<SocketAddr, usize>,
    rng: SmallRng,
    announced: HashSet<u32>,
    /// Receiver halves by sender, not link: the source is in no push set.
    /// Each with the stamp of its last accept.
    accepts: HashMap<SocketAddr, (u64, AcceptLedger)>,
    /// The stamp of the latest accept.
    accept_clock: u64,
    wire: WireCounters,
    shared: Arc<Shared>,
    /// Where the node's hot paths, and its links' faults, are traced.
    pub(crate) tracer: Tracer,
    /// Refresh the shared wire mirror each tick (only when a metrics
    /// endpoint reads it — the mirror costs nothing otherwise).
    publish_live: bool,
}

impl NodeStateMachine {
    /// Builds the node. A source is complete by definition, and says so
    /// on `shared` before it is ever scheduled, so completion observers
    /// never see it incomplete.
    pub(crate) fn new(config: NodeConfig, shared: Arc<Shared>) -> NodeStateMachine {
        let tracer = Tracer::from_option(config.trace);
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
            source,
            receiver,
            generation_count: manifest.generation_count(),
            links: Vec::new(),
            link_index: HashMap::new(),
            rng: SmallRng::seed_from_u64(config.options.seed),
            announced: HashSet::new(),
            accepts: HashMap::new(),
            accept_clock: 0,
            wire: WireCounters::new(),
            shared,
            tracer,
            publish_live: config.publish_live,
        }
    }

    /// Wires the node into the swarm, one link per neighbour, and opens
    /// the offer gates — the starting gun.
    pub(crate) fn set_peers(&mut self, peers: Vec<SocketAddr>) {
        let generations = self.generation_count;
        self.link_index = peers.iter().enumerate().map(|(index, &addr)| (addr, index)).collect();
        let link = |addr| Link {
            addr,
            offers: OfferLedger::new(generations),
            pacing: PeerPacing {
                budget: PER_PEER_INFLIGHT as f64,
                last_feedback: None,
                last_cut: None,
            },
        };
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
        self.publish_wire();
        PeerReport {
            wire: self.wire,
            complete,
            complete_generations,
            object,
            decoding,
            recoding,
            faults: DatagramFaultCounters::default(),
            link_faults: Vec::new(),
            events: self.tracer.drain(),
            link_latency: self.shared.latency.snapshot(),
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
    /// died at its TTL — updating the AIMD budget. Only whether feedback
    /// came moves it, not how long it took.
    ///
    /// The asymmetry is deliberate and opposite to TCP's: loss here is
    /// *erasure*, not congestion. A timed-out offer to a peer that is
    /// still answering others pinned a budget slot down for a whole TTL —
    /// the additive increase hands that slot back, so the live pipeline
    /// stays as deep as the clean-link one (redundancy tracking channel
    /// loss, as in the paper). Only a peer gone entirely silent for two
    /// TTLs triggers the multiplicative decrease, throttling offers to the
    /// dead until the floor. One TTL is not enough: the offers of one
    /// burst die one TTL after the burst, and the answers to their
    /// burst-mates came just as long before, so on a lossy link a single
    /// lost offer would read as silence and pin the link at the floor.
    fn note_outcome(&mut self, now: u64, index: usize, rtt: Option<Duration>) {
        let (floor, ceiling) = (INFLIGHT_FLOOR as f64, INFLIGHT_CEILING as f64);
        let base = PER_PEER_INFLIGHT as f64;
        let Link { addr: peer, pacing, .. } = &mut self.links[index];
        let peer = *peer;
        let before = pacing.budget as u64;
        if rtt.is_some() {
            pacing.last_feedback = Some(now);
            // A peer cut for silence that answers again recovers: grow
            // back toward the initial budget (never past it — raising
            // above base is reserved for the loss signal), so one
            // transient outage does not pin the peer at the floor for
            // the rest of the session.
            if pacing.budget < base {
                pacing.budget = (pacing.budget + 1.0 / pacing.budget.max(1.0)).min(base);
            }
        } else if pacing.last_feedback.is_some_and(|at| elapsed(now, at) < 2 * PENDING_TTL) {
            // Lossy but live: the lost offer wasted one slot for a full
            // TTL; grow the budget by one to keep the live pipeline deep.
            pacing.budget = (pacing.budget + 1.0).clamp(floor, ceiling);
        } else if pacing.last_cut.is_none_or(|at| elapsed(now, at) >= PENDING_TTL) {
            // Silent for two whole TTLs: multiplicative decrease, at most
            // once per TTL, down to the floor.
            pacing.last_cut = Some(now);
            pacing.budget = (pacing.budget * BUDGET_CUT_FACTOR).clamp(floor, ceiling);
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

    /// The in-flight cap currently in force on link `index`.
    fn inflight_cap(&self, index: usize) -> usize {
        (self.links[index].pacing.budget as usize).max(1)
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
                let fits = payload_size == self.params.payload_size;
                let accept = fits
                    && self.receiver.as_ref().is_some_and(|r| r.would_accept(generation, &vector));
                if accept {
                    self.note_accept(now, from, transfer, generation);
                }
                // A verdict on a generation still being decoded says what
                // this node holds of it, when the scheme can say.
                let summary = match &self.receiver {
                    Some(receiver) if fits => receiver.summary(generation, MAX_SUMMARY_BYTES),
                    _ => None,
                };
                let mut bytes = Vec::new();
                let summary = summary.as_ref();
                let summarised =
                    ledger::encode_verdict_into(&mut bytes, &header, transfer, accept, summary);
                self.wire.summaries_sent += u64::from(summarised);
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
                self.on_feedback(now, out, from, transfer, accept, None);
            }
            MessageView::FeedbackSummary { transfer, accept, summary } => {
                self.on_feedback(now, out, from, transfer, accept, Some(summary));
            }
            MessageView::DataPayload { transfer, packet, .. } => {
                let generation = header.generation;
                // Only a payload this node accepted from `from` is read.
                let accepted_at = self
                    .accepts
                    .get_mut(&from)
                    .and_then(|(_, accepts)| accepts.claim(transfer, generation));
                let Some(accepted_at) = accepted_at else {
                    self.wire.unsolicited_payloads += 1;
                    return;
                };
                // The link's delivery latency, on this node's clock alone.
                self.shared.latency.record(now.saturating_sub(accepted_at));
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

    /// Records the accept of `transfer` of `generation` from `from` at
    /// `now` in that sender's ledger, the most recently used from now on.
    /// Past [`MAX_ACCEPT_LEDGERS`] senders the least recently used ledger
    /// goes.
    fn note_accept(&mut self, now: u64, from: SocketAddr, transfer: u64, generation: u32) {
        self.accept_clock += 1;
        let stamp = self.accept_clock;
        // A window of offers awaiting feedback plus their payloads.
        let cap = 2 * INFLIGHT_CEILING;
        let (used, ledger) =
            self.accepts.entry(from).or_insert_with(|| (stamp, AcceptLedger::new(cap)));
        *used = stamp;
        if ledger.accept(transfer, generation, now).is_some() {
            self.wire.accepts_evicted += 1;
        }
        // Only a stranger spraying source addresses gets here: a scan of
        // at most `MAX_ACCEPT_LEDGERS + 1` tables.
        if self.accepts.len() > MAX_ACCEPT_LEDGERS {
            let oldest = *self
                .accepts
                .iter()
                .min_by_key(|(_, (used, _))| *used)
                .map(|(sender, _)| sender)
                .expect("one over the cap");
            self.accepts.remove(&oldest);
            self.wire.accept_ledgers_evicted += 1;
        }
    }

    /// The verdict `accept` from `from` on offer `transfer`, with the
    /// receiver's summary when it sent one.
    fn on_feedback(
        &mut self,
        now: u64,
        out: &mut Outbox,
        from: SocketAddr,
        transfer: u64,
        accept: bool,
        summary: Option<Summary>,
    ) {
        // Transfer ids are per link, so a verdict is matched only against
        // the offers of the link it arrived on: nobody else (bug or
        // hostility) can decide another peer's offer.
        let Some(&index) = self.link_index.get(&from) else { return };
        // Evicted, duplicate, or never offered: nothing to release.
        let Some(offer) = self.links[index].offers.take(transfer) else { return };
        // Either verdict proves the offer/feedback round trip survived the
        // link — a success for pacing purposes.
        let rtt = elapsed(now, offer.born);
        self.note_outcome(now, index, Some(rtt));
        self.tracer.emit(now, || TraceEvent::FeedbackReceived { peer: from, accept, rtt });
        let generation = offer.generation;
        if let Some(mut summary) = summary {
            // The accepted packet is on its way: the summary, taken before
            // the receiver has it, is short of it.
            if accept {
                summary.fold(offer.packet.vector());
            }
            self.links[index].offers.note_summary(generation, summary);
        }
        // Feedback clock: whoever holds the generation completely emits
        // only good packets, so its pipeline to this peer is RTT-paced. An
        // incomplete relay re-offering at that rate floods the peer with
        // dependent recodes — it waits for the tick (or its next useful
        // delivery) instead. The next offer leaves ahead of the payload:
        // the peer answers it before it spends a decode on the payload, so
        // the round trip overlaps the decode.
        let complete = self.receiver.as_ref().is_none_or(|r| r.generation_complete(generation));
        if complete && self.may_offer(index) {
            self.offer_to(now, out, index, OfferTrigger::Feedback);
        }
        if accept {
            self.wire.transfers_delivered += 1;
            self.wire.payload_bytes_sent += offer.packet.payload_size() as u64;
            let header = self.header(MessageKind::DataPayload, generation);
            let mut bytes = Vec::new();
            offer.encode_payload_into(&mut bytes, &header, transfer);
            self.post(out, from, bytes);
        } else {
            self.wire.transfers_aborted += 1;
            self.wire.smart_aborts += u64::from(offer.smart);
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

    /// Expires every offer past [`PENDING_TTL`], link by link. A link's
    /// offers are born in id order, so each link's sweep stops at its
    /// first live offer.
    fn evict_stale_pending(&mut self, now: u64) {
        for index in 0..self.links.len() {
            while self.links[index].offers.expire(now, PENDING_TTL).is_some() {
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
        // A relay pushes from generations that passed the gate.
        let threshold = ((AGGRESSIVENESS * self.params.code_length as f64).ceil() as usize).max(1);
        // The feedback clock draws on whole generations only (see its arm).
        let partial_ok = trigger != OfferTrigger::Feedback;
        let gated = move |receiver: &ReceiverSession, generation: u32| {
            receiver.useful_received(generation) >= threshold
        };
        let relay_draws = move |receiver: &ReceiverSession, generation: u32| {
            gated(receiver, generation) && (partial_ok || receiver.generation_complete(generation))
        };

        // On a summarised link every offer is built from the summaries if
        // it can be: a packet the peer is sure to want (Algorithm 4), so a
        // partial generation will do. The packet is folded into the held
        // summary, so the next offer does not repeat it.
        let (source, receiver, rng) = (&mut self.source, &mut self.receiver, &mut self.rng);
        let smart = self.links[target].offers.summaries_mut().find_map(|(generation, summary)| {
            let packet = match (source.as_mut(), receiver.as_mut()) {
                (Some(source), _) => source.smart_packet(generation, summary, rng),
                (None, Some(receiver)) if gated(receiver, generation) => {
                    receiver.smart_packet(generation, summary, rng)
                }
                _ => None,
            }?;
            summary.fold(packet.vector());
            Some((generation, packet))
        });
        let is_smart = smart.is_some();

        let offers = &self.links[target].offers;
        let needs = |generation: u32| -> bool { !offers.is_done(generation) };
        let made = if smart.is_some() {
            smart
        } else if let Some(source) = self.source.as_mut() {
            source.make_packet(&mut self.rng, needs)
        } else if let Some(receiver) = self.receiver.as_mut() {
            let eligible =
                |generation: &u32| needs(*generation) && relay_draws(receiver, *generation);
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

        let header = self.header(MessageKind::DataHeader, generation);
        let mut bytes = Vec::new();
        let link = &mut self.links[target];
        link.offers.offer(&mut bytes, &header, packet, is_smart, now);
        let peer = link.addr;
        self.post(out, peer, bytes);
        self.wire.transfers_offered += 1;
        self.wire.smart_offers += u64::from(is_smart);
        let trigger = if is_smart { OfferTrigger::Smart } else { trigger };
        self.tracer.emit(now, || TraceEvent::OfferSent { peer, generation, trigger });
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::rc::Rc;

    use super::*;
    use crate::envelope::TraceContext;
    use crate::{run_virtual_swarm, Topology, TopologyConfig};
    use ltnc_gf2::CodeVector;
    use ltnc_scheme::SchemeKind;

    fn quick_options(seed: u64) -> NodeOptions {
        NodeOptions { tick: Duration::from_millis(1), seed }
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
    }

    /// A source state machine to unit-test the pacing arithmetic on,
    /// wired to one peer: link 0.
    fn pacing_actor(seed: u64) -> NodeStateMachine {
        let params = SchemeParams::new(SchemeKind::Rlnc, 4, 2);
        let role = NodeRole::Source { object: vec![1u8; 8], params };
        let config = NodeConfig::new(1, role, NodeOptions { seed, ..NodeOptions::default() });
        let mut actor = NodeStateMachine::new(config, Arc::default());
        actor.set_peers(vec!["127.0.0.1:9".parse().expect("addr")]);
        actor
    }

    #[test]
    fn budget_recovers_to_base_after_a_silent_period() {
        // A peer goes silent (timeouts only) and is cut to the floor;
        // when it answers again on a clean link, successes must grow the
        // budget back to the initial value — and not past it.
        let mut actor = pacing_actor(13);

        // Dead period: a timeout every 100 ms with no feedback, one cut
        // per 250 ms TTL window.
        let mut now = 0;
        for _ in 0..12 {
            actor.note_outcome(now, 0, None);
            now += 100_000;
        }
        assert_eq!(actor.inflight_cap(0), INFLIGHT_FLOOR);
        assert!(actor.wire.budget_cuts > 0, "silence must cut");

        // Revival on a clean link: successes alone restore the base cap.
        for _ in 0..64 {
            actor.note_outcome(now, 0, Some(Duration::from_micros(50)));
        }
        assert_eq!(actor.inflight_cap(0), PER_PEER_INFLIGHT);
        assert!(actor.wire.budget_raises > 0, "recovery must count as raises");

        // A timeout while the peer is alive grows the budget *past* base.
        actor.note_outcome(now, 0, None);
        assert_eq!(actor.inflight_cap(0), PER_PEER_INFLIGHT + 1);
    }

    #[test]
    fn budget_moves_are_counted_once_per_whole_offer_step() {
        // `note_outcome` on a script with the clock standing still, then
        // stepping a whole TTL at a time, pinned to the exact counts the
        // per-branch accounting it replaced produced on the same script.
        let moves = |actor: &NodeStateMachine| {
            (actor.wire.budget_raises, actor.wire.budget_cuts, actor.inflight_cap(0))
        };
        let answered = Some(Duration::from_micros(50));

        // The clock stands still: a never-heard peer is cut once per window …
        let mut actor = pacing_actor(18);
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
        for _ in 0..61 {
            actor.note_outcome(0, 0, None);
        }
        assert_eq!(moves(&actor), (62, 1, 64), "5, …, 64, and 64 again is no raise");

        // Steps of two whole TTLs: every timeout finds the peer silent and
        // the window over.
        let mut actor = pacing_actor(18);
        actor.note_outcome(0, 0, answered);
        for step in 1..=4 {
            actor.note_outcome(step * 2 * micros(PENDING_TTL), 0, None);
        }
        assert_eq!(moves(&actor), (0, 2, 1), "4 → 2 → 1, the floor is no cut");
    }

    #[test]
    fn a_lost_offer_of_an_answered_burst_is_loss_not_silence() {
        // A burst of offers leaves at 0 and 2 ms; the first is answered
        // at 0.2 ms, the second lost. It expires at the sweep one TTL and
        // one tick after the burst, when the answer is just over a TTL
        // old: the peer is live, so the budget grows. Only an answer two
        // TTLs old reads as silence and cuts.
        let ttl = micros(PENDING_TTL);
        let mut actor = pacing_actor(19);
        actor.note_outcome(200, 0, Some(Duration::from_micros(200)));
        actor.note_outcome(ttl + 2_000, 0, None);
        assert_eq!(actor.inflight_cap(0), PER_PEER_INFLIGHT + 1, "a lossy link was cut");
        actor.note_outcome(200 + 2 * ttl - 1, 0, None);
        assert_eq!(actor.inflight_cap(0), PER_PEER_INFLIGHT + 2);
        actor.note_outcome(200 + 2 * ttl, 0, None);
        assert_eq!(actor.inflight_cap(0), (PER_PEER_INFLIGHT + 2) / 2, "two silent TTLs cut");
        assert_eq!((actor.wire.budget_raises, actor.wire.budget_cuts), (2, 1));
    }

    #[test]
    fn an_offer_answered_after_the_pending_ttl_is_lost() {
        // One TTL on every link, whatever its round trips: on a link whose
        // ACCEPTs come 500 ms after their offers, an offer expires at
        // 250 ms, counts as a timeout, and its late ACCEPT releases no
        // payload.
        let mut actor = pacing_actor(16);
        let peer: SocketAddr = "127.0.0.1:9".parse().expect("addr");
        let round_trip = micros(Duration::from_millis(500));
        let offer_in = |out: &Outbox| {
            out.iter().find_map(|(_, bytes)| {
                let offer = envelope::decode_view(bytes).expect("valid frame");
                let Message::DataHeader { transfer, .. } = offer.message else { return None };
                Some((offer.header, transfer))
            })
        };
        let accept = |actor: &mut NodeStateMachine, now, (header, transfer)| {
            let header = EnvelopeHeader { kind: MessageKind::FeedbackAccept, ..header };
            let bytes = envelope::encode(&header, &Message::Feedback { transfer, accept: true });
            let mut out = Outbox::new();
            actor.handle_datagram(now, peer, &bytes, &mut out);
            out
        };
        let payloads =
            |out: &Outbox| out.iter().filter(|(_, b)| kind(b) == MessageKind::DataPayload).count();

        // No sweep runs before the first ACCEPT, so it still finds its
        // offer: the payload goes, and the feedback clock sends the next
        // offer.
        let mut out = Outbox::new();
        actor.offer_to(0, &mut out, 0, OfferTrigger::Tick);
        let out = accept(&mut actor, round_trip, offer_in(&out).expect("an offer"));
        assert_eq!(payloads(&out), 1);
        let next = offer_in(&out).expect("the feedback clock's offer");

        let ttl = micros(PENDING_TTL);
        actor.evict_stale_pending(round_trip + ttl - 1);
        assert_eq!(actor.wire.offer_timeouts, 0, "alive until the TTL");
        actor.evict_stale_pending(round_trip + ttl);
        assert_eq!(actor.wire.offer_timeouts, 1, "expired at the TTL");
        let out = accept(&mut actor, 2 * round_trip, next);
        assert_eq!(payloads(&out), 0, "the late ACCEPT released a payload");
        assert_eq!(actor.wire.transfers_delivered, 1);
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
            Driven::pair_of(SchemeKind::Rlnc, generations, options, wires)
        }

        /// The same under `scheme`.
        fn pair_of(
            scheme: SchemeKind,
            generations: u8,
            options: NodeOptions,
            wires: &Wires,
        ) -> (Driven, Driven) {
            let params = SchemeParams::new(scheme, 8, 4);
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

        /// A first offer to the peer on link `target`.
        fn offer_to(&mut self, target: usize) {
            let mut out = Outbox::new();
            self.sm.offer_to(0, &mut out, target, OfferTrigger::Tick);
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
        let options = quick_options(8);
        let (mut source, a) = Driven::source_and_relay(options, &wires);
        let c = Driven::bystander(options, &wires);
        let d = Driven::bystander(options, &wires);
        source.sm.set_peers(vec![a.addr, c.addr]);
        source.offer_to(0);
        source.offer_to(1);
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
        // dropped and counted, and moves neither rank nor latency sample;
        // the accepted payload itself is delivered once.
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
            (rank, relay.sm.wire.useful_deliveries, shared.latency.snapshot().count())
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
        assert_eq!(state(&relay), (1, 1, 1), "the accepted payload is delivered");
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
        let options = quick_options(23);
        let wires = Wires::default();
        let (mut source, mut relay) = Driven::source_and_relay(options, &wires);
        let sink = Driven::bystander(options, &wires);
        source.sm.set_peers(vec![relay.addr]);
        source.push_once();

        // Before set_peers a useful delivery releases nothing.
        assert_eq!(relay.next_useful_from(&mut source), 0, "not wired in yet");
        relay.sm.set_peers(vec![sink.addr]);
        // Wired: each of the next ones fills one of the sink's in-flight
        // slots …
        for _ in 0..PER_PEER_INFLIGHT {
            assert_eq!(relay.next_useful_from(&mut source), 1);
        }
        // … and the sink never answers, so the one after finds the cap.
        assert_eq!(relay.next_useful_from(&mut source), 0, "at the in-flight cap");
        assert_eq!(kinds(&sink.arrived()), [MessageKind::DataHeader; PER_PEER_INFLIGHT]);

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

    /// A `DATA-HEADER` offering native `index` of generation 0 under
    /// `transfer`, as anyone with the session id can write one.
    fn forged_offer(transfer: u64, index: usize) -> Vec<u8> {
        let header = EnvelopeHeader {
            kind: MessageKind::DataHeader,
            scheme: SchemeKind::Rlnc,
            session: 0xC10C,
            generation: 0,
        };
        let (mut bytes, trace) = (Vec::new(), TraceContext::origin_now(0));
        let vector = CodeVector::singleton(8, index);
        envelope::encode_offer_into(&mut bytes, &header, transfer, &trace, &vector, 4);
        bytes
    }

    #[test]
    fn a_stranger_spraying_addresses_cannot_grow_the_accept_tables() {
        // Every offer below is acceptable, so each new source address
        // would get an accept table. Past the cap the least recently used
        // goes, counted; the source, accepting now and then, keeps its own.
        let wires = Wires::default();
        let (source, mut relay) = Driven::source_and_relay(quick_options(28), &wires);
        let sprayed = MAX_ACCEPT_LEDGERS + 100;
        for i in 0..sprayed {
            let spoofed = SocketAddr::from(([10, (i >> 16) as u8, (i >> 8) as u8, i as u8], 7));
            relay.handle(&forged_offer(1, i % 8), spoofed);
            if i % 64 == 0 {
                relay.handle(&forged_offer(i as u64 + 1, i % 8), source.addr);
            }
            assert!(relay.sm.accepts.len() <= MAX_ACCEPT_LEDGERS, "past the cap at {i}");
        }
        assert_eq!(relay.sm.accepts.len(), MAX_ACCEPT_LEDGERS);
        assert_eq!(relay.sm.wire.accept_ledgers_evicted, (sprayed + 1 - MAX_ACCEPT_LEDGERS) as u64);
        assert!(relay.sm.accepts.contains_key(&source.addr), "a live sender's table went");
    }

    /// A summarised verdict `accept` on `offer` (a `DATA-HEADER` datagram).
    fn summarised(offer: &[u8], accept: bool, summary: &Summary) -> Vec<u8> {
        let offer = envelope::decode_view(offer).expect("valid frame");
        let Message::DataHeader { transfer, .. } = offer.message else {
            panic!("not an offer: {:?}", offer.header.kind)
        };
        let mut bytes = Vec::new();
        envelope::encode_feedback_summary_into(
            &mut bytes,
            &offer.header,
            transfer,
            accept,
            summary,
        );
        bytes
    }

    #[test]
    fn summaries_stay_within_links_times_generations() {
        // A source of three generations, wired to A and B, is answered
        // with a summarised verdict, either way, for every offer, true or
        // not, and a stranger sends more for the same transfers. It holds
        // at most one summary per link and generation, and builds offers
        // from them.
        let options = quick_options(29);
        let wires = Wires::default();
        let (mut source, a) = Driven::pair_of(SchemeKind::Ltnc, 3, options, &wires);
        let b = Driven::bystander(options, &wires);
        let stranger = Driven::bystander(options, &wires);
        source.sm.set_peers(vec![a.addr, b.addr]);
        let mut rng = SmallRng::seed_from_u64(29);
        for _ in 0..40 {
            source.tick();
            for peer in [&a, &b] {
                for (offer, _) in peer.arrived() {
                    if kind(&offer) != MessageKind::DataHeader {
                        continue; // the payload of an accepted offer
                    }
                    let labels: Vec<usize> = (0..8).map(|_| rng.gen_range(0..=8)).collect();
                    let told = summarised(&offer, rng.gen(), &Summary::from_labels(&labels));
                    source.handle(&told, stranger.addr);
                    source.handle(&told, peer.addr);
                }
            }
            let held: usize = source.sm.links.iter().map(|l| l.offers.summaries_held()).sum();
            assert!(held <= 2 * 3, "{held} summaries held");
        }
        assert!(source.sm.wire.smart_offers > 0, "no offer was built from a summary");
        assert!(source.sm.wire.transfers_delivered > 0, "no summarised verdict accepted");
    }

    #[test]
    fn every_ltnc_verdict_on_an_open_generation_carries_a_summary() {
        // Source ⇄ receiver, ticks keeping several offers in flight: every
        // verdict the receiver gives while the generation is open, accept
        // or abort, carries its summary, and the source builds offers from
        // them. (With several offers in flight the receiver may learn a
        // smart packet's native from another payload first, and refuse
        // it.) Once the generation is decoded, and under RLNC throughout,
        // verdicts are plain.
        for scheme in [SchemeKind::Ltnc, SchemeKind::Rlnc] {
            let wires = Wires::default();
            let (mut source, mut relay) = Driven::pair_of(scheme, 1, quick_options(30), &wires);
            source.sm.set_peers(vec![relay.addr]);
            source.push_once();
            let mut verdicts: Vec<(bool, MessageKind)> = Vec::new();
            for _ in 0..1000 {
                if relay.complete() {
                    break;
                }
                source.tick();
                for (bytes, from) in relay.arrived() {
                    let open = !relay.complete();
                    let answered = relay.wires.borrow()[&source.addr].len();
                    relay.handle(&bytes, from);
                    // An offer's verdict is the first frame it sends back.
                    if kind(&bytes) == MessageKind::DataHeader {
                        let verdict = kind(&relay.wires.borrow()[&source.addr][answered].0);
                        verdicts.push((open, verdict));
                    }
                }
                source.handle_arrived();
            }
            assert!(relay.complete(), "{scheme:?}: the receiver never completed");
            let (sent, received) = (relay.sm.wire, source.sm.wire);
            let count = |open, kind| verdicts.iter().filter(|&&v| v == (open, kind)).count() as u64;
            let summarised =
                count(true, MessageKind::AcceptSummary) + count(true, MessageKind::AbortSummary);
            assert_eq!(sent.summaries_sent, summarised, "{scheme:?}: {verdicts:?}");
            if scheme == SchemeKind::Ltnc {
                assert!(count(true, MessageKind::AcceptSummary) > 0, "{verdicts:?}");
                assert!(count(true, MessageKind::AbortSummary) > 0, "{verdicts:?}");
                assert_eq!(count(true, MessageKind::FeedbackAccept), 0, "{verdicts:?}");
                assert_eq!(count(true, MessageKind::FeedbackAbort), 0, "{verdicts:?}");
                assert!(received.smart_offers > 0, "no offer was smart: {received}");
                assert!(received.smart_aborts <= received.smart_offers, "{received}");
            } else {
                assert_eq!((summarised, received.smart_offers), (0, 0), "{verdicts:?}");
            }
            assert_eq!(count(false, MessageKind::AcceptSummary), 0, "{scheme:?}: {verdicts:?}");
            assert_eq!(count(false, MessageKind::AbortSummary), 0, "{scheme:?}: {verdicts:?}");
        }
    }

    #[test]
    fn two_offers_built_from_one_summary_name_different_natives() {
        // The source's first offer is accepted with an ACCEPT-SUMMARY, so
        // it holds one summary of the relay, folded with the accepted
        // packet. Before any further answer it releases two offers on the
        // link: the accept's feedback-clock offer and one more. Both are
        // built from that one summary, with different vectors, and each
        // payload is useful to the relay after the one before it.
        let wires = Wires::default();
        let (mut source, mut relay) =
            Driven::pair_of(SchemeKind::Ltnc, 1, quick_options(31), &wires);
        source.sm.set_peers(vec![relay.addr]);
        source.push_once();
        assert_eq!(relay.handle_arrived(), 0);
        assert_eq!(kinds(&relay.wires.borrow()[&source.addr]), [MessageKind::AcceptSummary]);
        assert_eq!(source.handle_arrived(), 1, "the accept clocks the next offer");
        source.offer_to(0);
        assert_eq!(source.sm.wire.smart_offers, 2, "both offers are smart");
        let arrived = relay.arrived();
        let offers: Vec<CodeVector> = arrived
            .iter()
            .filter(|(bytes, _)| kind(bytes) == MessageKind::DataHeader)
            .map(|(bytes, _)| vector(bytes))
            .collect();
        assert_eq!(offers.len(), 2);
        assert_ne!(offers[0], offers[1], "one summary named the same packet twice");
        for (bytes, from) in &arrived {
            relay.handle(bytes, *from);
        }
        source.handle_arrived();
        let payloads: Vec<Vec<u8>> = relay
            .arrived()
            .into_iter()
            .filter(|(bytes, _)| kind(bytes) == MessageKind::DataPayload)
            .map(|(bytes, _)| bytes)
            .collect();
        assert_eq!(payloads.iter().map(|p| vector(p)).collect::<Vec<_>>(), offers);
        for payload in &payloads {
            let useful = relay.sm.wire.useful_deliveries;
            relay.handle(payload, source.addr);
            assert_eq!(relay.sm.wire.useful_deliveries, useful + 1, "{:?}", vector(payload));
        }
        assert_eq!(relay.sm.wire.useful_deliveries, 3);
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
