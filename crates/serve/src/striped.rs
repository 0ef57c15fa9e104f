//! Multi-server striped fetching: one object pulled from N replicas at
//! once.
//!
//! The paper's core property — *any* subset of rateless coded symbols is
//! useful — means a client fetching one object from several edge replicas
//! does not need the replicas to coordinate. This module exploits that:
//!
//! * **striping** — the object's generations are partitioned round-robin
//!   across the replicas ([`ltnc_session::LeaseTable`]); each replica
//!   stream runs the per-generation fetch primitive
//!   ([`crate::client::ReplicaConn::fetch_generations`]) over its lease
//!   only, steered by up-front per-generation `COMPLETE`s so every
//!   server's in-flight budget goes to generations this client actually
//!   wants from it;
//! * **merging** — all streams decode into one
//!   [`ltnc_session::SharedReceiver`] with per-generation locks; symbols
//!   that arrive with duplicate rank (overlapping streams after a
//!   failover) are simply discarded and counted
//!   ([`StripeCounters::duplicates_discarded`]);
//! * **failover** — each stream carries a progress watermark; a stream
//!   that disconnects, errors, or stalls past
//!   [`ClientOptions::stall_timeout`] has exactly *its* outstanding
//!   leases re-assigned (completed generations never migrate). A failed
//!   *original* stream declares its replica dead; a failed *failover*
//!   stream does not — the replica's other sessions may be healthy. Each
//!   re-lease opens a fresh session on a survivor (the survivor's
//!   original session already pruned those generations at steering time,
//!   so a new handshake is the steering-correct way to un-prune), with
//!   the open running off the coordinator thread so a stalling survivor
//!   cannot block other failovers or completion detection.
//!
//! The coordinator is a single event loop: replica opens and stream
//! terminations arrive on one channel — one slow handshake never gates
//! the others. The reference manifest is chosen by *vote*, not by
//! arrival order (a strict majority of configured replicas, or the
//! plurality once every handshake resolves), so a lone fast impostor
//! cannot hijack the fetch; streams start as soon as the vote settles.
//!
//! Replicas should run with distinct [`crate::ServeOptions::replica_salt`]
//! values so their symbol streams (and warm-ring prefixes) diverge;
//! identical replicas would still converge — rateless union tolerates
//! duplicates — just slower.

use std::net::SocketAddr;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ltnc_metrics::{LogHistogramSnapshot, ReplicaCounters, StripeCounters};
use ltnc_scheme::SchemeKind;
use ltnc_session::generation::ObjectManifest;
use ltnc_session::{LeaseTable, SharedReceiver};
use ltnc_telemetry::{TraceEvent, Tracer};

use crate::client::{ClientOptions, ReplicaConn};
use crate::ServeError;

/// Upper bound on replicas a striped fetch will open.
pub const MAX_REPLICAS: usize = 64;

/// Total stream failures tolerated before the fetch gives up with
/// [`ServeError::AllReplicasFailed`]. Bounds flapping: a replica that
/// keeps accepting connections and then stalling could otherwise eat the
/// whole deadline in re-lease cycles. Replicas dead at connect time do not
/// count against this budget.
const MAX_FAILOVERS: usize = 8;

/// Tuning of one striped fetch.
#[derive(Debug, Clone, Copy, Default)]
pub struct StripedOptions {
    /// Per-stream options (deadline, connect timeout, stall watermark).
    /// The overall fetch deadline is `client.timeout` as well.
    pub client: ClientOptions,
}

/// Outcome of a successful striped fetch.
#[derive(Debug)]
pub struct StripedReport {
    /// The reassembled object, length-verified against the manifest.
    pub object: Vec<u8>,
    /// The manifest every replica agreed on.
    pub manifest: ObjectManifest,
    /// Per-replica and failover accounting.
    pub stripe: StripeCounters,
    /// Wall-clock time from first connect to reassembly.
    pub elapsed: Duration,
    /// Accept→payload latency, each stream on its own clock, merged over
    /// every stream of the fetch, failover streams included.
    pub latency: LogHistogramSnapshot,
}

/// Everything the coordinator reacts to, on one channel.
enum Event {
    /// A replica's handshake resolved (boxed: a `ReplicaConn` carries
    /// its framing buffers, far larger than a stream event).
    Opened(usize, Box<Result<(ReplicaConn, ObjectManifest), ServeError>>),
    /// A fetch stream terminated (boxed: carries a full latency
    /// snapshot).
    Stream(Box<StreamEvent>),
}

/// Marker error of [`Coordinator::migrate`]: outstanding leases had no
/// replica to move to. Carries no cause on purpose (see `migrate` docs).
struct NoSurvivors;

/// One stream's terminal report back to the coordinator.
struct StreamEvent {
    replica: usize,
    /// The exact generations this stream was responsible for (failover
    /// migrates these, and only these).
    lease: Vec<u32>,
    /// `true` for a re-lease session opened after a failover; its failure
    /// does not declare the whole replica dead.
    failover: bool,
    result: Result<(), ServeError>,
    counters: ReplicaCounters,
    latency: LogHistogramSnapshot,
}

/// Coordinator state while the fetch is live.
struct Coordinator {
    addrs: Vec<SocketAddr>,
    object_id: u64,
    scheme: SchemeKind,
    options: StripedOptions,
    stripe: StripeCounters,
    manifest: Option<ObjectManifest>,
    receiver: Option<Arc<SharedReceiver>>,
    leases: Option<LeaseTable>,
    /// A replica is alive until its connect/handshake or *original*
    /// stream fails.
    alive: Vec<bool>,
    /// Whether a replica's original stream has been spawned (a later
    /// re-lease to an unspawned replica just lands in its initial lease).
    spawned: Vec<bool>,
    /// Open-phase failures awaiting re-homing until the manifest (and
    /// thus the lease table) exists.
    deferred_orphans: Vec<usize>,
    /// Successful handshakes buffered until the manifest adoption vote
    /// resolves (see [`Coordinator::try_adopt`]).
    pending_conns: Vec<(usize, ReplicaConn, ObjectManifest)>,
    stream_failures: usize,
    last_error: Option<ServeError>,
    /// Running merge of every terminated stream's latency distribution.
    latency: LogHistogramSnapshot,
    event_tx: mpsc::Sender<Event>,
    outstanding_streams: usize,
    pending_opens: usize,
    /// Emits `ReplicaFailover`/`LeaseReassigned` events on the failover
    /// path; [`Tracer::off`] for untraced fetches.
    tracer: Tracer,
}

/// Fetches `object_id` under `scheme` from every replica in `addrs` at
/// once, striping generations across them and failing over when replicas
/// die or stall. Completes as long as the *union* of live replicas can
/// supply every generation.
///
/// # Errors
///
/// [`ServeError::InvalidOption`] for an empty or oversized replica list,
/// [`ServeError::AllReplicasFailed`] when no replica survives (or the
/// failover budget runs out), [`ServeError::Corrupt`] when replicas
/// disagree on the manifest in a way that leaves none usable or the
/// reassembled object fails verification, [`ServeError::TimedOut`] past
/// the deadline, plus transport errors when every connect fails.
pub fn fetch_striped(
    addrs: &[SocketAddr],
    object_id: u64,
    scheme: SchemeKind,
    options: &StripedOptions,
) -> Result<StripedReport, ServeError> {
    fetch_striped_traced(addrs, object_id, scheme, options, Tracer::off())
}

/// Like [`fetch_striped`], but emits `ReplicaFailover` and
/// `LeaseReassigned` trace events through `tracer` as the coordinator
/// declares replicas dead and migrates their outstanding generation
/// leases.
///
/// # Errors
///
/// Same as [`fetch_striped`].
pub fn fetch_striped_traced(
    addrs: &[SocketAddr],
    object_id: u64,
    scheme: SchemeKind,
    options: &StripedOptions,
    tracer: Tracer,
) -> Result<StripedReport, ServeError> {
    if addrs.is_empty() || addrs.len() > MAX_REPLICAS {
        return Err(ServeError::InvalidOption {
            name: "replicas",
            value: addrs.len() as u64,
            min: 1,
            max: MAX_REPLICAS as u64,
        });
    }
    let started = Instant::now();
    let deadline = started + options.client.timeout;

    let (event_tx, event_rx) = mpsc::channel::<Event>();
    let mut coordinator = Coordinator {
        addrs: addrs.to_vec(),
        object_id,
        scheme,
        options: *options,
        stripe: StripeCounters::with_replicas(addrs.len()),
        manifest: None,
        receiver: None,
        leases: None,
        alive: vec![true; addrs.len()],
        spawned: vec![false; addrs.len()],
        deferred_orphans: Vec::new(),
        pending_conns: Vec::new(),
        stream_failures: 0,
        last_error: None,
        latency: LogHistogramSnapshot::empty(),
        event_tx: event_tx.clone(),
        outstanding_streams: 0,
        pending_opens: addrs.len(),
        tracer,
    };

    // Parallel opens, funneled into the coordinator's event loop: streams
    // start the moment their replica's handshake lands.
    for (replica, addr) in addrs.iter().enumerate() {
        let event_tx = event_tx.clone();
        let addr = *addr;
        let client = options.client;
        thread::spawn(move || {
            let result = ReplicaConn::open(addr, object_id, scheme, &client);
            let _ = event_tx.send(Event::Opened(replica, Box::new(result)));
        });
    }

    // Event loop: handshakes and stream terminations, until the object
    // completes or nothing can still deliver it.
    while coordinator.pending_opens > 0 || coordinator.outstanding_streams > 0 {
        if coordinator.receiver.as_ref().is_some_and(|r| r.is_complete()) {
            break;
        }
        if Instant::now() > deadline {
            return Err(ServeError::TimedOut);
        }
        // Short waits: the receiver can complete while every stream is
        // still mid-drain, and completion must be noticed promptly, not
        // on the next stream event.
        let wait =
            deadline.saturating_duration_since(Instant::now()).min(Duration::from_millis(10));
        let event = match event_rx.recv_timeout(wait) {
            Ok(event) => event,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if Instant::now() > deadline {
                    return Err(ServeError::TimedOut);
                }
                continue;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        };
        coordinator.handle(event)?;
    }

    let Some(receiver) = coordinator.receiver.as_ref() else {
        // No replica ever handed over a manifest.
        return Err(coordinator
            .last_error
            .unwrap_or(ServeError::AllReplicasFailed { replicas: addrs.len(), cause: None }));
    };
    if !receiver.is_complete() {
        return Err(ServeError::AllReplicasFailed {
            replicas: addrs.len(),
            cause: coordinator.last_error.take().map(Box::new),
        });
    }

    // Streams still running exit within one read-timeout cycle once their
    // generations are complete; give them a moment so their counters make
    // the report, but never block completion on a wedged socket.
    let drain_deadline = Instant::now() + Duration::from_millis(500);
    while coordinator.outstanding_streams > 0 && Instant::now() < drain_deadline {
        match event_rx.recv_timeout(Duration::from_millis(50)) {
            Ok(Event::Stream(event)) => {
                coordinator.outstanding_streams -= 1;
                coordinator.latency.merge(&event.latency);
                let slot = &mut coordinator.stripe.replicas[event.replica];
                slot.merge(&event.counters);
                slot.failed |= event.result.is_err();
            }
            Ok(Event::Opened(_, result)) => {
                coordinator.pending_opens = coordinator.pending_opens.saturating_sub(1);
                drop(result); // a late handshake has nothing left to serve
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }

    let receiver = coordinator.receiver.expect("checked above");
    let manifest = coordinator.manifest.expect("manifest set with receiver");
    let object =
        receiver.reassemble().ok_or(ServeError::Corrupt("reassembly failed after completion"))?;
    if object.len() as u64 != manifest.object_len {
        return Err(ServeError::Corrupt("reassembled length != manifest"));
    }
    Ok(StripedReport {
        object,
        manifest,
        stripe: coordinator.stripe,
        elapsed: started.elapsed(),
        latency: coordinator.latency,
    })
}

impl Coordinator {
    /// Applies one event. `Err` aborts the whole fetch.
    fn handle(&mut self, event: Event) -> Result<(), ServeError> {
        match event {
            Event::Opened(replica, outcome) => {
                self.pending_opens -= 1;
                match *outcome {
                    Ok((conn, declared)) => match self.manifest {
                        Some(reference) if declared != reference => self.impostor(replica),
                        Some(_) => self.spawn_primary(replica, conn),
                        None => {
                            // No reference yet: buffer until a manifest wins
                            // the adoption vote. First-handshake-wins would
                            // let a fast misconfigured replica become the
                            // reference and disqualify every correct one.
                            self.pending_conns.push((replica, conn, declared));
                            self.try_adopt();
                        }
                    },
                    Err(e) => {
                        self.stripe.replicas[replica].failed = true;
                        self.last_error = Some(e);
                        self.replica_dead_at_open(replica);
                        // One fewer voter; a buffered plurality may now
                        // decide.
                        self.try_adopt();
                    }
                }
            }
            Event::Stream(event) => {
                self.outstanding_streams -= 1;
                self.latency.merge(&event.latency);
                self.stripe.replicas[event.replica].merge(&event.counters);
                self.release_completed();
                if let Err(stream_error) = event.result {
                    self.last_error = Some(stream_error);
                    self.stripe.replicas[event.replica].failed = true;
                    self.stripe.failovers += 1;
                    self.stream_failures += 1;
                    if !event.failover {
                        // The replica's one original session died; stop
                        // routing leases to it.
                        self.alive[event.replica] = false;
                        let replica = event.replica as u64;
                        crate::trace(&self.tracer, || TraceEvent::ReplicaFailover { replica });
                    }
                    if self.stream_failures > MAX_FAILOVERS {
                        return Err(self.give_up());
                    }
                    if self.migrate(&event.lease, event.replica).is_err() {
                        return Err(self.give_up());
                    }
                }
            }
        }
        Ok(())
    }

    /// Marks a replica whose manifest disagrees with the adopted
    /// reference and re-homes its leases.
    fn impostor(&mut self, replica: usize) {
        self.stripe.replicas[replica].failed = true;
        self.last_error = Some(ServeError::Corrupt("replicas disagree on the object manifest"));
        self.replica_dead_at_open(replica);
    }

    /// Starts a replica's original fetch stream over its current lease.
    fn spawn_primary(&mut self, replica: usize, conn: ReplicaConn) {
        let lease = self
            .leases
            .as_ref()
            .expect("lease table exists once a manifest is adopted")
            .leased_to(replica);
        self.spawned[replica] = true;
        spawn_stream(
            replica,
            conn,
            lease,
            Arc::clone(self.receiver.as_ref().expect("receiver with manifest")),
            self.options.client,
            self.event_tx.clone(),
        );
        self.outstanding_streams += 1;
    }

    /// Adoption vote over the buffered handshakes: a manifest is adopted
    /// as the reference once a strict majority of *all configured*
    /// replicas declare it, or — once every open has resolved — by
    /// plurality among those that answered (lowest replica index breaks
    /// ties). A lone impostor can therefore never out-race the correct
    /// replicas into becoming the reference.
    fn try_adopt(&mut self) {
        if self.manifest.is_some() || self.pending_conns.is_empty() {
            return;
        }
        let majority = self.addrs.len() / 2 + 1;
        // (votes, lowest replica index) per distinct manifest, over the
        // handful of buffered handshakes.
        let mut winner: Option<(usize, usize, ObjectManifest)> = None;
        for (replica, _, candidate) in &self.pending_conns {
            let votes = self.pending_conns.iter().filter(|(_, _, m)| m == candidate).count();
            let lowest = self
                .pending_conns
                .iter()
                .filter(|(_, _, m)| m == candidate)
                .map(|(r, _, _)| *r)
                .min()
                .unwrap_or(*replica);
            let better = match &winner {
                None => true,
                Some((best_votes, best_lowest, _)) => {
                    votes > *best_votes || (votes == *best_votes && lowest < *best_lowest)
                }
            };
            if better {
                winner = Some((votes, lowest, *candidate));
            }
        }
        let Some((votes, _, reference)) = winner else { return };
        if votes < majority && self.pending_opens > 0 {
            return; // undecided: more handshakes may still arrive
        }
        self.adopt_manifest(reference);
        for (replica, conn, declared) in std::mem::take(&mut self.pending_conns) {
            if declared == reference {
                self.spawn_primary(replica, conn);
            } else {
                self.impostor(replica);
            }
        }
    }

    /// Adopting the reference manifest: build the shared decoder and the
    /// lease table, and re-home any leases orphaned by replicas that
    /// failed before this point.
    fn adopt_manifest(&mut self, manifest: ObjectManifest) {
        self.receiver = Some(Arc::new(SharedReceiver::new(manifest)));
        self.leases = Some(LeaseTable::partition(manifest.generation_count(), self.addrs.len()));
        self.manifest = Some(manifest);
        for replica in std::mem::take(&mut self.deferred_orphans) {
            let orphaned = self.leases.as_ref().expect("lease table just built").leased_to(replica);
            // Dead-at-open replicas never owned a stream, so failures
            // here are not failovers in the budget sense; ignore the
            // unreachable no-survivor error (nothing is running yet and
            // the main loop will detect total loss).
            let _ = self.migrate(&orphaned, replica);
        }
    }

    /// A replica whose handshake failed: re-home its initial lease (or
    /// defer until a manifest exists to partition against).
    fn replica_dead_at_open(&mut self, replica: usize) {
        self.alive[replica] = false;
        crate::trace(&self.tracer, || TraceEvent::ReplicaFailover { replica: replica as u64 });
        self.stripe.failovers += 1;
        if self.manifest.is_some() {
            let orphaned =
                self.leases.as_ref().expect("lease table exists with manifest").leased_to(replica);
            let _ = self.migrate(&orphaned, replica);
        } else {
            self.deferred_orphans.push(replica);
        }
    }

    /// Moves the outstanding generations of one failed stream to the
    /// surviving replicas, spawning re-lease sessions where the target's
    /// original stream already pruned them.
    ///
    /// `Err(NoSurvivors)` reports outstanding leases with nowhere to go;
    /// it deliberately carries no cause — `last_error` stays untouched so
    /// the caller that decides to abort can still attach it.
    fn migrate(&mut self, lease: &[u32], from: usize) -> Result<(), NoSurvivors> {
        if self.leases.is_none() {
            return Ok(());
        }
        // Prefer other live replicas; fall back on the stream's own
        // replica when it is still alive (a failover stream died but the
        // replica itself is healthy) and nobody else is left.
        let mut candidates: Vec<usize> =
            (0..self.addrs.len()).filter(|&r| self.alive[r] && r != from).collect();
        if candidates.is_empty() && self.alive[from] {
            candidates.push(from);
        }
        let moves = {
            let leases = self.leases.as_mut().expect("checked above");
            let outstanding: Vec<u32> =
                lease.iter().copied().filter(|&g| leases.owner(g).is_some()).collect();
            if outstanding.is_empty() {
                return Ok(()); // everything in the lease already completed
            }
            leases.reassign_set(&outstanding, &candidates)
        };
        if moves.is_empty() {
            return Err(NoSurvivors); // outstanding leases, nowhere to go
        }
        for &(generation, to) in &moves {
            let (from, to) = (from as u64, to as u64);
            crate::trace(&self.tracer, || TraceEvent::LeaseReassigned { generation, from, to });
        }
        self.stripe.generations_releases += moves.len() as u64;
        for &target in &candidates {
            let orphans: Vec<u32> =
                moves.iter().filter(|(_, to)| *to == target).map(|(g, _)| *g).collect();
            if orphans.is_empty() {
                continue;
            }
            if !self.spawned[target] {
                // The target's original stream has not started yet; the
                // reassignment above already put these generations in the
                // lease it will read at spawn time.
                continue;
            }
            spawn_release_stream(
                target,
                self.addrs[target],
                self.object_id,
                self.scheme,
                self.manifest.expect("manifest exists when streams run"),
                orphans,
                Arc::clone(self.receiver.as_ref().expect("receiver exists when streams run")),
                self.options.client,
                self.event_tx.clone(),
            );
            self.outstanding_streams += 1;
        }
        Ok(())
    }

    /// Completed generations can never migrate, whatever happens next.
    fn release_completed(&mut self) {
        let (Some(receiver), Some(leases), Some(manifest)) =
            (self.receiver.as_ref(), self.leases.as_mut(), self.manifest.as_ref())
        else {
            return;
        };
        for gen_index in 0..manifest.generation_count() {
            if receiver.generation_complete(gen_index) {
                leases.release(gen_index);
            }
        }
    }

    fn give_up(&mut self) -> ServeError {
        ServeError::AllReplicasFailed {
            replicas: self.addrs.len(),
            cause: self.last_error.take().map(Box::new),
        }
    }
}

/// Spawns one replica stream thread running the per-generation primitive.
fn spawn_stream(
    replica: usize,
    mut conn: ReplicaConn,
    lease: Vec<u32>,
    receiver: Arc<SharedReceiver>,
    options: ClientOptions,
    event_tx: mpsc::Sender<Event>,
) {
    thread::spawn(move || {
        let result = conn.fetch_generations(&lease, &receiver, &options).map(|_| ());
        let counters = conn.replica_counters();
        let latency = conn.latency_snapshot();
        // A send failure means the coordinator already returned; nothing
        // left to report to.
        let _ = event_tx.send(Event::Stream(Box::new(StreamEvent {
            replica,
            lease,
            failover: false,
            result,
            counters,
            latency,
        })));
    });
}

/// Spawns a failover stream: opens a fresh session to a survivor (off the
/// coordinator thread), verifies it still serves the same manifest, and
/// fetches the re-leased generations. Failures surface as a normal stream
/// event for this replica, marked `failover` so they do not declare the
/// replica itself dead.
#[allow(clippy::too_many_arguments)]
fn spawn_release_stream(
    replica: usize,
    addr: SocketAddr,
    object_id: u64,
    scheme: SchemeKind,
    expected: ObjectManifest,
    lease: Vec<u32>,
    receiver: Arc<SharedReceiver>,
    options: ClientOptions,
    event_tx: mpsc::Sender<Event>,
) {
    thread::spawn(move || {
        let (result, counters, latency) = match ReplicaConn::open(addr, object_id, scheme, &options)
        {
            Ok((mut conn, declared)) => {
                let result = if declared == expected {
                    conn.fetch_generations(&lease, &receiver, &options).map(|_| ())
                } else {
                    Err(ServeError::Corrupt("replicas disagree on the object manifest"))
                };
                (result, conn.replica_counters(), conn.latency_snapshot())
            }
            Err(e) => (Err(e), ReplicaCounters::default(), LogHistogramSnapshot::empty()),
        };
        let _ = event_tx.send(Event::Stream(Box::new(StreamEvent {
            replica,
            lease,
            failover: true,
            result,
            counters,
            latency,
        })));
    });
}
