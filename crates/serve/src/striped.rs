//! Multi-server striped fetching: one object pulled from N replicas at
//! once.
//!
//! The paper's core property — *any* subset of rateless coded symbols is
//! useful — means a client fetching one object from several edge replicas
//! does not need the replicas to coordinate. A striped fetch is three
//! steps:
//!
//! 1. **every handshake** — every replica is opened in parallel and every
//!    open is waited for;
//! 2. **one vote** — the manifest most replicas declared is the reference
//!    (the lowest replica index breaks ties), so a lone fast impostor
//!    cannot hijack the fetch. The object's generations are partitioned
//!    round-robin across the replicas ([`ltnc_session::LeaseTable`]); a
//!    replica that failed its handshake or declared another manifest is
//!    marked failed, and its generations join the survivors' first leases
//!    before any stream starts;
//! 3. **one stream recipe** — each stream runs the per-generation fetch
//!    primitive ([`crate::client::ReplicaConn::fetch_generations`]) over
//!    its lease only, steered by up-front per-generation `COMPLETE`s so
//!    every server's in-flight budget goes to generations this client
//!    actually wants from it. All streams decode into one
//!    [`ltnc_session::SharedReceiver`] with per-generation locks; symbols
//!    that arrive with duplicate rank (overlapping streams after a
//!    failover) are simply discarded and counted
//!    ([`StripeCounters::duplicates_discarded`]).
//!
//! **Failover:** each stream carries a progress watermark; a stream that
//! disconnects, errors, or stalls past [`ClientOptions::stall_timeout`]
//! has exactly *its* outstanding leases re-assigned (completed
//! generations never migrate). A failed *original* stream declares its
//! replica dead; a failed *re-lease* stream does not — the replica's
//! other sessions may be healthy. Each re-lease opens a fresh session on
//! a survivor (the survivor's original session already pruned those
//! generations at steering time, so a new handshake is the
//! steering-correct way to un-prune), with the same recipe as every other
//! stream: one thread, one terminal report. Every stream gets what is
//! left of the fetch's one deadline, so no stream outlives it.
//!
//! Replicas should run with distinct [`crate::ServeOptions::replica_salt`]
//! values so their symbol streams (and warm-ring prefixes) diverge;
//! identical replicas would still converge — rateless union tolerates
//! duplicates — just slower.

use std::cmp::Reverse;
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

/// How long streams still running may take to report once the object is
/// complete: they exit within one read-timeout cycle, so their counters
/// make the report, but a stream wedged in a socket write never blocks
/// completion.
const REPORT_GRACE: Duration = Duration::from_millis(500);

/// Tuning of one striped fetch.
#[derive(Debug, Clone, Copy, Default)]
pub struct StripedOptions {
    /// Per-stream options: the deadline and the stall watermark (the TCP
    /// connect timeout is a fixed 5 s). `client.timeout` is the whole
    /// fetch's one deadline: every stream, re-lease streams included,
    /// gets what is left of it.
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

/// Coordinator state once the vote has settled.
struct Coordinator {
    addrs: Vec<SocketAddr>,
    object_id: u64,
    scheme: SchemeKind,
    client: ClientOptions,
    deadline: Instant,
    stripe: StripeCounters,
    receiver: Arc<SharedReceiver>,
    leases: LeaseTable,
    /// A replica is alive until its handshake or *original* stream fails.
    alive: Vec<bool>,
    stream_failures: usize,
    last_error: Option<ServeError>,
    /// Running merge of every terminated stream's latency distribution.
    latency: LogHistogramSnapshot,
    events: mpsc::Sender<StreamEvent>,
    outstanding_streams: usize,
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
    let client = options.client;

    // Step 1: every handshake, in parallel, every one waited for.
    let opened: Vec<Result<(ReplicaConn, ObjectManifest), ServeError>> = thread::scope(|scope| {
        let opens: Vec<_> = addrs
            .iter()
            .map(|&addr| scope.spawn(move || ReplicaConn::open(addr, object_id, scheme, &client)))
            .collect();
        opens.into_iter().map(|open| open.join().expect("a handshake thread panicked")).collect()
    });

    // Step 2: one vote, then the lease table over every replica.
    let declared: Vec<Option<ObjectManifest>> =
        opened.iter().map(|outcome| outcome.as_ref().ok().map(|(_, manifest)| *manifest)).collect();
    let Some(manifest) = vote(&declared) else {
        // No replica handed over a manifest: every handshake failed.
        return Err(opened.into_iter().rev().find_map(Result::err).expect("addrs is not empty"));
    };
    let (events, reports) = mpsc::channel();
    let mut coordinator = Coordinator {
        addrs: addrs.to_vec(),
        object_id,
        scheme,
        client,
        deadline: started + client.timeout,
        stripe: StripeCounters::with_replicas(addrs.len()),
        receiver: Arc::new(SharedReceiver::new(manifest)),
        leases: LeaseTable::partition(manifest.generation_count(), addrs.len()),
        alive: declared.iter().map(|declared| *declared == Some(manifest)).collect(),
        stream_failures: 0,
        last_error: None,
        latency: LogHistogramSnapshot::empty(),
        events,
        outstanding_streams: 0,
        tracer,
    };
    let mut conns = Vec::with_capacity(addrs.len());
    for (replica, outcome) in opened.into_iter().enumerate() {
        let error = match outcome {
            Ok((conn, declared)) if declared == manifest => {
                conns.push((replica, conn));
                continue;
            }
            Ok(_) => ServeError::Corrupt("replicas disagree on the object manifest"),
            Err(error) => error,
        };
        coordinator.fail(replica, error, true);
        let orphaned = coordinator.leases.leased_to(replica);
        // The vote's winner is alive, so the leases always have somewhere
        // to go; dead-at-open replicas never owned a stream, so this is
        // not a failover in the budget sense.
        let _ = coordinator.reassign(&orphaned, replica);
    }

    // Step 3: one stream per surviving replica, over its open session.
    for (replica, conn) in conns {
        let lease = coordinator.leases.leased_to(replica);
        coordinator.spawn(replica, Some(conn), lease, false);
    }
    // Stream reports, until the object completes (and the grace for the
    // streams still running passes) or nothing can still deliver it.
    let mut grace_ends = None;
    while coordinator.outstanding_streams > 0 {
        if grace_ends.is_none() && coordinator.receiver.is_complete() {
            grace_ends = Some(Instant::now() + REPORT_GRACE);
        }
        let until = grace_ends.unwrap_or(coordinator.deadline);
        let now = Instant::now();
        if now >= until {
            if grace_ends.is_some() {
                break;
            }
            return Err(ServeError::TimedOut);
        }
        // Short waits: the receiver can complete while every stream is
        // still mid-drain, and completion must be noticed promptly, not
        // on the next stream event.
        if let Ok(event) = reports.recv_timeout((until - now).min(Duration::from_millis(10))) {
            coordinator.handle(event)?;
        }
    }

    let Coordinator { receiver, stripe, latency, last_error, .. } = coordinator;
    if !receiver.is_complete() {
        return Err(ServeError::AllReplicasFailed {
            replicas: addrs.len(),
            cause: last_error.map(Box::new),
        });
    }
    let object =
        receiver.reassemble().ok_or(ServeError::Corrupt("reassembly failed after completion"))?;
    if object.len() as u64 != manifest.object_len {
        return Err(ServeError::Corrupt("reassembled length != manifest"));
    }
    Ok(StripedReport { object, manifest, stripe, elapsed: started.elapsed(), latency })
}

/// The reference manifest: the one most replicas declared, the lowest
/// replica index breaking ties; `None` when no replica answered. A
/// majority is a plurality, so a lone impostor never out-votes the
/// correct replicas.
fn vote(declared: &[Option<ObjectManifest>]) -> Option<ObjectManifest> {
    let votes = |manifest: &ObjectManifest| {
        declared.iter().filter(|other| other.as_ref() == Some(manifest)).count()
    };
    // `min_by_key` keeps the first of equal keys: the lowest index.
    declared.iter().flatten().min_by_key(|manifest| Reverse(votes(manifest))).copied()
}

impl Coordinator {
    /// Applies one stream's report. `Err` aborts the whole fetch.
    fn handle(&mut self, event: StreamEvent) -> Result<(), ServeError> {
        self.outstanding_streams -= 1;
        self.latency.merge(&event.latency);
        self.stripe.replicas[event.replica].merge(&event.counters);
        let Err(error) = event.result else { return Ok(()) };
        if self.receiver.is_complete() {
            // Nothing left to fail over; the report still says so.
            self.stripe.replicas[event.replica].failed = true;
            return Ok(());
        }
        // Completed generations can never migrate, whatever happens next.
        for generation in 0..self.receiver.manifest().generation_count() {
            if self.receiver.generation_complete(generation) {
                self.leases.release(generation);
            }
        }
        // The replica's one original session died: stop routing leases
        // to it. A re-lease session's failure says less.
        self.fail(event.replica, error, !event.failover);
        self.stream_failures += 1;
        if self.stream_failures > MAX_FAILOVERS {
            return Err(self.give_up());
        }
        let Some(moves) = self.reassign(&event.lease, event.replica) else {
            return Err(self.give_up());
        };
        for target in 0..self.addrs.len() {
            let orphans: Vec<u32> =
                moves.iter().filter(|(_, to)| *to == target).map(|(g, _)| *g).collect();
            if !orphans.is_empty() {
                self.spawn(target, None, orphans, true);
            }
        }
        Ok(())
    }

    /// Books a failed handshake or stream; `whole_replica` also declares
    /// the replica dead.
    fn fail(&mut self, replica: usize, error: ServeError, whole_replica: bool) {
        self.stripe.replicas[replica].failed = true;
        self.stripe.failovers += 1;
        self.last_error = Some(error);
        if whole_replica {
            self.alive[replica] = false;
            crate::trace(&self.tracer, || TraceEvent::ReplicaFailover { replica: replica as u64 });
        }
    }

    /// Moves the outstanding generations of `lease` from `from` to the
    /// surviving replicas round-robin and returns the moves, or `None`
    /// when outstanding leases have nowhere to go.
    fn reassign(&mut self, lease: &[u32], from: usize) -> Option<Vec<(u32, usize)>> {
        // Prefer other live replicas; fall back on the stream's own
        // replica when it is still alive (a failover stream died but the
        // replica itself is healthy) and nobody else is left.
        let mut candidates: Vec<usize> =
            (0..self.addrs.len()).filter(|&r| self.alive[r] && r != from).collect();
        if candidates.is_empty() && self.alive[from] {
            candidates.push(from);
        }
        let outstanding: Vec<u32> =
            lease.iter().copied().filter(|&g| self.leases.owner(g).is_some()).collect();
        if outstanding.is_empty() {
            return Some(Vec::new()); // everything in the lease already completed
        }
        let moves = self.leases.reassign_set(&outstanding, &candidates);
        if moves.is_empty() {
            return None;
        }
        for &(generation, to) in &moves {
            let (from, to) = (from as u64, to as u64);
            crate::trace(&self.tracer, || TraceEvent::LeaseReassigned { generation, from, to });
        }
        self.stripe.generations_releases += moves.len() as u64;
        Some(moves)
    }

    /// Starts one stream thread: over `conn` when the replica's session
    /// is already open, else over a fresh session (whose manifest
    /// `fetch_generations` checks against the receiver's). It fetches
    /// `lease` with what is left of the fetch's deadline and reports one
    /// [`StreamEvent`].
    fn spawn(
        &mut self,
        replica: usize,
        conn: Option<ReplicaConn>,
        lease: Vec<u32>,
        failover: bool,
    ) {
        let (addr, object_id, scheme) = (self.addrs[replica], self.object_id, self.scheme);
        let (receiver, events) = (Arc::clone(&self.receiver), self.events.clone());
        let (client, deadline) = (self.client, self.deadline);
        self.outstanding_streams += 1;
        thread::spawn(move || {
            let options = ClientOptions {
                timeout: deadline.saturating_duration_since(Instant::now()),
                ..client
            };
            let conn = match conn {
                Some(conn) => Ok(conn),
                None => ReplicaConn::open(addr, object_id, scheme, &options).map(|(conn, _)| conn),
            };
            let (result, counters, latency) = match conn {
                Ok(mut conn) => {
                    let result = conn.fetch_generations(&lease, &receiver, &options).map(drop);
                    (result, conn.replica_counters(), conn.latency_snapshot())
                }
                Err(error) => {
                    (Err(error), ReplicaCounters::default(), LogHistogramSnapshot::empty())
                }
            };
            // A send failure means the coordinator already returned;
            // nothing left to report to.
            let _ =
                events.send(StreamEvent { replica, lease, failover, result, counters, latency });
        });
    }

    fn give_up(&mut self) -> ServeError {
        ServeError::AllReplicasFailed {
            replicas: self.addrs.len(),
            cause: self.last_error.take().map(Box::new),
        }
    }
}

#[cfg(test)]
mod tests {
    use ltnc_scheme::SchemeParams;

    use super::*;

    fn manifest(object_len: u64) -> Option<ObjectManifest> {
        Some(ObjectManifest { object_len, params: SchemeParams::new(SchemeKind::Rlnc, 8, 32) })
    }

    #[test]
    fn a_majority_wins_the_vote() {
        assert_eq!(vote(&[manifest(2), manifest(1), manifest(1)]), manifest(1));
    }

    #[test]
    fn a_plurality_wins_the_vote() {
        let declared = [manifest(1), None, manifest(2), manifest(3), manifest(2), None];
        assert_eq!(vote(&declared), manifest(2));
    }

    #[test]
    fn a_tie_goes_to_the_lowest_replica_index() {
        assert_eq!(vote(&[None, manifest(2), manifest(1)]), manifest(2));
        assert_eq!(vote(&[manifest(1), manifest(2)]), manifest(1));
    }

    #[test]
    fn nobody_answering_elects_nothing() {
        assert_eq!(vote(&[None, None, None]), None);
        assert_eq!(vote(&[]), None);
    }

    #[test]
    fn a_lone_impostor_at_index_zero_loses_to_two_agreeing_replicas() {
        assert_eq!(vote(&[manifest(9), manifest(1), manifest(1)]), manifest(1));
    }
}
