//! The TCP content server: thread-pooled accept loop, per-connection
//! session state machines, graceful shutdown.
//!
//! Concurrency model: blocking sockets with short read timeouts behind
//! small state machines, no runtime (the UDP side, every node of an
//! `ltnc_net` swarm, runs on the `ltnc-reactor` readiness loop instead;
//! porting this server onto it is ROADMAP item K). One accept thread
//! hands connections to a fixed pool of worker threads through a
//! bounded queue — a full queue *refuses* the connection instead of
//! buffering without bound.
//!
//! A session speaks the envelope protocol over the stream binding:
//!
//! ```text
//! client                                server
//!   REQUEST (object id, scheme)  ──▶
//!        ◀──  MANIFEST (len, k, m)          — or REJECT
//!        ◀──  DATA-HEADER (offer)           — warm-cache symbol
//!   FEEDBACK-ACCEPT / ABORT      ──▶
//!        ◀──  DATA-PAYLOAD                  — accepted offers only
//!   COMPLETE (generation)        ──▶        — prunes that generation
//!   COMPLETE (object)            ──▶        — ends the session
//! ```
//!
//! Two things keep the header-first handshake from serializing on round
//! trips. Offers are pipelined: up to
//! [`ServeOptions::per_session_inflight`] of them await feedback at
//! once, and the default window covers a loopback round trip's worth of
//! symbols. And frames move a batch per wake-up, not one per syscall:
//! every frame a session sends is encoded into the connection's outbound
//! buffer, which leaves in one socket write exactly when the session is
//! about to block in `read` (and before it closes) — so one read of N
//! `FEEDBACK`s is answered by one write of the N payloads and the N
//! offers that refill the window.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use ltnc_gf2::EncodedPacket;
use ltnc_metrics::{AtomicServeCounters, LogHistogram, ServeCounters};
use ltnc_net::envelope::{
    self, EnvelopeHeader, Message, MessageKind, MessageView, TraceContext, GENERATION_OBJECT,
};
use ltnc_net::stream::FrameReassembler;
use ltnc_scheme::SchemeParams;
use ltnc_session::generation::ObjectManifest;
use ltnc_telemetry::{
    samples, HistogramSample, MetricsRegistry, ScrapeOptions, ScrapeServer, TraceEvent, TraceSink,
    Tracer,
};

use crate::store::ObjectStore;
use crate::{ServeError, ServeOptions};

/// What every worker records: the session-level [`ServeCounters`] as
/// atomic cells (cache counters live in the store and are filled into
/// snapshots) plus the session-duration histogram.
#[derive(Default)]
struct ServeStats {
    counters: AtomicServeCounters,
    /// Wall-clock duration of each finished session in microseconds
    /// (from accepted connection to close, whatever the outcome) —
    /// served live as a `session_micros` histogram on the scrape
    /// endpoint.
    session_micros: LogHistogram,
}

/// Handle to a running edge-cache server.
pub struct Server {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    store: Arc<ObjectStore>,
    stats: Arc<ServeStats>,
    scrape: Option<ScrapeServer>,
}

impl Server {
    /// Binds a TCP listener on `bind` (port 0 for ephemeral) and spawns
    /// the accept loop plus `options.workers` session workers. Objects
    /// can be [`Server::register`]ed before or after spawning.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidOption`] for out-of-bounds options,
    /// [`ServeError::Io`] for socket failures.
    pub fn spawn(bind: SocketAddr, options: ServeOptions) -> Result<Server, ServeError> {
        Server::spawn_traced(bind, options, None)
    }

    /// Like [`Server::spawn`], but additionally emits structured trace
    /// events (session lifecycle, store hits/misses/evictions, connection
    /// open/close) into `trace` when one is given.
    ///
    /// ```no_run
    /// use std::sync::Arc;
    /// use ltnc_serve::{Server, ServeOptions};
    /// use ltnc_telemetry::RingSink;
    ///
    /// let sink = Arc::new(RingSink::new(4096));
    /// let options = ServeOptions {
    ///     metrics_bind: Some("127.0.0.1:0".parse().unwrap()),
    ///     ..ServeOptions::default()
    /// };
    /// let server = Server::spawn_traced(
    ///     "127.0.0.1:0".parse().unwrap(),
    ///     options,
    ///     Some(sink.clone()),
    /// ).unwrap();
    /// println!("scrape at http://{}/metrics", server.metrics_addr().unwrap());
    /// let _events = sink.events();
    /// let _ = server.shutdown();
    /// ```
    ///
    /// # Errors
    ///
    /// Same as [`Server::spawn`]; a metrics bind failure is
    /// [`ServeError::Io`].
    pub fn spawn_traced(
        bind: SocketAddr,
        options: ServeOptions,
        trace: Option<Arc<dyn TraceSink>>,
    ) -> Result<Server, ServeError> {
        options.validate()?;
        let tracer = Tracer::from_option(trace);
        let store = Arc::new(ObjectStore::with_salt_traced(
            options.warm_cache_capacity,
            options.replica_salt,
            tracer.clone(),
        )?);
        let listener = TcpListener::bind(bind)?;
        let local_addr = listener.local_addr()?;

        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServeStats::default());
        let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(options.accept_backlog);
        let conn_rx = Arc::new(Mutex::new(conn_rx));

        let workers = (0..options.workers)
            .map(|_| {
                let conn_rx = Arc::clone(&conn_rx);
                let store = Arc::clone(&store);
                let stats = Arc::clone(&stats);
                let stop = Arc::clone(&stop);
                let tracer = tracer.clone();
                thread::spawn(move || {
                    worker_loop(&conn_rx, &store, &stats, &stop, options, &tracer)
                })
            })
            .collect();

        let accept_thread = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            thread::spawn(move || accept_loop(&listener, &conn_tx, &stats, &stop))
        };

        let scrape = match options.metrics_bind {
            Some(addr) => {
                let registry = Arc::new(MetricsRegistry::new());
                let server_label = [("server", local_addr.to_string())];
                let hist_stats = Arc::clone(&stats);
                let store = Arc::clone(&store);
                let stats = Arc::clone(&stats);
                registry
                    .register("serve", &server_label, move || samples(&snapshot(&store, &stats)));
                registry.register_histograms("serve", &server_label, move || {
                    let snapshot = hist_stats.session_micros.snapshot();
                    if snapshot.is_empty() {
                        Vec::new()
                    } else {
                        vec![HistogramSample::plain("session_micros", snapshot)]
                    }
                });
                Some(ScrapeServer::spawn(addr, registry, ScrapeOptions::default())?)
            }
            None => None,
        };

        Ok(Server { local_addr, stop, accept_thread, workers, store, stats, scrape })
    }

    /// The address clients connect to.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The bound address of the telemetry scrape endpoint, when
    /// [`ServeOptions::metrics_bind`] requested one.
    #[must_use]
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.scrape.as_ref().map(ScrapeServer::local_addr)
    }

    /// Registers an object for serving under `id`. Live: sessions opened
    /// after this call can fetch it immediately.
    ///
    /// # Errors
    ///
    /// See [`ObjectStore::register`].
    pub fn register(
        &self,
        id: u64,
        object: &[u8],
        params: SchemeParams,
    ) -> Result<ObjectManifest, ServeError> {
        self.store.register(id, object, params)
    }

    /// Snapshot of the server's counters (sessions, wire bytes, feedback
    /// outcomes, warm-cache hits/misses).
    #[must_use]
    pub fn counters(&self) -> ServeCounters {
        snapshot(&self.store, &self.stats)
    }

    /// Graceful shutdown: stops accepting, lets workers notice within one
    /// read timeout, joins every thread and returns the final counters.
    ///
    /// # Panics
    ///
    /// Panics if an internal thread panicked.
    #[must_use]
    pub fn shutdown(self) -> ServeCounters {
        let Server { local_addr, stop, accept_thread, workers, store, stats, scrape } = self;
        if let Some(scrape) = scrape {
            scrape.shutdown();
        }
        stop.store(true, Ordering::Release);
        // The accept thread blocks in `accept()`; a throw-away connection
        // to our own listener wakes it to see the flag. Retried until the
        // thread is gone, so one refused or timed-out connect (a full
        // listen backlog) cannot leave the join below hanging.
        let wake = wake_addr(local_addr);
        while !accept_thread.is_finished() {
            let _ = TcpStream::connect_timeout(&wake, Duration::from_millis(100));
            thread::sleep(Duration::from_millis(1));
        }
        // Joining the accept thread drops the connection sender, which
        // unblocks any worker idling in recv_timeout.
        accept_thread.join().expect("accept thread panicked");
        for worker in workers {
            worker.join().expect("worker thread panicked");
        }
        snapshot(&store, &stats)
    }
}

fn snapshot(store: &ObjectStore, stats: &ServeStats) -> ServeCounters {
    let cache = store.cache_stats();
    ServeCounters {
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        cache_evictions: cache.evictions,
        ..stats.counters.snapshot()
    }
}

/// Where [`Server::shutdown`] connects to wake the accept thread: the
/// listener's own address, or loopback on its port when it is bound to
/// the unspecified address (which cannot be connected to portably).
fn wake_addr(local_addr: SocketAddr) -> SocketAddr {
    let ip = match local_addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, local_addr.port())
}

fn accept_loop(
    listener: &TcpListener,
    conn_tx: &SyncSender<TcpStream>,
    stats: &ServeStats,
    stop: &AtomicBool,
) {
    loop {
        // Blocking: a new connection is handed to a worker the moment it
        // arrives, not at the next poll of a sleeping loop.
        let accepted = listener.accept();
        if stop.load(Ordering::Acquire) {
            // Shutdown's wake-up connection, or a client that raced it:
            // dropping closes either.
            return;
        }
        match accepted {
            Ok((stream, _)) => match conn_tx.try_send(stream) {
                Ok(()) => {}
                Err(TrySendError::Full(refused)) => {
                    // Bounded handoff: at capacity the connection is
                    // refused outright (dropping closes it) and counted,
                    // instead of queueing without bound.
                    stats.counters.sessions_rejected.fetch_add(1, Ordering::Relaxed);
                    drop(refused);
                }
                Err(TrySendError::Disconnected(_)) => return,
            },
            Err(_) => {
                // Transient accept failures (per-connection resets) must
                // not kill the listener.
            }
        }
    }
}

fn worker_loop(
    conn_rx: &Mutex<Receiver<TcpStream>>,
    store: &Arc<ObjectStore>,
    stats: &ServeStats,
    stop: &AtomicBool,
    options: ServeOptions,
    tracer: &Tracer,
) {
    loop {
        // Hold the lock only for the dequeue; recv_timeout returns
        // immediately when a connection is queued, and the timeout bounds
        // how long an idle worker keeps the other idles waiting.
        let next = {
            let rx = conn_rx.lock().expect("connection queue lock poisoned");
            rx.recv_timeout(Duration::from_millis(50))
        };
        match next {
            Ok(stream) => {
                // A broken individual connection must not take the worker
                // down; the error already ended that session.
                let _ = serve_connection(stream, store, stats, stop, options, tracer);
            }
            Err(RecvTimeoutError::Timeout) => {
                if stop.load(Ordering::Acquire) {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Server side of one client session.
struct Session {
    object_id: u64,
    manifest: ObjectManifest,
    /// Warm-cache cursor per generation (next sequence number to offer).
    cursors: Vec<u64>,
    /// Generations the client declared complete.
    done: Vec<bool>,
    done_count: usize,
    /// Round-robin pointer over generations for offer scheduling.
    next_gen: usize,
    /// Offers awaiting feedback: transfer id → (generation, offer-time
    /// trace context, packet shared with the warm ring). The payload
    /// echoes the offer's trace, so the client-measured latency spans the
    /// whole offer→delivery round.
    pending: HashMap<u64, (u32, TraceContext, Arc<EncodedPacket>)>,
    next_transfer: u64,
}

impl Session {
    fn new(object_id: u64, manifest: ObjectManifest, options: &ServeOptions) -> Session {
        let generations = manifest.generation_count() as usize;
        // Replica-salted initial cursors: sessions on a salted replica
        // start partway into each warm ring instead of at its oldest
        // symbol, so two replicas whose rings are both warm serve
        // different symbol prefixes to a striped client (the store clamps
        // and self-heals any offset that outruns the ring).
        let cursors = (0..generations)
            .map(|gen_index| {
                if options.replica_salt == 0 {
                    0
                } else {
                    splitmix64(options.replica_salt ^ (gen_index as u64))
                        % options.warm_cache_capacity as u64
                }
            })
            .collect();
        Session {
            object_id,
            manifest,
            cursors,
            done: vec![false; generations],
            done_count: 0,
            next_gen: 0,
            pending: HashMap::new(),
            next_transfer: 1,
        }
    }

    fn header(&self, kind: MessageKind, generation: u32) -> EnvelopeHeader {
        EnvelopeHeader {
            kind,
            scheme: self.manifest.params.kind,
            session: self.object_id,
            generation,
        }
    }

    fn mark_done(&mut self, generation: u32) {
        if let Some(done) = self.done.get_mut(generation as usize) {
            if !*done {
                *done = true;
                self.done_count += 1;
            }
        }
    }
}

/// SplitMix64 finalizer: spreads a replica salt into per-generation
/// cursor offsets with no correlation between adjacent generations.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Per-connection wire plumbing: the socket, the outbound batch and the
/// byte counters, so session logic queues frames without repeating the
/// accounting. (The reassembler lives beside it in [`run_session`]: a
/// decoded frame borrows it while the session writes here.)
struct Connection<'a> {
    stream: TcpStream,
    /// Frames encoded since the last flush, back to back. Session logic
    /// only ever appends here; [`Connection::flush`] is the one place the
    /// socket is written.
    outbound: Vec<u8>,
    stats: &'a ServeStats,
    tracer: &'a Tracer,
}

impl Connection<'_> {
    fn send(&mut self, header: &EnvelopeHeader, message: &Message) {
        envelope::encode_into(&mut self.outbound, header, message);
    }

    /// Writes the queued frames in one socket write. Called exactly when
    /// the session is about to block in `read` and before it closes:
    /// unflushed frames are never held across a blocking read, or the two
    /// ends would each wait for bytes the other has not sent.
    fn flush(&mut self) -> Result<(), ServeError> {
        if self.outbound.is_empty() {
            return Ok(());
        }
        self.stream.write_all(&self.outbound)?;
        self.stats.counters.bytes_out.fetch_add(self.outbound.len() as u64, Ordering::Relaxed);
        self.outbound.clear();
        Ok(())
    }
}

/// How long a session keeps draining after shutdown is requested, so a
/// final `COMPLETE` already in flight still lands in the counters while a
/// hung client cannot stall shutdown.
const SHUTDOWN_GRACE: Duration = Duration::from_millis(200);

fn serve_connection(
    stream: TcpStream,
    store: &Arc<ObjectStore>,
    stats: &ServeStats,
    stop: &AtomicBool,
    options: ServeOptions,
    tracer: &Tracer,
) -> Result<(), ServeError> {
    let peer = stream.peer_addr().ok();
    tracer.emit(|| TraceEvent::ConnectionOpened { peer });
    let started = std::time::Instant::now();
    let result = run_session(stream, store, stats, stop, options, tracer);
    let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    stats.session_micros.record(micros);
    tracer.emit(|| TraceEvent::ConnectionClosed { peer });
    result
}

/// The session loop of one accepted connection (split out so
/// [`serve_connection`] can bracket every exit path with open/close
/// trace events).
fn run_session(
    stream: TcpStream,
    store: &Arc<ObjectStore>,
    stats: &ServeStats,
    stop: &AtomicBool,
    options: ServeOptions,
    tracer: &Tracer,
) -> Result<(), ServeError> {
    // Batches are already whole when they are written, so Nagle has
    // nothing to coalesce; left on, its wait for the delayed ACK would
    // stall a handshake that alternates direction.
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(options.read_timeout))?;
    // A client that stops reading must not pin the worker in `write`
    // any longer than one that stops writing pins it in `read`.
    stream.set_write_timeout(Some(options.idle_timeout))?;
    let mut conn = Connection { stream, outbound: Vec::new(), stats, tracer };
    let mut reassembler = FrameReassembler::new();
    let mut session: Option<Session> = None;
    // One read takes a whole window's worth of feedback.
    let mut buf =
        vec![0u8; (options.per_session_inflight * envelope::FEEDBACK_FRAME_BYTES).max(16 * 1024)];
    let mut stop_seen: Option<std::time::Instant> = None;
    let mut last_inbound = std::time::Instant::now();

    loop {
        if stop.load(Ordering::Acquire) {
            let seen = stop_seen.get_or_insert_with(std::time::Instant::now);
            if seen.elapsed() > SHUTDOWN_GRACE {
                return Ok(());
            }
        }
        conn.flush()?;
        match conn.stream.read(&mut buf) {
            Ok(0) => return Err(ServeError::Disconnected),
            Ok(n) => {
                stats.counters.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
                reassembler.extend(&buf[..n]);
                last_inbound = std::time::Instant::now();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // A silent client must not pin this worker forever: with
                // `workers` such sockets the whole pool would starve.
                if last_inbound.elapsed() > options.idle_timeout {
                    return Err(ServeError::TimedOut);
                }
            }
            Err(e) => return Err(ServeError::Io(e)),
        }

        while let Some(frame) = reassembler.next_frame_view()? {
            if handle_frame(
                &frame.header,
                frame.message,
                &mut session,
                &mut conn,
                store,
                stats,
                &options,
            )? {
                // Session finished cleanly: the REJECT, or the payloads
                // accepted ahead of the final COMPLETE, leave before the
                // close.
                return conn.flush();
            }
        }

        if let Some(session) = session.as_mut() {
            pump_offers(session, &mut conn, store, stats, options.per_session_inflight);
        }
    }
}

/// Applies one inbound frame to the session. Returns `Ok(true)` when the
/// session is over and the connection should close.
fn handle_frame(
    header: &EnvelopeHeader,
    message: MessageView<'_>,
    session: &mut Option<Session>,
    conn: &mut Connection<'_>,
    store: &Arc<ObjectStore>,
    stats: &ServeStats,
    options: &ServeOptions,
) -> Result<bool, ServeError> {
    match message {
        MessageView::Request => {
            if session.is_some() {
                return Err(ServeError::UnexpectedMessage("second REQUEST on one session"));
            }
            let object_id = header.session;
            let manifest =
                store.manifest(object_id).filter(|manifest| manifest.params.kind == header.scheme);
            let Some(manifest) = manifest else {
                stats.counters.sessions_rejected.fetch_add(1, Ordering::Relaxed);
                conn.tracer.emit(|| TraceEvent::SessionRejected { object: object_id });
                let reject = EnvelopeHeader {
                    kind: MessageKind::Reject,
                    scheme: header.scheme,
                    session: object_id,
                    generation: GENERATION_OBJECT,
                };
                conn.send(&reject, &Message::Reject);
                return Ok(true);
            };
            stats.counters.sessions_accepted.fetch_add(1, Ordering::Relaxed);
            conn.tracer.emit(|| TraceEvent::SessionAccepted { object: object_id });
            let new = Session::new(object_id, manifest, options);
            conn.send(
                &new.header(MessageKind::Manifest, GENERATION_OBJECT),
                &Message::Manifest {
                    object_len: manifest.object_len,
                    code_length: manifest.params.code_length as u32,
                    payload_size: manifest.params.payload_size as u32,
                },
            );
            *session = Some(new);
            Ok(false)
        }
        MessageView::Feedback { transfer, accept } => {
            let Some(session) = session.as_mut() else {
                return Err(ServeError::UnexpectedMessage("FEEDBACK before REQUEST"));
            };
            let Some((generation, trace, packet)) = session.pending.remove(&transfer) else {
                return Ok(false); // feedback for an offer we no longer track
            };
            if accept {
                stats.counters.transfers_delivered.fetch_add(1, Ordering::Relaxed);
                let header = session.header(MessageKind::DataPayload, generation);
                envelope::encode_payload_into(
                    &mut conn.outbound,
                    &header,
                    transfer,
                    &trace,
                    &packet,
                );
            } else {
                stats.counters.transfers_aborted.fetch_add(1, Ordering::Relaxed);
            }
            Ok(false)
        }
        MessageView::Complete => {
            let Some(session) = session.as_mut() else {
                return Err(ServeError::UnexpectedMessage("COMPLETE before REQUEST"));
            };
            if header.generation == GENERATION_OBJECT {
                stats.counters.sessions_completed.fetch_add(1, Ordering::Relaxed);
                let object = session.object_id;
                conn.tracer.emit(|| TraceEvent::SessionCompleted { object });
                return Ok(true);
            }
            session.mark_done(header.generation);
            Ok(false)
        }
        // A server never receives the server-side kinds or data frames.
        MessageView::Manifest { .. } | MessageView::Reject => {
            Err(ServeError::UnexpectedMessage("server-side kind from a client"))
        }
        MessageView::DataHeader { .. } | MessageView::DataPayload { .. } => {
            Err(ServeError::UnexpectedMessage("data frame from a client"))
        }
    }
}

/// Keeps the pipeline of header-first offers full, round-robin over the
/// generations the client still needs.
fn pump_offers(
    session: &mut Session,
    conn: &mut Connection<'_>,
    store: &Arc<ObjectStore>,
    stats: &ServeStats,
    inflight_budget: usize,
) {
    let generations = session.cursors.len();
    while session.pending.len() < inflight_budget && session.done_count < generations {
        // Next incomplete generation, round robin.
        let mut picked = None;
        for step in 0..generations {
            let gen_index = (session.next_gen + step) % generations;
            if !session.done[gen_index] {
                picked = Some(gen_index);
                session.next_gen = (gen_index + 1) % generations;
                break;
            }
        }
        let Some(gen_index) = picked else { return };
        let Some((seq, packet)) =
            store.symbol(session.object_id, gen_index as u32, session.cursors[gen_index])
        else {
            // The encoder refused (cannot happen for a source node, but a
            // spinning offer loop must not depend on that).
            session.mark_done(gen_index as u32);
            continue;
        };
        session.cursors[gen_index] = seq + 1;
        let transfer = session.next_transfer;
        session.next_transfer += 1;
        stats.counters.transfers_offered.fetch_add(1, Ordering::Relaxed);
        let header = session.header(MessageKind::DataHeader, gen_index as u32);
        // A serving replica holds the object itself: every offer starts a
        // fresh lineage, stamped at offer time.
        let trace = TraceContext::origin_now(TraceContext::now_micros());
        envelope::encode_offer_into(
            &mut conn.outbound,
            &header,
            transfer,
            &trace,
            packet.vector(),
            packet.payload_size(),
        );
        session.pending.insert(transfer, (gen_index as u32, trace, packet));
    }
}
