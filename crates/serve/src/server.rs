//! The TCP content server: each connection a sans-io session, driven on
//! `ltnc-reactor` like every UDP gossip node.
//!
//! A server is [`ServeOptions::workers`] reactor workers, each running
//! one shard: its own descriptor is its copy of the listener, and every
//! connection it accepts is a descriptor it watches. Nothing blocks and
//! nothing polls on a timeout: a shard accepts, reads and writes on
//! readiness edges, a write cut short by a full send buffer resumes on
//! the write edge, and an idle session is reaped by a reactor timer.
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
//! symbols. And frames move a batch per wake-up: the session takes the
//! inbound bytes plus `now` and appends its frames to the connection's
//! outbound buffer, and a wake drains every read through it before one
//! socket write — so one read of N `FEEDBACK`s is answered by one write
//! of the N payloads and the N offers that refill the window.
//!
//! A session's sender bookkeeping is one [`OfferLedger`], as a gossip
//! node keeps per neighbour; the session adds the window and the round
//! robin, and no TTL: a stream loses nothing.

use std::collections::HashMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ltnc_gf2::EncodedPacket;
use ltnc_metrics::{AtomicServeCounters, LogHistogram, ServeCounters};
use ltnc_net::envelope::{
    self, EnvelopeHeader, Message, MessageKind, MessageView, TraceContext, GENERATION_OBJECT,
};
use ltnc_net::ledger::OfferLedger;
use ltnc_net::stream::FrameReassembler;
use ltnc_reactor::{Cx, Driven, Reactor, TimerId};
use ltnc_scheme::SchemeParams;
use ltnc_session::generation::ObjectManifest;
use ltnc_telemetry::{
    samples, HistogramSample, MetricsRegistry, ScrapeOptions, ScrapeServer, TraceEvent, TraceSink,
    Tracer,
};

use crate::store::ObjectStore;
use crate::{ServeError, ServeOptions};

/// What every shard records: the session-level [`ServeCounters`] as
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
    /// Connections every shard holds now, against
    /// [`ServeOptions::max_sessions`].
    open: AtomicUsize,
}

/// Handle to a running edge-cache server.
pub struct Server {
    local_addr: SocketAddr,
    reactor: Reactor<ServeShard>,
    ctx: Context,
    scrape: Option<ScrapeServer>,
}

impl Server {
    /// Binds a TCP listener on `bind` (port 0 for ephemeral) and starts
    /// `options.workers` reactor workers, each accepting and serving
    /// connections: a connection goes to the first worker that accepts
    /// it. Objects can be [`Server::register`]ed before or after spawning.
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
        let (capacity, salt) = (options.warm_cache_capacity, options.replica_salt);
        let store = Arc::new(ObjectStore::with_salt_traced(capacity, salt, tracer.clone())?);
        let listener = TcpListener::bind(bind)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let stats = Arc::new(ServeStats::default());
        let ctx = Context { store, stats, options, tracer };
        // Every shard watches its own copy of the listener: a connection
        // wakes them all and goes to the first to accept it.
        let shards = (0..options.workers)
            .map(|_| {
                let listener = listener.try_clone()?;
                let (conns, ctx) = (HashMap::new(), ctx.clone());
                Ok(ServeShard { listener, conns, next_key: 0, retry_armed: false, ctx })
            })
            .collect::<io::Result<Vec<_>>>()?;
        let reactor = Reactor::start(shards, options.workers)?;

        let scrape = match options.metrics_bind {
            Some(addr) => {
                let registry = Arc::new(MetricsRegistry::new());
                let server_label = [("server", local_addr.to_string())];
                let (hist_stats, counted) = (Arc::clone(&ctx.stats), ctx.clone());
                registry.register("serve", &server_label, move || samples(&snapshot(&counted)));
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

        Ok(Server { local_addr, reactor, ctx, scrape })
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
        self.ctx.store.register(id, object, params)
    }

    /// Snapshot of the server's counters (sessions, wire bytes, feedback
    /// outcomes, warm-cache hits/misses).
    #[must_use]
    pub fn counters(&self) -> ServeCounters {
        snapshot(&self.ctx)
    }

    /// Graceful shutdown: stops the reactor — each shard gives every
    /// session still open one last read, so a final `COMPLETE` already
    /// sent lands in the counters, and closes it — and returns the final
    /// counters.
    ///
    /// # Panics
    ///
    /// Re-raises a reactor worker's panic.
    #[must_use]
    pub fn shutdown(self) -> ServeCounters {
        if let Some(scrape) = self.scrape {
            scrape.shutdown();
        }
        let _ = self.reactor.shutdown();
        snapshot(&self.ctx)
    }
}

fn snapshot(ctx: &Context) -> ServeCounters {
    let cache = ctx.store.cache_stats();
    ServeCounters {
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        cache_evictions: cache.evictions,
        ..ctx.stats.counters.snapshot()
    }
}

/// Server side of one client session.
struct Session {
    object_id: u64,
    manifest: ObjectManifest,
    /// Warm-cache cursor per generation (next sequence number to offer).
    cursors: Vec<u64>,
    /// Round-robin pointer over generations for offer scheduling.
    next_gen: usize,
    /// Offers awaiting feedback, each packet shared with the warm ring,
    /// and the generations the client declared complete.
    offers: OfferLedger<Arc<EncodedPacket>>,
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
            next_gen: 0,
            offers: OfferLedger::new(manifest.generation_count()),
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
}

/// SplitMix64 finalizer: spreads a replica salt into per-generation
/// cursor offsets with no correlation between adjacent generations.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// What every session of a server reads: the store, the shared
/// counters, the options and the tracer.
#[derive(Clone)]
struct Context {
    store: Arc<ObjectStore>,
    stats: Arc<ServeStats>,
    options: ServeOptions,
    tracer: Tracer,
}

/// The retried accept's timer tag, above every connection's key.
const ACCEPT_RETRY: u64 = u64::MAX;

/// One reactor worker's part of a server: its copy of the listener (the
/// shard's own descriptor) and the connections it accepted (descriptors
/// it watches). A connection's key names it to the reactor, and is the
/// tag of its idle timer too.
struct ServeShard {
    listener: TcpListener,
    conns: HashMap<u32, Connection>,
    /// The next connection's key. Keys wrap only after `u32::MAX`
    /// connections, long after any one of them has been reaped.
    next_key: u32,
    /// An accept failed and its retry timer is pending.
    retry_armed: bool,
    ctx: Context,
}

impl ServeShard {
    /// Accepts every pending connection, refusing the ones past
    /// [`ServeOptions::max_sessions`].
    fn accept(&mut self, cx: &mut Cx) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                // A connection reset while queued ends only itself.
                Err(e) if e.kind() == ErrorKind::ConnectionAborted => continue,
                Err(_) => {
                    // Out of descriptors or buffers: no new edge may come
                    // for the queued backlog, so a timer retries it.
                    if !std::mem::replace(&mut self.retry_armed, true) {
                        cx.arm(Duration::from_millis(10), ACCEPT_RETRY);
                    }
                    return;
                }
            };
            let stats = &self.ctx.stats;
            if stats.open.fetch_add(1, Ordering::Relaxed) >= self.ctx.options.max_sessions {
                // At capacity a connection is closed unanswered (dropping
                // closes it) and counted, instead of held without bound.
                stats.open.fetch_sub(1, Ordering::Relaxed);
                stats.counters.sessions_rejected.fetch_add(1, Ordering::Relaxed);
            } else if self.open(stream, cx).is_err() {
                self.ctx.stats.open.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Starts serving an accepted connection: watched, with its idle
    /// timer armed.
    fn open(&mut self, stream: TcpStream, cx: &mut Cx) -> io::Result<()> {
        // Batches are already whole when they are written, so Nagle has
        // nothing to coalesce; left on, its wait for the delayed ACK would
        // stall a handshake that alternates direction.
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let key = self.next_key;
        self.next_key = (key + 1) % u32::MAX;
        cx.watch(stream.as_raw_fd(), key)?;
        let idle_timer = cx.arm(self.ctx.options.idle_timeout, u64::from(key));
        let peer = stream.peer_addr().ok();
        crate::trace(&self.ctx.tracer, || TraceEvent::ConnectionOpened { peer });
        let now = Instant::now();
        let conn = Connection {
            stream,
            peer,
            opened: now,
            last_inbound: now,
            reassembler: FrameReassembler::new(),
            session: None,
            outbound: Vec::new(),
            finished: false,
            idle_timer,
        };
        self.conns.insert(key, conn);
        Ok(())
    }

    /// Ends connection `key`, whatever the outcome.
    fn close(&mut self, key: u32, cx: &mut Cx) {
        if let Some(conn) = self.conns.remove(&key) {
            cx.unwatch(conn.stream.as_raw_fd());
            cx.cancel(conn.idle_timer);
            conn.close(&self.ctx);
        }
    }
}

impl Driven for ServeShard {
    type Output = ();

    fn fd(&self) -> RawFd {
        self.listener.as_raw_fd()
    }

    fn on_start(&mut self, cx: &mut Cx) {
        self.accept(cx);
    }

    fn on_readable(&mut self, cx: &mut Cx) {
        self.accept(cx);
    }

    fn on_watched(&mut self, key: u32, cx: &mut Cx) {
        let Some(conn) = self.conns.get_mut(&key) else { return };
        // An error ends that connection's session and no other.
        if !conn.wake(cx.scratch(), &self.ctx).unwrap_or(false) {
            self.close(key, cx);
        }
    }

    fn on_timer(&mut self, tag: u64, cx: &mut Cx) {
        if tag == ACCEPT_RETRY {
            self.retry_armed = false;
            self.accept(cx);
            return;
        }
        // Connection `key`'s idle timer: reaped after `idle_timeout`
        // without inbound bytes, or checked again when that would be.
        let Ok(key) = u32::try_from(tag) else { return };
        let Some(conn) = self.conns.get_mut(&key) else { return };
        let (idle, limit) = (conn.last_inbound.elapsed(), self.ctx.options.idle_timeout);
        if idle >= limit {
            self.close(key, cx);
        } else {
            conn.idle_timer = cx.arm(limit - idle, tag);
        }
    }

    fn finish(&mut self) {
        let mut buf = vec![0u8; 64 * 1024];
        for (_, mut conn) in self.conns.drain() {
            // The rest of a cut-short batch is dropped, so that the
            // last read is not held back behind it.
            conn.outbound.clear();
            let _ = conn.wake(&mut buf, &self.ctx);
            conn.close(&self.ctx);
        }
    }
}

/// One accepted connection: the socket, the session it carries, and the
/// frames the session queued for it.
struct Connection {
    stream: TcpStream,
    peer: Option<SocketAddr>,
    opened: Instant,
    /// When inbound bytes last arrived: the idle timer's clock.
    last_inbound: Instant,
    reassembler: FrameReassembler,
    /// `None` until the client's REQUEST.
    session: Option<Session>,
    /// Frames encoded and not yet written, back to back. The session
    /// only ever appends here; [`Connection::flush`] is the one place the
    /// socket is written.
    outbound: Vec<u8>,
    /// The session is over: the connection closes once `outbound` is
    /// written, so a REJECT, or the payloads accepted ahead of the final
    /// COMPLETE, leave before the close.
    finished: bool,
    /// The pending idle timer, cancelled when the connection closes.
    idle_timer: TimerId,
}

impl Connection {
    /// One readiness edge: once the last batch is written, drains the
    /// socket's reads through the session, then writes what it queued.
    /// Returns whether the connection stays open. Nothing is read while a
    /// batch waits for the write edge, so TCP pushes back on a client
    /// that does not read, and its session falls idle.
    fn wake(&mut self, buf: &mut [u8], ctx: &Context) -> Result<bool, ServeError> {
        self.flush(&ctx.stats)?;
        let backlogged = !self.outbound.is_empty();
        while !backlogged && !self.finished {
            let n = match self.stream.read(buf) {
                Ok(0) => return Err(ServeError::Disconnected),
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            };
            ctx.stats.counters.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
            self.last_inbound = Instant::now();
            self.finished = self.handle_bytes(TraceContext::now_micros(), &buf[..n], ctx)?;
        }
        self.flush(&ctx.stats)?;
        Ok(!self.finished || !self.outbound.is_empty())
    }

    /// The sans-io session: `bytes` that arrived at `now` (microseconds
    /// on the clock offers are stamped with) go through the reassembler
    /// and each frame through the session, which appends its answers and
    /// the offers that refill its window to `outbound`. Returns whether
    /// the session is over.
    fn handle_bytes(&mut self, now: u64, bytes: &[u8], ctx: &Context) -> Result<bool, ServeError> {
        self.reassembler.extend(bytes);
        while let Some(frame) = self.reassembler.next_frame_view()? {
            let (session, out) = (&mut self.session, &mut self.outbound);
            if handle_frame(&frame.header, frame.message, session, out, ctx)? {
                return Ok(true);
            }
        }
        if let Some(session) = self.session.as_mut() {
            pump_offers(session, &mut self.outbound, ctx, now);
        }
        Ok(false)
    }

    /// Writes the queued frames: one socket write, unless the send buffer
    /// fills and the rest waits for the write edge.
    fn flush(&mut self, stats: &ServeStats) -> io::Result<()> {
        while !self.outbound.is_empty() {
            match self.stream.write(&self.outbound) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.outbound.drain(..n);
                    stats.counters.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Books the end of the connection; dropping it closes the socket.
    fn close(self, ctx: &Context) {
        let micros = u64::try_from(self.opened.elapsed().as_micros()).unwrap_or(u64::MAX);
        ctx.stats.session_micros.record(micros);
        ctx.stats.open.fetch_sub(1, Ordering::Relaxed);
        let peer = self.peer;
        crate::trace(&ctx.tracer, || TraceEvent::ConnectionClosed { peer });
    }
}

/// Applies one inbound frame to the session. Returns `Ok(true)` when the
/// session is over and the connection should close.
fn handle_frame(
    header: &EnvelopeHeader,
    message: MessageView<'_>,
    session: &mut Option<Session>,
    out: &mut Vec<u8>,
    ctx: &Context,
) -> Result<bool, ServeError> {
    let stats = &ctx.stats;
    match message {
        MessageView::Request => {
            if session.is_some() {
                return Err(ServeError::UnexpectedMessage("second REQUEST on one session"));
            }
            let object_id = header.session;
            let manifest = ctx
                .store
                .manifest(object_id)
                .filter(|manifest| manifest.params.kind == header.scheme);
            let Some(manifest) = manifest else {
                stats.counters.sessions_rejected.fetch_add(1, Ordering::Relaxed);
                crate::trace(&ctx.tracer, || TraceEvent::SessionRejected { object: object_id });
                let reject = EnvelopeHeader {
                    kind: MessageKind::Reject,
                    scheme: header.scheme,
                    session: object_id,
                    generation: GENERATION_OBJECT,
                };
                envelope::encode_into(out, &reject, &Message::Reject);
                return Ok(true);
            };
            stats.counters.sessions_accepted.fetch_add(1, Ordering::Relaxed);
            crate::trace(&ctx.tracer, || TraceEvent::SessionAccepted { object: object_id });
            let new = Session::new(object_id, manifest, &ctx.options);
            envelope::encode_into(
                out,
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
            let Some(offer) = session.offers.take(transfer) else {
                return Ok(false); // a replay, or a transfer never offered
            };
            if accept {
                stats.counters.transfers_delivered.fetch_add(1, Ordering::Relaxed);
                let header = session.header(MessageKind::DataPayload, offer.generation);
                envelope::encode_payload_into(out, &header, transfer, &offer.trace, &offer.packet);
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
                crate::trace(&ctx.tracer, || TraceEvent::SessionCompleted { object });
                return Ok(true);
            }
            session.offers.complete(header.generation);
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
/// generations the client still needs; every offer is stamped `now`.
fn pump_offers(session: &mut Session, out: &mut Vec<u8>, ctx: &Context, now: u64) {
    let generations = session.cursors.len();
    while session.offers.in_flight() < ctx.options.per_session_inflight {
        // Next incomplete generation, round robin; none left, no offer.
        let Some(gen_index) = (0..generations)
            .map(|step| (session.next_gen + step) % generations)
            .find(|&gen_index| !session.offers.is_done(gen_index as u32))
        else {
            return;
        };
        session.next_gen = (gen_index + 1) % generations;
        let Some((seq, packet)) =
            ctx.store.symbol(session.object_id, gen_index as u32, session.cursors[gen_index])
        else {
            // The encoder refused (cannot happen for a source node, but a
            // spinning offer loop must not depend on that): offer the
            // generation no more, as if the client had it.
            session.offers.complete(gen_index as u32);
            continue;
        };
        session.cursors[gen_index] = seq + 1;
        ctx.stats.counters.transfers_offered.fetch_add(1, Ordering::Relaxed);
        let header = session.header(MessageKind::DataHeader, gen_index as u32);
        // A serving replica holds the object itself: every offer starts a
        // fresh lineage.
        session.offers.offer(out, &header, TraceContext::origin_now(now), packet, now);
    }
}
