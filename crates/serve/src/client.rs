//! The client side of a serving session, built around a reusable
//! **per-generation fetch primitive**.
//!
//! A connection to one server is a [`ReplicaConn`]: open it with
//! [`ReplicaConn::open`] (REQUEST → MANIFEST handshake), then pull any
//! *subset* of the object's generations with
//! [`ReplicaConn::fetch_generations`], which merges symbols into a shared
//! [`SharedReceiver`]. The plain [`fetch`] is the degenerate case — one
//! connection leasing every generation into a private receiver — and the
//! striped client ([`crate::striped`]) is N connections leasing disjoint
//! subsets into one shared receiver.
//!
//! The primitive steers the server without any protocol extension: the
//! per-generation `COMPLETE` message that normally prunes a finished
//! generation from the server's offer schedule is simply sent *up front*
//! for every generation outside the lease, so the server spends its whole
//! in-flight budget on the generations this stream is responsible for.
//! Within the lease, the server is told what the shared receiver holds of
//! a generation still being decoded (`ACCEPT-SUMMARY` / `ABORT-SUMMARY`,
//! for schemes that have a summary) and builds its next offers of that
//! generation from it, packets the receiver is sure to want, so an
//! LT-coded generation arrives in about `k` payloads instead of LT's
//! decoding overhead above `k`. The server folds each offer into the copy
//! it holds, and a stream delivers every accepted payload in order, so
//! the copy stays right: the summary goes with a generation's first
//! verdict on the connection and with every abort, and the other accepts
//! go plain.
//!
//! Every stream also keeps a **progress watermark**: the last instant a
//! delivery advanced the merged decoder's rank. A stream whose watermark
//! sits still for [`ClientOptions::stall_timeout`] fails with
//! [`ServeError::ReplicaLagged`] instead of blocking until the global
//! deadline — the signal the striped client uses to re-lease a slow or
//! dead replica's generations to the survivors.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use ltnc_gf2::wire;
use ltnc_metrics::{LogHistogram, LogHistogramSnapshot, ReplicaCounters, WireCounters};
use ltnc_net::envelope::{
    self, EnvelopeHeader, Message, MessageKind, MessageView, TraceContext, GENERATION_OBJECT,
};
use ltnc_net::ledger::{encode_verdict_into, AcceptLedger, MAX_SUMMARY_BYTES};
use ltnc_net::stream::FrameReassembler;
use ltnc_scheme::{SchemeKind, SchemeParams};
use ltnc_session::generation::ObjectManifest;
use ltnc_session::SharedReceiver;

use crate::options::PER_SESSION_INFLIGHT;
use crate::ServeError;

/// Hard cap on the generation count a manifest may imply. The envelope
/// codec caps `k` and `m`, but `object_len` is only bounded here: without
/// this check a hostile server could declare a tiny generation size and a
/// huge object, driving the client to allocate billions of decoder nodes.
const MAX_GENERATIONS: u64 = 1 << 20;

/// TCP connect deadline.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Tuning of one fetch.
#[derive(Debug, Clone, Copy)]
pub struct ClientOptions {
    /// Overall deadline for the whole fetch.
    pub timeout: Duration,
    /// Per-stream progress watermark: a connection that goes this long
    /// without a rank-advancing delivery (or, before the handshake
    /// finishes, without a `MANIFEST`) fails with
    /// [`ServeError::ReplicaLagged`]. Should be well below `timeout` so a
    /// stalled replica is detected while there is still time to fail
    /// over.
    pub stall_timeout: Duration,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions { timeout: Duration::from_secs(30), stall_timeout: Duration::from_secs(10) }
    }
}

/// Outcome of a successful fetch.
#[derive(Debug)]
pub struct FetchReport {
    /// The reassembled object, already length-verified against the
    /// manifest.
    pub object: Vec<u8>,
    /// The manifest the server declared.
    pub manifest: ObjectManifest,
    /// Client-side wire accounting (offers answered, payloads received,
    /// bytes both ways).
    pub wire: WireCounters,
    /// Wall-clock time from connect to reassembly.
    pub elapsed: Duration,
    /// Distribution of per-payload delivery latency (microseconds) on
    /// the client's clock: from its accept of an offer to the arrival of
    /// that transfer's payload.
    pub latency: LogHistogramSnapshot,
}

/// One open serving session to one server, with its framing state and
/// accounting. Obtained from [`ReplicaConn::open`]; drives the data plane
/// through [`ReplicaConn::fetch_generations`].
pub struct ReplicaConn {
    stream: TcpStream,
    reassembler: FrameReassembler,
    /// Frames encoded since the last flush, back to back: the verdicts on
    /// one read's worth of offers leave in one socket write.
    outbound: Vec<u8>,
    accepts: AcceptLedger,
    wire: WireCounters,
    stripe: ReplicaCounters,
    latency: LogHistogram,
    manifest: ObjectManifest,
    object_id: u64,
}

impl ReplicaConn {
    /// Connects to `addr`, requests `object_id` under `scheme` and waits
    /// for the server's `MANIFEST`. On success the connection is ready to
    /// fetch generations; the returned manifest is what every replica of
    /// a striped fetch must agree on.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] when the server refuses the
    /// object/scheme, [`ServeError::ReplicaLagged`] when the server goes
    /// silent before the manifest, [`ServeError::Corrupt`] for hostile
    /// manifests, plus transport and protocol errors.
    pub fn open(
        addr: SocketAddr,
        object_id: u64,
        scheme: SchemeKind,
        options: &ClientOptions,
    ) -> Result<(ReplicaConn, ObjectManifest), ServeError> {
        let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_millis(5)))?;
        let mut conn = ReplicaConn {
            stream,
            reassembler: FrameReassembler::new(),
            outbound: Vec::new(),
            // A server's widest window of offers plus their payloads.
            accepts: AcceptLedger::new(2 * crate::options::bounds::MAX_INFLIGHT),
            wire: WireCounters::new(),
            stripe: ReplicaCounters::default(),
            latency: LogHistogram::new(),
            // Placeholder until the real manifest arrives below.
            manifest: ObjectManifest { object_len: 0, params: SchemeParams::new(scheme, 1, 1) },
            object_id,
        };

        let request = EnvelopeHeader {
            kind: MessageKind::Request,
            scheme,
            session: object_id,
            generation: GENERATION_OBJECT,
        };
        conn.send(&request, &Message::Request);

        // A server that accepts but never answers the handshake is a
        // stall (watermark never moved); an overall deadline shorter than
        // the stall window is just the deadline.
        let wait = options.timeout.min(options.stall_timeout);
        let deadline = Instant::now() + wait;
        let mut buf = vec![0u8; 16 * 1024];
        loop {
            if Instant::now() > deadline {
                return Err(if options.timeout <= options.stall_timeout {
                    ServeError::TimedOut
                } else {
                    ServeError::ReplicaLagged { stalled_for: wait }
                });
            }
            conn.pump_inbound(&mut buf)?;
            while let Some(frame) = conn.reassembler.next_frame_view()? {
                conn.wire.datagrams_received += 1;
                match frame.message {
                    MessageView::Reject => return Err(ServeError::Rejected),
                    MessageView::Manifest { object_len, code_length, payload_size } => {
                        let manifest =
                            validate_manifest(scheme, object_len, code_length, payload_size)?;
                        conn.manifest = manifest;
                        return Ok((conn, manifest));
                    }
                    MessageView::DataHeader { .. } | MessageView::DataPayload { .. } => {
                        return Err(ServeError::UnexpectedMessage("data frame before MANIFEST"));
                    }
                    // Harmless kinds a future server might emit pre-manifest.
                    MessageView::Request
                    | MessageView::Feedback { .. }
                    | MessageView::FeedbackSummary { .. }
                    | MessageView::Complete => {}
                }
            }
        }
    }

    /// The manifest this connection's server declared.
    #[must_use]
    pub fn manifest(&self) -> &ObjectManifest {
        &self.manifest
    }

    /// Per-stream striping counters accumulated so far (valid after an
    /// error too — a failed stream's partial work still happened).
    #[must_use]
    pub fn replica_counters(&self) -> ReplicaCounters {
        ReplicaCounters {
            aborted: self.wire.transfers_aborted,
            delivered: self.wire.transfers_delivered,
            useful: self.wire.useful_deliveries,
            duplicates: self.wire.transfers_delivered - self.wire.useful_deliveries,
            bytes_in: self.wire.bytes_received,
            bytes_out: self.wire.bytes_sent,
            summaries_sent: self.wire.summaries_sent,
            ..self.stripe
        }
    }

    /// Wire-level accounting for this connection.
    #[must_use]
    pub fn wire_counters(&self) -> WireCounters {
        self.wire
    }

    /// Accept→payload latency distribution of every payload this
    /// connection has received (microseconds, on the client's clock).
    #[must_use]
    pub fn latency_snapshot(&self) -> LogHistogramSnapshot {
        self.latency.snapshot()
    }

    /// The per-generation fetch primitive: pulls the generations in
    /// `lease` from this server into the shared `receiver`, discarding
    /// duplicate-rank symbols, until every leased generation has decoded
    /// (wherever its finishing symbol came from). Generations outside the
    /// lease are `COMPLETE`d up front so the server never spends offer
    /// budget on them.
    ///
    /// Returns the stream's [`ReplicaCounters`]. The connection is
    /// consumed by a clean finish in the sense that the session is closed
    /// gracefully; calling it again offers nothing new.
    ///
    /// # Errors
    ///
    /// [`ServeError::ReplicaLagged`] when the progress watermark stalls,
    /// [`ServeError::TimedOut`] past the deadline,
    /// [`ServeError::Disconnected`] when the server drops the connection,
    /// plus transport and protocol errors. On error the counters so far
    /// remain readable via [`ReplicaConn::replica_counters`].
    pub fn fetch_generations(
        &mut self,
        lease: &[u32],
        receiver: &SharedReceiver,
        options: &ClientOptions,
    ) -> Result<ReplicaCounters, ServeError> {
        if receiver.manifest() != &self.manifest {
            return Err(ServeError::Corrupt("replicas disagree on the object manifest"));
        }
        let generations = self.manifest.generation_count();
        let lease: HashSet<u32> = lease.iter().copied().filter(|&g| g < generations).collect();
        let lease_list: Vec<u32> = lease.iter().copied().collect();
        self.stripe.generations_leased += lease_list.len() as u64;
        let deadline = Instant::now() + options.timeout;

        // Steering: prune everything outside the lease (and anything
        // already complete) from this server's offer schedule.
        let mut completed_sent = vec![false; generations as usize];
        for gen_index in 0..generations {
            if !lease.contains(&gen_index) || receiver.generation_complete(gen_index) {
                self.send_complete(gen_index);
                completed_sent[gen_index as usize] = true;
            }
        }
        // The generations whose summary this connection's server holds.
        let mut summarised = vec![false; generations as usize];

        let mut watermark = Instant::now();
        let mut buf = vec![0u8; read_buffer_len(&self.manifest.params)];
        loop {
            // Frames first, the socket last: the server's opening batch
            // (the MANIFEST and a window of offers in one write) has left
            // offers in the reassembler that a read would only sit on.
            // Accepts and payloads are stamped on the serving plane's
            // clock, read once per pass.
            let now = TraceContext::now_micros();
            while let Some(frame) = self.reassembler.next_frame_view()? {
                self.wire.datagrams_received += 1;
                let generation = frame.header.generation;
                match frame.message {
                    MessageView::Reject => return Err(ServeError::Rejected),
                    MessageView::Manifest { .. } => {
                        return Err(ServeError::UnexpectedMessage("second MANIFEST"));
                    }
                    MessageView::DataHeader { transfer, payload_size, vector, .. } => {
                        self.stripe.offers_seen += 1;
                        let ours = payload_size == self.manifest.params.payload_size
                            && lease.contains(&generation);
                        let accept = ours && receiver.would_accept(generation, &vector);
                        if !accept {
                            self.wire.transfers_aborted += 1;
                        } else if self.accepts.accept(transfer, generation, now).is_some() {
                            self.wire.accepts_evicted += 1;
                        }
                        // The server folds every offer it makes into the
                        // summary it holds, and a stream delivers every
                        // accepted payload, so that copy never claims more
                        // than the receiver holds once what is in flight
                        // lands. A verdict on a leased generation still
                        // being decoded carries the summary, taken after
                        // the accept decision, only where the copy can be
                        // short: the first verdict on this connection, and
                        // every abort.
                        let tell = ours && !(accept && summarised[generation as usize]);
                        let summary =
                            tell.then(|| receiver.summary(generation, MAX_SUMMARY_BYTES)).flatten();
                        let (out, header, summary) =
                            (&mut self.outbound, &frame.header, summary.as_ref());
                        if encode_verdict_into(out, header, transfer, accept, summary) {
                            summarised[generation as usize] = true;
                            self.wire.summaries_sent += 1;
                        }
                        self.wire.datagrams_sent += 1;
                    }
                    MessageView::DataPayload { transfer, packet, .. } => {
                        // A replica is trusted for what this client accepted.
                        let Some(accepted_at) = self.accepts.claim(transfer, generation) else {
                            self.wire.unsolicited_payloads += 1;
                            continue;
                        };
                        self.wire.transfers_delivered += 1;
                        self.latency.record(now.saturating_sub(accepted_at));
                        // The payload leaves the reassembly buffer only for
                        // a generation that can still use it: one another
                        // stream finished meanwhile costs no copy.
                        let outcome = (!receiver.generation_complete(generation))
                            .then(|| receiver.deliver(generation, &packet.into_packet()));
                        if outcome.is_some_and(|outcome| outcome.useful) {
                            self.wire.useful_deliveries += 1;
                            watermark = Instant::now();
                        }
                        if outcome.is_some_and(|outcome| outcome.newly_complete) {
                            self.stripe.generations_completed += 1;
                        }
                    }
                    // Nothing else is meaningful client-side; tolerate
                    // rather than tear down.
                    MessageView::Request
                    | MessageView::Feedback { .. }
                    | MessageView::FeedbackSummary { .. }
                    | MessageView::Complete => {}
                }
            }

            // A generation the frames just finished, or another stream
            // did, is pruned now; a lease that is complete ends here, not
            // after a read that nothing answers.
            for &gen_index in &lease_list {
                if receiver.generation_complete(gen_index) && !completed_sent[gen_index as usize] {
                    self.send_complete(gen_index);
                    completed_sent[gen_index as usize] = true;
                }
            }
            if receiver.generations_complete(&lease_list) {
                self.finish(&mut buf)?;
                return Ok(self.replica_counters());
            }
            if Instant::now() > deadline {
                return Err(ServeError::TimedOut);
            }
            let stalled_for = watermark.elapsed();
            if stalled_for > options.stall_timeout {
                return Err(ServeError::ReplicaLagged { stalled_for });
            }
            self.pump_inbound(&mut buf)?;
        }
    }

    /// Clean end of a stream whose lease is complete: announce the
    /// session is over, then half-close and drain so the server's unread
    /// feedback still lands in its accounting (and what the server had
    /// already sent lands in ours).
    fn finish(&mut self, buf: &mut [u8]) -> Result<(), ServeError> {
        let header = self.header(MessageKind::Complete, GENERATION_OBJECT);
        self.send(&header, &Message::Complete);
        self.flush()?;
        let _ = self.stream.shutdown(std::net::Shutdown::Write);
        let deadline = Instant::now() + Duration::from_millis(250);
        while Instant::now() < deadline {
            match self.stream.read(buf) {
                Ok(0) => break,
                Ok(n) => self.wire.bytes_received += n as u64,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(_) => break,
            }
        }
        Ok(())
    }

    /// One socket read (bounded by the read timeout) into the
    /// reassembler. Everything queued since the last read is written
    /// first: frames are never held across a blocking read, or this end
    /// would wait for answers to verdicts it has not sent.
    fn pump_inbound(&mut self, buf: &mut [u8]) -> Result<(), ServeError> {
        self.flush()?;
        match self.stream.read(buf) {
            Ok(0) => Err(ServeError::Disconnected),
            Ok(n) => {
                self.wire.bytes_received += n as u64;
                self.reassembler.extend(&buf[..n]);
                Ok(())
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(())
            }
            Err(e) => Err(ServeError::Io(e)),
        }
    }

    fn send_complete(&mut self, generation: u32) {
        let header = self.header(MessageKind::Complete, generation);
        self.send(&header, &Message::Complete);
    }

    fn header(&self, kind: MessageKind, generation: u32) -> EnvelopeHeader {
        EnvelopeHeader {
            kind,
            scheme: self.manifest.params.kind,
            session: self.object_id,
            generation,
        }
    }

    /// Queues one frame; [`ReplicaConn::flush`] is the one place the
    /// socket is written.
    fn send(&mut self, header: &EnvelopeHeader, message: &Message) {
        envelope::encode_into(&mut self.outbound, header, message);
        self.wire.datagrams_sent += 1;
    }

    /// Writes the queued frames in one socket write.
    fn flush(&mut self) -> Result<(), ServeError> {
        if self.outbound.is_empty() {
            return Ok(());
        }
        self.stream.write_all(&self.outbound)?;
        self.wire.bytes_sent += self.outbound.len() as u64;
        self.outbound.clear();
        Ok(())
    }
}

/// Read-buffer length for the data phase: one default offer window of
/// this object's frames (a symbol is a `DATA-HEADER` and, accepted, a
/// `DATA-PAYLOAD`), so the batch a server writes per wake-up is taken in
/// one read. Clamped, because the dimensions come off the wire.
fn read_buffer_len(params: &SchemeParams) -> usize {
    let offer = envelope::DATA_PREFIX_BYTES + wire::header_size(params.code_length);
    (PER_SESSION_INFLIGHT * (2 * offer + params.payload_size)).clamp(16 * 1024, 1 << 20)
}

/// Bounds-checks a received manifest and converts it to an
/// [`ObjectManifest`].
fn validate_manifest(
    scheme: SchemeKind,
    object_len: u64,
    code_length: u32,
    payload_size: u32,
) -> Result<ObjectManifest, ServeError> {
    if code_length == 0 || payload_size == 0 {
        return Err(ServeError::Corrupt("degenerate manifest dimensions"));
    }
    let generation_bytes = u64::from(code_length) * u64::from(payload_size);
    if object_len.div_ceil(generation_bytes) > MAX_GENERATIONS {
        return Err(ServeError::Corrupt("manifest implies too many generations"));
    }
    let params = SchemeParams::new(scheme, code_length as usize, payload_size as usize);
    Ok(ObjectManifest { object_len, params })
}

/// Fetches object `object_id`, expected to be served under `scheme`, from
/// the server at `addr`. Blocks until the object reassembles bit-exactly
/// or the deadline passes. This is the single-server case of the
/// per-generation primitive: one connection, every generation leased.
///
/// # Errors
///
/// [`ServeError::Rejected`] when the server refuses the object/scheme,
/// [`ServeError::TimedOut`] past the deadline,
/// [`ServeError::ReplicaLagged`] when the server stops making progress,
/// [`ServeError::Corrupt`] when reassembly fails verification, plus
/// transport and protocol errors.
pub fn fetch(
    addr: SocketAddr,
    object_id: u64,
    scheme: SchemeKind,
    options: &ClientOptions,
) -> Result<FetchReport, ServeError> {
    let started = Instant::now();
    let (mut conn, manifest) = ReplicaConn::open(addr, object_id, scheme, options)?;
    let receiver = SharedReceiver::new(manifest);
    let every_generation: Vec<u32> = (0..manifest.generation_count()).collect();
    // One deadline covers connect, handshake and data: the data phase
    // gets whatever the handshake left of the overall budget.
    let remaining = options.timeout.saturating_sub(started.elapsed());
    if remaining.is_zero() {
        return Err(ServeError::TimedOut);
    }
    let data_options = ClientOptions { timeout: remaining, ..*options };
    conn.fetch_generations(&every_generation, &receiver, &data_options)?;
    let object =
        receiver.reassemble().ok_or(ServeError::Corrupt("reassembly failed after completion"))?;
    if object.len() as u64 != manifest.object_len {
        return Err(ServeError::Corrupt("reassembled length != manifest"));
    }
    Ok(FetchReport {
        object,
        manifest,
        wire: conn.wire_counters(),
        elapsed: started.elapsed(),
        latency: conn.latency_snapshot(),
    })
}
