//! End-to-end serving over real TCP sockets: one warm server, concurrent
//! short-lived clients, every scheme, bit-exact verification, and the
//! failure paths (unknown object, scheme mismatch, bad options) — now
//! also exercised through the deterministic fault harness
//! (`ltnc_net::faults`) instead of only clean localhost sockets. A
//! scripted raw-socket client pins the batching rules of the stream
//! binding: what one read's worth of frames is answered with, and that
//! nothing is held back across a blocking read.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ltnc_net::envelope::{
    self, Envelope, EnvelopeHeader, Message, MessageKind, TraceContext, GENERATION_OBJECT,
};
use ltnc_net::faults::{FaultPlan, FaultProxy};
use ltnc_net::stream::FrameReassembler;
use ltnc_scheme::{SchemeKind, SchemeParams};
use ltnc_serve::options::bounds;
use ltnc_serve::{
    fetch, ClientOptions, ObjectStore, ReplicaConn, ServeError, ServeOptions, Server,
};
use ltnc_session::generation::{ReceiverSession, SourceSession};
use ltnc_session::SharedReceiver;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn pseudo_object(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut data = vec![0u8; len];
    rng.fill(&mut data[..]);
    data
}

fn client_options() -> ClientOptions {
    ClientOptions { timeout: Duration::from_secs(30), ..Default::default() }
}

/// A hand-driven client on a raw socket: the test decides exactly which
/// bytes go out in which write, and sees exactly which frames come back.
struct ScriptedClient {
    stream: TcpStream,
    reassembler: FrameReassembler,
    object_id: u64,
    scheme: SchemeKind,
    bytes_in: u64,
    bytes_out: u64,
}

impl ScriptedClient {
    fn connect(addr: SocketAddr, object_id: u64, scheme: SchemeKind) -> ScriptedClient {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_read_timeout(Some(Duration::from_millis(20))).expect("read timeout");
        ScriptedClient {
            stream,
            reassembler: FrameReassembler::new(),
            object_id,
            scheme,
            bytes_in: 0,
            bytes_out: 0,
        }
    }

    fn header(&self, kind: MessageKind, generation: u32) -> EnvelopeHeader {
        EnvelopeHeader { kind, scheme: self.scheme, session: self.object_id, generation }
    }

    fn frame(&self, kind: MessageKind, generation: u32, message: &Message) -> Vec<u8> {
        envelope::encode(&self.header(kind, generation), message)
    }

    fn verdict(&self, generation: u32, transfer: u64, accept: bool) -> Vec<u8> {
        let header = self.header(MessageKind::FeedbackAbort, generation);
        let mut verdict = Vec::new();
        envelope::encode_feedback_into(&mut verdict, &header, transfer, accept);
        verdict
    }

    fn accept(&self, offer: &Envelope) -> Vec<u8> {
        let Message::DataHeader { transfer, .. } = offer.message else {
            panic!("not an offer: {offer:?}");
        };
        self.verdict(offer.header.generation, transfer, true)
    }

    /// One `write_all`: with `TCP_NODELAY` and less than a segment of
    /// bytes, one segment on the wire.
    fn write(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("write");
        self.bytes_out += bytes.len() as u64;
    }

    /// Reads until `want` frames have arrived, or panics after 5 s.
    fn read_frames(&mut self, want: usize) -> Vec<Envelope> {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut frames = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            while frames.len() < want {
                match self.reassembler.next_frame_view().expect("a well-framed stream") {
                    Some(frame) => frames.push(frame.into_owned()),
                    None => break,
                }
            }
            if frames.len() == want {
                return frames;
            }
            assert!(Instant::now() < deadline, "only {} of {want} frames arrived", frames.len());
            if let Some(n) = self.read_some(&mut buf) {
                assert!(n > 0, "EOF after {} of {want} frames", frames.len());
            }
        }
    }

    /// One socket read: `Some(0)` at EOF, `None` when the timeout passed
    /// with nothing to read.
    fn read_some(&mut self, buf: &mut [u8]) -> Option<usize> {
        match self.stream.read(buf) {
            Ok(n) => {
                self.bytes_in += n as u64;
                self.reassembler.extend(&buf[..n]);
                Some(n)
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                None
            }
            Err(e) => panic!("read failed: {e}"),
        }
    }

    /// Everything the server sends from here to its close, as frames.
    fn read_to_eof(&mut self) -> Vec<Envelope> {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut buf = [0u8; 4096];
        while self.read_some(&mut buf) != Some(0) {
            assert!(Instant::now() < deadline, "the server never closed the connection");
        }
        let mut frames = Vec::new();
        while let Some(frame) = self.reassembler.next_frame_view().expect("a well-framed stream") {
            frames.push(frame.into_owned());
        }
        assert_eq!(self.reassembler.pending_bytes(), 0, "the stream ended inside a frame");
        frames
    }
}

fn kinds(frames: &[Envelope]) -> Vec<MessageKind> {
    frames.iter().map(|frame| frame.header.kind).collect()
}

#[test]
fn every_scheme_serves_bit_exactly_over_tcp() {
    for scheme in SchemeKind::ALL {
        let server =
            Server::spawn("127.0.0.1:0".parse().expect("valid addr"), ServeOptions::default())
                .expect("spawn server");
        // 12 × 24 = 288 bytes per generation; 1000 bytes → 4 generations.
        let object = pseudo_object(1000, 0xA5 ^ scheme.wire_id() as u64);
        server.register(7, &object, SchemeParams::new(scheme, 12, 24)).expect("register");

        let report =
            fetch(server.local_addr(), 7, scheme, &client_options()).expect("fetch succeeds");
        assert_eq!(report.object, object, "{scheme:?}: bit-exact reassembly");
        assert_eq!(report.manifest.generation_count(), 4);
        assert!(report.wire.useful_deliveries >= 4 * 12, "{scheme:?}: rank worth of deliveries");

        let counters = server.shutdown();
        assert_eq!(counters.sessions_accepted, 1, "{scheme:?}");
        assert_eq!(counters.sessions_completed, 1, "{scheme:?}");
        assert!(counters.transfers_offered > 0, "{scheme:?}");
        assert!(counters.bytes_out > 1000, "{scheme:?}");
    }
}

#[test]
fn concurrent_clients_share_the_warm_cache() {
    let options = ServeOptions { warm_cache_capacity: 128, workers: 4, ..Default::default() };
    let server = Server::spawn("127.0.0.1:0".parse().expect("valid addr"), options).expect("spawn");
    let object = Arc::new(pseudo_object(4096, 99));
    server.register(1, &object, SchemeParams::new(SchemeKind::Rlnc, 16, 32)).expect("register");

    let addr = server.local_addr();
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let object = Arc::clone(&object);
            thread::spawn(move || {
                let report = fetch(addr, 1, SchemeKind::Rlnc, &client_options()).expect("fetch");
                assert_eq!(report.object, *object);
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread panicked");
    }

    let counters = server.shutdown();
    assert_eq!(counters.sessions_accepted, 8);
    assert_eq!(counters.sessions_completed, 8);
    // The whole point of the warm store: 8 identical fetches must not do
    // 8× the coding work.
    assert!(
        counters.cache_hits > counters.cache_misses,
        "expected a hit-dominated workload, got {counters}"
    );
}

#[test]
fn serving_survives_a_fragmented_and_delayed_stream() {
    // The clean-socket test above, retrofitted onto the fault harness:
    // both directions re-chunked into tiny fragments with per-read
    // delays. Bit-exactness must not depend on how the bytes arrive.
    for scheme in SchemeKind::ALL {
        let server =
            Server::spawn("127.0.0.1:0".parse().expect("valid addr"), ServeOptions::default())
                .expect("spawn server");
        let object = pseudo_object(1000, 0x5A ^ scheme.wire_id() as u64);
        server.register(7, &object, SchemeParams::new(scheme, 12, 24)).expect("register");

        let ragged = FaultPlan::clean(0xBAD ^ scheme.wire_id() as u64)
            .fragment_reads(7)
            .delay_reads(Duration::from_micros(200));
        let proxy = FaultProxy::spawn(server.local_addr(), ragged, ragged).expect("spawn proxy");

        let report =
            fetch(proxy.local_addr(), 7, scheme, &client_options()).expect("fetch succeeds");
        assert_eq!(report.object, object, "{scheme:?}: bit-exact through the fault proxy");
        proxy.shutdown();
        let _ = server.shutdown();
    }
}

#[test]
fn server_disconnect_mid_fetch_is_a_typed_error_not_a_hang() {
    let server = Server::spawn("127.0.0.1:0".parse().expect("valid addr"), ServeOptions::default())
        .expect("spawn server");
    let object = pseudo_object(32 * 1024, 77);
    server.register(1, &object, SchemeParams::new(SchemeKind::Rlnc, 16, 64)).expect("register");

    // The server "crashes" after exactly 8 KiB of its response.
    let cut = FaultPlan::clean(1).disconnect_read_at(8 * 1024);
    let proxy = FaultProxy::spawn(server.local_addr(), FaultPlan::clean(2), cut).expect("proxy");
    let started = std::time::Instant::now();
    match fetch(proxy.local_addr(), 1, SchemeKind::Rlnc, &client_options()) {
        Err(ServeError::Disconnected | ServeError::Io(_)) => {}
        other => panic!("expected Disconnected, got {other:?}"),
    }
    assert!(started.elapsed() < Duration::from_secs(10), "must fail fast, not burn the deadline");
    proxy.shutdown();
    let _ = server.shutdown();
}

#[test]
fn stalled_server_surfaces_replica_lagged_not_a_blocked_fetch() {
    // Regression: a server that answers the handshake and then stops
    // making progress used to pin the client until the *overall* deadline
    // (30 s by default). The per-stream progress watermark must surface a
    // typed ReplicaLagged error after stall_timeout instead. The stall is
    // injected deterministically: the server→client direction goes mute
    // after the manifest bytes with the socket still open.
    let server = Server::spawn("127.0.0.1:0".parse().expect("valid addr"), ServeOptions::default())
        .expect("spawn server");
    let object = pseudo_object(8 * 1024, 21);
    server.register(4, &object, SchemeParams::new(SchemeKind::Ltnc, 16, 64)).expect("register");

    // MANIFEST is 35 bytes (19-byte envelope + 16-byte body); withhold
    // every server byte after 40, so offers never arrive but the socket
    // stays open: progress stalls without a disconnect.
    let stall = FaultPlan::clean(4).stall_read_at(40);
    let proxy = FaultProxy::spawn(server.local_addr(), FaultPlan::clean(5), stall).expect("proxy");

    let options = ClientOptions {
        timeout: Duration::from_secs(30),
        stall_timeout: Duration::from_millis(400),
        ..Default::default()
    };
    let started = std::time::Instant::now();
    match fetch(proxy.local_addr(), 4, SchemeKind::Ltnc, &options) {
        Err(ServeError::ReplicaLagged { stalled_for }) => {
            assert!(stalled_for >= Duration::from_millis(400));
        }
        other => panic!("expected ReplicaLagged, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "stall must be detected in ~stall_timeout, not the 30 s deadline"
    );
    proxy.shutdown();
    let _ = server.shutdown();
}

#[test]
fn unknown_object_and_scheme_mismatch_are_rejected() {
    let server = Server::spawn("127.0.0.1:0".parse().expect("valid addr"), ServeOptions::default())
        .expect("spawn");
    let object = pseudo_object(256, 5);
    server.register(3, &object, SchemeParams::new(SchemeKind::Ltnc, 8, 16)).expect("register");

    // Unknown object id.
    match fetch(server.local_addr(), 404, SchemeKind::Ltnc, &client_options()) {
        Err(ServeError::Rejected) => {}
        other => panic!("expected Rejected, got {other:?}"),
    }
    // Registered object, wrong scheme.
    match fetch(server.local_addr(), 3, SchemeKind::Wc, &client_options()) {
        Err(ServeError::Rejected) => {}
        other => panic!("expected Rejected, got {other:?}"),
    }
    let counters = server.shutdown();
    assert_eq!(counters.sessions_rejected, 2);
    assert_eq!(counters.sessions_accepted, 0);
}

#[test]
fn invalid_options_error_at_spawn_not_at_runtime() {
    let bad = ServeOptions { per_session_inflight: 0, ..Default::default() };
    match Server::spawn("127.0.0.1:0".parse().expect("valid addr"), bad) {
        Err(ServeError::InvalidOption { name, .. }) => {
            assert_eq!(name, "per_session_inflight");
        }
        other => panic!("expected InvalidOption, got {:?}", other.map(|s| s.local_addr())),
    }
}

#[test]
fn store_is_usable_standalone_for_warm_vs_cold_comparison() {
    // The bench uses the store directly; make sure that path stays public
    // and sane: a second pass over the same sequences is pure cache hits.
    let store = ObjectStore::new(64).expect("store");
    let object = pseudo_object(2048, 11);
    store.register(1, &object, SchemeParams::new(SchemeKind::Rlnc, 16, 32)).expect("register");
    for pass in 0..2 {
        for seq in 0..32 {
            let (actual, packet) = store.symbol(1, 0, seq).expect("symbol");
            assert_eq!(actual, seq, "pass {pass}");
            assert_eq!(packet.code_length(), 16);
        }
    }
    let stats = store.cache_stats();
    assert_eq!(stats.misses, 32);
    assert_eq!(stats.hits, 32);
    assert_eq!(stats.evictions, 0);
}

#[test]
fn an_idle_connection_cannot_starve_another_session() {
    // One worker, short idle timeout: a silent connection must not keep a
    // real client from being served, and is dropped when it times out.
    let options =
        ServeOptions { workers: 1, idle_timeout: Duration::from_millis(150), ..Default::default() };
    let server = Server::spawn("127.0.0.1:0".parse().expect("valid addr"), options).expect("spawn");
    let object = pseudo_object(512, 21);
    server.register(1, &object, SchemeParams::new(SchemeKind::Rlnc, 8, 16)).expect("register");

    // A connection on the only worker that never speaks.
    let idle = std::net::TcpStream::connect(server.local_addr()).expect("connect idle");
    let report = fetch(server.local_addr(), 1, SchemeKind::Rlnc, &client_options())
        .expect("fetch must succeed once the idle session times out");
    assert_eq!(report.object, object);
    drop(idle);
    let _ = server.shutdown();
}

#[test]
fn hostile_manifest_is_rejected_before_allocation() {
    // A fake "server" that answers any request with a manifest implying
    // ~2^40 generations (tiny k × m, huge object_len). The client must
    // error out instead of allocating decode state for it.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let fake = thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut buf = [0u8; 256];
        let _ = stream.read(&mut buf).expect("read request");
        let header = EnvelopeHeader {
            kind: MessageKind::Manifest,
            scheme: SchemeKind::Rlnc,
            session: 1,
            generation: GENERATION_OBJECT,
        };
        let manifest = Message::Manifest { object_len: 1 << 40, code_length: 1, payload_size: 1 };
        stream.write_all(&envelope::encode(&header, &manifest)).expect("write manifest");
        // Hold the socket open so the client fails on the manifest, not EOF.
        thread::sleep(Duration::from_millis(500));
    });

    match fetch(addr, 1, SchemeKind::Rlnc, &client_options()) {
        Err(ServeError::Corrupt(reason)) => assert!(reason.contains("generations")),
        other => panic!("expected Corrupt, got {other:?}"),
    }
    fake.join().expect("fake server panicked");
}

#[test]
fn a_hostile_replica_cannot_deliver_what_the_client_never_accepted() {
    // A fake replica answers the REQUEST with a valid MANIFEST, then
    // writes N valid DATA-PAYLOADs of fresh symbols it never offered. The
    // client trusts a replica for what it accepted and nothing more: each
    // payload is dropped and counted, none reaches the decoder, and the
    // stream stalls into ReplicaLagged.
    const N: u64 = 24;
    let params = SchemeParams::new(SchemeKind::Rlnc, 8, 32);
    let object = pseudo_object(512, 41);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let replica = thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
        let mut buf = [0u8; 256];
        let _ = stream.read(&mut buf).expect("read request");
        let mut source = SourceSession::new(&object, params);
        let header =
            |kind, generation| EnvelopeHeader { kind, scheme: params.kind, session: 7, generation };
        let manifest =
            Message::Manifest { object_len: object.len() as u64, code_length: 8, payload_size: 32 };
        let mut out =
            envelope::encode(&header(MessageKind::Manifest, GENERATION_OBJECT), &manifest);
        let mut rng = SmallRng::seed_from_u64(41);
        for transfer in 1..=N {
            let (generation, packet) = source.make_packet(&mut rng, |_| true).expect("a packet");
            let trace = TraceContext::origin_now(TraceContext::now_micros());
            let header = header(MessageKind::DataPayload, generation);
            envelope::encode_payload_into(&mut out, &header, transfer, &trace, &packet);
        }
        stream.write_all(&out).expect("write manifest and payloads");
        // Hold the socket open until the client gives up on it.
        while stream.read(&mut buf).is_ok_and(|n| n > 0) {}
    });

    let options = ClientOptions {
        timeout: Duration::from_secs(10),
        stall_timeout: Duration::from_millis(300),
        ..Default::default()
    };
    let (mut conn, manifest) =
        ReplicaConn::open(addr, 7, SchemeKind::Rlnc, &options).expect("open");
    let receiver = SharedReceiver::new(manifest);
    match conn.fetch_generations(&[0, 1], &receiver, &options) {
        Err(ServeError::ReplicaLagged { .. }) => {}
        other => panic!("expected ReplicaLagged, got {other:?}"),
    }
    let wire = conn.wire_counters();
    assert_eq!((wire.useful_deliveries, wire.unsolicited_payloads), (0, N));
    assert_eq!((wire.transfers_delivered, conn.replica_counters().delivered), (0, 0));
    drop(conn);
    replica.join().expect("fake replica panicked");
}

#[test]
fn registering_while_serving_is_live() {
    let server = Server::spawn("127.0.0.1:0".parse().expect("valid addr"), ServeOptions::default())
        .expect("spawn");
    // Nothing registered yet: reject.
    assert!(matches!(
        fetch(server.local_addr(), 1, SchemeKind::Wc, &client_options()),
        Err(ServeError::Rejected)
    ));
    // Register and fetch without restarting the server.
    let object = pseudo_object(512, 77);
    server.register(1, &object, SchemeParams::new(SchemeKind::Wc, 8, 16)).expect("register");
    let report = fetch(server.local_addr(), 1, SchemeKind::Wc, &client_options()).expect("fetch");
    assert_eq!(report.object, object);
    let _ = server.shutdown();
}

#[test]
fn one_read_of_feedback_is_answered_by_one_batch_of_payloads_and_refills() {
    let window = ServeOptions::default().per_session_inflight;
    let server = Server::spawn("127.0.0.1:0".parse().expect("valid addr"), ServeOptions::default())
        .expect("spawn");
    // 8 × 16 = 128 B per generation → 64 generations, more than two
    // windows: the round-robin never offers a generation twice here.
    let object = pseudo_object(8192, 3);
    server.register(5, &object, SchemeParams::new(SchemeKind::Rlnc, 8, 16)).expect("register");

    let mut client = ScriptedClient::connect(server.local_addr(), 5, SchemeKind::Rlnc);
    let request = client.frame(MessageKind::Request, GENERATION_OBJECT, &Message::Request);
    client.write(&request);
    let mut opening = client.read_frames(1 + window);
    assert_eq!(opening.remove(0).header.kind, MessageKind::Manifest);
    let mut offers = opening;
    assert!(kinds(&offers).iter().all(|&kind| kind == MessageKind::DataHeader));

    // Round one: the whole window's verdicts in a single segment. Round
    // two: the same bytes one per write. Either way each accepted offer
    // is answered by its payload, and the window is refilled by as many
    // new offers — and by nothing more until those are answered.
    for one_byte_at_a_time in [false, true] {
        let feedback: Vec<u8> = offers.iter().flat_map(|offer| client.accept(offer)).collect();
        if one_byte_at_a_time {
            for byte in &feedback {
                client.write(std::slice::from_ref(byte));
            }
        } else {
            client.write(&feedback);
        }
        let answers = client.read_frames(2 * window);
        let (payloads, refills): (Vec<_>, Vec<_>) =
            answers.into_iter().partition(|frame| frame.header.kind == MessageKind::DataPayload);
        assert_eq!(payloads.len(), window, "one payload per accepted offer");
        assert_eq!(refills.len(), window, "one new offer per answered one");
        for (offer, payload) in offers.iter().zip(&payloads) {
            let Message::DataHeader { transfer: offered, vector, .. } = &offer.message else {
                panic!("not an offer: {offer:?}");
            };
            let Message::DataPayload { transfer, packet, .. } = &payload.message else {
                panic!("not a payload: {payload:?}");
            };
            assert_eq!(transfer, offered, "payloads answer the verdicts in order");
            assert_eq!(packet.vector(), vector, "the payload is the packet that was offered");
            assert_eq!(payload.header.generation, offer.header.generation);
        }
        assert!(kinds(&refills).iter().all(|&kind| kind == MessageKind::DataHeader));
        let mut buf = [0u8; 64];
        assert_eq!(client.read_some(&mut buf), None, "a full window sends nothing unasked");
        offers = refills;
    }

    let complete = client.frame(MessageKind::Complete, GENERATION_OBJECT, &Message::Complete);
    client.write(&complete);
    client.stream.shutdown(Shutdown::Write).expect("half-close");
    assert!(client.read_to_eof().is_empty(), "nothing was owed at the close");

    let counters = server.shutdown();
    assert_eq!(counters.sessions_completed, 1);
    assert_eq!(counters.transfers_delivered, 2 * window as u64);
    assert_eq!(counters.transfers_aborted, 0);
    // The last window of offers was never answered: still pending when
    // the session closed.
    assert_eq!(
        counters.transfers_offered,
        counters.transfers_delivered + counters.transfers_aborted + window as u64
    );
    assert_eq!(counters.bytes_out, client.bytes_in, "every byte written was counted, once");
    assert_eq!(counters.bytes_in, client.bytes_out);
}

#[test]
fn a_reject_is_readable_before_the_close() {
    let server = Server::spawn("127.0.0.1:0".parse().expect("valid addr"), ServeOptions::default())
        .expect("spawn");
    let mut client = ScriptedClient::connect(server.local_addr(), 404, SchemeKind::Ltnc);
    let request = client.frame(MessageKind::Request, GENERATION_OBJECT, &Message::Request);
    client.write(&request);
    assert_eq!(kinds(&client.read_to_eof()), [MessageKind::Reject]);
    let counters = server.shutdown();
    assert_eq!(counters.sessions_rejected, 1);
    assert_eq!(counters.bytes_out, client.bytes_in);
}

#[test]
fn replayed_and_unknown_feedback_release_nothing() {
    // The server matches a FEEDBACK against its session's own pending
    // offers only: a replayed ACCEPT finds its offer already answered, a
    // verdict for a transfer never offered finds nothing, and neither
    // releases a payload or refills the window.
    let server = Server::spawn("127.0.0.1:0".parse().expect("valid addr"), ServeOptions::default())
        .expect("spawn");
    let object = pseudo_object(2048, 29);
    let manifest =
        server.register(9, &object, SchemeParams::new(SchemeKind::Rlnc, 8, 64)).expect("register");
    let mut receiver = ReceiverSession::new(manifest);

    let mut client = ScriptedClient::connect(server.local_addr(), 9, SchemeKind::Rlnc);
    let request = client.frame(MessageKind::Request, GENERATION_OBJECT, &Message::Request);
    client.write(&request);
    let window = ServeOptions::default().per_session_inflight;
    let mut inbox: VecDeque<Envelope> = client.read_frames(1 + window).into();
    assert_eq!(inbox.pop_front().map(|frame| frame.header.kind), Some(MessageKind::Manifest));

    // The first offer, accepted: its payload and one refill come back.
    let first = inbox.pop_front().expect("an offer");
    let accept = client.accept(&first);
    client.write(&accept);
    let answers = client.read_frames(2);
    assert_eq!(kinds(&answers), [MessageKind::DataPayload, MessageKind::DataHeader]);
    let mut payloads = 0u64;
    for frame in answers {
        match &frame.message {
            Message::DataPayload { packet, .. } => {
                payloads += 1;
                receiver.deliver(frame.header.generation, packet);
            }
            _ => inbox.push_back(frame),
        }
    }

    // The same ACCEPT again, then both verdicts for a transfer never
    // offered, then an ACCEPT for an offer still pending. The server
    // answers a stream's frames in order, so the first frames back are
    // the last accept's payload and refill: nothing came before them.
    client.write(&accept);
    for accept in [true, false] {
        client.write(&client.verdict(0, 1 << 40, accept));
    }
    let pending = inbox.pop_front().expect("an offer");
    client.write(&client.accept(&pending));
    let answers = client.read_frames(2);
    assert_eq!(
        kinds(&answers),
        [MessageKind::DataPayload, MessageKind::DataHeader],
        "a replayed or unknown verdict released data"
    );
    let (Message::DataHeader { vector, .. }, Message::DataPayload { packet, .. }) =
        (&pending.message, &answers[0].message)
    else {
        unreachable!("kinds checked above")
    };
    assert_eq!(packet.vector(), vector, "not the pending offer's payload");
    for frame in answers {
        match &frame.message {
            Message::DataPayload { packet, .. } => {
                payloads += 1;
                receiver.deliver(frame.header.generation, packet);
            }
            _ => inbox.push_back(frame),
        }
    }

    // The session still runs to a bit-exact object: every offer answered
    // on its merit, a COMPLETE per decoded generation, one for the object.
    while !receiver.is_complete() {
        let frame = match inbox.pop_front() {
            Some(frame) => frame,
            None => client.read_frames(1).remove(0),
        };
        let generation = frame.header.generation;
        match &frame.message {
            Message::DataHeader { transfer, vector, .. } => {
                let accept = receiver.would_accept(generation, vector);
                client.write(&client.verdict(generation, *transfer, accept));
            }
            Message::DataPayload { packet, .. } => {
                payloads += 1;
                receiver.deliver(generation, packet);
                if receiver.generation_complete(generation) {
                    client.write(&client.frame(
                        MessageKind::Complete,
                        generation,
                        &Message::Complete,
                    ));
                }
            }
            other => panic!("unexpected {:?}", other.kind()),
        }
    }
    let complete = client.frame(MessageKind::Complete, GENERATION_OBJECT, &Message::Complete);
    client.write(&complete);
    client.stream.shutdown(Shutdown::Write).expect("half-close");
    // Payloads for accepts already on the wire still leave before the close.
    let rest = client.read_to_eof();
    payloads +=
        rest.iter().filter(|frame| frame.header.kind == MessageKind::DataPayload).count() as u64;
    assert_eq!(receiver.reassemble().as_deref(), Some(&object[..]), "bit-exact");

    let counters = server.shutdown();
    assert_eq!(counters.sessions_completed, 1);
    assert_eq!(counters.transfers_delivered, payloads, "one payload per delivered transfer");
}

#[test]
fn the_widest_and_the_narrowest_window_both_complete_bit_exact() {
    // The widest window puts megabytes in flight each way before either
    // end reads an answer (no deadlock); the narrowest is the paper's
    // exchange in lock-step, one symbol per two round trips.
    for window in [bounds::MAX_INFLIGHT, 1] {
        let options = ServeOptions { per_session_inflight: window, ..Default::default() };
        let server =
            Server::spawn("127.0.0.1:0".parse().expect("valid addr"), options).expect("spawn");
        let object = pseudo_object(64 * 1024, window as u64);
        server
            .register(2, &object, SchemeParams::new(SchemeKind::Ltnc, 32, 256))
            .expect("register");
        let report = fetch(server.local_addr(), 2, SchemeKind::Ltnc, &client_options())
            .unwrap_or_else(|e| panic!("window {window}: {e}"));
        assert_eq!(report.object, object, "window {window}");
        let counters = server.shutdown();
        assert_eq!(counters.sessions_completed, 1, "window {window}");
    }
}

#[test]
fn a_clean_fetch_balances_the_books_on_both_ends() {
    let window = ServeOptions::default().per_session_inflight as u64;
    let server = Server::spawn("127.0.0.1:0".parse().expect("valid addr"), ServeOptions::default())
        .expect("spawn");
    let object = pseudo_object(32 * 1024, 8);
    server.register(6, &object, SchemeParams::new(SchemeKind::Ltnc, 16, 64)).expect("register");
    let report = fetch(server.local_addr(), 6, SchemeKind::Ltnc, &client_options()).expect("fetch");
    assert_eq!(report.object, object);

    let served = server.shutdown();
    // Bytes are counted where they cross the socket, so batching cannot
    // lose any — not even the ones the client only drained at the close.
    assert_eq!(served.bytes_out, report.wire.bytes_received);
    assert_eq!(served.bytes_in, report.wire.bytes_sent);
    // The client sent one REQUEST, one COMPLETE per generation, one for
    // the object, and a verdict per offer it saw; the server read them
    // all. What it offered beyond that was pending at the close.
    let completes = u64::from(report.manifest.generation_count()) + 1;
    let verdicts = report.wire.datagrams_sent - 1 - completes;
    assert_eq!(served.transfers_delivered + served.transfers_aborted, verdicts);
    assert_eq!(served.transfers_aborted, report.wire.transfers_aborted);
    let pending_at_close = served.transfers_offered - verdicts;
    assert!(pending_at_close <= window, "{pending_at_close} offers pending at the close");
}

#[test]
fn a_silent_client_with_a_window_of_offers_outstanding_still_times_out() {
    let options =
        ServeOptions { workers: 1, idle_timeout: Duration::from_millis(150), ..Default::default() };
    let server = Server::spawn("127.0.0.1:0".parse().expect("valid addr"), options).expect("spawn");
    let object = pseudo_object(4096, 13);
    server.register(1, &object, SchemeParams::new(SchemeKind::Rlnc, 8, 16)).expect("register");

    // Asks, then never answers an offer: the server has a full window
    // flushed and pending, and must still notice the silence.
    let mut silent = ScriptedClient::connect(server.local_addr(), 1, SchemeKind::Rlnc);
    let request = silent.frame(MessageKind::Request, GENERATION_OBJECT, &Message::Request);
    silent.write(&request);
    let started = Instant::now();
    let sent = kinds(&silent.read_to_eof());
    assert!(started.elapsed() >= Duration::from_millis(150), "closed before the idle timeout");
    assert_eq!(sent.len(), 1 + options.per_session_inflight, "the MANIFEST and one window");
    assert_eq!(sent[0], MessageKind::Manifest);

    // The only worker is free again.
    let report = fetch(server.local_addr(), 1, SchemeKind::Rlnc, &client_options()).expect("fetch");
    assert_eq!(report.object, object);
    let _ = server.shutdown();
}

#[test]
fn a_client_that_stops_reading_cannot_stall_another_session() {
    // One batch of MAX_INFLIGHT offers with a 1 KiB code vector each is
    // more than the socket buffers between the two ends hold, so the
    // server's write is cut short by a client that asked and never reads.
    // The rest waits for a write edge that never comes, on a worker that
    // serves the next client meanwhile.
    let options = ServeOptions {
        workers: 1,
        per_session_inflight: bounds::MAX_INFLIGHT,
        idle_timeout: Duration::from_millis(300),
        ..Default::default()
    };
    let server = Server::spawn("127.0.0.1:0".parse().expect("valid addr"), options).expect("spawn");
    let wide = pseudo_object(8192 * 8, 17);
    server.register(1, &wide, SchemeParams::new(SchemeKind::Rlnc, 8192, 8)).expect("register");
    let small = pseudo_object(512, 18);
    server.register(2, &small, SchemeParams::new(SchemeKind::Rlnc, 8, 16)).expect("register");

    let mut deaf = ScriptedClient::connect(server.local_addr(), 1, SchemeKind::Rlnc);
    let request = deaf.frame(MessageKind::Request, GENERATION_OBJECT, &Message::Request);
    deaf.write(&request);

    let started = Instant::now();
    let report = fetch(server.local_addr(), 2, SchemeKind::Rlnc, &client_options())
        .expect("fetch must succeed once the blocked session times out");
    assert_eq!(report.object, small);
    assert!(started.elapsed() < Duration::from_secs(10));
    drop(deaf);
    let _ = server.shutdown();
}

#[test]
fn a_connection_past_max_sessions_is_refused_and_counted_and_shutdown_stays_prompt() {
    let options = ServeOptions { workers: 1, max_sessions: 2, ..Default::default() };
    let server = Server::spawn("127.0.0.1:0".parse().expect("valid addr"), options).expect("spawn");
    let object = pseudo_object(4096, 23);
    server.register(1, &object, SchemeParams::new(SchemeKind::Rlnc, 8, 16)).expect("register");

    // The first connection is served (its MANIFEST proves it), the second
    // is held silent beside it, the third is one past the cap.
    let mut served = ScriptedClient::connect(server.local_addr(), 1, SchemeKind::Rlnc);
    let request = served.frame(MessageKind::Request, GENERATION_OBJECT, &Message::Request);
    served.write(&request);
    assert_eq!(served.read_frames(1)[0].header.kind, MessageKind::Manifest);
    let queued = ScriptedClient::connect(server.local_addr(), 1, SchemeKind::Rlnc);
    let mut refused = ScriptedClient::connect(server.local_addr(), 1, SchemeKind::Rlnc);
    assert!(refused.read_to_eof().is_empty(), "a refused connection is closed unanswered");
    assert_eq!(server.counters().sessions_rejected, 1);

    drop((served, queued));
    let started = Instant::now();
    let counters = server.shutdown();
    assert!(started.elapsed() < Duration::from_secs(2), "shutdown must wake a blocked accept");
    assert_eq!(counters.sessions_rejected, 1);
    assert_eq!(counters.sessions_accepted, 1);
}

#[test]
fn a_silent_and_a_deaf_connection_delay_neither_a_fetch_nor_shutdown() {
    // One worker and the default 30 s idle timeout, so neither connection
    // below is reaped during the test. One never speaks; the other asks
    // for an object whose first window of offers (MAX_INFLIGHT of them,
    // 1 KiB code vectors each) overflows the socket buffers, and never
    // reads. Neither may make a fetch of another object, or shutdown,
    // wait out the idle timeout.
    let options = ServeOptions {
        workers: 1,
        per_session_inflight: bounds::MAX_INFLIGHT,
        ..Default::default()
    };
    assert_eq!(options.idle_timeout, Duration::from_secs(30));
    let server = Server::spawn("127.0.0.1:0".parse().expect("valid addr"), options).expect("spawn");
    let wide = pseudo_object(8192 * 8, 31);
    server.register(1, &wide, SchemeParams::new(SchemeKind::Rlnc, 8192, 8)).expect("register");
    let small = pseudo_object(4096, 32);
    server.register(2, &small, SchemeParams::new(SchemeKind::Rlnc, 8, 16)).expect("register");

    let silent = TcpStream::connect(server.local_addr()).expect("connect silent");
    let mut deaf = ScriptedClient::connect(server.local_addr(), 1, SchemeKind::Rlnc);
    let request = deaf.frame(MessageKind::Request, GENERATION_OBJECT, &Message::Request);
    deaf.write(&request);

    let started = Instant::now();
    let report = fetch(server.local_addr(), 2, SchemeKind::Rlnc, &client_options()).expect("fetch");
    let took = started.elapsed();
    assert_eq!(report.object, small, "bit-exact");
    assert!(took < Duration::from_secs(2), "the fetch took {took:?}");

    let started = Instant::now();
    let counters = server.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?} with both connections open");
    assert_eq!(counters.sessions_accepted, 2);
    assert_eq!(counters.sessions_completed, 1);
    drop((silent, deaf));
}

#[test]
fn a_client_that_accepts_blindly_and_never_reads_is_held_back_and_reaped() {
    // The blind client asks, then ACCEPTs the window of transfers on
    // offer, again and again, without reading a byte: the ids run 1, 2,
    // 3, … (the test reads the last one off the server's counters), and
    // each ACCEPT the server reads releases a 4 KiB payload. Once the
    // socket buffers between the two ends are full the server must stop
    // reading it, so what it delivers stays within one window plus the
    // most those buffers can hold, and the session, silent from then
    // on, is reaped by its idle timer while the client still sends.
    // `max_sessions: 1` makes the reap visible: until it, the one place
    // is taken and a fetch is refused.
    let payload = 4096;
    let options = ServeOptions {
        workers: 1,
        max_sessions: 1,
        idle_timeout: Duration::from_millis(300),
        ..Default::default()
    };
    let window = options.per_session_inflight as u64;
    let bound = window + socket_buffer_ceiling() / payload as u64;
    let server = Server::spawn("127.0.0.1:0".parse().expect("valid addr"), options).expect("spawn");
    let object = pseudo_object(8 * payload, 41);
    server.register(1, &object, SchemeParams::new(SchemeKind::Rlnc, 8, payload)).expect("register");
    let small = pseudo_object(512, 42);
    server.register(2, &small, SchemeParams::new(SchemeKind::Rlnc, 8, 16)).expect("register");

    let mut blind = ScriptedClient::connect(server.local_addr(), 1, SchemeKind::Rlnc);
    blind.stream.set_write_timeout(Some(Duration::from_millis(100))).expect("write timeout");
    let request = blind.frame(MessageKind::Request, GENERATION_OBJECT, &Message::Request);
    blind.write(&request);
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut sent = 0;
    loop {
        let counters = server.counters();
        if Instant::now() >= deadline || counters.transfers_delivered > bound {
            break;
        }
        let offered = counters.transfers_offered;
        let batch: Vec<u8> = (offered.saturating_sub(window) + 1..=offered)
            .flat_map(|transfer| {
                let feedback = Message::Feedback { transfer, accept: true };
                blind.frame(MessageKind::FeedbackAccept, 0, &feedback)
            })
            .collect();
        sent += offered.min(window);
        // A write that fails (reset by the reap) or blocks ends the
        // sending; a blocked one may have sent part of a frame, which
        // the server, no longer reading, never sees.
        if blind.stream.write_all(&batch).is_err() {
            break;
        }
        thread::sleep(Duration::from_millis(1));
    }
    let delivered = server.counters().transfers_delivered;
    assert!(delivered <= bound, "{delivered} payloads for {sent} blind ACCEPTs");

    // The session went silent when the buffers filled, long before the
    // client stopped; by the end of the idle timeout it is gone.
    thread::sleep(Duration::from_millis(300));
    let report = fetch(server.local_addr(), 2, SchemeKind::Rlnc, &client_options())
        .expect("the blind session was reaped and its place freed");
    assert_eq!(report.object, small);
    drop(blind);
    let _ = server.shutdown();
}

/// The most one TCP connection's buffers can hold in flight, in bytes:
/// the sender's largest send buffer plus the receiver's largest receive
/// buffer (Linux's `tcp_wmem` and `tcp_rmem` maxima; 16 MiB each where
/// they cannot be read).
fn socket_buffer_ceiling() -> u64 {
    let max = |path: &str| {
        std::fs::read_to_string(path)
            .ok()
            .and_then(|limits| limits.split_whitespace().nth(2)?.parse().ok())
            .unwrap_or(16 << 20)
    };
    max("/proc/sys/net/ipv4/tcp_wmem") + max("/proc/sys/net/ipv4/tcp_rmem")
}
