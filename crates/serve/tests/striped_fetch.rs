//! Striped fetching end to end: one object pulled from three replicas
//! over real TCP, merged by rank, bit-exact for every scheme — and the
//! failure modes, a replica cut at an exact byte by a relay.

mod common;

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use common::{relay, Cut};
use ltnc_net::envelope::{MessageKind, MessageView};
use ltnc_net::stream::FrameReassembler;
use ltnc_scheme::{SchemeKind, SchemeParams};
use ltnc_serve::options::PER_SESSION_INFLIGHT;
use ltnc_serve::striped::MAX_REPLICAS;
use ltnc_serve::{
    fetch_striped, ClientOptions, ReplicaConn, ServeError, ServeOptions, Server, StripedOptions,
};
use ltnc_session::SharedReceiver;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn pseudo_object(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut data = vec![0u8; len];
    rng.fill(&mut data[..]);
    data
}

/// Spawns `n` replica servers all carrying `object` under `id`, each with
/// a distinct replica salt.
fn spawn_replicas(
    n: usize,
    id: u64,
    object: &[u8],
    params: SchemeParams,
    options: &ServeOptions,
) -> Vec<Server> {
    (0..n)
        .map(|replica| {
            let options = ServeOptions { replica_salt: replica as u64 + 1, ..*options };
            let server = Server::spawn("127.0.0.1:0".parse().expect("valid addr"), options)
                .expect("spawn replica");
            server.register(id, object, params).expect("register");
            server
        })
        .collect()
}

fn striped_options() -> StripedOptions {
    StripedOptions {
        client: ClientOptions {
            timeout: Duration::from_secs(30),
            stall_timeout: Duration::from_secs(5),
        },
    }
}

#[test]
fn three_replicas_bit_exact_for_every_scheme() {
    for scheme in SchemeKind::ALL {
        let object = pseudo_object(4096, 0x57 ^ scheme.wire_id() as u64);
        let params = SchemeParams::new(scheme, 12, 24); // 288 B/gen → 15 generations
        let servers = spawn_replicas(3, 7, &object, params, &ServeOptions::default());
        let addrs: Vec<SocketAddr> = servers.iter().map(Server::local_addr).collect();

        let report = fetch_striped(&addrs, 7, scheme, &striped_options()).expect("striped fetch");
        assert_eq!(report.object, object, "{scheme:?}: bit-exact merge");
        assert_eq!(report.stripe.failovers, 0, "{scheme:?}: clean run");
        assert_eq!(
            report.stripe.contributing_replicas(),
            3,
            "{scheme:?}: every replica must contribute useful symbols, got {}",
            report.stripe
        );
        // Disjoint leases keep redundancy low, but not zero: offers are
        // pipelined, so an accept made on in-flight state can turn
        // redundant by the time its payload lands (and LTNC's BP-based
        // header check is approximate by design). Bit-exactness above is
        // the correctness bar; this bounds the waste.
        assert!(
            report.stripe.duplicate_rate() < 0.5,
            "{scheme:?}: runaway redundancy, got {}",
            report.stripe
        );

        let window = PER_SESSION_INFLIGHT as u64;
        for (server, stream) in servers.into_iter().zip(&report.stripe.replicas) {
            let counters = server.shutdown();
            assert_eq!(counters.sessions_accepted, 1, "{scheme:?}: one stream per replica");
            assert_eq!(counters.sessions_completed, 1, "{scheme:?}");
            // A clean stripe balances the books per replica: bytes are
            // counted where they cross the socket (the ones the stream
            // only drained at its close included), every verdict the
            // stream sent was read, and what the replica offered beyond
            // those was pending when the session closed.
            assert_eq!(counters.bytes_out, stream.bytes_in, "{scheme:?}");
            assert_eq!(counters.bytes_in, stream.bytes_out, "{scheme:?}");
            assert_eq!(
                counters.transfers_delivered + counters.transfers_aborted,
                stream.offers_seen,
                "{scheme:?}"
            );
            assert_eq!(counters.transfers_aborted, stream.aborted, "{scheme:?}");
            let pending_at_close = counters.transfers_offered - stream.offers_seen;
            assert!(pending_at_close <= window, "{scheme:?}: {pending_at_close} pending");
        }
    }
}

#[test]
fn killing_one_replica_mid_fetch_completes_via_failover() {
    for scheme in SchemeKind::ALL {
        let object = pseudo_object(16 * 1024, 0xDEAD ^ scheme.wire_id() as u64);
        let params = SchemeParams::new(scheme, 16, 32); // 512 B/gen → 32 generations
        let servers = spawn_replicas(3, 9, &object, params, &ServeOptions::default());

        // Replica 0 dies after exactly 4 KiB of server→client traffic:
        // enough for the MANIFEST and a prefix of its symbols, well short
        // of its ~1/3 share of a 16 KiB object.
        let relay = relay(servers[0].local_addr(), 4096, Cut::Disconnect);
        let addrs = vec![relay.addr, servers[1].local_addr(), servers[2].local_addr()];

        let options = StripedOptions {
            client: ClientOptions {
                timeout: Duration::from_secs(30),
                stall_timeout: Duration::from_millis(1500),
            },
        };
        let report = fetch_striped(&addrs, 9, scheme, &options)
            .expect("fetch must survive one replica death");
        assert_eq!(report.object, object, "{scheme:?}: bit-exact after failover");
        assert!(report.stripe.failovers >= 1, "{scheme:?}: the cut must register");
        assert!(report.stripe.replicas[0].failed, "{scheme:?}: replica 0 died");
        assert!(
            report.stripe.generations_releases > 0,
            "{scheme:?}: orphaned generations must migrate, got {}",
            report.stripe
        );
        for server in servers {
            let _ = server.shutdown();
        }
    }
}

#[test]
fn replica_dead_at_connect_is_tolerated() {
    let object = pseudo_object(2048, 33);
    let params = SchemeParams::new(SchemeKind::Rlnc, 8, 32);
    let servers = spawn_replicas(2, 5, &object, params, &ServeOptions::default());

    // Reserve an address nobody listens on by binding and dropping.
    let dead = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr")
    };
    let addrs = vec![dead, servers[0].local_addr(), servers[1].local_addr()];

    let report = fetch_striped(&addrs, 5, SchemeKind::Rlnc, &striped_options())
        .expect("two live replicas suffice");
    assert_eq!(report.object, object);
    assert!(report.stripe.replicas[0].failed);
    assert!(report.stripe.failovers >= 1);
    for server in servers {
        let _ = server.shutdown();
    }
}

#[test]
fn all_replicas_dead_is_a_typed_error() {
    let dead: Vec<SocketAddr> = (0..2)
        .map(|_| {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr")
        })
        .collect();
    let options = StripedOptions {
        client: ClientOptions {
            timeout: Duration::from_secs(2),
            stall_timeout: Duration::from_millis(500),
        },
    };
    match fetch_striped(&dead, 1, SchemeKind::Ltnc, &options) {
        Err(
            ServeError::AllReplicasFailed { .. } | ServeError::Io(_) | ServeError::Disconnected,
        ) => {}
        other => panic!("expected a terminal failure, got {other:?}"),
    }
}

#[test]
fn empty_and_oversized_replica_lists_are_invalid_options() {
    match fetch_striped(&[], 1, SchemeKind::Wc, &StripedOptions::default()) {
        Err(ServeError::InvalidOption { name, .. }) => assert_eq!(name, "replicas"),
        other => panic!("expected InvalidOption, got {other:?}"),
    }
    let addr: SocketAddr = "127.0.0.1:1".parse().expect("addr");
    let too_many = vec![addr; MAX_REPLICAS + 1];
    assert!(matches!(
        fetch_striped(&too_many, 1, SchemeKind::Wc, &StripedOptions::default()),
        Err(ServeError::InvalidOption { .. })
    ));
}

#[test]
fn single_replica_striping_degenerates_to_a_plain_fetch() {
    let object = pseudo_object(3000, 44);
    let params = SchemeParams::new(SchemeKind::Ltnc, 10, 20);
    let servers = spawn_replicas(1, 2, &object, params, &ServeOptions::default());
    let report = fetch_striped(&[servers[0].local_addr()], 2, SchemeKind::Ltnc, &striped_options())
        .expect("single-replica stripe");
    assert_eq!(report.object, object);
    assert_eq!(report.stripe.failovers, 0);
    assert_eq!(report.stripe.contributing_replicas(), 1);
    let _ = servers.into_iter().next().map(Server::shutdown);
}

#[test]
fn a_striped_ltnc_fetch_takes_about_k_payloads_per_generation() {
    // Each replica builds its offers of a generation from the summary the
    // stream sent it, folded with every offer since: the stripe pays no
    // LT decoding overhead (≈ 1.39 k payloads per generation at k = 64
    // from blind ring symbols). A stream summarises a generation's first
    // verdict and its aborts, not every verdict.
    let (k, generations) = (64, 16);
    let object = pseudo_object(k * 64 * generations, 0x5A);
    let params = SchemeParams::new(SchemeKind::Ltnc, k, 64);
    let servers = spawn_replicas(2, 3, &object, params, &ServeOptions::default());
    let addrs: Vec<SocketAddr> = servers.iter().map(Server::local_addr).collect();
    let report = fetch_striped(&addrs, 3, SchemeKind::Ltnc, &striped_options()).expect("fetch");
    assert_eq!(report.object, object);
    let delivered = report.stripe.total_delivered();
    let bound = 1.1 * (k * generations) as f64;
    assert!(delivered as f64 <= bound, "{delivered} payloads for {generations} × {k}");
    for stream in &report.stripe.replicas {
        assert_eq!(stream.generations_leased, generations as u64 / 2);
        let (summaries, most) = (stream.summaries_sent, stream.generations_leased + stream.aborted);
        assert!(summaries > 0 && summaries <= most, "{summaries} summaries, {most} allowed");
    }
    for server in servers {
        let served = server.shutdown();
        assert!(served.smart_offers > 0, "{served}");
    }
}

#[test]
fn a_re_leased_generation_opens_with_a_summary_on_the_survivor() {
    // Replica 0's stream dies mid-fetch after summarising its
    // generations to replica 0. The ones it left unfinished go to a fresh
    // session on replica 1, whose server holds no summary of them: there
    // each one's first verdict carries the summary, before any plain
    // ACCEPT, and the object still arrives bit-exact.
    let (k, generations) = (16, 8);
    let object = pseudo_object(k * 32 * generations as usize, 0x12E);
    let params = SchemeParams::new(SchemeKind::Ltnc, k, 32);
    let servers = spawn_replicas(2, 5, &object, params, &ServeOptions::default());
    let dying = relay(servers[0].local_addr(), 4096, Cut::Disconnect);
    let survivor = relay(servers[1].local_addr(), u64::MAX, Cut::Disconnect);
    let options = striped_options().client;

    let (mut conn, manifest) =
        ReplicaConn::open(dying.addr, 5, SchemeKind::Ltnc, &options).expect("open replica 0");
    let receiver = SharedReceiver::new(manifest);
    let every: Vec<u32> = (0..generations).collect();
    assert!(conn.fetch_generations(&every, &receiver, &options).is_err(), "replica 0 died");
    assert!(conn.wire_counters().summaries_sent > 0);
    let orphans: Vec<u32> =
        every.iter().copied().filter(|&g| !receiver.generation_complete(g)).collect();
    assert!(!orphans.is_empty(), "replica 0 finished everything before dying");

    let (mut conn, _) =
        ReplicaConn::open(survivor.addr, 5, SchemeKind::Ltnc, &options).expect("open replica 1");
    conn.fetch_generations(&orphans, &receiver, &options).expect("the survivor finishes");
    assert_eq!(receiver.reassemble(), Some(object));
    drop(conn);

    let sent = survivor.client_bytes.recv_timeout(Duration::from_secs(5)).expect("client bytes");
    let mut reassembler = FrameReassembler::new();
    reassembler.extend(&sent);
    let mut first_verdicts: BTreeMap<u32, MessageKind> = BTreeMap::new();
    while let Some(frame) = reassembler.next_frame_view().expect("well framed") {
        if let MessageView::Feedback { .. } | MessageView::FeedbackSummary { .. } = frame.message {
            first_verdicts.entry(frame.header.generation).or_insert(frame.header.kind);
        }
    }
    for generation in orphans {
        let first = first_verdicts.get(&generation);
        assert!(
            matches!(first, Some(MessageKind::AcceptSummary | MessageKind::AbortSummary)),
            "generation {generation} opened with {first:?}"
        );
    }
    for server in servers {
        let _ = server.shutdown();
    }
}

#[test]
fn a_replica_serving_a_different_object_is_dropped_not_merged() {
    // Same id, different content/params on replica 1: its manifest
    // disagrees, so it must be excluded and the fetch served by the rest.
    let object = pseudo_object(2048, 55);
    let params = SchemeParams::new(SchemeKind::Rlnc, 8, 32);
    let good = spawn_replicas(2, 3, &object, params, &ServeOptions::default());
    let impostor = Server::spawn(
        "127.0.0.1:0".parse().expect("addr"),
        ServeOptions { replica_salt: 99, ..Default::default() },
    )
    .expect("spawn impostor");
    impostor
        .register(3, &pseudo_object(4096, 56), SchemeParams::new(SchemeKind::Rlnc, 16, 16))
        .expect("register impostor");

    let addrs = vec![good[0].local_addr(), impostor.local_addr(), good[1].local_addr()];
    let report = fetch_striped(&addrs, 3, SchemeKind::Rlnc, &striped_options())
        .expect("good replicas carry the fetch");
    assert_eq!(report.object, object);
    assert!(report.stripe.replicas[1].failed, "impostor must be marked failed");
    let _ = impostor.shutdown();
    for server in good {
        let _ = server.shutdown();
    }
}

#[test]
fn a_replica_silent_at_the_handshake_is_failed_over_before_any_stream_starts() {
    let object = pseudo_object(8 * 1024, 0x5117);
    let params = SchemeParams::new(SchemeKind::Rlnc, 16, 32); // 512 B/gen → 16 generations
    let servers = spawn_replicas(3, 4, &object, params, &ServeOptions::default());

    // Replica 1 accepts the connection and then says nothing at all: not
    // even its MANIFEST reaches the client.
    let silent = relay(servers[1].local_addr(), 0, Cut::Stall);
    let addrs = vec![servers[0].local_addr(), silent.addr, servers[2].local_addr()];

    let stall_timeout = Duration::from_millis(1500);
    let options = StripedOptions {
        client: ClientOptions { timeout: Duration::from_secs(30), stall_timeout },
    };
    let report = fetch_striped(&addrs, 4, SchemeKind::Rlnc, &options)
        .expect("two answering replicas carry the fetch");
    assert_eq!(report.object, object);
    assert!(report.stripe.replicas[1].failed, "the silent replica must be marked failed");
    assert!(
        report.stripe.generations_releases > 0,
        "the silent replica's generations must migrate, got {}",
        report.stripe
    );
    assert!(
        report.elapsed < stall_timeout + Duration::from_secs(5),
        "took {:?} past a {stall_timeout:?} handshake stall",
        report.elapsed
    );
    drop(silent);
    for server in servers {
        let _ = server.shutdown();
    }
}

#[test]
fn no_stream_outlives_the_fetch_deadline() {
    let object = pseudo_object(4096, 0xDEAD1);
    let params = SchemeParams::new(SchemeKind::Rlnc, 16, 32);
    let servers = spawn_replicas(2, 6, &object, params, &ServeOptions::default());

    // Replica 0 answers the handshake (its MANIFEST is 35 bytes) and then
    // withholds everything; replica 1 withholds even its MANIFEST, so the
    // stream on replica 0 starts only once replica 1's handshake has
    // stalled out, three quarters into the fetch's deadline.
    let mute = relay(servers[0].local_addr(), 40, Cut::Stall);
    let silent = relay(servers[1].local_addr(), 0, Cut::Stall);
    let addrs = vec![mute.addr, silent.addr];

    let timeout = Duration::from_secs(2);
    let options = StripedOptions {
        client: ClientOptions { timeout, stall_timeout: Duration::from_millis(1500) },
    };
    let started = Instant::now();
    match fetch_striped(&addrs, 6, SchemeKind::Rlnc, &options) {
        Err(ServeError::TimedOut | ServeError::AllReplicasFailed { .. }) => {}
        other => panic!("expected the fetch to run out of time, got {other:?}"),
    }
    // The stream on replica 0 ends at the fetch's deadline, within a few
    // read timeouts, not a whole stall window after it started.
    let closed = mute.client_closed.recv_timeout(Duration::from_secs(10)).expect("stream closed");
    let lived = closed.duration_since(started);
    assert!(
        lived < timeout + Duration::from_millis(300),
        "a stream closed {lived:?} into a fetch with a {timeout:?} deadline"
    );
    drop((mute, silent));
    for server in servers {
        let _ = server.shutdown();
    }
}

/// Stress variant for the CI `--include-ignored` job: a bigger object,
/// every scheme, one replica killed mid-fetch, the object drawn from one
/// fixed seed (override with `LTNC_FAULT_SEED`).
#[test]
#[ignore = "stress: run via cargo test -- --include-ignored"]
fn stress_striped_fetch_under_delay_and_kill() {
    let seed =
        std::env::var("LTNC_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xF00D_u64);
    for scheme in SchemeKind::ALL {
        let object = pseudo_object(64 * 1024, seed ^ scheme.wire_id() as u64);
        let params = SchemeParams::new(scheme, 16, 64); // 1 KiB/gen → 64 generations
        let servers = spawn_replicas(3, 11, &object, params, &ServeOptions::default());

        // Replica 0 dies at 16 KiB; replicas 1 and 2 are clean.
        let relay = relay(servers[0].local_addr(), 16 * 1024, Cut::Disconnect);
        let addrs = vec![relay.addr, servers[1].local_addr(), servers[2].local_addr()];

        let options = StripedOptions {
            client: ClientOptions {
                timeout: Duration::from_secs(60),
                stall_timeout: Duration::from_secs(3),
            },
        };
        let report = fetch_striped(&addrs, 11, scheme, &options).expect("stress fetch completes");
        assert_eq!(report.object, object, "{scheme:?}: bit-exact under adversity");
        assert!(report.stripe.failovers >= 1, "{scheme:?}");
        for server in servers {
            let _ = server.shutdown();
        }
    }
}
