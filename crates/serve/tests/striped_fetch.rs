//! Striped fetching end to end: one object pulled from three replicas
//! over real TCP, merged by rank, bit-exact for every scheme — and the
//! failure modes, driven deterministically by `ltnc_net::faults`.

use std::net::SocketAddr;
use std::time::Duration;

use ltnc_net::faults::{FaultPlan, FaultProxy};
use ltnc_scheme::{SchemeKind, SchemeParams};
use ltnc_serve::striped::MAX_REPLICAS;
use ltnc_serve::{fetch_striped, ClientOptions, ServeError, ServeOptions, Server, StripedOptions};
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
            ..Default::default()
        },
        ..Default::default()
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

        let window = ServeOptions::default().per_session_inflight as u64;
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
        let cut = FaultPlan::clean(0xC0FFEE).disconnect_read_at(4096);
        let proxy = FaultProxy::spawn(servers[0].local_addr(), FaultPlan::clean(1), cut)
            .expect("spawn proxy");
        let addrs = vec![proxy.local_addr(), servers[1].local_addr(), servers[2].local_addr()];

        let options = StripedOptions {
            client: ClientOptions {
                timeout: Duration::from_secs(30),
                stall_timeout: Duration::from_millis(1500),
                ..Default::default()
            },
            ..Default::default()
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
        proxy.shutdown();
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
            connect_timeout: Duration::from_millis(500),
            stall_timeout: Duration::from_millis(500),
        },
        ..Default::default()
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

/// Stress variant for the CI `--include-ignored` job: a bigger object,
/// every scheme, a slow replica (delayed, not dead) plus a hard kill, all
/// from one fixed seed (override with `LTNC_FAULT_SEED`).
#[test]
#[ignore = "stress: run via cargo test -- --include-ignored"]
fn stress_striped_fetch_under_delay_and_kill() {
    let seed =
        std::env::var("LTNC_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xF00D_u64);
    for scheme in SchemeKind::ALL {
        let object = pseudo_object(64 * 1024, seed ^ scheme.wire_id() as u64);
        let params = SchemeParams::new(scheme, 16, 64); // 1 KiB/gen → 64 generations
        let servers = spawn_replicas(3, 11, &object, params, &ServeOptions::default());

        // Replica 0: dies at 16 KiB. Replica 1: alive but slow (2 ms per
        // read) and fragmented. Replica 2: clean.
        let kill = FaultPlan::clean(seed).disconnect_read_at(16 * 1024);
        let slow =
            FaultPlan::clean(seed ^ 1).delay_reads(Duration::from_millis(2)).fragment_reads(512);
        let proxy0 =
            FaultProxy::spawn(servers[0].local_addr(), FaultPlan::clean(2), kill).expect("proxy 0");
        let proxy1 =
            FaultProxy::spawn(servers[1].local_addr(), FaultPlan::clean(3), slow).expect("proxy 1");
        let addrs = vec![proxy0.local_addr(), proxy1.local_addr(), servers[2].local_addr()];

        let options = StripedOptions {
            client: ClientOptions {
                timeout: Duration::from_secs(60),
                stall_timeout: Duration::from_secs(3),
                ..Default::default()
            },
            ..Default::default()
        };
        let report = fetch_striped(&addrs, 11, scheme, &options).expect("stress fetch completes");
        assert_eq!(report.object, object, "{scheme:?}: bit-exact under adversity");
        assert!(report.stripe.failovers >= 1, "{scheme:?}");
        proxy0.shutdown();
        proxy1.shutdown();
        for server in servers {
            let _ = server.shutdown();
        }
    }
}
