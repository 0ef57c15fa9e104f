//! Observability coverage: a server's live counters, read while a fetch
//! is in flight, stay monotone, and traced servers/striped fetches emit
//! the advertised events.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use ltnc_metrics::ServeCounters;
use ltnc_scheme::{SchemeKind, SchemeParams};
use ltnc_serve::{
    fetch, fetch_striped_traced, ClientOptions, ServeOptions, Server, StripedOptions,
};
use ltnc_telemetry::{samples, RingSink, TraceEvent, Tracer};

const OBJECT_LEN: usize = 24 * 1024;

fn test_object() -> Vec<u8> {
    (0..OBJECT_LEN).map(|i| (i * 131 % 251) as u8).collect()
}

/// Every counter of a snapshot, by the name a scrape gives it.
fn counter_values(counters: &ServeCounters) -> HashMap<&'static str, u64> {
    samples(counters).into_iter().map(|sample| (sample.name, sample.value)).collect()
}

#[test]
fn concurrent_scrapes_during_an_active_fetch_stay_monotonic() {
    let server = Server::spawn("127.0.0.1:0".parse().expect("addr"), ServeOptions::default())
        .expect("spawn");
    server
        .register(7, &test_object(), SchemeParams::new(SchemeKind::Rlnc, 16, 64))
        .expect("register");
    let server = Arc::new(server);
    let fetching = Arc::new(AtomicBool::new(true));

    // Readers poll the live counters while the fetch below is in flight;
    // every counter they observe must be monotone non-decreasing.
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let (server, fetching) = (Arc::clone(&server), Arc::clone(&fetching));
            thread::spawn(move || {
                let mut last = counter_values(&server.counters());
                let mut reads = 1u32;
                while fetching.load(Ordering::Relaxed) || reads < 2 {
                    let now = counter_values(&server.counters());
                    for (name, prev) in &last {
                        let value = now[name];
                        assert!(
                            value >= *prev,
                            "{name} went backwards mid-fetch: {prev} -> {value}"
                        );
                    }
                    last = now;
                    reads += 1;
                    thread::sleep(Duration::from_millis(1));
                }
                reads
            })
        })
        .collect();

    let report = fetch(server.local_addr(), 7, SchemeKind::Rlnc, &ClientOptions::default());
    fetching.store(false, Ordering::Relaxed);
    assert_eq!(report.expect("fetch").object, test_object());
    for reader in readers {
        assert!(reader.join().expect("reader panicked") >= 2);
    }

    // After the fetch, the cumulative view must reflect it.
    let counters = server.counters();
    assert!(counters.sessions_accepted >= 1);
    assert!(counters.sessions_completed >= 1);
    assert!(counters.transfers_delivered >= 1);
    assert!(counters.bytes_out > 0);
    let _ = Arc::into_inner(server).expect("readers joined").shutdown();
}

#[test]
fn traced_server_emits_session_store_and_connection_events() {
    let sink = Arc::new(RingSink::new(65_536));
    let server = Server::spawn_traced(
        "127.0.0.1:0".parse().expect("addr"),
        ServeOptions::default(),
        Some(sink.clone() as _),
    )
    .expect("spawn");
    server
        .register(7, &test_object(), SchemeParams::new(SchemeKind::Rlnc, 16, 64))
        .expect("register");

    let report =
        fetch(server.local_addr(), 7, SchemeKind::Rlnc, &ClientOptions::default()).expect("fetch");
    assert_eq!(report.object.len(), OBJECT_LEN);
    // An unknown object exercises the reject path too.
    let rejected = fetch(server.local_addr(), 404, SchemeKind::Rlnc, &ClientOptions::default());
    assert!(rejected.is_err());
    let _ = server.shutdown();

    let events = sink.drain();
    let has = |name: &str| events.iter().any(|timed| timed.event.name() == name);
    for expected in [
        "connection_opened",
        "connection_closed",
        "session_accepted",
        "session_rejected",
        "session_completed",
        "store_miss",
    ] {
        assert!(has(expected), "no {expected} event in {} events", events.len());
    }
    assert!(events.windows(2).all(|w| w[0].at <= w[1].at), "event timestamps must be monotone");
    // The accepted session is for object 7, the rejected one for 404.
    assert!(events.iter().any(|t| matches!(t.event, TraceEvent::SessionAccepted { object: 7 })));
    assert!(events.iter().any(|t| matches!(t.event, TraceEvent::SessionRejected { object: 404 })));
}

#[test]
fn traced_striped_fetch_emits_failover_and_lease_events() {
    let object = test_object();
    let params = SchemeParams::new(SchemeKind::Rlnc, 16, 64);
    let servers: Vec<Server> = (0..2)
        .map(|replica| {
            let options = ServeOptions { replica_salt: replica + 1, ..ServeOptions::default() };
            let server =
                Server::spawn("127.0.0.1:0".parse().expect("addr"), options).expect("spawn");
            server.register(7, &object, params).expect("register");
            server
        })
        .collect();

    // A third "replica" that refuses connections: bind, note the port,
    // drop the listener before the fetch dials it.
    let dead_addr = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr")
    };
    let mut addrs: Vec<SocketAddr> = servers.iter().map(Server::local_addr).collect();
    addrs.push(dead_addr);

    let sink = Arc::new(RingSink::new(65_536));
    let report = fetch_striped_traced(
        &addrs,
        7,
        SchemeKind::Rlnc,
        &StripedOptions::default(),
        Tracer::new(sink.clone()),
    )
    .expect("striped fetch survives one dead replica");
    assert_eq!(report.object, object);
    for server in servers {
        let _ = server.shutdown();
    }

    let events = sink.drain();
    assert!(
        events.iter().any(|t| matches!(t.event, TraceEvent::ReplicaFailover { replica: 2 })),
        "the dead replica must be declared failed"
    );
    let reassigned: Vec<_> = events
        .iter()
        .filter_map(|t| match t.event {
            TraceEvent::LeaseReassigned { generation, from, to } => Some((generation, from, to)),
            _ => None,
        })
        .collect();
    assert!(!reassigned.is_empty(), "the dead replica's leases must migrate");
    assert!(reassigned.iter().all(|&(_, from, to)| from == 2 && to < 2));
}
