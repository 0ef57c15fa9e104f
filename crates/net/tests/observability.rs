//! The swarm observability plane, end to end: a sharded lossy swarm
//! serving one aggregated scrape endpoint verified *mid-run*, and the
//! stall watchdog cutting a flight-recorder post-mortem, which names the
//! wedged node by its topology index, when that node stops all progress.
//!
//! The watchdog's verdict is the same on both drivers, so it is pinned
//! exactly in virtual time; the one reactor stall test checks only what
//! the reactor adds to a dump, its shards.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

use ltnc_net::faults::DatagramFaultPlan;
use ltnc_net::{
    run_swarm, run_virtual_swarm, FlightRecorder, SwarmReport, SwarmRuntime, Topology,
    TopologyConfig, TopologyFaults,
};
use ltnc_scheme::SchemeKind;
use ltnc_telemetry::json::JsonValue;

fn pseudo_file(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect()
}

/// Reserves an ephemeral localhost port: bind, note, release. The tiny
/// reuse race is acceptable in a test.
fn reserve_port() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    listener.local_addr().expect("local addr")
}

/// Minimal HTTP/1.0 GET against the scrape endpoint; `None` when the
/// endpoint is no longer accepting (the run is over).
fn http_get(addr: SocketAddr, path: &str) -> Option<String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_millis(500)).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    let body = response.split_once("\r\n\r\n")?.1;
    Some(body.to_string())
}

/// Sum of one metric over every label combination in a Prometheus page.
fn metric_sum(page: &str, name: &str) -> u64 {
    page.lines()
        .filter(|line| {
            line.starts_with(name)
                && matches!(line.as_bytes().get(name.len()), Some(b' ') | Some(b'{'))
        })
        .filter_map(|line| line.rsplit(' ').next())
        .filter_map(|value| value.parse::<u64>().ok())
        .sum()
}

#[test]
fn sharded_swarm_serves_one_aggregated_endpoint_mid_run() {
    let addr = reserve_port();
    let object = pseudo_file(16 * 1024, 0x0B5E_0EE5);
    let mut config = TopologyConfig::quick(SchemeKind::Ltnc, object, Topology::complete(7));
    config.code_length = 16;
    config.payload_size = 32;
    config.timeout = Duration::from_secs(60);
    config.runtime = SwarmRuntime::Sharded { workers: 3 };
    config.metrics_bind = Some(addr);
    config.link_faults = TopologyFaults::uniform(DatagramFaultPlan::clean(0x10af).drop_rate(0.15));

    let swarm = thread::spawn(move || run_swarm(&config));

    // Scrape until the endpoint goes down with the run; every page must
    // carry reactor samples, and the scheduler counters must be
    // monotone scrape over scrape.
    let mut turns_seen: Vec<u64> = Vec::new();
    let mut saw_decoder = false;
    let mut saw_wire = false;
    for _ in 0..600 {
        let Some(page) = http_get(addr, "/metrics") else {
            if swarm.is_finished() {
                break;
            }
            thread::sleep(Duration::from_millis(25));
            continue;
        };
        assert!(
            page.contains("ltnc_reactor_turns"),
            "mid-run page must carry reactor samples:\n{page}"
        );
        turns_seen.push(metric_sum(&page, "ltnc_reactor_turns"));
        saw_decoder |= page.contains("ltnc_decoder_nodes");
        saw_wire |= page.contains("ltnc_wire_datagrams_sent");
        thread::sleep(Duration::from_millis(25));
    }

    let report = swarm.join().expect("swarm thread").expect("swarm runs");
    assert!(report.converged && report.bit_exact, "lossy sharded swarm converged: {report:?}");
    assert!(turns_seen.len() >= 2, "needed at least two mid-run scrapes, got {turns_seen:?}");
    assert!(turns_seen.windows(2).all(|w| w[0] <= w[1]), "non-monotone turns: {turns_seen:?}");
    assert!(*turns_seen.last().unwrap() > 0, "shards never turned: {turns_seen:?}");
    assert!(saw_decoder, "decoder progress family missing from every scrape");
    assert!(saw_wire, "rolled-up wire family missing from every scrape");

    // The run's final reactor rollup mirrors what the endpoint served.
    assert_eq!(report.reactor.len(), 3, "one snapshot per shard");
    let total_turns: u64 = report.reactor.iter().map(|s| s.turns).sum();
    assert!(total_turns >= *turns_seen.last().unwrap(), "report rollup behind last scrape");
    assert_eq!(report.reactor.iter().map(|s| s.nodes).sum::<u64>(), 7, "all nodes partitioned");
}

/// `topology` from `source` with every link into `victim` dropping
/// everything, so swarm-wide decoding progress flatlines once the
/// healthy peers finish; the flight recorder watches for a 400 ms stall.
fn wedged(topology: Topology, source: usize, victim: usize) -> TopologyConfig {
    let mut config = TopologyConfig::quick(SchemeKind::Rlnc, pseudo_file(900, 0xDEAD), topology);
    config.source = source;
    config.code_length = 8;
    config.payload_size = 16;
    config.timeout = Duration::from_secs(4);
    config.runtime = SwarmRuntime::Sharded { workers: 2 };
    let stall_window = Duration::from_millis(400);
    config.flight_recorder = Some(FlightRecorder { stall_window, dump_path: None });
    for &from in config.topology.neighbors(victim) {
        config
            .link_faults
            .overrides
            .push(((from, victim), DatagramFaultPlan::clean(9).drop_rate(1.0)));
    }
    config
}

/// The post-mortem of a `wedged` run, after checking that only the
/// victim failed to converge and that the dump names exactly it, by its
/// topology index, as stuck with nothing decoded.
fn dump_naming(report: &SwarmReport, config: &TopologyConfig, victim: usize) -> JsonValue {
    assert!(!report.converged, "the wedged peer must not converge");
    let peers = config.topology.nodes() - 1;
    assert_eq!(report.peers_complete, peers - 1, "healthy peers finish");
    let dump = report.flight_dump.as_deref().expect("the run cut a dump");
    let doc = JsonValue::parse(dump).expect("dump is valid JSON");
    assert_eq!(doc.get("kind").and_then(JsonValue::as_str), Some("flight_recorder"));
    let stuck = doc.get("stalled_nodes").and_then(JsonValue::as_array).expect("stalled nodes");
    assert_eq!(stuck.len(), 1, "exactly the wedged peer is stuck:\n{dump}");
    assert_eq!(stuck[0].get("node").and_then(JsonValue::as_i64), Some(victim as i64), "{dump}");
    assert_eq!(stuck[0].get("decoded_rank").and_then(JsonValue::as_i64), Some(0));
    doc
}

/// The reactor's dump carries what only a reactor has: every shard, its
/// counters and its ring, with the watchdog's mark in it.
#[test]
fn watchdog_dumps_a_flight_recording_when_a_node_stalls() {
    let mut config = wedged(Topology::complete(4), 0, 3);
    config.timeout = Duration::from_secs(2);
    let report = run_swarm(&config).expect("swarm runs");
    let doc = dump_naming(&report, &config, 3);
    assert_eq!(doc.get("reason").and_then(JsonValue::as_str), Some("stall"));
    let shards = doc.get("shards").and_then(JsonValue::as_array).expect("shards");
    assert_eq!(shards.len(), 2);
    assert!(
        shards.iter().all(|s| s.get("turns").and_then(JsonValue::as_i64).unwrap_or(0) > 0),
        "every shard kept turning"
    );
    let marked = shards.iter().any(|shard| {
        let events = shard.get("events").and_then(JsonValue::as_array);
        events
            .into_iter()
            .flatten()
            .any(|event| event.get("event").and_then(JsonValue::as_str) == Some("stall_detected"))
    });
    assert!(marked, "no ring holds the stall mark");
}

/// The dump names nodes as the topology does, wherever the source sits:
/// here the wedged node 0 sits behind a relay from a mid-line source.
/// In virtual time the verdict is exact and replays byte for byte.
#[test]
fn a_stall_dump_names_the_wedged_node_by_its_topology_index() {
    let config = wedged(Topology::line(4), 2, 0);
    let report = run_virtual_swarm(&config);
    let doc = dump_naming(&report, &config, 0);
    let field = |name: &str| doc.get(name).and_then(JsonValue::as_i64).expect(name);
    assert_eq!(doc.get("reason").and_then(JsonValue::as_str), Some("stall"));
    // The healthy peers' last progress, then the first event a whole
    // window later, on the virtual clock.
    assert_eq!((field("stalled_at_ms"), field("idle_ms"), field("at_ms")), (11, 400, 412));
    assert_eq!((field("workers"), field("stall_window_ms")), (0, 400));
    assert_eq!(doc.get("shards").and_then(JsonValue::as_array).map(|s| s.len()), Some(0));
    assert_eq!(run_virtual_swarm(&config).flight_dump, report.flight_dump, "the dump replays");
}

/// A run that ends at its timeout before any stall window closes cuts
/// the shutdown-timeout dump instead, at the deadline.
#[test]
fn a_virtual_run_cut_by_its_timeout_dumps_the_stuck_node() {
    let mut config = wedged(Topology::line(4), 2, 0);
    config.timeout = Duration::from_millis(300);
    let report = run_virtual_swarm(&config);
    let doc = dump_naming(&report, &config, 0);
    assert_eq!(doc.get("reason").and_then(JsonValue::as_str), Some("shutdown_timeout"));
    assert_eq!(doc.get("at_ms").and_then(JsonValue::as_i64), Some(300));
    assert!(doc.get("idle_ms").is_none() && doc.get("stalled_at_ms").is_none(), "no stall");
}
