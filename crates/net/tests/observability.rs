//! The swarm observability plane, end to end: a sharded lossy swarm
//! serving one aggregated scrape endpoint verified *mid-run*, and the
//! stall watchdog cutting a flight-recorder post-mortem, which names the
//! wedged node by its topology index, when that node stops all progress.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

use ltnc_net::faults::DatagramFaultPlan;
use ltnc_net::{run_swarm, FlightRecorder, SwarmRuntime, Topology, TopologyConfig, TopologyFaults};
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

/// Runs `topology` from `source` with every link into `victim` dropping
/// everything, so swarm-wide decoding progress flatlines once the
/// healthy peers finish, and returns the watchdog's post-mortem after
/// checking that it is a stall verdict naming exactly the victim.
fn stall_dump(topology: Topology, source: usize, victim: usize) -> JsonValue {
    let mut config = TopologyConfig::quick(SchemeKind::Rlnc, pseudo_file(900, 0xDEAD), topology);
    config.source = source;
    config.code_length = 8;
    config.payload_size = 16;
    config.timeout = Duration::from_secs(4);
    config.runtime = SwarmRuntime::Sharded { workers: 2 };
    let stall_window = Duration::from_millis(400);
    config.flight_recorder = Some(FlightRecorder { capacity: 64, stall_window, dump_path: None });
    for &from in config.topology.neighbors(victim) {
        config
            .link_faults
            .overrides
            .push(((from, victim), DatagramFaultPlan::clean(9).drop_rate(1.0)));
    }

    let report = run_swarm(&config).expect("swarm runs");
    assert!(!report.converged, "the wedged peer must not converge");
    let peers = config.topology.nodes() - 1;
    assert_eq!(report.peers_complete, peers - 1, "healthy peers finish");

    let dump = report.flight_dump.as_deref().expect("watchdog cut a dump");
    let doc = JsonValue::parse(dump).expect("dump is valid JSON");
    assert_eq!(doc.get("kind").and_then(JsonValue::as_str), Some("flight_recorder"));
    assert_eq!(doc.get("reason").and_then(JsonValue::as_str), Some("stall"), "{dump}");
    let field = |name: &str| doc.get(name).and_then(JsonValue::as_i64).expect(name);
    let (at, stalled_at, idle) = (field("at_ms"), field("stalled_at_ms"), field("idle_ms"));
    assert!(stalled_at > 0, "healthy peers made progress before the stall:\n{dump}");
    assert!(idle >= stall_window.as_millis() as i64, "cut before the window closed:\n{dump}");
    assert!(stalled_at + idle <= at, "the stall began before the dump was cut:\n{dump}");
    let stuck = doc.get("stalled_nodes").and_then(JsonValue::as_array).expect("stalled nodes");
    assert_eq!(stuck.len(), 1, "exactly the wedged peer is stuck:\n{dump}");
    assert_eq!(stuck[0].get("node").and_then(JsonValue::as_i64), Some(victim as i64), "{dump}");
    assert_eq!(stuck[0].get("decoded_rank").and_then(JsonValue::as_i64), Some(0));
    doc
}

#[test]
fn watchdog_dumps_a_flight_recording_when_a_node_stalls() {
    let doc = stall_dump(Topology::complete(4), 0, 3);
    let shards = doc.get("shards").and_then(JsonValue::as_array).expect("shards");
    assert_eq!(shards.len(), 2);
    assert!(
        shards.iter().all(|s| s.get("turns").and_then(JsonValue::as_i64).unwrap_or(0) > 0),
        "every shard kept turning"
    );
}

/// The dump names nodes as the topology does, wherever the source sits:
/// here the wedged node 0 sits behind a relay from a mid-line source.
#[test]
fn a_stall_dump_names_the_wedged_node_by_its_topology_index() {
    stall_dump(Topology::line(4), 2, 0);
}
