//! The 1000-node k-regular swarm on the sharded runtime — the scale the
//! reactor exists for, as a real, replayable scenario rather than a
//! thought experiment.
//!
//! Ignored by default (it is a scale test, tens of seconds per scheme);
//! CI runs it via `--include-ignored` with a fixed `LTNC_FAULT_SEED`.
//! Degree 4 keeps the pairing-model `random_regular` construction
//! reliable at this size (acceptance probability collapses for larger
//! degrees at 1000 nodes), and `nodes × degree` stays even as the
//! construction requires.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use ltnc_net::faults::DatagramFaultPlan;
use ltnc_net::NodeOptions;
use ltnc_scheme::SchemeKind;
use ltnc_topo::{run_topology, SwarmRuntime, Topology, TopologyConfig, TopologyFaults};

const NODES: usize = 1000;
const DEGREE: usize = 4;

/// Reserves an ephemeral localhost port: bind, note, release.
fn reserve_port() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    listener.local_addr().expect("local addr")
}

/// One best-effort HTTP/1.0 GET against the aggregated endpoint.
fn scrape(addr: SocketAddr) -> Option<String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_millis(500)).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    write!(stream, "GET /metrics HTTP/1.0\r\n\r\n").ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    Some(response.split_once("\r\n\r\n")?.1.to_string())
}

fn fault_seed() -> u64 {
    std::env::var("LTNC_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xF00D_u64)
}

fn object(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 29 % 255) as u8).collect()
}

#[test]
#[ignore = "1000-node scale run; CI includes it explicitly"]
fn thousand_node_k_regular_swarm_converges_bit_exactly_under_loss() {
    let seed = fault_seed();
    for scheme in SchemeKind::ALL {
        let topology = Topology::random_regular(NODES, DEGREE, 0x1000 ^ seed);
        let mut config = TopologyConfig::quick(scheme, object(512), topology);
        config.code_length = 8;
        config.payload_size = 32;
        // A gentler tick than the 2ms default: 1000 state machines on a
        // couple of cores saturate on timer pressure alone at 2ms, and
        // the epidemic needs rounds, not frequency.
        config.options = NodeOptions {
            seed: 0x1_000 + u64::from(scheme.wire_id()),
            tick: Duration::from_millis(10),
        };
        config.session = 0x1000_0000 + u64::from(scheme.wire_id());
        config.timeout = Duration::from_secs(180);
        config.link_faults =
            TopologyFaults::uniform(DatagramFaultPlan::clean(seed).drop_rate(0.05));
        config.runtime = SwarmRuntime::Sharded { workers: 4 };
        // One aggregated endpoint for all 1000 nodes, scraped mid-run by
        // a sidecar thread — the scalable observability story this swarm
        // size forces.
        let metrics_addr = reserve_port();
        config.metrics_bind = Some(metrics_addr);
        let done = Arc::new(AtomicBool::new(false));
        let scraper = {
            let done = Arc::clone(&done);
            thread::spawn(move || {
                let mut reactor_pages = 0u32;
                while !done.load(Ordering::Acquire) {
                    if let Some(page) = scrape(metrics_addr) {
                        if page.contains("ltnc_reactor_turns") {
                            reactor_pages += 1;
                        }
                    }
                    thread::sleep(Duration::from_millis(200));
                }
                reactor_pages
            })
        };

        let report = run_topology(&config).expect("1000-node run starts");
        done.store(true, Ordering::Release);
        let reactor_pages = scraper.join().expect("scraper thread");
        assert!(reactor_pages > 0, "{scheme:?}: no mid-run scrape carried ltnc_reactor_* samples");
        assert_eq!(report.swarm.reactor.len(), 4, "{scheme:?}: one snapshot per shard");
        assert_eq!(
            report.swarm.reactor.iter().map(|s| s.nodes).sum::<u64>(),
            NODES as u64,
            "{scheme:?}: every node partitioned onto a shard"
        );
        assert!(
            report.swarm.converged,
            "{scheme:?}: only {}/{} peers completed in {:?}",
            report.swarm.peers_complete,
            NODES - 1,
            report.swarm.elapsed
        );
        assert!(report.swarm.bit_exact, "{scheme:?}: reconstruction mismatch at 1000 nodes");
        assert!(
            report.swarm.total_faults.total() > 0,
            "{scheme:?}: 5% per-link loss must inject faults"
        );
        assert!(report.relay_recoding_ops > 0, "{scheme:?}: relays must recode at scale");
        eprintln!(
            "{scheme:?}: 1000 nodes converged in {:?} ({} hops max, {} faults injected)",
            report.swarm.elapsed,
            report.max_hops(),
            report.swarm.total_faults.total()
        );
    }
}
