//! End-to-end validation of the wire-carried trace context on a 4-hop
//! line under 20% per-link loss: (a) run by `run_swarm`, it exposes
//! non-empty `ltnc_*_bucket{le="…"}` latency histograms on the swarm's
//! aggregated scrape endpoint *mid-run*; (b) run in virtual time, it
//! ends with per-hop origin→delivery distributions in the peer reports
//! whose depths reflect the recode lineage the envelopes carried.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use ltnc_net::faults::DatagramFaultPlan;
use ltnc_net::{
    run_swarm, run_virtual_swarm, NodeOptions, Topology, TopologyConfig, TopologyFaults,
    LINK_LATENCY,
};
use ltnc_scheme::SchemeKind;

/// Reserves an ephemeral localhost port: bind, note, release. The tiny
/// reuse race is acceptable in a test.
fn reserve_port() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    listener.local_addr().expect("local addr")
}

/// One HTTP GET against the scrape endpoint, body returned; `None` when
/// the endpoint is not (or no longer) accepting.
fn http_get(addr: SocketAddr, path: &str) -> Option<String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_millis(500)).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    Some(response)
}

/// What the scraper saw mid-run: the first page carrying a non-empty
/// latency bucket, and the `/healthz` answer fetched right after it.
struct MidRun {
    exposition: String,
    healthz: String,
}

fn has_a_filled_bucket(exposition: &str) -> bool {
    exposition.lines().any(|line| {
        line.starts_with("ltnc_wire_delivery_latency_us_bucket")
            && line.contains("le=\"")
            && !line.trim_end().ends_with(" 0")
    })
}

fn object() -> Vec<u8> {
    (0..600u32).map(|i| (i * 31 % 256) as u8).collect()
}

/// Line S(0) - 1 - 2 - 3 - 4 with every directed link dropping 20%.
fn lossy_line() -> TopologyConfig {
    let mut config = TopologyConfig::quick(SchemeKind::Ltnc, object(), Topology::line(5));
    config.code_length = 8;
    config.payload_size = 16;
    config.session = 0x7_EACE;
    config.options = NodeOptions { tick: Duration::from_millis(1), seed: 0xBEEF };
    config.link_faults = TopologyFaults::uniform(DatagramFaultPlan::clean(0xD0_5E).drop_rate(0.2));
    config
}

#[test]
fn four_hop_line_scrapes_latency_histograms_mid_run() {
    let mut config = lossy_line();
    let scrape_addr = reserve_port();
    config.metrics_bind = Some(scrape_addr);

    // Mid-run: poll the aggregated scrape until the merged latency
    // histogram shows up with a filled le-bucket — while the
    // dissemination is still in flight or just done, but before the
    // endpoint goes down with the swarm.
    let done = Arc::new(AtomicBool::new(false));
    let scraper = {
        let done = Arc::clone(&done);
        thread::spawn(move || {
            while !done.load(Ordering::Acquire) {
                if let Some(exposition) = http_get(scrape_addr, "/metrics") {
                    if has_a_filled_bucket(&exposition) {
                        let healthz = http_get(scrape_addr, "/healthz").unwrap_or_default();
                        return Some(MidRun { exposition, healthz });
                    }
                }
                thread::sleep(Duration::from_millis(5));
            }
            None
        })
    };
    let report = run_swarm(&config).expect("swarm runs");
    done.store(true, Ordering::Release);
    let mid_run = scraper.join().expect("scraper thread");

    let MidRun { exposition, healthz } =
        mid_run.expect("mid-run scrape never exposed a filled latency histogram");
    assert!(exposition.contains("le=\"+Inf\""), "histogram must end at +Inf");
    assert!(
        has_a_filled_bucket(&exposition),
        "at least one le-bucket must be non-empty mid-run:\n{exposition}"
    );
    assert!(exposition.contains("ltnc_wire_delivery_latency_us_count"));
    assert!(healthz.contains("ok"), "/healthz must answer: {healthz:?}");

    assert!(report.converged, "line did not converge: {report:?}");
}

#[test]
fn four_hop_line_reports_latency_by_lineage_depth() {
    let report = run_virtual_swarm(&lossy_line());
    assert!(report.converged, "line did not converge: {report:?}");
    assert_eq!(
        report.peer_reports[3].object.as_deref(),
        Some(&object()[..]),
        "bit-exact at 4 hops"
    );
    assert!(report.source_report.latency_by_hop.is_empty(), "the source receives no payloads");

    // Every receiving node recorded origin→delivery latency, keyed by
    // the lineage depth the wire carried. The immediate neighbour of the
    // source must have seen depth-1 data; deeper nodes see deeper
    // lineage (relays recode, so exact depths beyond 1 depend on the
    // gossip paths taken — but depth must never be zero). Origin and
    // delivery are both read off the swarm's one clock, so no latency
    // outlasts the run and the drain of what was in flight at its end.
    let run = u64::try_from((report.elapsed + 3 * LINK_LATENCY).as_micros()).expect("fits");
    for (i, report) in report.peer_reports.iter().enumerate() {
        let node = i + 1;
        assert!(!report.latency_by_hop.is_empty(), "node {node} recorded no latency");
        for (depth, snapshot) in &report.latency_by_hop {
            assert!(*depth >= 1, "links crossed is at least one");
            assert!(snapshot.count() > 0);
            assert!(snapshot.p50() <= snapshot.p99(), "quantiles must be ordered");
            assert!(snapshot.p99() <= snapshot.quantile(1.0));
            assert!(snapshot.max <= run, "node {node}: {} µs in a {run} µs run", snapshot.max);
        }
    }
    let neighbour = &report.peer_reports[0];
    assert!(
        neighbour.latency_by_hop.iter().any(|&(depth, _)| depth == 1),
        "the source's neighbour must see depth-1 deliveries, got {:?}",
        neighbour.latency_by_hop.iter().map(|&(d, _)| d).collect::<Vec<_>>()
    );
}
