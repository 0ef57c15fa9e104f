//! End-to-end validation of the per-link delivery latency on a 4-hop
//! line under 20% per-link loss: (a) run by `run_swarm`, it exposes
//! non-empty `ltnc_*_bucket{le="…"}` latency histograms on the swarm's
//! aggregated scrape endpoint *mid-run*; (b) run in virtual time, every
//! peer's accept→payload latency is exactly two link crossings.

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
fn four_hop_line_reports_exact_link_latency() {
    let report = run_virtual_swarm(&lossy_line());
    assert!(report.converged, "line did not converge: {report:?}");
    assert_eq!(
        report.peer_reports[3].object.as_deref(),
        Some(&object()[..]),
        "bit-exact at 4 hops"
    );
    assert!(report.source_report.link_latency.is_empty(), "the source accepts no offers");

    // Each node measures its own link on its own clock: from its accept
    // to the payload's arrival is the verdict's crossing plus the
    // payload's. The links only drop, so every payload that lands took
    // exactly those two crossings, at every depth of the line.
    let exact = u64::try_from((2 * LINK_LATENCY).as_micros()).expect("fits");
    for (i, report) in report.peer_reports.iter().enumerate() {
        let (node, latency) = (i + 1, &report.link_latency);
        assert!(!latency.is_empty(), "node {node} recorded no latency");
        assert_eq!(latency.max, exact, "node {node}");
        assert_eq!(latency.sum / latency.count(), exact, "node {node}");
        assert_eq!(latency.sum % latency.count(), 0, "node {node}");
    }
}
