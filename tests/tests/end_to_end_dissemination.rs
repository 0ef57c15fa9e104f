//! End-to-end integration tests across the whole workspace: the paper's
//! epidemic (§IV-A), run by the protocol we ship — `ltnc-net`'s node
//! state machine with its header-first handshake, feedback channel,
//! pacing and event clocks — on the virtual-time driver. Real LTNC /
//! RLNC / WC nodes, and every completed node must hold the original
//! content bit for bit.

use std::time::Duration;

use ltnc_net::NodeOptions;
use ltnc_scheme::SchemeKind;
use ltnc_topo::{run_topology_virtual, Topology, TopologyConfig, TopologyReport};

const K: usize = 32;
const M: usize = 16;

/// The paper's setting scaled down: `peers` receivers on a random
/// 16-regular overlay (its 16-peer views) and a source that reaches each
/// of them, one generation of `K` symbols of `M` bytes.
fn epidemic(scheme: SchemeKind, peers: usize, seed: u64) -> TopologyConfig {
    let object = (0..K * M).map(|i| (((i as u64 * 2_654_435_761) >> 7) ^ seed) as u8).collect();
    let overlay = Topology::epidemic(peers, 16, seed);
    let mut config = TopologyConfig::quick(scheme, object, overlay);
    config.code_length = K;
    config.payload_size = M;
    config.options = NodeOptions { seed, ..NodeOptions::default() };
    config.timeout = Duration::from_secs(600);
    config
}

/// Runs `config` and asserts what every run must: every peer converged
/// to the input object.
fn run(config: &TopologyConfig) -> TopologyReport {
    let report = run_topology_virtual(config);
    let scheme = config.scheme.label();
    let swarm = &report.swarm;
    assert!(swarm.converged, "{scheme}: {} peers complete", swarm.peers_complete);
    for peer in &swarm.peer_reports {
        assert_eq!(peer.object.as_deref(), Some(&config.object[..]), "{scheme}: content mismatch");
    }
    report
}

/// Mean completion time over the peers, in gossip ticks.
fn average_ticks(config: &TopologyConfig, report: &TopologyReport) -> f64 {
    let done = &report.swarm.completed_at;
    let ticks =
        done.iter().flatten().map(|at| at.as_secs_f64() / config.options.tick.as_secs_f64());
    ticks.sum::<f64>() / done.len() as f64
}

/// Payloads delivered beyond the `peers × K` necessary, in percent.
fn overhead_percent(report: &TopologyReport) -> f64 {
    let necessary = (report.swarm.peer_reports.len() * K) as f64;
    (report.swarm.total_wire.transfers_delivered as f64 / necessary - 1.0) * 100.0
}

#[test]
fn all_three_schemes_disseminate_the_same_content() {
    for scheme in SchemeKind::ALL {
        let report = run(&epidemic(scheme, 50, 1));
        assert!(report.swarm.bit_exact, "{}: content mismatch", scheme.label());
        assert!(report.swarm.completed_at.iter().all(Option::is_some));
    }
}

#[test]
fn ltnc_trades_overhead_for_decoding_cost() {
    // The traffic half of the paper's headline trade-off, on the protocol
    // we ship: LTNC sends at least as many payloads as RLNC, and both
    // coded schemes complete before WC.
    //
    // The other half — LTNC decodes dramatically cheaper on the data plane —
    // is asserted at the k where the paper makes the claim (k = 2048, Figure
    // 8d) by `ltnc_decodes_with_an_order_of_magnitude_fewer_payload_xors_than_rlnc`
    // in `crates/core/tests/paper_claims.rs`. At k = 32 a Gaussian recipe is
    // as cheap as belief propagation; the gap only opens with k.
    let configs = SchemeKind::ALL.map(|scheme| epidemic(scheme, 50, 2));
    let [wc, ltnc, rlnc] = configs.each_ref().map(run);
    let [wc_ticks, ltnc_ticks, rlnc_ticks] =
        [(&configs[0], &wc), (&configs[1], &ltnc), (&configs[2], &rlnc)]
            .map(|(config, report)| average_ticks(config, report));

    // RLNC's feedback check is exact, yet its overhead is not zero here:
    // a receiver accepts several offers at once, each innovative when it
    // was checked, and the ones that land after an earlier acceptance
    // covered them are redundant. The round model of the paper delivered
    // one packet at a time and read 0 %; this run measures RLNC 14.6 %,
    // LTNC 99.1 % and WC 3.5 %, and completes in 4.0, 6.0 and 17.5 ticks.
    let (ltnc_overhead, rlnc_overhead) = (overhead_percent(&ltnc), overhead_percent(&rlnc));
    assert!(rlnc_overhead > 0.0, "several offers in flight: RLNC reads {rlnc_overhead:.1} %");
    assert!(
        ltnc_overhead >= rlnc_overhead,
        "LTNC {ltnc_overhead:.1} % vs RLNC {rlnc_overhead:.1} %"
    );

    assert!(ltnc_ticks < wc_ticks, "LTNC {ltnc_ticks:.1} ticks vs WC {wc_ticks:.1}");
    assert!(rlnc_ticks < wc_ticks, "RLNC {rlnc_ticks:.1} ticks vs WC {wc_ticks:.1}");
}

#[test]
fn feedback_channel_reduces_wasted_payloads() {
    // The binary feedback channel saves a payload per aborted offer. The
    // protocol we ship has no feedback-off mode to compare against, so
    // the saving is read off its books: every offer is answered once the
    // run's last datagram lands, and a payload crosses the wire only for
    // an offer neither aborted nor lost. (Measured: 1 075 of 4 130 offers
    // aborted, 3 055 payloads.)
    let report = run(&epidemic(SchemeKind::Ltnc, 50, 3));
    let wire = report.swarm.total_wire;
    assert!(wire.transfers_aborted > 0, "feedback should abort some transfers");
    let payloads = wire.payload_bytes_sent / M as u64;
    assert_eq!(payloads, wire.transfers_offered - wire.transfers_aborted - wire.offer_timeouts);
    assert_eq!(payloads, wire.transfers_delivered);
}

#[test]
fn reports_expose_consistent_counters() {
    let config = epidemic(SchemeKind::Ltnc, 50, 4);
    let report = run(&config);
    let wire = report.swarm.total_wire;
    assert!(wire.useful_deliveries <= wire.transfers_delivered);
    assert!(wire.transfers_offered >= wire.transfers_delivered + wire.transfers_aborted);
    let peers = &report.swarm.peer_reports;
    assert!(peers.iter().all(|peer| peer.decoding.total_ops() > 0));
    assert!(report.swarm.source_report.recoding.total_ops() > 0);
    assert!(report.relay_recoding_ops > 0, "peers relay recoded packets");
    // Every node needs at least k useful packets to decode k natives.
    assert!(peers.iter().all(|peer| peer.wire.useful_deliveries >= K as u64));
    let last = report.swarm.completed_at.iter().flatten().max();
    assert_eq!(last, Some(&report.swarm.elapsed), "the run ends with its last completion");
}

#[test]
fn larger_networks_still_converge() {
    let report = run(&epidemic(SchemeKind::Ltnc, 150, 5));
    assert_eq!(report.swarm.peers_complete, 150);
    assert!(report.swarm.bit_exact);
}
