//! Replay in virtual time. The virtual-time driver runs the node we
//! ship with no clock and no socket, so one seed is one run: every
//! counter, fault tally, latency histogram and virtual time, byte for
//! byte — a failure is a seed, not a flake.
//!
//! The two scale tests are `#[ignore]`d; CI runs them in release, in
//! well under a minute:
//!
//! ```text
//! cargo test --release -p ltnc-topo --test virtual_replay -- --ignored
//! ```

use ltnc_net::faults::DatagramFaultPlan;
use ltnc_net::NodeOptions;
use ltnc_scheme::SchemeKind;
use ltnc_topo::{run_topology_virtual, Topology, TopologyConfig, TopologyFaults};

fn object(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 29 % 255) as u8).collect()
}

/// `scheme` on `topology`, every link dropping `loss` of its datagrams,
/// everything seeded by `seed`.
fn lossy(scheme: SchemeKind, topology: Topology, loss: f64, seed: u64) -> TopologyConfig {
    let mut config = TopologyConfig::quick(scheme, object(512), topology);
    config.code_length = 8;
    config.payload_size = 32;
    config.options = NodeOptions { seed, ..NodeOptions::default() };
    config.link_faults = TopologyFaults::uniform(DatagramFaultPlan::clean(seed).drop_rate(loss));
    config
}

#[test]
fn a_lossy_virtual_run_replays_its_whole_report() {
    for scheme in SchemeKind::ALL {
        let config = lossy(scheme, Topology::random_regular(8, 3, 0xDE7), 0.1, 0x5EED);
        let first = run_topology_virtual(&config);
        assert!(first.swarm.converged && first.swarm.bit_exact, "{scheme:?}: {first:?}");
        assert!(first.swarm.total_faults.total() > 0, "{scheme:?}: the loss must bite");
        assert_eq!(format!("{first:?}"), format!("{:?}", run_topology_virtual(&config)));
    }
}

#[test]
#[ignore = "1000-node scale run; CI runs it in release"]
fn a_thousand_node_overlay_at_five_percent_loss_replays_exactly() {
    let topology = Topology::random_regular(1000, 4, 0x1000);
    let config = lossy(SchemeKind::Ltnc, topology, 0.05, 0xF00D);
    let first = run_topology_virtual(&config).swarm;
    assert!(first.converged && first.bit_exact, "{} peers complete", first.peers_complete);
    assert!(first.total_faults.total() > 0, "5% per-link loss must drop something");
    assert_eq!(format!("{first:?}"), format!("{:?}", run_topology_virtual(&config).swarm));
}

#[test]
#[ignore = "seed sweep; CI runs it in release"]
fn a_thousand_seeds_of_a_lossy_line_converge_bit_exactly() {
    for seed in 0..1_000u64 {
        let scheme = SchemeKind::ALL[seed as usize % 3];
        let report = run_topology_virtual(&lossy(scheme, Topology::line(20), 0.1, seed)).swarm;
        assert!(
            report.converged && report.bit_exact,
            "seed {seed} ({scheme:?}): {}/19 peers complete, bit-exact {}",
            report.peers_complete,
            report.bit_exact
        );
    }
}
