//! The shape × scheme matrix: every overlay shape the topology crate
//! can build, under every scheme, converges to the input object bit for
//! bit — and does so the way a multi-hop overlay should.
//!
//! What is asserted is deliberately about *one run*, because anything
//! that depends on traffic volume (datagram counts, fault counts) is
//! timing-dependent:
//!
//! * **clean runs**: every peer converges, every delivered object is
//!   the input object, nothing is injected (there is nothing to inject),
//!   and relays recode wherever the overlay has relays;
//! * **faulty runs**: a pure relay chain converges bit-exactly *through*
//!   15 % per-link loss, actually injected faults, and recoded at its
//!   relays.
//!
//! Replay by seed and worker count is pinned in
//! `sharded_determinism.rs`.

use std::time::Duration;

use ltnc_net::faults::DatagramFaultPlan;
use ltnc_net::NodeOptions;
use ltnc_scheme::SchemeKind;
use ltnc_topo::{run_topology, Topology, TopologyConfig, TopologyFaults, TopologyReport};

fn object(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 37 % 251) as u8).collect()
}

/// Seeded default, overridable for replay like every fault test.
fn fault_seed() -> u64 {
    std::env::var("LTNC_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xF00D_u64)
}

/// Every overlay shape the topology crate can build, smallest useful
/// instance of each.
fn shapes() -> Vec<Topology> {
    vec![
        Topology::line(4),
        Topology::ring(5),
        Topology::star(5),
        Topology::binary_tree(7),
        Topology::complete(5),
        Topology::random_regular(8, 3, 0x7E9),
    ]
}

fn config(scheme: SchemeKind, topology: Topology) -> TopologyConfig {
    let mut config = TopologyConfig::quick(scheme, object(400), topology);
    config.code_length = 8;
    config.payload_size = 16;
    config.timeout = Duration::from_secs(60);
    config.options = NodeOptions { seed: 0xE0_01CE, ..NodeOptions::default() };
    config.session = 0xE0_0000 + u64::from(scheme.wire_id());
    config
}

/// Runs `config` and asserts what every cell must: all peers converged,
/// and each reassembled exactly the input object.
fn run(config: &TopologyConfig) -> TopologyReport {
    let scheme = config.scheme;
    let report = run_topology(config).expect("run starts");
    assert!(
        report.swarm.converged,
        "{scheme:?} on {} did not converge: {}/{} peers in {:?}",
        report.topology_label,
        report.swarm.peers_complete,
        config.topology.nodes() - 1,
        report.swarm.elapsed
    );
    assert!(report.swarm.bit_exact, "{scheme:?} on {} was not bit-exact", report.topology_label);
    for (i, peer) in report.swarm.peer_reports.iter().enumerate() {
        assert_eq!(
            peer.object.as_deref(),
            Some(&config.object[..]),
            "{scheme:?} on {}: peer {} delivered a different object",
            report.topology_label,
            i + 1
        );
    }
    report
}

/// Clean runs: every shape and scheme converges bit-exactly, injects
/// nothing, and exercises relay recoding wherever the overlay actually
/// has relays.
#[test]
fn every_shape_and_scheme_converges_to_the_input_object() {
    for topology in shapes() {
        for scheme in SchemeKind::ALL {
            let report = run(&config(scheme, topology.clone()));
            assert_eq!(report.swarm.total_faults.total(), 0, "a clean run must inject nothing");
            assert_eq!(report.swarm.generations, 4, "400 bytes at k = 8, m = 16");
            if report.max_hops() >= 2 {
                assert!(
                    report.relay_recoding_ops > 0,
                    "{scheme:?} on {}: relays must recode",
                    report.topology_label
                );
            }
        }
    }
}

/// Faulty runs: seeded per-link loss on a pure relay chain. The run
/// must converge bit-exactly through the loss, must have injected
/// faults, and must have recoded at relays.
#[test]
fn lossy_line_converges_bit_exactly_through_the_loss() {
    let plan = DatagramFaultPlan::clean(fault_seed()).drop_rate(0.15);
    for scheme in SchemeKind::ALL {
        let mut config = config(scheme, Topology::line(4));
        config.link_faults = TopologyFaults::uniform(plan);
        let report = run(&config);
        assert!(
            report.swarm.total_faults.total() > 0,
            "{scheme:?}: 15% per-link loss must drop something"
        );
        assert!(report.relay_recoding_ops > 0, "{scheme:?}: relays must recode through loss");
    }
}
