//! The shape × scheme matrix: every overlay shape the topology crate
//! can build, under every scheme, on both drivers — the reactor and the
//! virtual-time driver — converges to the input object bit for bit, and
//! does so the way a multi-hop overlay should.
//!
//! What is asserted is deliberately about *one run*, because on the
//! reactor anything that depends on traffic volume (datagram counts,
//! fault counts) is timing-dependent:
//!
//! * **clean runs**: every peer converges, every delivered object is
//!   the input object, nothing is injected (there is nothing to inject),
//!   and relays recode wherever the overlay has relays;
//! * **faulty runs**: a pure relay chain converges bit-exactly *through*
//!   15 % per-link loss, actually injected faults, and recoded at its
//!   relays.
//!
//! Replay is pinned in `sharded_determinism.rs` (outcomes, reactor) and
//! `virtual_replay.rs` (everything, virtual time).

use std::time::Duration;

use ltnc_net::faults::DatagramFaultPlan;
use ltnc_net::NodeOptions;
use ltnc_scheme::SchemeKind;
use ltnc_topo::{
    run_topology, run_topology_virtual, Topology, TopologyConfig, TopologyFaults, TopologyReport,
};

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

/// Runs `config` on both drivers and asserts what every cell must: all
/// peers converged, and each reassembled exactly the input object.
fn run(config: &TopologyConfig) -> [(&'static str, TopologyReport); 2] {
    let scheme = config.scheme;
    let reports = [
        ("reactor", run_topology(config).expect("run starts")),
        ("virtual", run_topology_virtual(config)),
    ];
    for (driver, report) in &reports {
        let cell = format!("{scheme:?} on {} ({driver})", report.topology_label);
        assert!(
            report.swarm.converged,
            "{cell} did not converge: {}/{} peers in {:?}",
            report.swarm.peers_complete,
            config.topology.nodes() - 1,
            report.swarm.elapsed
        );
        assert!(report.swarm.bit_exact, "{cell} was not bit-exact");
        for (i, peer) in report.swarm.peer_reports.iter().enumerate() {
            let delivered = peer.object.as_deref();
            assert_eq!(delivered, Some(&config.object[..]), "{cell}: peer {} differs", i + 1);
        }
    }
    reports
}

/// Clean runs: every shape and scheme converges bit-exactly, injects
/// nothing, and exercises relay recoding wherever the overlay actually
/// has relays.
#[test]
fn every_shape_and_scheme_converges_to_the_input_object() {
    for topology in shapes() {
        for scheme in SchemeKind::ALL {
            for (driver, report) in run(&config(scheme, topology.clone())) {
                assert_eq!(report.swarm.total_faults.total(), 0, "a clean run injects nothing");
                assert_eq!(report.swarm.generations, 4, "400 bytes at k = 8, m = 16");
                if report.max_hops() >= 2 {
                    assert!(
                        report.relay_recoding_ops > 0,
                        "{scheme:?} on {} ({driver}): relays must recode",
                        report.topology_label
                    );
                }
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
        for (driver, report) in run(&config) {
            let faults = report.swarm.total_faults.total();
            assert!(faults > 0, "{scheme:?} ({driver}): 15% per-link loss must drop something");
            assert!(report.relay_recoding_ops > 0, "{scheme:?} ({driver}): relays must recode");
        }
    }
}
