//! The flat overlay: on [`Topology::complete`] every peer is one hop
//! from the source, and no node ever pushes at the source.
//!
//! Push sets are internal to the drivers (their exact shape is a unit
//! test of `ltnc-net`), so these tests read them off what a run leaves
//! behind: a node keeps a loss estimate, keyed by address, for every
//! node it offered a transfer to and saw answer or time out.

use std::net::SocketAddr;
use std::time::Duration;

use ltnc_net::faults::DatagramFaultPlan;
use ltnc_net::{NodeOptions, SwarmReport};
use ltnc_scheme::SchemeKind;
use ltnc_topo::{
    run_topology, run_topology_virtual, SwarmRuntime, Topology, TopologyConfig, TopologyFaults,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One fixed seed for every fault decision in this file (override with
/// `LTNC_FAULT_SEED` to replay a CI failure locally).
fn fault_seed() -> u64 {
    std::env::var("LTNC_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xF00D_u64)
}

fn pseudo_file(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut data = vec![0u8; len];
    rng.fill(&mut data[..]);
    data
}

/// The addresses each node offered transfers to, by topology index: the
/// source's first, then the peers' in topology order.
fn offered_to(swarm: &SwarmReport) -> Vec<Vec<SocketAddr>> {
    swarm
        .node_reports()
        .map(|report| report.loss_estimates.iter().map(|&(addr, _)| addr).collect())
        .collect()
}

#[test]
fn every_size_is_one_hop_and_no_node_pushes_at_the_source() {
    for nodes in 2..=13 {
        for source in [0, nodes / 2, nodes - 1] {
            let mut config = TopologyConfig::quick(
                SchemeKind::Rlnc,
                pseudo_file(256, nodes as u64),
                Topology::complete(nodes),
            );
            config.code_length = 8;
            config.payload_size = 16;
            config.source = source;
            let report = run_topology_virtual(&config);
            let case = format!("complete({nodes}), source {source}");
            assert!(report.swarm.converged && report.swarm.bit_exact, "{case}: {report:?}");
            let expected: Vec<usize> =
                (0..nodes).map(|index| usize::from(index != source)).collect();
            assert_eq!(report.distances, expected, "{case}");
            assert_eq!(report.max_hops(), 1, "{case}");

            // A node offers only to the nodes it pushes to, so no node
            // ever holds an estimate for the source or for itself.
            let addrs = &report.swarm.node_addrs;
            let offered = offered_to(&report.swarm);
            assert!(!offered[0].is_empty(), "{case}: the source offered to no one");
            let indices = std::iter::once(source).chain((0..nodes).filter(|&i| i != source));
            for (index, targets) in indices.zip(offered) {
                assert!(
                    !targets.contains(&addrs[source]),
                    "{case}: node {index} offered to the source"
                );
                assert!(!targets.contains(&addrs[index]), "{case}: node {index} offered to itself");
                assert!(targets.iter().all(|addr| addrs.contains(addr)), "{case}: {targets:?}");
            }
        }
    }
}

#[test]
fn every_scheme_converges_and_attributes_its_seeded_link_faults() {
    for scheme in SchemeKind::ALL {
        let mut config = TopologyConfig::quick(
            scheme,
            pseudo_file(600, 0x10AD ^ u64::from(scheme.wire_id())),
            Topology::complete(5),
        );
        config.code_length = 8;
        config.payload_size = 16;
        config.options =
            NodeOptions { seed: 0x5EED ^ u64::from(scheme.wire_id()), ..NodeOptions::default() };
        config.timeout = Duration::from_secs(60);
        config.session = 0xE0_0000 + u64::from(scheme.wire_id());
        config.runtime = SwarmRuntime::Sharded { workers: 2 };
        config.link_faults = TopologyFaults::uniform(
            DatagramFaultPlan::clean(fault_seed())
                .drop_rate(0.20)
                .reorder(0.10, 8)
                .duplicate_rate(0.05),
        );
        let report = run_topology(&config).expect("topology run starts");

        let swarm = &report.swarm;
        assert!(swarm.converged && swarm.bit_exact, "{scheme:?}: complete(5) run failed");
        assert_eq!(swarm.peers_complete, 4, "{scheme:?}");
        assert_eq!(swarm.generations, 5, "{scheme:?}: 600 bytes in generations of 8 × 16");
        assert!(swarm.total_faults.dropped_in > 0, "{scheme:?}: the run was not lossy");
        assert_eq!(report.distances, vec![0, 1, 1, 1, 1]);
        assert_eq!(report.max_hops(), 1);
        // Every injected drop is attributed to a directed link between
        // two distinct nodes, and the tallies add up to the total.
        assert!(!report.link_faults.is_empty(), "{scheme:?}: no per-link tallies");
        assert!(report.link_faults.iter().all(|&(from, to, _)| from != to && from < 5 && to < 5));
        let attributed: u64 = report.link_faults.iter().map(|(_, _, c)| c.dropped_in).sum();
        assert_eq!(attributed, swarm.total_faults.dropped_in, "{scheme:?}");
    }
}
