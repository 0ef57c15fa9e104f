//! The refactor's safety net: a complete-graph [`Topology`] must
//! reproduce the legacy `SwarmConfig` full-mesh behaviour.
//!
//! Two layers of equivalence:
//!
//! 1. **Structural** — for every swarm size, lowering a complete
//!    topology (source at index 0) yields byte-for-byte the same wiring
//!    `run_localhost_swarm` itself now runs on
//!    ([`SwarmWiring::full_mesh`]).
//! 2. **Behavioural** — under the same fixed per-node fault template and
//!    seed, the legacy harness and the complete-topology run both
//!    converge bit-exactly for all three schemes, with every node one
//!    hop from the source.

use std::time::Duration;

use ltnc_net::faults::{DatagramFaultPlan, DatagramFaults};
use ltnc_net::swarm::{run_localhost_swarm, SwarmConfig, SwarmRuntime, SwarmWiring};
use ltnc_net::NodeOptions;
use ltnc_scheme::SchemeKind;
use ltnc_topo::{run_topology, Topology, TopologyConfig, TopologyFaults};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn fault_seed() -> u64 {
    std::env::var("LTNC_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xF00D_u64)
}

fn pseudo_file(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut data = vec![0u8; len];
    rng.fill(&mut data[..]);
    data
}

/// The legacy 20%-loss template from the PR 4 UDP fault tests.
fn lossy_links(seed: u64) -> DatagramFaults {
    DatagramFaults::inbound(
        DatagramFaultPlan::clean(seed).drop_rate(0.20).reorder(0.10, 8).duplicate_rate(0.05),
    )
}

#[test]
fn complete_topology_lowering_is_the_legacy_full_mesh_for_every_size() {
    for peers in 1..=12 {
        let config =
            TopologyConfig::quick(SchemeKind::Ltnc, vec![0u8; 16], Topology::complete(peers + 1));
        let wiring = config.wiring();
        let legacy = SwarmWiring::full_mesh(peers);
        assert_eq!(
            wiring.push_targets,
            legacy.push_targets,
            "complete({}) must lower to full_mesh({peers})",
            peers + 1
        );
        assert!(wiring.link_faults.is_empty());
    }
}

#[test]
fn complete_topology_reproduces_legacy_swarm_behaviour_under_seeded_faults() {
    for scheme in SchemeKind::ALL {
        let object = pseudo_file(600, 0x10AD ^ u64::from(scheme.wire_id()));
        let options =
            NodeOptions { seed: 0x5EED ^ u64::from(scheme.wire_id()), ..NodeOptions::default() };
        let faults = lossy_links(fault_seed());

        let legacy_config = SwarmConfig {
            scheme,
            object: object.clone(),
            code_length: 8,
            payload_size: 16,
            peers: 4,
            options,
            timeout: Duration::from_secs(60),
            session: 0xE0_0000 + u64::from(scheme.wire_id()),
            faults: Some(faults),
            trace_capacity: None,
            runtime: SwarmRuntime::Sharded { workers: 2 },
            metrics_bind: None,
            flight_recorder: None,
        };
        let legacy = run_localhost_swarm(&legacy_config).expect("legacy swarm starts");

        let topo_config = TopologyConfig {
            scheme,
            object: object.clone(),
            code_length: 8,
            payload_size: 16,
            topology: Topology::complete(5),
            source: 0,
            options,
            timeout: Duration::from_secs(60),
            session: legacy_config.session,
            link_faults: TopologyFaults::default(),
            node_faults: Some(faults),
            trace_capacity: None,
            runtime: SwarmRuntime::Sharded { workers: 2 },
            metrics_bind: None,
            flight_recorder: None,
        };
        let topo = run_topology(&topo_config).expect("topology run starts");

        // Same convergence behaviour: everyone completes, bit-exactly,
        // over the same generation structure, with real injected loss.
        assert!(legacy.converged && legacy.bit_exact, "{scheme:?}: legacy run failed");
        assert!(
            topo.swarm.converged && topo.swarm.bit_exact,
            "{scheme:?}: complete-topology run failed"
        );
        assert_eq!(topo.swarm.peers_complete, legacy.peers_complete);
        assert_eq!(topo.swarm.generations, legacy.generations);
        assert!(legacy.total_faults.dropped_in > 0, "{scheme:?}: legacy run was not lossy");
        assert!(topo.swarm.total_faults.dropped_in > 0, "{scheme:?}: topology run was not lossy");
        // A complete graph is flat: every peer one hop out, no link
        // plans installed, so no per-link tallies.
        assert_eq!(topo.distances, vec![0, 1, 1, 1, 1]);
        assert_eq!(topo.max_hops(), 1);
        assert!(topo.link_faults.is_empty());
    }
}
