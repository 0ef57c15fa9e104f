//! Multi-hop dissemination over real UDP under seeded per-link loss.
//!
//! These are the runs the paper's in-network recoding claim actually
//! needs: relays that start empty, sit in the only path to the source,
//! and recode — while every directed link eats a seeded share of the
//! datagrams crossing it. All fault randomness derives from one fixed
//! seed (override with `LTNC_FAULT_SEED`), so a CI failure replays
//! locally with the same per-link drop pattern.

use std::time::Duration;

use ltnc_net::faults::DatagramFaultPlan;
use ltnc_net::NodeOptions;
use ltnc_scheme::SchemeKind;
use ltnc_topo::{run_topology, SwarmRuntime, Topology, TopologyConfig, TopologyFaults};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One fixed seed for every fault decision in this file (CI pins it).
fn fault_seed() -> u64 {
    std::env::var("LTNC_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xF00D_u64)
}

fn pseudo_file(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut data = vec![0u8; len];
    rng.fill(&mut data[..]);
    data
}

fn lossy_config(
    scheme: SchemeKind,
    topology: Topology,
    source: usize,
    loss: f64,
) -> TopologyConfig {
    TopologyConfig {
        scheme,
        object: pseudo_file(600, 0x10AD ^ u64::from(scheme.wire_id())),
        code_length: 8,
        payload_size: 16,
        topology,
        source,
        options: NodeOptions {
            seed: 0x5EED ^ u64::from(scheme.wire_id()),
            ..NodeOptions::default()
        },
        timeout: Duration::from_secs(90),
        session: 0x70FA_0000 + u64::from(scheme.wire_id()),
        link_faults: TopologyFaults::uniform(
            DatagramFaultPlan::clean(fault_seed()).drop_rate(loss),
        ),
        trace_capacity: None,
        runtime: SwarmRuntime::Sharded { workers: 2 },
        metrics_bind: None,
        flight_recorder: None,
    }
}

/// The acceptance run: a 4-hop line at 20% seeded per-link loss, every
/// scheme. Relays start empty, are the only route to the source, and
/// must recode; the far node must still reassemble bit for bit.
#[test]
fn four_hop_line_converges_bit_exactly_under_20pct_per_link_loss() {
    for scheme in SchemeKind::ALL {
        let config = lossy_config(scheme, Topology::line(5), 0, 0.20);
        let report = run_topology(&config).expect("topology run starts");
        assert!(
            report.swarm.converged,
            "{scheme:?}: only {}/4 peers completed in {:?} over the line",
            report.swarm.peers_complete, report.swarm.elapsed
        );
        assert!(report.swarm.bit_exact, "{scheme:?}: reconstruction mismatch across relays");
        assert_eq!(report.max_hops(), 4, "{scheme:?}: the line must be 4 hops deep");
        // Every interior relay recoded: packets reaching hop d > 1 can
        // only have been emitted by the node at hop d - 1.
        for hop in 1..=3 {
            let stats = report.hops.get(hop);
            assert_eq!(stats.completed, 1, "{scheme:?}: hop {hop} did not complete");
            assert!(stats.recoding_ops > 0, "{scheme:?}: relay at hop {hop} never recoded");
        }
        assert!(report.relay_recoding_ops > 0);
        // The loss was real and attributable: every forward link dropped
        // something, and every tallied link is an actual topology link.
        for hop in 0..4 {
            assert!(
                report
                    .link_faults
                    .iter()
                    .any(|&(from, to, c)| from == hop && to == hop + 1 && c.dropped_in > 0),
                "{scheme:?}: no drops attributed to link {hop}→{}",
                hop + 1
            );
        }
        for &(from, to, _) in &report.link_faults {
            assert!(
                report.distances[from].abs_diff(report.distances[to]) == 1,
                "{scheme:?}: tally on non-adjacent pair {from}→{to}"
            );
        }
        // Wire-carried trace context: the report carries per-hop
        // origin→delivery latency distributions keyed by recode-lineage
        // depth. The source's neighbour always sees depth-1 data, and
        // every recorded distribution has ordered percentiles.
        assert!(!report.latency_by_hop.is_empty(), "{scheme:?}: no latency recorded");
        let first_hop = report.latency_at(1);
        assert!(first_hop.count() > 0, "{scheme:?}: no depth-1 deliveries recorded");
        for &(depth, ref snapshot) in &report.latency_by_hop {
            assert!(depth >= 1, "{scheme:?}: lineage depth below one link");
            assert!(snapshot.count() > 0, "{scheme:?}: empty distribution kept at depth {depth}");
            assert!(
                snapshot.p50() <= snapshot.p99() && snapshot.p99() <= snapshot.quantile(1.0),
                "{scheme:?}: unordered percentiles at depth {depth}"
            );
        }
        assert!(
            report.latency_at(99).count() == 0,
            "{scheme:?}: latency_at must be empty for an absent depth"
        );
    }
}

/// A star with the source at a leaf: every byte to every other leaf
/// crosses the hub, which never needs the object for itself any less —
/// it completes too, while doing all the relaying.
#[test]
fn star_hub_relays_between_leaves() {
    let config = lossy_config(SchemeKind::Ltnc, Topology::star(5), 1, 0.10);
    let report = run_topology(&config).expect("topology run starts");
    assert!(report.swarm.converged && report.swarm.bit_exact, "star failed: {report:?}");
    assert_eq!(report.distances, vec![1, 0, 2, 2, 2]);
    let hub = report.hops.get(1);
    assert!(hub.recoding_ops > 0, "the hub must relay");
    assert_eq!(report.hops.get(2).completed, 3, "all far leaves complete through the hub");
}

/// A binary tree from the root: interior nodes relay to their subtrees.
#[test]
fn binary_tree_disseminates_to_the_leaves() {
    let config = lossy_config(SchemeKind::Rlnc, Topology::binary_tree(7), 0, 0.10);
    let report = run_topology(&config).expect("topology run starts");
    assert!(report.swarm.converged && report.swarm.bit_exact, "tree failed: {report:?}");
    assert_eq!(report.max_hops(), 2);
    assert!(report.hops.get(1).recoding_ops > 0, "interior nodes must relay");
    assert_eq!(report.hops.get(2).completed, 4);
}

/// A ring gives every node two disjoint lossy paths; a seeded random
/// 3-regular overlay gives several. Both must converge.
#[test]
fn ring_and_random_regular_overlays_converge() {
    let ring = lossy_config(SchemeKind::Wc, Topology::ring(5), 0, 0.10);
    let report = run_topology(&ring).expect("topology run starts");
    assert!(report.swarm.converged && report.swarm.bit_exact, "ring failed: {report:?}");
    assert_eq!(report.max_hops(), 2);

    let regular =
        lossy_config(SchemeKind::Ltnc, Topology::random_regular(8, 3, fault_seed()), 0, 0.10);
    let report = run_topology(&regular).expect("topology run starts");
    assert!(report.swarm.converged && report.swarm.bit_exact, "k-regular failed: {report:?}");
    assert!(report.max_hops() >= 2, "a sparse overlay should not be a clique");
}

/// Heavier stress variant for the CI `--include-ignored` step: a 6-hop
/// line at 30% per-link loss with reordering and delays on top, every
/// scheme, a multi-generation object.
#[test]
#[ignore = "stress: run via cargo test -- --include-ignored (CI fault step)"]
fn stress_six_hop_line_survives_heavy_per_link_loss() {
    for scheme in SchemeKind::ALL {
        let mut config = lossy_config(scheme, Topology::line(7), 0, 0.30);
        config.object = pseudo_file(4096, 0xBEEF ^ u64::from(scheme.wire_id()));
        config.code_length = 16;
        config.payload_size = 32;
        config.timeout = Duration::from_secs(240);
        config.link_faults = TopologyFaults::uniform(
            DatagramFaultPlan::clean(fault_seed() ^ 0x70_57E5)
                .drop_rate(0.30)
                .reorder(0.10, 8)
                .delay(0.05, Duration::from_millis(2)),
        );
        let report = run_topology(&config).expect("topology run starts");
        assert!(
            report.swarm.converged && report.swarm.bit_exact,
            "{scheme:?} on a 6-hop line under heavy faults: {}/6 complete, bit_exact={} in {:?}",
            report.swarm.peers_complete,
            report.swarm.bit_exact,
            report.swarm.elapsed
        );
        assert_eq!(report.max_hops(), 6);
        assert!(report.relay_recoding_ops > 0);
    }
}
