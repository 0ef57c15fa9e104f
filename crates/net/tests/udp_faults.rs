//! UDP dissemination under seeded datagram faults.
//!
//! Every directed link of a complete topology drops, duplicates and
//! reorders whole datagrams on the receiving end, and the swarm still
//! has to converge bit-exactly — the epidemic redundancy plus the
//! loss-adaptive pacing budget are exactly what absorbs the loss.
//!
//! All fault randomness derives from one fixed seed (override with
//! `LTNC_FAULT_SEED`), so a CI failure replays locally with the same
//! drop/duplicate/reorder pattern.

use std::time::Duration;

use ltnc_net::faults::DatagramFaultPlan;
use ltnc_net::{
    run_swarm, run_virtual_swarm, NodeOptions, SwarmRuntime, Topology, TopologyConfig,
    TopologyFaults,
};
use ltnc_scheme::SchemeKind;
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

/// 20% loss with reordering and the odd duplicate on every directed
/// link — the multihop-lossy channel LT-over-network-coding deployments
/// actually target.
fn lossy_links(seed: u64) -> TopologyFaults {
    TopologyFaults::uniform(
        DatagramFaultPlan::clean(seed).drop_rate(0.20).reorder(0.10, 8).duplicate_rate(0.05),
    )
}

/// A source and four peers, all adjacent.
fn lossy_config(scheme: SchemeKind, object_len: usize) -> TopologyConfig {
    TopologyConfig {
        scheme,
        object: pseudo_file(object_len, 0x10AD ^ scheme.wire_id() as u64),
        code_length: 8,
        payload_size: 16,
        topology: Topology::complete(5),
        source: 0,
        options: NodeOptions { seed: 0x5EED ^ scheme.wire_id() as u64, ..NodeOptions::default() },
        timeout: Duration::from_secs(60),
        session: 0xFA_0000 + scheme.wire_id() as u64,
        link_faults: lossy_links(fault_seed()),
        trace_capacity: None,
        runtime: SwarmRuntime::Sharded { workers: 2 },
        metrics_bind: None,
        flight_recorder: None,
    }
}

#[test]
fn swarm_converges_bit_exactly_under_seeded_loss_and_reordering() {
    for scheme in SchemeKind::ALL {
        let config = lossy_config(scheme, 600);
        let report = run_swarm(&config).expect("swarm should start");
        assert!(
            report.converged,
            "{scheme:?}: only {}/4 peers completed in {:?} under loss",
            report.peers_complete, report.elapsed
        );
        assert!(report.bit_exact, "{scheme:?}: reconstruction mismatch under loss");
        // The links must actually have injected faults, and the pacing
        // must have seen them: offers died at their TTL and live-peer
        // budgets grew to compensate.
        assert!(report.total_faults.dropped_in > 0, "{scheme:?}: no drops injected");
        assert!(report.total_faults.reordered_in > 0, "{scheme:?}: no reordering injected");
        assert!(report.total_wire.offer_timeouts > 0, "{scheme:?}: loss produced no timeouts");
        assert!(
            report.total_wire.budget_raises > 0,
            "{scheme:?}: adaptive pacing never reacted to loss"
        );
    }
}

#[test]
fn fault_pattern_is_stable_for_a_fixed_seed() {
    // Same seed, same template: the per-link plans must come out
    // identical (this is what makes a CI stress failure replayable).
    let plan = |from, to| lossy_links(1234).plan_for(from, to).expect("template applies");
    let (a, b, c) = (plan(3, 4), plan(3, 4), plan(2, 4));
    assert_eq!(a.seed, b.seed);
    assert_ne!(a.seed, c.seed, "links must fail independently");
    assert_eq!(a.drop_rate, 0.20);
    assert_eq!(c.reorder_window, 8);
}

#[test]
fn offers_to_a_dead_peer_cut_its_budget_to_the_floor() {
    // A source and one peer whose every answer is lost: the link back
    // from the peer drops everything, so each offer times out with no
    // feedback ever, and the adaptive budget must fall (multiplicative
    // decrease), not grow. 3.4 s of virtual time, replayed exactly.
    let mut config = TopologyConfig::quick(SchemeKind::Rlnc, vec![3u8; 16], Topology::line(2));
    config.code_length = 4;
    config.payload_size = 2;
    config.session = 21;
    config.options = NodeOptions { tick: Duration::from_millis(1), seed: 11 };
    config.timeout = Duration::from_millis(3_400);
    config.link_faults.overrides.push(((1, 0), DatagramFaultPlan::clean(7).drop_rate(1.0)));
    let swarm = run_virtual_swarm(&config);
    assert!(!swarm.converged, "no payload can ever be released");
    let report = &swarm.source_report;
    assert!(report.wire.offer_timeouts > 0, "offers must have timed out");
    assert!(report.wire.budget_cuts > 0, "a silent peer must cut the budget");
    assert_eq!(report.wire.budget_raises, 0, "nothing may raise a dead peer's budget");
    // Pinned: the budget goes 4 → 2 → 1 (the floor), one cut per TTL
    // window, and the 18th offer is still pending at the timeout.
    let wire = &report.wire;
    assert_eq!((wire.transfers_offered, wire.offer_timeouts, wire.budget_cuts), (18, 17, 2));
}

/// Heavier stress variant for the CI `--include-ignored` step: more
/// peers, 30% loss, delays on top, every scheme, a multi-generation
/// object.
#[test]
#[ignore = "stress: run via cargo test -- --include-ignored (CI fault step)"]
fn stress_swarm_survives_heavy_loss_reordering_and_delay() {
    for scheme in SchemeKind::ALL {
        let mut config = lossy_config(scheme, 4096);
        config.code_length = 16;
        config.payload_size = 32;
        config.topology = Topology::complete(9);
        config.options.seed = 0xACE ^ scheme.wire_id() as u64;
        config.timeout = Duration::from_secs(120);
        config.session = 0xFB_0000 + scheme.wire_id() as u64;
        config.link_faults = TopologyFaults::uniform(
            DatagramFaultPlan::clean(fault_seed() ^ 0x57E5)
                .drop_rate(0.30)
                .reorder(0.15, 16)
                .duplicate_rate(0.10)
                .delay(0.05, Duration::from_millis(2)),
        );
        let report = run_swarm(&config).expect("swarm should start");
        assert!(
            report.converged && report.bit_exact,
            "{scheme:?} under heavy faults: {}/8 complete, bit_exact={} in {:?}",
            report.peers_complete,
            report.bit_exact,
            report.elapsed
        );
        assert!(report.total_faults.delayed_in > 0, "{scheme:?}: no delays injected");
    }
}
