//! Determinism of the sharded scheduler: what replays on the reactor.
//!
//! The virtual-time driver replays *everything* from one seed — elapsed
//! time, wire counters, fault tallies, the whole report byte for byte —
//! because it runs the same node with no clock and no socket:
//! `virtual_replay.rs` pins that at 1 000 nodes under loss and over
//! 1 000 seeds. On the reactor the wall clock and the OS schedule the
//! datagrams, so less can replay.
//!
//! What IS stable for a fixed seed and a fixed worker count — and also
//! across *different* worker counts:
//!
//! * `converged`, `bit_exact`, `peers_complete`, `generations`;
//! * every delivered object, byte for byte (the protocol decodes the
//!   same object however its datagrams interleave — that is what coded
//!   dissemination is for).
//!
//! What is NOT stable, by design, and therefore never asserted:
//!
//! * `elapsed`, and anything derived from it (goodput);
//! * wire-counter magnitudes (offers, aborts, redundant deliveries):
//!   how many datagrams fly before convergence depends on scheduling;
//! * injected-fault totals under loss, for the same reason — the
//!   *plans* are seeded and replayable per link, but how much traffic
//!   crosses each lossy link is timing-dependent.

use std::time::Duration;

use ltnc_net::NodeOptions;
use ltnc_scheme::SchemeKind;
use ltnc_topo::{run_topology, SwarmRuntime, Topology, TopologyConfig, TopologyReport};

fn object(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 41 % 253) as u8).collect()
}

fn run(workers: usize) -> TopologyReport {
    let mut config =
        TopologyConfig::quick(SchemeKind::Rlnc, object(500), Topology::random_regular(8, 3, 0xDE7));
    config.code_length = 8;
    config.payload_size = 16;
    config.timeout = Duration::from_secs(60);
    config.options = NodeOptions { seed: 0x5EED_D00D, ..NodeOptions::default() };
    config.runtime = SwarmRuntime::Sharded { workers };
    let report = run_topology(&config).expect("run starts");
    assert!(
        report.swarm.converged && report.swarm.bit_exact,
        "sharded run (workers={workers}) failed: {}/7 peers in {:?}",
        report.swarm.peers_complete,
        report.swarm.elapsed
    );
    report
}

/// The goodput-relevant outcome fields that must replay exactly.
fn stable_fields(report: &TopologyReport) -> (bool, bool, usize, u32, Vec<Option<Vec<u8>>>) {
    (
        report.swarm.converged,
        report.swarm.bit_exact,
        report.swarm.peers_complete,
        report.swarm.generations,
        report.swarm.peer_reports.iter().map(|peer| peer.object.clone()).collect(),
    )
}

#[test]
fn same_seed_and_worker_count_replays_the_stable_outcome() {
    let first = run(2);
    let second = run(2);
    assert_eq!(stable_fields(&first), stable_fields(&second));
}

#[test]
fn worker_count_changes_scheduling_but_never_the_delivered_objects() {
    let one = run(1);
    let four = run(4);
    assert_eq!(stable_fields(&one), stable_fields(&four));
}
