//! End-to-end dissemination over real localhost UDP sockets.
//!
//! Runs the full stack — generation chunking, envelope codec, header-first
//! binary feedback, peer actors — for every scheme, and checks the wire
//! invariants the protocol exists to provide:
//!
//! * every peer reconstructs the object **bit for bit**;
//! * aborted transfers never carry payload bytes (payload bytes on the
//!   wire account exactly for the *delivered* transfers);
//! * the feedback channel actually fires (non-zero aborts at the header).

use std::time::Duration;

use ltnc_net::{run_swarm, NodeOptions, Topology, TopologyConfig};
use ltnc_scheme::SchemeKind;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn pseudo_file(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut data = vec![0u8; len];
    rng.fill(&mut data[..]);
    data
}

/// A source and eight peers, all adjacent: every peer hears the source
/// and gossips with every other peer.
fn swarm(scheme: SchemeKind, object: Vec<u8>) -> TopologyConfig {
    TopologyConfig {
        timeout: Duration::from_secs(60),
        ..TopologyConfig::quick(scheme, object, Topology::complete(9))
    }
}

fn multi_generation_config(scheme: SchemeKind) -> TopologyConfig {
    // 12 × 24 = 288 bytes per generation; 1000 bytes → 4 generations,
    // the last one padded.
    TopologyConfig {
        code_length: 12,
        payload_size: 24,
        options: NodeOptions { seed: 0xBEEF ^ scheme.wire_id() as u64, ..NodeOptions::default() },
        session: 0xAB_0000 + scheme.wire_id() as u64,
        ..swarm(scheme, pseudo_file(1000, 42))
    }
}

#[test]
fn multi_generation_file_disseminates_bit_exactly_under_every_scheme() {
    for scheme in SchemeKind::ALL {
        let config = multi_generation_config(scheme);
        let report = run_swarm(&config).expect("swarm should start");
        assert_eq!(report.generations, 4, "{scheme:?}: expected a multi-generation object");
        assert!(
            report.converged,
            "{scheme:?}: only {}/8 peers completed in {:?}",
            report.peers_complete, report.elapsed
        );
        assert!(report.bit_exact, "{scheme:?}: reconstruction mismatch");
        for (i, peer) in report.peer_reports.iter().enumerate() {
            assert_eq!(
                peer.object.as_deref(),
                Some(&config.object[..]),
                "{scheme:?}: peer {i} object differs"
            );
        }
    }
}

#[test]
fn aborted_transfers_never_carry_payload_bytes() {
    for scheme in SchemeKind::ALL {
        let config = multi_generation_config(scheme);
        let report = run_swarm(&config).expect("swarm should start");
        assert!(report.converged, "{scheme:?} did not converge");

        let wire = &report.total_wire;
        // Each delivered transfer ships exactly one m-byte payload; aborted
        // (and still-pending) transfers ship none. If an abort ever leaked
        // payload bytes onto the wire, the left side would exceed the right.
        assert_eq!(
            wire.payload_bytes_sent,
            wire.transfers_delivered * config.payload_size as u64,
            "{scheme:?}: payload bytes on the wire must come from delivered transfers only"
        );
        // The binary feedback channel must actually have fired: with 8
        // gossiping peers, redundant offers are guaranteed.
        assert!(wire.transfers_aborted > 0, "{scheme:?}: no header-level aborts at all");
        // Conservation: every offer is delivered, aborted or still pending.
        assert!(
            wire.transfers_delivered + wire.transfers_aborted <= wire.transfers_offered,
            "{scheme:?}: transfer accounting is inconsistent"
        );
    }
}

#[test]
fn single_generation_object_and_tiny_payloads_work() {
    // Degenerate-ish dimensions: object smaller than one generation.
    let config = TopologyConfig {
        code_length: 8,
        payload_size: 16,
        session: 0xCAFE,
        ..swarm(SchemeKind::Ltnc, pseudo_file(100, 7))
    };
    let report = run_swarm(&config).expect("swarm should start");
    assert_eq!(report.generations, 1);
    assert!(report.converged && report.bit_exact, "single-generation run failed: {report:?}");
}
