//! Flood guard for the event-clocked offer path.
//!
//! A node's offers leave on three clocks: the gossip tick, a useful
//! delivery (relays) and feedback (senders that hold the generation
//! completely). The restriction in the last one is what this file pins:
//! feedback-clocking *every* sender makes an incomplete LTNC relay
//! re-offer dependent recodes at round-trip rate.
//!
//! The bounds are counts, never times, and every run must hold them.
//! They are set from the measured spread of this very run, not from its
//! typical value: the LT endgame at k = 32 has a tail. Over 2 000 runs
//! (1 200 release, 800 debug) the median read 320 offers and 210 useful
//! deliveries and the largest 919 and 403; the next largest 648 and 381.
//! With every sender feedback-clocked, 96 runs read a median of 9 306
//! offers and 3 875 useful deliveries, and 89 of the 96 broke both bounds
//! below. The tick-only parent read 382–1 490 offers.

use std::time::Duration;

use ltnc_net::NodeOptions;
use ltnc_scheme::SchemeKind;
use ltnc_topo::{run_topology, SwarmRuntime, Topology, TopologyConfig};

const MAX_OFFERS: u64 = 1_600;
const MAX_USEFUL: u64 = 600;

#[test]
fn a_clean_line_converges_without_flooding_its_neighbours() {
    let object: Vec<u8> = (0..16 * 1024).map(|i| (i * 29 % 251) as u8).collect();
    for seed in 1..=8u64 {
        let mut config = TopologyConfig::quick(SchemeKind::Ltnc, object.clone(), Topology::line(5));
        config.code_length = 32;
        config.payload_size = 512;
        config.timeout = Duration::from_secs(60);
        config.options = NodeOptions { seed, ..NodeOptions::default() };
        config.session = 0xF100D + seed;
        config.runtime = SwarmRuntime::Sharded { workers: 2 };

        let report = run_topology(&config).expect("run starts").swarm;
        assert!(report.converged && report.bit_exact, "seed {seed}: {report:?}");
        let wire = report.total_wire;
        assert_eq!(wire.offer_timeouts, 0, "seed {seed}: a clean line loses no offer");
        assert!(
            wire.transfers_offered <= MAX_OFFERS && wire.useful_deliveries <= MAX_USEFUL,
            "seed {seed}: {} offers, {} useful deliveries, bounds {MAX_OFFERS} and \
             {MAX_USEFUL} — a sender is flooding",
            wire.transfers_offered,
            wire.useful_deliveries
        );
    }
}
