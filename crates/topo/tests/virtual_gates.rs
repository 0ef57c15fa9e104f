//! Exact regression gates in virtual time.
//!
//! The virtual-time driver runs the node we ship with no clock and no
//! socket, so a lossy run's time to convergence and its datagram count
//! are functions of the seed. That makes them gates: each scenario is
//! pinned to the exact cost the protocol measured when the gate was
//! written, and a change that costs more than 10 % on either metric fails
//! here, deterministically, in any build. A change that makes a scenario
//! cheaper passes; re-pin it so the next loss is caught from there.
//!
//! Two scenario families live here because nothing else measures them:
//! pacing over a lossy, reordering full mesh (the AIMD budget and the
//! RTT-derived TTL at work), and deep lossy lines, where every relay
//! recodes in the only path to the source. The reference benchmark
//! (`benchmark/`) covers the rest, in wall-clock time.

use std::time::Duration;

use ltnc_net::faults::{DatagramFaultPlan, DatagramFaults};
use ltnc_net::{run_virtual_swarm, NodeOptions, SwarmConfig, SwarmReport, SwarmWiring};
use ltnc_scheme::SchemeKind;
use ltnc_topo::{run_topology_virtual, Topology, TopologyConfig, TopologyFaults};

/// What a gate pins: virtual time to convergence and datagrams sent,
/// summed over every node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cost {
    elapsed_us: u64,
    datagrams: u64,
}

impl Cost {
    const fn new(elapsed_us: u64, datagrams: u64) -> Cost {
        Cost { elapsed_us, datagrams }
    }

    fn of(report: &SwarmReport) -> Cost {
        assert!(
            report.converged && report.bit_exact,
            "{:?}: {} peers complete, bit-exact {}",
            report.scheme,
            report.peers_complete,
            report.bit_exact
        );
        let elapsed_us = u64::try_from(report.elapsed.as_micros()).expect("fits");
        Cost::new(elapsed_us, report.total_wire.datagrams_sent)
    }

    /// Panics unless both metrics are at most 10 % above `pinned`.
    fn within(self, pinned: Cost, what: &str) {
        let bound = |value: u64| value + value / 10;
        assert!(
            self.elapsed_us <= bound(pinned.elapsed_us)
                && self.datagrams <= bound(pinned.datagrams),
            "{what}: {self:?} is more than 10 % above the pinned {pinned:?}"
        );
    }
}

/// Pacing, by loss rate: the median over five seeds of [`pacing`], as
/// measured when pinned. The gate is each value + 10 %.
const PACING: [(f64, Cost); 3] = [
    (0.10, Cost::new(772_300, 4_116)),
    (0.20, Cost::new(1_112_300, 5_386)),
    (0.30, Cost::new(1_818_500, 7_596)),
];

/// Lossy lines, `(hops, per-link loss, scheme, cost)`: the exact cost of
/// [`line`] as measured when pinned. The gate is each value + 10 %.
const LINES: [(usize, f64, SchemeKind, Cost); 12] = [
    (4, 0.10, SchemeKind::Wc, Cost::new(818_600, 3_342)),
    (4, 0.10, SchemeKind::Ltnc, Cost::new(1_095_900, 4_631)),
    (4, 0.10, SchemeKind::Rlnc, Cost::new(830_300, 2_597)),
    (4, 0.30, SchemeKind::Wc, Cost::new(2_512_500, 7_325)),
    (4, 0.30, SchemeKind::Ltnc, Cost::new(5_791_100, 10_742)),
    (4, 0.30, SchemeKind::Rlnc, Cost::new(1_584_300, 2_952)),
    (8, 0.10, SchemeKind::Wc, Cost::new(1_109_700, 7_574)),
    (8, 0.10, SchemeKind::Ltnc, Cost::new(2_380_500, 26_053)),
    (8, 0.10, SchemeKind::Rlnc, Cost::new(856_700, 5_905)),
    (8, 0.30, SchemeKind::Wc, Cost::new(6_516_500, 22_270)),
    // 3.1× WC's time and 4.4× its datagrams: LTNC relays offer
    // recodes their neighbour cannot use (ROADMAP item G).
    (8, 0.30, SchemeKind::Ltnc, Cost::new(20_314_300, 97_776)),
    (8, 0.30, SchemeKind::Rlnc, Cost::new(3_766_300, 6_991)),
];

fn object(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 29 % 255) as u8).collect()
}

/// A 3-peer full mesh under RLNC, k = 16, m = 64, a 16 KiB object, every
/// node's inbound side dropping `loss` of its datagrams and reordering 5 %
/// of them by up to 8.
fn pacing(loss: f64, seed: u64) -> SwarmConfig {
    let plan = DatagramFaultPlan::clean(0xF00D ^ seed).drop_rate(loss).reorder(0.05, 8);
    SwarmConfig {
        code_length: 16,
        payload_size: 64,
        peers: 3,
        options: NodeOptions { seed: 0xBE7 ^ seed, ..NodeOptions::default() },
        timeout: Duration::from_secs(600),
        session: 0x9ACE,
        faults: Some(DatagramFaults::inbound(plan)),
        ..SwarmConfig::quick(SchemeKind::Rlnc, object(16 * 1024))
    }
}

/// `scheme` down a line of `hops` links, k = 16, m = 64, a 4 KiB object,
/// every link dropping `loss` of its datagrams.
fn line(scheme: SchemeKind, hops: usize, loss: f64) -> TopologyConfig {
    let id = u64::from(scheme.wire_id());
    TopologyConfig {
        code_length: 16,
        payload_size: 64,
        options: NodeOptions { seed: 0x40B ^ id, ..NodeOptions::default() },
        timeout: Duration::from_secs(600),
        session: 0x40B_0000 + id,
        link_faults: TopologyFaults::uniform(DatagramFaultPlan::clean(0xF00D).drop_rate(loss)),
        ..TopologyConfig::quick(scheme, object(4 * 1024), Topology::line(hops + 1))
    }
}

/// Runs every pinned line of `hops` links through its gate and returns
/// the costs, `(loss, scheme, cost)`.
fn gate_lines(hops: usize) -> Vec<(f64, SchemeKind, Cost)> {
    LINES
        .iter()
        .filter(|row| row.0 == hops)
        .map(|&(_, loss, scheme, pinned)| {
            let cost = Cost::of(&run_topology_virtual(&line(scheme, hops, loss)).swarm);
            cost.within(pinned, &format!("{scheme:?} on {hops} hops at {loss} loss"));
            (loss, scheme, cost)
        })
        .collect()
}

#[test]
fn pacing_on_a_lossy_mesh_holds_its_pinned_cost() {
    let wiring = SwarmWiring::full_mesh(3);
    for (loss, pinned) in PACING {
        let runs: Vec<Cost> =
            (0..5).map(|seed| Cost::of(&run_virtual_swarm(&pacing(loss, seed), &wiring))).collect();
        let median = |metric: fn(&Cost) -> u64| {
            let mut values: Vec<u64> = runs.iter().map(metric).collect();
            values.sort_unstable();
            values[2]
        };
        let cost = Cost::new(median(|c| c.elapsed_us), median(|c| c.datagrams));
        cost.within(pinned, &format!("pacing at {loss} loss"));
    }
}

#[test]
fn four_hop_lossy_lines_hold_their_pinned_cost() {
    gate_lines(4);
}

#[test]
fn eight_hop_lossy_lines_hold_their_pinned_cost_and_rlnc_beats_wc() {
    let costs = gate_lines(8);
    let at_30 = |scheme| costs.iter().find(|row| row.0 == 0.30 && row.1 == scheme).expect("ran").2;
    let (wc, rlnc) = (at_30(SchemeKind::Wc), at_30(SchemeKind::Rlnc));
    // Recoding beats repetition on a deep lossy path — for RLNC. LTNC is
    // held only by its pin (see `LINES`).
    assert!(rlnc.elapsed_us < wc.elapsed_us && rlnc.datagrams < wc.datagrams, "{rlnc:?} vs {wc:?}");
}

#[test]
fn tracing_changes_nothing_but_the_events() {
    for scheme in SchemeKind::ALL {
        let config = line(scheme, 4, 0.10);
        let untraced = run_topology_virtual(&config).swarm;
        let traced = TopologyConfig { trace_capacity: Some(65_536), ..config };
        let mut traced = run_topology_virtual(&traced).swarm;
        let mut events = traced.source_report.events.len();
        traced.source_report.events.clear();
        for report in &mut traced.peer_reports {
            events += report.events.len();
            report.events.clear();
        }
        assert!(events > 0, "{scheme:?}: the traced run recorded nothing");
        assert_eq!(format!("{untraced:?}"), format!("{traced:?}"), "{scheme:?}");
    }
}
