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
//! pacing over a lossy, reordering complete topology (the AIMD budget
//! at work against the fixed pending TTL), and deep lossy lines, where
//! every relay recodes in the only path to the source. The reference benchmark
//! (`benchmark/`) covers the rest, in wall-clock time.

use std::time::Duration;

use ltnc_net::faults::DatagramFaultPlan;
use ltnc_net::{NodeOptions, SwarmReport, LINK_LATENCY};
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
///
/// Re-pinned when loss moved from one inbound plan per node to one plan
/// per directed link, at the same rates. Each link now draws its own
/// seeded stream, and a reordered datagram waits for traffic from its
/// own sender to overtake it, not any sender's. So the schedule differs,
/// and the medians moved by −3.3 % to +0.3 % (they were 772 300 µs /
/// 4 116, 1 112 300 µs / 5 386 and 1 818 500 µs / 7 596 datagrams).
///
/// The 20 % and 30 % rows were re-pinned downward when a peer had to be
/// silent for two TTLs, not one, before its budget is cut: a lost offer
/// whose burst-mates were answered no longer reads as silence. They were
/// 1 094 900 µs / 5 208 and 1 796 500 µs / 7 529 datagrams.
const PACING: [(f64, Cost); 3] = [
    (0.10, Cost::new(774_300, 3_998)),
    (0.20, Cost::new(1_084_500, 5_208)),
    (0.30, Cost::new(1_548_300, 7_181)),
];

/// Lossy lines, `(hops, per-link loss, scheme, cost)`: the exact cost of
/// [`line`] as measured when pinned. The gate is each value + 10 %.
///
/// The LTNC rows were re-pinned downward when the receiver's redundancy
/// check moved to the undecoded residual at every degree: it refuses from
/// the header what the decoded natives and buffered degree-2 packets span,
/// so fewer payloads cross. They were 1 095 900 µs / 4 631, 5 791 100 /
/// 10 742, 2 380 500 / 26 053 and 20 314 300 / 97 776 datagrams.
///
/// They were re-pinned downward again when an LTNC refusal began to carry
/// the receiver's summary and the sender's next offer on that link to be
/// a smart packet built from it (Algorithm 4). They were 1 047 300 µs /
/// 3 976, 4 758 500 / 8 891, 1 997 100 / 16 309 and 19 504 500 / 85 422
/// datagrams. The pinned seed is the luckier side of a wide spread: over
/// twelve seeds of each row the median fell 1 083 → 845 ms (4 hops, 10 %),
/// 3 024 → 2 164 ms (4 hops, 30 %) and 11 717 → 2 888 ms (8 hops, 30 %).
///
/// They were re-pinned downward a third time when every LTNC verdict, an
/// accept too, began to carry the summary, and the sender to build every
/// offer on a summarised link from it. They were 832 500 µs / 3 121,
/// 1 872 900 / 5 083, 1 040 800 / 7 780 and 2 888 500 / 11 369 datagrams.
/// In the same change a peer had to be silent for two TTLs, not one,
/// before its budget is cut, which re-pinned WC's 8-hop 30 % row
/// downward (it was 6 516 500 µs / 22 270) and RLNC's time there (it was
/// 3 766 300 µs; its datagrams rose to 7 509, inside the gate, and keep
/// their pin). Without that rule the LTNC 8-hop 30 % row took 3 656 500
/// µs on this seed, with one relay's link to the next hop cut to the
/// floor for a second by a lost offer whose burst-mates were answered.
const LINES: [(usize, f64, SchemeKind, Cost); 12] = [
    (4, 0.10, SchemeKind::Wc, Cost::new(818_600, 3_342)),
    (4, 0.10, SchemeKind::Ltnc, Cost::new(822_900, 2_568)),
    (4, 0.10, SchemeKind::Rlnc, Cost::new(830_300, 2_597)),
    (4, 0.30, SchemeKind::Wc, Cost::new(2_512_500, 7_325)),
    (4, 0.30, SchemeKind::Ltnc, Cost::new(1_521_100, 2_767)),
    (4, 0.30, SchemeKind::Rlnc, Cost::new(1_584_300, 2_952)),
    (8, 0.10, SchemeKind::Wc, Cost::new(1_109_700, 7_574)),
    (8, 0.10, SchemeKind::Ltnc, Cost::new(820_300, 5_764)),
    (8, 0.10, SchemeKind::Rlnc, Cost::new(856_700, 5_905)),
    (8, 0.30, SchemeKind::Wc, Cost::new(2_931_100, 16_854)),
    // 0.62× WC's time and 0.42× its datagrams (3.0× and 3.8× with binary
    // feedback): a relay answered with a summary sends what the next hop
    // lacks instead of recodes it refuses.
    (8, 0.30, SchemeKind::Ltnc, Cost::new(1_818_900, 7_127)),
    (8, 0.30, SchemeKind::Rlnc, Cost::new(1_906_500, 6_991)),
];

fn object(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 29 % 255) as u8).collect()
}

/// A source and 3 peers, all adjacent, under RLNC, k = 16, m = 64, a
/// 16 KiB object, every directed link dropping `loss` of its datagrams
/// and reordering 5 % of them by up to 8.
fn pacing(loss: f64, seed: u64) -> TopologyConfig {
    let plan = DatagramFaultPlan::clean(0xF00D ^ seed).drop_rate(loss).reorder(0.05, 8);
    TopologyConfig {
        code_length: 16,
        payload_size: 64,
        options: NodeOptions { seed: 0xBE7 ^ seed, ..NodeOptions::default() },
        timeout: Duration::from_secs(600),
        session: 0x9ACE,
        link_faults: TopologyFaults::uniform(plan),
        ..TopologyConfig::quick(SchemeKind::Rlnc, object(16 * 1024), Topology::complete(4))
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
    for (loss, pinned) in PACING {
        let runs: Vec<Cost> =
            (0..5).map(|seed| Cost::of(&run_topology_virtual(&pacing(loss, seed)).swarm)).collect();
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
    let wc = at_30(SchemeKind::Wc);
    // Recoding beats repetition on a deep lossy path, for both codes: in
    // virtual time and in datagrams.
    for scheme in [SchemeKind::Rlnc, SchemeKind::Ltnc] {
        let coded = at_30(scheme);
        assert!(
            coded.elapsed_us < wc.elapsed_us && coded.datagrams < wc.datagrams,
            "{scheme:?}: {coded:?} vs WC's {wc:?}"
        );
    }
}

#[test]
fn tracing_changes_nothing_but_the_events() {
    for scheme in SchemeKind::ALL {
        let config = line(scheme, 4, 0.10);
        let untraced = run_topology_virtual(&config).swarm;
        let traced = TopologyConfig { trace_capacity: Some(65_536), ..config };
        let again = run_topology_virtual(&traced).swarm;
        let mut traced = run_topology_virtual(&traced).swarm;
        // The events replay too, stamps included: each is read off the
        // virtual clock. None is later than the drain after convergence,
        // where what was in flight lands: at most an offer, its feedback
        // and its payload, three link crossings.
        let logs = |report: &SwarmReport| -> Vec<String> {
            report.node_reports().map(|node| format!("{:?}", node.events)).collect()
        };
        assert_eq!(logs(&traced), logs(&again), "{scheme:?}: two traced runs differ");
        let stamps = traced.node_reports().flat_map(|node| node.events.iter().map(|e| e.at));
        let drained = traced.elapsed + 3 * LINK_LATENCY;
        assert!(stamps.max().is_some_and(|last| last <= drained), "{scheme:?}");
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
