//! The virtual-time driver: a whole swarm of the nodes we ship on one
//! thread, over in-memory links, in simulated time.
//!
//! It runs the same endpoint the reactor schedules (`crate::endpoint`:
//! the [`NodeStateMachine`](crate::peer) behind the fault plans of its
//! links), from the same [`TopologyConfig`], under a discrete-event loop
//! instead of epoll and the wall clock. Every datagram crosses a link in
//! [`LINK_LATENCY`] of virtual time and reaches the receiving endpoint,
//! whose plan for that link decides its fate. What a plan parks comes
//! out on a release event at the time the endpoint asks for: a delayed
//! datagram exactly its delay late, a reorder hold once overtaking
//! traffic frees it or the links have idled for
//! [`crate::faults::IDLE_RELEASE`]. Every node ticks every
//! [`crate::NodeOptions::tick`] of virtual time. Nothing reads a clock
//! or touches a socket, so a run is a function of its configuration:
//! two runs from one seed give the same [`SwarmReport`], byte for byte.
//! (Trace sinks stamp their events with wall time, so traced runs replay
//! everything but those stamps.)
//!
//! Only the reactor's knobs mean nothing here — `runtime`,
//! `metrics_bind` and `flight_recorder` are ignored — and `timeout` is
//! virtual time. Once every peer is complete the ticks stop and the
//! datagrams still in flight land, so the books of a lossless run
//! balance: every offer is answered.

use std::collections::BTreeMap;
use std::net::{Ipv4Addr, SocketAddr};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use crate::endpoint::Endpoint;
use crate::observe::{FlightState, Watchdog};
use crate::peer::{micros, Outbox, PeerReport};
use crate::swarm::{assemble_report, SwarmReport, TopologyConfig};

/// One-way latency of every in-memory link: a datagram sent at `t`
/// arrives at `t + LINK_LATENCY` (plus any injected delay). A loopback
/// hop's order of magnitude, far below the protocol's own clocks (the
/// 2 ms tick, the 250 ms TTL floor), as on a real loopback.
pub const LINK_LATENCY: Duration = Duration::from_micros(100);

/// Node `i` receives on `10.0.0.0 + i`, port [`PORT`].
const BASE: u32 = 0x0A00_0000;
const PORT: u16 = 7;

fn addr(node: usize) -> SocketAddr {
    SocketAddr::from((Ipv4Addr::from(BASE + node as u32), PORT))
}

/// What happens to a node at an event's time.
enum What {
    /// The node's gossip tick.
    Tick,
    /// The release the node's links asked for.
    Release,
    /// A datagram from node `from` reaches the node.
    Arrive { from: usize, bytes: Vec<u8> },
}

struct World {
    /// Virtual microseconds since the run began.
    now: u64,
    seq: u64,
    /// Pending events by due time, then scheduling order: events due at
    /// the same time run first come, first served.
    queue: BTreeMap<(u64, u64), (usize, What)>,
    nodes: Vec<Endpoint>,
    outbox: Outbox,
}

impl World {
    fn schedule(&mut self, at: u64, node: usize, what: What) {
        self.seq += 1;
        self.queue.insert((at, self.seq), (node, what));
    }

    /// The node `addr` names, if any.
    fn index(&self, addr: SocketAddr) -> Option<usize> {
        let SocketAddr::V4(v4) = addr else { return None };
        let node = u32::from(*v4.ip()).checked_sub(BASE)? as usize;
        (v4.port() == PORT && node < self.nodes.len()).then_some(node)
    }

    /// Puts what node `from` emitted on its links, then schedules the
    /// release its links ask for.
    fn send(&mut self, from: usize) {
        let mut outbox = std::mem::take(&mut self.outbox);
        for (to, bytes) in outbox.drain(..) {
            if let Some(to) = self.index(to) {
                self.schedule(self.now + micros(LINK_LATENCY), to, What::Arrive { from, bytes });
            }
        }
        self.outbox = outbox;
        if let Some(at) = self.nodes[from].next_release() {
            self.schedule(at, from, What::Release);
        }
    }
}

/// Runs a swarm in virtual time and returns the report — the
/// reactor-free sibling of [`crate::run_swarm`]: same configuration,
/// same nodes, same report.
///
/// # Panics
///
/// Panics when the topology has fewer than two nodes, is disconnected,
/// or the source index is out of range.
#[must_use]
pub fn run_virtual_swarm(config: &TopologyConfig) -> SwarmReport {
    let (manifest, setups) = config.nodes();
    let count = setups.len();
    let mut world = World {
        now: 0,
        seq: 0,
        queue: BTreeMap::new(),
        nodes: setups.into_iter().map(|setup| Endpoint::new(setup, addr)).collect(),
        outbox: Outbox::new(),
    };
    let period = micros(config.options.tick).max(1);
    for node in 0..count {
        world.schedule(period, node, What::Tick);
    }

    let mut watchdog = config.flight_recorder.clone().map(|recorder| {
        let completion = world.nodes.iter().map(|node| Arc::clone(node.shared())).collect();
        Watchdog::new(FlightState { recorder, telemetry: None, completion, source: config.source })
    });
    let mut progress: u64 = world.nodes.iter().map(|node| node.shared().progress()).sum();

    let deadline = micros(config.timeout);
    let mut completed_at: Vec<Option<Duration>> = vec![None; count];
    completed_at[config.source] = Some(Duration::ZERO);
    let mut incomplete = count - 1;
    let mut converged_at = None;
    while let Some(((at, _), (node, what))) = world.queue.pop_first() {
        if at > deadline {
            break;
        }
        world.now = at;
        let (endpoint, out) = (&mut world.nodes[node], &mut world.outbox);
        // Only this node can move, so the swarm's progress moves by its
        // own: the watchdog costs O(1) per event, and nothing unarmed.
        let before = watchdog.is_some().then(|| endpoint.shared().progress());
        let tick = matches!(what, What::Tick);
        match what {
            // Converged: the ticks stop, the datagrams in flight land.
            What::Tick if converged_at.is_some() => continue,
            What::Tick => endpoint.tick(at, out),
            What::Release => endpoint.release(at, out),
            What::Arrive { from, bytes } => endpoint.datagram(at, addr(from), &bytes, out),
        }
        world.send(node);
        if tick {
            world.schedule(at + period, node, What::Tick);
        }
        let shared = world.nodes[node].shared();
        if completed_at[node].is_none() && shared.complete.load(Ordering::Acquire) {
            completed_at[node] = Some(Duration::from_micros(at));
            incomplete -= 1;
            if incomplete == 0 {
                converged_at = Some(at);
            }
        }
        if let (Some(watchdog), Some(before), None) = (&mut watchdog, before, converged_at) {
            progress += shared.progress() - before;
            watchdog.observe(at, progress);
        }
    }

    let end = converged_at.unwrap_or(deadline);
    let flight_dump = watchdog.and_then(|watchdog| watchdog.finish(end, converged_at.is_some()));
    let reports: Vec<PeerReport> = world.nodes.into_iter().map(Endpoint::finish).collect();
    let elapsed = Duration::from_micros(end);
    let node_addrs = (0..count).map(addr).collect();
    let generations = manifest.generation_count();
    let mut report =
        assemble_report(config, generations, elapsed, completed_at, node_addrs, reports);
    report.flight_dump = flight_dump;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DatagramFaultPlan, Topology, TopologyFaults};
    use ltnc_scheme::SchemeKind;

    fn config(scheme: SchemeKind, topology: Topology) -> TopologyConfig {
        let object = (0..300u32).map(|i| (i * 7 % 256) as u8).collect();
        let mut config = TopologyConfig::quick(scheme, object, topology);
        config.code_length = 8;
        config.payload_size = 16;
        config
    }

    /// A 4-hop line whose every link drops, reorders, duplicates and
    /// delays.
    fn lossy(seed: u64) -> TopologyConfig {
        let mut config = config(SchemeKind::Ltnc, Topology::line(5));
        let plan = DatagramFaultPlan::clean(seed).drop_rate(0.1).reorder(0.1, 4);
        let plan = plan.duplicate_rate(0.05).delay(0.05, Duration::from_millis(3));
        config.link_faults = TopologyFaults::uniform(plan);
        config
    }

    #[test]
    fn deterministic_given_a_seed() {
        let report = run_virtual_swarm(&lossy(3));
        assert!(report.converged && report.bit_exact, "{report:?}");
        let faults = report.total_faults;
        assert!(faults.dropped_in > 0 && faults.delayed_in > 0, "{faults:?}");
        assert!(faults.reordered_in + faults.duplicated_in > 0, "{faults:?}");
        assert_eq!(format!("{report:?}"), format!("{:?}", run_virtual_swarm(&lossy(3))));
    }

    #[test]
    fn different_seeds_differ() {
        let (a, b) = (run_virtual_swarm(&lossy(1)), run_virtual_swarm(&lossy(2)));
        assert!(a.converged && b.converged);
        assert_ne!(format!("{:?}", a.total_faults), format!("{:?}", b.total_faults));
    }

    #[test]
    fn loss_slows_but_does_not_break_dissemination() {
        let clean = run_virtual_swarm(&config(SchemeKind::Ltnc, Topology::line(5)));
        let lossy = run_virtual_swarm(&lossy(3));
        assert!(lossy.converged && lossy.bit_exact, "{lossy:?}");
        assert!(lossy.elapsed > clean.elapsed, "{:?} vs {:?}", lossy.elapsed, clean.elapsed);
        let last = lossy.completed_at.iter().flatten().max();
        assert_eq!(last, Some(&lossy.elapsed), "the last completion converges the run");
    }

    #[test]
    fn a_delayed_datagram_is_handled_exactly_its_delay_late() {
        // Every datagram from the source to its one peer is delayed 3 ms;
        // the way back is clean. So each payload lands exactly two link
        // crossings and one delay after the peer accepted its offer: the
        // verdict goes back at once, and the payload it releases is
        // delayed in turn.
        let delay = Duration::from_millis(3);
        let mut config = config(SchemeKind::Rlnc, Topology::line(2));
        config.link_faults.overrides.push(((0, 1), DatagramFaultPlan::clean(5).delay(1.0, delay)));
        let report = run_virtual_swarm(&config);
        assert!(report.converged && report.bit_exact, "{report:?}");
        let peer = &report.peer_reports[0];
        assert_eq!(peer.faults.delayed_in, report.source_report.wire.datagrams_sent);
        let exact = 2 * micros(LINK_LATENCY) + micros(delay);
        let latency = &peer.link_latency;
        assert!(!latency.is_empty(), "payloads were delivered");
        assert_eq!((latency.max, latency.sum), (exact, exact * latency.count()));
    }

    #[test]
    fn a_timeout_caps_the_run_in_virtual_time() {
        let mut config = config(SchemeKind::Wc, Topology::line(5));
        config.timeout = Duration::from_millis(3);
        let report = run_virtual_swarm(&config);
        assert!(!report.converged);
        assert_eq!(report.elapsed, config.timeout);
        assert!(report.completed_at.iter().any(Option::is_none));
    }

    #[test]
    #[should_panic(expected = "at least one peer")]
    fn a_swarm_without_peers_is_rejected() {
        let _ = run_virtual_swarm(&config(SchemeKind::Wc, Topology::from_edges(1, &[], "alone")));
    }

    #[test]
    fn a_clean_run_balances_the_books_once_the_last_datagram_lands() {
        let report = run_virtual_swarm(&config(SchemeKind::Rlnc, Topology::line(4)));
        assert!(report.converged && report.bit_exact);
        let wire = report.total_wire;
        assert_eq!(wire.offer_timeouts, 0, "nothing is lost");
        assert_eq!(wire.transfers_offered, wire.transfers_delivered + wire.transfers_aborted);
        assert_eq!(wire.datagrams_sent, wire.datagrams_received, "every datagram landed");
    }
}
