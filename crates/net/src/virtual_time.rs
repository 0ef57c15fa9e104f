//! The virtual-time driver: a whole swarm of the nodes we ship on one
//! thread, over in-memory links, in simulated time.
//!
//! It runs the same [`NodeStateMachine`] the reactor schedules
//! (`crate::sharded`), from the same [`TopologyConfig`], under a
//! discrete-event loop instead of epoll and the wall clock. Every
//! datagram crosses a link in [`LINK_LATENCY`] of virtual time, then the
//! receiver's inbound fault plan for that link, decided by the routine a
//! [`crate::faults::FaultySocket`] runs: a delay is a later delivery, a
//! reorder hold waits for overtaking traffic or for
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

use ltnc_telemetry::Tracer;

use crate::faults::{InboundState, IDLE_RELEASE};
use crate::peer::{NodeStateMachine, Outbox, PeerReport, Shared};
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

fn micros(duration: Duration) -> u64 {
    u64::try_from(duration.as_micros()).unwrap_or(u64::MAX)
}

/// What happens to a node at an event's time.
enum What {
    /// The node's gossip tick.
    Tick,
    /// The node's links count as idle: its fault plans free what they hold.
    Release,
    /// A datagram from node `from` reaches the node's inbound faults.
    Arrive { from: usize, bytes: Vec<u8> },
    /// A delayed datagram from node `from`, past the faults, falls due.
    Deliver { from: usize, bytes: Vec<u8> },
}

/// One node and the state of the links into it.
struct Node {
    sm: NodeStateMachine,
    shared: Arc<Shared>,
    inbound: InboundState,
    tracer: Tracer,
    /// Whether a [`What::Release`] is pending (one at a time).
    release_armed: bool,
}

struct World {
    /// Virtual microseconds since the run began.
    now: u64,
    seq: u64,
    /// Pending events by due time, then scheduling order: events due at
    /// the same time run first come, first served.
    queue: BTreeMap<(u64, u64), (usize, What)>,
    nodes: Vec<Node>,
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

    /// Node `node`'s gossip tick, and the next one a tick later.
    fn tick(&mut self, node: usize, period: u64) {
        let mut outbox = std::mem::take(&mut self.outbox);
        self.nodes[node].sm.tick(self.now, &mut outbox);
        self.send(node, &mut outbox);
        self.outbox = outbox;
        self.schedule(self.now + period, node, What::Tick);
    }

    /// Hands a datagram from `from` to node `to`'s state machine now,
    /// and sends what it answers.
    fn handle(&mut self, to: usize, from: SocketAddr, bytes: &[u8]) {
        let mut outbox = std::mem::take(&mut self.outbox);
        self.nodes[to].sm.handle_datagram(self.now, from, bytes, &mut outbox);
        self.send(to, &mut outbox);
        self.outbox = outbox;
    }

    /// Puts what node `from` emitted on its links.
    fn send(&mut self, from: usize, outbox: &mut Outbox) {
        for (to, bytes) in outbox.drain(..) {
            if let Some(to) = self.index(to) {
                self.schedule(self.now + micros(LINK_LATENCY), to, What::Arrive { from, bytes });
            }
        }
    }

    /// A datagram from node `from` reaches node `to`: it crosses the
    /// plan of that link, if it has one.
    fn arrive(&mut self, to: usize, from: usize, bytes: Vec<u8>) {
        let origin = addr(from);
        let node = &mut self.nodes[to];
        let Some((fate, _)) = node.inbound.decide(&bytes, origin) else {
            self.handle(to, origin, &bytes);
            return;
        };
        fate.trace(&node.tracer, origin);
        for _ in 0..fate.copies() {
            match fate.delay {
                Some(delay) => {
                    let bytes = bytes.clone();
                    self.schedule(self.now + micros(delay), to, What::Deliver { from, bytes });
                }
                None => self.handle(to, origin, &bytes),
            }
        }
        self.handle_ready(to);
        self.arm_release(to);
    }

    /// Hands node `to` what its inbound faults hold ready.
    fn handle_ready(&mut self, to: usize) {
        while let Some((bytes, from)) = self.nodes[to].inbound.pop_ready() {
            self.handle(to, from, &bytes);
        }
    }

    /// Node `node`'s links went idle: everything held is let go.
    fn release(&mut self, node: usize) {
        self.nodes[node].release_armed = false;
        self.nodes[node].inbound.release_held();
        self.handle_ready(node);
        self.arm_release(node);
    }

    /// Schedules an idle release when node `node`'s faults hold
    /// anything and none is pending — the reactor's release timer.
    fn arm_release(&mut self, node: usize) {
        let links = &mut self.nodes[node];
        if !links.release_armed && links.inbound.holds() {
            links.release_armed = true;
            self.schedule(self.now + micros(IDLE_RELEASE), node, What::Release);
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
        nodes: Vec::with_capacity(count),
        outbox: Outbox::new(),
    };
    let mut sinks = Vec::with_capacity(count);
    for setup in setups {
        let shared = Arc::new(Shared::default());
        let tracer = Tracer::from_option(setup.config.trace.clone());
        let mut sm = NodeStateMachine::new(setup.config, Arc::clone(&shared));
        sm.set_peers(setup.peers.iter().map(|&to| addr(to)).collect());
        let mut inbound = InboundState::default();
        for (from, plan) in setup.links {
            inbound.set_link(addr(from), plan);
        }
        world.nodes.push(Node { sm, shared, inbound, tracer, release_armed: false });
        sinks.push(setup.sink);
    }
    let period = micros(config.options.tick).max(1);
    for node in 0..count {
        world.schedule(period, node, What::Tick);
    }

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
        match what {
            // Converged: the ticks stop, the datagrams in flight land.
            What::Tick if converged_at.is_some() => {}
            What::Tick => world.tick(node, period),
            What::Release => world.release(node),
            What::Arrive { from, bytes } => world.arrive(node, from, bytes),
            What::Deliver { from, bytes } => world.handle(node, addr(from), &bytes),
        }
        if completed_at[node].is_none() && world.nodes[node].shared.complete.load(Ordering::Acquire)
        {
            completed_at[node] = Some(Duration::from_micros(at));
            incomplete -= 1;
            if incomplete == 0 {
                converged_at = Some(at);
            }
        }
    }

    let reports: Vec<PeerReport> = world
        .nodes
        .into_iter()
        .zip(sinks)
        .map(|(node, sink)| {
            let mut report = node.sm.into_report();
            report.faults = node.inbound.totals();
            report.link_faults = node.inbound.link_counters();
            if let Some(sink) = sink {
                report.events = sink.drain();
            }
            report
        })
        .collect();
    let elapsed = Duration::from_micros(converged_at.unwrap_or(deadline));
    let node_addrs = (0..count).map(addr).collect();
    assemble_report(config, manifest.generation_count(), elapsed, completed_at, node_addrs, reports)
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
