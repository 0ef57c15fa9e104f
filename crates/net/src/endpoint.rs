//! One node as both swarm drivers run it: the sans-io
//! [`NodeStateMachine`] behind the fault plans of the links into it, on
//! the node's microsecond clock.
//!
//! An [`Endpoint`] owns no socket and reads no clock. A driver hands it
//! each datagram that arrives ([`Endpoint::datagram`]), each gossip tick
//! ([`Endpoint::tick`]) and each release its links asked for
//! ([`Endpoint::release`], when [`Endpoint::next_release`] said), all
//! with `now`, which also stamps its trace events, and sends what lands
//! in the outbox. The reactor (`crate::sharded`) moves the bytes over
//! UDP, the virtual-time driver (`crate::virtual_time`) over in-memory
//! links in simulated time; nothing else differs.

use std::net::SocketAddr;
use std::sync::Arc;

use crate::faults::InboundState;
use crate::peer::{NodeStateMachine, Outbox, PeerReport, Shared};
use crate::swarm::NodeSetup;

/// A node and the inbound side of its links.
pub(crate) struct Endpoint {
    sm: NodeStateMachine,
    shared: Arc<Shared>,
    inbound: InboundState,
    /// When the release the driver has pending falls due, if it has one.
    armed: Option<u64>,
}

impl Endpoint {
    /// Builds node `setup`, naming every node by `addr`: its state
    /// machine, wired to push to its peers, behind the plans of its
    /// links.
    pub(crate) fn new(setup: NodeSetup, addr: impl Fn(usize) -> SocketAddr) -> Endpoint {
        let NodeSetup { config, peers, links } = setup;
        let shared = Arc::new(Shared::default());
        let mut sm = NodeStateMachine::new(config, Arc::clone(&shared));
        sm.set_peers(peers.into_iter().map(&addr).collect());
        let mut inbound = InboundState::default();
        for (from, plan) in links {
            inbound.set_link(addr(from), plan);
        }
        Endpoint { sm, shared, inbound, armed: None }
    }

    /// What the node publishes for observers outside its driver.
    pub(crate) fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// A datagram from `from` arrived at `now`. It crosses its link's
    /// plan, and the state machine handles the copies that pass — from
    /// `bytes` as they are — then the holds they overtook.
    pub(crate) fn datagram(&mut self, now: u64, from: SocketAddr, bytes: &[u8], out: &mut Outbox) {
        for _ in 0..self.inbound.arrive(now, from, bytes, &self.sm.tracer) {
            self.sm.handle_datagram(now, from, bytes, out);
        }
        self.handle_ready(now, out);
    }

    /// The gossip tick at `now`.
    pub(crate) fn tick(&mut self, now: u64, out: &mut Outbox) {
        self.sm.tick(now, out);
    }

    /// A release the driver armed fired at `now`: the state machine
    /// handles what the links let go.
    pub(crate) fn release(&mut self, now: u64, out: &mut Outbox) {
        self.armed = None;
        self.inbound.release(now);
        self.handle_ready(now, out);
    }

    /// When the driver must call [`Endpoint::release`] next, if no
    /// release it armed comes first: each `Some` is a timer to arm.
    /// Asked after every other call.
    pub(crate) fn next_release(&mut self) -> Option<u64> {
        let due = self.inbound.next_release()?;
        if self.armed.is_some_and(|armed| armed <= due) {
            return None;
        }
        self.armed = Some(due);
        Some(due)
    }

    fn handle_ready(&mut self, now: u64, out: &mut Outbox) {
        while let Some((bytes, from)) = self.inbound.pop_ready() {
            self.sm.handle_datagram(now, from, &bytes, out);
        }
    }

    /// The node's final accounting, with the faults its links injected.
    pub(crate) fn finish(self) -> PeerReport {
        let mut report = self.sm.into_report();
        report.faults = self.inbound.totals();
        report.link_faults = self.inbound.link_counters();
        report
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use ltnc_scheme::{SchemeKind, SchemeParams};
    use ltnc_telemetry::{RingSink, TraceEvent};

    use super::*;
    use crate::faults::{DatagramFaultPlan, IDLE_RELEASE};
    use crate::peer::{micros, NodeConfig, NodeOptions, NodeRole};

    /// Node `node`'s address.
    fn addr(node: usize) -> SocketAddr {
        SocketAddr::from(([10, 0, 0, node as u8 + 1], 7))
    }

    /// A source with the given links in, tracing into a sink of its own.
    /// Whatever the tests send it is garbage to its state machine, which
    /// counts each copy it handles as a decode error.
    fn source(links: Vec<(usize, DatagramFaultPlan)>) -> Endpoint {
        let params = SchemeParams::new(SchemeKind::Rlnc, 4, 2);
        let role = NodeRole::Source { object: vec![7; 8], params };
        let mut config = NodeConfig::new(1, role, NodeOptions::default());
        config.trace = Some(Arc::new(RingSink::new(1024)));
        Endpoint::new(NodeSetup { config, peers: Vec::new(), links }, addr)
    }

    #[test]
    fn link_plan_delivery_is_deterministic_for_one_sender() {
        // One ordered sender, drop + duplicate faults: two runs with the
        // same seed inject the same faults, in the same order, and hand
        // the state machine every copy that passes — at once.
        let run = |seed: u64| {
            let plan = DatagramFaultPlan::clean(seed).drop_rate(0.3).duplicate_rate(0.15);
            let mut endpoint = source(vec![(0, plan)]);
            let mut out = Outbox::new();
            for i in 0..60u8 {
                endpoint.datagram(u64::from(i) * 200, addr(0), &[i], &mut out);
            }
            assert_eq!(endpoint.next_release(), None, "drops and duplicates park nothing");
            let report = endpoint.finish();
            let faults = report.faults;
            assert!(faults.dropped_in > 0 && faults.duplicated_in > 0, "{faults:?}");
            let handled = 60 - faults.dropped_in + faults.duplicated_in;
            assert_eq!(report.wire.decode_errors, handled, "every passing copy is handled");
            let faults: Vec<TraceEvent> = report.events.iter().map(|timed| timed.event).collect();
            assert_eq!(faults.len() as u64, report.faults.total());
            faults
        };
        assert_eq!(run(0xF00D), run(0xF00D), "same seed must replay the same faults");
        assert_ne!(run(0xF00D), run(0xF00E));
    }

    #[test]
    fn next_release_arms_each_earlier_release_once() {
        let hold = DatagramFaultPlan::clean(1).reorder(1.0, 8);
        let delay = DatagramFaultPlan::clean(2).delay(1.0, Duration::from_millis(3));
        let mut endpoint = source(vec![(0, hold), (1, delay)]);
        let mut out = Outbox::new();
        let idle = micros(IDLE_RELEASE);

        endpoint.datagram(0, addr(0), b"held", &mut out);
        assert_eq!(endpoint.next_release(), Some(idle), "a hold asks for the idle release");
        assert_eq!(endpoint.next_release(), None, "once: that release is armed");
        endpoint.datagram(1_000, addr(1), b"delayed", &mut out);
        assert_eq!(endpoint.next_release(), Some(4_000), "a sooner delay asks for its own");
        endpoint.release(4_000, &mut out);
        assert_eq!(endpoint.next_release(), Some(idle), "the hold still waits for idle");
        endpoint.release(idle, &mut out);
        assert_eq!(endpoint.next_release(), None, "nothing is parked any more");
        assert!(out.is_empty(), "a source answers no garbage");
        assert_eq!(endpoint.finish().wire.decode_errors, 2, "both datagrams were handled");
    }
}
