//! The UDP runtime: every node multiplexed onto a few `ltnc-reactor`
//! worker threads.
//!
//! A node's endpoint (`crate::endpoint`: the [`NodeStateMachine`](crate::peer)
//! behind the fault plans of its links) is scheduled by reactor
//! callbacks and by nothing else: each node is a [`Driven`]
//! implementation ([`ShardedNode`]) whose nonblocking [`UdpSocket`] is
//! polled edge-triggered, whose gossip tick is a reactor timer, and
//! whose link releases (the fault plans' reorder holds and delays) are
//! a second, on-demand timer. A swarm ([`run_swarm`]) is many such nodes
//! on a few workers, and it is the only way a node runs here: every node
//! is wired to its neighbours before the reactor starts, and nothing
//! rewires it after.
//!
//! [`ShardedNode`] is the only adapter that touches a socket: it hands
//! the sans-io endpoint each datagram, straight from the worker's scratch
//! buffer, with `now`, and sends what the node emits. `now` is the
//! swarm's one clock, microseconds since the anchor [`run_swarm`] reads
//! once at the run's start and hands to every node, to the reactor
//! observer and to the stall watchdog — so trace stamps, completion
//! times and flight dumps all count from the run's start, as on the
//! virtual-time driver. There is no queue between socket and state machine —
//! backpressure is the OS socket buffer, and
//! [`ltnc_metrics::WireCounters::inbound_dropped`] stays zero.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ltnc_reactor::{Cx, Driven, Reactor};
use ltnc_telemetry::{ScrapeOptions, ScrapeServer};

use crate::endpoint::Endpoint;
use crate::observe::{swarm_registry, FlightState, SwarmTelemetry, Watchdog};
use crate::peer::{micros, Outbox, PeerReport, Shared};
use crate::swarm::{assemble_report, SwarmReport, SwarmRuntime, TopologyConfig};

/// Timer tag of the recurring gossip tick.
const TICK_TAG: u64 = 0;

/// Timer tag of a link release the endpoint asked for.
const RELEASE_TAG: u64 = 1;

/// How long the driver parks between completion checks when no node
/// wakes it — also the stall watchdog's cadence.
const COMPLETION_POLL: Duration = Duration::from_millis(5);

/// One node on the reactor: its endpoint plus the socket, clock and
/// timers that schedule it.
pub(crate) struct ShardedNode {
    /// `Some` until [`Driven::finish`] extracts the report.
    endpoint: Option<Endpoint>,
    socket: UdpSocket,
    /// The swarm's clock starts here: `now` is the time since, in
    /// microseconds, the same on every node, so origin stamps compare
    /// across nodes on the wire.
    anchor: Instant,
    /// What the endpoint emitted and the socket has yet to send.
    outbox: Outbox,
    /// Gossip tick period ([`crate::NodeOptions::tick`]).
    tick: Duration,
}

impl ShardedNode {
    /// Puts `endpoint` on the bound `socket`, switched to nonblocking,
    /// ticking every `tick`, on the swarm's clock started at `anchor`.
    pub(crate) fn new(
        socket: UdpSocket,
        endpoint: Endpoint,
        tick: Duration,
        anchor: Instant,
    ) -> io::Result<ShardedNode> {
        socket.set_nonblocking(true)?;
        Ok(ShardedNode { endpoint: Some(endpoint), socket, anchor, outbox: Outbox::new(), tick })
    }

    /// Drains the socket to `WouldBlock` — the edge-triggered contract —
    /// handing every datagram to the endpoint and sending what it
    /// answers.
    fn drain(&mut self, cx: &mut Cx) {
        if let Some(endpoint) = self.endpoint.as_mut() {
            loop {
                let buf = cx.scratch();
                // Transient socket errors (e.g. ICMP port-unreachable
                // surfacing as ECONNREFUSED) are not fatal for a datagram
                // listener; they end the drain as `WouldBlock` does.
                let Ok((len, from)) = self.socket.recv_from(buf) else { break };
                let now = micros(self.anchor.elapsed());
                endpoint.datagram(now, from, &buf[..len], &mut self.outbox);
                send_all(&self.socket, &mut self.outbox);
            }
        }
        self.arm_release(cx);
    }

    /// Arms the release timer the endpoint asks for, if any.
    fn arm_release(&mut self, cx: &mut Cx) {
        let Some(at) = self.endpoint.as_mut().and_then(Endpoint::next_release) else { return };
        cx.arm(
            Duration::from_micros(at.saturating_sub(micros(self.anchor.elapsed()))),
            RELEASE_TAG,
        );
    }
}

/// Sends, fire and forget, everything in `outbox`: a vanished peer must
/// not stall the node.
fn send_all(socket: &UdpSocket, outbox: &mut Outbox) {
    for (to, bytes) in outbox.drain(..) {
        let _ = socket.send_to(&bytes, to);
    }
}

impl Driven for ShardedNode {
    type Output = PeerReport;

    fn fd(&self) -> RawFd {
        self.socket.as_raw_fd()
    }

    fn on_start(&mut self, cx: &mut Cx) {
        cx.arm(self.tick, TICK_TAG);
        self.drain(cx);
    }

    fn on_readable(&mut self, cx: &mut Cx) {
        self.drain(cx);
    }

    fn on_timer(&mut self, tag: u64, cx: &mut Cx) {
        let now = micros(self.anchor.elapsed());
        if let Some(endpoint) = self.endpoint.as_mut() {
            if tag == TICK_TAG {
                endpoint.tick(now, &mut self.outbox);
                cx.arm(self.tick, TICK_TAG);
            } else {
                endpoint.release(now, &mut self.outbox);
            }
            send_all(&self.socket, &mut self.outbox);
        }
        self.arm_release(cx);
    }

    fn finish(&mut self) -> PeerReport {
        self.endpoint.take().expect("finish is called exactly once").finish()
    }
}

/// Runs a full dissemination over localhost UDP: every node on an
/// ephemeral `127.0.0.1` port, sharded across the reactor workers of
/// [`TopologyConfig::runtime`]; waits for convergence (or the timeout),
/// shuts everything down gracefully and verifies the reconstruction bit
/// for bit.
///
/// # Errors
///
/// Propagates socket setup failures; protocol-level problems surface as
/// `converged = false` / `bit_exact = false` instead of errors.
///
/// # Panics
///
/// Panics when the topology has fewer than two nodes, is disconnected,
/// or the source index is out of range.
pub fn run_swarm(config: &TopologyConfig) -> io::Result<SwarmReport> {
    let SwarmRuntime::Sharded { workers } = config.runtime;
    let workers = workers.max(1);
    let source = config.source;
    let (manifest, setups) = config.nodes();
    let (node_count, generations) = (setups.len(), manifest.generation_count());
    let bind: SocketAddr = "127.0.0.1:0".parse().expect("valid address");

    // Every socket is bound first, so each node is built knowing all
    // its neighbours' addresses. An early `?` drops what exists so far;
    // no reactor threads exist yet.
    let sockets = (0..node_count).map(|_| UdpSocket::bind(bind)).collect::<io::Result<Vec<_>>>()?;
    let node_addrs =
        sockets.iter().map(UdpSocket::local_addr).collect::<io::Result<Vec<SocketAddr>>>()?;
    // Link plans go in with the endpoint, before the reactor exists — no
    // state machine runs until Reactor::start, so there is no window
    // where early datagrams cross a link un-faulted.
    let endpoints: Vec<Endpoint> =
        setups.into_iter().map(|setup| Endpoint::new(setup, |node| node_addrs[node])).collect();
    let completion: Vec<Arc<Shared>> = endpoints.iter().map(|e| Arc::clone(e.shared())).collect();
    for shared in &completion {
        // The completion loop below parks; a node finishing unparks it.
        let _ = shared.driver.set(thread::current());
    }

    // The run starts here, on the swarm's one clock.
    let anchor = Instant::now();
    let nodes = sockets
        .into_iter()
        .zip(endpoints)
        .map(|(socket, endpoint)| ShardedNode::new(socket, endpoint, config.options.tick, anchor))
        .collect::<io::Result<Vec<_>>>()?;

    // Instrumentation is opt-in: with neither the aggregated endpoint
    // nor the flight recorder requested, no observer is installed and
    // the reactor's hot loops take zero extra clock readings.
    let telemetry =
        (config.metrics_bind.is_some() || config.flight_recorder.is_some()).then(|| {
            let capacity = config.flight_recorder.as_ref().map(|recorder| recorder.capacity);
            Arc::new(SwarmTelemetry::new(workers, node_count, capacity, anchor))
        });
    let mut watchdog = config.flight_recorder.clone().map(|recorder| {
        let (telemetry, completion) = (telemetry.clone(), completion.clone());
        Watchdog::new(FlightState { recorder, telemetry, completion, source })
    });

    // The swarm-wide endpoint goes up before the reactor so an early
    // start failure tears it down by drop; sampling an idle registry is
    // harmless.
    let scrape = match config.metrics_bind.zip(telemetry.as_deref()) {
        Some((addr, telemetry)) => {
            let registry = Arc::new(swarm_registry(&completion, source, generations, telemetry));
            let flight = watchdog.as_ref().map(|watchdog| {
                let state = watchdog.state.clone();
                Arc::new(move || state.dump(micros(anchor.elapsed()), "demand", None)) as _
            });
            Some(ScrapeServer::spawn_with_flight(addr, registry, ScrapeOptions::default(), flight)?)
        }
        None => None,
    };

    let observer = telemetry.clone().map(|telemetry| telemetry as _);
    let reactor = Reactor::start_observed(nodes, workers, observer)?;

    // Completion wait, feeding the stall watchdog: parked until a node
    // completes or `COMPLETION_POLL` elapses, noting when each peer is
    // first seen complete.
    let mut completed_at: Vec<Option<Duration>> = vec![None; node_count];
    completed_at[source] = Some(Duration::ZERO);
    let deadline = micros(config.timeout);
    let end = loop {
        let now = micros(anchor.elapsed());
        for (at, shared) in completed_at.iter_mut().zip(&completion) {
            if at.is_none() && shared.complete.load(Ordering::Acquire) {
                *at = Some(Duration::from_micros(now));
            }
        }
        if completed_at.iter().all(Option::is_some) || now >= deadline {
            break now;
        }
        thread::park_timeout(COMPLETION_POLL);
        if let Some(watchdog) = &mut watchdog {
            let progress = completion.iter().map(|shared| shared.progress()).sum();
            watchdog.observe(micros(anchor.elapsed()), progress);
        }
    };
    let converged = completed_at.iter().all(Option::is_some);
    let flight_dump = watchdog.and_then(|watchdog| watchdog.finish(end, converged));

    // Shutdown returns reports in original node order.
    let reports = reactor.shutdown();
    if let Some(scrape) = scrape {
        scrape.shutdown();
    }

    let elapsed = Duration::from_micros(end);
    let mut report =
        assemble_report(config, generations, elapsed, completed_at, node_addrs, reports);
    if let Some(telemetry) = &telemetry {
        report.reactor = telemetry.snapshots();
    }
    report.flight_dump = flight_dump;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use ltnc_scheme::{SchemeKind, SchemeParams};

    use super::*;
    use crate::envelope::{self, EnvelopeHeader, Message, MessageKind};
    use crate::faults::DatagramFaultPlan;
    use crate::peer::{NodeConfig, NodeOptions, NodeRole};
    use crate::swarm::NodeSetup;

    #[test]
    fn a_delaying_node_does_not_stall_its_worker() {
        // Two sources on one reactor worker. A's link from a pest the
        // test plays holds every datagram for 200 ms, and the test keeps
        // sending it some; B offers to a peer the test plays, which
        // aborts every offer at once. B's offer→feedback round trip must
        // stay under its tick: nothing A holds may hold up the worker B
        // shares with it.
        let tick = Duration::from_millis(10);
        let params = SchemeParams::new(SchemeKind::Rlnc, 4, 2);
        let bind = || UdpSocket::bind("127.0.0.1:0").expect("bind");
        let (peer, pest) = (bind(), bind());
        peer.set_read_timeout(Some(Duration::from_millis(250))).expect("timeout");
        let node = |seed, peers, links, to: &UdpSocket| {
            let options = NodeOptions { tick, seed, ..NodeOptions::default() };
            let role = NodeRole::Source { object: vec![7; 8], params };
            let config = NodeConfig::new(1, role, options);
            let to = to.local_addr().expect("addr");
            let endpoint = Endpoint::new(NodeSetup { config, peers, links }, |_| to);
            let socket = bind();
            let addr = socket.local_addr().expect("addr");
            (ShardedNode::new(socket, endpoint, tick, Instant::now()).expect("build"), addr)
        };
        let held = DatagramFaultPlan::clean(1).delay(1.0, Duration::from_millis(200));
        let (a, a_addr) = node(1, Vec::new(), vec![(0, held)], &pest);
        let (b, b_addr) = node(2, vec![0], Vec::new(), &peer);
        let reactor = Reactor::start(vec![a, b], 1).expect("start");

        let until = Instant::now() + Duration::from_millis(300);
        let mut buf = [0u8; 2048];
        while Instant::now() < until {
            pest.send_to(b"held for 200 ms", a_addr).expect("send to A");
            let Ok((len, _)) = peer.recv_from(&mut buf) else { continue };
            let offer = envelope::decode_view(&buf[..len]).expect("valid frame");
            let Message::DataHeader { transfer, .. } = offer.message else { continue };
            let header = EnvelopeHeader { kind: MessageKind::FeedbackAbort, ..offer.header };
            let abort = envelope::encode(&header, &Message::Feedback { transfer, accept: false });
            peer.send_to(&abort, b_addr).expect("answer B");
        }

        let reports = reactor.shutdown();
        assert!(reports[0].faults.delayed_in > 0, "A must have held datagrams");
        let (_, rtt) = reports[1].rtt_estimates.first().copied().expect("B measured its peer");
        assert!(rtt < tick, "B's round trip took {rtt:?}: it waited on A's delays");
    }
}
