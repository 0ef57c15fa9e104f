//! The UDP runtime: every node multiplexed onto a few `ltnc-reactor`
//! worker threads.
//!
//! A [`NodeStateMachine`] is scheduled by reactor callbacks and by
//! nothing else: each node is a [`Driven`] implementation
//! ([`ShardedNode`]) whose nonblocking [`FaultySocket`] is polled
//! edge-triggered, whose gossip tick is a reactor timer, and whose
//! held-datagram release (the fault layer's reorder, duplicate and delay
//! holds) is a second, on-demand timer. A swarm ([`run_swarm`]) is
//! many such nodes on a few workers, and it is the only way a node runs
//! here: every node is wired to its neighbours before the reactor
//! starts, and nothing rewires it after.
//!
//! [`ShardedNode`] is the only adapter that reads the wall clock or
//! touches a socket: it hands the sans-io state machine each datagram
//! with `now` and sends what the machine emits. There is no queue
//! between socket and state machine — backpressure is the OS socket
//! buffer, and [`ltnc_metrics::WireCounters::inbound_dropped`] stays
//! zero.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::os::fd::RawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ltnc_reactor::{Cx, Driven, Reactor};
use ltnc_telemetry::{ScrapeOptions, ScrapeServer, Tracer};

use crate::envelope::TraceContext;
use crate::faults::FaultySocket;
use crate::observe::{swarm_registry, FlightState, SwarmTelemetry};
use crate::peer::{NodeConfig, NodeStateMachine, Outbox, PeerReport, Shared};
use crate::swarm::{assemble_report, FlightRecorder, SwarmReport, SwarmRuntime, TopologyConfig};

/// Timer tag of the recurring gossip tick.
const TICK_TAG: u64 = 0;

/// Timer tag of the one-shot held-datagram release.
const RELEASE_TAG: u64 = 1;

/// How long the driver parks between completion checks when no node
/// wakes it — also the stall watchdog's cadence.
const COMPLETION_POLL: Duration = Duration::from_millis(5);

/// One node on the reactor: the [`NodeStateMachine`] plus the socket,
/// clock and timers that schedule it.
pub(crate) struct ShardedNode {
    /// `Some` until [`Driven::finish`] extracts the report.
    sm: Option<NodeStateMachine>,
    /// The node's socket, behind the fault plans of its links.
    pub(crate) socket: FaultySocket,
    /// What the node publishes for observers outside its worker.
    pub(crate) shared: Arc<Shared>,
    /// The node's clock: the wall clock at bind, in microseconds, plus
    /// the monotonic time since — so origin stamps compare across nodes
    /// on the wire.
    anchor: (Instant, u64),
    /// What the state machine emitted and the socket has yet to send.
    outbox: Outbox,
    /// Gossip tick period ([`crate::NodeOptions::tick`]).
    tick: Duration,
    /// Whether a RELEASE timer is already pending (one at a time).
    release_armed: bool,
}

impl ShardedNode {
    /// Builds a node on the bound `socket`, wired to push to `peers`:
    /// wraps the socket for link faults (every link clean until a plan is
    /// set on [`ShardedNode::socket`]), switches it to nonblocking,
    /// anchors the node's clock and constructs the state machine. The
    /// only place in the crate a socket-backed node is put together.
    pub(crate) fn new(
        socket: UdpSocket,
        config: NodeConfig,
        peers: Vec<SocketAddr>,
    ) -> io::Result<ShardedNode> {
        let socket = FaultySocket::with_tracer(socket, Tracer::from_option(config.trace.clone()));
        socket.set_nonblocking(true)?;
        let shared = Arc::new(Shared::default());
        let tick = config.options.tick;
        let mut sm = NodeStateMachine::new(config, Arc::clone(&shared));
        sm.set_peers(peers);
        Ok(ShardedNode {
            sm: Some(sm),
            socket,
            shared,
            anchor: (Instant::now(), TraceContext::now_micros()),
            outbox: Outbox::new(),
            tick,
            release_armed: false,
        })
    }

    /// Drains the socket to `WouldBlock` — the edge-triggered contract —
    /// feeding every surviving datagram to the state machine and sending
    /// what it answers, then arms a release timer if the fault layer
    /// parked anything.
    fn drain(&mut self, cx: &mut Cx) {
        let anchor = self.anchor;
        if let Some(sm) = self.sm.as_mut() {
            loop {
                let buf = cx.scratch();
                match self.socket.try_recv_from(buf) {
                    Ok(Some((len, from))) => {
                        let now = micros_since(anchor);
                        sm.handle_datagram(now, from, &buf[..len], &mut self.outbox);
                        send_all(&self.socket, &mut self.outbox);
                    }
                    Ok(None) => break,
                    // Transient socket errors (e.g. ICMP port-unreachable
                    // surfacing as ECONNREFUSED) are not fatal for a
                    // datagram listener.
                    Err(_) => break,
                }
            }
        }
        self.check_held(cx);
    }

    /// Arms the one-shot release timer when the fault layer parks
    /// datagrams (reorder, duplicate and delay holds) and no release is
    /// pending.
    fn check_held(&mut self, cx: &mut Cx) {
        if self.release_armed {
            return;
        }
        if let Some(after) = self.socket.release_in() {
            cx.arm(after, RELEASE_TAG);
            self.release_armed = true;
        }
    }
}

/// Now, in microseconds on the clock `anchor` starts: the wall clock at
/// the anchor's instant plus the monotonic time since.
fn micros_since((at, micros): (Instant, u64)) -> u64 {
    micros + u64::try_from(at.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Sends, fire and forget, everything in `outbox`: a vanished peer must
/// not stall the node.
fn send_all(socket: &FaultySocket, outbox: &mut Outbox) {
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
        match tag {
            TICK_TAG => {
                let now = micros_since(self.anchor);
                if let Some(sm) = self.sm.as_mut() {
                    sm.tick(now, &mut self.outbox);
                    send_all(&self.socket, &mut self.outbox);
                }
                cx.arm(self.tick, TICK_TAG);
                self.check_held(cx);
            }
            RELEASE_TAG => {
                self.release_armed = false;
                self.socket.release_held();
                self.drain(cx);
            }
            _ => {}
        }
    }

    fn finish(&mut self) -> PeerReport {
        let mut report = self.sm.take().expect("finish is called exactly once").into_report();
        report.faults = self.socket.fault_counters();
        report.link_faults = self.socket.link_counters();
        report
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
    let node_count = setups.len();
    let bind: SocketAddr = "127.0.0.1:0".parse().expect("valid address");

    // Every socket is bound first, so each node is built knowing all
    // its neighbours' addresses. An early `?` drops what exists so far;
    // no reactor threads exist yet.
    let sockets = (0..node_count).map(|_| UdpSocket::bind(bind)).collect::<io::Result<Vec<_>>>()?;
    let node_addrs =
        sockets.iter().map(UdpSocket::local_addr).collect::<io::Result<Vec<SocketAddr>>>()?;
    let mut nodes: Vec<ShardedNode> = Vec::with_capacity(node_count);
    let mut sinks = Vec::with_capacity(node_count);
    let mut completion: Vec<Arc<Shared>> = Vec::with_capacity(node_count);
    for (socket, setup) in sockets.into_iter().zip(setups) {
        let peers = setup.peers.iter().map(|&to| node_addrs[to]).collect();
        let node = ShardedNode::new(socket, setup.config, peers)?;
        // Link plans go in before the reactor exists — no state machine
        // runs until Reactor::start, so there is no window where early
        // datagrams cross a link un-faulted.
        for (from, plan) in setup.links {
            node.socket.set_link_plan(node_addrs[from], plan);
        }
        // The completion loop below parks; a node finishing unparks it.
        let _ = node.shared.driver.set(thread::current());
        sinks.push(setup.sink);
        completion.push(Arc::clone(&node.shared));
        nodes.push(node);
    }

    // Instrumentation is opt-in: with neither the aggregated endpoint
    // nor the flight recorder requested, no observer is installed and
    // the reactor's hot loops take zero extra clock readings.
    let telemetry =
        (config.metrics_bind.is_some() || config.flight_recorder.is_some()).then(|| {
            let capacity = config.flight_recorder.as_ref().map(|recorder| recorder.capacity);
            let telemetry = Arc::new(SwarmTelemetry::new(workers, capacity));
            telemetry.set_node_counts(node_count);
            telemetry
        });

    let started = Instant::now();
    let flight: Option<(FlightRecorder, FlightState)> =
        config.flight_recorder.as_ref().zip(telemetry.as_ref()).map(|(recorder, telemetry)| {
            let state = FlightState {
                started,
                telemetry: Arc::clone(telemetry),
                completion: completion.clone(),
                source,
                stall_window: recorder.stall_window,
            };
            (recorder.clone(), state)
        });

    // The swarm-wide endpoint goes up before the reactor so an early
    // start failure tears it down by drop; sampling an idle registry is
    // harmless.
    let scrape = match config.metrics_bind.zip(telemetry.as_deref()) {
        Some((addr, telemetry)) => {
            let generations = manifest.generation_count();
            let registry = Arc::new(swarm_registry(&completion, source, generations, telemetry));
            let spawned = match &flight {
                Some((_, state)) => {
                    let state = state.clone();
                    ScrapeServer::spawn_with_flight(
                        addr,
                        registry,
                        ScrapeOptions::default(),
                        Arc::new(move || state.dump("demand", None)),
                    )
                }
                None => ScrapeServer::spawn(addr, registry, ScrapeOptions::default()),
            };
            Some(spawned?)
        }
        None => None,
    };

    let observer = telemetry.clone().map(|telemetry| telemetry as _);
    let reactor = Reactor::start_observed(nodes, workers, observer)?;

    // Completion wait doubling as the stall watchdog: parked until a
    // node completes or `COMPLETION_POLL` elapses, noting when each peer
    // is first seen complete. The progress signal is monotone
    // (innovative symbols decoded + generations completed, swarm-wide;
    // the source's share is constant), so "unchanged for a whole stall
    // window" means no receiver advanced at all — cut a post-mortem once
    // per stall episode, and re-arm if progress ever resumes.
    let mut flight_dump: Option<String> = None;
    let progress_signal = |completion: &[Arc<Shared>]| -> u64 {
        completion
            .iter()
            .map(|shared| {
                shared.decoded_rank.load(Ordering::Relaxed)
                    + shared.complete_generations.load(Ordering::Acquire) as u64
            })
            .sum()
    };
    let mut completed_at: Vec<Option<Duration>> = vec![None; node_count];
    completed_at[source] = Some(Duration::ZERO);
    let mut last_progress = progress_signal(&completion);
    let mut last_change = Instant::now();
    let mut stalled = false;
    let deadline = started + config.timeout;
    loop {
        for (at, shared) in completed_at.iter_mut().zip(&completion) {
            if at.is_none() && shared.complete.load(Ordering::Acquire) {
                *at = Some(started.elapsed());
            }
        }
        if completed_at.iter().all(Option::is_some) || Instant::now() >= deadline {
            break;
        }
        thread::park_timeout(COMPLETION_POLL);
        let Some((recorder, state)) = &flight else { continue };
        let signal = progress_signal(&completion);
        if signal != last_progress {
            last_progress = signal;
            last_change = Instant::now();
            stalled = false;
        } else if !stalled && last_change.elapsed() >= recorder.stall_window {
            stalled = true;
            let idle = last_change.elapsed();
            state.telemetry.note_stall(idle);
            let dump = state.dump("stall", Some(idle));
            write_dump(recorder, &dump);
            flight_dump = Some(dump);
        }
    }
    let elapsed = started.elapsed();

    // A stall verdict, once cut, is the run's post-mortem: a timeout
    // after it adds nothing the stall dump does not say.
    if flight_dump.is_none() && completed_at.iter().any(Option::is_none) {
        if let Some((recorder, state)) = &flight {
            let dump = state.dump("shutdown_timeout", None);
            write_dump(recorder, &dump);
            flight_dump = Some(dump);
        }
    }

    // Shutdown returns reports in original node order; pair each with
    // its trace sink.
    let reports: Vec<PeerReport> = reactor
        .shutdown()
        .into_iter()
        .zip(sinks)
        .map(|(mut report, sink)| {
            if let Some(sink) = sink {
                report.events = sink.drain();
            }
            report
        })
        .collect();
    if let Some(scrape) = scrape {
        scrape.shutdown();
    }

    let generations = manifest.generation_count();
    let mut report =
        assemble_report(config, generations, elapsed, completed_at, node_addrs, reports);
    if let Some(telemetry) = &telemetry {
        report.reactor = telemetry.snapshots();
    }
    report.flight_dump = flight_dump;
    Ok(report)
}

/// Best-effort write of a flight dump to the recorder's configured path
/// (the dump also rides the report either way).
fn write_dump(recorder: &FlightRecorder, dump: &str) {
    if let Some(path) = &recorder.dump_path {
        let _ = std::fs::write(path, dump);
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use ltnc_scheme::{SchemeKind, SchemeParams};

    use super::*;
    use crate::envelope::{self, EnvelopeHeader, Message, MessageKind};
    use crate::faults::DatagramFaultPlan;
    use crate::peer::{NodeOptions, NodeRole};

    #[test]
    fn a_delaying_node_does_not_stall_its_worker() {
        // Two sources on one reactor worker. A holds every inbound
        // datagram for 200 ms, and the test keeps sending it some; B
        // offers to a peer the test plays, which aborts every offer at
        // once. B's offer→feedback round trip must stay under its tick:
        // nothing A holds may hold up the worker B shares with it.
        let tick = Duration::from_millis(10);
        let params = SchemeParams::new(SchemeKind::Rlnc, 4, 2);
        let source = |seed| {
            let options = NodeOptions { tick, seed, ..NodeOptions::default() };
            NodeConfig::new(1, NodeRole::Source { object: vec![7; 8], params }, options)
        };
        let held = DatagramFaultPlan::clean(1).delay(1.0, Duration::from_millis(200));
        let bind = || UdpSocket::bind("127.0.0.1:0").expect("bind");
        let (peer, pest) = (bind(), bind());
        peer.set_read_timeout(Some(Duration::from_millis(250))).expect("timeout");
        let a = ShardedNode::new(bind(), source(1), Vec::new()).expect("build A");
        a.socket.set_link_plan(pest.local_addr().expect("addr"), held);
        let b = ShardedNode::new(bind(), source(2), vec![peer.local_addr().expect("addr")])
            .expect("build B");
        let addr = |node: &ShardedNode| node.socket.local_addr().expect("addr");
        let (a_addr, b_addr) = (addr(&a), addr(&b));
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
