//! The UDP runtime: every node multiplexed onto a few `ltnc-reactor`
//! worker threads.
//!
//! A [`NodeStateMachine`] is scheduled by reactor callbacks and by
//! nothing else: each node is a [`Driven`] implementation
//! ([`ShardedNode`]) whose nonblocking [`FaultySocket`] is polled
//! edge-triggered, whose gossip tick is a reactor timer, and whose
//! held-datagram release (the fault layer's reorder/duplicate holds) is
//! a second, on-demand timer. A swarm ([`run_sharded`]) is many such
//! nodes on a few workers; a single [`crate::PeerNode`] is one of them on
//! a one-worker reactor of its own.
//!
//! Two properties follow from the shape:
//!
//! * there is no queue between socket and state machine — backpressure
//!   is the OS socket buffer, and
//!   [`ltnc_metrics::WireCounters::inbound_dropped`] stays zero;
//! * *delay* faults still block (`thread::sleep` inside the fault
//!   layer), which stalls a whole worker shard — prefer
//!   drop/reorder/duplicate plans for large runs.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::os::fd::RawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ltnc_reactor::{Cx, Driven, Reactor};
use ltnc_scheme::SchemeParams;
use ltnc_telemetry::{RingSink, ScrapeOptions, ScrapeServer, Tracer};

use crate::faults::{DatagramFaults, FaultySocket};
use crate::generation::split_object;
use crate::observe::{swarm_registry, FlightState, SwarmTelemetry};
use crate::peer::{
    publish_source_complete, spawn_scrape, NodeConfig, NodeOptions, NodeRole, NodeStateMachine,
    PeerReport, Shared,
};
use crate::swarm::{assemble_report, FlightRecorder, SwarmConfig, SwarmReport, SwarmWiring};

/// Timer tag of the recurring gossip tick.
const TICK_TAG: u64 = 0;

/// Timer tag of the one-shot held-datagram release.
const RELEASE_TAG: u64 = 1;

/// How long held (reordered/duplicated) datagrams wait before release.
const RELEASE_DELAY: Duration = Duration::from_millis(20);

/// How long the driver parks between completion checks when no node
/// wakes it — also the stall watchdog's cadence.
const COMPLETION_POLL: Duration = Duration::from_millis(5);

/// One node on the reactor: the [`NodeStateMachine`] plus the socket
/// handle and timers that schedule it.
pub(crate) struct ShardedNode {
    /// `Some` until [`Driven::finish`] extracts the report.
    sm: Option<NodeStateMachine>,
    /// Drain/release handle sharing the state machine's fault state.
    pub(crate) socket: FaultySocket,
    /// The address the node receives on.
    pub(crate) local_addr: SocketAddr,
    /// What the node publishes for observers outside its worker.
    pub(crate) shared: Arc<Shared>,
    /// Gossip tick period ([`NodeOptions::tick`]).
    tick: Duration,
    /// Whether a RELEASE timer is already pending (one at a time).
    release_armed: bool,
    /// Metrics endpoint, when [`NodeOptions::metrics_bind`] asked for
    /// one; shut down in [`Driven::finish`].
    scrape: Option<ScrapeServer>,
}

impl ShardedNode {
    /// Builds a node, quiet until it is given peers: binds `bind` behind
    /// `faults`, switches the socket to nonblocking, publishes a source's
    /// completion, starts the per-node scrape endpoint when
    /// [`NodeOptions::metrics_bind`] asks for one, and constructs the
    /// state machine. The only place in the crate a node is put together.
    pub(crate) fn bind(
        bind: SocketAddr,
        config: NodeConfig,
        faults: DatagramFaults,
    ) -> io::Result<ShardedNode> {
        let tracer = Tracer::from_option(config.trace.clone());
        let socket = FaultySocket::with_tracer(UdpSocket::bind(bind)?, faults, tracer)?;
        socket.set_nonblocking(true)?;
        let local_addr = socket.local_addr()?;

        let shared = Arc::new(Shared::default());
        publish_source_complete(&config.role, &shared);
        let scrape = spawn_scrape(&config.options, local_addr, &shared, &socket)?;
        let tick = config.options.tick;
        let sm = NodeStateMachine::new(socket.try_clone()?, config, Arc::clone(&shared));
        Ok(ShardedNode {
            sm: Some(sm),
            socket,
            local_addr,
            shared,
            tick,
            release_armed: false,
            scrape,
        })
    }

    /// Where the per-node scrape endpoint listens, if there is one.
    pub(crate) fn metrics_addr(&self) -> Option<SocketAddr> {
        self.scrape.as_ref().map(ScrapeServer::local_addr)
    }

    /// Wires the node in (or re-wires it) — before the reactor starts, or
    /// from [`Driven::on_control`] afterwards.
    fn set_peers(&mut self, peers: Vec<SocketAddr>) {
        if let Some(sm) = self.sm.as_mut() {
            sm.set_peers(peers);
        }
    }

    /// Drains the socket to `WouldBlock` — the edge-triggered contract —
    /// feeding every surviving datagram to the state machine, then arms
    /// a release timer if the fault layer parked anything.
    fn drain(&mut self, cx: &mut Cx) {
        if let Some(sm) = self.sm.as_mut() {
            loop {
                let buf = cx.scratch();
                match self.socket.try_recv_from(buf) {
                    Ok(Some((len, from))) => sm.handle_datagram(&buf[..len], from),
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

    /// Arms the one-shot release timer when the fault layer holds
    /// datagrams (reorder/duplicate parking) and no release is pending.
    fn check_held(&mut self, cx: &mut Cx) {
        if !self.release_armed && self.socket.has_held_datagrams() {
            cx.arm(RELEASE_DELAY, RELEASE_TAG);
            self.release_armed = true;
        }
    }
}

impl Driven for ShardedNode {
    /// The node's new push targets ([`crate::PeerNode::set_peers`]).
    type Control = Vec<SocketAddr>;
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
                if let Some(sm) = self.sm.as_mut() {
                    sm.tick();
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

    fn on_control(&mut self, peers: Vec<SocketAddr>, _cx: &mut Cx) {
        self.set_peers(peers);
    }

    fn finish(&mut self) -> PeerReport {
        if let Some(scrape) = self.scrape.take() {
            scrape.shutdown();
        }
        self.sm.take().expect("finish is called exactly once").into_report()
    }
}

/// Runs a wired swarm on `workers` reactor workers — the body of
/// [`crate::swarm::run_wired_swarm`], which has already validated
/// `config` and `wiring`.
pub(crate) fn run_sharded(
    config: &SwarmConfig,
    wiring: &SwarmWiring,
    workers: usize,
) -> io::Result<SwarmReport> {
    let node_count = config.peers + 1;
    let params = SchemeParams::new(config.scheme, config.code_length, config.payload_size);
    let manifest = split_object(&config.object, params).0;
    let bind: SocketAddr = "127.0.0.1:0".parse().expect("valid address");

    // Node 0 is the source; peers are 1..=N. Each node re-mixes the fault
    // template's seed with its index so links fail independently.
    let node_faults = |index: u64| match &config.faults {
        Some(template) => template.for_node(index),
        None => DatagramFaults::clean(config.options.seed ^ index),
    };

    let mut nodes: Vec<ShardedNode> = Vec::with_capacity(node_count);
    let mut sinks: Vec<Option<Arc<RingSink>>> = Vec::with_capacity(node_count);
    let mut completion: Vec<Arc<Shared>> = Vec::with_capacity(node_count);
    let mut node_addrs: Vec<SocketAddr> = Vec::with_capacity(node_count);
    for i in 0..node_count {
        let role = if i == 0 {
            NodeRole::Source { object: config.object.clone(), params }
        } else {
            NodeRole::Peer { manifest }
        };
        let seed = if i == 0 {
            config.options.seed ^ 0xD15E
        } else {
            config.options.seed.wrapping_add(i as u64)
        };
        // One bounded ring per node when tracing is on; drained into
        // each node's report after shutdown.
        let sink = config.trace_capacity.map(|capacity| Arc::new(RingSink::new(capacity)));
        sinks.push(sink.clone());
        let mut node_config =
            NodeConfig::new(config.session, role, NodeOptions { seed, ..config.options });
        node_config.trace = sink.map(|sink| sink as _);
        // The aggregated endpoint reads every node's live mirror, so
        // the per-tick refresh must run even without per-node endpoints.
        node_config.publish_live = config.metrics_bind.is_some();

        // An early `?` here drops the nodes built so far; their
        // ScrapeServers stop on drop, and no reactor threads exist yet.
        let node = ShardedNode::bind(bind, node_config, node_faults(i as u64))?;
        // The completion loop below parks; a node finishing unparks it.
        let _ = node.shared.driver.set(thread::current());
        completion.push(Arc::clone(&node.shared));
        node_addrs.push(node.local_addr);
        nodes.push(node);
    }

    // Link plans and peer wiring both go in before the reactor exists —
    // no state machine runs until Reactor::start, so there is no window
    // where early datagrams cross a link un-faulted.
    for &(from, to, plan) in &wiring.link_faults {
        nodes[to].socket.set_link_plan(node_addrs[from], plan);
    }
    for (i, node) in nodes.iter_mut().enumerate() {
        let targets: Vec<SocketAddr> =
            wiring.push_targets[i].iter().map(|&j| node_addrs[j]).collect();
        node.set_peers(targets);
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
                stall_window: recorder.stall_window,
            };
            (recorder.clone(), state)
        });

    // The swarm-wide endpoint goes up before the reactor so an early
    // start failure tears it down by drop; sampling an idle registry is
    // harmless.
    let scrape = match config.metrics_bind.zip(telemetry.as_deref()) {
        Some((addr, telemetry)) => {
            let registry =
                Arc::new(swarm_registry(&completion, manifest.generation_count(), telemetry));
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
    // node completes or `COMPLETION_POLL` elapses. The progress
    // signal is monotone (innovative symbols decoded + generations
    // completed, swarm-wide), so "unchanged for a whole stall window"
    // means no receiver advanced at all — cut a post-mortem once per
    // stall episode, and re-arm if progress ever resumes.
    let mut flight_dump: Option<String> = None;
    let progress_signal = |completion: &[Arc<Shared>]| -> u64 {
        completion[1..]
            .iter()
            .map(|shared| {
                shared.decoded_rank.load(Ordering::Relaxed)
                    + shared.complete_generations.load(Ordering::Acquire) as u64
            })
            .sum()
    };
    let mut last_progress = progress_signal(&completion);
    let mut last_change = Instant::now();
    let mut stalled = false;
    let deadline = started + config.timeout;
    while completion[1..].iter().any(|shared| !shared.complete.load(Ordering::Acquire))
        && Instant::now() < deadline
    {
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

    if completion[1..].iter().any(|shared| !shared.complete.load(Ordering::Acquire)) {
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

    let mut report =
        assemble_report(config, manifest.generation_count(), elapsed, node_addrs, reports);
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
