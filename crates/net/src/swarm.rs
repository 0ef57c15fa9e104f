//! Swarm orchestration: one source, N peers, two drivers.
//!
//! This is the harness the integration tests, the examples and the
//! figure binaries drive. [`run_wired_swarm`] spawns every node on an
//! ephemeral `127.0.0.1` port on the reactor, wires the peer lists,
//! waits for convergence, shuts everything down gracefully and verifies
//! the reconstruction bit for bit. [`crate::run_virtual_swarm`] runs the
//! same nodes from the same [`SwarmConfig`] and [`SwarmWiring`] on one
//! thread in virtual time, and fills in the same [`SwarmReport`].
//!
//! Since PR 5 the harness is *wiring-generic*: [`run_wired_swarm`] takes
//! a [`SwarmWiring`] — per-node push-target sets plus optional
//! per-directed-link inbound fault plans — so arbitrary overlay
//! topologies run through the same code path. The legacy full mesh (the
//! source pushes to every peer; peers gossip among themselves and never
//! push back at the source) is the trivial wiring
//! ([`SwarmWiring::full_mesh`]), and [`run_localhost_swarm`] is exactly
//! that special case. The declarative topology layer lives one crate up,
//! in `ltnc-topo`.
//!
//! With [`SwarmConfig::faults`] set, every node's socket is wrapped in a
//! [`crate::faults::FaultySocket`] whose plans are re-seeded per node
//! from the one template — a whole swarm of lossy, reordering links from
//! a single seed, replayable by fixing that seed. Link-level plans from
//! the wiring are installed on top, shadowing the node default for their
//! origin.

use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use ltnc_metrics::{ReactorSnapshot, WireCounters};
use ltnc_scheme::{SchemeKind, SchemeParams};
use ltnc_telemetry::RingSink;

use crate::faults::{DatagramFaultCounters, DatagramFaultPlan, DatagramFaults};
use crate::generation::{split_object, ObjectManifest};
use crate::peer::{NodeConfig, NodeOptions, NodeRole, PeerReport};

/// Parameters of one dissemination run, on either driver.
#[derive(Debug, Clone)]
pub struct SwarmConfig {
    /// Coding scheme all nodes run.
    pub scheme: SchemeKind,
    /// The object to disseminate.
    pub object: Vec<u8>,
    /// Code length `k` (natives per generation).
    pub code_length: usize,
    /// Payload size `m` in bytes.
    pub payload_size: usize,
    /// Number of receiving peers.
    pub peers: usize,
    /// Per-node tuning.
    pub options: NodeOptions,
    /// Give up after this long (virtual time on the virtual-time
    /// driver).
    pub timeout: Duration,
    /// Session identifier stamped into every envelope.
    pub session: u64,
    /// Datagram fault template applied to every node's socket (`None`
    /// runs clean). Each node gets the template's rates under a seed
    /// re-mixed from its swarm index ([`DatagramFaults::for_node`]), so
    /// one seed describes the whole swarm's loss pattern.
    pub faults: Option<DatagramFaults>,
    /// When set, every node records its [`ltnc_telemetry::TraceEvent`]s
    /// into a bounded [`ltnc_telemetry::RingSink`] of this capacity,
    /// drained into [`PeerReport::events`] at shutdown. `None` (the
    /// default) installs no sink — every trace hook stays a no-op.
    pub trace_capacity: Option<usize>,
    /// How many reactor workers the nodes are sharded across (see
    /// [`SwarmRuntime`]). This and the two observability knobs below
    /// are the reactor's: the virtual-time driver ignores them.
    pub runtime: SwarmRuntime,
    /// When set, the whole swarm serves *one* aggregated scrape endpoint
    /// bound here (`/metrics`, `/metrics.json`, and `/flight` when the
    /// flight recorder is on): rolled-up wire counters, merged
    /// hop-latency histograms, decoder-progress gauges, and per-shard
    /// `reactor` scheduler families. The scalable alternative to a
    /// [`NodeOptions::metrics_bind`] listener per node. Port 0 picks a
    /// free port. `None` (the default) serves nothing.
    pub metrics_bind: Option<SocketAddr>,
    /// When set, the run has a stall watchdog and keeps a bounded
    /// per-shard flight ring of scheduler trace events, dumping a JSON
    /// post-mortem on stall, shutdown timeout, or on demand (the
    /// endpoint's `/flight` route). `None` (the default) records
    /// nothing.
    pub flight_recorder: Option<FlightRecorder>,
}

/// Configuration of the flight recorder
/// ([`SwarmConfig::flight_recorder`]).
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    /// Capacity of each shard's bounded event ring (oldest events are
    /// dropped first; the drop count is part of every dump).
    pub capacity: usize,
    /// How long the swarm may go without any decoding progress (no
    /// receiver gaining rank or completing a generation) before the
    /// watchdog declares a stall and cuts a dump. Checked on the
    /// driver's completion-poll cadence.
    pub stall_window: Duration,
    /// When set, stall and shutdown-timeout dumps are also written to
    /// this file (best effort — I/O errors are swallowed; the dump is
    /// always in [`SwarmReport::flight_dump`] regardless).
    pub dump_path: Option<PathBuf>,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder { capacity: 256, stall_window: Duration::from_secs(10), dump_path: None }
    }
}

/// How a swarm's node state machines are scheduled: on the
/// `ltnc-reactor` epoll runtime, sharded across `workers` poll-driven
/// worker threads. There is no other runtime; this stays an enum with
/// one variant only because the frozen `benchmark/` crate writes
/// `SwarmRuntime::Sharded { workers }` (ROADMAP item D: collapse it to
/// `workers: usize` in a benchmark-only PR).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwarmRuntime {
    /// Every node multiplexed onto `workers` reactor worker threads.
    Sharded {
        /// Worker threads to shard the nodes across (clamped to ≥ 1).
        /// A run replays by seed *and* worker count.
        workers: usize,
    },
}

impl SwarmConfig {
    /// A small, fast configuration for tests and demos.
    #[must_use]
    pub fn quick(scheme: SchemeKind, object: Vec<u8>) -> Self {
        SwarmConfig {
            scheme,
            object,
            code_length: 16,
            payload_size: 32,
            peers: 8,
            options: NodeOptions::default(),
            timeout: Duration::from_secs(30),
            session: 0x5E55_1011,
            faults: None,
            trace_capacity: None,
            // A constant, not the machine's core count: a run replays
            // by seed and worker count.
            runtime: SwarmRuntime::Sharded { workers: 2 },
            metrics_bind: None,
            flight_recorder: None,
        }
    }

    /// Panics with a clear message unless `wiring` fits this swarm.
    pub(crate) fn check(&self, wiring: &SwarmWiring) {
        assert!(self.peers > 0, "a swarm needs at least one peer");
        wiring.validate(self.peers + 1);
    }

    /// What both drivers build a swarm from: the object's manifest and,
    /// per node (0 is the source), its configuration, the fault plans
    /// its links start from — the template re-seeded per node — and the
    /// ring its trace events go to when tracing is on.
    pub(crate) fn nodes(&self) -> (ObjectManifest, Vec<NodeSetup>) {
        let params = SchemeParams::new(self.scheme, self.code_length, self.payload_size);
        let manifest = split_object(&self.object, params).0;
        let nodes = (0..=self.peers)
            .map(|index| {
                let (role, seed) = if index == 0 {
                    (
                        NodeRole::Source { object: self.object.clone(), params },
                        self.options.seed ^ 0xD15E,
                    )
                } else {
                    (NodeRole::Peer { manifest }, self.options.seed.wrapping_add(index as u64))
                };
                let sink = self.trace_capacity.map(|capacity| Arc::new(RingSink::new(capacity)));
                let options = NodeOptions { seed, ..self.options };
                let mut config = NodeConfig::new(self.session, role, options);
                config.trace = sink.clone().map(|sink| sink as _);
                // The aggregated endpoint reads every node's live mirror,
                // so the per-tick refresh must run even without per-node
                // endpoints.
                config.publish_live = self.metrics_bind.is_some();
                let faults = match &self.faults {
                    Some(template) => template.for_node(index as u64),
                    None => DatagramFaults::clean(self.options.seed ^ index as u64),
                };
                NodeSetup { config, faults, sink }
            })
            .collect();
        (manifest, nodes)
    }
}

/// One node as [`SwarmConfig::nodes`] lays it out.
pub(crate) struct NodeSetup {
    pub(crate) config: NodeConfig,
    pub(crate) faults: DatagramFaults,
    /// Drained into the node's [`PeerReport::events`] at the end.
    pub(crate) sink: Option<Arc<RingSink>>,
}

/// How the nodes of a swarm are wired together.
///
/// Node 0 is always the source; peers are `1..=peers`. The wiring names,
/// per node, the nodes it *pushes* to (offers transfers to — receiving
/// is governed by the sender's set, not the receiver's), plus optional
/// per-directed-link inbound fault plans installed once every node's
/// ephemeral address is known.
#[derive(Debug, Clone)]
pub struct SwarmWiring {
    /// `push_targets[i]` = swarm indices node `i` offers transfers to.
    /// Must have one entry per node (`peers + 1`), no self-loops, all
    /// indices in range.
    pub push_targets: Vec<Vec<usize>>,
    /// Per-directed-link fault plans `(from, to, plan)`: installed on
    /// `to`'s inbound side keyed by `from`'s address
    /// ([`crate::PeerNode::set_link_faults`]), shadowing `to`'s default inbound
    /// plan for datagrams from `from` — and tallied per link in
    /// [`PeerReport::link_faults`].
    pub link_faults: Vec<(usize, usize, DatagramFaultPlan)>,
}

impl SwarmWiring {
    /// The legacy full mesh: the source pushes to every peer, every peer
    /// pushes to every other peer (and never back at the all-knowing
    /// source).
    #[must_use]
    pub fn full_mesh(peers: usize) -> SwarmWiring {
        let mut push_targets = Vec::with_capacity(peers + 1);
        push_targets.push((1..=peers).collect());
        for i in 1..=peers {
            push_targets.push((1..=peers).filter(|&j| j != i).collect());
        }
        SwarmWiring { push_targets, link_faults: Vec::new() }
    }

    /// Panics with a clear message when the wiring is malformed for a
    /// swarm of `nodes` total nodes.
    fn validate(&self, nodes: usize) {
        assert_eq!(
            self.push_targets.len(),
            nodes,
            "wiring must name push targets for every node (source included)"
        );
        for (i, targets) in self.push_targets.iter().enumerate() {
            for &j in targets {
                assert!(j < nodes, "node {i} pushes to out-of-range node {j}");
                assert_ne!(i, j, "node {i} must not push to itself");
            }
        }
        for &(from, to, _) in &self.link_faults {
            assert!(from < nodes && to < nodes, "link fault ({from}→{to}) out of range");
            assert_ne!(from, to, "link fault ({from}→{to}) is a self-loop");
        }
    }
}

/// Outcome of a swarm run.
#[derive(Debug)]
pub struct SwarmReport {
    /// Scheme that ran.
    pub scheme: SchemeKind,
    /// Whether every peer decoded every generation before the timeout.
    pub converged: bool,
    /// Time until convergence (or the timeout) on the driver's clock:
    /// wall time on the reactor, virtual time on the virtual-time driver.
    pub elapsed: Duration,
    /// Peers that completed.
    pub peers_complete: usize,
    /// When each peer completed, on the same clock (swarm node `i` is
    /// `completed_at[i - 1]`); `None` for peers that did not.
    pub completed_at: Vec<Option<Duration>>,
    /// Whether every completed peer reassembled the object bit for bit.
    pub bit_exact: bool,
    /// Number of generations the object spanned.
    pub generations: u32,
    /// Wire counters summed over the source and all peers.
    pub total_wire: WireCounters,
    /// The source's full report (wire counters, recoding cost, injected
    /// faults and per-link tallies); each peer's is in
    /// [`SwarmReport::peer_reports`].
    pub source_report: PeerReport,
    /// Injected-fault totals summed over every node's socket (all zero
    /// for a clean run).
    pub total_faults: DatagramFaultCounters,
    /// Every node's bound address, swarm-indexed (0 = source) — what
    /// maps the address-keyed per-link tallies back to nodes.
    pub node_addrs: Vec<SocketAddr>,
    /// Per-peer reports (source excluded; swarm node `i` is
    /// `peer_reports[i - 1]`).
    pub peer_reports: Vec<PeerReport>,
    /// Final per-shard reactor scheduler snapshots, shard-indexed —
    /// populated only when [`SwarmConfig::metrics_bind`] or
    /// [`SwarmConfig::flight_recorder`] asked for instrumentation
    /// (empty otherwise: the observer seam stays uninstalled and the
    /// hot loops take no clock readings).
    pub reactor: Vec<ReactorSnapshot>,
    /// The last flight-recorder post-mortem the run cut (stall or
    /// shutdown timeout), if any — the same JSON document a live
    /// `/flight` scrape serves.
    pub flight_dump: Option<String>,
}

impl SwarmReport {
    /// Injected-fault counters per node, swarm-indexed (0 = source) —
    /// the per-node attribution the aggregate
    /// [`SwarmReport::total_faults`] flattens away.
    #[must_use]
    pub fn node_faults(&self) -> Vec<DatagramFaultCounters> {
        std::iter::once(self.source_report.faults)
            .chain(self.peer_reports.iter().map(|report| report.faults))
            .collect()
    }

    /// Every node's full report, swarm-indexed (0 = source).
    pub fn node_reports(&self) -> impl Iterator<Item = &PeerReport> + '_ {
        std::iter::once(&self.source_report).chain(self.peer_reports.iter())
    }
}

/// Runs a full dissemination on localhost UDP with the legacy full-mesh
/// wiring and returns the report.
///
/// # Errors
///
/// Propagates socket setup failures; protocol-level problems surface as
/// `converged = false` / `bit_exact = false` instead of errors.
///
/// # Panics
///
/// Panics when `config.peers == 0`.
pub fn run_localhost_swarm(config: &SwarmConfig) -> io::Result<SwarmReport> {
    run_wired_swarm(config, &SwarmWiring::full_mesh(config.peers))
}

/// Runs a full dissemination on localhost UDP under an arbitrary
/// [`SwarmWiring`] — the general harness every overlay topology lowers
/// to — and returns the report.
///
/// # Errors
///
/// Propagates socket setup failures; protocol-level problems surface as
/// `converged = false` / `bit_exact = false` instead of errors.
///
/// # Panics
///
/// Panics when `config.peers == 0` or the wiring is malformed (wrong
/// node count, out-of-range indices, self-loops).
pub fn run_wired_swarm(config: &SwarmConfig, wiring: &SwarmWiring) -> io::Result<SwarmReport> {
    config.check(wiring);
    let SwarmRuntime::Sharded { workers } = config.runtime;
    crate::sharded::run_sharded(config, wiring, workers.max(1))
}

/// Folds the per-node reports of a finished run into the aggregate
/// [`SwarmReport`]. `reports[0]` is the source.
pub(crate) fn assemble_report(
    config: &SwarmConfig,
    generations: u32,
    elapsed: Duration,
    completed_at: Vec<Option<Duration>>,
    node_addrs: Vec<SocketAddr>,
    reports: Vec<PeerReport>,
) -> SwarmReport {
    let mut reports = reports.into_iter();
    let source_report = reports.next().expect("the source exists");
    let peer_reports: Vec<PeerReport> = reports.collect();

    let peers_complete = peer_reports.iter().filter(|r| r.complete).count();
    let converged = peers_complete == config.peers;
    let bit_exact = peer_reports
        .iter()
        .filter(|r| r.complete)
        .all(|r| r.object.as_deref() == Some(&config.object[..]));

    let mut total_wire = source_report.wire;
    let mut total_faults = source_report.faults;
    for report in &peer_reports {
        total_wire.merge(&report.wire);
        total_faults.merge(&report.faults);
    }

    SwarmReport {
        scheme: config.scheme,
        converged,
        elapsed,
        peers_complete,
        completed_at,
        bit_exact,
        generations,
        total_wire,
        source_report,
        total_faults,
        node_addrs,
        peer_reports,
        reactor: Vec::new(),
        flight_dump: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::DatagramFaultPlan;

    #[test]
    fn two_peer_swarm_converges_quickly() {
        let object: Vec<u8> = (0..777u32).map(|i| (i % 256) as u8).collect();
        let mut config = SwarmConfig::quick(SchemeKind::Ltnc, object);
        config.peers = 2;
        config.code_length = 8;
        config.payload_size = 16;
        let report = run_localhost_swarm(&config).expect("swarm runs");
        assert!(report.converged, "swarm did not converge: {report:?}");
        assert!(report.bit_exact);
        assert_eq!(report.peers_complete, 2);
        assert!(report.total_wire.transfers_delivered > 0);
        assert_eq!(report.node_addrs.len(), 3);
        assert_eq!(report.node_faults().len(), 3);
    }

    #[test]
    fn full_mesh_wiring_matches_the_legacy_shape() {
        let wiring = SwarmWiring::full_mesh(3);
        assert_eq!(wiring.push_targets[0], vec![1, 2, 3], "source pushes to every peer");
        assert_eq!(wiring.push_targets[1], vec![2, 3], "peers skip themselves and the source");
        assert_eq!(wiring.push_targets[2], vec![1, 3]);
        assert_eq!(wiring.push_targets[3], vec![1, 2]);
        assert!(wiring.link_faults.is_empty());
    }

    #[test]
    fn wired_swarm_respects_a_line_and_attributes_link_faults() {
        // A 2-hop line S → P1 → P2 with a 20%-drop plan on the relay →
        // far-peer link — the only path the far peer has. The run must
        // still converge through the lossy relay hop, and the link tally
        // must land on the far peer's report, keyed by the relay.
        let object: Vec<u8> = (0..600u32).map(|i| (i * 31 % 256) as u8).collect();
        let mut config = SwarmConfig::quick(SchemeKind::Rlnc, object);
        config.peers = 2;
        config.code_length = 8;
        config.payload_size = 16;
        let wiring = SwarmWiring {
            push_targets: vec![vec![1], vec![2], vec![1]],
            link_faults: vec![(1, 2, DatagramFaultPlan::clean(77).drop_rate(0.2))],
        };
        let report = run_wired_swarm(&config, &wiring).expect("swarm runs");
        assert!(report.converged, "line swarm did not converge: {report:?}");
        assert!(report.bit_exact);
        // The far peer (swarm node 2) carries the per-link tally, keyed
        // by the relay's address.
        let far = &report.peer_reports[1];
        assert_eq!(far.link_faults.len(), 1);
        assert_eq!(far.link_faults[0].0, report.node_addrs[1]);
        assert!(far.link_faults[0].1.dropped_in > 0, "20% link loss must drop something");
        // And the relay actually relayed: it recoded packets it never
        // originated.
        assert!(report.peer_reports[0].recoding.total_ops() > 0, "relay must recode");
    }

    #[test]
    #[should_panic(expected = "push targets for every node")]
    fn malformed_wiring_is_rejected() {
        let object = vec![1u8; 64];
        let mut config = SwarmConfig::quick(SchemeKind::Wc, object);
        config.peers = 2;
        let wiring = SwarmWiring { push_targets: vec![vec![1]], link_faults: Vec::new() };
        let _ = run_wired_swarm(&config, &wiring);
    }
}
