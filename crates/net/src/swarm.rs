//! One description of a dissemination run, for both drivers.
//!
//! A [`TopologyConfig`] names an overlay [`Topology`] and its source;
//! every other node starts empty. A node pushes (offers transfers) only
//! to its overlay neighbours, and never at the source, which needs
//! nothing — so on anything sparser than [`Topology::complete`], data
//! reaching a non-neighbour of the source has crossed recoding relays.
//! Loss is declared per directed link ([`TopologyFaults`]): each plan is
//! installed on the receiving node's inbound side, keyed by the sender,
//! so every injected fault stays attributable to the link that ate it.
//!
//! [`crate::run_swarm`] runs the nodes over localhost UDP on the
//! reactor, waits for convergence, shuts everything down gracefully and
//! verifies the reconstruction bit for bit. [`crate::run_virtual_swarm`]
//! runs the same nodes on one thread in virtual time. Both build them
//! from one layout of the config and fill in the same [`SwarmReport`].
//! Nodes are numbered by topology index from end to end: in their seeds,
//! in the report's addresses and peer order, and in flight dumps.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use ltnc_metrics::{ReactorSnapshot, WireCounters};
use ltnc_scheme::{SchemeKind, SchemeParams};
use ltnc_telemetry::RingSink;

use crate::faults::{DatagramFaultCounters, DatagramFaultPlan};
use crate::peer::{NodeConfig, NodeOptions, NodeRole, PeerReport};
use crate::topology::Topology;
use ltnc_session::generation::{split_object, ObjectManifest};

/// Seeded per-link fault plans: one template re-mixed per directed link,
/// plus explicit per-link overrides.
///
/// Every directed link `(from, to)` of the topology gets the template's
/// rates under a seed mixed from the template seed and both endpoints
/// (splitmix64-style), so one seed describes the whole overlay's loss
/// pattern — and the two directions of an edge fail independently, like
/// real radio links do.
#[derive(Debug, Clone, Default)]
pub struct TopologyFaults {
    /// The plan every directed link starts from (`None` leaves links
    /// without an override clean).
    pub template: Option<DatagramFaultPlan>,
    /// Explicit per-directed-link plans, taking precedence over the
    /// template. Links are named by topology indices `(from, to)`.
    pub overrides: Vec<((usize, usize), DatagramFaultPlan)>,
}

impl TopologyFaults {
    /// The same fault rates on every directed link, decorrelated per
    /// link by seed mixing.
    #[must_use]
    pub fn uniform(template: DatagramFaultPlan) -> TopologyFaults {
        TopologyFaults { template: Some(template), overrides: Vec::new() }
    }

    /// The plan in force on the directed link `from → to`, if any.
    #[must_use]
    pub fn plan_for(&self, from: usize, to: usize) -> Option<DatagramFaultPlan> {
        if let Some(&(_, plan)) = self.overrides.iter().find(|&&(link, _)| link == (from, to)) {
            return Some(plan);
        }
        self.template.map(|template| DatagramFaultPlan {
            seed: mix_link_seed(template.seed, from, to),
            ..template
        })
    }
}

/// Derives a per-link seed from the template seed and the directed
/// endpoints (the splitmix64 finalizer).
fn mix_link_seed(seed: u64, from: usize, to: usize) -> u64 {
    let mut z = seed
        .wrapping_add((from as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((to as u64 + 1).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Parameters of one dissemination run, on either driver.
#[derive(Debug, Clone)]
pub struct TopologyConfig {
    /// Coding scheme all nodes run.
    pub scheme: SchemeKind,
    /// The object to disseminate.
    pub object: Vec<u8>,
    /// Code length `k` (natives per generation).
    pub code_length: usize,
    /// Payload size `m` in bytes.
    pub payload_size: usize,
    /// The overlay graph; all nodes but the source start empty.
    pub topology: Topology,
    /// Topology index of the source node.
    pub source: usize,
    /// Per-node tuning.
    pub options: NodeOptions,
    /// Give up after this long (virtual time on the virtual-time
    /// driver).
    pub timeout: Duration,
    /// Session identifier stamped into every envelope.
    pub session: u64,
    /// Per-directed-link fault plans (the default runs clean).
    pub link_faults: TopologyFaults,
    /// When set, every node records its [`ltnc_telemetry::TraceEvent`]s
    /// into a bounded [`ltnc_telemetry::RingSink`] of this capacity,
    /// drained into [`PeerReport::events`] at shutdown. `None` (the
    /// default) installs no sink — every trace hook stays a no-op.
    pub trace_capacity: Option<usize>,
    /// How many reactor workers the nodes are sharded across (see
    /// [`SwarmRuntime`]). This and `metrics_bind` below are the
    /// reactor's: the virtual-time driver ignores them.
    pub runtime: SwarmRuntime,
    /// When set, the whole swarm serves *one* aggregated scrape endpoint
    /// bound here (`/metrics`, `/metrics.json`, and `/flight` when the
    /// flight recorder is on): rolled-up wire counters, the merged
    /// per-link delivery latency, decoder-progress gauges, and per-shard
    /// `reactor` scheduler families. It is the only scrape endpoint a
    /// UDP node has. Port 0 picks a free port. `None` (the default)
    /// serves nothing.
    pub metrics_bind: Option<SocketAddr>,
    /// When set, the run has a stall watchdog, on either driver, dumping
    /// a JSON post-mortem on stall or shutdown timeout; the reactor also
    /// keeps a bounded per-shard flight ring of scheduler trace events
    /// and dumps on demand (the endpoint's `/flight` route). `None` (the
    /// default) records nothing.
    pub flight_recorder: Option<FlightRecorder>,
}

/// Capacity of each shard's bounded flight ring of scheduler events
/// (oldest events are dropped first; the drop count is part of every
/// dump).
pub(crate) const FLIGHT_RING_CAPACITY: usize = 256;

/// Configuration of the flight recorder
/// ([`TopologyConfig::flight_recorder`]).
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    /// How long the swarm may go without any decoding progress (no
    /// receiver gaining rank or completing a generation) before the
    /// watchdog declares a stall and cuts a dump: checked every 5 ms on
    /// the reactor, after every event (so exactly) in virtual time.
    pub stall_window: Duration,
    /// When set, stall and shutdown-timeout dumps are also written to
    /// this file (best effort — I/O errors are swallowed; the dump is
    /// always in [`SwarmReport::flight_dump`] regardless).
    pub dump_path: Option<PathBuf>,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder { stall_window: Duration::from_secs(10), dump_path: None }
    }
}

/// How a swarm's node state machines are scheduled: on the
/// `ltnc-reactor` epoll runtime, sharded across `workers` poll-driven
/// worker threads. There is no other runtime; this stays an enum with
/// one variant only because the frozen `benchmark/` crate writes
/// `SwarmRuntime::Sharded { workers }` (the ROADMAP's benchmark-only
/// backlog collapses it to `workers: usize`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwarmRuntime {
    /// Every node multiplexed onto `workers` reactor worker threads.
    Sharded {
        /// Worker threads to shard the nodes across (clamped to ≥ 1).
        /// A run replays by seed *and* worker count.
        workers: usize,
    },
}

impl TopologyConfig {
    /// A small, fast configuration for tests and demos: source at
    /// topology index 0, clean links.
    #[must_use]
    pub fn quick(scheme: SchemeKind, object: Vec<u8>, topology: Topology) -> Self {
        TopologyConfig {
            scheme,
            object,
            code_length: 16,
            payload_size: 32,
            topology,
            source: 0,
            options: NodeOptions::default(),
            timeout: Duration::from_secs(30),
            session: 0x70_7011,
            link_faults: TopologyFaults::default(),
            trace_capacity: None,
            // A constant, not the machine's core count: a run replays
            // by seed and worker count.
            runtime: SwarmRuntime::Sharded { workers: 2 },
            metrics_bind: None,
            flight_recorder: None,
        }
    }

    /// What both drivers build a swarm from: the object's manifest and,
    /// per node by topology index, its configuration (with the ring its
    /// trace events go to when tracing is on), whom it pushes to and the
    /// fault plans of the links into it.
    ///
    /// # Panics
    ///
    /// Panics when the topology has fewer than two nodes, is
    /// disconnected, or the source index is out of range.
    pub(crate) fn nodes(&self) -> (ObjectManifest, Vec<NodeSetup>) {
        let (topology, source) = (&self.topology, self.source);
        let count = topology.nodes();
        assert!(count >= 2, "a swarm needs a source and at least one peer");
        assert!(source < count, "source {source} out of range for {count} nodes");
        assert!(
            topology.is_connected(),
            "topology {} is disconnected: unreachable nodes can never converge",
            topology.label()
        );
        let params = SchemeParams::new(self.scheme, self.code_length, self.payload_size);
        let manifest = split_object(&self.object, params).0;
        let nodes = (0..count)
            .map(|index| {
                let (role, seed) = if index == source {
                    (
                        NodeRole::Source { object: self.object.clone(), params },
                        self.options.seed ^ 0xD15E,
                    )
                } else {
                    (NodeRole::Peer { manifest }, self.options.seed.wrapping_add(index as u64))
                };
                let options = NodeOptions { seed, ..self.options };
                let mut config = NodeConfig::new(self.session, role, options);
                config.trace =
                    self.trace_capacity.map(|capacity| Arc::new(RingSink::new(capacity)));
                // The aggregated endpoint reads every node's live mirror,
                // which the nodes then refresh once per tick.
                config.publish_live = self.metrics_bind.is_some();
                let neighbors = topology.neighbors(index);
                NodeSetup {
                    config,
                    peers: neighbors.iter().copied().filter(|&to| to != source).collect(),
                    links: neighbors
                        .iter()
                        .filter_map(|&from| Some((from, self.link_faults.plan_for(from, index)?)))
                        .collect(),
                }
            })
            .collect();
        (manifest, nodes)
    }
}

/// One node as [`TopologyConfig::nodes`] lays it out.
pub(crate) struct NodeSetup {
    pub(crate) config: NodeConfig,
    /// The nodes it pushes to: its neighbours but the source.
    pub(crate) peers: Vec<usize>,
    /// `(from, plan)` per link into the node that has a fault plan,
    /// installed on its inbound side keyed by `from`'s address.
    pub(crate) links: Vec<(usize, DatagramFaultPlan)>,
}

/// Outcome of a swarm run.
#[derive(Debug)]
pub struct SwarmReport {
    /// Scheme that ran.
    pub scheme: SchemeKind,
    /// Whether every peer decoded every generation before the timeout.
    pub converged: bool,
    /// Time from the run's start to convergence (or the timeout) on the
    /// swarm's clock — monotonic on the reactor, virtual on the
    /// virtual-time driver — which trace stamps and flight dumps share.
    pub elapsed: Duration,
    /// Peers that completed.
    pub peers_complete: usize,
    /// When each peer completed, on the same clock, in the order of
    /// [`SwarmReport::peer_reports`]; `None` for peers that did not.
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
    /// Injected-fault totals summed over the links into every node (all
    /// zero for a clean run).
    pub total_faults: DatagramFaultCounters,
    /// Every node's bound address by topology index — what maps the
    /// address-keyed per-link tallies back to nodes.
    pub node_addrs: Vec<SocketAddr>,
    /// Per-peer reports in topology order, the source left out.
    pub peer_reports: Vec<PeerReport>,
    /// Final per-shard reactor scheduler snapshots, shard-indexed —
    /// populated only when [`TopologyConfig::metrics_bind`] or
    /// [`TopologyConfig::flight_recorder`] asked for instrumentation
    /// (empty otherwise: the observer seam stays uninstalled and the
    /// hot loops take no clock readings).
    pub reactor: Vec<ReactorSnapshot>,
    /// The flight-recorder post-mortem the run cut, if any: the stall
    /// dump when the watchdog declared one, else the shutdown-timeout
    /// dump — the same JSON document a live `/flight` scrape serves.
    pub flight_dump: Option<String>,
}

impl SwarmReport {
    /// Every node's full report: the source's, then the peers' in
    /// topology order.
    pub fn node_reports(&self) -> impl Iterator<Item = &PeerReport> + '_ {
        std::iter::once(&self.source_report).chain(self.peer_reports.iter())
    }
}

/// Folds the per-node reports of a finished run into the aggregate
/// [`SwarmReport`]. `completed_at` and `reports` are by topology index.
pub(crate) fn assemble_report(
    config: &TopologyConfig,
    generations: u32,
    elapsed: Duration,
    mut completed_at: Vec<Option<Duration>>,
    node_addrs: Vec<SocketAddr>,
    mut reports: Vec<PeerReport>,
) -> SwarmReport {
    completed_at.remove(config.source);
    let source_report = reports.remove(config.source);
    let peer_reports = reports;

    let peers_complete = peer_reports.iter().filter(|r| r.complete).count();
    let converged = peers_complete == peer_reports.len();
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
    use crate::run_swarm;

    fn object(len: u32) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 256) as u8).collect()
    }

    /// Every node's push set, by topology index.
    fn push_sets(config: &TopologyConfig) -> Vec<Vec<usize>> {
        config.nodes().1.into_iter().map(|node| node.peers).collect()
    }

    #[test]
    fn two_peer_swarm_converges_quickly() {
        let mut config =
            TopologyConfig::quick(SchemeKind::Ltnc, object(777), Topology::complete(3));
        config.code_length = 8;
        config.payload_size = 16;
        let report = run_swarm(&config).expect("swarm runs");
        assert!(report.converged, "swarm did not converge: {report:?}");
        assert!(report.bit_exact);
        assert_eq!(report.peers_complete, 2);
        assert!(report.total_wire.transfers_delivered > 0);
        assert_eq!(report.node_addrs.len(), 3);
    }

    #[test]
    fn complete_topology_push_sets_reach_every_peer_but_never_the_source() {
        for nodes in 2..=13 {
            for source in [0, nodes - 1] {
                let mut config =
                    TopologyConfig::quick(SchemeKind::Wc, object(16), Topology::complete(nodes));
                config.source = source;
                for (index, peers) in push_sets(&config).into_iter().enumerate() {
                    let expected: Vec<usize> =
                        (0..nodes).filter(|&to| to != index && to != source).collect();
                    assert_eq!(peers, expected, "complete({nodes}), source {source}, node {index}");
                }
                assert!(config.nodes().1.iter().all(|node| node.links.is_empty()), "clean links");
            }
        }
    }

    #[test]
    fn wiring_restricts_pushes_to_neighbours_and_skips_the_source() {
        // Line 0-1-2-3, source at 0: node 1 pushes only to node 2 (its
        // other neighbour is the source), node 2 to both its neighbours.
        let mut config = TopologyConfig::quick(SchemeKind::Rlnc, object(64), Topology::line(4));
        assert_eq!(push_sets(&config), [vec![1], vec![2], vec![1, 3], vec![2]]);
        // Mid-line, the source keeps its topology index, and the end
        // node behind it has no one to push to.
        config.source = 2;
        assert_eq!(push_sets(&config), [vec![1], vec![0], vec![1, 3], vec![]]);
        // A link plan lands on the receiving node, keyed by the sender.
        let plan = DatagramFaultPlan::clean(5).drop_rate(0.5);
        config.link_faults.overrides.push(((1, 0), plan));
        let links: Vec<Vec<usize>> =
            config.nodes().1.iter().map(|node| node.links.iter().map(|l| l.0).collect()).collect();
        assert_eq!(links, [vec![1], vec![], vec![], vec![]]);
    }

    #[test]
    fn link_plans_are_seeded_per_directed_link() {
        let faults = TopologyFaults::uniform(DatagramFaultPlan::clean(0xFEED).drop_rate(0.25));
        let ab = faults.plan_for(0, 1).expect("template applies");
        let ba = faults.plan_for(1, 0).expect("template applies");
        let ab2 = faults.plan_for(0, 1).expect("template applies");
        assert_eq!(ab.seed, ab2.seed, "same link, same seed");
        assert_ne!(ab.seed, ba.seed, "directions fail independently");
        assert_eq!(ab.drop_rate, 0.25, "rates come from the template");
    }

    #[test]
    fn overrides_take_precedence_over_the_template() {
        let mut faults = TopologyFaults::uniform(DatagramFaultPlan::clean(1).drop_rate(0.1));
        faults.overrides.push(((2, 3), DatagramFaultPlan::clean(9).drop_rate(0.9)));
        assert_eq!(faults.plan_for(2, 3).expect("override").drop_rate, 0.9);
        assert_eq!(faults.plan_for(3, 2).expect("template").drop_rate, 0.1);
        assert!(TopologyFaults::default().plan_for(0, 1).is_none(), "no template, clean links");
    }

    #[test]
    fn wired_swarm_respects_a_line_and_attributes_link_faults() {
        // A 2-hop line S → P1 → P2 with a 20%-drop plan on the relay →
        // far-peer link — the only path the far peer has. The run must
        // still converge through the lossy relay hop, and the link tally
        // must land on the far peer's report, keyed by the relay.
        let mut config = TopologyConfig::quick(SchemeKind::Rlnc, object(600), Topology::line(3));
        config.code_length = 8;
        config.payload_size = 16;
        config.link_faults.overrides.push(((1, 2), DatagramFaultPlan::clean(77).drop_rate(0.2)));
        let report = run_swarm(&config).expect("swarm runs");
        assert!(report.converged, "line swarm did not converge: {report:?}");
        assert!(report.bit_exact);
        let far = &report.peer_reports[1];
        assert_eq!(far.link_faults.len(), 1);
        assert_eq!(far.link_faults[0].0, report.node_addrs[1]);
        assert!(far.link_faults[0].1.dropped_in > 0, "20% link loss must drop something");
        // And the relay actually relayed: it recoded packets it never
        // originated.
        assert!(report.peer_reports[0].recoding.total_ops() > 0, "relay must recode");
    }
}
