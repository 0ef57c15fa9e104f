//! The topology harness: lowering a [`Topology`] onto the UDP swarm and
//! rolling the per-node reports up per hop and per link.
//!
//! [`run_topology`] relabels the overlay so the chosen source becomes
//! swarm node 0, restricts every node's push set to its overlay
//! neighbours (minus the source, which needs nothing — so all traffic to
//! non-neighbours of the source *must* cross recoding relays), installs
//! one seeded [`DatagramFaultPlan`] per directed link, runs
//! [`ltnc_net::swarm::run_wired_swarm`], and attributes the outcome:
//! hop-distance buckets ([`HopCounters`]), per-link fault tallies, and
//! the relay recoding total.

use std::io;
use std::net::SocketAddr;
use std::time::Duration;

use ltnc_metrics::{HopCounters, HopStats, LogHistogramSnapshot};
use ltnc_net::faults::{DatagramFaultCounters, DatagramFaultPlan, DatagramFaults};
use ltnc_net::swarm::{
    run_wired_swarm, FlightRecorder, SwarmConfig, SwarmReport, SwarmRuntime, SwarmWiring,
};
use ltnc_net::NodeOptions;
use ltnc_scheme::SchemeKind;
use ltnc_telemetry::TraceEvent;

use crate::topology::Topology;

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
/// endpoints (splitmix64 finalizer, matching
/// [`DatagramFaults::for_node`]'s mixing style).
fn mix_link_seed(seed: u64, from: usize, to: usize) -> u64 {
    let mut z = seed
        .wrapping_add((from as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((to as u64 + 1).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Parameters of one multi-hop dissemination run.
///
/// The legacy [`SwarmConfig`] is the special case
/// `topology = Topology::complete(peers + 1), source = 0`: same spawn
/// seeds, same push sets, same optional per-node fault template.
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
    /// Give up after this long.
    pub timeout: Duration,
    /// Session identifier stamped into every envelope.
    pub session: u64,
    /// Per-directed-link fault plans (the attributable way to make a
    /// topology lossy).
    pub link_faults: TopologyFaults,
    /// Per-*node* fault template, re-seeded per node exactly like
    /// [`SwarmConfig::faults`] — what makes the complete topology
    /// reproduce a legacy faulty swarm byte for byte. Usually `None` in
    /// topology runs: prefer [`TopologyConfig::link_faults`], which
    /// keeps loss attributable per link.
    pub node_faults: Option<DatagramFaults>,
    /// When set, every node records its trace events into a bounded ring
    /// of this capacity (see [`SwarmConfig::trace_capacity`]); the
    /// harness then derives [`TopologyReport::first_delivery_by_hop`]
    /// from the per-node event streams. `None` (the default) installs no
    /// sink.
    pub trace_capacity: Option<usize>,
    /// How many reactor workers the nodes are sharded across (see
    /// [`SwarmRuntime`]; a one-variant enum only because the frozen
    /// `benchmark/` crate writes `SwarmRuntime::Sharded { workers }`).
    pub runtime: SwarmRuntime,
    /// One aggregated scrape endpoint for the whole overlay (see
    /// [`SwarmConfig::metrics_bind`]): rolled-up wire counters, decoder
    /// progress, and per-shard reactor families.
    pub metrics_bind: Option<SocketAddr>,
    /// Stall watchdog + flight recorder (see
    /// [`SwarmConfig::flight_recorder`]).
    pub flight_recorder: Option<FlightRecorder>,
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
            node_faults: None,
            trace_capacity: None,
            // A constant: a run replays by seed and worker count.
            runtime: SwarmRuntime::Sharded { workers: 2 },
            metrics_bind: None,
            flight_recorder: None,
        }
    }

    /// Topology node index of swarm node `swarm_index` — the exact
    /// inverse of [`TopologyConfig::swarm_of`].
    fn topo_of(&self, swarm_index: usize) -> usize {
        if swarm_index == 0 {
            self.source
        } else if swarm_index <= self.source {
            swarm_index - 1
        } else {
            swarm_index
        }
    }

    /// Swarm node index of topology node `topo_index` (the source maps
    /// to 0; the remaining nodes keep their relative order).
    fn swarm_of(&self, topo_index: usize) -> usize {
        if topo_index == self.source {
            0
        } else if topo_index < self.source {
            topo_index + 1
        } else {
            topo_index
        }
    }

    /// Lowers the topology onto the swarm harness: neighbour-restricted
    /// push sets under the source-to-front relabelling (no node pushes
    /// at the source — it needs nothing, exactly like the legacy full
    /// mesh), plus one fault plan per directed link.
    ///
    /// Public so equivalence tests can assert the lowering directly;
    /// [`run_topology`] calls it internally.
    ///
    /// # Panics
    ///
    /// Panics when the source index is out of range.
    #[must_use]
    pub fn wiring(&self) -> SwarmWiring {
        let nodes = self.topology.nodes();
        assert!(self.source < nodes, "source {} out of range for {nodes} nodes", self.source);
        let mut push_targets = vec![Vec::new(); nodes];
        for topo in 0..nodes {
            let swarm = self.swarm_of(topo);
            push_targets[swarm] = self
                .topology
                .neighbors(topo)
                .iter()
                .map(|&neighbor| self.swarm_of(neighbor))
                .filter(|&target| target != 0)
                .collect();
            push_targets[swarm].sort_unstable();
        }
        let link_faults = self
            .topology
            .directed_links()
            .into_iter()
            .filter_map(|(from, to)| {
                self.link_faults
                    .plan_for(from, to)
                    .map(|plan| (self.swarm_of(from), self.swarm_of(to), plan))
            })
            .collect();
        SwarmWiring { push_targets, link_faults }
    }
}

/// Outcome of a topology run: the underlying swarm report plus the
/// per-hop and per-link attribution.
#[derive(Debug)]
pub struct TopologyReport {
    /// The transport-level outcome (peer reports are swarm-indexed:
    /// 0 = source; use [`TopologyReport::distances`] through the same
    /// relabelling to interpret them).
    pub swarm: SwarmReport,
    /// Shape label of the topology that ran, e.g. `line(5)`.
    pub topology_label: String,
    /// Hop distance to the source per *topology* node index (the
    /// source's own entry is 0).
    pub distances: Vec<usize>,
    /// Per-hop-distance rollup: completion, recoding/decoding work,
    /// useful deliveries and injected faults bucketed by distance.
    pub hops: HopCounters,
    /// Faults injected per directed link `(from, to)`, topology-indexed
    /// — all zero entries elided.
    pub link_faults: Vec<(usize, usize, DatagramFaultCounters)>,
    /// Recoding operations performed by relay nodes (distance ≥ 1): the
    /// in-network coding work that never happens in a 1-hop fetch.
    pub relay_recoding_ops: u64,
    /// Object length in bytes, for goodput computations.
    pub object_len: u64,
    /// Earliest *useful* payload delivery per hop distance (indexed by
    /// distance; entry 0 — the source — is always `None`), measured on
    /// each node's own trace clock from its spawn. Populated only when
    /// [`TopologyConfig::trace_capacity`] is set; how long the epidemic
    /// front took to first reach each ring of the overlay.
    pub first_delivery_by_hop: Vec<Option<Duration>>,
    /// Origin→delivery latency distributions from the **wire-carried
    /// trace contexts**, merged across every node and keyed by the
    /// number of overlay links the delivered data had crossed (its
    /// recode lineage depth, not the receiving node's ring) — the
    /// per-hop critical-path view of the dissemination. Sorted by depth;
    /// always populated (the trace rides every DATA frame).
    pub latency_by_hop: Vec<(usize, LogHistogramSnapshot)>,
}

impl TopologyReport {
    /// End-to-end goodput in object bytes per second: the whole object,
    /// delivered to every peer, over the convergence time (0 when the
    /// run did not converge).
    #[must_use]
    pub fn goodput_bytes_per_sec(&self) -> f64 {
        if !self.swarm.converged || self.swarm.elapsed.is_zero() {
            return 0.0;
        }
        self.object_len as f64 / self.swarm.elapsed.as_secs_f64()
    }

    /// The farthest hop distance any node sits at.
    #[must_use]
    pub fn max_hops(&self) -> usize {
        self.hops.max_distance().unwrap_or(0)
    }

    /// The merged origin→delivery latency distribution at one lineage
    /// depth ([`TopologyReport::latency_by_hop`]); empty when no payload
    /// of that depth was delivered.
    #[must_use]
    pub fn latency_at(&self, hops: usize) -> LogHistogramSnapshot {
        self.latency_by_hop
            .iter()
            .find(|&&(depth, _)| depth == hops)
            .map(|(_, snapshot)| snapshot.clone())
            .unwrap_or_else(LogHistogramSnapshot::empty)
    }
}

/// Runs a full multi-hop dissemination over real UDP and returns the
/// attributed report.
///
/// # Errors
///
/// Propagates socket setup failures; protocol-level problems surface as
/// `swarm.converged = false` / `swarm.bit_exact = false` instead of
/// errors.
///
/// # Panics
///
/// Panics when the topology has fewer than two nodes, is disconnected,
/// or the source index is out of range.
pub fn run_topology(config: &TopologyConfig) -> io::Result<TopologyReport> {
    let nodes = config.topology.nodes();
    assert!(nodes >= 2, "a topology run needs at least two nodes");
    assert!(config.source < nodes, "source {} out of range for {nodes} nodes", config.source);
    assert!(
        config.topology.is_connected(),
        "topology {} is disconnected: unreachable nodes can never converge",
        config.topology.label()
    );

    let wiring = config.wiring();
    let swarm_config = SwarmConfig {
        scheme: config.scheme,
        object: config.object.clone(),
        code_length: config.code_length,
        payload_size: config.payload_size,
        peers: nodes - 1,
        options: config.options,
        timeout: config.timeout,
        session: config.session,
        faults: config.node_faults,
        trace_capacity: config.trace_capacity,
        runtime: config.runtime,
        metrics_bind: config.metrics_bind,
        flight_recorder: config.flight_recorder.clone(),
    };
    let swarm = run_wired_swarm(&swarm_config, &wiring)?;

    let distances: Vec<usize> = config
        .topology
        .distances_from(config.source)
        .into_iter()
        .map(|d| d.expect("connected topology"))
        .collect();

    let mut hops = HopCounters::new();
    let mut relay_recoding_ops = 0;
    for (swarm_index, report) in swarm.node_reports().enumerate() {
        let distance = distances[config.topo_of(swarm_index)];
        hops.record(
            distance,
            &HopStats {
                nodes: 1,
                completed: u64::from(report.complete),
                recoding_ops: report.recoding.total_ops(),
                decoding_ops: report.decoding.total_ops(),
                useful_deliveries: report.wire.useful_deliveries,
                faults_injected: report.faults.total(),
            },
        );
        if distance >= 1 {
            relay_recoding_ops += report.recoding.total_ops();
        }
    }

    // Per-link attribution: each node's link tallies are keyed by the
    // sender's address; map addresses back through the swarm index.
    let mut link_faults = Vec::new();
    for (swarm_to, report) in swarm.node_reports().enumerate() {
        for &(from_addr, counters) in &report.link_faults {
            let swarm_from = swarm
                .node_addrs
                .iter()
                .position(|&addr| addr == from_addr)
                .expect("link plans are only installed for swarm nodes");
            if counters.total() > 0 {
                link_faults.push((config.topo_of(swarm_from), config.topo_of(swarm_to), counters));
            }
        }
    }
    link_faults.sort_unstable_by_key(|&(from, to, _)| (from, to));

    // Per-hop first-delivery times from the trace streams: the earliest
    // useful PayloadDelivered any node of each distance ring recorded.
    let max_distance = distances.iter().copied().max().unwrap_or(0);
    let mut first_delivery_by_hop: Vec<Option<Duration>> = vec![None; max_distance + 1];
    for (swarm_index, report) in swarm.node_reports().enumerate() {
        let distance = distances[config.topo_of(swarm_index)];
        let first = report
            .events
            .iter()
            .find(|timed| matches!(timed.event, TraceEvent::PayloadDelivered { useful: true, .. }))
            .map(|timed| timed.at);
        if let Some(first) = first {
            first_delivery_by_hop[distance] = Some(match first_delivery_by_hop[distance] {
                Some(best) => best.min(first),
                None => first,
            });
        }
    }

    // Per-hop latency from the wire-carried trace contexts: merge every
    // node's distributions, keyed by the delivered data's lineage depth.
    let mut latency_by_hop: Vec<(usize, LogHistogramSnapshot)> = Vec::new();
    for report in swarm.node_reports() {
        for (depth, snapshot) in &report.latency_by_hop {
            match latency_by_hop.iter_mut().find(|(known, _)| known == depth) {
                Some((_, merged)) => merged.merge(snapshot),
                None => latency_by_hop.push((*depth, snapshot.clone())),
            }
        }
    }
    latency_by_hop.sort_unstable_by_key(|&(depth, _)| depth);

    Ok(TopologyReport {
        swarm,
        topology_label: config.topology.label().to_string(),
        distances,
        hops,
        link_faults,
        relay_recoding_ops,
        object_len: config.object.len() as u64,
        first_delivery_by_hop,
        latency_by_hop,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn object(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 37 % 251) as u8).collect()
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
    fn relabelling_points_the_source_to_swarm_zero() {
        let mut config = TopologyConfig::quick(SchemeKind::Ltnc, object(64), Topology::line(4));
        config.source = 2;
        assert_eq!(config.swarm_of(2), 0);
        assert_eq!(config.swarm_of(0), 1);
        assert_eq!(config.swarm_of(1), 2);
        assert_eq!(config.swarm_of(3), 3);
        for topo in 0..4 {
            assert_eq!(config.topo_of(config.swarm_of(topo)), topo, "round trip");
        }
    }

    #[test]
    fn wiring_restricts_pushes_to_neighbours_and_skips_the_source() {
        // Line 0-1-2-3, source at 0: node 1 pushes only to node 2 (its
        // other neighbour is the source), node 2 to both its neighbours.
        let config = TopologyConfig::quick(SchemeKind::Rlnc, object(64), Topology::line(4));
        let wiring = config.wiring();
        assert_eq!(wiring.push_targets[0], vec![1], "source reaches only its neighbour");
        assert_eq!(wiring.push_targets[1], vec![2], "relay skips the source");
        assert_eq!(wiring.push_targets[2], vec![1, 3]);
        assert_eq!(wiring.push_targets[3], vec![2]);
        assert!(wiring.link_faults.is_empty(), "clean config installs no link plans");
    }

    #[test]
    fn complete_topology_lowers_to_the_legacy_full_mesh() {
        let config = TopologyConfig::quick(SchemeKind::Wc, object(64), Topology::complete(5));
        let wiring = config.wiring();
        let legacy = SwarmWiring::full_mesh(4);
        assert_eq!(wiring.push_targets, legacy.push_targets);
    }

    #[test]
    fn two_hop_line_converges_through_the_relay() {
        let mut config = TopologyConfig::quick(SchemeKind::Ltnc, object(600), Topology::line(3));
        config.code_length = 8;
        config.payload_size = 16;
        let report = run_topology(&config).expect("run starts");
        assert!(report.swarm.converged, "line(3) did not converge: {report:?}");
        assert!(report.swarm.bit_exact);
        assert_eq!(report.distances, vec![0, 1, 2]);
        assert_eq!(report.max_hops(), 2);
        assert_eq!(report.hops.get(1).nodes, 1);
        assert_eq!(report.hops.get(2).completed, 1);
        assert!(report.relay_recoding_ops > 0, "the relay must recode");
        assert!(report.goodput_bytes_per_sec() > 0.0);
    }

    #[test]
    fn tracing_yields_per_hop_first_delivery_times() {
        let mut config = TopologyConfig::quick(SchemeKind::Rlnc, object(400), Topology::line(3));
        config.code_length = 8;
        config.payload_size = 16;
        config.trace_capacity = Some(4096);
        let report = run_topology(&config).expect("run starts");
        assert!(report.swarm.converged, "line(3) did not converge: {report:?}");
        assert_eq!(report.first_delivery_by_hop.len(), 3);
        assert!(report.first_delivery_by_hop[0].is_none(), "the source receives nothing");
        let hop1 = report.first_delivery_by_hop[1].expect("hop 1 delivered");
        let hop2 = report.first_delivery_by_hop[2].expect("hop 2 delivered");
        assert!(hop1 <= report.swarm.elapsed + Duration::from_secs(1));
        assert!(hop2 > Duration::ZERO);
        // The relay's trace must show recoded pushes.
        assert!(report
            .swarm
            .node_reports()
            .any(|r| r.events.iter().any(|t| matches!(t.event, TraceEvent::RelayRecode { .. }))));
    }
}
