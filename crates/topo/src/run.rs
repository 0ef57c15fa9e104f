//! Attribution of a swarm run to its topology: per hop and per link.
//!
//! [`run_topology`] and [`run_topology_virtual`] each run a
//! [`TopologyConfig`] on one of the `ltnc-net` drivers and roll the
//! per-node reports up into a [`TopologyReport`]: hop-distance buckets
//! ([`HopCounters`]), per-link fault tallies, the relay recoding total,
//! first deliveries per hop and the per-link delivery latency.

use std::io;
use std::time::Duration;

use ltnc_metrics::{HopCounters, HopStats, LogHistogramSnapshot};
use ltnc_net::faults::DatagramFaultCounters;
use ltnc_net::{run_swarm, run_virtual_swarm, SwarmReport, TopologyConfig};
use ltnc_telemetry::TraceEvent;

/// Outcome of a topology run: the underlying swarm report plus the
/// per-hop and per-link attribution.
#[derive(Debug)]
pub struct TopologyReport {
    /// The transport-level outcome (peer reports in topology order, the
    /// source left out).
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
    /// distance; entry 0 — the source — is always `None`), on the
    /// swarm's clock: time since the run began, as
    /// [`SwarmReport::completed_at`] and `elapsed`. Populated only when
    /// [`TopologyConfig::trace_capacity`] is set; how long the epidemic
    /// front took to first reach each ring of the overlay.
    pub first_delivery_by_hop: Vec<Option<Duration>>,
    /// Every node's [`PeerReport::link_latency`] merged: accept→payload
    /// on each receiver's own clock, one sample per accepted payload.
    ///
    /// [`PeerReport::link_latency`]: ltnc_net::PeerReport::link_latency
    pub link_latency: LogHistogramSnapshot,
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

    /// [`TopologyReport::link_latency`] for `hops == 1`, every latency
    /// being one link's; empty otherwise. Kept only because the reference
    /// benchmark reads `latency_at(1)` (ROADMAP B step 1).
    #[must_use]
    pub fn latency_at(&self, hops: usize) -> LogHistogramSnapshot {
        if hops == 1 {
            self.link_latency.clone()
        } else {
            LogHistogramSnapshot::empty()
        }
    }
}

/// Runs a full multi-hop dissemination over real UDP ([`run_swarm`])
/// and returns the attributed report.
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
    Ok(attribute(config, run_swarm(config)?))
}

/// Runs the same dissemination as [`run_topology`] on the virtual-time
/// driver ([`run_virtual_swarm`]): same attribution, no sockets and no
/// wall clock — the report is a function of the configuration, and
/// times are virtual.
///
/// # Panics
///
/// As [`run_topology`].
#[must_use]
pub fn run_topology_virtual(config: &TopologyConfig) -> TopologyReport {
    attribute(config, run_virtual_swarm(config))
}

/// Attributes a finished swarm run to the topology: per hop, per link,
/// relay recoding, first deliveries and link latency.
fn attribute(config: &TopologyConfig, swarm: SwarmReport) -> TopologyReport {
    let distances: Vec<usize> = config
        .topology
        .distances_from(config.source)
        .into_iter()
        .map(|d| d.expect("connected topology"))
        .collect();
    // The topology index of each of `swarm.node_reports()`: the source,
    // then the peers in topology order.
    let indices = std::iter::once(config.source)
        .chain((0..distances.len()).filter(|&index| index != config.source));

    let mut hops = HopCounters::new();
    let mut relay_recoding_ops = 0;
    let mut link_faults = Vec::new();
    let max_distance = distances.iter().copied().max().unwrap_or(0);
    let mut first_delivery_by_hop: Vec<Option<Duration>> = vec![None; max_distance + 1];
    let mut link_latency = LogHistogramSnapshot::empty();
    for (index, report) in indices.zip(swarm.node_reports()) {
        let distance = distances[index];
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

        // Each node's link tallies are keyed by the sender's address.
        for &(from_addr, counters) in &report.link_faults {
            let from = swarm
                .node_addrs
                .iter()
                .position(|&addr| addr == from_addr)
                .expect("link plans are only installed for swarm nodes");
            if counters.total() > 0 {
                link_faults.push((from, index, counters));
            }
        }

        // The earliest useful payload delivery of each distance ring.
        let first = report
            .events
            .iter()
            .find(|timed| matches!(timed.event, TraceEvent::PayloadDelivered { useful: true, .. }))
            .map(|timed| timed.at);
        if let Some(first) = first {
            let best = &mut first_delivery_by_hop[distance];
            *best = Some(best.map_or(first, |best| best.min(first)));
        }
        link_latency.merge(&report.link_latency);
    }
    link_faults.sort_unstable_by_key(|&(from, to, _)| (from, to));

    TopologyReport {
        swarm,
        topology_label: config.topology.label().to_string(),
        distances,
        hops,
        link_faults,
        relay_recoding_ops,
        object_len: config.object.len() as u64,
        first_delivery_by_hop,
        link_latency,
    }
}

#[cfg(test)]
mod tests {
    use ltnc_net::faults::DatagramFaultPlan;
    use ltnc_net::Topology;
    use ltnc_scheme::SchemeKind;

    use super::*;

    fn object(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 37 % 251) as u8).collect()
    }

    #[test]
    fn a_mid_line_source_is_attributed_by_topology_index() {
        // Line 0-1-2-3 with the source at 2: node 0 is two hops out and
        // hears only node 1, over a link that drops a third of its
        // datagrams.
        let mut config = TopologyConfig::quick(SchemeKind::Rlnc, object(600), Topology::line(4));
        config.code_length = 8;
        config.payload_size = 16;
        config.source = 2;
        config.link_faults.overrides.push(((1, 0), DatagramFaultPlan::clean(3).drop_rate(0.3)));
        let report = run_topology_virtual(&config);
        assert!(report.swarm.converged && report.swarm.bit_exact, "{report:?}");
        assert_eq!(report.distances, vec![2, 1, 0, 1]);
        assert_eq!((report.hops.get(1).nodes, report.hops.get(2).nodes), (2, 1));
        assert!(report.hops.get(1).recoding_ops > 0, "node 1 relays to node 0");
        assert_eq!(report.link_faults.len(), 1, "{:?}", report.link_faults);
        let (from, to, faults) = report.link_faults[0];
        assert_eq!((from, to), (1, 0));
        assert_eq!(faults.dropped_in, report.swarm.peer_reports[0].faults.dropped_in);
        assert!(faults.dropped_in > 0);
    }

    #[test]
    fn a_complete_topology_attributes_every_peer_to_hop_one() {
        // A complete topology is flat whichever node is the source:
        // every peer hears it directly, and the peers still push to, and
        // recode for, one another.
        let mut config = TopologyConfig::quick(SchemeKind::Wc, object(600), Topology::complete(5));
        config.code_length = 8;
        config.payload_size = 16;
        config.source = 3;
        let report = run_topology_virtual(&config);
        assert!(report.swarm.converged && report.swarm.bit_exact, "{report:?}");
        assert_eq!(report.distances, vec![1, 1, 1, 0, 1]);
        assert_eq!(report.max_hops(), 1);
        assert_eq!((report.hops.get(0).nodes, report.hops.get(1).nodes), (1, 4));
        assert_eq!(report.hops.get(1).completed, 4);
        assert!(report.relay_recoding_ops > 0, "peers recode for each other");
        assert!(report.link_faults.is_empty(), "clean links tally nothing");
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
        let report = run_topology_virtual(&config);
        assert!(report.swarm.converged, "line(3) did not converge: {report:?}");
        // Stamps are virtual time, so the front is exact: the source's
        // first tick offers, and the offer, its feedback and the payload
        // each cross a link; the relay's useful delivery releases its
        // own offer at once, three crossings more.
        let (tick, crossing) = (config.options.tick, ltnc_net::LINK_LATENCY);
        let hop1 = tick + 3 * crossing;
        assert_eq!(report.first_delivery_by_hop, vec![None, Some(hop1), Some(hop1 + 3 * crossing)]);
        // A peer's `ObjectDecoded` is stamped when it completed.
        for (peer, completed_at) in report.swarm.peer_reports.iter().zip(&report.swarm.completed_at)
        {
            let decoded = peer.events.iter().find(|t| t.event == TraceEvent::ObjectDecoded);
            assert_eq!(decoded.map(|t| t.at), *completed_at);
        }
        // The relay's trace must show recoded pushes.
        assert!(report
            .swarm
            .node_reports()
            .any(|r| r.events.iter().any(|t| matches!(t.event, TraceEvent::RelayRecode { .. }))));
    }
}
