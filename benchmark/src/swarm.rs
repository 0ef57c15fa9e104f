//! The two UDP-loopback workloads, both on the sharded reactor runtime
//! with two workers: a clean 4-hop line whose completion time is set by
//! timers with the CPU idle, and a lossy 200-node 4-regular overlay that
//! keeps both cores busy, so per-datagram cost sets completion time.

use std::time::{Duration, Instant};

use ltnc_metrics::ReactorSnapshot;
use ltnc_net::faults::DatagramFaultPlan;
use ltnc_net::NodeOptions;
use ltnc_scheme::SchemeKind;
use ltnc_topo::{
    run_topology, FlightRecorder, SwarmRuntime, Topology, TopologyConfig, TopologyFaults,
    TopologyReport,
};

use crate::seed::Stream;
use crate::trace::Trace;
use crate::workload::{Inputs, Metrics, OpOutcome, Samples, Workload};

/// Reactor worker threads: the machine's two cores.
pub const WORKERS: usize = 2;
/// Both swarm workloads move a 16 KiB object.
const OBJECT_LEN: usize = 16 * 1024;
/// Per-node trace ring of a traced operation; large enough that a
/// node's first useful delivery is still in it when the run ends.
const TRACE_CAPACITY: usize = 4096;

/// Which overlay runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `line5_clean_16k`.
    Line5Clean,
    /// `kreg200_loss5_16k`.
    Kreg200Loss5,
}

/// One swarm workload.
pub struct SwarmWorkload {
    shape: Shape,
    inputs: Inputs,
}

impl SwarmWorkload {
    /// The workload of `shape`. Nothing outlives an operation: sockets
    /// and reactor threads are `run_topology`'s own.
    #[must_use]
    pub fn new(shape: Shape, inputs: Inputs) -> SwarmWorkload {
        SwarmWorkload { shape, inputs }
    }

    fn config(&self, op: u64, object: Vec<u8>, traced: bool) -> TopologyConfig {
        let seed = self.inputs.derive(op, Stream::Node);
        let mut config = match self.shape {
            Shape::Line5Clean => {
                let mut config = TopologyConfig::quick(SchemeKind::Ltnc, object, Topology::line(5));
                config.code_length = 32;
                config.payload_size = 512;
                config.options = NodeOptions { seed, ..NodeOptions::default() };
                config
            }
            Shape::Kreg200Loss5 => {
                let graph = self.inputs.derive(op, Stream::Graph);
                let topology = Topology::random_regular(200, 4, graph);
                let mut config = TopologyConfig::quick(SchemeKind::Ltnc, object, topology);
                config.code_length = 16;
                config.payload_size = 256;
                // The default 2 ms tick, not `sharded_1k`'s 10 ms: at 10 ms
                // the offers are paced below what two cores can carry and
                // an operation is set by the tick, as on the line. At
                // 2 ms both cores are full and per-datagram cost sets it.
                config.options = NodeOptions { seed, ..NodeOptions::default() };
                let faults = self.inputs.derive(op, Stream::Fault);
                config.link_faults =
                    TopologyFaults::uniform(DatagramFaultPlan::clean(faults).drop_rate(0.05));
                config
            }
        };
        config.session = self.inputs.derive(op, Stream::Session);
        config.timeout = Duration::from_secs(60);
        config.runtime = SwarmRuntime::Sharded { workers: WORKERS };
        if traced {
            config.trace_capacity = Some(TRACE_CAPACITY);
            // Arming the recorder is what installs the reactor observer.
            config.flight_recorder = Some(FlightRecorder::default());
        }
        config
    }
}

impl Workload for SwarmWorkload {
    fn op(&mut self, op: u64, trace: &mut Trace) -> OpOutcome {
        let object = self.inputs.object(op, OBJECT_LEN);
        let config = self.config(op, object.clone(), trace.enabled());

        let started = Instant::now();
        trace.start_op(op);
        let report = trace.time("topo.run_topology", || run_topology(&config));
        let wall_s = started.elapsed().as_secs_f64();
        let spans = trace.finish_op().len();

        let report = match report {
            Ok(report) => report,
            Err(error) => {
                eprintln!("swarm op {op}: {error}");
                return OpOutcome { wall_s, ..OpOutcome::default() };
            }
        };
        let peers = report.swarm.peer_reports.len() as u64;
        let outputs = report.swarm.peer_reports.iter().map(|peer| peer.object.as_deref());
        let verdict = self.inputs.verify(&object, outputs);
        if !report.swarm.converged || verdict.exact != peers {
            eprintln!(
                "swarm op {op}: converged={} bit-exact {}/{peers} after {:?}",
                report.swarm.converged, verdict.exact, report.swarm.elapsed
            );
        }
        let mut layer = layer_values(&report, wall_s);
        if spans > 0 {
            layer.push(("trace.spans", spans as f64));
        }
        OpOutcome {
            ok: report.swarm.converged && verdict.exact == peers,
            wrong_bytes: verdict.wrong_bytes,
            wall_s,
            delivered_bytes: object.len() as u64 * verdict.exact,
            wire_bytes: report.swarm.total_wire.bytes_sent,
            layer,
        }
    }
}

/// Raw per-operation values read off the reports `run_topology` returns.
fn layer_values(report: &TopologyReport, wall_s: f64) -> Vec<(&'static str, f64)> {
    let wire = &report.swarm.total_wire;
    let faults = &report.swarm.total_faults;
    let converge_s = report.swarm.elapsed.as_secs_f64();
    let mut layer = vec![
        ("net.datagrams_sent", wire.datagrams_sent as f64),
        ("net.datagrams_received", wire.datagrams_received as f64),
        ("net.bytes_sent", wire.bytes_sent as f64),
        ("net.offers", wire.transfers_offered as f64),
        ("net.aborted", wire.transfers_aborted as f64),
        ("net.delivered", wire.transfers_delivered as f64),
        ("net.useful", wire.useful_deliveries as f64),
        ("net.offer_timeouts", wire.offer_timeouts as f64),
        ("net.budget_cuts", wire.budget_cuts as f64),
        ("net.inbound_dropped", wire.inbound_dropped as f64),
        ("net.decode_errors", wire.decode_errors as f64),
        ("net.hop1_latency_p50_us", report.latency_at(1).p50() as f64),
        ("topo.converge_s", converge_s),
        ("topo.setup_teardown_s", wall_s - converge_s),
        ("topo.relay_recoding_ops", report.relay_recoding_ops as f64),
        ("faults.dropped", (faults.dropped_in + faults.dropped_out) as f64),
    ];
    // Only a traced operation records per-node events.
    if let Some(front) = report.first_delivery_by_hop.iter().flatten().max() {
        let front_s = front.as_secs_f64();
        layer.push(("topo.front_s", front_s));
        layer.push(("topo.fill_s", converge_s - front_s));
    }
    // Only a traced operation installs the reactor observer.
    if !report.swarm.reactor.is_empty() {
        let mut reactor = ReactorSnapshot::new();
        for shard in &report.swarm.reactor {
            reactor.merge(shard);
        }
        let waited_s = reactor.poll_wait_us.sum as f64 * 1e-6;
        let shards = report.swarm.reactor.len() as f64;
        layer.extend([
            ("reactor.polls", reactor.polls as f64),
            ("reactor.readable_dispatches", reactor.readable_dispatches as f64),
            ("reactor.timers_fired", reactor.timers_fired as f64),
            ("reactor.poll_wait_p50_us", reactor.poll_wait_us.p50() as f64),
            ("reactor.dispatch_p50_ns", reactor.dispatch_ns.p50() as f64),
            ("reactor.dispatch_p99_ns", reactor.dispatch_ns.p99() as f64),
            ("reactor.tick_lag_p50_us", reactor.tick_lag_us.p50() as f64),
            ("reactor.tick_lag_p99_us", reactor.tick_lag_us.p99() as f64),
            ("reactor.waited_s", waited_s),
            ("reactor.shard_s", shards * converge_s),
        ]);
    }
    layer
}

/// The `net.*`, `topo.*`, `reactor.*` and `faults.*` layer metrics.
/// `cpu_s` is the process CPU time of the window the samples cover.
pub fn metrics(samples: &Samples, cpu_s: f64, out: &mut Metrics) {
    let datagrams = samples.sum("net.datagrams_sent") + samples.sum("net.datagrams_received");
    let busy_ratio = if samples.sum("reactor.shard_s") == 0.0 {
        0.0
    } else {
        1.0 - samples.ratio("reactor.waited_s", "reactor.shard_s")
    };
    out.extend([
        ("net.datagrams_per_op", samples.mean("net.datagrams_sent")),
        ("net.bytes_per_op", samples.mean("net.bytes_sent")),
        ("net.offers_per_op", samples.mean("net.offers")),
        ("net.abort_ratio", samples.ratio("net.aborted", "net.offers")),
        ("net.useful_ratio", samples.ratio("net.useful", "net.delivered")),
        ("net.offer_timeouts_per_op", samples.mean("net.offer_timeouts")),
        ("net.budget_cuts_per_op", samples.mean("net.budget_cuts")),
        ("net.inbound_dropped_per_op", samples.mean("net.inbound_dropped")),
        ("net.decode_errors_per_op", samples.mean("net.decode_errors")),
        ("net.cpu_us_per_datagram", if datagrams == 0.0 { 0.0 } else { 1e6 * cpu_s / datagrams }),
        ("net.hop1_latency_p50_us", samples.median("net.hop1_latency_p50_us")),
        ("topo.converge_s", samples.median("topo.converge_s")),
        ("topo.setup_teardown_s", samples.median("topo.setup_teardown_s")),
        ("topo.front_s", samples.median("topo.front_s")),
        ("topo.fill_s", samples.median("topo.fill_s")),
        ("topo.relay_recoding_ops_per_op", samples.mean("topo.relay_recoding_ops")),
        ("reactor.polls_per_op", samples.mean("reactor.polls")),
        ("reactor.readable_dispatches_per_op", samples.mean("reactor.readable_dispatches")),
        ("reactor.timers_fired_per_op", samples.mean("reactor.timers_fired")),
        ("reactor.poll_wait_p50_us", samples.median("reactor.poll_wait_p50_us")),
        ("reactor.dispatch_p50_ns", samples.median("reactor.dispatch_p50_ns")),
        ("reactor.dispatch_p99_ns", samples.median("reactor.dispatch_p99_ns")),
        ("reactor.tick_lag_p50_us", samples.median("reactor.tick_lag_p50_us")),
        ("reactor.tick_lag_p99_us", samples.median("reactor.tick_lag_p99_us")),
        ("reactor.busy_ratio", busy_ratio),
        ("faults.dropped_per_op", samples.mean("faults.dropped")),
    ]);
}
