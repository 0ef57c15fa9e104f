//! Disseminates an object across a multi-hop overlay topology under
//! seeded per-link loss, for each scheme (WC, LTNC, RLNC) — the paper's
//! in-network recoding claim exercised end to end over real UDP: on a
//! line, every byte reaching the far node has crossed every interior
//! relay, and each relay recodes from whatever it holds.
//!
//! ```text
//! cargo run --release -p ltnc-topo --example multi_hop_dissemination
//! cargo run --release -p ltnc-topo --example multi_hop_dissemination -- \
//!     --topology line --nodes 7 --loss 0.2 --scheme ltnc
//! cargo run --release -p ltnc-topo --example multi_hop_dissemination -- \
//!     --topology kregular --nodes 10 --degree 3 --loss 0.3
//! # the CI smoke configuration (a lossy 4-hop line, seconds):
//! cargo run --release -p ltnc-topo --example multi_hop_dissemination -- --smoke
//! ```
//!
//! Without `--scheme`, all three schemes run on the same object and
//! topology so their wire costs are comparable. `--loss` / `--reorder` /
//! `--dup` build a per-directed-link fault template (`--fault-seed`,
//! default from `LTNC_FAULT_SEED`); each link gets its own re-mixed
//! seed, and the per-hop/per-link tables below attribute exactly where
//! the faults landed. For `--topology star`, the source defaults to a
//! leaf so the hub actually relays (override with `--source`).

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

use ltnc_metrics::{CounterFamily, Field, LogHistogramSnapshot, ReactorSnapshot};
use ltnc_net::faults::DatagramFaultPlan;
use ltnc_net::NodeOptions;
use ltnc_scheme::SchemeKind;
use ltnc_telemetry::json::{self, JsonValue};
use ltnc_topo::{
    run_topology, FlightRecorder, SwarmRuntime, Topology, TopologyConfig, TopologyFaults,
    TopologyReport,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

struct Args {
    topology: String,
    nodes: usize,
    degree: usize,
    source: Option<usize>,
    size: usize,
    k: usize,
    m: usize,
    schemes: Vec<SchemeKind>,
    timeout_secs: u64,
    loss: f64,
    reorder: f64,
    dup: f64,
    fault_seed: u64,
    /// Per-node trace ring capacity; `--report` turns tracing on by
    /// default so the report carries first-delivery-by-hop times.
    trace_capacity: Option<usize>,
    report: Option<String>,
    /// Reactor workers the nodes are sharded across (`--workers <n>`).
    workers: usize,
    /// Aggregated scrape endpoint for the whole swarm (`--metrics
    /// ADDR`): one `/metrics` + `/metrics.json` no matter the node
    /// count.
    metrics: Option<SocketAddr>,
    /// Arms the stall watchdog (`--flight-dump
    /// PATH`): a stalled or timed-out run writes its flight-recorder
    /// post-mortem here.
    flight_dump: Option<String>,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    // Flags the --smoke preset would also set are collected as explicit
    // overrides first, so `--loss 0.3 --smoke` means "the smoke run, but
    // at 30% loss" — never a silently discarded flag.
    let mut topology = None;
    let mut nodes = None;
    let mut size = None;
    let mut k = None;
    let mut m = None;
    let mut loss = None;
    let mut timeout_secs = None;
    let mut args = Args {
        topology: String::new(),
        nodes: 0,
        degree: 3,
        source: None,
        size: 0,
        k: 0,
        m: 0,
        schemes: vec![SchemeKind::Wc, SchemeKind::Ltnc, SchemeKind::Rlnc],
        timeout_secs: 0,
        loss: 0.0,
        reorder: 0.0,
        dup: 0.0,
        fault_seed: std::env::var("LTNC_FAULT_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0xF00D),
        trace_capacity: None,
        report: None,
        workers: 2,
        metrics: None,
        flight_dump: None,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--topology" => topology = Some(value("--topology")?),
            "--nodes" => {
                nodes = Some(value("--nodes")?.parse().map_err(|e| format!("--nodes: {e}"))?);
            }
            "--degree" => {
                args.degree = value("--degree")?.parse().map_err(|e| format!("--degree: {e}"))?;
            }
            "--source" => {
                args.source =
                    Some(value("--source")?.parse().map_err(|e| format!("--source: {e}"))?);
            }
            "--size" => {
                size = Some(value("--size")?.parse().map_err(|e| format!("--size: {e}"))?);
            }
            "--k" => k = Some(value("--k")?.parse().map_err(|e| format!("--k: {e}"))?),
            "--m" => m = Some(value("--m")?.parse().map_err(|e| format!("--m: {e}"))?),
            "--timeout" => {
                timeout_secs =
                    Some(value("--timeout")?.parse().map_err(|e| format!("--timeout: {e}"))?);
            }
            "--scheme" => {
                let name = value("--scheme")?;
                let kind = SchemeKind::parse(&name)
                    .ok_or_else(|| format!("unknown scheme {name} (wc|rlnc|ltnc)"))?;
                args.schemes = vec![kind];
            }
            "--loss" => {
                loss = Some(value("--loss")?.parse().map_err(|e| format!("--loss: {e}"))?);
            }
            "--reorder" => {
                args.reorder =
                    value("--reorder")?.parse().map_err(|e| format!("--reorder: {e}"))?;
            }
            "--dup" => args.dup = value("--dup")?.parse().map_err(|e| format!("--dup: {e}"))?,
            "--fault-seed" => {
                args.fault_seed =
                    value("--fault-seed")?.parse().map_err(|e| format!("--fault-seed: {e}"))?;
            }
            "--trace" => {
                args.trace_capacity =
                    Some(value("--trace")?.parse().map_err(|e| format!("--trace: {e}"))?);
            }
            "--report" => args.report = Some(value("--report")?),
            "--workers" => {
                args.workers =
                    value("--workers")?.parse().map_err(|e| format!("--workers: {e}"))?;
            }
            "--metrics" => {
                args.metrics =
                    Some(value("--metrics")?.parse().map_err(|e| format!("--metrics: {e}"))?);
            }
            "--flight-dump" => args.flight_dump = Some(value("--flight-dump")?),
            "--smoke" => args.smoke = true,
            "--help" | "-h" => {
                println!(
                    "usage: multi_hop_dissemination \
                     [--topology line|ring|star|tree|complete|kregular] [--nodes N] \
                     [--degree D] [--source IDX] [--size BYTES] [--k K] [--m M] \
                     [--scheme wc|rlnc|ltnc] [--timeout SECS] [--loss RATE] \
                     [--reorder RATE] [--dup RATE] [--fault-seed N] \
                     [--trace EVENTS] [--report PATH] \
                     [--workers N] [--metrics ADDR] \
                     [--flight-dump PATH] [--smoke]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    // Base defaults, or the CI smoke preset (a 4-hop line with 10%
    // seeded per-link loss, a small object, every scheme — relays in the
    // path of every byte, done in seconds); explicit flags win either
    // way.
    let (d_topology, d_nodes, d_size, d_k, d_m, d_loss, d_timeout) = if args.smoke {
        ("line", 5, 2 * 1024, 8, 32, 0.10, 60)
    } else {
        ("line", 5, 16 * 1024, 16, 64, 0.15, 120)
    };
    args.topology = topology.unwrap_or_else(|| d_topology.to_string());
    args.nodes = nodes.unwrap_or(d_nodes);
    args.size = size.unwrap_or(d_size);
    args.k = k.unwrap_or(d_k);
    args.m = m.unwrap_or(d_m);
    args.loss = loss.unwrap_or(d_loss);
    args.timeout_secs = timeout_secs.unwrap_or(d_timeout);
    // A report without tracing would miss its first-delivery tables.
    if args.report.is_some() && args.trace_capacity.is_none() {
        args.trace_capacity = Some(65_536);
    }
    Ok(args)
}

fn build_topology(args: &Args) -> Result<Topology, String> {
    match args.topology.as_str() {
        "line" => Ok(Topology::line(args.nodes)),
        "ring" => Ok(Topology::ring(args.nodes)),
        "star" => Ok(Topology::star(args.nodes)),
        "tree" => Ok(Topology::binary_tree(args.nodes)),
        "complete" => Ok(Topology::complete(args.nodes)),
        "kregular" => Ok(Topology::random_regular(args.nodes, args.degree, args.fault_seed)),
        other => Err(format!("unknown topology {other} (line|ring|star|tree|complete|kregular)")),
    }
}

fn report_row(report: &TopologyReport, peers: usize) -> String {
    let wire = &report.swarm.total_wire;
    let dropped: u64 = report.link_faults.iter().map(|&(_, _, c)| c.dropped_in).sum();
    format!(
        "{:<5} {:>9} {:>5} {:>9} {:>11} {:>13} {:>13} {:>11} {:>9} {:>8}",
        report.swarm.scheme.label(),
        format!("{}/{}", report.swarm.peers_complete, peers),
        report.max_hops(),
        format!("{:.2}s", report.swarm.elapsed.as_secs_f64()),
        format!("{:.1} KB/s", report.goodput_bytes_per_sec() / 1024.0),
        wire.bytes_sent,
        report.relay_recoding_ops,
        dropped,
        wire.offer_timeouts,
        if report.swarm.bit_exact { "yes" } else { "NO" },
    )
}

/// The microsecond origin→delivery percentiles every `--report` writer
/// in the workspace emits, out of the wire-carried trace context.
fn latency_json(snapshot: &LogHistogramSnapshot) -> JsonValue {
    json::histogram_summary(JsonValue::object().field("unit", "us"), snapshot)
}

/// The scheduler-side sub-object of an instrumented run: per-shard
/// reactor counters rolled into one total (poll-wait / dispatch /
/// tick-lag percentiles keyed by the histogram's name, unit split off),
/// plus per-shard turn and node counts so shard skew is readable at a
/// glance.
fn reactor_json(shards: &[ReactorSnapshot]) -> JsonValue {
    let mut total = ReactorSnapshot::new();
    for shard in shards {
        total.merge(shard);
    }
    let per_shard = shards
        .iter()
        .enumerate()
        .map(|(shard, s)| {
            JsonValue::object()
                .field("shard", shard)
                .field("nodes", s.nodes)
                .field("turns", s.turns)
                .field("timers_fired", s.timers_fired)
        })
        .collect();
    let head = JsonValue::object().field("shards", shards.len()).field("nodes", total.nodes);
    let mut doc = json::scalar_fields(head, &total);
    for (name, field) in total.fields() {
        if let Field::Histogram(snapshot) = field {
            let (stem, unit) = name.rsplit_once('_').expect("histogram names end in their unit");
            doc = doc.field(
                stem,
                json::histogram_summary(JsonValue::object().field("unit", unit), snapshot),
            );
        }
    }
    doc.field("per_shard", JsonValue::array(per_shard))
}

/// Renders the run as a machine-readable document: the exact seeded
/// configuration, then per scheme the swarm outcome, wire totals, the
/// per-hop rollup, where each directed link's faults landed, and (when
/// tracing is on) the first-delivery time at each hop distance.
fn render_report(args: &Args, source: usize, results: &[(SchemeKind, TopologyReport)]) -> String {
    let config = JsonValue::object()
        .field("topology", args.topology.as_str())
        .field("nodes", args.nodes)
        .field("degree", args.degree)
        .field("source", source)
        .field("object_bytes", args.size)
        .field("k", args.k)
        .field("m", args.m)
        .field("timeout_secs", args.timeout_secs)
        .field("loss", args.loss)
        .field("reorder", args.reorder)
        .field("dup", args.dup)
        .field("fault_seed", args.fault_seed)
        .field("trace_capacity", args.trace_capacity.map_or(JsonValue::Null, JsonValue::from))
        .field("workers", args.workers)
        .field(
            "metrics_bind",
            args.metrics.map_or(JsonValue::Null, |addr| JsonValue::from(addr.to_string())),
        );

    let schemes = results
        .iter()
        .map(|(scheme, report)| {
            let wire = json::scalar_fields(JsonValue::object(), &report.swarm.total_wire);
            let per_hop = report
                .hops
                .iter()
                .map(|(distance, stats)| {
                    json::scalar_fields(JsonValue::object().field("distance", distance), stats)
                })
                .collect();
            let link_faults = report
                .link_faults
                .iter()
                .map(|(from, to, faults)| {
                    let link = JsonValue::object().field("from", *from).field("to", *to);
                    json::scalar_fields(link, faults)
                })
                .collect();
            let first_delivery = report
                .first_delivery_by_hop
                .iter()
                .map(|at| at.map_or(JsonValue::Null, |d| JsonValue::from(d.as_secs_f64())))
                .collect();
            let mut total_latency = LogHistogramSnapshot::empty();
            let latency_by_hop = report
                .latency_by_hop
                .iter()
                .map(|(hops, snapshot)| {
                    total_latency.merge(snapshot);
                    latency_json(snapshot).field("hops", *hops)
                })
                .collect();
            JsonValue::object()
                .field("scheme", scheme.label())
                .field("converged", report.swarm.converged)
                .field("bit_exact", report.swarm.bit_exact)
                .field("peers_complete", report.swarm.peers_complete)
                .field("peers", args.nodes.saturating_sub(1))
                .field("elapsed_secs", report.swarm.elapsed.as_secs_f64())
                .field("goodput_bytes_per_sec", report.goodput_bytes_per_sec())
                .field("max_hops", report.max_hops())
                .field("relay_recoding_ops", report.relay_recoding_ops)
                .field("latency", latency_json(&total_latency))
                .field("latency_by_hop", JsonValue::array(latency_by_hop))
                .field(
                    "reactor",
                    if report.swarm.reactor.is_empty() {
                        JsonValue::Null
                    } else {
                        reactor_json(&report.swarm.reactor)
                    },
                )
                .field("wire", wire)
                .field("per_hop", JsonValue::array(per_hop))
                .field("link_faults", JsonValue::array(link_faults))
                .field("first_delivery_by_hop_secs", JsonValue::array(first_delivery))
        })
        .collect();

    JsonValue::object()
        .field("schema_version", ltnc_telemetry::json::REPORT_SCHEMA_VERSION)
        .field("example", "multi_hop_dissemination")
        .field("config", config)
        .field("schemes", JsonValue::array(schemes))
        .render()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let topology = match build_topology(&args) {
        Ok(topology) => topology,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // On a star the hub is node 0: source at a leaf, or nothing relays.
    let source = args.source.unwrap_or(usize::from(args.topology == "star"));

    let mut rng = SmallRng::seed_from_u64(0x0070_F11E);
    let mut object = vec![0u8; args.size];
    rng.fill(&mut object[..]);

    let link_faults = if args.loss > 0.0 || args.reorder > 0.0 || args.dup > 0.0 {
        TopologyFaults::uniform(
            DatagramFaultPlan::clean(args.fault_seed)
                .drop_rate(args.loss)
                .duplicate_rate(args.dup)
                .reorder(args.reorder, 8),
        )
    } else {
        TopologyFaults::default()
    };

    println!(
        "topology: {} (source at node {source}, {} directed links), object: {} bytes, \
         k = {}, m = {}",
        topology.label(),
        topology.directed_links().len(),
        object.len(),
        args.k,
        args.m,
    );
    println!(
        "per-link faults: loss {:.0}% / reorder {:.0}% / dup {:.0}% (seed {:#x})",
        args.loss * 100.0,
        args.reorder * 100.0,
        args.dup * 100.0,
        args.fault_seed,
    );
    println!("reactor workers: {}", args.workers);
    if let Some(addr) = args.metrics {
        println!("aggregated scrape endpoint: http://{addr}/metrics (every node, one page)");
    }
    println!();
    println!(
        "{:<5} {:>9} {:>5} {:>9} {:>11} {:>13} {:>13} {:>11} {:>9} {:>8}",
        "sch",
        "complete",
        "hops",
        "time",
        "goodput",
        "bytes-sent",
        "relay-recode",
        "link-drops",
        "timeouts",
        "exact"
    );

    let peers = topology.nodes() - 1;
    let mut all_ok = true;
    let mut results: Vec<(SchemeKind, TopologyReport)> = Vec::new();
    for scheme in args.schemes.clone() {
        let config = TopologyConfig {
            scheme,
            object: object.clone(),
            code_length: args.k,
            payload_size: args.m,
            topology: topology.clone(),
            source,
            options: NodeOptions {
                seed: 0x70 + u64::from(scheme.wire_id()),
                ..NodeOptions::default()
            },
            timeout: Duration::from_secs(args.timeout_secs),
            session: 0x70F0_0000 + u64::from(scheme.wire_id()),
            link_faults: link_faults.clone(),
            trace_capacity: args.trace_capacity,
            runtime: SwarmRuntime::Sharded { workers: args.workers },
            metrics_bind: args.metrics,
            flight_recorder: args.flight_dump.as_ref().map(|path| FlightRecorder {
                dump_path: Some(path.into()),
                ..FlightRecorder::default()
            }),
        };
        match run_topology(&config) {
            Ok(report) => {
                println!("{}", report_row(&report, peers));
                if !(report.swarm.converged && report.swarm.bit_exact) {
                    all_ok = false;
                }
                results.push((scheme, report));
            }
            Err(e) => {
                eprintln!("{}: topology run failed: {e}", scheme.label());
                all_ok = false;
            }
        }
    }

    for (scheme, report) in &results {
        println!("\nper-hop rollup ({}):", scheme.label());
        print!("{}", report.hops);
        if !report.swarm.reactor.is_empty() {
            let mut total = ReactorSnapshot::new();
            for shard in &report.swarm.reactor {
                total.merge(shard);
            }
            println!(
                "reactor: {} shards, {} turns, {} timers fired, poll-wait p99 {:.0}us, \
                 dispatch p99 {:.0}ns",
                report.swarm.reactor.len(),
                total.turns,
                total.timers_fired,
                total.poll_wait_us.p99(),
                total.dispatch_ns.p99(),
            );
        }
    }

    if let Some(path) = &args.report {
        let json = render_report(&args, source, &results);
        if let Err(e) = std::fs::write(path, json + "\n") {
            eprintln!("error: writing report {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("\nreport written to {path}");
    }

    if all_ok {
        println!(
            "\nall schemes converged bit-exactly across {} hops",
            topology.eccentricity(source)
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("\nsome schemes failed to converge or verify");
        ExitCode::FAILURE
    }
}
