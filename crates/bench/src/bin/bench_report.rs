//! Bench-report pipeline: key end-to-end scenarios, machine-readable.
//!
//! Where the Criterion benches in `benches/` answer "how fast is this
//! operation", this binary answers "did the *system* get slower" — it
//! runs a fixed set of end-to-end scenarios and writes one
//! `BENCH_<scenario>.json` per scenario with goodput and
//! origin→delivery latency percentiles, schema-stable so CI can diff
//! runs over time and fail on regressions:
//!
//! | Scenario        | What runs |
//! |-----------------|-----------|
//! | `pacing_loss10` | adaptive-pacing UDP dissemination at 10% seeded datagram loss |
//! | `pacing_loss20` | same at 20% loss |
//! | `pacing_loss30` | same at 30% loss |
//! | `line4`         | 4-hop line topology, relays recoding in-path, 10% per-link loss |
//! | `line8`         | 8-hop line topology, same loss |
//! | `striped_fetch` | one object striped across 3 warm TCP replicas |
//! | `warm_cache`    | warm-ring symbol serving (store hit path, no sockets) |
//! | `gf2_kernel`    | raw coding kernel: bulk payload XOR + relay recode, no sockets |
//! | `sharded_1k`    | 1000-node k-regular overlay on four reactor workers, plus a flight-recorder-armed A/B rerun gating tracing overhead (`tracing_overhead_2x`) |
//!
//! Flags: `--smoke` (CI-sized runs), `--out <dir>` (where the JSON
//! lands, default `.`), `--only <scenario>` (repeatable filter),
//! `--seed <n>`, and the regression gate: `--compare <dir>` reads the
//! committed baseline `BENCH_*.json` from `<dir>` and exits non-zero
//! when any scenario's goodput fell more than `--tolerance` (default
//! `0.30`, i.e. 30%) below its baseline. Latency percentiles are
//! reported, not gated: wall-clock percentiles on shared CI hardware
//! are too noisy to fail a build on, while a 30% goodput collapse on
//! the same scenario/seed is a real signal.
//!
//! Everything is seeded; a regression replays locally with the same
//! drop pattern by running the same scenario with the same `--seed`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ltnc_gf2::{EncodedPacket, Payload};
use ltnc_metrics::LogHistogramSnapshot;
use ltnc_net::faults::{DatagramFaultPlan, DatagramFaults};
use ltnc_net::swarm::{run_localhost_swarm, SwarmConfig};
use ltnc_net::NodeOptions;
use ltnc_scheme::{SchemeKind, SchemeParams};
use ltnc_serve::{
    fetch, fetch_striped, ClientOptions, ObjectStore, ServeOptions, Server, StripedOptions,
};
use ltnc_telemetry::json::{self, JsonValue, REPORT_SCHEMA_VERSION};
use ltnc_topo::{
    run_topology, FlightRecorder, SwarmRuntime, Topology, TopologyConfig, TopologyFaults,
};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Every scenario this binary knows, in report order.
const SCENARIOS: [&str; 9] = [
    "pacing_loss10",
    "pacing_loss20",
    "pacing_loss30",
    "line4",
    "line8",
    "striped_fetch",
    "warm_cache",
    "gf2_kernel",
    "sharded_1k",
];

/// One scenario's measured outcome, ready to serialize.
struct Outcome {
    /// Useful bytes delivered (object bytes × completing receivers).
    delivered_bytes: u64,
    elapsed: Duration,
    /// Origin→delivery latency over every delivery of the run.
    latency: LogHistogramSnapshot,
    /// Unit of the latency values (`"us"`, or `"ns"` for the in-process
    /// warm-cache path where microseconds would round everything to 0).
    latency_unit: &'static str,
    /// Per-lineage-depth latency, for the multi-hop scenarios.
    by_hop: Vec<(usize, LogHistogramSnapshot)>,
    /// Scenario-specific numeric fields appended verbatim to the JSON
    /// (e.g. the per-node goodput figures of `sharded_1k`). The schema
    /// stays v2: baselines only ever parse `schema_version` and
    /// `goodput_bytes_per_sec`, so extra fields are additive.
    extras: Vec<(&'static str, f64)>,
}

impl Outcome {
    fn goodput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.delivered_bytes as f64 / secs
        } else {
            0.0
        }
    }
}

fn pseudo_object(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut object = vec![0u8; len];
    rng.fill(&mut object[..]);
    object
}

/// Merges every per-hop distribution of a report into one total.
fn merge_hops(by_hop: &[(usize, LogHistogramSnapshot)]) -> LogHistogramSnapshot {
    let mut total = LogHistogramSnapshot::empty();
    for (_, snapshot) in by_hop {
        total.merge(snapshot);
    }
    total
}

/// Adaptive-pacing dissemination over emulated lossy datagram links.
fn pacing(loss: f64, smoke: bool, seed: u64) -> Result<Outcome, String> {
    let object_len = if smoke { 4 * 1024 } else { 16 * 1024 };
    let (k, m, peers) = if smoke { (8, 32, 2) } else { (16, 64, 3) };
    let config = SwarmConfig {
        code_length: k,
        payload_size: m,
        peers,
        options: NodeOptions {
            seed: 0xBE7 ^ seed,
            adaptive_pacing: true,
            ..NodeOptions::default()
        },
        timeout: Duration::from_secs(120),
        session: 0x9ACE,
        faults: Some(DatagramFaults::inbound(
            DatagramFaultPlan::clean(0xF00D ^ seed).drop_rate(loss).reorder(0.05, 8),
        )),
        ..SwarmConfig::quick(SchemeKind::Rlnc, pseudo_object(object_len, 0xAD_0B7 ^ seed))
    };
    let report = run_localhost_swarm(&config).map_err(|e| format!("swarm failed to start: {e}"))?;
    if !report.converged || !report.bit_exact {
        return Err(format!(
            "swarm did not converge bit-exactly: {}/{} peers in {:?}",
            report.peers_complete, peers, report.elapsed
        ));
    }
    let mut latency = LogHistogramSnapshot::empty();
    for peer in &report.peer_reports {
        latency.merge(&merge_hops(&peer.latency_by_hop));
    }
    Ok(Outcome {
        delivered_bytes: object_len as u64 * report.peers_complete as u64,
        elapsed: report.elapsed,
        latency,
        latency_unit: "us",
        by_hop: Vec::new(),
        extras: Vec::new(),
    })
}

/// A line topology: source at one end, every relay recoding in-path.
fn line(hops: usize, smoke: bool, seed: u64) -> Result<Outcome, String> {
    let object_len = if smoke { 600 } else { 2400 };
    let config = TopologyConfig {
        code_length: 8,
        payload_size: 16,
        options: NodeOptions { seed: 0x5EED ^ seed, ..NodeOptions::default() },
        timeout: Duration::from_secs(if smoke { 90 } else { 240 }),
        session: 0xB4_0000 + hops as u64,
        link_faults: TopologyFaults::uniform(
            DatagramFaultPlan::clean(0xF00D ^ seed).drop_rate(0.10),
        ),
        ..TopologyConfig::quick(
            SchemeKind::Ltnc,
            pseudo_object(object_len, 0x10AD ^ seed),
            Topology::line(hops + 1),
        )
    };
    let report = run_topology(&config).map_err(|e| format!("topology failed to start: {e}"))?;
    if !report.swarm.converged || !report.swarm.bit_exact {
        return Err(format!(
            "line{hops} did not converge bit-exactly: {}/{hops} peers in {:?}",
            report.swarm.peers_complete, report.swarm.elapsed
        ));
    }
    Ok(Outcome {
        delivered_bytes: object_len as u64 * report.swarm.peers_complete as u64,
        elapsed: report.swarm.elapsed,
        latency: merge_hops(&report.latency_by_hop),
        latency_unit: "us",
        by_hop: report.latency_by_hop.clone(),
        extras: Vec::new(),
    })
}

/// One object striped across three warm TCP replicas on loopback.
fn striped(smoke: bool, seed: u64) -> Result<Outcome, String> {
    const REPLICAS: usize = 3;
    let object_len = if smoke { 32 * 1024 } else { 128 * 1024 };
    let (k, m) = (16, 64);
    let scheme = SchemeKind::Ltnc;
    let object = pseudo_object(object_len, 0xBE4C ^ seed);
    let params = SchemeParams::new(scheme, k, m);
    let client = ClientOptions {
        timeout: Duration::from_secs(60),
        stall_timeout: Duration::from_secs(10),
        ..Default::default()
    };

    let mut servers = Vec::new();
    let mut addrs = Vec::new();
    for replica in 0..REPLICAS {
        let options = ServeOptions {
            warm_cache_capacity: 4 * k,
            replica_salt: replica as u64 + 1,
            workers: 1,
            ..Default::default()
        };
        let server = Server::spawn("127.0.0.1:0".parse().expect("loopback addr"), options)
            .map_err(|e| format!("replica {replica} failed to spawn: {e}"))?;
        server.register(1, &object, params).map_err(|e| format!("register failed: {e:?}"))?;
        // Warm the rings so the measurement is the serving path, not
        // first-touch encoding.
        let warm = fetch(server.local_addr(), 1, scheme, &client)
            .map_err(|e| format!("warm fetch failed: {e:?}"))?;
        if warm.object != object {
            return Err("warm fetch was not bit-exact".to_string());
        }
        addrs.push(server.local_addr());
        servers.push(server);
    }

    // Best-of-3: the loopback fetch is CPU-bound, so one scheduler
    // hiccup can move a single measurement by tens of percent — enough
    // to trip a 30% regression gate on noise alone. The fastest of
    // three is what the machine can actually do.
    let striped_options = StripedOptions { client, ..Default::default() };
    let mut best: Option<(Duration, LogHistogramSnapshot)> = None;
    for _ in 0..3 {
        let started = Instant::now();
        let report = fetch_striped(&addrs, 1, scheme, &striped_options)
            .map_err(|e| format!("striped fetch failed: {e:?}"))?;
        let elapsed = started.elapsed();
        if report.object != object {
            return Err("striped fetch was not bit-exact".to_string());
        }
        if best.as_ref().is_none_or(|(fastest, _)| elapsed < *fastest) {
            best = Some((elapsed, report.latency));
        }
    }
    for server in servers {
        let _ = server.shutdown();
    }
    let (elapsed, latency) = best.expect("three passes ran");
    Ok(Outcome {
        delivered_bytes: object_len as u64,
        elapsed,
        latency,
        latency_unit: "us",
        by_hop: Vec::new(),
        extras: Vec::new(),
    })
}

/// The warm-ring hit path, no sockets: per-symbol latency in nanoseconds
/// (a warm hit is sub-microsecond; microseconds would round to zero).
fn warm_cache(smoke: bool, seed: u64) -> Result<Outcome, String> {
    let (k, m) = (16usize, 64usize);
    let requests: u64 = if smoke { 20_000 } else { 200_000 };
    let params = SchemeParams::new(SchemeKind::Ltnc, k, m);
    let data = pseudo_object(k * m, 0x3 ^ seed);
    let capacity = 4 * k;
    let store = ObjectStore::new(capacity).map_err(|e| format!("store: {e:?}"))?;
    store.register(1, &data, params).map_err(|e| format!("register: {e:?}"))?;
    for sequence in 0..capacity as u64 {
        store.symbol(1, 0, sequence).ok_or("ring fill missed".to_string())?;
    }

    // Best-of-3 passes, same reasoning as the striped fetch: the hit
    // path is pure CPU and a single pass is at the mercy of frequency
    // scaling and neighbours on shared runners.
    let mut best: Option<(Duration, LogHistogramSnapshot)> = None;
    for _ in 0..3 {
        let histogram = ltnc_metrics::LogHistogram::new();
        let started = Instant::now();
        for request in 0..requests {
            let before = Instant::now();
            store.symbol(1, 0, request % capacity as u64).ok_or("warm hit missed".to_string())?;
            let nanos = u64::try_from(before.elapsed().as_nanos()).unwrap_or(u64::MAX);
            histogram.record(nanos);
        }
        let elapsed = started.elapsed();
        if best.as_ref().is_none_or(|(fastest, _)| elapsed < *fastest) {
            best = Some((elapsed, histogram.snapshot()));
        }
    }
    let (elapsed, latency) = best.expect("three passes ran");
    Ok(Outcome {
        delivered_bytes: requests * m as u64,
        elapsed,
        latency,
        latency_unit: "ns",
        by_hop: Vec::new(),
        extras: Vec::new(),
    })
}

/// The raw coding kernel, no sockets: the goodput figure is payload
/// bytes pushed through the word-sliced XOR paths per second (a bulk
/// `xor_assign` phase plus a warm RLNC relay recoding packets), and the
/// latency histogram is per-recode wall time in nanoseconds.
fn gf2_kernel(smoke: bool, seed: u64) -> Result<Outcome, String> {
    let (k, m) = (128usize, 1024usize);
    let xor_passes: u64 = if smoke { 20_000 } else { 200_000 };
    let recodes: u64 = if smoke { 5_000 } else { 50_000 };

    // Phase 1: bulk destructive XOR, the innermost data-plane operation.
    let mut dst = Payload::from_vec(pseudo_object(m, 0xD57 ^ seed));
    let src = Payload::from_vec(pseudo_object(m, 0x54C ^ seed));
    let xor_started = Instant::now();
    for _ in 0..xor_passes {
        dst.xor_assign(&src);
        std::hint::black_box(&mut dst);
    }
    let xor_elapsed = xor_started.elapsed();

    // Phase 2: a warm relay recoding from a full buffer — the XOR batch
    // fold plus vector work and RNG, as a relay node actually runs it.
    let mut node = ltnc_rlnc::RlncNode::new(k, m);
    for i in 0..k {
        let native = Payload::from_vec(pseudo_object(m, (i as u64) << 8 | (0xAB ^ seed)));
        node.receive(&EncodedPacket::native(k, i, native));
    }
    let mut rng = SmallRng::seed_from_u64(0x4EC0DE ^ seed);
    let histogram = ltnc_metrics::LogHistogram::new();
    let recode_started = Instant::now();
    for _ in 0..recodes {
        let before = Instant::now();
        let packet = node.recode(&mut rng).map_err(|e| format!("recode failed: {e:?}"))?;
        let nanos = u64::try_from(before.elapsed().as_nanos()).unwrap_or(u64::MAX);
        histogram.record(nanos);
        std::hint::black_box(&packet);
    }
    let recode_elapsed = recode_started.elapsed();

    // Goodput counts bytes actually pushed through the XOR kernels: the
    // bulk passes plus every payload the recoder folded (its own ledger).
    let folded = node.recoding_counters().get(ltnc_metrics::OpKind::PayloadXor);
    Ok(Outcome {
        delivered_bytes: (xor_passes + folded) * m as u64,
        elapsed: xor_elapsed + recode_elapsed,
        latency: histogram.snapshot(),
        latency_unit: "ns",
        by_hop: Vec::new(),
        extras: Vec::new(),
    })
}

/// The 1000-node seeded k-regular dissemination on four reactor
/// workers — the body of the `sharded_1k` scenario, with or without the
/// flight recorder armed.
fn k_regular_1k(
    flight_recorder: Option<FlightRecorder>,
    seed: u64,
) -> Result<ltnc_topo::TopologyReport, String> {
    let nodes = 1000;
    let mut config = TopologyConfig::quick(
        SchemeKind::Ltnc,
        pseudo_object(512, 0x1_0AD ^ seed),
        Topology::random_regular(nodes, 4, 0x1000 ^ seed),
    );
    config.code_length = 8;
    config.payload_size = 32;
    // A gentle tick: 1000 state machines at the 2ms default saturate a
    // small machine on timer pressure alone, which would be a
    // scheduling artifact, not goodput.
    config.options = NodeOptions {
        seed: 0x51AB ^ seed,
        tick: Duration::from_millis(10),
        ..NodeOptions::default()
    };
    config.session = 0x51_0000 + nodes as u64;
    config.timeout = Duration::from_secs(180);
    config.runtime = SwarmRuntime::Sharded { workers: 4 };
    config.flight_recorder = flight_recorder;
    let report =
        run_topology(&config).map_err(|e| format!("{nodes}-node run failed to start: {e}"))?;
    if !report.swarm.converged || !report.swarm.bit_exact {
        return Err(format!(
            "{nodes}-node run did not converge bit-exactly: {}/{} peers in {:?}",
            report.swarm.peers_complete,
            nodes - 1,
            report.swarm.elapsed
        ));
    }
    Ok(report)
}

/// The scale scenario: 1000 nodes on the reactor. Smoke and full are
/// the same size — scale *is* the scenario, and the run is seconds even
/// on one core. The reported goodput (and the regression gate) is the
/// untraced run's; per-node figures land in extra JSON fields.
///
/// A second run repeats the shape with the flight recorder armed
/// (criterion `tracing_overhead_2x`): scheduler tracing claims to be
/// near-zero-cost when disabled *and cheap when enabled*, so the traced
/// run must hold within 2× of the untraced one or the scenario fails.
fn sharded_1k(_smoke: bool, seed: u64) -> Result<Outcome, String> {
    let sharded = k_regular_1k(None, seed)?;
    let traced = k_regular_1k(Some(FlightRecorder::default()), seed)?;

    // Per-node goodput: object bytes per second per completing peer —
    // the whole object reaches every peer, so this is object_len over
    // convergence time.
    let per_node = |report: &ltnc_topo::TopologyReport| {
        report.object_len as f64 / report.swarm.elapsed.as_secs_f64()
    };
    let per_node_sharded = per_node(&sharded);
    let per_node_traced = per_node(&traced);
    if per_node_traced * 2.0 < per_node_sharded {
        return Err(format!(
            "tracing_overhead_2x: arming the flight recorder collapsed goodput: \
             {per_node_traced:.1} B/s/node traced vs {per_node_sharded:.1} untraced \
             (more than 2x below)"
        ));
    }

    Ok(Outcome {
        delivered_bytes: sharded.object_len * sharded.swarm.peers_complete as u64,
        elapsed: sharded.swarm.elapsed,
        latency: merge_hops(&sharded.latency_by_hop),
        latency_unit: "us",
        by_hop: sharded.latency_by_hop.clone(),
        extras: vec![
            ("per_node_goodput_sharded_1k", per_node_sharded),
            ("per_node_goodput_sharded_1k_traced", per_node_traced),
            ("tracing_overhead_ratio", per_node_sharded / per_node_traced),
        ],
    })
}

/// Runs a scenario `passes` times and keeps the best-goodput pass. The
/// dissemination runs are loss/timeout-bound but a slow pass still
/// happens when the tail generation eats an extra retry round; two
/// passes keep that noise out of the 30% regression gate (the fault
/// pattern is seeded, so passes differ only in scheduling).
fn best_of(passes: usize, run: impl Fn() -> Result<Outcome, String>) -> Result<Outcome, String> {
    let mut best: Option<Outcome> = None;
    for _ in 0..passes {
        let outcome = run()?;
        if best.as_ref().is_none_or(|b| outcome.goodput() > b.goodput()) {
            best = Some(outcome);
        }
    }
    best.ok_or("no passes ran".to_string())
}

fn run_scenario(name: &str, smoke: bool, seed: u64) -> Result<Outcome, String> {
    match name {
        "pacing_loss10" => best_of(2, || pacing(0.10, smoke, seed)),
        "pacing_loss20" => best_of(2, || pacing(0.20, smoke, seed)),
        "pacing_loss30" => best_of(2, || pacing(0.30, smoke, seed)),
        "line4" => best_of(2, || line(4, smoke, seed)),
        "line8" => best_of(2, || line(8, smoke, seed)),
        "striped_fetch" => striped(smoke, seed),
        "warm_cache" => warm_cache(smoke, seed),
        "gf2_kernel" => best_of(3, || gf2_kernel(smoke, seed)),
        "sharded_1k" => sharded_1k(smoke, seed),
        _ => Err(format!("unknown scenario {name:?}")),
    }
}

/// The shared latency sub-object: `{"unit","count","mean","p50",...}`.
fn latency_json(snapshot: &LogHistogramSnapshot, unit: &str) -> JsonValue {
    json::histogram_summary(JsonValue::object().field("unit", unit), snapshot)
}

fn outcome_json(name: &str, smoke: bool, seed: u64, outcome: &Outcome) -> JsonValue {
    let by_hop = outcome
        .by_hop
        .iter()
        .map(|(hops, snapshot)| latency_json(snapshot, outcome.latency_unit).field("hops", *hops))
        .collect();
    let mut json = JsonValue::object()
        .field("schema_version", REPORT_SCHEMA_VERSION)
        .field("scenario", name)
        .field("smoke", smoke)
        .field("seed", seed)
        .field("delivered_bytes", outcome.delivered_bytes)
        .field("elapsed_micros", u64::try_from(outcome.elapsed.as_micros()).unwrap_or(u64::MAX))
        .field("goodput_bytes_per_sec", outcome.goodput())
        .field("latency", latency_json(&outcome.latency, outcome.latency_unit))
        .field("latency_by_hop", JsonValue::array(by_hop));
    for &(field, value) in &outcome.extras {
        json = json.field(field, value);
    }
    json
}

/// Reads a baseline `BENCH_<scenario>.json` back; `None` when the file
/// is absent (a new scenario has no baseline yet — not a failure).
fn baseline_goodput(dir: &Path, name: &str) -> Result<Option<f64>, String> {
    let path = dir.join(format!("BENCH_{name}.json"));
    let text = match fs::read_to_string(&path) {
        Ok(text) => text,
        Err(_) => return Ok(None),
    };
    let doc = JsonValue::parse(&text)
        .map_err(|e| format!("{}: baseline is not valid JSON: {e}", path.display()))?;
    match doc.get("schema_version").and_then(JsonValue::as_i64) {
        Some(version) if version as u64 == REPORT_SCHEMA_VERSION => {}
        other => {
            return Err(format!(
                "{}: baseline schema_version {other:?} != {REPORT_SCHEMA_VERSION}",
                path.display()
            ))
        }
    }
    doc.get("goodput_bytes_per_sec")
        .and_then(JsonValue::as_f64)
        .map(Some)
        .ok_or_else(|| format!("{}: baseline has no goodput_bytes_per_sec", path.display()))
}

struct Options {
    smoke: bool,
    out: PathBuf,
    compare: Option<PathBuf>,
    tolerance: f64,
    only: Vec<String>,
    seed: u64,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        smoke: false,
        out: PathBuf::from("."),
        compare: None,
        tolerance: 0.30,
        only: Vec::new(),
        seed: 42,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--smoke" => options.smoke = true,
            "--full" => options.smoke = false,
            "--out" => options.out = PathBuf::from(value("--out")?),
            "--compare" => options.compare = Some(PathBuf::from(value("--compare")?)),
            "--tolerance" => {
                options.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|_| "--tolerance needs a fraction like 0.30".to_string())?;
            }
            "--only" => options.only.push(value("--only")?),
            "--seed" => {
                options.seed =
                    value("--seed")?.parse().map_err(|_| "--seed needs an integer".to_string())?;
            }
            other => return Err(format!("unknown flag {other:?} (see the crate docs)")),
        }
    }
    if !(0.0..1.0).contains(&options.tolerance) {
        return Err(format!("--tolerance {} is outside [0, 1)", options.tolerance));
    }
    for name in &options.only {
        if !SCENARIOS.contains(&name.as_str()) {
            return Err(format!("unknown scenario {name:?}; known: {SCENARIOS:?}"));
        }
    }
    Ok(options)
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("bench_report: {message}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = fs::create_dir_all(&options.out) {
        eprintln!("bench_report: cannot create {}: {e}", options.out.display());
        return ExitCode::FAILURE;
    }

    let mut failed = false;
    let mut regressions = Vec::new();
    for &name in &SCENARIOS {
        if !options.only.is_empty() && !options.only.iter().any(|only| only == name) {
            continue;
        }
        print!("{name}: ");
        let outcome = match run_scenario(name, options.smoke, options.seed) {
            Ok(outcome) => outcome,
            Err(message) => {
                println!("FAILED — {message}");
                failed = true;
                continue;
            }
        };
        let path = options.out.join(format!("BENCH_{name}.json"));
        let mut rendered = outcome_json(name, options.smoke, options.seed, &outcome).render();
        rendered.push('\n');
        if let Err(e) = fs::write(&path, rendered) {
            println!("FAILED — cannot write {}: {e}", path.display());
            failed = true;
            continue;
        }
        let goodput = outcome.goodput();
        print!(
            "{:.1} KiB/s, latency p50/p99 {}/{} {} (n={})",
            goodput / 1024.0,
            outcome.latency.p50(),
            outcome.latency.p99(),
            outcome.latency_unit,
            outcome.latency.count()
        );

        match options.compare.as_deref().map(|dir| baseline_goodput(dir, name)) {
            None => println!(),
            Some(Err(message)) => {
                println!(" — {message}");
                failed = true;
            }
            Some(Ok(None)) => println!(" — no baseline, skipping compare"),
            Some(Ok(Some(baseline))) => {
                let floor = baseline * (1.0 - options.tolerance);
                let change = if baseline > 0.0 { goodput / baseline - 1.0 } else { 0.0 };
                if goodput < floor {
                    println!(
                        " — REGRESSION: {:+.1}% vs baseline {:.1} KiB/s",
                        change * 100.0,
                        baseline / 1024.0
                    );
                    regressions.push(name);
                } else {
                    println!(" — {:+.1}% vs baseline, within tolerance", change * 100.0);
                }
            }
        }
    }

    if !regressions.is_empty() {
        eprintln!(
            "bench_report: goodput regressed more than {:.0}% on: {}",
            options.tolerance * 100.0,
            regressions.join(", ")
        );
        return ExitCode::FAILURE;
    }
    if failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
