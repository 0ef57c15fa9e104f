//! Edge-cache serving demo: one warm TCP server, many short-lived
//! clients, zipf-ish object popularity — the workload of *Caching at the
//! Edge with LT codes* run over real sockets for each scheme (WC, LTNC,
//! RLNC), reporting per-scheme throughput and warm-cache hit rates.
//!
//! ```text
//! cargo run --release -p ltnc-serve --example cache_serving
//! cargo run --release -p ltnc-serve --example cache_serving -- \
//!     --objects 4 --clients 24 --size 65536 --k 32 --m 256 --scheme ltnc
//! cargo run --release -p ltnc-serve --example cache_serving -- \
//!     --smoke --metrics 127.0.0.1:9620 --report run.json
//! ```
//!
//! `--smoke` is the CI configuration: one small object, 3 clients, all
//! three schemes, a few seconds end to end. `--metrics ADDR` exposes a
//! live scrape endpoint carrying the `serve` family (read from the
//! running server at scrape time) and the clients' `wire` family for the
//! whole run; `--report PATH` writes a JSON run report; `--linger SECS`
//! keeps the metrics endpoint alive after the run so an external scraper
//! can collect the final state.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use ltnc_metrics::{LogHistogramSnapshot, ServeCounters, WireCounters};
use ltnc_scheme::{SchemeKind, SchemeParams};
use ltnc_serve::{fetch, ClientOptions, ServeOptions, Server};
use ltnc_telemetry::json::{self, JsonValue};
use ltnc_telemetry::{samples, MetricsRegistry, ScrapeServer};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Deterministic RNG seeds of the run: object contents and client
/// popularity draws. Logged at startup so a surprising run replays.
const OBJECT_SEED: u64 = 0xCAFE;
const CLIENT_SEED: u64 = 0xC11E;

struct Args {
    objects: usize,
    clients: usize,
    size: usize,
    k: usize,
    m: usize,
    cache: usize,
    schemes: Vec<SchemeKind>,
    timeout_secs: u64,
    metrics: Option<SocketAddr>,
    report: Option<String>,
    linger_secs: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        objects: 3,
        clients: 12,
        size: 24 * 1024,
        k: 16,
        m: 64,
        cache: 256,
        schemes: vec![SchemeKind::Wc, SchemeKind::Ltnc, SchemeKind::Rlnc],
        timeout_secs: 60,
        metrics: None,
        report: None,
        linger_secs: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--objects" => {
                args.objects =
                    value("--objects")?.parse().map_err(|e| format!("--objects: {e}"))?;
            }
            "--clients" => {
                args.clients =
                    value("--clients")?.parse().map_err(|e| format!("--clients: {e}"))?;
            }
            "--size" => {
                args.size = value("--size")?.parse().map_err(|e| format!("--size: {e}"))?;
            }
            "--k" => args.k = value("--k")?.parse().map_err(|e| format!("--k: {e}"))?,
            "--m" => args.m = value("--m")?.parse().map_err(|e| format!("--m: {e}"))?,
            "--cache" => {
                args.cache = value("--cache")?.parse().map_err(|e| format!("--cache: {e}"))?;
            }
            "--timeout" => {
                args.timeout_secs =
                    value("--timeout")?.parse().map_err(|e| format!("--timeout: {e}"))?;
            }
            "--scheme" => {
                let name = value("--scheme")?;
                let kind = SchemeKind::parse(&name)
                    .ok_or_else(|| format!("unknown scheme {name} (wc|rlnc|ltnc)"))?;
                args.schemes = vec![kind];
            }
            "--metrics" => {
                args.metrics =
                    Some(value("--metrics")?.parse().map_err(|e| format!("--metrics: {e}"))?);
            }
            "--report" => args.report = Some(value("--report")?),
            "--linger" => {
                args.linger_secs =
                    value("--linger")?.parse().map_err(|e| format!("--linger: {e}"))?;
            }
            "--smoke" => {
                // The CI configuration: small and fast, still end to end.
                args.objects = 1;
                args.clients = 3;
                args.size = 2048;
                args.k = 8;
                args.m = 32;
                args.cache = 64;
                args.timeout_secs = 30;
            }
            "--help" | "-h" => {
                println!(
                    "usage: cache_serving [--objects N] [--clients N] [--size BYTES] \
                     [--k K] [--m M] [--cache SYMBOLS] [--scheme wc|rlnc|ltnc] \
                     [--timeout SECS] [--metrics ADDR] [--report PATH] \
                     [--linger SECS] [--smoke]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Deterministic pseudo-random object for id `id`.
fn make_object(id: u64, len: usize) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(OBJECT_SEED ^ id);
    let mut object = vec![0u8; len];
    rng.fill(&mut object[..]);
    object
}

/// Zipf-ish popularity: object rank r (0-based) drawn with weight
/// 1 / (r + 1).
fn pick_object(rng: &mut SmallRng, objects: usize) -> u64 {
    let weights: Vec<f64> = (0..objects).map(|r| 1.0 / (r + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut draw = rng.gen_range(0.0..total);
    for (rank, w) in weights.iter().enumerate() {
        if draw < *w {
            return rank as u64 + 1;
        }
        draw -= w;
    }
    objects as u64
}

/// The run-wide scrape endpoint and what it reads, monotone across
/// schemes: each scheme's server starts from zero, so the live view is
/// `finished schemes + current`.
struct Telemetry {
    scrape: ScrapeServer,
    serve: Arc<Mutex<ServeRollup>>,
    /// The clients of every finished scheme.
    wire: Arc<Mutex<WireCounters>>,
}

/// The `serve` family's source: the final counters of the finished
/// schemes' servers, plus the running server, read at scrape time.
#[derive(Default)]
struct ServeRollup {
    finished: ServeCounters,
    running: Option<Server>,
}

impl ServeRollup {
    fn total(&self) -> ServeCounters {
        let mut total = self.finished;
        if let Some(server) = &self.running {
            total.merge(&server.counters());
        }
        total
    }

    /// Shuts the running server down and adds its final counters to the
    /// finished ones. A scrape waits on the rollup's lock meanwhile, so
    /// none sees the total fall.
    fn retire(&mut self) -> ServeCounters {
        let counters = self.running.take().expect("a server is running").shutdown();
        self.finished.merge(&counters);
        counters
    }
}

fn spawn_telemetry(addr: SocketAddr) -> std::io::Result<Telemetry> {
    let serve = Arc::new(Mutex::new(ServeRollup::default()));
    let wire = Arc::new(Mutex::new(WireCounters::new()));

    let registry = Arc::new(MetricsRegistry::new());
    let example = ("example", "cache_serving".to_string());
    let source = Arc::clone(&serve);
    registry.register("serve", std::slice::from_ref(&example), move || {
        samples(&source.lock().expect("serve rollup lock").total())
    });
    let source = Arc::clone(&wire);
    registry.register("wire", &[example, ("node", "clients".to_string())], move || {
        samples(&*source.lock().expect("wire rollup lock"))
    });

    let scrape = ScrapeServer::spawn(addr, registry)?;
    Ok(Telemetry { scrape, serve, wire })
}

/// Per-scheme outcome row for the table and the JSON report.
struct SchemeOutcome {
    scheme: SchemeKind,
    counters: ServeCounters,
    client_wire: WireCounters,
    /// Accept→payload latency merged over every client's fetch, each
    /// on its own clock.
    client_latency: LogHistogramSnapshot,
    elapsed: Duration,
    throughput_mib: f64,
}

fn run_scheme(
    scheme: SchemeKind,
    args: &Args,
    telemetry: Option<&Telemetry>,
) -> Result<SchemeOutcome, String> {
    let options =
        ServeOptions { warm_cache_capacity: args.cache, workers: 4, ..ServeOptions::default() };
    let server = Server::spawn("127.0.0.1:0".parse().expect("valid addr"), options)
        .map_err(|e| format!("spawn: {e}"))?;

    let objects: Vec<(u64, Arc<Vec<u8>>)> = (0..args.objects)
        .map(|i| (i as u64 + 1, Arc::new(make_object(i as u64 + 1, args.size))))
        .collect();
    for (id, object) in &objects {
        server
            .register(*id, object, SchemeParams::new(scheme, args.k, args.m))
            .map_err(|e| format!("register {id}: {e}"))?;
    }

    let addr = server.local_addr();
    // From here the server lives in the rollup, where a scrape reads it.
    let rollup = telemetry.map_or_else(Arc::default, |t| Arc::clone(&t.serve));
    rollup.lock().expect("serve rollup lock").running = Some(server);
    let client_options =
        ClientOptions { timeout: Duration::from_secs(args.timeout_secs), ..Default::default() };
    let started = Instant::now();
    let handles: Vec<_> = (0..args.clients)
        .map(|c| {
            let objects = objects.clone();
            let n_objects = args.objects;
            thread::spawn(move || -> Result<(WireCounters, LogHistogramSnapshot), String> {
                let mut rng = SmallRng::seed_from_u64(CLIENT_SEED + c as u64);
                let id = pick_object(&mut rng, n_objects);
                let report = fetch(addr, id, scheme, &client_options)
                    .map_err(|e| format!("client {c} (object {id}): {e}"))?;
                let expected =
                    &objects.iter().find(|(oid, _)| *oid == id).expect("registered id").1;
                if report.object != ***expected {
                    return Err(format!("client {c}: object {id} reassembled WRONG"));
                }
                Ok((report.wire, report.latency))
            })
        })
        .collect();

    let mut client_wire = WireCounters::new();
    let mut client_latency = LogHistogramSnapshot::empty();
    let mut failures = Vec::new();
    for handle in handles {
        match handle.join().expect("client thread panicked") {
            Ok((wire, latency)) => {
                client_wire.merge(&wire);
                client_latency.merge(&latency);
            }
            Err(e) => failures.push(e),
        }
    }
    let elapsed = started.elapsed();

    let counters = rollup.lock().expect("serve rollup lock").retire();
    if let Some(telemetry) = telemetry {
        telemetry.wire.lock().expect("wire rollup lock").merge(&client_wire);
    }

    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    let throughput_mib =
        client_wire.bytes_received as f64 / (1 << 20) as f64 / elapsed.as_secs_f64();
    Ok(SchemeOutcome { scheme, counters, client_wire, client_latency, elapsed, throughput_mib })
}

fn outcome_row(outcome: &SchemeOutcome, clients: usize) -> String {
    let counters = &outcome.counters;
    format!(
        "{:<5} {:>8} {:>10} {:>11} {:>10} {:>9} {:>9} {:>8.1}% {:>11.2}",
        outcome.scheme.label(),
        format!("{}/{}", counters.sessions_completed, clients),
        format!("{:.2}s", outcome.elapsed.as_secs_f64()),
        counters.bytes_out,
        counters.transfers_delivered,
        counters.cache_hits,
        counters.cache_misses,
        counters.cache_hit_rate() * 100.0,
        outcome.throughput_mib,
    )
}

/// Renders the JSON run report: configuration, per-scheme rows (server
/// counters plus the client-side wire rollup), seeds.
fn render_report(args: &Args, outcomes: &[SchemeOutcome]) -> String {
    let config = JsonValue::object()
        .field("objects", args.objects)
        .field("clients", args.clients)
        .field("size", args.size)
        .field("k", args.k)
        .field("m", args.m)
        .field("cache", args.cache)
        .field("object_seed", OBJECT_SEED)
        .field("client_seed", CLIENT_SEED);
    let schemes = outcomes
        .iter()
        .map(|outcome| {
            let counters = &outcome.counters;
            let wire = &outcome.client_wire;
            let latency = &outcome.client_latency;
            JsonValue::object()
                .field("scheme", outcome.scheme.label())
                .field("elapsed_secs", outcome.elapsed.as_secs_f64())
                .field("throughput_mib_s", outcome.throughput_mib)
                .field(
                    "latency",
                    json::histogram_summary(JsonValue::object().field("unit", "us"), latency),
                )
                .field(
                    "server",
                    json::scalar_fields(JsonValue::object(), counters)
                        .field("cache_hit_rate", counters.cache_hit_rate()),
                )
                .field(
                    "clients",
                    JsonValue::object()
                        .field("bytes_received", wire.bytes_received)
                        .field("bytes_sent", wire.bytes_sent)
                        .field("transfers_delivered", wire.transfers_delivered)
                        .field("useful_deliveries", wire.useful_deliveries)
                        .field("transfers_aborted", wire.transfers_aborted),
                )
        })
        .collect();
    JsonValue::object()
        .field("schema_version", ltnc_telemetry::json::REPORT_SCHEMA_VERSION)
        .field("example", "cache_serving")
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
    println!(
        "serving {} object(s) of {} B (k = {}, m = {}, cache = {} symbols/gen) \
         to {} clients per scheme",
        args.objects, args.size, args.k, args.m, args.cache, args.clients,
    );
    println!("deterministic seeds: objects {OBJECT_SEED:#x}, client popularity {CLIENT_SEED:#x}\n");

    let telemetry = match args.metrics {
        Some(addr) => match spawn_telemetry(addr) {
            Ok(telemetry) => {
                println!("metrics endpoint: http://{}/metrics\n", telemetry.scrape.local_addr());
                Some(telemetry)
            }
            Err(e) => {
                eprintln!("error: binding metrics endpoint {addr}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    println!(
        "{:<5} {:>8} {:>10} {:>11} {:>10} {:>9} {:>9} {:>9} {:>11}",
        "sch", "done", "time", "bytes-out", "delivered", "hits", "misses", "hit-rate", "MiB/s"
    );

    let mut all_ok = true;
    let mut outcomes = Vec::new();
    for scheme in args.schemes.clone() {
        match run_scheme(scheme, &args, telemetry.as_ref()) {
            Ok(outcome) => {
                println!("{}", outcome_row(&outcome, args.clients));
                outcomes.push(outcome);
            }
            Err(e) => {
                eprintln!("{}: FAILED: {e}", scheme.label());
                all_ok = false;
            }
        }
    }

    if let Some(path) = &args.report {
        let report = render_report(&args, &outcomes);
        if let Err(e) = std::fs::write(path, report + "\n") {
            eprintln!("error: writing report {path}: {e}");
            all_ok = false;
        } else {
            println!("\nreport written to {path}");
        }
    }

    if let Some(telemetry) = telemetry {
        if args.linger_secs > 0 {
            println!(
                "lingering {}s for scrapers at http://{}/metrics",
                args.linger_secs,
                telemetry.scrape.local_addr()
            );
            thread::sleep(Duration::from_secs(args.linger_secs));
        }
        telemetry.scrape.shutdown();
    }

    if all_ok {
        println!("\nall schemes served every client bit-exactly");
        ExitCode::SUCCESS
    } else {
        eprintln!("\nsome serving runs failed");
        ExitCode::FAILURE
    }
}
