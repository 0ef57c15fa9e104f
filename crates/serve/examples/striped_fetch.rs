//! Striped fetching demo: one object pulled from N replica servers at
//! once.
//!
//! Spawns `--servers` local edge-cache replicas (each with a distinct
//! replica salt), registers the same object on all of them, then compares
//! a single-server fetch against the striped fetch for each scheme,
//! printing per-replica symbol counts, duplicates discarded and failover
//! accounting.
//!
//! ```text
//! cargo run --release -p ltnc-serve --example striped_fetch
//! cargo run --release -p ltnc-serve --example striped_fetch -- \
//!     --servers 4 --size 262144 --k 32 --m 256 --scheme ltnc
//! cargo run --release -p ltnc-serve --example striped_fetch -- --smoke
//! ```
//!
//! `--smoke` is the CI configuration: small object, 3 replicas, all
//! schemes. A stream that sends more summaries than its leased
//! generations plus its aborts fails the run. Failover after a replica
//! dies mid-fetch is pinned by the `striped_fetch` integration tests.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

use ltnc_scheme::{SchemeKind, SchemeParams};
use ltnc_serve::{fetch, fetch_striped, ClientOptions, ServeOptions, Server, StripedOptions};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

struct Args {
    servers: usize,
    size: usize,
    k: usize,
    m: usize,
    cache: usize,
    schemes: Vec<SchemeKind>,
    timeout_secs: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        servers: 3,
        size: 96 * 1024,
        k: 16,
        m: 64,
        cache: 256,
        schemes: vec![SchemeKind::Wc, SchemeKind::Ltnc, SchemeKind::Rlnc],
        timeout_secs: 60,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--servers" => {
                args.servers =
                    value("--servers")?.parse().map_err(|e| format!("--servers: {e}"))?;
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
            "--smoke" => {
                // The CI configuration: small and fast, still end to end.
                args.servers = 3;
                args.size = 12 * 1024;
                args.k = 8;
                args.m = 32;
                args.cache = 64;
                args.timeout_secs = 30;
            }
            "--help" | "-h" => {
                println!(
                    "usage: striped_fetch [--servers N] [--size BYTES] [--k K] [--m M] \
                     [--cache SYMBOLS] [--scheme wc|rlnc|ltnc] [--timeout SECS] \
                     [--smoke]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn make_object(len: usize) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(0x57121F);
    let mut object = vec![0u8; len];
    rng.fill(&mut object[..]);
    object
}

/// One measured pass: single-server fetch vs striped fetch.
fn run_pass(args: &Args, scheme: SchemeKind) -> Result<(), String> {
    let object = make_object(args.size);
    let params = SchemeParams::new(scheme, args.k, args.m);
    let options = StripedOptions {
        client: ClientOptions {
            timeout: Duration::from_secs(args.timeout_secs),
            stall_timeout: Duration::from_secs(args.timeout_secs.div_ceil(10).max(2)),
        },
    };

    let servers: Vec<Server> = (0..args.servers)
        .map(|replica| {
            let server_options = ServeOptions {
                warm_cache_capacity: args.cache,
                replica_salt: replica as u64 + 1,
                ..Default::default()
            };
            let server = Server::spawn("127.0.0.1:0".parse().expect("addr"), server_options)
                .map_err(|e| format!("spawn replica {replica}: {e}"))?;
            server.register(1, &object, params).map_err(|e| format!("register: {e}"))?;
            Ok(server)
        })
        .collect::<Result<_, String>>()?;
    let addrs: Vec<SocketAddr> = servers.iter().map(Server::local_addr).collect();

    // Warm every replica's rings (and measure the single-server baseline
    // on the warm path, which is what striping should beat).
    for addr in &addrs {
        let report =
            fetch(*addr, 1, scheme, &options.client).map_err(|e| format!("warm fetch: {e}"))?;
        if report.object != object {
            return Err(format!("{scheme:?}: warm fetch not bit-exact"));
        }
    }
    let single_started = std::time::Instant::now();
    let single =
        fetch(addrs[0], 1, scheme, &options.client).map_err(|e| format!("single fetch: {e}"))?;
    let single_elapsed = single_started.elapsed();

    let report =
        fetch_striped(&addrs, 1, scheme, &options).map_err(|e| format!("striped fetch: {e}"))?;
    if report.object != object {
        return Err(format!("{scheme:?}: striped fetch not bit-exact"));
    }

    let mib = args.size as f64 / (1024.0 * 1024.0);
    let single_rate = single.wire.useful_deliveries as f64 / single_elapsed.as_secs_f64();
    let striped_rate = report.stripe.total_useful() as f64 / report.elapsed.as_secs_f64();
    println!(
        "  {:<5} {:.2} MiB  single {:>8.1} sym/s ({:>6.1} ms)  striped {:>8.1} sym/s \
         ({:>6.1} ms)  speedup {:.2}x",
        scheme.label(),
        mib,
        single_rate,
        single_elapsed.as_secs_f64() * 1e3,
        striped_rate,
        report.elapsed.as_secs_f64() * 1e3,
        striped_rate / single_rate,
    );
    println!("        stripe: {}", report.stripe);
    for (replica, counters) in report.stripe.replicas.iter().enumerate() {
        println!(
            "        replica {replica}: {} offers, {} delivered, {} useful, {} duplicate, \
             {} gens finished, {} summaries ({} gens leased, {} aborts){}",
            counters.offers_seen,
            counters.delivered,
            counters.useful,
            counters.duplicates,
            counters.generations_completed,
            counters.summaries_sent,
            counters.generations_leased,
            counters.aborted,
            if counters.failed { "  [FAILED → re-leased]" } else { "" },
        );
        // A stream summarises a generation's first verdict and its aborts.
        if counters.summaries_sent > counters.generations_leased + counters.aborted {
            return Err(format!("{scheme:?}: replica {replica} summarised more than its rule"));
        }
    }

    for server in servers {
        let _ = server.shutdown();
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let generations = args.size.div_ceil(args.k * args.m);
    println!(
        "striped fetch: {} replicas, {} KiB object, k = {}, m = {} ({} generations)",
        args.servers,
        args.size / 1024,
        args.k,
        args.m,
        generations,
    );
    for &scheme in &args.schemes {
        if let Err(e) = run_pass(&args, scheme) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("OK");
    ExitCode::SUCCESS
}
