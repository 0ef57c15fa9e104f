//! Disseminates a real file from one source to N localhost peers over UDP
//! under each scheme (WC, LTNC, RLNC), and reports convergence, bytes on
//! the wire and header-level aborts — the first end-to-end scenario that
//! exercises encoder → wire → socket → recoder → decoder over real
//! sockets.
//!
//! ```text
//! cargo run --release -p ltnc-net --example file_dissemination_udp
//! cargo run --release -p ltnc-net --example file_dissemination_udp -- \
//!     --file path/to/object --peers 12 --k 32 --m 256 --scheme ltnc
//! # the same swarm over 20%-lossy, reordering links:
//! cargo run --release -p ltnc-net --example file_dissemination_udp -- \
//!     --loss 0.2 --reorder 0.1 --fault-seed 61453
//! ```
//!
//! Without `--file`, a deterministic pseudo-random object of `--size`
//! bytes (default 24 KiB) is generated. Without `--scheme`, all three
//! schemes run on the same object so their wire costs are comparable.
//! `--loss` / `--reorder` / `--dup` route every node's datagrams through
//! a seeded `FaultySocket` (`--fault-seed`, default from the
//! `LTNC_FAULT_SEED` environment variable).

use std::process::ExitCode;
use std::time::Duration;

use ltnc_net::faults::{DatagramFaultPlan, DatagramFaults};
use ltnc_net::swarm::{run_localhost_swarm, SwarmConfig, SwarmReport};
use ltnc_net::NodeOptions;
use ltnc_scheme::SchemeKind;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

struct Args {
    file: Option<String>,
    size: usize,
    peers: usize,
    k: usize,
    m: usize,
    schemes: Vec<SchemeKind>,
    timeout_secs: u64,
    loss: f64,
    reorder: f64,
    dup: f64,
    fault_seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        file: None,
        size: 24 * 1024,
        peers: 8,
        k: 16,
        m: 64,
        schemes: vec![SchemeKind::Wc, SchemeKind::Ltnc, SchemeKind::Rlnc],
        timeout_secs: 60,
        loss: 0.0,
        reorder: 0.0,
        dup: 0.0,
        fault_seed: std::env::var("LTNC_FAULT_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0xF00D),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--file" => args.file = Some(value("--file")?),
            "--size" => {
                args.size = value("--size")?.parse().map_err(|e| format!("--size: {e}"))?;
            }
            "--peers" => {
                args.peers = value("--peers")?.parse().map_err(|e| format!("--peers: {e}"))?;
            }
            "--k" => args.k = value("--k")?.parse().map_err(|e| format!("--k: {e}"))?,
            "--m" => args.m = value("--m")?.parse().map_err(|e| format!("--m: {e}"))?,
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
            "--loss" => {
                args.loss = value("--loss")?.parse().map_err(|e| format!("--loss: {e}"))?;
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
            "--help" | "-h" => {
                println!(
                    "usage: file_dissemination_udp [--file PATH | --size BYTES] \
                     [--peers N] [--k K] [--m M] [--scheme wc|rlnc|ltnc] [--timeout SECS] \
                     [--loss RATE] [--reorder RATE] [--dup RATE] [--fault-seed N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn load_object(args: &Args) -> Result<Vec<u8>, String> {
    match &args.file {
        Some(path) => std::fs::read(path).map_err(|e| format!("reading {path}: {e}")),
        None => {
            let mut rng = SmallRng::seed_from_u64(0xF11E);
            let mut object = vec![0u8; args.size];
            rng.fill(&mut object[..]);
            Ok(object)
        }
    }
}

fn report_row(report: &SwarmReport, peers: usize) -> String {
    let wire = &report.total_wire;
    format!(
        "{:<5} {:>9} {:>6} {:>11} {:>13} {:>13} {:>9} {:>9} {:>9} {:>9} {:>8}",
        report.scheme.label(),
        format!("{}/{}", report.peers_complete, peers),
        report.generations,
        format!("{:.2}s", report.elapsed.as_secs_f64()),
        wire.bytes_sent,
        wire.payload_bytes_sent,
        wire.transfers_offered,
        wire.transfers_aborted,
        wire.offer_timeouts,
        report.total_faults.dropped_in + report.total_faults.dropped_out,
        if report.bit_exact { "yes" } else { "NO" },
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let object = match load_object(&args) {
        Ok(object) => object,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let faults = (args.loss > 0.0 || args.reorder > 0.0 || args.dup > 0.0).then(|| {
        DatagramFaults::inbound(
            DatagramFaultPlan::clean(args.fault_seed)
                .drop_rate(args.loss)
                .duplicate_rate(args.dup)
                .reorder(args.reorder, 8),
        )
    });

    let generation_bytes = args.k * args.m;
    println!(
        "object: {} bytes, k = {}, m = {} ({} bytes/generation, {} generations), {} peers",
        object.len(),
        args.k,
        args.m,
        generation_bytes,
        (object.len().max(1)).div_ceil(generation_bytes),
        args.peers,
    );
    if faults.is_some() {
        println!(
            "faults: loss {:.0}% / reorder {:.0}% / dup {:.0}% (seed {:#x})",
            args.loss * 100.0,
            args.reorder * 100.0,
            args.dup * 100.0,
            args.fault_seed,
        );
    }
    println!();
    println!(
        "{:<5} {:>9} {:>6} {:>11} {:>13} {:>13} {:>9} {:>9} {:>9} {:>9} {:>8}",
        "sch",
        "complete",
        "gens",
        "time",
        "bytes-sent",
        "payload-B",
        "offers",
        "aborts",
        "timeouts",
        "drops",
        "exact"
    );

    let mut all_ok = true;
    for scheme in args.schemes.clone() {
        let config = SwarmConfig {
            code_length: args.k,
            payload_size: args.m,
            peers: args.peers,
            options: NodeOptions { seed: 7 + scheme.wire_id() as u64, ..NodeOptions::default() },
            timeout: Duration::from_secs(args.timeout_secs),
            session: 0xF00D_0000 + scheme.wire_id() as u64,
            faults,
            ..SwarmConfig::quick(scheme, object.clone())
        };
        match run_localhost_swarm(&config) {
            Ok(report) => {
                println!("{}", report_row(&report, args.peers));
                if !(report.converged && report.bit_exact) {
                    all_ok = false;
                }
            }
            Err(e) => {
                eprintln!("{}: swarm failed: {e}", scheme.label());
                all_ok = false;
            }
        }
    }

    if all_ok {
        println!("\nall schemes converged with bit-exact reconstruction");
        ExitCode::SUCCESS
    } else {
        eprintln!("\nsome schemes failed to converge or verify");
        ExitCode::FAILURE
    }
}
