//! Adaptive vs fixed in-flight budgets over emulated lossy links.
//!
//! The per-peer in-flight budget caps offers awaiting feedback. On a
//! clean localhost link feedback returns in well under a millisecond, so
//! the cap almost never binds and both policies behave identically. On a
//! lossy link a lost offer pins its budget slot down for the whole
//! pending TTL, so the *live* pipeline shrinks to
//! `cap − (lost offers in flight)` and goodput scales with the cap —
//! this is exactly the regime where the adaptive budget pays: it grows
//! by one for every offer the link eats from a peer that is still alive,
//! handing the wasted slot back.
//!
//! Expected shape: at 10–30% seeded datagram loss, `adaptive` converges
//! the same dissemination at ≥ 1.3× the goodput of `fixed` (in practice
//! 2–4×); on the clean control both run within noise of each other
//! (the adaptive budget never moves without timeouts).
//!
//! Faults come from the seeded datagram harness (`FaultySocket`), so a
//! surprising number replays exactly.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ltnc_net::faults::{DatagramFaultPlan, DatagramFaults};
use ltnc_net::swarm::{run_localhost_swarm, SwarmConfig, SwarmRuntime};
use ltnc_net::NodeOptions;
use ltnc_scheme::SchemeKind;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const OBJECT_LEN: usize = 8 * 1024;
const K: usize = 16;
const M: usize = 64;
const PEERS: usize = 3;
const FAULT_SEED: u64 = 0xF00D;

fn make_object() -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(0xAD_0B7);
    let mut object = vec![0u8; OBJECT_LEN];
    rng.fill(&mut object[..]);
    object
}

/// Inbound datagram loss at `loss` with mild reordering — the emulated
/// 10–30% lossy link; `None` for the clean control.
fn lossy(loss: f64) -> Option<DatagramFaults> {
    (loss > 0.0).then(|| {
        DatagramFaults::inbound(
            DatagramFaultPlan::clean(FAULT_SEED).drop_rate(loss).reorder(0.05, 8),
        )
    })
}

fn config(adaptive: bool, loss: f64) -> SwarmConfig {
    SwarmConfig {
        scheme: SchemeKind::Rlnc,
        object: make_object(),
        code_length: K,
        payload_size: M,
        peers: PEERS,
        options: NodeOptions { seed: 0xBE7, adaptive_pacing: adaptive, ..NodeOptions::default() },
        timeout: Duration::from_secs(120),
        session: 0x9ACE,
        faults: lossy(loss),
        trace_capacity: None,
        runtime: SwarmRuntime::Sharded { workers: 2 },
        metrics_bind: None,
        flight_recorder: None,
    }
}

fn bench_pacing(c: &mut Criterion) {
    for (label, loss) in [("clean", 0.0), ("loss10", 0.10), ("loss20", 0.20), ("loss30", 0.30)] {
        let mut group = c.benchmark_group(format!("pacing/{label}"));
        // One full dissemination per iteration: convergence time is the
        // measurement, object bytes the throughput unit (goodput).
        group
            .sample_size(10)
            .warm_up_time(Duration::from_millis(500))
            .measurement_time(Duration::from_secs(8))
            .throughput(Throughput::Bytes(OBJECT_LEN as u64));
        for adaptive in [true, false] {
            let name = if adaptive { "adaptive" } else { "fixed" };
            group.bench_function(name, |b| {
                b.iter(|| {
                    let report = run_localhost_swarm(&config(adaptive, loss)).expect("swarm runs");
                    assert!(
                        report.converged && report.bit_exact,
                        "{name}/{label}: swarm failed to converge"
                    );
                    report.elapsed
                });
            });
        }
        group.finish();
    }
}

/// Telemetry overhead A/B: the same lossy adaptive dissemination with
/// the trace hooks disarmed (no sink — every `Tracer::emit` is an
/// `Option` check that never builds its event) versus armed with a
/// bounded ring sink per node. The no-sink variant must sit within noise
/// (≤ 2% goodput) of the pre-telemetry baseline; the armed variant
/// measures what full event capture actually costs.
fn bench_tracing_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("pacing/tracing");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(8))
        .throughput(Throughput::Bytes(OBJECT_LEN as u64));
    for (name, capacity) in [("no_sink", None), ("ring_sink", Some(65_536))] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut config = config(true, 0.20);
                config.trace_capacity = capacity;
                let report = run_localhost_swarm(&config).expect("swarm runs");
                assert!(
                    report.converged && report.bit_exact,
                    "tracing/{name}: swarm failed to converge"
                );
                report.elapsed
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pacing, bench_tracing_overhead);
criterion_main!(benches);
