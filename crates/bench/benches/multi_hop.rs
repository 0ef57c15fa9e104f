//! Per-scheme goodput vs hop count on lossy line topologies — the
//! paper's core multi-hop comparison, finally over real UDP.
//!
//! One iteration = one full dissemination down a line of relays, each
//! directed link eating a seeded share of the datagrams crossing it.
//! Goodput is object bytes over convergence time (everyone complete,
//! bit-exact), so the number summarizes the *end-to-end* path, relays
//! included.
//!
//! Expected shape: all three schemes lose goodput with hop count (every
//! hop adds a store-recode-forward stage and another lossy link), but
//! the coded schemes degrade far more gently than WC — at 8 hops and
//! 30% per-link loss the probability a *specific* native packet crosses
//! uncoded is 0.7⁸ ≈ 6%, so WC leans entirely on retries, while LTNC
//! and RLNC relays manufacture fresh innovative symbols from whatever
//! arrived. That gap — recoding beating repetition on deep lossy paths
//! — is the claim the paper makes and this bench measures.
//!
//! Faults come from the seeded per-link harness (`TopologyFaults`), so
//! a surprising number replays exactly.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ltnc_net::faults::DatagramFaultPlan;
use ltnc_net::NodeOptions;
use ltnc_scheme::SchemeKind;
use ltnc_topo::{run_topology, SwarmRuntime, Topology, TopologyConfig, TopologyFaults};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const OBJECT_LEN: usize = 4 * 1024;
const K: usize = 16;
const M: usize = 64;
const FAULT_SEED: u64 = 0xF00D;

fn make_object() -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(0x40B_1E55);
    let mut object = vec![0u8; OBJECT_LEN];
    rng.fill(&mut object[..]);
    object
}

fn config(scheme: SchemeKind, hops: usize, loss: f64) -> TopologyConfig {
    TopologyConfig {
        scheme,
        object: make_object(),
        code_length: K,
        payload_size: M,
        topology: Topology::line(hops + 1),
        source: 0,
        options: NodeOptions {
            seed: 0x40B ^ u64::from(scheme.wire_id()),
            ..NodeOptions::default()
        },
        timeout: Duration::from_secs(180),
        session: 0x40B_0000 + u64::from(scheme.wire_id()),
        link_faults: TopologyFaults::uniform(DatagramFaultPlan::clean(FAULT_SEED).drop_rate(loss)),
        node_faults: None,
        trace_capacity: None,
        runtime: SwarmRuntime::Sharded { workers: 2 },
        metrics_bind: None,
        flight_recorder: None,
    }
}

fn bench_multi_hop(c: &mut Criterion) {
    for hops in [4usize, 8] {
        for (label, loss) in [("loss10", 0.10), ("loss30", 0.30)] {
            let mut group = c.benchmark_group(format!("multi_hop/{hops}hops/{label}"));
            // One full dissemination per iteration: convergence time is
            // the measurement, object bytes the throughput unit
            // (end-to-end goodput through the relay chain).
            group
                .sample_size(10)
                .warm_up_time(Duration::from_millis(500))
                .measurement_time(Duration::from_secs(10))
                .throughput(Throughput::Bytes(OBJECT_LEN as u64));
            for scheme in SchemeKind::ALL {
                group.bench_function(scheme.label(), |b| {
                    b.iter(|| {
                        let report =
                            run_topology(&config(scheme, hops, loss)).expect("topology runs");
                        assert!(
                            report.swarm.converged && report.swarm.bit_exact,
                            "{scheme:?}/{hops}hops/{label}: failed to converge"
                        );
                        report.swarm.elapsed
                    });
                });
            }
            group.finish();
        }
    }
}

criterion_group!(benches, bench_multi_hop);
criterion_main!(benches);
