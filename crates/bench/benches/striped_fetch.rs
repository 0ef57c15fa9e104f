//! Single-server vs striped fetch on the warm path.
//!
//! Striping pays when streams are *network-bound*: the per-stream
//! bandwidth cap (RTT × window, or a plain per-link rate limit) binds a
//! single-server fetch, while N replicas pulled in parallel aggregate N
//! links. Loopback sockets have no such cap — a localhost fetch is
//! CPU-bound and striping can at best tie on a single core — so this
//! bench emulates the edge-serving link with the fault harness: every
//! server→client stream is routed through a `FaultProxy` that fragments
//! reads and delays each one, i.e. a fixed per-link bandwidth ceiling.
//!
//! Expected shape: `striped_3` sustains ≥ 1.5× the aggregate symbol
//! throughput of `single_server` for the same object (in practice close
//! to 3×, the stripe width), because the three emulated links run
//! concurrently while everything else (decode, feedback) is unchanged.
//! The `loopback_*` pair is the no-latency control showing striping does
//! not *cost* anything when the link is not the bottleneck.

use std::net::SocketAddr;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ltnc_net::faults::{FaultPlan, FaultProxy};
use ltnc_scheme::{SchemeKind, SchemeParams};
use ltnc_serve::{fetch, fetch_striped, ClientOptions, ServeOptions, Server, StripedOptions};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const OBJECT_LEN: usize = 128 * 1024;
const K: usize = 16;
const M: usize = 64;
const REPLICAS: usize = 3;

/// Per-link emulation: at most 4 KiB delivered per read, 6 ms per read —
/// a slow edge link, slow enough that link time dominates the scheduling
/// noise of running client, servers and proxies in one process (the
/// bench also runs on single-core CI machines).
fn wan_link(seed: u64) -> FaultPlan {
    FaultPlan::clean(seed).fragment_reads(4096).delay_reads(Duration::from_millis(6))
}

fn make_object() -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(0xBE4C);
    let mut object = vec![0u8; OBJECT_LEN];
    rng.fill(&mut object[..]);
    object
}

struct Cluster {
    servers: Vec<Server>,
    proxies: Vec<FaultProxy>,
    /// Client-facing addresses (through the proxies when emulating WAN).
    addrs: Vec<SocketAddr>,
}

/// Spawns `REPLICAS` warm replicas of the object, optionally behind
/// per-replica WAN-emulating proxies.
fn spawn_cluster(scheme: SchemeKind, wan: bool, options: &ClientOptions) -> Cluster {
    let object = make_object();
    let params = SchemeParams::new(scheme, K, M);
    let mut servers = Vec::new();
    let mut proxies = Vec::new();
    let mut addrs = Vec::new();
    for replica in 0..REPLICAS {
        let server_options = ServeOptions {
            warm_cache_capacity: 4 * K,
            replica_salt: replica as u64 + 1,
            // One session per replica at a time: idle workers only add
            // scheduler churn on small benchmark machines.
            workers: 1,
            ..Default::default()
        };
        let server =
            Server::spawn("127.0.0.1:0".parse().expect("addr"), server_options).expect("spawn");
        server.register(1, &object, params).expect("register");
        // Warm the rings so the bench measures serving, not first-touch
        // encoding.
        let warm = fetch(server.local_addr(), 1, scheme, options).expect("warm fetch");
        assert_eq!(warm.object, object, "warm path must be bit-exact");
        let addr = if wan {
            let proxy = FaultProxy::spawn(
                server.local_addr(),
                FaultPlan::clean(replica as u64),
                wan_link(replica as u64 + 10),
            )
            .expect("proxy");
            let addr = proxy.local_addr();
            proxies.push(proxy);
            addr
        } else {
            server.local_addr()
        };
        addrs.push(addr);
        servers.push(server);
    }
    Cluster { servers, proxies, addrs }
}

fn shutdown(cluster: Cluster) {
    for proxy in cluster.proxies {
        proxy.shutdown();
    }
    for server in cluster.servers {
        let _ = server.shutdown();
    }
}

fn bench_striped_vs_single(c: &mut Criterion) {
    let client = ClientOptions {
        timeout: Duration::from_secs(60),
        stall_timeout: Duration::from_secs(10),
        ..Default::default()
    };
    let striped = StripedOptions { client, ..Default::default() };

    for scheme in [SchemeKind::Rlnc, SchemeKind::Ltnc] {
        for wan in [true, false] {
            let label = if wan { "wan" } else { "loopback" };
            let mut group =
                c.benchmark_group(format!("striped_fetch_{}_{}", scheme.label(), label));
            group.warm_up_time(Duration::from_millis(500));
            group.measurement_time(Duration::from_secs(3));
            group.sample_size(10);
            group.throughput(Throughput::Bytes(OBJECT_LEN as u64));

            let cluster = spawn_cluster(scheme, wan, &client);
            let single_addr = cluster.addrs[0];
            group.bench_function("single_server", |b| {
                b.iter(|| {
                    let report = fetch(single_addr, 1, scheme, &client).expect("single fetch");
                    assert_eq!(report.object.len(), OBJECT_LEN);
                    report.wire.useful_deliveries
                })
            });
            let addrs = cluster.addrs.clone();
            group.bench_function("striped_3", |b| {
                b.iter(|| {
                    let report = fetch_striped(&addrs, 1, scheme, &striped).expect("striped fetch");
                    assert_eq!(report.object.len(), OBJECT_LEN);
                    report.stripe.total_useful()
                })
            });
            group.finish();
            shutdown(cluster);
        }
    }
}

criterion_group!(benches, bench_striped_vs_single);
criterion_main!(benches);
