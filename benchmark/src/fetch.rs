//! The serving-tier workload: one client stripes a 4 MiB object across
//! two warm TCP replicas on loopback. Thread pool + blocking TCP, warm
//! symbol rings (encode once, serve many), `FrameReassembler`, leases and
//! the shared decoder — and none of `peer`, `reactor` or `topo`.

use std::net::SocketAddr;
use std::time::Instant;

use ltnc_metrics::ServeCounters;
use ltnc_scheme::{SchemeKind, SchemeParams};
use ltnc_serve::{fetch, fetch_striped, ClientOptions, ServeOptions, Server, StripedOptions};

use crate::seed::Stream;
use crate::trace::Trace;
use crate::workload::{Inputs, Metrics, OpOutcome, Samples, Workload};

/// Code length of the served object.
pub const K: usize = 64;
/// Payload size of the served object.
pub const M: usize = 1024;
/// 64 generations of `K × M` bytes.
pub const OBJECT_LEN: usize = 4 * 1024 * 1024;
/// Replicas, and so client connections and stripes.
pub const REPLICAS: usize = 2;
const SCHEME: SchemeKind = SchemeKind::Ltnc;

/// Two warm replicas serving one registered object.
pub struct FetchWorkload {
    inputs: Inputs,
    object: Vec<u8>,
    object_id: u64,
    servers: Vec<Server>,
    addrs: Vec<SocketAddr>,
    setup: Vec<(&'static str, f64)>,
}

impl FetchWorkload {
    /// Spawns the replicas, registers the object on each and warms their
    /// symbol rings with one whole-object fetch per replica.
    ///
    /// # Errors
    ///
    /// A description of the first spawn, registration or warm-fetch
    /// failure; a warm fetch that is not bit-exact is a failure too.
    pub fn new(inputs: Inputs) -> Result<FetchWorkload, String> {
        let object = inputs.object(0, OBJECT_LEN);
        let object_id = inputs.derive(0, Stream::Session);
        let params = SchemeParams::new(SCHEME, K, M);
        let (mut spawn_s, mut register_s, mut warm_s) = (0.0, 0.0, 0.0);
        let mut workload = FetchWorkload {
            inputs,
            object,
            object_id,
            servers: Vec::new(),
            addrs: Vec::new(),
            setup: Vec::new(),
        };
        for replica in 0..REPLICAS {
            let options = ServeOptions {
                warm_cache_capacity: 4 * K,
                replica_salt: replica as u64 + 1,
                workers: 1,
                ..ServeOptions::default()
            };
            let started = Instant::now();
            let server = Server::spawn(SocketAddr::from(([127, 0, 0, 1], 0)), options)
                .map_err(|e| format!("replica {replica} failed to spawn: {e}"))?;
            spawn_s += started.elapsed().as_secs_f64();
            // Owned from here on, so an early return still shuts it down.
            workload.addrs.push(server.local_addr());
            workload.servers.push(server);
            let server = &workload.servers[replica];

            let started = Instant::now();
            server
                .register(object_id, &workload.object, params)
                .map_err(|e| format!("replica {replica} failed to register: {e}"))?;
            register_s += started.elapsed().as_secs_f64();

            let started = Instant::now();
            let warm = fetch(server.local_addr(), object_id, SCHEME, &ClientOptions::default())
                .map_err(|e| format!("warm fetch from replica {replica} failed: {e}"))?;
            warm_s += started.elapsed().as_secs_f64();
            if warm.object != workload.object {
                return Err(format!("warm fetch from replica {replica} was not bit-exact"));
            }
        }
        workload.setup = vec![
            ("serve.spawn_s", spawn_s),
            ("serve.register_s", register_s),
            ("serve.warm_fetch_s", warm_s),
        ];
        Ok(workload)
    }

    fn counters(&self) -> ServeCounters {
        let mut total = ServeCounters::new();
        for server in &self.servers {
            total.merge(&server.counters());
        }
        total
    }
}

impl Drop for FetchWorkload {
    fn drop(&mut self) {
        for server in self.servers.drain(..) {
            // Joins the accept loop and the workers.
            let _ = server.shutdown();
        }
    }
}

impl Workload for FetchWorkload {
    fn op(&mut self, op: u64, trace: &mut Trace) -> OpOutcome {
        let before = self.counters();
        let started = Instant::now();
        trace.start_op(op);
        let report = trace.time("serve.fetch_striped", || {
            fetch_striped(&self.addrs, self.object_id, SCHEME, &StripedOptions::default())
        });
        let wall_s = started.elapsed().as_secs_f64();
        let spans = trace.finish_op().len();
        let served = self.counters().snapshot_delta(&before);

        let report = match report {
            Ok(report) => report,
            Err(error) => {
                eprintln!("fetch op {op}: {error}");
                return OpOutcome { wall_s, ..OpOutcome::default() };
            }
        };
        let fetched = std::iter::once(Some(report.object.as_slice()));
        let verdict = self.inputs.verify(&self.object, fetched);
        let ok = verdict.exact == 1;
        if !ok {
            eprintln!("fetch op {op}: the fetched object is not bit-exact");
        }
        let replicas = &report.stripe.replicas;
        let bytes_in = replicas.iter().map(|r| r.bytes_in);
        let mut layer = vec![
            ("serve.symbol_latency_p50_us", report.latency.p50() as f64),
            ("serve.symbol_latency_p99_us", report.latency.p99() as f64),
            ("serve.cache_hits", served.cache_hits as f64),
            ("serve.cache_lookups", (served.cache_hits + served.cache_misses) as f64),
            ("serve.duplicates", report.stripe.duplicates_discarded() as f64),
            ("serve.delivered", report.stripe.total_delivered() as f64),
            ("serve.aborted", served.transfers_aborted as f64),
            ("serve.offered", served.transfers_offered as f64),
            ("serve.max_replica_bytes_in", bytes_in.clone().max().unwrap_or(0) as f64),
            ("serve.min_replica_bytes_in", bytes_in.min().unwrap_or(0) as f64),
        ];
        if spans > 0 {
            layer.push(("trace.spans", spans as f64));
        }
        OpOutcome {
            ok,
            wrong_bytes: verdict.wrong_bytes,
            wall_s,
            delivered_bytes: if ok { self.object.len() as u64 } else { 0 },
            wire_bytes: replicas.iter().map(|r| r.bytes_in + r.bytes_out).sum(),
            layer,
        }
    }

    fn setup_layer(&self) -> Vec<(&'static str, f64)> {
        self.setup.clone()
    }
}

/// The per-operation and set-up `serve.*` layer metrics.
pub fn metrics(samples: &Samples, out: &mut Metrics) {
    out.extend([
        ("serve.spawn_ms", 1e3 * samples.median("serve.spawn_s")),
        ("serve.register_ms", 1e3 * samples.median("serve.register_s")),
        ("serve.warm_fetch_ms", 1e3 * samples.median("serve.warm_fetch_s")),
        ("serve.symbol_latency_p50_us", samples.median("serve.symbol_latency_p50_us")),
        ("serve.symbol_latency_p99_us", samples.median("serve.symbol_latency_p99_us")),
        ("serve.cache_hit_ratio", samples.ratio("serve.cache_hits", "serve.cache_lookups")),
        ("serve.duplicate_ratio", samples.ratio("serve.duplicates", "serve.delivered")),
        ("serve.abort_ratio", samples.ratio("serve.aborted", "serve.offered")),
        (
            "serve.stripe_imbalance",
            samples.ratio("serve.max_replica_bytes_in", "serve.min_replica_bytes_in"),
        ),
    ]);
}
