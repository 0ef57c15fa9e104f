//! TCP edge-cache serving of rateless-coded objects.
//!
//! The UDP layer (`ltnc-net`) gossips an object through a swarm of peers.
//! This crate covers the complementary workload of *Caching at the Edge
//! with LT codes*: one warm cache serving many concurrent, short-lived
//! client sessions over TCP, each pulling one object coded with any
//! [`ltnc_scheme::Scheme`]. Three layers:
//!
//! * the **stream binding** reuses the sans-io envelope codec of
//!   `ltnc-net` over TCP via [`ltnc_net::stream::FrameReassembler`] — the
//!   wire protocol (including the `DATA-HEADER` → `ACCEPT`/`ABORT` →
//!   `DATA-PAYLOAD` handshake) is byte-identical to the datagram path,
//!   plus the `REQUEST`/`MANIFEST`/`REJECT` handshake that opens a
//!   serving session;
//! * the [`store`] keeps registered objects chunked into generations
//!   (shared with UDP via `ltnc-session`) behind a bounded **warm cache**
//!   of pre-encoded symbols per generation, so a popular object is
//!   encoded once and *served* many times (capacity-evicted,
//!   hit/miss-counted);
//! * the [`server`] runs every connection as a sans-io session on the
//!   `ltnc-reactor` readiness loop that every UDP swarm node runs on, and
//!   the [`client`] fetches an object by id and verifies bit-exact
//!   reassembly — built on a per-generation fetch primitive
//!   ([`client::ReplicaConn`]);
//! * the [`striped`] client pulls one object from **several replicas at
//!   once**: every replica's handshake is awaited and one vote picks the
//!   manifest the most replicas declared, generations are
//!   lease-partitioned across servers, the streams merge into one shared
//!   decoder (duplicate rank is discarded — rateless union), and a
//!   replica that dies or stalls has its outstanding leases re-assigned
//!   to the survivors.
//!
//! The clients ([`fetch`], [`fetch_striped`]) run on threads of their
//! own, over blocking sockets with short read timeouts.
//!
//! Every layer is instrumented through `ltnc-telemetry`: the server
//! emits session/connection/store trace events
//! ([`Server::spawn_traced`]) and reports its live counters through
//! [`Server::counters`], which a caller registers on its own scrape
//! endpoint (the `cache_serving` example does); the striped client
//! traces failovers and lease migrations ([`fetch_striped_traced`]).
//! See `docs/OBSERVABILITY.md` for the event catalog and metric names.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod error;
pub mod options;
pub mod server;
pub mod store;
pub mod striped;

pub use client::{fetch, ClientOptions, FetchReport, ReplicaConn};
pub use error::ServeError;
pub use options::ServeOptions;
pub use server::Server;
pub use store::ObjectStore;
pub use striped::{fetch_striped, fetch_striped_traced, StripedOptions, StripedReport};

/// Records `make`'s event on `tracer`, stamped on the clock the offers
/// carry, which is read only when a sink is installed.
fn trace(tracer: &ltnc_telemetry::Tracer, make: impl FnOnce() -> ltnc_telemetry::TraceEvent) {
    if tracer.is_enabled() {
        tracer.emit(ltnc_net::envelope::TraceContext::now_micros(), make);
    }
}
