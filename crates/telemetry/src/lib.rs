//! Observability for the LTNC reproduction: structured event tracing, a
//! labeled metrics registry, and a tiny TCP scrape endpoint.
//!
//! The transports (`ltnc-net`, `ltnc-serve`, `ltnc-topo`) account for
//! everything they do in plain counter structs (`WireCounters`,
//! `ServeCounters`, `StripeCounters`, `HopCounters`), but those are only
//! readable post-mortem from in-process reports. This crate adds the two
//! live views a running system needs:
//!
//! 1. **Events** — [`TraceEvent`] is the typed vocabulary of things that
//!    happen on the hot paths (offers, feedback, AIMD budget moves,
//!    injected faults, store hits, lease failovers, …). Components emit
//!    them through a [`Tracer`], a cheap optional handle around a
//!    [`TraceSink`]; with no sink installed the emission compiles down to
//!    a branch on `None` and the event is never even constructed.
//!    [`RingSink`] is the bundled recorder: a bounded ring buffer that
//!    stamps each event with a monotonic-clock offset.
//! 2. **Metrics** — a [`MetricsRegistry`] holds labeled [`Collector`]s
//!    (usually closures sampling a live counter struct), renders
//!    snapshots as Prometheus-style text or JSON, and computes interval
//!    deltas (generalizing `ServeCounters::snapshot_delta` to every
//!    family). [`ScrapeServer`] serves those snapshots over a
//!    thread-per-listener TCP endpoint with deadlines, so a slow or
//!    malformed scraper can never stall the instrumented process.
//!
//! The [`json`] module is a minimal JSON document builder shared by the
//! endpoint's JSON view and the examples' `--report` writers (the
//! workspace's vendored `serde` is an offline no-op facade, so JSON is
//! rendered by hand).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

mod collectors;
mod registry;
mod scrape;
mod trace;

pub use collectors::{
    hop_latency_histograms, hop_samples, reactor_histograms, reactor_samples, serve_samples,
    stripe_samples, wire_samples,
};
pub use registry::{
    Collector, FamilySnapshot, HistogramCollector, HistogramSample, MetricsRegistry,
    MetricsSnapshot, Sample,
};
pub use scrape::{FlightHandler, ScrapeOptions, ScrapeServer};
pub use trace::{FaultKind, OfferTrigger, RingSink, TimedEvent, TraceEvent, TraceSink, Tracer};
