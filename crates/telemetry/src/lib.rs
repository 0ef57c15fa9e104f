//! Observability for the LTNC reproduction: structured event tracing, a
//! labeled metrics registry, and a tiny TCP scrape endpoint.
//!
//! The transports (`ltnc-net`, `ltnc-serve`, `ltnc-topo`) account for
//! everything they do in counter families declared once in
//! `ltnc-metrics` (`WireCounters`, `ServeCounters`, `StripeCounters`,
//! `HopCounters`, `ReactorSnapshot`), but those are only readable
//! post-mortem from in-process reports. This crate adds the two live
//! views a running system needs:
//!
//! 1. **Events** — [`TraceEvent`] is the typed vocabulary of things that
//!    happen on the hot paths (offers, feedback, AIMD budget moves,
//!    injected faults, store hits, lease failovers, …). Components emit
//!    them through a [`Tracer`], a cheap optional handle around a
//!    [`RingSink`], the one recorder: a bounded ring buffer of events
//!    stamped with their caller's `now`. With no sink installed the
//!    emission compiles down to a branch on `None` and the event is
//!    never even constructed.
//! 2. **Metrics** — a [`MetricsRegistry`] holds labeled [`Collector`]s
//!    (usually closures sampling a live counter family through
//!    [`samples`], which reads the family's field visitor and types each
//!    sample counter or gauge from its declaration) and renders
//!    cumulative snapshots as Prometheus-style text or JSON.
//!    [`ScrapeServer`] serves those snapshots over a thread-per-listener
//!    TCP endpoint with deadlines, so a slow or malformed scraper can
//!    never stall the instrumented process.
//!
//! The [`json`] module is a minimal JSON document builder shared by the
//! endpoint's JSON view and the examples' `--report` writers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

mod collectors;
mod registry;
mod scrape;
mod trace;

pub use collectors::{histograms, samples};
pub use registry::{
    Collector, FamilySnapshot, HistogramCollector, HistogramSample, MetricsRegistry,
    MetricsSnapshot, Sample, SampleKind,
};
pub use scrape::{FlightHandler, ScrapeServer};
pub use trace::{FaultKind, OfferTrigger, RingSink, TimedEvent, TraceEvent, Tracer};
