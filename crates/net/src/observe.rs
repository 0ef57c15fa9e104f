//! The swarm-level observability plane: reactor instrumentation, the
//! aggregated scrape registry, and the stall-triggered flight recorder.
//!
//! A node has no scrape endpoint of its own — a thousand listeners for
//! one 1000-node experiment would not scale. This module gives a swarm
//! *one* endpoint ([`crate::TopologyConfig::metrics_bind`]):
//!
//! * [`SwarmTelemetry`] implements [`ShardObserver`], turning the
//!   reactor's scheduler callbacks into one [`ReactorCounters`] per
//!   worker shard (and, when the flight recorder is on, a bounded
//!   [`RingSink`] of scheduler [`TraceEvent`]s per shard);
//! * [`swarm_registry`] builds the aggregated [`MetricsRegistry`]: the
//!   `reactor` family per shard under a `shard="<index>"` label, one
//!   rolled-up `wire` family summed across every node, merged
//!   hop-latency histograms, and a `decoder` progress family
//!   (per-generation aggregate rank, innovative ratio);
//! * [`FlightState`] renders the post-mortem document: recent scheduler
//!   events, per-shard counter snapshots and the stuck nodes' decoder
//!   state by topology index, cut on stall detection, shutdown timeout,
//!   or on demand via the endpoint's `/flight` route.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ltnc_metrics::{
    CounterFamily, Field, LogHistogramSnapshot, ReactorCounters, ReactorSnapshot, WireCounters,
};
use ltnc_reactor::{Dispatch, ShardObserver};
use ltnc_telemetry::json::{self, JsonValue, REPORT_SCHEMA_VERSION};
use ltnc_telemetry::{
    histograms, samples, HistogramSample, MetricsRegistry, RingSink, Sample, TimedEvent,
    TraceEvent, Tracer,
};

use crate::peer::Shared;

/// Timer lag below this is normal wheel-granularity noise; only lags at
/// or past it earn a `timer_fired` flight-recorder event (the histogram
/// records every lag regardless).
const LATE_TIMER_LAG: Duration = Duration::from_millis(10);

/// One `shard_tick` heartbeat event per this many loop turns — enough
/// to read a shard's last-alive time off the recorder without the
/// heartbeat flooding the bounded ring.
const TICK_SAMPLE_EVERY: u64 = 64;

/// Per-node detail entries a flight dump carries at most, so a
/// 1000-node post-mortem stays readable; the omitted count is recorded
/// alongside.
const DUMP_NODE_CAP: usize = 64;

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn millis(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

/// One worker shard's instrumentation state.
struct ShardState {
    counters: Arc<ReactorCounters>,
    /// Flight-recorder ring; `None` when the recorder is off (metrics
    /// only).
    ring: Option<Arc<RingSink>>,
    tracer: Tracer,
}

/// The sharded swarm's [`ShardObserver`]: routes every scheduler
/// callback into the per-shard [`ReactorCounters`] and, when the flight
/// recorder is on, stamps the noteworthy ones (wakeups, late timers,
/// sampled heartbeats) into the shard's bounded event ring.
pub(crate) struct SwarmTelemetry {
    shards: Vec<ShardState>,
}

impl SwarmTelemetry {
    /// Instrumentation for `workers` shards; `flight_capacity` sizes the
    /// per-shard event rings (`None` keeps counters only).
    pub(crate) fn new(workers: usize, flight_capacity: Option<usize>) -> SwarmTelemetry {
        let shards = (0..workers.max(1))
            .map(|_| {
                let ring = flight_capacity.map(|capacity| Arc::new(RingSink::new(capacity)));
                let tracer = Tracer::from_option(ring.clone().map(|ring| ring as _));
                ShardState { counters: Arc::new(ReactorCounters::new()), ring, tracer }
            })
            .collect();
        SwarmTelemetry { shards }
    }

    pub(crate) fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Shared handles onto every shard's counters (for registry
    /// collectors and report rollups).
    pub(crate) fn shard_counters(&self) -> Vec<Arc<ReactorCounters>> {
        self.shards.iter().map(|state| Arc::clone(&state.counters)).collect()
    }

    /// Seeds each shard's node-count gauge for the reactor's round-robin
    /// partition of `node_count` nodes (global node `g` lands on shard
    /// `g % workers`).
    pub(crate) fn set_node_counts(&self, node_count: usize) {
        let workers = self.shards.len();
        for (shard, state) in self.shards.iter().enumerate() {
            state.counters.set_nodes(((node_count + workers - 1 - shard) / workers) as u64);
        }
    }

    /// A point-in-time snapshot of every shard's counters, shard-indexed.
    pub(crate) fn snapshots(&self) -> Vec<ReactorSnapshot> {
        self.shards.iter().map(|state| state.counters.snapshot()).collect()
    }

    /// The shard's recent flight events plus its ring's drop count
    /// (`None` when the recorder is off). Non-draining: dumping twice
    /// sees the same history.
    fn shard_events(&self, shard: usize) -> Option<(Vec<TimedEvent>, u64)> {
        let ring = self.shards.get(shard)?.ring.as_ref()?;
        Some((ring.events(), ring.dropped()))
    }

    /// Stamps a `stall_detected` event into every shard's flight ring —
    /// the watchdog's mark, placed just before the dump is cut so the
    /// dump itself contains it.
    pub(crate) fn note_stall(&self, idle: Duration) {
        let idle_ms = millis(idle);
        for (shard, state) in self.shards.iter().enumerate() {
            state.tracer.emit(|| TraceEvent::StallDetected { shard: shard as u64, idle_ms });
        }
    }
}

impl ShardObserver for SwarmTelemetry {
    fn poll_completed(&self, shard: usize, waited: Duration, events: usize) {
        if let Some(state) = self.shards.get(shard) {
            state.counters.record_poll(micros(waited), events as u64);
        }
    }

    fn wakeups_drained(&self, shard: usize, coalesced: usize) {
        let Some(state) = self.shards.get(shard) else { return };
        state.counters.record_wakeups(coalesced as u64);
        if coalesced > 0 {
            state
                .tracer
                .emit(|| TraceEvent::Wakeup { shard: shard as u64, coalesced: coalesced as u64 });
        }
    }

    fn dispatched(&self, shard: usize, kind: Dispatch, took: Duration) {
        let Some(state) = self.shards.get(shard) else { return };
        let ns = nanos(took);
        match kind {
            Dispatch::Readable => state.counters.record_dispatch_readable(ns),
            Dispatch::Timer => state.counters.record_dispatch_timer(ns),
        }
    }

    fn timer_lag(&self, shard: usize, lag: Duration) {
        let Some(state) = self.shards.get(shard) else { return };
        state.counters.record_timer_lag(micros(lag));
        if lag >= LATE_TIMER_LAG {
            state
                .tracer
                .emit(|| TraceEvent::TimerFired { shard: shard as u64, lag_us: micros(lag) });
        }
    }

    fn turn_completed(&self, shard: usize, timers_pending: usize) {
        let Some(state) = self.shards.get(shard) else { return };
        state.counters.record_turn(timers_pending as u64);
        let turns = state.counters.turns.load(Ordering::Relaxed);
        if turns % TICK_SAMPLE_EVERY == 1 {
            state.tracer.emit(|| TraceEvent::ShardTick {
                shard: shard as u64,
                wheel_depth: timers_pending as u64,
            });
        }
    }
}

/// Builds the swarm-wide aggregated registry behind the one
/// [`crate::TopologyConfig::metrics_bind`] endpoint: a rolled-up `wire`
/// family (counters summed across every node, hop-latency histograms
/// merged), a `decoder` progress family over every node but `source`,
/// and a `reactor` family per shard under a `shard="<index>"` label.
pub(crate) fn swarm_registry(
    completion: &[Arc<Shared>],
    source: usize,
    generations: u32,
    telemetry: &SwarmTelemetry,
) -> MetricsRegistry {
    let registry = MetricsRegistry::new();

    let shareds = completion.to_vec();
    registry.register("wire", &[], move || {
        let mut total = WireCounters::new();
        for shared in &shareds {
            total.merge(&shared.wire_snapshot());
        }
        samples(&total)
    });

    let shareds = completion.to_vec();
    registry.register_histograms("wire", &[], move || {
        let mut total = LogHistogramSnapshot::empty();
        let mut by_hop: BTreeMap<usize, LogHistogramSnapshot> = BTreeMap::new();
        for shared in &shareds {
            for (hops, snapshot) in shared.latency.snapshot() {
                total.merge(&snapshot);
                by_hop.entry(hops).or_insert_with(LogHistogramSnapshot::empty).merge(&snapshot);
            }
        }
        let mut samples = Vec::new();
        if !total.is_empty() {
            samples.push(HistogramSample::plain("delivery_latency_us", total));
        }
        for (hops, snapshot) in by_hop {
            samples.push(HistogramSample {
                name: "delivery_latency_us",
                labels: vec![("hops", hops.to_string())],
                snapshot,
            });
        }
        samples
    });

    let receivers: Vec<Arc<Shared>> = completion
        .iter()
        .enumerate()
        .filter(|&(index, _)| index != source)
        .map(|(_, shared)| Arc::clone(shared))
        .collect();
    registry.register("decoder", &[], move || decoder_samples(&receivers, generations));

    for (shard, counters) in telemetry.shard_counters().into_iter().enumerate() {
        let labels = [("shard", shard.to_string())];
        let source = Arc::clone(&counters);
        registry.register("reactor", &labels, move || samples(&source.snapshot()));
        registry.register_histograms("reactor", &labels, move || histograms(&counters.snapshot()));
    }
    registry
}

/// Decoder progress over the receivers' shared state: completion counts,
/// total innovative symbols, per-generation aggregate rank (from the
/// per-tick published mirrors) and the innovative ratio in parts per
/// million of delivered transfers. The receiver and generation totals and
/// the ratio are gauges; the rest only grow.
fn decoder_samples(shareds: &[Arc<Shared>], generations: u32) -> Vec<Sample> {
    let receivers = shareds.len() as u64;
    let mut nodes_complete = 0u64;
    let mut generations_complete = 0u64;
    let mut decoded_rank = 0u64;
    let mut per_generation = vec![0u64; generations as usize];
    let mut delivered = 0u64;
    let mut useful = 0u64;
    for shared in shareds {
        if shared.complete.load(Ordering::Acquire) {
            nodes_complete += 1;
        }
        generations_complete += shared.complete_generations.load(Ordering::Acquire) as u64;
        decoded_rank += shared.decoded_rank.load(Ordering::Relaxed);
        for (generation, rank) in shared.decoder_ranks().into_iter().enumerate() {
            if let Some(slot) = per_generation.get_mut(generation) {
                *slot += rank;
            }
        }
        let wire = shared.wire_snapshot();
        delivered += wire.transfers_delivered;
        useful += wire.useful_deliveries;
    }
    let innovative_ppm = useful.saturating_mul(1_000_000).checked_div(delivered).unwrap_or(0);
    let mut samples = vec![
        Sample::gauge("nodes", receivers),
        Sample::plain("nodes_complete", nodes_complete),
        Sample::gauge("generations", u64::from(generations) * receivers),
        Sample::plain("generations_complete", generations_complete),
        Sample::plain("decoded_rank", decoded_rank),
        Sample::gauge("innovative_ppm", innovative_ppm),
    ];
    for (generation, rank) in per_generation.into_iter().enumerate() {
        samples.push(Sample {
            labels: vec![("generation", generation.to_string())],
            ..Sample::plain("rank", rank)
        });
    }
    samples
}

/// Everything the flight recorder needs to cut a post-mortem: the
/// per-shard instrumentation plus every node's shared state, by topology
/// index. Cheap to clone around (all `Arc`s) and safe to dump from any
/// thread.
#[derive(Clone)]
pub(crate) struct FlightState {
    pub(crate) started: Instant,
    pub(crate) telemetry: Arc<SwarmTelemetry>,
    pub(crate) completion: Vec<Arc<Shared>>,
    /// Topology index of the source, which decodes nothing.
    pub(crate) source: usize,
    pub(crate) stall_window: Duration,
}

impl FlightState {
    /// Renders the schema-stable post-mortem document. `reason` is
    /// `"stall"`, `"shutdown_timeout"` or `"demand"`; `idle` carries the
    /// watchdog's no-progress span when that is what triggered the cut,
    /// and the dump then names when the stall began (`stalled_at_ms`,
    /// run time at the last decoding progress) beside the stuck nodes.
    pub(crate) fn dump(&self, reason: &str, idle: Option<Duration>) -> String {
        let workers = self.telemetry.workers();
        let at = self.started.elapsed();
        let mut doc = JsonValue::object()
            .field("schema_version", REPORT_SCHEMA_VERSION)
            .field("kind", "flight_recorder")
            .field("reason", reason)
            .field("at_ms", millis(at))
            .field("workers", workers as u64)
            .field("stall_window_ms", millis(self.stall_window));
        if let Some(idle) = idle {
            doc = doc.field("idle_ms", millis(idle));
        }

        let shards: Vec<JsonValue> = self
            .telemetry
            .snapshots()
            .iter()
            .enumerate()
            .map(|(shard, snapshot)| {
                shard_json(shard, snapshot, self.telemetry.shard_events(shard))
            })
            .collect();
        doc = doc.field("shards", JsonValue::array(shards));

        // Per-node decoder state: post-mortems care about who is stuck,
        // so only incomplete receivers get a detail row (capped).
        let mut stalled = Vec::new();
        let mut omitted = 0u64;
        let mut nodes_complete = 0u64;
        let receivers = self.completion.iter().enumerate().filter(|&(i, _)| i != self.source);
        for (index, shared) in receivers {
            if shared.complete.load(Ordering::Acquire) {
                nodes_complete += 1;
                continue;
            }
            if stalled.len() >= DUMP_NODE_CAP {
                omitted += 1;
                continue;
            }
            stalled.push(
                JsonValue::object()
                    .field("node", index as u64)
                    .field("shard", (index % workers.max(1)) as u64)
                    .field(
                        "complete_generations",
                        shared.complete_generations.load(Ordering::Acquire) as u64,
                    )
                    .field("decoded_rank", shared.decoded_rank.load(Ordering::Relaxed)),
            );
        }
        if let Some(idle) = idle {
            doc = doc.field("stalled_at_ms", millis(at.saturating_sub(idle)));
        }
        doc = doc
            .field("nodes", self.completion.len().saturating_sub(1) as u64)
            .field("nodes_complete", nodes_complete)
            .field("stalled_nodes", JsonValue::array(stalled))
            .field("stalled_nodes_omitted", omitted);
        doc.render()
    }
}

/// One shard's section of a flight dump: every counter of the snapshot
/// (`nodes` first), compact histogram summaries, and (when the recorder
/// is on) the ring's recent events oldest-first plus how many older ones
/// the ring dropped. Full bucket vectors would dwarf the rest of the dump
/// without aiding a stall diagnosis.
fn shard_json(
    shard: usize,
    snapshot: &ReactorSnapshot,
    events: Option<(Vec<TimedEvent>, u64)>,
) -> JsonValue {
    let head = JsonValue::object().field("shard", shard as u64).field("nodes", snapshot.nodes);
    let mut doc = json::scalar_fields(head, snapshot);
    for (name, field) in snapshot.fields() {
        if let Field::Histogram(histogram) = field {
            doc = doc.field(name, json::histogram_summary(JsonValue::object(), histogram));
        }
    }
    if let Some((events, dropped)) = events {
        doc = doc
            .field("events", JsonValue::array(events.iter().map(event_json).collect()))
            .field("events_dropped", dropped);
    }
    doc
}

/// One flight-recorder event row: stamp, stable name, the scheduler
/// variants' numeric payloads, and an offer's trigger (tick-paced or
/// self-clocked?). Other protocol-level events that end up in a ring
/// keep just their name and stamp — the recorder's story is the
/// scheduler's.
fn event_json(event: &TimedEvent) -> JsonValue {
    let mut doc =
        JsonValue::object().field("at_ms", millis(event.at)).field("event", event.event.name());
    match event.event {
        TraceEvent::OfferSent { trigger, .. } => doc = doc.field("trigger", trigger.label()),
        TraceEvent::ShardTick { shard, wheel_depth } => {
            doc = doc.field("shard", shard).field("wheel_depth", wheel_depth);
        }
        TraceEvent::TimerFired { shard, lag_us } => {
            doc = doc.field("shard", shard).field("lag_us", lag_us);
        }
        TraceEvent::Wakeup { shard, coalesced } => {
            doc = doc.field("shard", shard).field("coalesced", coalesced);
        }
        TraceEvent::StallDetected { shard, idle_ms } => {
            doc = doc.field("shard", shard).field("idle_ms", idle_ms);
        }
        _ => {}
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observer_routes_callbacks_into_the_right_shard() {
        let telemetry = SwarmTelemetry::new(2, Some(16));
        telemetry.set_node_counts(5);
        telemetry.poll_completed(1, Duration::from_micros(300), 2);
        telemetry.wakeups_drained(1, 3);
        telemetry.dispatched(1, Dispatch::Readable, Duration::from_nanos(500));
        telemetry.timer_lag(1, Duration::from_millis(20));
        telemetry.turn_completed(1, 7);
        // Out-of-range shards are ignored, not panicked on.
        telemetry.poll_completed(9, Duration::ZERO, 0);

        let snapshots = telemetry.snapshots();
        assert_eq!(snapshots[0].polls, 0);
        assert_eq!(snapshots[0].nodes, 3, "round-robin puts 3 of 5 nodes on shard 0");
        assert_eq!(snapshots[1].nodes, 2);
        assert_eq!(snapshots[1].polls, 1);
        assert_eq!(snapshots[1].wakeups, 3);
        assert_eq!(snapshots[1].readable_dispatches, 1);
        assert_eq!(snapshots[1].timers_fired, 0, "lag alone is not a dispatch");
        assert_eq!(snapshots[1].turns, 1);
        assert_eq!(snapshots[1].wheel_depth, 7);

        // The late timer and the first-turn heartbeat both hit the ring.
        let (events, dropped) = telemetry.shard_events(1).expect("flight ring exists");
        let names: Vec<&str> = events.iter().map(|e| e.event.name()).collect();
        assert!(names.contains(&"timer_fired"), "late timer must be recorded: {names:?}");
        assert!(names.contains(&"shard_tick"), "first turn emits a heartbeat: {names:?}");
        assert!(names.contains(&"wakeup"), "wakeup drains are recorded: {names:?}");
        assert_eq!(dropped, 0);
    }

    #[test]
    fn registry_rolls_up_wire_and_decoder_families() {
        let shareds = vec![Arc::new(Shared::default()), Arc::new(Shared::default())];
        // Node 1 decoded one generation and published a rank mirror.
        shareds[1].complete_generations.store(1, Ordering::Release);
        shareds[1].decoded_rank.store(4, Ordering::Relaxed);
        *shareds[1].decoder.lock().unwrap() = vec![4, 0];
        shareds[1].latency.record(2, 800);
        if let Ok(mut wire) = shareds[1].wire.lock() {
            wire.transfers_delivered = 8;
            wire.useful_deliveries = 4;
        }

        let telemetry = SwarmTelemetry::new(1, None);
        telemetry.poll_completed(0, Duration::from_micros(10), 1);
        let registry = swarm_registry(&shareds, 0, 2, &telemetry);
        let snapshot = registry.snapshot();

        assert_eq!(snapshot.value("decoder", "decoded_rank"), 4);
        assert_eq!(snapshot.value("decoder", "generations"), 2);
        assert_eq!(snapshot.value("decoder", "generations_complete"), 1);
        assert_eq!(snapshot.value("decoder", "innovative_ppm"), 500_000);
        assert_eq!(snapshot.value("wire", "transfers_delivered"), 8);
        assert_eq!(snapshot.value("reactor", "polls"), 1);

        let text = snapshot.to_prometheus();
        assert!(text.contains("ltnc_reactor_polls{shard=\"0\"} 1"), "missing shard label:\n{text}");
        assert!(text.contains("ltnc_decoder_rank{generation=\"0\"} 4"), "missing rank:\n{text}");
        assert!(
            text.contains("ltnc_wire_delivery_latency_us_bucket"),
            "missing merged latency histogram:\n{text}"
        );
    }

    #[test]
    fn decoder_family_scrape_lines_are_golden() {
        let shareds: Vec<Arc<Shared>> = (0..3).map(|_| Arc::new(Shared::default())).collect();
        shareds[1].complete.store(true, Ordering::Release);
        shareds[1].complete_generations.store(2, Ordering::Release);
        shareds[1].decoded_rank.store(16, Ordering::Relaxed);
        *shareds[1].decoder.lock().unwrap() = vec![8, 8];
        shareds[2].complete_generations.store(1, Ordering::Release);
        shareds[2].decoded_rank.store(11, Ordering::Relaxed);
        *shareds[2].decoder.lock().unwrap() = vec![8, 3];
        for (shared, delivered, useful) in [(&shareds[1], 20, 16), (&shareds[2], 25, 11)] {
            let mut wire = shared.wire.lock().unwrap();
            wire.transfers_delivered = delivered;
            wire.useful_deliveries = useful;
        }
        let page = decoder_samples(&shareds[1..], 2);
        let registry = MetricsRegistry::new();
        registry.register("decoder", &[], move || page.clone());
        let text = registry.snapshot().to_prometheus();
        assert_eq!(
            text,
            "# TYPE ltnc_decoder_nodes gauge\n\
             ltnc_decoder_nodes 2\n\
             # TYPE ltnc_decoder_nodes_complete counter\n\
             ltnc_decoder_nodes_complete 1\n\
             # TYPE ltnc_decoder_generations gauge\n\
             ltnc_decoder_generations 4\n\
             # TYPE ltnc_decoder_generations_complete counter\n\
             ltnc_decoder_generations_complete 3\n\
             # TYPE ltnc_decoder_decoded_rank counter\n\
             ltnc_decoder_decoded_rank 27\n\
             # TYPE ltnc_decoder_innovative_ppm gauge\n\
             ltnc_decoder_innovative_ppm 600000\n\
             # TYPE ltnc_decoder_rank counter\n\
             ltnc_decoder_rank{generation=\"0\"} 16\n\
             ltnc_decoder_rank{generation=\"1\"} 11\n"
        );
    }

    #[test]
    fn flight_dump_is_parseable_and_lists_stuck_nodes() {
        let telemetry = Arc::new(SwarmTelemetry::new(2, Some(8)));
        telemetry.turn_completed(0, 1);
        telemetry.note_stall(Duration::from_secs(12));
        let completion = vec![Arc::new(Shared::default()), Arc::new(Shared::default())];
        completion[1].decoded_rank.store(9, Ordering::Relaxed);
        let state = FlightState {
            started: Instant::now(),
            telemetry,
            completion,
            source: 0,
            stall_window: Duration::from_secs(10),
        };

        let dump = state.dump("stall", Some(Duration::from_secs(12)));
        let doc = JsonValue::parse(&dump).expect("dump parses");
        assert_eq!(doc.get("kind").and_then(JsonValue::as_str), Some("flight_recorder"));
        assert_eq!(doc.get("reason").and_then(JsonValue::as_str), Some("stall"));
        assert_eq!(doc.get("idle_ms").and_then(JsonValue::as_i64), Some(12_000));
        assert_eq!(doc.get("stalled_at_ms").and_then(JsonValue::as_i64), Some(0));
        let shards = doc.get("shards").and_then(JsonValue::as_array).expect("shards");
        assert_eq!(shards.len(), 2);
        let events = shards[0].get("events").and_then(JsonValue::as_array).expect("events");
        assert!(
            events
                .iter()
                .any(|e| e.get("event").and_then(JsonValue::as_str) == Some("stall_detected")),
            "stall mark missing from ring: {dump}"
        );
        let stuck = doc.get("stalled_nodes").and_then(JsonValue::as_array).expect("nodes");
        assert_eq!(stuck.len(), 1, "the one incomplete receiver is listed");
        assert_eq!(stuck[0].get("decoded_rank").and_then(JsonValue::as_i64), Some(9));
    }

    #[test]
    fn an_offer_row_names_the_clock_that_released_it() {
        let event = TraceEvent::OfferSent {
            peer: "127.0.0.1:9".parse().expect("addr"),
            generation: 0,
            trigger: ltnc_telemetry::OfferTrigger::Feedback,
        };
        let row = event_json(&TimedEvent { at: Duration::from_millis(3), event });
        assert_eq!(row.get("event").and_then(JsonValue::as_str), Some("offer_sent"));
        assert_eq!(row.get("trigger").and_then(JsonValue::as_str), Some("feedback"));
    }
}
