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
//!   rolled-up `wire` family summed across every node, the per-link
//!   delivery latency merged across nodes, and a `decoder` progress family
//!   (per-generation aggregate rank, innovative ratio);
//! * [`FlightState`] renders the post-mortem document: recent scheduler
//!   events, per-shard counter snapshots and the stuck nodes' decoder
//!   state by topology index, cut on stall detection, shutdown timeout,
//!   or on demand via the endpoint's `/flight` route;
//! * [`Watchdog`] is the one stall decision both drivers make, on the
//!   swarm's clock (µs since the run began), which it is handed.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ltnc_metrics::{
    CounterFamily, Field, LogHistogramSnapshot, ReactorCounters, ReactorSnapshot, WireCounters,
};
use ltnc_reactor::{Dispatch, ShardObserver};
use ltnc_telemetry::json::{self, JsonValue, REPORT_SCHEMA_VERSION};
use ltnc_telemetry::{
    histograms, samples, HistogramSample, MetricsRegistry, RingSink, Sample, TimedEvent, TraceEvent,
};

use crate::peer::{micros, Shared};
use crate::swarm::FlightRecorder;

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
}

/// The sharded swarm's [`ShardObserver`]: routes every scheduler
/// callback into the per-shard [`ReactorCounters`] and, when the flight
/// recorder is on, stamps the noteworthy ones (late timers, sampled
/// heartbeats) into the shard's bounded event ring.
pub(crate) struct SwarmTelemetry {
    /// When the run began: ring stamps count from here.
    anchor: Instant,
    shards: Vec<ShardState>,
}

impl SwarmTelemetry {
    /// Instrumentation for `nodes` nodes on `workers` shards (node `g`
    /// on shard `g % workers`), on the swarm's clock started at `anchor`;
    /// `capacity` sizes the per-shard flight rings (`None`: counters only).
    pub(crate) fn new(
        workers: usize,
        nodes: usize,
        capacity: Option<usize>,
        anchor: Instant,
    ) -> SwarmTelemetry {
        let workers = workers.max(1);
        let shards = (0..workers)
            .map(|shard| {
                let counters = ReactorCounters::new();
                counters.set_nodes(((nodes + workers - 1 - shard) / workers) as u64);
                let ring = capacity.map(|capacity| Arc::new(RingSink::new(capacity)));
                ShardState { counters: Arc::new(counters), ring }
            })
            .collect();
        SwarmTelemetry { anchor, shards }
    }

    /// Records `make`'s event into `state`'s ring, stamped now — the
    /// clock read only when the recorder is on.
    fn record(&self, state: &ShardState, make: impl FnOnce() -> TraceEvent) {
        if let Some(ring) = &state.ring {
            ring.record(micros(self.anchor.elapsed()), make());
        }
    }

    /// Shared handles onto every shard's counters (for registry
    /// collectors and report rollups).
    pub(crate) fn shard_counters(&self) -> Vec<Arc<ReactorCounters>> {
        self.shards.iter().map(|state| Arc::clone(&state.counters)).collect()
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

    /// Stamps a `stall_detected` event, at `now`, into every shard's
    /// flight ring — the watchdog's mark, placed just before the dump is
    /// cut so the dump itself contains it.
    fn note_stall(&self, now: u64, idle: Duration) {
        let idle_ms = millis(idle);
        for (shard, state) in self.shards.iter().enumerate() {
            if let Some(ring) = &state.ring {
                ring.record(now, TraceEvent::StallDetected { shard: shard as u64, idle_ms });
            }
        }
    }
}

impl ShardObserver for SwarmTelemetry {
    fn poll_completed(&self, shard: usize, waited: Duration, events: usize) {
        if let Some(state) = self.shards.get(shard) {
            state.counters.record_poll(micros(waited), events as u64);
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
        let lag_us = micros(lag);
        state.counters.record_timer_lag(lag_us);
        if lag >= LATE_TIMER_LAG {
            self.record(state, || TraceEvent::TimerFired { shard: shard as u64, lag_us });
        }
    }

    fn turn_completed(&self, shard: usize, timers_pending: usize) {
        let Some(state) = self.shards.get(shard) else { return };
        state.counters.record_turn(timers_pending as u64);
        let turns = state.counters.turns.load(Ordering::Relaxed);
        if turns % TICK_SAMPLE_EVERY == 1 {
            self.record(state, || TraceEvent::ShardTick {
                shard: shard as u64,
                wheel_depth: timers_pending as u64,
            });
        }
    }
}

/// Builds the swarm-wide aggregated registry behind the one
/// [`crate::TopologyConfig::metrics_bind`] endpoint: a rolled-up `wire`
/// family (counters summed across every node, per-link delivery latency
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
        let mut latency = LogHistogramSnapshot::empty();
        for shared in &shareds {
            latency.merge(&shared.latency.snapshot());
        }
        if latency.is_empty() {
            return Vec::new();
        }
        vec![HistogramSample::plain("delivery_latency_us", latency)]
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

/// Everything the flight recorder needs to cut a post-mortem: its
/// configuration, the reactor's per-shard instrumentation (`None` in
/// virtual time) and every node's shared state, by topology index.
/// Cheap to clone (all `Arc`s) and safe to dump from any thread.
#[derive(Clone)]
pub(crate) struct FlightState {
    pub(crate) recorder: FlightRecorder,
    pub(crate) telemetry: Option<Arc<SwarmTelemetry>>,
    pub(crate) completion: Vec<Arc<Shared>>,
    /// Topology index of the source, which decodes nothing.
    pub(crate) source: usize,
}

impl FlightState {
    /// Renders the schema-stable post-mortem document, cut at `now`.
    /// `reason` is `"stall"`, `"shutdown_timeout"` or `"demand"`; `idle`
    /// carries the watchdog's no-progress span when that is what
    /// triggered the cut, and the dump then names when the stall began
    /// (`stalled_at_ms`, run time at the last decoding progress) beside
    /// the stuck nodes. Without a reactor there are no shards.
    pub(crate) fn dump(&self, now: u64, reason: &str, idle: Option<Duration>) -> String {
        let at = Duration::from_micros(now);
        let telemetry = self.telemetry.as_deref();
        let snapshots = telemetry.map(SwarmTelemetry::snapshots).unwrap_or_default();
        let workers = snapshots.len();
        let mut doc = JsonValue::object()
            .field("schema_version", REPORT_SCHEMA_VERSION)
            .field("kind", "flight_recorder")
            .field("reason", reason)
            .field("at_ms", millis(at))
            .field("workers", workers as u64)
            .field("stall_window_ms", millis(self.recorder.stall_window));
        if let Some(idle) = idle {
            doc = doc.field("idle_ms", millis(idle));
        }
        let shards = snapshots.iter().enumerate().map(|(shard, snapshot)| {
            shard_json(shard, snapshot, telemetry.and_then(|t| t.shard_events(shard)))
        });
        doc = doc.field("shards", JsonValue::array(shards.collect()));

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
            let mut node = JsonValue::object().field("node", index as u64);
            if workers > 0 {
                node = node.field("shard", (index % workers) as u64);
            }
            let generations = shared.complete_generations.load(Ordering::Acquire) as u64;
            stalled.push(
                node.field("complete_generations", generations)
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

/// The one stall decision, on both drivers: fed the swarm's decoding
/// progress ([`Shared::progress`], summed) at `now`, it cuts a stall dump
/// once progress has not moved for a whole stall window, once per
/// episode; an unconverged run without one ends on a timeout dump.
pub(crate) struct Watchdog {
    pub(crate) state: FlightState,
    progress: u64,
    /// Since when `progress` is flat; `None` once this stall is cut.
    flat_since: Option<u64>,
    /// The latest dump cut.
    dump: Option<String>,
}

impl Watchdog {
    /// A watchdog over `state`, armed at the run's start.
    pub(crate) fn new(state: FlightState) -> Watchdog {
        let progress = state.completion.iter().map(|shared| shared.progress()).sum();
        Watchdog { state, progress, flat_since: Some(0), dump: None }
    }

    /// The swarm's decoding progress was `progress` at `now`.
    pub(crate) fn observe(&mut self, now: u64, progress: u64) {
        if progress != self.progress {
            (self.progress, self.flat_since) = (progress, Some(now));
        } else if let Some(since) = self.flat_since {
            let idle = Duration::from_micros(now - since);
            if idle >= self.state.recorder.stall_window {
                self.flat_since = None;
                if let Some(telemetry) = &self.state.telemetry {
                    telemetry.note_stall(now, idle);
                }
                self.cut(now, "stall", Some(idle));
            }
        }
    }

    /// The run's post-mortem, the run having ended at `now`.
    pub(crate) fn finish(mut self, now: u64, converged: bool) -> Option<String> {
        if self.dump.is_none() && !converged {
            self.cut(now, "shutdown_timeout", None);
        }
        self.dump
    }

    /// Cuts a dump at `now`, also written to `dump_path` (best effort).
    fn cut(&mut self, now: u64, reason: &str, idle: Option<Duration>) {
        let dump = self.state.dump(now, reason, idle);
        if let Some(path) = &self.state.recorder.dump_path {
            let _ = std::fs::write(path, &dump);
        }
        self.dump = Some(dump);
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
        let telemetry = SwarmTelemetry::new(2, 5, Some(16), Instant::now());
        telemetry.poll_completed(1, Duration::from_micros(300), 2);
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
        assert_eq!(snapshots[1].readable_dispatches, 1);
        assert_eq!(snapshots[1].timers_fired, 0, "lag alone is not a dispatch");
        assert_eq!(snapshots[1].turns, 1);
        assert_eq!(snapshots[1].wheel_depth, 7);

        // The late timer and the first-turn heartbeat both hit the ring.
        let (events, dropped) = telemetry.shard_events(1).expect("flight ring exists");
        let names: Vec<&str> = events.iter().map(|e| e.event.name()).collect();
        assert!(names.contains(&"timer_fired"), "late timer must be recorded: {names:?}");
        assert!(names.contains(&"shard_tick"), "first turn emits a heartbeat: {names:?}");
        assert_eq!(dropped, 0);
    }

    #[test]
    fn registry_rolls_up_wire_and_decoder_families() {
        let shareds = vec![Arc::new(Shared::default()), Arc::new(Shared::default())];
        // Node 1 decoded one generation and published a rank mirror.
        shareds[1].complete_generations.store(1, Ordering::Release);
        shareds[1].decoded_rank.store(4, Ordering::Relaxed);
        *shareds[1].decoder.lock().unwrap() = vec![4, 0];
        shareds[1].latency.record(800);
        if let Ok(mut wire) = shareds[1].wire.lock() {
            wire.transfers_delivered = 8;
            wire.useful_deliveries = 4;
        }

        let telemetry = SwarmTelemetry::new(1, 2, None, Instant::now());
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

    /// A watchdog over a source and one receiver with rank 9, on two
    /// shards (or none), with a 10 s stall window.
    fn armed(telemetry: Option<Arc<SwarmTelemetry>>) -> Watchdog {
        let completion = vec![Arc::new(Shared::default()), Arc::new(Shared::default())];
        completion[1].decoded_rank.store(9, Ordering::Relaxed);
        let stall_window = Duration::from_secs(10);
        let recorder = FlightRecorder { stall_window, dump_path: None };
        Watchdog::new(FlightState { recorder, telemetry, completion, source: 0 })
    }

    #[test]
    fn flight_dump_is_parseable_and_lists_stuck_nodes() {
        let telemetry = Arc::new(SwarmTelemetry::new(2, 2, Some(8), Instant::now()));
        telemetry.turn_completed(0, 1);
        let mut watchdog = armed(Some(telemetry));
        watchdog.observe(12_000_000, 9);
        let dump = watchdog.finish(12_500_000, false).expect("a stall dump");

        let doc = JsonValue::parse(&dump).expect("dump parses");
        assert_eq!(doc.get("kind").and_then(JsonValue::as_str), Some("flight_recorder"));
        assert_eq!(doc.get("reason").and_then(JsonValue::as_str), Some("stall"));
        assert_eq!(doc.get("at_ms").and_then(JsonValue::as_i64), Some(12_000));
        assert_eq!(doc.get("idle_ms").and_then(JsonValue::as_i64), Some(12_000));
        assert_eq!(doc.get("stalled_at_ms").and_then(JsonValue::as_i64), Some(0));
        let shards = doc.get("shards").and_then(JsonValue::as_array).expect("shards");
        assert_eq!(shards.len(), 2);
        let events = shards[0].get("events").and_then(JsonValue::as_array).expect("events");
        let stall = events
            .iter()
            .find(|e| e.get("event").and_then(JsonValue::as_str) == Some("stall_detected"))
            .unwrap_or_else(|| panic!("stall mark missing from ring: {dump}"));
        assert_eq!(stall.get("at_ms").and_then(JsonValue::as_i64), Some(12_000), "{dump}");
        let stuck = doc.get("stalled_nodes").and_then(JsonValue::as_array).expect("nodes");
        assert_eq!(stuck.len(), 1, "the one incomplete receiver is listed");
        assert_eq!(stuck[0].get("decoded_rank").and_then(JsonValue::as_i64), Some(9));
        assert_eq!(stuck[0].get("shard").and_then(JsonValue::as_i64), Some(1));
    }

    #[test]
    fn the_watchdog_cuts_once_per_stall_episode_and_a_stall_outlives_the_timeout() {
        let second = Duration::from_secs(1).as_micros() as u64;
        let mut watchdog = armed(None);
        watchdog.observe(3 * second, 10);
        watchdog.observe(12 * second, 10);
        assert!(watchdog.dump.is_none(), "9 s of a 10 s window is no stall");
        watchdog.observe(13 * second, 10);
        let first = watchdog.dump.clone().expect("stalled after a whole window");
        watchdog.observe(20 * second, 10);
        assert_eq!(watchdog.dump.as_ref(), Some(&first), "one dump per episode");
        watchdog.observe(21 * second, 11);
        watchdog.observe(31 * second, 11);
        let dump = watchdog.finish(40 * second, false).expect("the second stall's dump");
        let doc = JsonValue::parse(&dump).expect("dump parses");
        let field = |name: &str| doc.get(name).and_then(JsonValue::as_i64);
        assert_eq!(doc.get("reason").and_then(JsonValue::as_str), Some("stall"));
        assert_eq!((field("stalled_at_ms"), field("at_ms")), (Some(21_000), Some(31_000)));
        assert_eq!((field("workers"), field("idle_ms")), (Some(0), Some(10_000)));
        assert_eq!(doc.get("shards").and_then(JsonValue::as_array).map(|s| s.len()), Some(0));

        let timeout = armed(None).finish(4 * second, false).expect("a timeout dump");
        let doc = JsonValue::parse(&timeout).expect("dump parses");
        assert_eq!(doc.get("reason").and_then(JsonValue::as_str), Some("shutdown_timeout"));
        assert_eq!(doc.get("at_ms").and_then(JsonValue::as_i64), Some(4_000));
        assert!(armed(None).finish(4 * second, true).is_none(), "a converged run cuts none");
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
