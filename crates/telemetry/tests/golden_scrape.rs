//! Pins the whole scrape page. Every counter family is registered at
//! distinct non-zero values and the full `to_prometheus()` and
//! `to_json()` text is compared byte for byte, so a field that is
//! dropped, renamed, reordered, mistyped or sampled from the wrong
//! struct member fails here.

use ltnc_metrics::{
    HopCounters, HopLatency, HopStats, LogHistogram, LogHistogramSnapshot, ReactorSnapshot,
    ReplicaCounters, ServeCounters, StripeCounters, WireCounters,
};
use ltnc_telemetry::{
    histograms, hop_latency_histograms, hop_samples, samples, stripe_samples, MetricsRegistry,
};

fn histogram(values: &[u64]) -> LogHistogramSnapshot {
    let histogram = LogHistogram::new();
    for &value in values {
        histogram.record(value);
    }
    histogram.snapshot()
}

fn wire() -> WireCounters {
    WireCounters {
        datagrams_sent: 101,
        datagrams_received: 102,
        bytes_sent: 103,
        bytes_received: 104,
        payload_bytes_sent: 105,
        transfers_offered: 106,
        transfers_aborted: 107,
        transfers_delivered: 108,
        useful_deliveries: 109,
        decode_errors: 110,
        session_mismatches: 111,
        inbound_dropped: 112,
        offer_timeouts: 113,
        budget_raises: 114,
        budget_cuts: 115,
        unsolicited_payloads: 116,
        accepts_evicted: 117,
    }
}

fn serve() -> ServeCounters {
    ServeCounters {
        sessions_accepted: 201,
        sessions_rejected: 202,
        sessions_completed: 203,
        bytes_out: 204,
        bytes_in: 205,
        transfers_offered: 206,
        transfers_aborted: 207,
        transfers_delivered: 208,
        cache_hits: 209,
        cache_misses: 210,
        cache_evictions: 211,
    }
}

fn replica(base: u64, failed: bool) -> ReplicaCounters {
    ReplicaCounters {
        offers_seen: base + 1,
        aborted: base + 2,
        delivered: base + 3,
        useful: base + 4,
        duplicates: base + 5,
        generations_completed: base + 6,
        bytes_in: base + 7,
        bytes_out: base + 8,
        failed,
    }
}

fn stripe() -> StripeCounters {
    StripeCounters {
        replicas: vec![replica(310, false), replica(320, true)],
        failovers: 301,
        generations_releases: 302,
    }
}

fn hop_stats(base: u64) -> HopStats {
    HopStats {
        nodes: base + 1,
        completed: base + 2,
        recoding_ops: base + 3,
        decoding_ops: base + 4,
        useful_deliveries: base + 5,
        faults_injected: base + 6,
    }
}

fn hops() -> HopCounters {
    let mut hops = HopCounters::default();
    hops.record(1, &hop_stats(400));
    hops.record(2, &hop_stats(410));
    hops
}

fn reactor() -> ReactorSnapshot {
    ReactorSnapshot {
        turns: 501,
        polls: 502,
        poll_events: 503,
        readable_dispatches: 508,
        timer_dispatches: 509,
        timers_fired: 511,
        wheel_depth: 512,
        nodes: 513,
        poll_wait_us: histogram(&[5, 120, 121]),
        dispatch_ns: histogram(&[40, 850, 1_900, 70_000]),
        tick_lag_us: histogram(&[0, 33]),
    }
}

fn registry() -> MetricsRegistry {
    let registry = MetricsRegistry::new();
    let node = [("node", "n0".to_string())];
    registry.register("wire", &node, || samples(&wire()));
    let latency = HopLatency::new();
    latency.record(1, 700);
    latency.record(3, 9_000);
    registry.register_histograms("wire", &node, move || hop_latency_histograms(&latency));
    registry.register("serve", &[("server", "s0".to_string())], || samples(&serve()));
    registry.register("stripe", &[("fetch", "f0".to_string())], || stripe_samples(&stripe()));
    registry.register("hop", &[], || hop_samples(&hops()));
    let shard = [("shard", "0".to_string())];
    registry.register("reactor", &shard, || samples(&reactor()));
    registry.register_histograms("reactor", &shard, || histograms(&reactor()));
    registry
}

const PROMETHEUS: &str = include_str!("golden/scrape.prom");

const JSON: &str = include_str!("golden/scrape.json");

#[test]
fn prometheus_page_is_golden() {
    let page = registry().snapshot().to_prometheus();
    assert_eq!(page, PROMETHEUS, "scrape page drifted:\n{page}");
}

#[test]
fn json_page_is_golden() {
    let page = registry().snapshot().to_json();
    assert_eq!(page, JSON, "JSON page drifted:\n{page}");
}
