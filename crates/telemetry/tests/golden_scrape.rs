//! Pins the whole scrape page. Every scraped family is registered at
//! distinct non-zero values and the full `to_prometheus()` and
//! `to_json()` text is compared byte for byte, so a field that is
//! dropped, renamed, reordered, mistyped or sampled from the wrong
//! struct member fails here.

use ltnc_metrics::{
    LogHistogram, LogHistogramSnapshot, ReactorSnapshot, ServeCounters, WireCounters,
};
use ltnc_telemetry::{histograms, samples, HistogramSample, MetricsRegistry};

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
        accept_ledgers_evicted: 118,
        summaries_sent: 119,
        smart_offers: 120,
        smart_aborts: 121,
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
        smart_offers: 212,
        cache_hits: 209,
        cache_misses: 210,
        cache_evictions: 211,
    }
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
    registry.register_histograms("wire", &node, || {
        vec![HistogramSample::plain("delivery_latency_us", histogram(&[700, 9_000]))]
    });
    registry.register("serve", &[("server", "s0".to_string())], || samples(&serve()));
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
