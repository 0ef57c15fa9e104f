//! The benchmark's vocabulary: workload names, metric names, units,
//! directions and bounds. `BENCHMARK.json` at the repository root says
//! the same thing to the driver; a test keeps the two equal.

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload and why it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Final name.
    pub name: &'static str,
    /// One line on what it isolates.
    pub why: &'static str,
    /// Untimed operations at the end of every set-up, so that caches are
    /// full and lazy set-up has finished before anything is timed. They
    /// are counted in `setup_s`; where one operation is short and its
    /// time bimodal (the line's pending-TTL round trips), several keep
    /// `setup_s` from inheriting the coin flip.
    pub warmup_ops: u64,
}

/// The five workloads, in report order.
pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "chain_ltnc_k2048",
        why: "paper scale (k=2048, m=1KiB) source-relay-sink in memory under LTNC: the coding plane \
              and envelope codec do all the work; peer, reactor, faults and serve do none",
        warmup_ops: 1,
    },
    WorkloadSpec {
        name: "chain_rlnc_k2048",
        why: "same chain and bytes under RLNC: Gaussian elimination instead of BP and refinement, so \
              a gf2 gain moves both chains and a core/lt gain moves only the LTNC one",
        warmup_ops: 1,
    },
    WorkloadSpec {
        name: "line5_clean_16k",
        why: "clean 4-hop UDP line, k=32: timer-bound with the CPU idle (tick, gate, TTL, feedback \
              round trips), so coding optimisations must show no change here",
        warmup_ops: 8,
    },
    WorkloadSpec {
        name: "kreg200_loss5_16k",
        why: "200-node 4-regular UDP overlay with 5% link loss on 2 reactor workers: CPU-saturated, \
              per-datagram cost in peer, envelope, faults and reactor sets completion time",
        warmup_ops: 1,
    },
    WorkloadSpec {
        name: "fetch_striped2_4m",
        why: "4 MiB striped over TCP from 2 warm replicas: thread pool, blocking I/O, warm symbol \
              rings, stream reframing, leases; bypasses peer, reactor and topo entirely",
        warmup_ops: 8,
    },
];

/// One metric a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the reference value by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics every workload reports (`--trace 0`).
///
/// The issue's sixth, `fail_ratio`, is 0 on every healthy run and a
/// metric that is always 0 has no relative bound: failures are the
/// result line's `attempted`/`failed` (and `harness.fail_ratio`).
///
/// The bounds are three times the widest spread (quartile distance over
/// median, ten runs with ten seeds) any workload showed on the shared
/// 2-core reference box, capped at a quarter: the box itself drifts by
/// ±10 % over minutes, which no run length inside the time cap averages
/// away. `README.md` has the spreads per workload.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "goodput_MBps", unit: "MB/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "op_time_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "wire_overhead", unit: "ratio", better: Better::Lower, bound: 0.20 },
    EndToEnd { name: "peak_rss_MB", unit: "MB", better: Better::Lower, bound: 0.15 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

/// The bound `check` applies to `metric` on `workload`: the chains'
/// wire overhead repeats exactly for a seed, so it is held tighter there.
#[must_use]
pub fn bound(metric: &EndToEnd, workload: &str) -> f64 {
    if metric.name == "wire_overhead" && workload.starts_with("chain_") {
        0.02
    } else {
        metric.bound
    }
}

/// `setup_s` may also worsen by this much in absolute terms: a quarter
/// of a short set-up is within scheduling noise.
pub const SETUP_SLACK_S: f64 = 0.050;

/// One metric of a single layer.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name; the prefix is the layer (module) it measures.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit, better: Better::Higher }
}

/// The per-layer metrics of the traced run (`--trace 1`), in report
/// order. A metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: [Layer; 106] = [
    lower("chain.encode_busy_s", "s"),
    lower("chain.encode_us", "us"),
    lower("chain.recode_busy_s", "s"),
    lower("chain.recode_us", "us"),
    lower("chain.relay_accept_busy_s", "s"),
    lower("chain.sink_accept_busy_s", "s"),
    lower("chain.relay_deliver_busy_s", "s"),
    lower("chain.relay_deliver_us", "us"),
    lower("chain.sink_deliver_busy_s", "s"),
    lower("chain.sink_deliver_us", "us"),
    lower("chain.wire_encode_busy_s", "s"),
    lower("chain.wire_decode_busy_s", "s"),
    lower("chain.reassemble_busy_s", "s"),
    lower("chain.src_symbols_per_k", "ratio"),
    lower("chain.relay_symbols_per_k", "ratio"),
    lower("chain.abort_ratio", "ratio"),
    higher("chain.relay_useful_ratio", "ratio"),
    higher("chain.sink_useful_ratio", "ratio"),
    lower("chain.sink_fallback_ratio", "ratio"),
    lower("chain.decode.payload_xor", "count"),
    lower("chain.decode.vector_xor", "count"),
    lower("chain.decode.row_reduction", "count"),
    lower("chain.decode.tanner_edge_update", "count"),
    lower("chain.decode.index_update", "count"),
    lower("chain.decode.degree_draw", "count"),
    lower("chain.decode.build_candidate", "count"),
    lower("chain.decode.refine_step", "count"),
    lower("chain.decode.redundancy_check", "count"),
    lower("chain.recode.payload_xor", "count"),
    lower("chain.recode.vector_xor", "count"),
    lower("chain.recode.row_reduction", "count"),
    lower("chain.recode.tanner_edge_update", "count"),
    lower("chain.recode.index_update", "count"),
    lower("chain.recode.degree_draw", "count"),
    lower("chain.recode.build_candidate", "count"),
    lower("chain.recode.refine_step", "count"),
    lower("chain.recode.redundancy_check", "count"),
    higher("chain.ledger_coverage", "ratio"),
    higher("gf2.xor_many_GBps", "GB/s"),
    lower("gf2.solver_insert_ns", "ns"),
    lower("gf2.wire_encode_ns", "ns"),
    lower("gf2.wire_decode_view_ns", "ns"),
    lower("lt.bp_insert_ns", "ns"),
    lower("lt.encode_ns", "ns"),
    lower("envelope.encode_m256_ns", "ns"),
    lower("envelope.decode_view_m256_ns", "ns"),
    lower("envelope.encode_m512_ns", "ns"),
    lower("envelope.decode_view_m512_ns", "ns"),
    lower("envelope.encode_m1024_ns", "ns"),
    lower("envelope.decode_view_m1024_ns", "ns"),
    lower("stream.reframe_ns", "ns"),
    lower("net.datagrams_per_op", "count"),
    lower("net.bytes_per_op", "count"),
    lower("net.offers_per_op", "count"),
    lower("net.abort_ratio", "ratio"),
    higher("net.useful_ratio", "ratio"),
    lower("net.offer_timeouts_per_op", "count"),
    lower("net.budget_cuts_per_op", "count"),
    lower("net.inbound_dropped_per_op", "count"),
    lower("net.decode_errors_per_op", "count"),
    lower("net.cpu_us_per_datagram", "us"),
    lower("net.hop1_latency_p50_us", "us"),
    lower("topo.converge_s", "s"),
    lower("topo.setup_teardown_s", "s"),
    lower("topo.front_s", "s"),
    lower("topo.fill_s", "s"),
    lower("topo.relay_recoding_ops_per_op", "count"),
    lower("reactor.polls_per_op", "count"),
    lower("reactor.readable_dispatches_per_op", "count"),
    lower("reactor.timers_fired_per_op", "count"),
    higher("reactor.poll_wait_p50_us", "us"),
    lower("reactor.dispatch_p50_ns", "ns"),
    lower("reactor.dispatch_p99_ns", "ns"),
    lower("reactor.tick_lag_p50_us", "us"),
    lower("reactor.tick_lag_p99_us", "us"),
    lower("reactor.busy_ratio", "ratio"),
    lower("reactor.timer_wheel_ns", "ns"),
    lower("faults.dropped_per_op", "count"),
    lower("serve.spawn_ms", "ms"),
    lower("serve.register_ms", "ms"),
    lower("serve.warm_fetch_ms", "ms"),
    lower("serve.symbol_latency_p50_us", "us"),
    lower("serve.symbol_latency_p99_us", "us"),
    higher("serve.cache_hit_ratio", "ratio"),
    lower("serve.duplicate_ratio", "ratio"),
    lower("serve.abort_ratio", "ratio"),
    lower("serve.stripe_imbalance", "ratio"),
    lower("serve.store_hit_ns", "ns"),
    lower("serve.store_miss_us", "us"),
    lower("session.shared_deliver_ns", "ns"),
    lower("session.split_ms", "ms"),
    lower("session.reassemble_ms", "ms"),
    lower("metrics.loghist_record_ns", "ns"),
    lower("proc.cpu_s_per_MB", "s/MB"),
    lower("proc.user_s", "s"),
    lower("proc.sys_s", "s"),
    lower("proc.vol_ctx_switches", "count"),
    higher("harness.ops", "count"),
    lower("harness.op_p50_s", "s"),
    lower("harness.op_iqr_s", "s"),
    lower("harness.op_tail_s", "s"),
    higher("harness.op_tail_percentile", "%"),
    higher("harness.goodput_mean_MBps", "MB/s"),
    lower("harness.fail_ratio", "ratio"),
    lower("trace.overhead_ratio", "ratio"),
    lower("trace.spans", "count"),
];

/// The unit of a metric of either kind.
#[must_use]
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|&(known, _)| known == name)
        .map(|(_, unit)| unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes().all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn every_name_and_unit_fits_the_contract_and_is_used_once() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(is_name(name), "bad name {name:?}");
        }
        let distinct: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(distinct.len(), names.len(), "a name is used twice");
        for unit in END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit)) {
            assert!(is_unit(unit), "bad unit {unit:?}");
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn whys_are_one_line_within_the_limit_and_bounds_within_a_quarter() {
        for workload in WORKLOADS {
            assert!(workload.why.len() <= 200, "{}: {} chars", workload.name, workload.why.len());
            assert!(!workload.why.contains('\n'));
        }
        for metric in END_TO_END {
            assert!(metric.bound > 0.0 && metric.bound <= 0.25);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
    }
}
