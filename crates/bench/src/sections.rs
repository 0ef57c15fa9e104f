//! The sections of `experiments`, one function each, writing what the
//! section prints into `out`.

use std::fmt::{self, Write};

use ltnc_core::{LtncConfig, LtncNode, RecodeStats};
use ltnc_gf2::{EncodedPacket, Payload};
use ltnc_lt::{DegreeDistribution, RobustSoliton};
use ltnc_metrics::{CostModel, OpCounters, Summary, TimeSeries};
use ltnc_rlnc::{sparsity_for, RlncNode};
use ltnc_scheme::SchemeKind;
use ltnc_topo::run_topology_virtual;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{
    code_length_sweep, completion_ticks, convergence, cost_code_length_sweep, epidemic, fmt_f,
    mean, overhead_percent, print_series, print_table, HarnessOptions,
};

/// `k` random native payloads of `m` bytes, drawn from `rng`.
fn natives(k: usize, m: usize, rng: &mut SmallRng) -> Vec<Payload> {
    (0..k)
        .map(|_| {
            let mut bytes = vec![0u8; m];
            rng.fill(&mut bytes[..]);
            Payload::from_vec(bytes)
        })
        .collect()
}

/// Figure 2: the Robust Soliton pmf for the paper's reference code length,
/// as a table over the low degrees (where most of the mass sits) and as a
/// log-log plottable series over every degree, plus the aggregate properties
/// the paper relies on: the mass on degrees ≤ 2, the spike position `k/R`
/// and the mean degree (`O(log k)`).
pub(crate) fn fig2(options: &HarnessOptions, out: &mut String) -> fmt::Result {
    let k = if options.full { 2048 } else { 1000 };
    let dist = RobustSoliton::for_code_length(k).expect("valid parameters");
    options.mode(out, format_args!("k = {k}, c = {}, delta = {}", dist.c(), dist.delta()))?;

    let rows: Vec<Vec<String>> =
        (1..=16).map(|d| vec![d.to_string(), format!("{:.6e}", dist.pmf(d))]).collect();
    print_table(out, "Robust Soliton pmf (low degrees)", &["degree", "probability"], &rows)?;

    let summary_rows = vec![
        vec!["mass on degrees 1-2".to_string(), fmt_f(dist.low_degree_mass(), 4)],
        vec!["mass on degrees 1-3".to_string(), fmt_f(dist.low_degree_mass() + dist.pmf(3), 4)],
        vec!["spike degree (k/R)".to_string(), dist.spike_degree().to_string()],
        vec!["spike probability".to_string(), format!("{:.6e}", dist.pmf(dist.spike_degree()))],
        vec!["mean degree".to_string(), fmt_f(dist.mean_degree(), 3)],
        vec!["ln k".to_string(), fmt_f((k as f64).ln(), 3)],
        vec!["beta (overhead factor)".to_string(), fmt_f(dist.beta(), 4)],
    ];
    print_table(out, "Aggregate properties", &["quantity", "value"], &summary_rows)?;

    let mut series = TimeSeries::new(format!("robust_soliton_k{k}"));
    for d in 1..=k {
        let p = dist.pmf(d);
        if p > 0.0 {
            series.push(d as f64, p);
        }
    }
    print_series(out, "Figure 2 data (degree vs probability, log-log)", &[&series])
}

/// Figure 7a: the share of nodes that decoded the whole content against
/// time in gossip ticks, WC, LTNC and RLNC on 16-peer views (paper:
/// N = 1000, k = 2048 packets of 256 KB). Expected shape (paper): RLNC
/// converges first, LTNC ≈ 30 % later, WC clearly last.
pub(crate) fn fig7a(options: &HarnessOptions, out: &mut String) -> fmt::Result {
    let (peers, k, payload) = if options.full { (1000, 2048, 64) } else { (100, 64, 8) };
    let runs = options.runs;
    options.mode(out, format_args!("runs: {runs} | N = {peers}, k = {k}, payload: {payload} B"))?;

    let mut curves: Vec<TimeSeries> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for scheme in SchemeKind::ALL {
        // The convergence curve is reported for a single representative run
        // (as in the paper); completion statistics are averaged over runs.
        let mut avg_completion = 0.0;
        let mut representative: Option<TimeSeries> = None;
        for run in 0..runs {
            let config = epidemic(scheme, peers, k, payload, options.seed + run as u64);
            let ticks = completion_ticks(&config, &run_topology_virtual(&config));
            avg_completion += mean(&ticks);
            if run == 0 {
                representative = Some(convergence(scheme.label(), &ticks));
            }
        }
        avg_completion /= runs as f64;
        let curve = representative.expect("at least one run");
        rows.push(vec![
            scheme.label().to_string(),
            fmt_f(avg_completion, 1),
            fmt_f(curve.first_x_reaching(50.0).unwrap_or(f64::NAN), 1),
            fmt_f(curve.first_x_reaching(100.0).unwrap_or(f64::NAN), 1),
        ]);
        curves.push(curve);
    }

    print_table(
        out,
        "Completion summary (gossip ticks)",
        &["scheme", "avg time to complete", "50% of nodes", "100% of nodes"],
        &rows,
    )?;
    let refs: Vec<&TimeSeries> = curves.iter().collect();
    print_series(out, "Figure 7a data (ticks vs % complete)", &refs)
}

/// Figures 7b and 7c from one sweep over the code length (paper: 512 →
/// 4096), WC, LTNC and RLNC on 16-peer views; every run feeds both.
///
/// 7b is the average time to complete. Expected shape (paper): RLNC < LTNC
/// < WC at every k, the LTNC/RLNC gap shrinking as k grows.
///
/// 7c is the overhead: payloads delivered beyond the `N · k` necessary ones.
/// LTNC's redundancy detection refuses what the decoded natives and the
/// buffered degree-2 packets span, at every degree, and lets through the
/// non-innovative packets that need a wider buffered packet. The paper plots
/// LTNC only, against exact checks; we print all three, and since several
/// offers per neighbour are in flight at once, even an exact check accepts
/// some payloads that an earlier acceptance made redundant by the time they
/// land. Expected shape (paper): ≈ 20 % at k = 2048, decreasing with k.
pub(crate) fn fig7bc(options: &HarnessOptions, out: &mut String) -> fmt::Result {
    let sweep = code_length_sweep(options.full);
    let (peers, payload) = if options.full { (1000, 64) } else { (80, 8) };
    let runs = options.runs;
    options.mode(
        out,
        format_args!("runs: {runs} | N = {peers}, payload: {payload} B | k sweep: {sweep:?}"),
    )?;

    let mut completion: Vec<TimeSeries> =
        SchemeKind::ALL.iter().map(|s| TimeSeries::new(s.label())).collect();
    let mut ltnc_overhead = TimeSeries::new("LTNC");
    let (mut completion_rows, mut ratio_rows, mut overhead_rows) = (vec![], vec![], vec![]);
    for &k in &sweep {
        let mut completion_row = vec![k.to_string()];
        let mut overhead_row = vec![k.to_string()];
        let mut average = [0.0; 3];
        for (i, &scheme) in SchemeKind::ALL.iter().enumerate() {
            let (mut ticks, mut overhead, mut aborted, mut delivered) = (0.0, 0.0, 0u64, 0u64);
            for run in 0..runs {
                let config = epidemic(scheme, peers, k, payload, options.seed + run as u64);
                let report = run_topology_virtual(&config);
                ticks += mean(&completion_ticks(&config, &report));
                overhead += overhead_percent(&config, &report);
                aborted += report.swarm.total_wire.transfers_aborted;
                delivered += report.swarm.total_wire.transfers_delivered;
            }
            average[i] = ticks / runs as f64;
            overhead /= runs as f64;
            completion[i].push(k as f64, average[i]);
            completion_row.push(fmt_f(average[i], 1));
            overhead_row.push(fmt_f(overhead, 1));
            if scheme == SchemeKind::Ltnc {
                ltnc_overhead.push(k as f64, overhead);
                let aborted = 100.0 * aborted as f64 / (aborted + delivered).max(1) as f64;
                overhead_row.push(fmt_f(aborted, 1));
            }
        }
        completion_rows.push(completion_row);
        ratio_rows.push(vec![k.to_string(), fmt_f((average[1] / average[2] - 1.0) * 100.0, 1)]);
        overhead_rows.push(overhead_row);
    }

    let headers: Vec<&str> =
        std::iter::once("k").chain(SchemeKind::ALL.iter().map(|s| s.label())).collect();
    print_table(out, "Average time to complete (gossip ticks)", &headers, &completion_rows)?;
    let ratio_title = "LTNC completion-time overhead vs RLNC (%)";
    print_table(out, ratio_title, &["k", "overhead %"], &ratio_rows)?;
    let refs: Vec<&TimeSeries> = completion.iter().collect();
    print_series(out, "Figure 7b data (k vs average time to complete)", &refs)?;
    let overhead_headers = ["k", "WC", "LTNC", "LTNC aborted %", "RLNC"];
    print_table(out, "Communication overhead (%)", &overhead_headers, &overhead_rows)?;
    print_series(out, "Figure 7c data (k vs LTNC overhead %)", &[&ltnc_overhead])
}

/// Source → sink LTNC transfer in which the sink skips what it detects as
/// redundant: the source's recoding counters, the sink's decoding counters
/// and the packets sent.
fn ltnc_cost(k: usize, m: usize, seed: u64) -> (OpCounters, OpCounters, u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let nat = natives(k, m, &mut rng);
    let mut source = LtncNode::with_all_natives(k, m, &nat, LtncConfig::default());
    let mut sink = LtncNode::new(k, m);
    let mut packets = 0;
    while !sink.is_complete() {
        let p = source.recode(&mut rng).expect("source can recode");
        packets += 1;
        if !sink.is_redundant(p.vector()) {
            sink.receive(&p);
        }
    }
    sink.decode().expect("complete");
    (*source.recoding_counters(), *sink.decoding_counters(), packets)
}

/// Source → sink RLNC transfer with recoding sparsity `sparsity`: the
/// source, the complete sink and the packets sent.
fn rlnc_transfer(k: usize, m: usize, sparsity: usize, seed: u64) -> (RlncNode, RlncNode, u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut source = RlncNode::with_sparsity(k, m, sparsity);
    for (i, p) in natives(k, m, &mut rng).into_iter().enumerate() {
        source.receive(&EncodedPacket::native(k, i, p));
    }
    let mut sink = RlncNode::new(k, m);
    let mut sent = 0;
    while !sink.is_complete() {
        let p = source.recode(&mut rng).expect("source can recode");
        if sink.is_innovative(p.vector()) {
            sink.receive(&p);
        }
        sent += 1;
        assert!(sent < 500 * k as u64, "sparsity {sparsity} did not converge");
    }
    (source, sink, sent)
}

/// The four panels of Figure 8, in order.
const FIG8_PANELS: [&str; 4] = [
    "Figure 8a data (k vs recode control cycles per packet)",
    "Figure 8b data (k vs decode control cycles, log scale)",
    "Figure 8c data (k vs recode data cycles per byte)",
    "Figure 8d data (k vs decode data cycles per byte)",
];

/// Figure 8: the cost of recoding and decoding, split into work on control
/// structures and on packet data, LTNC and RLNC against the code length
/// (paper: 400 → 2000). The paper measured CPU cycles on a Xeon; this counts
/// operations and estimates cycles with the cost model of `ltnc-metrics`
/// (wall-clock cost at k = 2048 is the reference benchmark's `chain_*`
/// workloads). Expected shape (paper): 8a, recode control, LTNC above RLNC;
/// 8b, decode control, LTNC orders of magnitude below, the gap widening with
/// k; 8c, recode data, LTNC below; 8d, decode data, LTNC far below. The
/// paper's ≈ 99 % 8d reduction at k = 2048 is against one payload XOR per
/// recipe bit (k²/2 ≈ 2.1 M); this repo's RLNC replays its solve through
/// Four-Russians tables (`ltnc_gf2::Recipes::replay`, ≈ k²/7 ≈ 0.59 M),
/// against which LTNC's ≈ 27 k XORs are a ≈ 95 % reduction, asserted as
/// ≥ 10× by `crates/core/tests/paper_claims.rs`.
pub(crate) fn fig8(options: &HarnessOptions, out: &mut String) -> fmt::Result {
    let sweep = cost_code_length_sweep(options.full);
    // The paper's m is 256 KB; data cost scales linearly with m through the
    // cost model, so the measurement uses a small payload and the model is
    // parameterised with the paper's payload size for the cycle estimates.
    let measured_m = 32;
    let model_m = if options.full { 256 * 1024 } else { 1024 };
    options.mode(
        out,
        format_args!(
            "k sweep: {sweep:?} | measured payload: {measured_m} B | modelled payload: {model_m} B"
        ),
    )?;

    let mut panels: [[TimeSeries; 2]; 4] =
        std::array::from_fn(|_| [TimeSeries::new("LTNC"), TimeSeries::new("RLNC")]);
    let mut rows = Vec::new();
    for &k in &sweep {
        let model = CostModel::new(k, model_m);
        let (source, mut sink, sent) = rlnc_transfer(k, measured_m, sparsity_for(k), options.seed);
        sink.decode().expect("full rank");
        let rlnc = (*source.recoding_counters(), *sink.decoding_counters(), sent);
        let schemes = [("LTNC", ltnc_cost(k, measured_m, options.seed)), ("RLNC", rlnc)];
        for (i, (label, (recode, decode, sent))) in schemes.into_iter().enumerate() {
            let (recode, decode) = (model.evaluate(&recode), model.evaluate(&decode));
            let packets = sent.max(1) as f64;
            let values = [
                recode.control_cycles / packets,
                decode.control_cycles,
                recode.data_cycles / (packets * model_m as f64),
                decode.data_cycles / (k * model_m) as f64,
            ];
            for (panel, &value) in panels.iter_mut().zip(&values) {
                panel[i].push(k as f64, value);
            }
            rows.push(vec![
                k.to_string(),
                label.to_string(),
                format!("{:.0}", values[0]),
                format!("{:.3e}", values[1]),
                format!("{:.1}", values[2]),
                format!("{:.1}", values[3]),
                sent.to_string(),
            ]);
        }
    }

    let headers = [
        "k",
        "scheme",
        "8a recode ctrl/pkt",
        "8b decode ctrl total",
        "8c recode data cyc/B",
        "8d decode data cyc/B",
        "packets sent",
    ];
    print_table(out, "Estimated cycles (cost model)", &headers, &rows)?;
    // Headline: decode reduction of LTNC vs RLNC at the largest k.
    if let [Some(&(_, ltnc)), Some(&(_, rlnc))] = panels[3].each_ref().map(|s| s.points().last()) {
        let (reduction, k) = ((1.0 - ltnc / rlnc) * 100.0, sweep[sweep.len() - 1]);
        writeln!(
            out,
            "\nheadline: LTNC reduces decoding data cost by {reduction:.1}% vs RLNC at k = {k}"
        )?;
    }
    for (title, [ltnc, rlnc]) in FIG8_PANELS.iter().zip(&panels) {
        print_series(out, title, &[ltnc, rlnc])?;
    }
    Ok(())
}

/// Runs a chain dissemination source → relays → sink and collects the
/// recoding statistics of every node, and the relative standard deviation of
/// native occurrences of each node that sent something. The relays recode
/// from partial knowledge, the regime the paper's numbers describe.
fn collect(k: usize, m: usize, relays: usize, seed: u64) -> (RecodeStats, Summary) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let natives = natives(k, m, &mut rng);
    let mut source = LtncNode::with_all_natives(k, m, &natives, LtncConfig::default());
    let mut nodes: Vec<LtncNode> = (0..relays).map(|_| LtncNode::new(k, m)).collect();

    // Push packets around until every relay is complete: source feeds a random
    // relay, every sufficiently-provisioned relay pushes to another random relay.
    let threshold = (k / 100).max(1);
    let mut guard = 0;
    while nodes.iter().any(|n| !n.is_complete()) {
        guard += 1;
        assert!(guard < 4000 * k, "dissemination did not converge");
        // No feedback channel here: every packet is delivered, so the
        // receiving node's redundancy detection (Algorithm 3) is exercised and
        // its catch rate can be measured against the 31 % the paper reports.
        if let Some(p) = source.recode(&mut rng) {
            let t = rng.gen_range(0..relays);
            nodes[t].receive(&p);
        }
        for i in 0..relays {
            if nodes[i].stats().accepted as usize >= threshold && nodes[i].can_recode() {
                if let Some(p) = nodes[i].recode(&mut rng) {
                    let mut t = rng.gen_range(0..relays);
                    if t == i {
                        t = (t + 1) % relays;
                    }
                    nodes[t].receive(&p);
                }
            }
        }
    }

    let mut stats = RecodeStats::new();
    let mut occurrence_rsd = Summary::new();
    for n in &nodes {
        stats.merge(n.stats());
        if n.stats().recoded_packets > 0 {
            occurrence_rsd.record(n.occurrence_spread().relative_std_dev);
        }
    }
    stats.merge(source.stats());
    occurrence_rsd.record(source.occurrence_spread().relative_std_dev);
    (stats, occurrence_rsd)
}

/// The in-text statistics of §III-B and §III-C against the paper's: degree
/// draws accepted first time (≈ 99.9 %, ≈ 1.02 draws per recode), the
/// greedy build reaching its target degree (≈ 95 %, ≈ 0.2 % average
/// relative deviation), the spread of native occurrences in sent packets
/// (≈ 0.1 % RSD) and the redundant packets the detection catches (≈ 31 %).
pub(crate) fn stats(options: &HarnessOptions, out: &mut String) -> fmt::Result {
    let (k, relays) = if options.full { (2048, 24) } else { (128, 12) };
    let m = 16;
    options.mode(out, format_args!("runs: {} | k = {k}, relays = {relays}", options.runs))?;

    let mut stats = RecodeStats::new();
    let mut rsd = Summary::new();
    for run in 0..options.runs {
        let (run_stats, run_rsd) = collect(k, m, relays, options.seed + run as u64);
        stats.merge(&run_stats);
        rsd.merge(&run_rsd);
    }

    let row = |statistic: &str, paper: &str, measured: String| {
        vec![statistic.to_string(), paper.to_string(), measured]
    };
    let percent = |rate: f64, decimals| format!("{} %", fmt_f(rate * 100.0, decimals));
    let rows = vec![
        row("first degree draw accepted", "99.9 %", percent(stats.first_pick_accept_rate(), 2)),
        row("average degree draws per recode", "1.02", fmt_f(stats.average_draws(), 3)),
        row("build reaches target degree", "95 %", percent(stats.target_reached_rate(), 2)),
        row(
            "avg relative deviation to target",
            "0.2 %",
            percent(stats.average_relative_deviation(), 3),
        ),
        row("occurrence relative std-dev", "0.1 %", percent(rsd.mean(), 3)),
        row(
            "redundant packets caught by detection",
            "31 %",
            percent(stats.redundancy_catch_rate(), 2),
        ),
        row("packets recoded (total)", "-", stats.recoded_packets.to_string()),
    ];
    print_table(out, "Paper vs measured", &["statistic", "paper", "measured"], &rows)
}

/// Source → sink LTNC transfer, each end with its own configuration: the
/// source, the complete sink and the packets sent.
fn ltnc_transfer(
    k: usize,
    m: usize,
    source_config: LtncConfig,
    sink_config: LtncConfig,
    seed: u64,
) -> (LtncNode, LtncNode, u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut source = LtncNode::with_all_natives(k, m, &natives(k, m, &mut rng), source_config);
    let mut sink = LtncNode::with_config(k, m, sink_config);
    let mut sent = 0;
    while !sink.is_complete() {
        let p = source.recode(&mut rng).expect("source can recode");
        sink.receive(&p);
        sent += 1;
        assert!(sent < 200 * k as u64, "transfer did not converge");
    }
    (source, sink, sent)
}

/// What each LTNC design choice contributes, measured by switching it off:
/// refinement (Algorithm 2: the spread of native occurrences, the packets a
/// sink needs), redundancy detection (Algorithm 3: redundant packets
/// buffered), the feedback channel (the payloads it saves the protocol we
/// ship, the smart packets its summaries buy, and the bytes every useful
/// delivery costs, summaries included), and the RLNC baseline's
/// `ln k + 20` sparsity.
pub(crate) fn ablations(options: &HarnessOptions, out: &mut String) -> fmt::Result {
    let k = if options.full { 1024 } else { 128 };
    let m = 16;
    let runs = options.runs as f64;
    let seeds = || (0..options.runs).map(|run| options.seed + run as u64);
    options.mode(out, format_args!("runs: {}", options.runs))?;

    let mut rows = Vec::new();
    for (label, config) in [
        ("refinement on", LtncConfig::default()),
        ("refinement off", LtncConfig::default().without_refinement()),
    ] {
        let (mut packets, mut rsd) = (0.0, 0.0);
        for seed in seeds() {
            let (source, _, sent) = ltnc_transfer(k, m, config, config, seed);
            packets += sent as f64;
            rsd += source.occurrence_spread().relative_std_dev;
        }
        rows.push(vec![label.to_string(), fmt_f(packets / runs, 1), fmt_f(rsd / runs * 100.0, 3)]);
    }
    let headers = ["configuration", "packets to decode", "occurrence RSD %"];
    print_table(out, &format!("Ablation: refinement (k = {k})"), &headers, &rows)?;

    let mut rows = Vec::new();
    for (label, config) in [
        ("detection on", LtncConfig::default()),
        ("detection off", LtncConfig::default().without_redundancy_detection()),
    ] {
        let (mut packets, mut redundant_buffered) = (0.0, 0.0);
        for seed in seeds() {
            let (_, sink, sent) = ltnc_transfer(k, m, LtncConfig::default(), config, seed);
            packets += sent as f64;
            // With detection on, redundant packets are rejected before
            // insertion; with it off they all end up buffered (missed).
            redundant_buffered += sink.stats().redundant_missed as f64;
        }
        let buffered = fmt_f(redundant_buffered / runs, 1);
        rows.push(vec![label.to_string(), fmt_f(packets / runs, 1), buffered]);
    }
    let headers = ["configuration", "packets to decode", "redundant packets buffered"];
    print_table(out, &format!("Ablation: redundancy detection (k = {k})"), &headers, &rows)?;

    // The protocol we ship has no feedback-off or summary-off mode to switch
    // to: what the channel saves is read off its books instead — every
    // aborted offer is a payload that never crossed the wire, and every
    // summary an LTNC verdict sent can buy smart offers, which a receiver
    // that learned nothing in between accepts. The bytes per useful
    // delivery count every datagram, summaries included: the energy a node
    // spends per native it learns.
    let (peers, epidemic_k, payload) = if options.full { (1000, 2048, 64) } else { (60, 48, 8) };
    let config = epidemic(SchemeKind::Ltnc, peers, epidemic_k, payload, options.seed);
    let report = run_topology_virtual(&config);
    let wire = report.swarm.total_wire;
    let rows = vec![vec![
        fmt_f(mean(&completion_ticks(&config, &report)), 1),
        fmt_f(overhead_percent(&config, &report), 1),
        wire.transfers_offered.to_string(),
        wire.transfers_delivered.to_string(),
        wire.transfers_aborted.to_string(),
        fmt_f(100.0 * wire.transfers_aborted as f64 / wire.transfers_offered.max(1) as f64, 1),
        wire.summaries_sent.to_string(),
        wire.smart_offers.to_string(),
        fmt_f(
            100.0 * (wire.smart_offers - wire.smart_aborts) as f64
                / wire.smart_offers.max(1) as f64,
            1,
        ),
        fmt_f(wire.bytes_sent as f64 / wire.useful_deliveries.max(1) as f64, 1),
    ]];
    print_table(
        out,
        &format!("Ablation: feedback channel (LTNC, {peers} peers, k = {epidemic_k})"),
        &[
            "avg ticks to complete",
            "overhead %",
            "offers",
            "payloads",
            "aborted",
            "saved %",
            "summaries",
            "smart offers",
            "smart accepted %",
            "bytes per useful delivery",
        ],
        &rows,
    )?;

    let mut rows = Vec::new();
    for sparsity in [2usize, 8, sparsity_for(k), k.min(256)] {
        let (mut packets, mut data_ops) = (0.0, 0.0);
        for seed in seeds() {
            let (source, _, sent) = rlnc_transfer(k, m, sparsity, seed);
            packets += sent as f64;
            data_ops += source.recoding_counters().data_ops() as f64 / sent as f64;
        }
        rows.push(vec![sparsity.to_string(), fmt_f(packets / runs, 1), fmt_f(data_ops / runs, 2)]);
    }
    let title =
        format!("Ablation: RLNC sparsity (k = {k}, paper setting ln k + 20 = {})", sparsity_for(k));
    let headers = ["sparsity", "packets sent to decode", "payload XORs per recode"];
    print_table(out, &title, &headers, &rows)
}
