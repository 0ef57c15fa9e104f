//! Ablation study of the LTNC design choices — what each mechanism
//! contributes, measured by switching it off:
//!
//! * refinement (Algorithm 2) on/off — effect on the spread of native-packet
//!   occurrences and on the sink's decoding progress;
//! * redundancy detection (Algorithm 3) on/off — effect on the number of
//!   redundant packets buffered and on memory pressure;
//! * binary feedback channel on/off — effect on the communication overhead
//!   of the dissemination;
//! * RLNC sparsity sweep — the `ln k + 20` setting of the baseline.

use ltnc_bench::{fmt_f, print_table, HarnessOptions};
use ltnc_core::{LtncConfig, LtncNode};
use ltnc_gf2::Payload;
use ltnc_rlnc::RlncNode;
use ltnc_sim::{Engine, SchemeKind, SimConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn natives(k: usize, m: usize, rng: &mut SmallRng) -> Vec<Payload> {
    (0..k)
        .map(|_| {
            let mut bytes = vec![0u8; m];
            rng.fill(&mut bytes[..]);
            Payload::from_vec(bytes)
        })
        .collect()
}

/// Source → sink transfer with a given LTNC configuration; returns
/// (packets needed, occurrence RSD at the source, redundant packets buffered at the sink).
fn ltnc_transfer(k: usize, m: usize, config: LtncConfig, seed: u64) -> (u64, f64, u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let nat = natives(k, m, &mut rng);
    let mut source = LtncNode::with_all_natives(k, m, &nat, config);
    let mut sink = LtncNode::with_config(k, m, config);
    let mut sent = 0;
    while !sink.is_complete() {
        let p = source.recode(&mut rng).expect("source can recode");
        sink.receive(&p);
        sent += 1;
        assert!(sent < 200 * k as u64, "transfer did not converge");
    }
    (sent, source.occurrence_spread().relative_std_dev, sink.stats().redundant_missed)
}

fn refinement_ablation(options: &HarnessOptions) {
    let k = if options.full { 1024 } else { 128 };
    let m = 16;
    let mut rows = Vec::new();
    for (label, config) in [
        ("refinement on", LtncConfig::default()),
        ("refinement off", LtncConfig::default().without_refinement()),
    ] {
        let mut packets = 0.0;
        let mut rsd = 0.0;
        for run in 0..options.runs {
            let (sent, spread, _) = ltnc_transfer(k, m, config, options.seed + run as u64);
            packets += sent as f64;
            rsd += spread;
        }
        rows.push(vec![
            label.to_string(),
            fmt_f(packets / options.runs as f64, 1),
            fmt_f(rsd / options.runs as f64 * 100.0, 3),
        ]);
    }
    print_table(
        &format!("Ablation: refinement (k = {k})"),
        &["configuration", "packets to decode", "occurrence RSD %"],
        &rows,
    );
}

fn redundancy_ablation(options: &HarnessOptions) {
    let k = if options.full { 1024 } else { 128 };
    let m = 16;
    let mut rows = Vec::new();
    for (label, config) in [
        ("detection on", LtncConfig::default()),
        ("detection off", LtncConfig::default().without_redundancy_detection()),
    ] {
        let mut redundant_buffered = 0.0;
        let mut packets = 0.0;
        for run in 0..options.runs {
            let mut rng = SmallRng::seed_from_u64(options.seed + run as u64);
            let nat = natives(k, m, &mut rng);
            let mut source = LtncNode::with_all_natives(k, m, &nat, LtncConfig::default());
            let mut sink = LtncNode::with_config(k, m, config);
            let mut sent = 0u64;
            while !sink.is_complete() {
                let p = source.recode(&mut rng).unwrap();
                sink.receive(&p);
                sent += 1;
            }
            packets += sent as f64;
            // With detection on, redundant packets are rejected before
            // insertion; with it off they all end up buffered (missed).
            redundant_buffered += sink.stats().redundant_missed as f64;
        }
        rows.push(vec![
            label.to_string(),
            fmt_f(packets / options.runs as f64, 1),
            fmt_f(redundant_buffered / options.runs as f64, 1),
        ]);
    }
    print_table(
        &format!("Ablation: redundancy detection (k = {k})"),
        &["configuration", "packets to decode", "redundant packets buffered"],
        &rows,
    );
}

fn feedback_ablation(options: &HarnessOptions) {
    let mut rows = Vec::new();
    for feedback in [true, false] {
        let mut c = if options.full {
            SimConfig::paper_reference(SchemeKind::Ltnc)
        } else {
            let mut c = SimConfig::quick(SchemeKind::Ltnc);
            c.nodes = 60;
            c.code_length = 48;
            c
        };
        c.feedback = feedback;
        c.seed = options.seed;
        let report = Engine::new(c).run();
        rows.push(vec![
            if feedback { "feedback on" } else { "feedback off" }.to_string(),
            fmt_f(report.avg_time_to_complete, 1),
            fmt_f(report.overhead_percent(), 1),
            report.payloads_delivered.to_string(),
            report.transfers_aborted.to_string(),
        ]);
    }
    print_table(
        "Ablation: binary feedback channel (LTNC)",
        &["configuration", "avg time to complete", "overhead %", "payloads", "aborted"],
        &rows,
    );
}

fn sparsity_ablation(options: &HarnessOptions) {
    let k = if options.full { 1024 } else { 128 };
    let m = 16;
    let mut rows = Vec::new();
    for sparsity in [2usize, 8, ltnc_rlnc::sparsity_for(k), k.min(256)] {
        let mut packets = 0.0;
        let mut data_ops = 0.0;
        for run in 0..options.runs {
            let mut rng = SmallRng::seed_from_u64(options.seed + run as u64);
            let nat = natives(k, m, &mut rng);
            let mut source = RlncNode::with_sparsity(k, m, sparsity);
            for (i, p) in nat.iter().enumerate() {
                source.receive(&ltnc_gf2::EncodedPacket::native(k, i, p.clone()));
            }
            let mut sink = RlncNode::new(k, m);
            let mut sent = 0u64;
            while !sink.is_complete() {
                let p = source.recode(&mut rng).unwrap();
                if sink.is_innovative(&p) {
                    sink.receive(&p);
                }
                sent += 1;
                assert!(sent < 500 * k as u64, "sparsity {sparsity} did not converge");
            }
            packets += sent as f64;
            data_ops += source.recoding_counters().data_ops() as f64 / sent as f64;
        }
        rows.push(vec![
            sparsity.to_string(),
            fmt_f(packets / options.runs as f64, 1),
            fmt_f(data_ops / options.runs as f64, 2),
        ]);
    }
    print_table(
        &format!(
            "Ablation: RLNC sparsity (k = {k}, paper setting ln k + 20 = {})",
            ltnc_rlnc::sparsity_for(k)
        ),
        &["sparsity", "packets sent to decode", "payload XORs per recode"],
        &rows,
    );
}

fn main() {
    let options = HarnessOptions::from_env();
    println!(
        "LTNC ablation studies (mode: {}, runs: {})",
        if options.full { "full" } else { "quick" },
        options.runs
    );
    refinement_ablation(&options);
    redundancy_ablation(&options);
    feedback_ablation(&options);
    sparsity_ablation(&options);
}
