//! Figure 8: computational cost of recoding and decoding, split into work on
//! control structures and work on packet data, for LTNC and RLNC, as a
//! function of the code length (paper sweep: 400 → 2000).
//!
//! The paper reports CPU cycles measured on a Xeon testbed; this harness
//! reports (a) platform-independent operation counts and (b) estimated cycles
//! through the documented cost model of `ltnc-metrics`. Wall-clock cost at
//! paper scale (k = 2048) is the reference benchmark's: the
//! `chain_ltnc_k2048` and `chain_rlnc_k2048` workloads of `benchmark/`.
//!
//! Expected shape (paper):
//! * 8a — recoding/control: LTNC above RLNC (the build + refine machinery);
//! * 8b — decoding/control: LTNC orders of magnitude below RLNC, gap widening
//!   with k (belief propagation vs Gaussian elimination);
//! * 8c — recoding/data: LTNC below RLNC (lower average degree of combined
//!   packets);
//! * 8d — decoding/data: LTNC far below RLNC. The paper's ≈ 99 % reduction at
//!   k = 2048 is against a decoder that spends one payload XOR per recipe bit
//!   (k²/2 ≈ 2.1 M); this repo's RLNC baseline replays the solved system
//!   through Four-Russians tables (`ltnc_gf2::Recipes::replay`, ≈ k²/7 ≈
//!   0.59 M), against which LTNC's ≈ 27 k XORs are a ≈ 95 % reduction —
//!   asserted as ≥ 10× by `crates/core/tests/paper_claims.rs`.

use ltnc_bench::{cost_code_length_sweep, print_series, print_table, HarnessOptions};
use ltnc_core::LtncNode;
use ltnc_gf2::Payload;
use ltnc_metrics::{CostModel, OpCounters, TimeSeries};
use ltnc_rlnc::RlncNode;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Per-(scheme, k) measurement: operation counters of the recoding and
/// decoding paths of a source → sink transfer.
struct Measurement {
    recode: OpCounters,
    decode: OpCounters,
    packets_recoded: u64,
}

fn natives(k: usize, m: usize, rng: &mut SmallRng) -> Vec<Payload> {
    (0..k)
        .map(|_| {
            let mut bytes = vec![0u8; m];
            rng.fill(&mut bytes[..]);
            Payload::from_vec(bytes)
        })
        .collect()
}

fn measure_ltnc(k: usize, m: usize, seed: u64) -> Measurement {
    let mut rng = SmallRng::seed_from_u64(seed);
    let nat = natives(k, m, &mut rng);
    let mut source = LtncNode::with_all_natives(k, m, &nat, ltnc_core::LtncConfig::default());
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
    Measurement {
        recode: *source.recoding_counters(),
        decode: *sink.decoding_counters(),
        packets_recoded: packets,
    }
}

fn measure_rlnc(k: usize, m: usize, seed: u64) -> Measurement {
    let mut rng = SmallRng::seed_from_u64(seed);
    let nat = natives(k, m, &mut rng);
    let mut source = RlncNode::new(k, m);
    for (i, p) in nat.iter().enumerate() {
        source.receive(&ltnc_gf2::EncodedPacket::native(k, i, p.clone()));
    }
    let mut sink = RlncNode::new(k, m);
    let mut packets = 0;
    while !sink.is_complete() {
        let p = source.recode(&mut rng).expect("source can recode");
        packets += 1;
        if sink.is_innovative(&p) {
            sink.receive(&p);
        }
    }
    sink.decode().expect("full rank");
    Measurement {
        recode: *source.recoding_counters(),
        decode: *sink.decoding_counters(),
        packets_recoded: packets,
    }
}

fn main() {
    let options = HarnessOptions::from_env();
    let sweep = cost_code_length_sweep(options.full);
    // The paper's m is 256 KB; data cost scales linearly with m through the
    // cost model, so the measurement uses a small payload and the model is
    // parameterised with the paper's payload size for the cycle estimates.
    let measured_m = 32;
    let model_m = if options.full { 256 * 1024 } else { 1024 };
    println!("Figure 8 — computational cost of recoding and decoding");
    println!(
        "mode: {} | k sweep: {:?} | measured payload: {measured_m} B | modelled payload: {model_m} B",
        if options.full { "full" } else { "quick" },
        sweep
    );

    let mut fig8a = [TimeSeries::new("LTNC"), TimeSeries::new("RLNC")];
    let mut fig8b = [TimeSeries::new("LTNC"), TimeSeries::new("RLNC")];
    let mut fig8c = [TimeSeries::new("LTNC"), TimeSeries::new("RLNC")];
    let mut fig8d = [TimeSeries::new("LTNC"), TimeSeries::new("RLNC")];
    let mut rows = Vec::new();

    for &k in &sweep {
        let model = CostModel::new(k, model_m);
        let schemes: [(&str, Measurement); 2] = [
            ("LTNC", measure_ltnc(k, measured_m, options.seed)),
            ("RLNC", measure_rlnc(k, measured_m, options.seed)),
        ];
        for (i, (label, m)) in schemes.iter().enumerate() {
            let recode = model.evaluate(&m.recode);
            let decode = model.evaluate(&m.decode);
            let packets = m.packets_recoded.max(1) as f64;
            let content_bytes = (k * model_m) as f64;

            let recode_control_per_packet = recode.control_cycles / packets;
            let recode_data_per_byte = recode.data_cycles / (packets * model_m as f64);
            let decode_control_total = decode.control_cycles;
            let decode_data_per_byte = decode.data_cycles / content_bytes;

            fig8a[i].push(k as f64, recode_control_per_packet);
            fig8b[i].push(k as f64, decode_control_total);
            fig8c[i].push(k as f64, recode_data_per_byte);
            fig8d[i].push(k as f64, decode_data_per_byte);

            rows.push(vec![
                k.to_string(),
                (*label).to_string(),
                format!("{recode_control_per_packet:.0}"),
                format!("{decode_control_total:.3e}"),
                format!("{recode_data_per_byte:.1}"),
                format!("{decode_data_per_byte:.1}"),
                m.packets_recoded.to_string(),
            ]);
        }
    }

    print_table(
        "Estimated cycles (cost model)",
        &[
            "k",
            "scheme",
            "8a recode ctrl/pkt",
            "8b decode ctrl total",
            "8c recode data cyc/B",
            "8d decode data cyc/B",
            "packets sent",
        ],
        &rows,
    );

    // Headline: decode reduction of LTNC vs RLNC at the largest k.
    if let (Some(&(_, ltnc_total)), Some(&(_, rlnc_total))) =
        (fig8d[0].points().last(), fig8d[1].points().last())
    {
        let reduction = (1.0 - ltnc_total / rlnc_total) * 100.0;
        println!(
            "\nheadline: LTNC reduces decoding data cost by {reduction:.1}% vs RLNC at k = {}",
            sweep.last().unwrap()
        );
    }

    print_series("Figure 8a data (k vs recode control cycles per packet)", &[&fig8a[0], &fig8a[1]]);
    print_series("Figure 8b data (k vs decode control cycles, log scale)", &[&fig8b[0], &fig8b[1]]);
    print_series("Figure 8c data (k vs recode data cycles per byte)", &[&fig8c[0], &fig8c[1]]);
    print_series("Figure 8d data (k vs decode data cycles per byte)", &[&fig8d[0], &fig8d[1]]);
}
