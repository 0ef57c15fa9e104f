//! Sensor broadcast: the motivating scenario of the paper — nodes with low
//! processing capabilities (sensors) receiving a firmware image or
//! configuration blob. What matters here is the *decoding* cost at the
//! resource-constrained receivers: LTNC trades a little communication overhead
//! for a ~95 % reduction of the decoding work compared to RLNC (~99 % in the
//! paper, whose RLNC decoder spends one payload XOR per recipe bit; the
//! baseline here replays the solved system through XOR tables and is 3.5×
//! cheaper than that at k = 2048).
//!
//! ```text
//! cargo run --release -p ltnc-examples --bin sensor_broadcast
//! ```

use ltnc_core::{LtncConfig, LtncNode};
use ltnc_examples::random_content;
use ltnc_gf2::EncodedPacket;
use ltnc_metrics::{CostModel, OpCounters};
use ltnc_rlnc::RlncNode;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Simulated sensor budget: how many elementary operations per received byte a
/// low-power MCU can reasonably afford for decoding.
const K: usize = 256;
const M: usize = 128; // bytes per block in this example (e.g. one flash page)

fn ltnc_receiver_cost(seed: u64) -> (OpCounters, u64) {
    let content = random_content(K, M, seed);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut gateway = LtncNode::with_all_natives(K, M, &content, LtncConfig::default());
    let mut sensor = LtncNode::new(K, M);
    let mut received = 0;
    while !sensor.is_complete() {
        let p = gateway.recode(&mut rng).expect("gateway can recode");
        // A sensor cannot afford to waste radio receptions: the binary
        // feedback check (run on the header) drops detectable duplicates.
        if !sensor.is_redundant(p.vector()) {
            sensor.receive(&p);
            received += 1;
        }
    }
    assert_eq!(sensor.decode().unwrap(), content);
    (*sensor.decoding_counters(), received)
}

fn rlnc_receiver_cost(seed: u64) -> (OpCounters, u64) {
    let content = random_content(K, M, seed);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut gateway = RlncNode::new(K, M);
    for (i, p) in content.iter().enumerate() {
        gateway.receive(&EncodedPacket::native(K, i, p.clone()));
    }
    let mut sensor = RlncNode::new(K, M);
    let mut received = 0;
    while !sensor.is_complete() {
        let p = gateway.recode(&mut rng).expect("gateway can recode");
        if sensor.is_innovative(p.vector()) {
            sensor.receive(&p);
            received += 1;
        }
    }
    assert_eq!(sensor.decode().unwrap(), content);
    (*sensor.decoding_counters(), received)
}

fn main() {
    println!("sensor broadcast: k = {K} blocks of {M} B pushed from a gateway to a sensor\n");
    let (ltnc, ltnc_rx) = ltnc_receiver_cost(11);
    let (rlnc, rlnc_rx) = rlnc_receiver_cost(11);

    let model = CostModel::new(K, M);
    let ltnc_cost = model.evaluate(&ltnc);
    let rlnc_cost = model.evaluate(&rlnc);

    println!("{:<28} {:>14} {:>14}", "metric", "LTNC", "RLNC");
    println!("{:<28} {:>14} {:>14}", "packets received", ltnc_rx, rlnc_rx);
    println!("{:<28} {:>14} {:>14}", "payload XOR operations", ltnc.data_ops(), rlnc.data_ops());
    println!("{:<28} {:>14} {:>14}", "control operations", ltnc.control_ops(), rlnc.control_ops());
    println!(
        "{:<28} {:>14.3e} {:>14.3e}",
        "est. decode cycles (total)",
        ltnc_cost.total_cycles(),
        rlnc_cost.total_cycles()
    );
    let reduction = (1.0 - ltnc_cost.total_cycles() / rlnc_cost.total_cycles()) * 100.0;
    println!(
        "\nLTNC reduces the sensor's decoding cost by {reduction:.1}% \
         (paper: up to 99% at k = 2048, against a costlier RLNC decoder),"
    );
    println!(
        "at the price of {:.1}% more radio receptions.",
        (ltnc_rx as f64 / rlnc_rx as f64 - 1.0) * 100.0
    );
}
