//! Figure 8b/8d (wall-clock counterpart): time to decode the full content from
//! a stream of encoded packets — belief propagation for LTNC vs Gaussian
//! elimination for RLNC — as a function of the code length.
//!
//! Expected shape: the gap grows superlinearly with `k`; at the paper's
//! k = 2048 the data-plane reduction is ≈ 95 % against this repo's
//! table-driven Gaussian replay (≈ 99 % against the one-XOR-per-recipe-bit
//! decoder the paper compares with). The benchmark uses smaller payloads than
//! the paper's 256 KB blocks so the `k` sweep stays fast; the data-plane gap
//! scales linearly with the payload size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ltnc_core::{LtncConfig, LtncNode};
use ltnc_gf2::{EncodedPacket, Payload};
use ltnc_rlnc::RlncNode;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const PAYLOAD: usize = 256;

fn natives(k: usize, rng: &mut SmallRng) -> Vec<Payload> {
    (0..k)
        .map(|_| {
            let mut bytes = vec![0u8; PAYLOAD];
            rng.fill(&mut bytes[..]);
            Payload::from_vec(bytes)
        })
        .collect()
}

/// Pre-generates an LTNC packet stream long enough to decode the content.
fn ltnc_stream(k: usize, seed: u64) -> Vec<EncodedPacket> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let nat = natives(k, &mut rng);
    let mut source = LtncNode::with_all_natives(k, PAYLOAD, &nat, LtncConfig::default());
    // Validate the needed length once, then regenerate deterministically.
    let mut probe = LtncNode::new(k, PAYLOAD);
    let mut stream = Vec::new();
    while !probe.is_complete() {
        let p = source.recode(&mut rng).unwrap();
        probe.receive(&p);
        stream.push(p);
    }
    stream
}

fn rlnc_stream(k: usize, seed: u64) -> Vec<EncodedPacket> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let nat = natives(k, &mut rng);
    let mut source = RlncNode::new(k, PAYLOAD);
    for (i, p) in nat.iter().enumerate() {
        source.receive(&EncodedPacket::native(k, i, p.clone()));
    }
    let mut probe = RlncNode::new(k, PAYLOAD);
    let mut stream = Vec::new();
    while !probe.is_complete() {
        let p = source.recode(&mut rng).unwrap();
        probe.receive(&p);
        stream.push(p);
    }
    stream
}

fn bench_decoding(c: &mut Criterion) {
    let mut group = c.benchmark_group("decode_full_content");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    for &k in &[128usize, 256, 512] {
        let ltnc_packets = ltnc_stream(k, 3);
        group.bench_with_input(BenchmarkId::new("LTNC_bp", k), &k, |bench, &k| {
            bench.iter(|| {
                let mut sink = LtncNode::new(k, PAYLOAD);
                for p in &ltnc_packets {
                    sink.receive(p);
                    if sink.is_complete() {
                        break;
                    }
                }
                assert!(sink.is_complete());
                std::hint::black_box(sink.decoded_count())
            })
        });

        let rlnc_packets = rlnc_stream(k, 3);
        group.bench_with_input(BenchmarkId::new("RLNC_gauss", k), &k, |bench, &k| {
            bench.iter(|| {
                let mut sink = RlncNode::new(k, PAYLOAD);
                for p in &rlnc_packets {
                    sink.receive(p);
                    if sink.is_complete() {
                        break;
                    }
                }
                std::hint::black_box(sink.decode().unwrap().len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_decoding);
criterion_main!(benches);
