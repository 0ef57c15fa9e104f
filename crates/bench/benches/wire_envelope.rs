//! Wall-clock benchmarks of the `ltnc-net` envelope codec: full
//! encode/decode of `DATA-PAYLOAD` frames (decode borrows the payload), and
//! the header-first paths (`decode_header`, `DATA-HEADER` offer decode)
//! whose cheapness is what makes the early-abort of the binary feedback
//! channel worth having on a real socket.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ltnc_gf2::{CodeVector, EncodedPacket, Payload};
use ltnc_net::envelope::{self, EnvelopeHeader, Message, MessageKind, TraceContext};
use ltnc_scheme::SchemeKind;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn sample_packet(k: usize, m: usize, rng: &mut SmallRng) -> EncodedPacket {
    let mut vector = CodeVector::zero(k);
    for i in 0..k {
        if rng.gen_bool(0.3) {
            vector.set(i);
        }
    }
    if vector.is_zero() {
        vector.set(0);
    }
    let mut payload = vec![0u8; m];
    rng.fill(&mut payload[..]);
    EncodedPacket::new(vector, Payload::from_vec(payload))
}

fn header(kind: MessageKind) -> EnvelopeHeader {
    EnvelopeHeader { kind, scheme: SchemeKind::Ltnc, session: 0xBE7C, generation: 5 }
}

fn trace() -> TraceContext {
    TraceContext { origin_micros: 1_234_567, hop: 3 }
}

fn bench_payload_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("envelope_data_payload");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    for &(k, m) in &[(64usize, 256usize), (512, 1024), (2048, 4096)] {
        let mut rng = SmallRng::seed_from_u64(1);
        let packet = sample_packet(k, m, &mut rng);
        let message = Message::DataPayload { transfer: 9, trace: trace(), packet };
        let env_header = header(MessageKind::DataPayload);
        let frame = envelope::encode(&env_header, &message);
        group.throughput(Throughput::Bytes(frame.len() as u64));
        group.bench_with_input(BenchmarkId::new("encode", k), &k, |b, _| {
            b.iter(|| envelope::encode(&env_header, &message))
        });
        group.bench_with_input(BenchmarkId::new("decode", k), &k, |b, _| {
            b.iter(|| envelope::decode_view(&frame).expect("valid frame"))
        });
    }
    group.finish();
}

fn bench_header_first_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("envelope_header_first");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    for &(k, m) in &[(64usize, 256usize), (512, 1024), (2048, 4096)] {
        let mut rng = SmallRng::seed_from_u64(2);
        let packet = sample_packet(k, m, &mut rng);
        let offer = Message::DataHeader {
            transfer: 9,
            trace: trace(),
            payload_size: packet.payload_size(),
            vector: packet.vector().clone(),
        };
        let offer_frame = envelope::encode(&header(MessageKind::DataHeader), &offer);
        let payload_frame = envelope::encode(
            &header(MessageKind::DataPayload),
            &Message::DataPayload { transfer: 9, trace: trace(), packet },
        );
        // The fixed-prefix peek a session does on every datagram.
        group.bench_with_input(BenchmarkId::new("envelope_header", k), &k, |b, _| {
            b.iter(|| envelope::decode_header(&payload_frame).expect("valid header"))
        });
        // The early-abort path: decoding a DATA-HEADER offer (code vector,
        // no payload) — all a receiver pays before saying no.
        group.bench_with_input(BenchmarkId::new("offer_decode", k), &k, |b, _| {
            b.iter(|| envelope::decode_view(&offer_frame).expect("valid offer"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_payload_roundtrip, bench_header_first_paths);
criterion_main!(benches);
