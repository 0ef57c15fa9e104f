//! Isolated probes: one public function of one layer at a time, on inputs
//! sized like the workloads', so a kernel's cost is known apart from
//! whatever calls it. They run in the traced run, after the operations.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ltnc_gf2::{wire, CodeVector, EncodedPacket, Gf2Solver, Payload};
use ltnc_lt::{BpDecoder, LtEncoder, RobustSoliton};
use ltnc_metrics::LogHistogram;
use ltnc_net::envelope::{decode_view, encode, EnvelopeHeader, Message, MessageKind, TraceContext};
use ltnc_net::stream::FrameReassembler;
use ltnc_reactor::TimerWheel;
use ltnc_scheme::{SchemeKind, SchemeParams};
use ltnc_serve::ObjectStore;
use ltnc_session::{split_object, SharedReceiver, SourceSession};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::seed;
use crate::workload::Metrics;

/// Repeats `round` — which returns the time it measured and the units of
/// work done in it — until `budget` of measured time has passed, and
/// returns nanoseconds per unit. Unmeasured preparation inside `round`
/// is bounded too: the loop also ends after `8 × budget` of wall time.
fn ns_per_unit(budget: Duration, mut round: impl FnMut() -> (Duration, u64)) -> f64 {
    let started = Instant::now();
    let (mut measured, mut units) = (Duration::ZERO, 0);
    while units == 0 || (measured < budget && started.elapsed() < 8 * budget) {
        let (time, done) = round();
        measured += time;
        units += done;
    }
    measured.as_nanos() as f64 / units as f64
}

/// Times `batch` back-to-back calls of `call` per round.
fn ns_per_call(budget: Duration, batch: u64, mut call: impl FnMut()) -> f64 {
    ns_per_unit(budget, || {
        let started = Instant::now();
        for _ in 0..batch {
            call();
        }
        (started.elapsed(), batch)
    })
}

fn payload(key: u64, m: usize) -> Payload {
    Payload::from_vec(seed::bytes(key, m))
}

fn dense_vector(key: u64, k: usize) -> CodeVector {
    CodeVector::from_le_bytes(k, &seed::bytes(key, k.div_ceil(8)))
}

fn data_header(kind: MessageKind) -> EnvelopeHeader {
    EnvelopeHeader { kind, scheme: SchemeKind::Ltnc, session: 0x1ED6E4, generation: 0 }
}

fn payload_message(key: u64, k: usize, m: usize) -> Message {
    Message::DataPayload {
        transfer: key,
        trace: TraceContext { origin_micros: key, hop: 1 },
        packet: EncodedPacket::new(dense_vector(key, k), payload(key, m)),
    }
}

/// A full generation's worth of coded packets from a fresh source.
fn coded_packets(
    key: u64,
    k: usize,
    m: usize,
    count: usize,
) -> (SourceSession, Vec<EncodedPacket>) {
    let params = SchemeParams::new(SchemeKind::Ltnc, k, m);
    let mut source = SourceSession::new(&seed::bytes(key, k * m), params);
    let mut rng = SmallRng::seed_from_u64(key);
    let packets = (0..count)
        .map(|_| source.make_packet(&mut rng, |_| true).expect("a source always encodes").1)
        .collect();
    (source, packets)
}

/// `gf2.*`: the XOR kernel, the Gaussian solver at half rank, and the
/// gf2 wire codec at the chains' k = 2048, m = 1024.
fn gf2(seed: u64, budget: Duration, out: &mut Metrics) {
    let sources: Vec<Payload> = (0..8).map(|i| payload(seed ^ i, 1024)).collect();
    let refs: Vec<&Payload> = sources.iter().collect();
    let mut target = payload(seed ^ 8, 1024);
    let ns = ns_per_call(budget, 1024, || target.xor_assign_many(black_box(&refs)));
    black_box(&target);
    out.push(("gf2.xor_many_GBps", (8 * 1024) as f64 / ns));

    let k = 2048;
    let mut half = Gf2Solver::new(k, 2 * k);
    let mut next = 0;
    while half.rank() < k / 2 {
        half.insert_if_innovative(&dense_vector(seed.wrapping_add(next), k));
        next += 1;
    }
    let fresh: Vec<CodeVector> = (0..32).map(|i| dense_vector(seed ^ (1 << 40) ^ i, k)).collect();
    let ns = ns_per_unit(budget, || {
        let mut solver = half.clone();
        let started = Instant::now();
        for vector in &fresh {
            black_box(solver.insert_if_innovative(vector));
        }
        (started.elapsed(), fresh.len() as u64)
    });
    out.push(("gf2.solver_insert_ns", ns));

    let packet = EncodedPacket::new(dense_vector(seed, k), payload(seed, 1024));
    out.push((
        "gf2.wire_encode_ns",
        ns_per_call(budget, 256, || drop(black_box(wire::encode(&packet)))),
    ));
    let bytes = wire::encode(&packet);
    let ns = ns_per_call(budget, 256, || drop(black_box(wire::decode_view(black_box(&bytes)))));
    out.push(("gf2.wire_decode_view_ns", ns));
}

/// `lt.*`: LT encoding and belief-propagation decoding of one k = 2048
/// generation, each as the mean over a full decode.
fn lt(seed: u64, budget: Duration, out: &mut Metrics) {
    let (k, m) = (2048, 1024);
    let natives: Vec<Payload> = (0..k as u64).map(|i| payload(seed ^ i, m)).collect();
    let (mut encode_time, mut encoded) = (Duration::ZERO, 0u64);
    let insert_ns = ns_per_unit(budget, || {
        let distribution = RobustSoliton::for_code_length(k).expect("k = 2048 is a valid length");
        let mut encoder = LtEncoder::new(natives.clone(), distribution).expect("k natives");
        let mut decoder = BpDecoder::new(k, m);
        let mut rng = SmallRng::seed_from_u64(seed ^ encoded);
        let (mut insert_time, mut inserted) = (Duration::ZERO, 0u64);
        while !decoder.is_complete() {
            let started = Instant::now();
            let batch: Vec<EncodedPacket> = (0..64).map(|_| encoder.encode(&mut rng)).collect();
            encode_time += started.elapsed();
            encoded += batch.len() as u64;
            inserted += batch.len() as u64;
            let started = Instant::now();
            for packet in batch {
                black_box(decoder.insert(packet).expect("packets match the decoder's shape"));
            }
            insert_time += started.elapsed();
        }
        (insert_time, inserted)
    });
    out.push(("lt.bp_insert_ns", insert_ns));
    out.push(("lt.encode_ns", encode_time.as_nanos() as f64 / encoded as f64));
}

/// `envelope.*` at each socket workload's payload-frame shape, and
/// `stream.reframe_ns` over the fetch's frames in MSS-sized reads.
fn envelope_and_stream(seed: u64, budget: Duration, out: &mut Metrics) {
    let shapes = [
        (16, 256, "envelope.encode_m256_ns", "envelope.decode_view_m256_ns"),
        (32, 512, "envelope.encode_m512_ns", "envelope.decode_view_m512_ns"),
        (64, 1024, "envelope.encode_m1024_ns", "envelope.decode_view_m1024_ns"),
    ];
    let header = data_header(MessageKind::DataPayload);
    for (k, m, encode_name, decode_name) in shapes {
        let message = payload_message(seed, k, m);
        let ns = ns_per_call(budget, 256, || drop(black_box(encode(&header, black_box(&message)))));
        out.push((encode_name, ns));
        let bytes = encode(&header, &message);
        let ns = ns_per_call(budget, 256, || drop(black_box(decode_view(black_box(&bytes)))));
        out.push((decode_name, ns));
    }

    let frames = 256;
    let stream: Vec<u8> =
        (0..frames).flat_map(|i| encode(&header, &payload_message(seed ^ i, 64, 1024))).collect();
    let ns = ns_per_unit(budget, || {
        let mut reassembler = FrameReassembler::new();
        let mut seen = 0;
        let started = Instant::now();
        for chunk in stream.chunks(1460) {
            reassembler.extend(chunk);
            while let Some(view) = reassembler.next_frame_view().expect("well-formed stream") {
                black_box(&view);
                seen += 1;
            }
        }
        let time = started.elapsed();
        assert_eq!(seen, frames, "every frame must come back out");
        (time, seen)
    });
    out.push(("stream.reframe_ns", ns));
}

/// `reactor.timer_wheel_ns`: 200 nodes' 10 ms ticks through the wheel.
fn timer_wheel(budget: Duration, out: &mut Metrics) {
    let tick = Duration::from_millis(10);
    let origin = Instant::now();
    let mut wheel = TimerWheel::new(Duration::from_millis(1), 512, origin);
    let mut now = origin;
    let ns = ns_per_unit(budget, || {
        let started = Instant::now();
        for _ in 0..200 {
            wheel.schedule_at(now + tick);
        }
        now += tick;
        let fired = wheel.poll_expired(now).len() as u64;
        (started.elapsed(), fired)
    });
    assert!(wheel.is_empty(), "every scheduled timer must have fired");
    out.push(("reactor.timer_wheel_ns", ns));
}

/// `serve.store_*`, `session.*`: the warm ring's hit and miss paths and
/// the session layer's split, shared deliver and reassembly, at the
/// fetch workload's k = 64, m = 1024.
fn serve_and_session(seed: u64, budget: Duration, out: &mut Metrics) {
    let (k, m) = (crate::fetch::K, crate::fetch::M);
    let params = SchemeParams::new(SchemeKind::Ltnc, k, m);
    let generation = seed::bytes(seed, k * m);

    let capacity = 4 * k as u64;
    let store = ObjectStore::new(capacity as usize).expect("a valid capacity");
    store.register(1, &generation, params).expect("a fresh id");
    for seq in 0..capacity {
        black_box(store.symbol(1, 0, seq));
    }
    let mut seq = 0;
    let ns = ns_per_call(budget, 256, || {
        black_box(store.symbol(1, 0, seq % capacity));
        seq += 1;
    });
    out.push(("serve.store_hit_ns", ns));

    let mut id = 1;
    let ns = ns_per_unit(budget, || {
        // A cold ring: every symbol up to its capacity is encoded on
        // demand.
        id += 1;
        store.register(id, &generation, params).expect("a fresh id");
        let started = Instant::now();
        for seq in 0..capacity {
            black_box(store.symbol(id, 0, seq));
        }
        (started.elapsed(), capacity)
    });
    out.push(("serve.store_miss_us", ns * 1e-3));

    let (source, packets) = coded_packets(seed, k, m, 4 * k);
    let manifest = *source.manifest();
    let ns = ns_per_unit(budget, || {
        let receiver = SharedReceiver::new(manifest);
        let started = Instant::now();
        let mut delivered = 0;
        for packet in &packets {
            if receiver.is_complete() {
                break;
            }
            black_box(receiver.deliver(0, packet));
            delivered += 1;
        }
        (started.elapsed(), delivered)
    });
    out.push(("session.shared_deliver_ns", ns));

    let object = seed::bytes(seed ^ 1, crate::fetch::OBJECT_LEN);
    let ns = ns_per_call(budget, 1, || drop(black_box(split_object(black_box(&object), params))));
    out.push(("session.split_ms", ns * 1e-6));

    let mut source = SourceSession::new(&object, params);
    let receiver = SharedReceiver::new(*source.manifest());
    let mut rng = SmallRng::seed_from_u64(seed);
    while !receiver.is_complete() {
        let (generation, packet) = source
            .make_packet(&mut rng, |g| !receiver.generation_complete(g))
            .expect("incomplete generations remain");
        receiver.deliver(generation, &packet);
    }
    let ns = ns_per_call(budget, 1, || {
        let rebuilt = black_box(receiver.reassemble()).expect("a complete receiver");
        assert_eq!(rebuilt.len(), object.len());
    });
    out.push(("session.reassemble_ms", ns * 1e-6));
}

/// `metrics.loghist_record_ns`: paid once per delivered symbol on every
/// socket workload.
fn loghist(budget: Duration, out: &mut Metrics) {
    let histogram = LogHistogram::new();
    let mut value = 1u64;
    let ns = ns_per_call(budget, 4096, || {
        value = value.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        histogram.record(black_box(value >> 44));
    });
    black_box(histogram.snapshot());
    out.push(("metrics.loghist_record_ns", ns));
}

/// Runs every probe, spending about `budget` of measured time on each
/// metric.
pub fn run(seed: u64, budget: Duration, out: &mut Metrics) {
    gf2(seed, budget, out);
    lt(seed, budget, out);
    envelope_and_stream(seed, budget, out);
    timer_wheel(budget, out);
    serve_and_session(seed, budget, out);
    loghist(budget, out);
}
