//! Structure-aware fuzz of both decode entry points. Valid frames of all
//! ten kinds are built, then mutated — one byte set to a random value,
//! cuts at random points, frames concatenated — and fed to
//! `envelope::decode_view` (one datagram) and to `FrameReassembler` (a
//! stream, in random chunks). Neither may panic, and every frame either
//! path decodes must re-encode to the exact bytes it came from, with only
//! the padding bits of a code-vector bitmap cleared: the decoder masks
//! them, so they are the one part of a frame that is not canonical. Code
//! vectors range from k = 1 to 2048 and from degree ≈ 1 to 30 % of k, so
//! both of their wire forms, the bitmap and the index list, occur. The
//! summaries of `ABORT-SUMMARY` and `ACCEPT-SUMMARY` frames are random
//! decoded sets and partitions, which must decode to a summary that re-encodes to the exact
//! bytes: a summary has no padding bit the decoder forgives.

use ltnc_gf2::wire::{self, FIXED_HEADER_BYTES};
use ltnc_gf2::{CodeVector, EncodedPacket, Payload};
use ltnc_net::envelope::{
    self, Envelope, EnvelopeHeader, Message, MessageKind, TraceContext, DATA_PREFIX_BYTES,
    GENERATION_OBJECT,
};
use ltnc_net::stream::FrameReassembler;
use ltnc_scheme::{LtncSchemeNode, Scheme, SchemeKind, Summary};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const KINDS: [MessageKind; 10] = [
    MessageKind::DataHeader,
    MessageKind::DataPayload,
    MessageKind::FeedbackAbort,
    MessageKind::FeedbackAccept,
    MessageKind::Complete,
    MessageKind::Request,
    MessageKind::Manifest,
    MessageKind::Reject,
    MessageKind::AbortSummary,
    MessageKind::AcceptSummary,
];

/// A packet of k in 1..=2048 whose natives are each drawn with a density
/// log-uniform between 1/k and 0.3.
fn random_packet(rng: &mut SmallRng) -> EncodedPacket {
    let k = rng.gen_range(1..=2048usize);
    let sparsest = (1.0 / k as f64).min(0.3);
    let density = sparsest * (0.3 / sparsest).powf(rng.gen::<f64>());
    let mut vector = CodeVector::zero(k);
    for i in 0..k {
        if rng.gen_bool(density) {
            vector.set(i);
        }
    }
    let mut payload = vec![0u8; rng.gen_range(0..64usize)];
    rng.fill(&mut payload[..]);
    EncodedPacket::new(vector, Payload::from_vec(payload))
}

/// The summary of a random receiver of k in 1..=300: each native decoded
/// with a random probability, the rest in a random number of components.
fn random_summary(rng: &mut SmallRng) -> Summary {
    let k = rng.gen_range(1..=300usize);
    let (decoded, groups) = (rng.gen::<f64>(), rng.gen_range(1..=k));
    let labels: Vec<usize> =
        (0..k).map(|_| if rng.gen_bool(decoded) { 0 } else { rng.gen_range(1..=groups) }).collect();
    Summary::from_labels(&labels)
}

/// One valid frame of `kind` with random fields.
fn valid_frame(kind: MessageKind, rng: &mut SmallRng) -> Vec<u8> {
    let trace = TraceContext { origin_micros: rng.gen(), hop: rng.gen::<u32>() as u16 };
    let transfer = rng.gen();
    let message = match kind {
        MessageKind::DataHeader => {
            let packet = random_packet(rng);
            let (payload_size, vector) = (packet.payload_size(), packet.vector().clone());
            Message::DataHeader { transfer, trace, payload_size, vector }
        }
        MessageKind::DataPayload => {
            Message::DataPayload { transfer, trace, packet: random_packet(rng) }
        }
        MessageKind::FeedbackAbort => Message::Feedback { transfer, accept: false },
        MessageKind::FeedbackAccept => Message::Feedback { transfer, accept: true },
        MessageKind::Complete => Message::Complete,
        MessageKind::Request => Message::Request,
        MessageKind::Manifest => Message::Manifest {
            object_len: rng.gen(),
            code_length: rng.gen_range(1..=envelope::MAX_CODE_LENGTH as u32),
            payload_size: rng.gen_range(1..=envelope::MAX_PAYLOAD_SIZE as u32),
        },
        MessageKind::Reject => Message::Reject,
        MessageKind::AbortSummary | MessageKind::AcceptSummary => {
            let accept = kind == MessageKind::AcceptSummary;
            Message::FeedbackSummary { transfer, accept, summary: random_summary(rng) }
        }
    };
    let scheme = SchemeKind::ALL[rng.gen_range(0..SchemeKind::ALL.len())];
    let generation = if rng.gen_bool(0.1) { GENERATION_OBJECT } else { rng.gen() };
    envelope::encode(&EnvelopeHeader { kind, scheme, session: rng.gen(), generation }, &message)
}

/// Valid frames back to back, then up to three mutations: a byte set to a
/// random value, or the input cut at a random point.
fn mutated_input(seed: u64) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut input = Vec::new();
    for _ in 0..rng.gen_range(1..4) {
        input.extend(valid_frame(KINDS[rng.gen_range(0..KINDS.len())], &mut rng));
    }
    for _ in 0..rng.gen_range(0..4) {
        if input.is_empty() {
            break;
        }
        let at = rng.gen_range(0..input.len());
        if rng.gen_bool(0.7) {
            input[at] = rng.gen();
        } else {
            input.truncate(at);
        }
    }
    input
}

/// The code vector of a decoded data frame.
fn vector_of(decoded: &Envelope) -> Option<&CodeVector> {
    match &decoded.message {
        Message::DataHeader { vector, .. } => Some(vector),
        Message::DataPayload { packet, .. } => Some(packet.vector()),
        _ => None,
    }
}

/// The oracle: `frame` with the padding bits of its bitmap cleared, if its
/// vector is one (`c = 0`), which is what `encode` of the `decoded` frame
/// must produce.
fn canonical(frame: &[u8], decoded: &Envelope) -> Vec<u8> {
    let mut bytes = frame.to_vec();
    let Some(k) = vector_of(decoded).map(CodeVector::len) else {
        return bytes;
    };
    let form = DATA_PREFIX_BYTES + FIXED_HEADER_BYTES;
    if bytes[form] == 0 && k % 8 != 0 {
        bytes[form + 1 + k / 8] &= (1u8 << (k % 8)) - 1;
    }
    bytes
}

#[test]
fn the_generator_builds_every_kind_and_mutates() {
    let mut kinds = std::collections::HashSet::new();
    let (mut decoded, mut refused, mut bitmaps, mut lists) = (0, 0, 0, 0);
    for seed in 0..600 {
        let input = mutated_input(seed);
        let mut reassembler = FrameReassembler::new();
        reassembler.extend(&input);
        while let Ok(Some(frame)) = reassembler.next_frame_view() {
            kinds.insert(frame.header.kind);
            if let Some(vector) = vector_of(&frame.into_owned()) {
                // The list is chosen only when it is shorter than the bitmap.
                if wire::vector_size(vector) == 1 + vector.len().div_ceil(8) {
                    bitmaps += 1;
                } else {
                    lists += 1;
                }
            }
        }
        if envelope::decode_view(&input).is_ok() {
            decoded += 1;
        } else {
            refused += 1;
        }
    }
    assert_eq!(kinds.len(), KINDS.len(), "decoded frames must span every kind");
    assert!(bitmaps > 20 && lists > 20, "{bitmaps} bitmap and {lists} list vectors");
    // Both outcomes of a datagram decode are common enough to exercise.
    assert!(decoded > 20 && refused > 20, "{decoded} decoded, {refused} refused");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A mutated buffer as one datagram: an error, or a frame that
    /// re-encodes to the buffer itself.
    #[test]
    fn mutated_datagrams_decode_canonically_or_error(seed in any::<u64>()) {
        let input = mutated_input(seed);
        if let Ok(decoded) = envelope::decode_view(&input) {
            let decoded = decoded.into_owned();
            prop_assert_eq!(envelope::encode_envelope(&decoded), canonical(&input, &decoded));
        }
    }

    /// The same bytes as a stream in random chunks: the frames that come
    /// out re-encode to the input, back to back, and the stream either
    /// waits for more or dies with a typed error.
    #[test]
    fn mutated_streams_reassemble_canonically_or_error(
        seed in any::<u64>(),
        chunks in proptest::collection::vec(1usize..90, 1..40),
    ) {
        let input = mutated_input(seed);
        let mut reassembler = FrameReassembler::new();
        let (mut fed, mut consumed) = (0, 0);
        'stream: for size in chunks.into_iter().chain(std::iter::repeat(usize::MAX)) {
            if fed == input.len() {
                break;
            }
            let end = fed.saturating_add(size).min(input.len());
            reassembler.extend(&input[fed..end]);
            fed = end;
            loop {
                match reassembler.next_frame_view() {
                    Ok(Some(decoded)) => {
                        let decoded = decoded.into_owned();
                        let bytes = envelope::encode_envelope(&decoded);
                        let frame = &input[consumed..consumed + bytes.len()];
                        prop_assert_eq!(&bytes, &canonical(frame, &decoded));
                        consumed += bytes.len();
                    }
                    Ok(None) => break,
                    Err(_) => break 'stream,
                }
            }
            prop_assert_eq!(reassembler.pending_bytes(), fed - consumed);
        }
    }
}

/// A relay of an object of `k` natives that took in `count` random
/// natives and pairs: its decoded set and components are all it holds.
fn relay(k: usize, natives: &[Payload], count: usize, rng: &mut SmallRng) -> LtncSchemeNode {
    let mut node = LtncSchemeNode::new(k, natives[0].len());
    for _ in 0..count {
        let (x, y) = (rng.gen_range(0..k), rng.gen_range(0..k));
        let indices = if x == y { vec![x] } else { vec![x, y] };
        let mut payload = Payload::zero(natives[0].len());
        for &i in &indices {
            payload.xor_assign(&natives[i]);
        }
        node.deliver(&EncodedPacket::new(CodeVector::from_indices(k, &indices), payload));
    }
    node
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever summary a peer sends, true, stale, mutated or of another
    /// code length: if the decoder accepts it, a sender builds from it
    /// without panicking, and what it builds is judged by the receiver's
    /// own header check, which refuses exactly what the receiver's
    /// decoded set and components already span.
    #[test]
    fn a_lying_summary_costs_only_its_own_link(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let k = rng.gen_range(2..=64usize);
        let natives: Vec<Payload> =
            (0..k).map(|_| Payload::from_vec((0..4).map(|_| rng.gen()).collect())).collect();
        let mut sender = relay(k, &natives, rng.gen_range(0..2 * k), &mut rng);
        let receiver = relay(k, &natives, rng.gen_range(0..2 * k), &mut rng);
        let truth = receiver.summary(usize::MAX).expect("an LTNC node summarises");
        // The truth, someone else's summary, or either with a byte changed.
        let told = if rng.gen_bool(0.5) { truth.clone() } else { random_summary(&mut rng) };
        let accept = rng.gen();
        let kind = if accept { MessageKind::AcceptSummary } else { MessageKind::AbortSummary };
        let header = EnvelopeHeader { kind, scheme: SchemeKind::Ltnc, session: 1, generation: 0 };
        let message = Message::FeedbackSummary { transfer: 1, accept, summary: told };
        let mut frame = envelope::encode(&header, &message);
        if rng.gen_bool(0.5) {
            let at = rng.gen_range(envelope::FEEDBACK_FRAME_BYTES..frame.len());
            frame[at] = rng.gen();
        }
        let Ok(decoded) = envelope::decode_view(&frame) else { return };
        let Message::FeedbackSummary { summary, .. } = decoded.message else { return };
        let Some(packet) = sender.smart_packet(&summary, &mut rng) else { return };
        let indices: Vec<usize> = packet.vector().iter_ones().collect();
        prop_assert!(indices.len() == 1 || indices.len() == 2);
        let mut expected = Payload::zero(4);
        for &i in &indices {
            expected.xor_assign(&natives[i]);
        }
        prop_assert_eq!(packet.payload(), &expected);
        let labels = truth.labels();
        let spanned = match indices[..] {
            [x] => labels[x] == 0,
            [x, y] => labels[x] == labels[y],
            _ => unreachable!(),
        };
        prop_assert_eq!(receiver.would_accept(packet.vector()), !spanned);
    }
}
