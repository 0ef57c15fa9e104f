//! Property tests of the stream binding: a valid envelope stream decodes
//! to the same frames under *every* chunking of its bytes, whether a code
//! vector travels as a bitmap or as an index list, and hostile bytes never
//! panic the reassembler.

use ltnc_gf2::{wire, CodeVector, EncodedPacket, Payload};
use ltnc_net::envelope::{self, Envelope, EnvelopeHeader, Message, MessageKind, GENERATION_OBJECT};
use ltnc_net::stream::FrameReassembler;
use ltnc_scheme::SchemeKind;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn header(kind: MessageKind, scheme: SchemeKind, generation: u32) -> EnvelopeHeader {
    EnvelopeHeader { kind, scheme, session: 0xD0_5E55, generation }
}

fn random_trace(rng: &mut SmallRng) -> envelope::TraceContext {
    envelope::TraceContext { origin_micros: rng.gen(), hop: rng.gen::<u32>() as u16 }
}

/// Half the packets are dense over k < 64, so their vectors keep the
/// bitmap; the other half name about eight natives of a k up to 2048, so
/// theirs go on the wire as index lists.
fn random_packet(rng: &mut SmallRng) -> EncodedPacket {
    let (k, density) = if rng.gen_bool(0.5) {
        (rng.gen_range(1..64usize), 0.4)
    } else {
        let k = rng.gen_range(64..=2048usize);
        (k, 8.0 / k as f64)
    };
    let m = rng.gen_range(1..100usize);
    let mut vector = CodeVector::zero(k);
    for i in 0..k {
        if rng.gen_bool(density) {
            vector.set(i);
        }
    }
    if vector.is_zero() {
        vector.set(rng.gen_range(0..k));
    }
    let mut payload = vec![0u8; m];
    rng.fill(&mut payload[..]);
    EncodedPacket::new(vector, Payload::from_vec(payload))
}

/// A random but valid envelope stream exercising every message kind.
fn random_stream(seed: u64, frames: usize) -> (Vec<Envelope>, Vec<u8>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut envelopes = Vec::with_capacity(frames);
    for _ in 0..frames {
        let scheme = SchemeKind::ALL[rng.gen_range(0..3)];
        let generation = rng.gen_range(0..4u32);
        let message = match rng.gen_range(0..8u8) {
            0 => Message::Complete,
            1 => Message::Feedback { transfer: rng.gen(), accept: rng.gen_bool(0.5) },
            2 => Message::Request,
            3 => Message::Reject,
            4 => Message::Manifest {
                object_len: rng.gen_range(0..1_000_000),
                code_length: rng.gen_range(1..512),
                payload_size: rng.gen_range(1..4096),
            },
            5 => {
                let packet = random_packet(&mut rng);
                Message::DataHeader {
                    transfer: rng.gen(),
                    trace: random_trace(&mut rng),
                    payload_size: packet.payload_size(),
                    vector: packet.vector().clone(),
                }
            }
            _ => Message::DataPayload {
                transfer: rng.gen(),
                trace: random_trace(&mut rng),
                packet: random_packet(&mut rng),
            },
        };
        let kind = message.kind();
        let generation = if kind == MessageKind::Request { GENERATION_OBJECT } else { generation };
        envelopes.push(Envelope { header: header(kind, scheme, generation), message });
    }
    let bytes = envelopes.iter().flat_map(envelope::encode_envelope).collect();
    (envelopes, bytes)
}

/// Feeds `stream` chunked at `splits` and returns every decoded frame.
fn decode_chunked(stream: &[u8], chunk_sizes: impl Iterator<Item = usize>) -> Vec<Envelope> {
    let mut reassembler = FrameReassembler::new();
    let mut decoded = Vec::new();
    let mut offset = 0;
    for size in chunk_sizes {
        if offset >= stream.len() {
            break;
        }
        let end = (offset + size.max(1)).min(stream.len());
        reassembler.extend(&stream[offset..end]);
        offset = end;
        while let Some(envelope) = reassembler.next_frame_view().expect("valid stream") {
            decoded.push(envelope.into_owned());
        }
    }
    // Whatever the chunking left over, deliver it.
    if offset < stream.len() {
        reassembler.extend(&stream[offset..]);
        while let Some(envelope) = reassembler.next_frame_view().expect("valid stream") {
            decoded.push(envelope.into_owned());
        }
    }
    assert_eq!(reassembler.pending_bytes(), 0, "no residue after a whole stream");
    decoded
}

#[test]
fn every_one_byte_chunking_decodes_identically() {
    let (envelopes, stream) = random_stream(7, 24);
    let decoded = decode_chunked(&stream, std::iter::repeat(1));
    assert_eq!(decoded, envelopes);
}

#[test]
fn a_batch_encoded_into_one_buffer_is_the_frames_of_encode_back_to_back() {
    let (envelopes, stream) = random_stream(19, 200);
    let kinds: std::collections::HashSet<MessageKind> =
        envelopes.iter().map(|envelope| envelope.header.kind).collect();
    assert_eq!(kinds.len(), 8, "the stream must exercise every message kind");
    let forms = envelopes
        .iter()
        .filter_map(|envelope| match &envelope.message {
            Message::DataHeader { vector, .. } => Some(vector),
            Message::DataPayload { packet, .. } => Some(packet.vector()),
            _ => None,
        })
        .map(|vector| wire::vector_size(vector) < 1 + vector.len().div_ceil(8))
        .fold([0, 0], |mut forms, list| {
            forms[usize::from(list)] += 1;
            forms
        });
    assert!(forms.iter().all(|&n| n > 10), "[bitmaps, lists] = {forms:?}");

    // What a batching sender does: every frame appended to whatever the
    // buffer already holds.
    let mut batch = Vec::new();
    for Envelope { header, message } in &envelopes {
        envelope::encode_into(&mut batch, header, message);
    }
    assert_eq!(batch, stream);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any chunking of a valid stream yields exactly the frames that were
    /// encoded, in order.
    #[test]
    fn random_chunkings_decode_identically(
        seed in any::<u64>(),
        frames in 1usize..20,
        chunks in proptest::collection::vec(1usize..80, 1..200),
    ) {
        let (envelopes, stream) = random_stream(seed, frames);
        let decoded = decode_chunked(&stream, chunks.into_iter());
        prop_assert_eq!(decoded, envelopes);
    }

    /// Hostile bytes never panic: the reassembler either waits for more
    /// input or reports a fatal framing error, whatever garbage arrives
    /// in whatever pieces.
    #[test]
    fn hostile_prefixes_never_panic(
        garbage in proptest::collection::vec(any::<u8>(), 0..400),
        chunk in 1usize..50,
    ) {
        let mut reassembler = FrameReassembler::new();
        let mut dead = false;
        for piece in garbage.chunks(chunk) {
            reassembler.extend(piece);
            loop {
                match reassembler.next_frame_view() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if dead {
                break;
            }
        }
    }

    /// A valid stream with its tail cut off decodes every whole frame and
    /// then just waits — truncation is indistinguishable from latency.
    #[test]
    fn truncated_streams_wait_instead_of_failing(
        seed in any::<u64>(),
        frames in 1usize..10,
        cut_back in 1usize..40,
    ) {
        let (_, stream) = random_stream(seed, frames);
        let keep = stream.len().saturating_sub(cut_back);
        let mut reassembler = FrameReassembler::new();
        reassembler.extend(&stream[..keep]);
        loop {
            match reassembler.next_frame_view() {
                Ok(Some(_)) => {}
                Ok(None) => break, // waiting for the missing tail: correct
                Err(e) => panic!("valid prefix errored: {e}"),
            }
        }
    }
}
