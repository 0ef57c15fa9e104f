//! Property tests driving the codec and the stream binding through the
//! fault harness: serving-handshake round-trips under generated fields,
//! and `FrameReassembler` fed by a `FaultyStream` never panicking and
//! never yielding a frame that was not sent.

use std::collections::HashSet;
use std::io::{Cursor, Read};

use ltnc_gf2::{CodeVector, EncodedPacket, Payload};
use ltnc_net::envelope::{
    self, Envelope, EnvelopeHeader, Message, MessageKind, TraceContext, GENERATION_OBJECT,
    MAX_CODE_LENGTH, MAX_PAYLOAD_SIZE,
};
use ltnc_net::faults::{FaultPlan, FaultyStream};
use ltnc_net::stream::FrameReassembler;
use ltnc_net::NetError;
use ltnc_scheme::SchemeKind;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn scheme_from(index: u64) -> SchemeKind {
    SchemeKind::ALL[(index % 3) as usize]
}

/// A small random packet: the data kinds are the two variable-length
/// frames, so their lengths must vary too.
fn small_packet(rng: &mut SmallRng) -> EncodedPacket {
    let k = rng.gen_range(1..40usize);
    let mut vector = CodeVector::zero(k);
    for i in 0..k {
        if rng.gen_bool(0.4) {
            vector.set(i);
        }
    }
    let mut payload = vec![0u8; rng.gen_range(0..48usize)];
    rng.fill(&mut payload[..]);
    EncodedPacket::new(vector, Payload::from_vec(payload))
}

/// A deterministic valid multi-frame stream (reuses every message kind).
fn handshake_stream(seed: u64, frames: usize) -> (Vec<Envelope>, Vec<u8>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut envelopes = Vec::with_capacity(frames);
    for _ in 0..frames {
        let scheme = scheme_from(rng.gen::<u64>());
        let trace = TraceContext { origin_micros: rng.gen(), hop: rng.gen_range(0..16) };
        let (kind, message) = match rng.gen_range(0..8u8) {
            0 => (MessageKind::Request, Message::Request),
            1 => (
                MessageKind::Manifest,
                Message::Manifest {
                    object_len: rng.gen_range(0..1 << 40),
                    code_length: rng.gen_range(1..=MAX_CODE_LENGTH as u32),
                    payload_size: rng.gen_range(1..=MAX_PAYLOAD_SIZE as u32),
                },
            ),
            2 => (MessageKind::Reject, Message::Reject),
            3 => (MessageKind::Complete, Message::Complete),
            4 => (
                MessageKind::FeedbackAccept,
                Message::Feedback { transfer: rng.gen(), accept: true },
            ),
            5 => {
                let packet = small_packet(&mut rng);
                let (payload_size, vector) = (packet.payload_size(), packet.vector().clone());
                let offer =
                    Message::DataHeader { transfer: rng.gen(), trace, payload_size, vector };
                (MessageKind::DataHeader, offer)
            }
            6 => (
                MessageKind::DataPayload,
                Message::DataPayload { transfer: rng.gen(), trace, packet: small_packet(&mut rng) },
            ),
            _ => (
                MessageKind::FeedbackAbort,
                Message::Feedback { transfer: rng.gen(), accept: false },
            ),
        };
        envelopes.push(Envelope {
            header: EnvelopeHeader {
                kind,
                scheme,
                session: rng.gen(),
                generation: if kind == MessageKind::Request {
                    GENERATION_OBJECT
                } else {
                    rng.gen_range(0..64)
                },
            },
            message,
        });
    }
    let bytes = envelopes.iter().flat_map(envelope::encode_envelope).collect();
    (envelopes, bytes)
}

/// Reads `stream` to its end (EOF or injected error), feeding the
/// reassembler, returning the decoded frames and whether framing died.
fn reassemble_through(
    mut stream: FaultyStream<Cursor<Vec<u8>>>,
) -> (Vec<Envelope>, Result<(), NetError>) {
    reassemble_through_ref(&mut stream)
}

/// [`reassemble_through`] over a borrowed stream (so callers can inspect
/// the stream's fault accounting afterwards).
fn reassemble_through_ref(
    stream: &mut FaultyStream<Cursor<Vec<u8>>>,
) -> (Vec<Envelope>, Result<(), NetError>) {
    let mut reassembler = FrameReassembler::new();
    let mut decoded = Vec::new();
    let mut buf = [0u8; 97];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => reassembler.extend(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => continue,
            Err(_) => break, // injected disconnect
        }
        loop {
            match reassembler.next_frame_view() {
                Ok(Some(envelope)) => decoded.push(envelope.into_owned()),
                Ok(None) => break,
                Err(fatal) => return (decoded, Err(fatal)),
            }
        }
    }
    (decoded, Ok(()))
}

#[test]
fn handshake_streams_cover_every_kind() {
    let (envelopes, _) = handshake_stream(3, 200);
    let kinds: HashSet<MessageKind> =
        envelopes.iter().map(|envelope| envelope.header.kind).collect();
    assert_eq!(kinds.len(), 8, "the fault properties must reach every message kind");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// REQUEST/MANIFEST/REJECT (and the rest of the control plane)
    /// round-trip bit-exactly under arbitrary field values.
    #[test]
    fn serving_handshake_roundtrips_under_generated_fields(
        object_id in any::<u64>(),
        scheme_index in any::<u64>(),
        object_len in 0u64..(1 << 40),
        code_length in 1u32..=(MAX_CODE_LENGTH as u32),
        payload_size in 1u32..=(MAX_PAYLOAD_SIZE as u32),
    ) {
        let scheme = scheme_from(scheme_index);
        let request = Envelope {
            header: EnvelopeHeader {
                kind: MessageKind::Request,
                scheme,
                session: object_id,
                generation: GENERATION_OBJECT,
            },
            message: Message::Request,
        };
        let manifest = Envelope {
            header: EnvelopeHeader {
                kind: MessageKind::Manifest,
                scheme,
                session: object_id,
                generation: GENERATION_OBJECT,
            },
            message: Message::Manifest { object_len, code_length, payload_size },
        };
        let reject = Envelope {
            header: EnvelopeHeader {
                kind: MessageKind::Reject,
                scheme,
                session: object_id,
                generation: GENERATION_OBJECT,
            },
            message: Message::Reject,
        };
        for envelope in [request, manifest, reject] {
            let bytes = envelope::encode_envelope(&envelope);
            prop_assert_eq!(envelope::decode_view(&bytes).unwrap().into_owned(), envelope);
            prop_assert_eq!(envelope::decode_prefix(&bytes).unwrap().1, bytes.len());
        }
    }

    /// Manifest dimensions beyond the safety caps must be rejected, not
    /// allocated.
    #[test]
    fn oversized_manifest_dimensions_error(
        excess in 1u32..1000,
        payload_size in 1u32..4096,
    ) {
        let message = Message::Manifest {
            object_len: 1,
            code_length: 1,
            payload_size,
        };
        let header = EnvelopeHeader {
            kind: MessageKind::Manifest,
            scheme: SchemeKind::Ltnc,
            session: 1,
            generation: GENERATION_OBJECT,
        };
        let mut bytes = envelope::encode(&header, &message);
        let k_at = envelope::ENVELOPE_HEADER_BYTES + 8;
        let hostile = MAX_CODE_LENGTH as u32 + excess;
        bytes[k_at..k_at + 4].copy_from_slice(&hostile.to_le_bytes());
        prop_assert!(matches!(
            envelope::decode_view(&bytes),
            Err(NetError::FrameTooLarge { .. })
        ));
    }

    /// Truncation at any byte position, under any fragmentation: the
    /// reassembler yields exactly a prefix of the sent frames — never a
    /// corrupt frame, never a panic.
    #[test]
    fn truncated_streams_yield_only_a_clean_prefix(
        seed in any::<u64>(),
        frames in 1usize..16,
        cut in 0usize..2000,
        fragment in 1usize..64,
    ) {
        let (sent, bytes) = handshake_stream(seed, frames);
        let plan = FaultPlan::clean(seed ^ 0x7C)
            .truncate_read_at(cut as u64)
            .fragment_reads(fragment);
        let (decoded, framing) = reassemble_through(FaultyStream::new(Cursor::new(bytes), plan));
        prop_assert!(framing.is_ok(), "truncation is latency, not corruption: {framing:?}");
        prop_assert!(decoded.len() <= sent.len());
        prop_assert_eq!(&decoded[..], &sent[..decoded.len()], "must be an exact prefix");
    }

    /// A mid-stream disconnect behaves identically to truncation from the
    /// reassembler's point of view: a clean prefix, then nothing.
    #[test]
    fn disconnected_streams_yield_only_a_clean_prefix(
        seed in any::<u64>(),
        frames in 1usize..16,
        cut in 0usize..2000,
    ) {
        let (sent, bytes) = handshake_stream(seed, frames);
        let plan = FaultPlan::clean(seed ^ 0xD15C).disconnect_read_at(cut as u64);
        let (decoded, framing) = reassemble_through(FaultyStream::new(Cursor::new(bytes), plan));
        prop_assert!(framing.is_ok());
        prop_assert_eq!(&decoded[..], &sent[..decoded.len()]);
    }

    /// Byte drops corrupt the framing; the reassembler must either keep
    /// decoding or die with a *typed* error — never panic. (The envelope
    /// carries no checksum, so a drop that splices two frames into
    /// another well-formed frame is not detectable at this layer; what
    /// the harness guarantees is that every frame decoded *before* the
    /// first dropped byte is exactly what was sent.)
    #[test]
    fn dropped_bytes_never_panic_the_reassembler(
        seed in any::<u64>(),
        frames in 1usize..16,
        drop_millis in 1u64..300, // drop rate in thousandths
    ) {
        let (sent, bytes) = handshake_stream(seed, frames);
        let total = bytes.len();
        let plan = FaultPlan::clean(seed ^ 0xD20B).drop_rate(drop_millis as f64 / 1000.0);
        let mut stream = FaultyStream::new(Cursor::new(bytes), plan);
        let (decoded, framing) = reassemble_through_ref(&mut stream);
        // Intact stream (no byte actually dropped): everything decodes.
        if stream.read_delivered() == total as u64 {
            prop_assert!(framing.is_ok());
            prop_assert_eq!(&decoded[..], &sent[..]);
        }
        // Otherwise reaching this line at all is the property: no panic,
        // and `framing` is either Ok or a typed NetError.
    }
}
