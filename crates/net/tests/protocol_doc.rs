//! Keeps `docs/PROTOCOL.md` honest: the byte-layout tables in the spec
//! are parsed out of the markdown and compared against what
//! `ltnc_net::envelope` actually encodes. If either side changes without
//! the other, this test fails — the spec cannot silently drift from the
//! wire format.

use ltnc_gf2::wire::FIXED_HEADER_BYTES;
use ltnc_gf2::{CodeVector, EncodedPacket, Payload};
use ltnc_net::envelope::{
    self, EnvelopeHeader, Message, MessageKind, TraceContext, DATA_PREFIX_BYTES,
    ENVELOPE_HEADER_BYTES, MAGIC, PROTOCOL_VERSION,
};
use ltnc_scheme::SchemeKind;

fn spec() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/PROTOCOL.md");
    std::fs::read_to_string(path).expect("docs/PROTOCOL.md must exist (see repo docs/)")
}

/// Splits a markdown table row into trimmed cells, stripping backticks.
fn cells(line: &str) -> Vec<String> {
    line.trim()
        .trim_start_matches('|')
        .trim_end_matches('|')
        .split('|')
        .map(|cell| cell.trim().replace('`', ""))
        .collect()
}

/// Data rows of any markdown table whose first cell is in `names` (a
/// numeric second cell separates data rows from table-header rows like
/// `| kind | id | …`).
fn table_rows(spec: &str, names: &[&str]) -> Vec<Vec<String>> {
    spec.lines()
        .filter(|line| line.trim_start().starts_with('|'))
        .map(cells)
        .filter(|row| row.first().is_some_and(|name| names.contains(&name.as_str())))
        .filter(|row| row.get(1).is_some_and(|id| id.parse::<u64>().is_ok()))
        .collect()
}

/// The reference test vectors the spec's size column documents:
/// `k = 21`, `m = 9`.
fn sample_packet() -> EncodedPacket {
    EncodedPacket::new(CodeVector::from_indices(21, &[0, 5, 20]), Payload::from_vec(vec![7; 9]))
}

fn header(kind: MessageKind) -> EnvelopeHeader {
    EnvelopeHeader { kind, scheme: SchemeKind::Ltnc, session: 0x0B0E, generation: 2 }
}

/// Encodes the reference frame for one documented kind.
fn reference_frame(kind_name: &str) -> (MessageKind, Vec<u8>) {
    let packet = sample_packet();
    match kind_name {
        "DATA-HEADER" => (
            MessageKind::DataHeader,
            envelope::encode(
                &header(MessageKind::DataHeader),
                &Message::DataHeader {
                    transfer: 1,
                    trace: TraceContext { origin_micros: 1_000_000, hop: 1 },
                    payload_size: packet.payload_size(),
                    vector: packet.vector().clone(),
                },
            ),
        ),
        "DATA-PAYLOAD" => (
            MessageKind::DataPayload,
            envelope::encode(
                &header(MessageKind::DataPayload),
                &Message::DataPayload {
                    transfer: 2,
                    trace: TraceContext { origin_micros: 1_000_000, hop: 1 },
                    packet,
                },
            ),
        ),
        "FEEDBACK-ABORT" => (
            MessageKind::FeedbackAbort,
            envelope::encode(
                &header(MessageKind::FeedbackAbort),
                &Message::Feedback { transfer: 3, accept: false },
            ),
        ),
        "FEEDBACK-ACCEPT" => (
            MessageKind::FeedbackAccept,
            envelope::encode(
                &header(MessageKind::FeedbackAccept),
                &Message::Feedback { transfer: 4, accept: true },
            ),
        ),
        "COMPLETE" => (
            MessageKind::Complete,
            envelope::encode(&header(MessageKind::Complete), &Message::Complete),
        ),
        "REQUEST" => (
            MessageKind::Request,
            envelope::encode(&header(MessageKind::Request), &Message::Request),
        ),
        "MANIFEST" => (
            MessageKind::Manifest,
            envelope::encode(
                &header(MessageKind::Manifest),
                &Message::Manifest { object_len: 4096, code_length: 21, payload_size: 9 },
            ),
        ),
        "REJECT" => {
            (MessageKind::Reject, envelope::encode(&header(MessageKind::Reject), &Message::Reject))
        }
        other => panic!("spec documents unknown kind {other:?}"),
    }
}

#[test]
fn header_offset_table_matches_the_encoder() {
    let spec = spec();
    let rows = table_rows(&spec, &["magic", "version", "kind", "scheme", "session", "generation"]);
    assert_eq!(rows.len(), 6, "the header table must document all six fields");

    // What the encoder actually lays down for a known envelope.
    let env_header = EnvelopeHeader {
        kind: MessageKind::Complete,
        scheme: SchemeKind::Rlnc,
        session: 0x1122_3344_5566_7788,
        generation: 0xAABB_CCDD,
    };
    let bytes = envelope::encode(&env_header, &Message::Complete);

    let mut covered = 0usize;
    for row in rows {
        let name = row[0].as_str();
        let offset: usize = row[1].parse().unwrap_or_else(|_| panic!("{name}: bad offset"));
        let size: usize = row[2].parse().unwrap_or_else(|_| panic!("{name}: bad size"));
        covered += size;
        match name {
            "magic" => {
                assert_eq!((offset, size), (0, 4));
                assert_eq!(&bytes[offset..offset + size], &MAGIC);
            }
            "version" => {
                assert_eq!((offset, size), (4, 1));
                assert_eq!(bytes[offset], PROTOCOL_VERSION);
                assert!(row[3].contains('3'), "documented version must be 3");
            }
            "kind" => {
                assert_eq!((offset, size), (5, 1));
                assert_eq!(bytes[offset], MessageKind::Complete as u8);
            }
            "scheme" => {
                assert_eq!((offset, size), (6, 1));
                assert_eq!(bytes[offset], SchemeKind::Rlnc.wire_id());
                // The documented scheme ids must match wire_id().
                for kind in SchemeKind::ALL {
                    let label = format!("{} = {}", kind.wire_id(), kind.label().to_uppercase());
                    assert!(
                        row[3].to_uppercase().contains(&label),
                        "scheme row must document {label:?}, got {:?}",
                        row[3]
                    );
                }
            }
            "session" => {
                assert_eq!((offset, size), (7, 8));
                assert_eq!(
                    u64::from_le_bytes(bytes[offset..offset + size].try_into().unwrap()),
                    env_header.session
                );
            }
            "generation" => {
                assert_eq!((offset, size), (15, 4));
                assert_eq!(
                    u32::from_le_bytes(bytes[offset..offset + size].try_into().unwrap()),
                    env_header.generation
                );
            }
            other => panic!("unexpected field {other}"),
        }
    }
    assert_eq!(covered, ENVELOPE_HEADER_BYTES, "fields must tile the whole header");
}

#[test]
fn kind_table_ids_and_frame_sizes_match_the_encoder() {
    let spec = spec();
    let names = [
        "DATA-HEADER",
        "DATA-PAYLOAD",
        "FEEDBACK-ABORT",
        "FEEDBACK-ACCEPT",
        "COMPLETE",
        "REQUEST",
        "MANIFEST",
        "REJECT",
    ];
    let rows = table_rows(&spec, &names);
    assert_eq!(rows.len(), names.len(), "the kind table must document all eight kinds");

    for row in rows {
        let name = row[0].as_str();
        let documented_id: u8 = row[1].parse().unwrap_or_else(|_| panic!("{name}: bad id"));
        let documented_len: usize =
            row[3].parse().unwrap_or_else(|_| panic!("{name}: bad frame size {:?}", row[3]));
        let (kind, frame) = reference_frame(name);
        assert_eq!(documented_id, kind as u8, "{name}: wire id drifted");
        assert_eq!(
            documented_len,
            frame.len(),
            "{name}: documented reference frame size drifted from encode output"
        );
        // The id column must also round-trip through the decoder.
        assert_eq!(
            envelope::decode_view(&frame).expect("reference frame decodes").header.kind,
            kind
        );
    }
}

#[test]
fn code_vector_form_table_matches_the_encoder() {
    let spec = spec();
    let rows = table_rows(&spec, &["bitmap", "list"]);
    let forms: Vec<&str> = rows.iter().map(|row| row[0].as_str()).collect();
    assert_eq!(forms, ["bitmap", "list"], "the spec must give one reference vector per form");
    for row in rows {
        let k: usize = row[1].parse().expect("k");
        let natives: Vec<usize> =
            row[2].split(',').map(|native| native.trim().parse().expect("native")).collect();
        let documented: Vec<u8> = row[3]
            .split_whitespace()
            .map(|byte| u8::from_str_radix(byte, 16).expect("hex byte"))
            .collect();
        // The vector as a DATA-HEADER carries it: after the envelope's
        // data prefix, `k` and `m`.
        let frame = envelope::encode(
            &header(MessageKind::DataHeader),
            &Message::DataHeader {
                transfer: 1,
                trace: TraceContext { origin_micros: 1_000_000, hop: 1 },
                payload_size: 9,
                vector: CodeVector::from_indices(k, &natives),
            },
        );
        assert_eq!(&frame[DATA_PREFIX_BYTES + FIXED_HEADER_BYTES..], documented, "{}", row[0]);
        assert_eq!(documented[0] == 0, row[0] == "bitmap", "c = 0 is the bitmap form");
    }
}

#[test]
fn documented_safety_caps_match_the_code() {
    let spec = spec();
    assert!(
        spec.contains("2^20") && spec.contains("2^24"),
        "spec must document the dimension caps"
    );
    assert_eq!(envelope::MAX_CODE_LENGTH, 1 << 20);
    assert_eq!(envelope::MAX_PAYLOAD_SIZE, 1 << 24);
}
