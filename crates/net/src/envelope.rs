//! The versioned message envelope and its pure, sans-io codec.
//!
//! Every datagram of the `ltnc-net` protocol starts with a fixed 19-byte
//! envelope header, followed by a kind-specific body:
//!
//! ```text
//! +--------+-----+------+--------+---------------+----------+-----------+
//! | magic  | ver | kind | scheme | session (u64) | gen(u32) | body …    |
//! | "LTNC" | 1 B | 1 B  | 1 B    | 8 B LE        | 4 B LE   |           |
//! +--------+-----+------+--------+---------------+----------+-----------+
//! ```
//!
//! The bodies implement the paper's feedback channel as a two-phase
//! transfer so that an aborted transfer never carries payload bytes:
//!
//! * `DATA-HEADER` — `transfer id (u64 LE)` + a [`TraceContext`]
//!   (`origin-send timestamp (u64 LE µs)` + `hop count (u16 LE)`) + the
//!   *header prefix* of a [`ltnc_gf2::wire`] frame (`k`, `m`, code vector
//!   as a bitmap or an index list, **no payload**). The receiver runs its
//!   innovation / redundancy check on this alone.
//! * `FEEDBACK-ACCEPT` / `FEEDBACK-ABORT` — `transfer id (u64 LE)`; the
//!   receiver's verdict on a pending header.
//! * `ABORT-SUMMARY` / `ACCEPT-SUMMARY` — `transfer id (u64 LE)` + a
//!   [`Summary`]: a verdict that also says which natives the receiver
//!   decoded and how it groups the rest, so the sender's next offers can
//!   be ones it cannot refuse. The kind carries the verdict, as it does
//!   for the plain pair.
//! * `DATA-PAYLOAD` — `transfer id (u64 LE)` + a [`TraceContext`] + a
//!   *complete* `gf2::wire` frame, read only against an accept of that transfer.
//!
//! The trace context is ten bytes that no decision reads: a sender
//! stamps its clock and hop 0 on every offer, and the payload echoes the
//! offer's. The frame layout keeps them until the reference benchmark
//! stops naming [`TraceContext`] (ROADMAP B step 1); delivery latency is
//! measured on the receiver's own clock instead, accept to payload.
//! * `COMPLETE` — empty body; the envelope's generation says which
//!   generation the sender of this message has fully decoded
//!   ([`GENERATION_OBJECT`] means the whole object).
//!
//! Three further kinds carry the `ltnc-serve` request/serve handshake on
//! stream transports (the data plane is the same three-way transfer):
//!
//! * `REQUEST` — empty body; the envelope's `session` field names the
//!   object id the client wants, `scheme` the coding scheme it expects.
//! * `MANIFEST` — `object len (u64 LE)` + `k (u32 LE)` + `m (u32 LE)`:
//!   the server's description of the object about to be served, enough
//!   for the client to size its decode state.
//! * `REJECT` — empty body; the server will not serve the requested
//!   object/scheme.
//!
//! The codec is pure (`&[u8]` → values, values → `Vec<u8>`): no sockets, no
//! I/O. Encoding takes an owned [`Message`]; decoding yields only the
//! borrowed [`EnvelopeView`], whose `DATA-PAYLOAD` bytes stay in the receive
//! buffer. [`decode_prefix`] parses a frame from any prefix in one pass —
//! the view and the bytes it used, or how many bytes the frame needs — and
//! both transports call it: UDP through [`decode_view`], streams through
//! [`crate::stream::FrameReassembler`]. [`decode_header`] needs only
//! [`ENVELOPE_HEADER_BYTES`] bytes, mirroring `gf2::wire::decode_header`'s
//! header-first contract. Truncated or hostile input returns [`NetError`],
//! never panics, and advertised dimensions are capped ([`MAX_CODE_LENGTH`],
//! [`MAX_PAYLOAD_SIZE`]) as soon as their bytes arrive, so a corrupt header
//! cannot drive allocation.

use ltnc_gf2::wire::{self as gf2_wire, PacketView};
use ltnc_gf2::{CodeVector, EncodedPacket, Gf2Error};
use ltnc_scheme::{SchemeKind, Summary, SummaryError};

use crate::NetError;

/// The four ASCII bytes every `ltnc-net` datagram starts with.
pub const MAGIC: [u8; 4] = *b"LTNC";

/// Current protocol version. Version 2 added the [`TraceContext`] to the
/// `DATA-HEADER` and `DATA-PAYLOAD` bodies; version 3 lets the gf2 frame
/// carry its code vector as an index list when that is shorter than the
/// bitmap; version 4 adds `ABORT-SUMMARY`, and version 5 `ACCEPT-SUMMARY`.
/// Frames of other versions are rejected ([`NetError::BadVersion`]), not
/// interpreted.
pub const PROTOCOL_VERSION: u8 = 5;

/// Size of the fixed envelope header.
pub const ENVELOPE_HEADER_BYTES: usize = 4 + 1 + 1 + 1 + 8 + 4;

/// Sentinel generation id meaning "the entire object" in `COMPLETE`.
pub const GENERATION_OBJECT: u32 = u32::MAX;

/// Decoder safety cap on the advertised code length `k`.
pub const MAX_CODE_LENGTH: usize = 1 << 20;

/// Decoder safety cap on the advertised payload size `m`.
pub const MAX_PAYLOAD_SIZE: usize = 1 << 24;

const TRANSFER_ID_BYTES: usize = 8;

/// Bytes of a [`TraceContext`] on the wire: origin timestamp + hop count.
pub const TRACE_CONTEXT_BYTES: usize = 8 + 2;

/// Bytes of a `MANIFEST` body: object length + `k` + `m`.
const MANIFEST_BODY_BYTES: usize = 8 + 4 + 4;

/// Bytes of a `FEEDBACK-ACCEPT` / `FEEDBACK-ABORT` frame: envelope
/// header plus transfer id.
pub const FEEDBACK_FRAME_BYTES: usize = ENVELOPE_HEADER_BYTES + TRANSFER_ID_BYTES;

/// Bytes of a `DATA-HEADER` or `DATA-PAYLOAD` frame ahead of its
/// `gf2::wire` part: envelope header, transfer id, trace context.
pub const DATA_PREFIX_BYTES: usize =
    ENVELOPE_HEADER_BYTES + TRANSFER_ID_BYTES + TRACE_CONTEXT_BYTES;

/// The ten bytes every `DATA-HEADER` and `DATA-PAYLOAD` carries: the
/// offer's send time on its sender's clock and a hop count, always 0.
/// Nothing reads them. The type, its bytes and [`TraceContext::next_hop`]
/// stay only because the reference benchmark builds them (ROADMAP B
/// step 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Microseconds on the sender's clock (since the run began inside a
    /// swarm, since the Unix epoch on a serving connection) when the
    /// offer left.
    pub origin_micros: u64,
    /// Written 0 by every sender.
    pub hop: u16,
}

impl TraceContext {
    /// The current wall clock in the wire's unit (microseconds since the
    /// Unix epoch, saturating) — what a socket-facing caller passes as
    /// `now`.
    #[must_use]
    pub fn now_micros() -> u64 {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
            .unwrap_or(0)
    }

    /// The context every sender stamps: hop 0, `now` (microseconds on
    /// the caller's clock).
    #[must_use]
    pub fn origin_now(now: u64) -> TraceContext {
        TraceContext { origin_micros: now, hop: 0 }
    }

    /// The same origin one hop deeper (saturating). Only the reference
    /// benchmark calls it (ROADMAP B step 1).
    #[must_use]
    pub fn next_hop(self) -> TraceContext {
        TraceContext { origin_micros: self.origin_micros, hop: self.hop.saturating_add(1) }
    }
}

fn encode_trace(out: &mut Vec<u8>, trace: &TraceContext) {
    out.extend_from_slice(&trace.origin_micros.to_le_bytes());
    out.extend_from_slice(&trace.hop.to_le_bytes());
}

fn decode_trace(body: &[u8]) -> TraceContext {
    debug_assert!(body.len() >= TRACE_CONTEXT_BYTES);
    TraceContext {
        origin_micros: u64::from_le_bytes(body[0..8].try_into().expect("8 bytes")),
        hop: u16::from_le_bytes(body[8..10].try_into().expect("2 bytes")),
    }
}

/// Message kind discriminants as they appear on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MessageKind {
    /// Header-only offer of an encoded packet (phase 1 of a transfer).
    DataHeader = 0,
    /// Full packet following an accept (phase 2 of a transfer).
    DataPayload = 1,
    /// Receiver verdict: transfer aborted, do not send the payload.
    FeedbackAbort = 2,
    /// Receiver verdict: payload wanted.
    FeedbackAccept = 3,
    /// Sender of this message has fully decoded a generation (or the whole
    /// object, see [`GENERATION_OBJECT`]).
    Complete = 4,
    /// Client request for the object named by the envelope's `session`
    /// field (serving handshake, stream transports).
    Request = 5,
    /// Server description of the object about to be served.
    Manifest = 6,
    /// Server refusal to serve the requested object/scheme.
    Reject = 7,
    /// Receiver verdict: transfer aborted, and here is what I hold.
    AbortSummary = 8,
    /// Receiver verdict: payload wanted, and here is what I hold.
    AcceptSummary = 9,
}

impl MessageKind {
    fn from_wire(byte: u8) -> Result<Self, NetError> {
        match byte {
            0 => Ok(MessageKind::DataHeader),
            1 => Ok(MessageKind::DataPayload),
            2 => Ok(MessageKind::FeedbackAbort),
            3 => Ok(MessageKind::FeedbackAccept),
            4 => Ok(MessageKind::Complete),
            5 => Ok(MessageKind::Request),
            6 => Ok(MessageKind::Manifest),
            7 => Ok(MessageKind::Reject),
            8 => Ok(MessageKind::AbortSummary),
            9 => Ok(MessageKind::AcceptSummary),
            other => Err(NetError::BadKind(other)),
        }
    }
}

/// The fixed part of every datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvelopeHeader {
    /// Message kind.
    pub kind: MessageKind,
    /// Coding scheme of the session.
    pub scheme: SchemeKind,
    /// Session identifier (one dissemination of one object).
    pub session: u64,
    /// Generation this message concerns.
    pub generation: u32,
}

/// A datagram body. Senders build the owned form, `Message` (the packet of
/// a `DATA-PAYLOAD` is an [`EncodedPacket`]); decoding yields the borrowed
/// form, [`MessageView`], whose packet is a [`PacketView`] into the receive
/// buffer. `P` appears in `DATA-PAYLOAD` only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message<P = EncodedPacket> {
    /// Phase-1 offer: the code vector (and dimensions) of a packet, no
    /// payload.
    DataHeader {
        /// Sender-unique transfer identifier.
        transfer: u64,
        /// The sender's stamp, read by nobody.
        trace: TraceContext,
        /// Advertised payload size `m` of the packet on offer.
        payload_size: usize,
        /// The packet's code vector (length `k`).
        vector: CodeVector,
    },
    /// Phase-2 delivery: the complete packet.
    DataPayload {
        /// Transfer identifier this payload answers.
        transfer: u64,
        /// The offer's stamp, echoed; read by nobody.
        trace: TraceContext,
        /// The encoded packet.
        packet: P,
    },
    /// Receiver verdict on a pending transfer.
    Feedback {
        /// Transfer identifier the verdict concerns.
        transfer: u64,
        /// `true` for `FEEDBACK-ACCEPT`, `false` for `FEEDBACK-ABORT`.
        accept: bool,
    },
    /// The peer has fully decoded the envelope's generation.
    Complete,
    /// Serving handshake: the client asks for the object named by the
    /// envelope's `session` field, coded with the envelope's `scheme`.
    Request,
    /// Serving handshake: the server's object description. Dimensions are
    /// `u32` on the wire (comfortably above the decoder safety caps).
    Manifest {
        /// Exact object length in bytes (reassembly trims to this).
        object_len: u64,
        /// Code length `k` every generation uses.
        code_length: u32,
        /// Payload size `m` in bytes.
        payload_size: u32,
    },
    /// Serving handshake: the server refuses the request.
    Reject,
    /// Receiver verdict on a pending transfer, with the receiver's summary
    /// of the generation.
    FeedbackSummary {
        /// Transfer identifier the verdict concerns.
        transfer: u64,
        /// `true` for `ACCEPT-SUMMARY`, `false` for `ABORT-SUMMARY`.
        accept: bool,
        /// The receiver's decoded set and components.
        summary: Summary,
    },
}

/// A decoded datagram body: `DATA-PAYLOAD` bytes borrow the receive buffer.
pub type MessageView<'buf> = Message<PacketView<'buf>>;

impl<P> Message<P> {
    /// The wire kind this message serializes as.
    #[must_use]
    pub fn kind(&self) -> MessageKind {
        match self {
            Message::DataHeader { .. } => MessageKind::DataHeader,
            Message::DataPayload { .. } => MessageKind::DataPayload,
            Message::Feedback { accept: true, .. } => MessageKind::FeedbackAccept,
            Message::Feedback { accept: false, .. } => MessageKind::FeedbackAbort,
            Message::Complete => MessageKind::Complete,
            Message::Request => MessageKind::Request,
            Message::Manifest { .. } => MessageKind::Manifest,
            Message::Reject => MessageKind::Reject,
            Message::FeedbackSummary { accept: true, .. } => MessageKind::AcceptSummary,
            Message::FeedbackSummary { accept: false, .. } => MessageKind::AbortSummary,
        }
    }
}

/// One datagram: envelope header plus body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<P = EncodedPacket> {
    /// Scheme, session and generation addressing.
    pub header: EnvelopeHeader,
    /// The body.
    pub message: Message<P>,
}

/// One decoded datagram, `DATA-PAYLOAD` bytes still borrowed.
pub type EnvelopeView<'buf> = Envelope<PacketView<'buf>>;

impl EnvelopeView<'_> {
    /// Materializes an owned [`Envelope`], copying `DATA-PAYLOAD` bytes out
    /// of the receive buffer.
    #[must_use]
    pub fn into_owned(self) -> Envelope {
        let message = match self.message {
            Message::DataHeader { transfer, trace, payload_size, vector } => {
                Message::DataHeader { transfer, trace, payload_size, vector }
            }
            Message::DataPayload { transfer, trace, packet } => {
                Message::DataPayload { transfer, trace, packet: packet.into_packet() }
            }
            Message::Feedback { transfer, accept } => Message::Feedback { transfer, accept },
            Message::Complete => Message::Complete,
            Message::Request => Message::Request,
            Message::Manifest { object_len, code_length, payload_size } => {
                Message::Manifest { object_len, code_length, payload_size }
            }
            Message::Reject => Message::Reject,
            Message::FeedbackSummary { transfer, accept, summary } => {
                Message::FeedbackSummary { transfer, accept, summary }
            }
        };
        Envelope { header: self.header, message }
    }
}

/// Appends the fixed envelope header of a `kind` frame to `out`, with
/// room for the longest control body behind it (data frames reserve
/// their own exact length first), so a control frame encoded into a
/// fresh buffer allocates once.
fn encode_envelope_header(out: &mut Vec<u8>, kind: MessageKind, header: &EnvelopeHeader) {
    out.reserve(ENVELOPE_HEADER_BYTES + MANIFEST_BODY_BYTES);
    out.extend_from_slice(&MAGIC);
    out.push(PROTOCOL_VERSION);
    out.push(kind as u8);
    out.push(header.scheme.wire_id());
    out.extend_from_slice(&header.session.to_le_bytes());
    out.extend_from_slice(&header.generation.to_le_bytes());
}

/// Appends what a `DATA-HEADER` and a `DATA-PAYLOAD` frame share ahead
/// of their `gf2::wire` part, after reserving `wire_len` more bytes for
/// that part: room for its largest header, which costs nothing to size,
/// where the exact one would cost a walk of the code vector.
fn encode_data_prefix(
    out: &mut Vec<u8>,
    kind: MessageKind,
    header: &EnvelopeHeader,
    transfer: u64,
    trace: &TraceContext,
    wire_len: usize,
) {
    out.reserve(DATA_PREFIX_BYTES + wire_len);
    encode_envelope_header(out, kind, header);
    out.extend_from_slice(&transfer.to_le_bytes());
    encode_trace(out, trace);
}

/// Appends a `DATA-HEADER` frame offering a packet with this code
/// `vector` and `payload_size` to `out`: the frame [`encode_into`] writes
/// for the matching [`Message::DataHeader`], encoded from the borrowed
/// vector so a sender holding shared symbols clones nothing per offer.
pub fn encode_offer_into(
    out: &mut Vec<u8>,
    header: &EnvelopeHeader,
    transfer: u64,
    trace: &TraceContext,
    vector: &CodeVector,
    payload_size: usize,
) {
    let wire_len = gf2_wire::header_size(vector.len());
    encode_data_prefix(out, MessageKind::DataHeader, header, transfer, trace, wire_len);
    // The body reuses the gf2 wire header layout verbatim (k, m, code
    // vector), so receivers decode it with gf2's own header-first decoder.
    gf2_wire::encode_header_into(out, vector, payload_size);
}

/// Appends a `DATA-PAYLOAD` frame delivering the borrowed `packet` to
/// `out`: the frame [`encode_into`] writes for the matching
/// [`Message::DataPayload`], without needing an owned packet to build
/// the message from.
pub fn encode_payload_into(
    out: &mut Vec<u8>,
    header: &EnvelopeHeader,
    transfer: u64,
    trace: &TraceContext,
    packet: &EncodedPacket,
) {
    let wire_len = gf2_wire::header_size(packet.code_length()) + packet.payload_size();
    encode_data_prefix(out, MessageKind::DataPayload, header, transfer, trace, wire_len);
    gf2_wire::encode_into(out, packet);
}

/// Appends the verdict on offer `transfer` to `out`: `FEEDBACK-ACCEPT` if
/// `accept`, else `FEEDBACK-ABORT`, whatever `header.kind` says.
pub fn encode_feedback_into(
    out: &mut Vec<u8>,
    header: &EnvelopeHeader,
    transfer: u64,
    accept: bool,
) {
    let kind = if accept { MessageKind::FeedbackAccept } else { MessageKind::FeedbackAbort };
    encode_envelope_header(out, kind, header);
    out.extend_from_slice(&transfer.to_le_bytes());
}

/// Appends the verdict on offer `transfer` with the receiver's `summary`
/// to `out`: `ACCEPT-SUMMARY` if `accept`, else `ABORT-SUMMARY`, whatever
/// `header.kind` says.
pub fn encode_feedback_summary_into(
    out: &mut Vec<u8>,
    header: &EnvelopeHeader,
    transfer: u64,
    accept: bool,
    summary: &Summary,
) {
    let kind = if accept { MessageKind::AcceptSummary } else { MessageKind::AbortSummary };
    encode_envelope_header(out, kind, header);
    out.extend_from_slice(&transfer.to_le_bytes());
    summary.encode_into(out);
}

/// Appends one serialized envelope to `out`, leaving what `out` already
/// holds untouched: a stream sender encodes a batch of frames back to
/// back into one buffer and writes it once.
pub fn encode_into(out: &mut Vec<u8>, header: &EnvelopeHeader, message: &Message) {
    debug_assert_eq!(header.kind, message.kind(), "header kind must match message");
    match message {
        Message::DataHeader { transfer, trace, payload_size, vector } => {
            encode_offer_into(out, header, *transfer, trace, vector, *payload_size);
        }
        Message::DataPayload { transfer, trace, packet } => {
            encode_payload_into(out, header, *transfer, trace, packet);
        }
        Message::Feedback { transfer, accept } => {
            encode_feedback_into(out, header, *transfer, *accept)
        }
        Message::Manifest { object_len, code_length, payload_size } => {
            encode_envelope_header(out, MessageKind::Manifest, header);
            out.extend_from_slice(&object_len.to_le_bytes());
            out.extend_from_slice(&code_length.to_le_bytes());
            out.extend_from_slice(&payload_size.to_le_bytes());
        }
        Message::Complete | Message::Request | Message::Reject => {
            encode_envelope_header(out, message.kind(), header);
        }
        Message::FeedbackSummary { transfer, accept, summary } => {
            encode_feedback_summary_into(out, header, *transfer, *accept, summary);
        }
    }
}

/// [`encode_into`] a fresh buffer.
#[must_use]
pub fn encode(header: &EnvelopeHeader, message: &Message) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(&mut out, header, message);
    out
}

/// Convenience constructor for [`Envelope`] encoding.
#[must_use]
pub fn encode_envelope(envelope: &Envelope) -> Vec<u8> {
    encode(&envelope.header, &envelope.message)
}

/// Decodes only the fixed envelope header from the first
/// [`ENVELOPE_HEADER_BYTES`] bytes — the transport-level analogue of
/// `gf2::wire::decode_header`: enough to route, filter by session and
/// count, without touching the body.
///
/// # Errors
///
/// [`NetError::Truncated`] when fewer than [`ENVELOPE_HEADER_BYTES`] bytes
/// are supplied; [`NetError::BadMagic`] / [`NetError::BadVersion`] /
/// [`NetError::BadKind`] / [`NetError::BadScheme`] on malformed fields.
pub fn decode_header(bytes: &[u8]) -> Result<EnvelopeHeader, NetError> {
    if bytes.len() < ENVELOPE_HEADER_BYTES {
        return Err(NetError::Truncated { have: bytes.len(), needed: ENVELOPE_HEADER_BYTES });
    }
    let magic: [u8; 4] = bytes[0..4].try_into().expect("4 bytes");
    if magic != MAGIC {
        return Err(NetError::BadMagic(magic));
    }
    if bytes[4] != PROTOCOL_VERSION {
        return Err(NetError::BadVersion(bytes[4]));
    }
    let kind = MessageKind::from_wire(bytes[5])?;
    let scheme = SchemeKind::from_wire_id(bytes[6]).ok_or(NetError::BadScheme(bytes[6]))?;
    let session = u64::from_le_bytes(bytes[7..15].try_into().expect("8 bytes"));
    let generation = u32::from_le_bytes(bytes[15..19].try_into().expect("4 bytes"));
    Ok(EnvelopeHeader { kind, scheme, session, generation })
}

/// Parses one frame from the start of `bytes`, in one pass, and returns
/// it with the number of bytes it occupies; whatever follows is left
/// alone. Both transports call this: [`decode_view`] for a datagram,
/// [`crate::stream::FrameReassembler`] for a byte stream.
///
/// An incomplete prefix is [`NetError::Truncated`], whose `needed` grows as
/// the frame reveals its length: the envelope header, then the `k`/`m` of
/// a data frame, then the least length its code vector's form allows
/// (`gf2::wire::decode_prefix`), then the whole frame. The dimension caps
/// apply as soon as `k`/`m` are present, and the vector is allocated only
/// once that least length has arrived.
///
/// # Errors
///
/// [`NetError::Truncated`] as above, the malformed-field errors of
/// [`decode_header`], and [`NetError::FrameTooLarge`] when advertised
/// dimensions exceed the safety caps. Never panics on arbitrary bytes.
pub fn decode_prefix(bytes: &[u8]) -> Result<(EnvelopeView<'_>, usize), NetError> {
    let header = decode_header(bytes)?;
    // The frame's first `len` bytes, once they have all arrived.
    let prefix =
        |len: usize| bytes.get(..len).ok_or(NetError::Truncated { have: bytes.len(), needed: len });
    // The `u64` every non-empty body opens with: a transfer id, or a
    // manifest's object length.
    let body_u64 = |frame: &[u8]| {
        u64::from_le_bytes(frame[ENVELOPE_HEADER_BYTES..][..8].try_into().expect("8 bytes"))
    };
    let (message, len) = match header.kind {
        MessageKind::Complete => (Message::Complete, ENVELOPE_HEADER_BYTES),
        MessageKind::Request => (Message::Request, ENVELOPE_HEADER_BYTES),
        MessageKind::Reject => (Message::Reject, ENVELOPE_HEADER_BYTES),
        MessageKind::FeedbackAbort | MessageKind::FeedbackAccept => {
            let transfer = body_u64(prefix(FEEDBACK_FRAME_BYTES)?);
            let accept = header.kind == MessageKind::FeedbackAccept;
            (Message::Feedback { transfer, accept }, FEEDBACK_FRAME_BYTES)
        }
        MessageKind::AbortSummary | MessageKind::AcceptSummary => {
            let dims_end = FEEDBACK_FRAME_BYTES + gf2_wire::FIXED_HEADER_BYTES;
            capped_dims(&prefix(dims_end)?[FEEDBACK_FRAME_BYTES..])?;
            let (summary, len) =
                Summary::decode_prefix(&bytes[FEEDBACK_FRAME_BYTES..]).map_err(|e| match e {
                    SummaryError::Truncated { needed } => NetError::Truncated {
                        have: bytes.len(),
                        needed: FEEDBACK_FRAME_BYTES + needed,
                    },
                    malformed => NetError::BadSummary(malformed),
                })?;
            let (transfer, accept) = (body_u64(bytes), header.kind == MessageKind::AcceptSummary);
            (Message::FeedbackSummary { transfer, accept, summary }, FEEDBACK_FRAME_BYTES + len)
        }
        MessageKind::Manifest => {
            let frame = prefix(ENVELOPE_HEADER_BYTES + MANIFEST_BODY_BYTES)?;
            // The same safety caps the data plane enforces: a hostile
            // manifest must not drive the client's decode-state allocation.
            let (k, m) = capped_dims(&frame[ENVELOPE_HEADER_BYTES + 8..])?;
            let (object_len, code_length, payload_size) = (body_u64(frame), k as u32, m as u32);
            (Message::Manifest { object_len, code_length, payload_size }, frame.len())
        }
        MessageKind::DataHeader | MessageKind::DataPayload => {
            let dims_end = DATA_PREFIX_BYTES + gf2_wire::FIXED_HEADER_BYTES;
            let (_, m) = capped_dims(&prefix(dims_end)?[DATA_PREFIX_BYTES..])?;
            // The code vector's form says where the frame ends; a cut
            // inside it asks for the least the frame can still take.
            let offer = header.kind == MessageKind::DataHeader;
            let (view, wire_len) = gf2_wire::decode_prefix(&bytes[DATA_PREFIX_BYTES..], offer)
                .map_err(|e| match e {
                    Gf2Error::LengthMismatch { right, .. } => {
                        NetError::Truncated { have: bytes.len(), needed: DATA_PREFIX_BYTES + right }
                    }
                    malformed => NetError::Wire(malformed),
                })?;
            let frame = &bytes[..DATA_PREFIX_BYTES + wire_len];
            let transfer = body_u64(frame);
            let trace = decode_trace(&frame[ENVELOPE_HEADER_BYTES + TRANSFER_ID_BYTES..]);
            let message = if offer {
                // An offer's view has no payload: only its vector is kept.
                let (vector, _) = view.into_packet().into_parts();
                Message::DataHeader { transfer, trace, payload_size: m, vector }
            } else {
                Message::DataPayload { transfer, trace, packet: view }
            };
            (message, frame.len())
        }
    };
    Ok((Envelope { header, message }, len))
}

/// The `k`/`m` at the start of `wire` (at least eight bytes), rejected
/// beyond [`MAX_CODE_LENGTH`] / [`MAX_PAYLOAD_SIZE`].
fn capped_dims(wire: &[u8]) -> Result<(usize, usize), NetError> {
    let (k, m) = gf2_wire::dims(wire).expect("8 dimension bytes");
    if k > MAX_CODE_LENGTH || m > MAX_PAYLOAD_SIZE {
        return Err(NetError::FrameTooLarge { code_length: k, payload_size: m });
    }
    Ok((k, m))
}

/// Decodes a complete datagram without copying the payload: the returned
/// view's `DATA-PAYLOAD` bytes borrow `bytes`, so a datagram dropped as
/// redundant, complete or mismatched never copies its `m` payload bytes.
/// This is [`decode_prefix`] on a buffer that must hold exactly one frame:
/// datagram transports preserve message boundaries, so extra bytes mean
/// corruption.
///
/// # Errors
///
/// Those of [`decode_prefix`], plus [`NetError::TrailingBytes`]. Never
/// panics on arbitrary bytes.
pub fn decode_view(bytes: &[u8]) -> Result<EnvelopeView<'_>, NetError> {
    let (envelope, len) = decode_prefix(bytes)?;
    if bytes.len() > len {
        return Err(NetError::TrailingBytes { extra: bytes.len() - len });
    }
    Ok(envelope)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltnc_gf2::Payload;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn decode(bytes: &[u8]) -> Result<Envelope, NetError> {
        decode_view(bytes).map(EnvelopeView::into_owned)
    }

    fn header(kind: MessageKind) -> EnvelopeHeader {
        EnvelopeHeader { kind, scheme: SchemeKind::Ltnc, session: 0xfeed_beef, generation: 3 }
    }

    fn sample_packet() -> EncodedPacket {
        EncodedPacket::new(CodeVector::from_indices(21, &[0, 5, 20]), Payload::from_vec(vec![7; 9]))
    }

    /// A sparse k = 2048 packet: its vector goes on the wire as a list.
    fn list_packet() -> EncodedPacket {
        let vector = CodeVector::from_indices(2048, &[5, 700, 2000]);
        EncodedPacket::new(vector, Payload::from_vec(vec![3; 16]))
    }

    fn sample_trace() -> TraceContext {
        TraceContext { origin_micros: 1_234_567, hop: 2 }
    }

    #[test]
    fn header_roundtrip_for_every_kind_and_scheme() {
        for scheme in SchemeKind::ALL {
            let env = Envelope {
                header: EnvelopeHeader {
                    kind: MessageKind::Complete,
                    scheme,
                    session: 42,
                    generation: GENERATION_OBJECT,
                },
                message: Message::Complete,
            };
            let bytes = encode_envelope(&env);
            assert_eq!(bytes.len(), ENVELOPE_HEADER_BYTES);
            assert_eq!(decode(&bytes).unwrap(), env);
            assert_eq!(decode_header(&bytes).unwrap(), env.header);
        }
    }

    #[test]
    fn data_header_roundtrip_carries_vector_not_payload() {
        let packet = sample_packet();
        let msg = Message::DataHeader {
            transfer: 77,
            trace: sample_trace(),
            payload_size: packet.payload_size(),
            vector: packet.vector().clone(),
        };
        let bytes = encode(&header(MessageKind::DataHeader), &msg);
        // Envelope + transfer id + trace context + gf2 header; no
        // payload bytes.
        assert_eq!(
            bytes.len(),
            ENVELOPE_HEADER_BYTES
                + 8
                + TRACE_CONTEXT_BYTES
                + gf2_wire::FIXED_HEADER_BYTES
                + gf2_wire::vector_size(packet.vector())
        );
        let decoded = decode(&bytes).unwrap();
        match decoded.message {
            Message::DataHeader { transfer, trace, payload_size, vector } => {
                assert_eq!(transfer, 77);
                assert_eq!(trace, sample_trace());
                assert_eq!(payload_size, 9);
                assert_eq!(&vector, packet.vector());
            }
            other => panic!("wrong message {other:?}"),
        }
    }

    #[test]
    fn data_payload_roundtrip() {
        let packet = sample_packet();
        let msg =
            Message::DataPayload { transfer: 5, trace: sample_trace(), packet: packet.clone() };
        let bytes = encode(&header(MessageKind::DataPayload), &msg);
        let decoded = decode(&bytes).unwrap();
        match decoded.message {
            Message::DataPayload { transfer, trace, packet: p } => {
                assert_eq!(transfer, 5);
                assert_eq!(trace, sample_trace());
                assert_eq!(p, packet);
            }
            other => panic!("wrong message {other:?}"),
        }
    }

    #[test]
    fn decode_view_borrows_the_payload_and_materializes_equal() {
        let packet = sample_packet();
        let msg =
            Message::DataPayload { transfer: 5, trace: sample_trace(), packet: packet.clone() };
        let bytes = encode(&header(MessageKind::DataPayload), &msg);
        let view = decode_view(&bytes).unwrap();
        match &view.message {
            MessageView::DataPayload { packet: p, .. } => {
                // The view's payload points into the frame buffer itself.
                let payload_start = bytes.len() - packet.payload_size();
                assert!(std::ptr::eq(p.payload_bytes().as_ptr(), bytes[payload_start..].as_ptr()));
            }
            other => panic!("wrong message {other:?}"),
        }
        assert_eq!(
            view.into_owned(),
            Envelope { header: header(MessageKind::DataPayload), message: msg }
        );
        // Non-payload kinds materialize identically too.
        let bytes = encode(&header(MessageKind::Complete), &Message::Complete);
        let complete =
            Envelope { header: header(MessageKind::Complete), message: Message::Complete };
        assert_eq!(decode_view(&bytes).unwrap().into_owned(), complete);
    }

    #[test]
    fn trace_context_stamps_hop_zero_and_saturates() {
        assert_eq!(TraceContext::origin_now(700), TraceContext { origin_micros: 700, hop: 0 });
        let deeper = TraceContext::origin_now(500).next_hop();
        assert_eq!(deeper, TraceContext { origin_micros: 500, hop: 1 });
        // Hop depth saturates instead of wrapping.
        let deep = TraceContext { origin_micros: 1, hop: u16::MAX };
        assert_eq!(deep.next_hop().hop, u16::MAX);
    }

    #[test]
    fn feedback_kinds_encode_accept_flag() {
        for accept in [true, false] {
            let kind =
                if accept { MessageKind::FeedbackAccept } else { MessageKind::FeedbackAbort };
            let msg = Message::Feedback { transfer: 9, accept };
            let bytes = encode(&header(kind), &msg);
            let decoded = decode(&bytes).unwrap();
            assert_eq!(decoded.header.kind, kind);
            assert_eq!(decoded.message, msg);
            let mut verdict = Vec::new();
            encode_feedback_into(&mut verdict, &header(MessageKind::DataHeader), 9, accept);
            assert_eq!(verdict, bytes, "the verdict, not the header, sets the kind");
        }
    }

    #[test]
    fn every_truncation_errors_never_panics() {
        let packet = sample_packet();
        let frames = [
            encode(&header(MessageKind::Complete), &Message::Complete),
            encode(
                &header(MessageKind::FeedbackAbort),
                &Message::Feedback { transfer: 1, accept: false },
            ),
            encode(
                &header(MessageKind::DataHeader),
                &Message::DataHeader {
                    transfer: 2,
                    trace: sample_trace(),
                    payload_size: packet.payload_size(),
                    vector: packet.vector().clone(),
                },
            ),
            encode(
                &header(MessageKind::DataPayload),
                &Message::DataPayload {
                    transfer: 3,
                    trace: sample_trace(),
                    packet: packet.clone(),
                },
            ),
            encode(
                &header(MessageKind::DataPayload),
                &Message::DataPayload { transfer: 4, trace: sample_trace(), packet: list_packet() },
            ),
            encode(&header(MessageKind::Request), &Message::Request),
            encode(
                &header(MessageKind::Manifest),
                &Message::Manifest { object_len: 1000, code_length: 16, payload_size: 64 },
            ),
            encode(&header(MessageKind::Reject), &Message::Reject),
        ];
        for frame in &frames {
            for cut in 0..frame.len() {
                let err = decode(&frame[..cut]).unwrap_err();
                assert!(
                    matches!(err, NetError::Truncated { .. }),
                    "cut {cut} of {} gave {err:?}",
                    frame.len()
                );
            }
            assert!(decode(frame).is_ok());
        }
    }

    #[test]
    fn decode_prefix_asks_for_more_until_the_frame_is_whole() {
        // The bitmap form, then the list form, whose length is known only
        // once its last gap has arrived.
        for packet in [sample_packet(), list_packet()] {
            let frame = encode(
                &header(MessageKind::DataPayload),
                &Message::DataPayload { transfer: 3, trace: sample_trace(), packet },
            );
            let mut have = 0;
            loop {
                match decode_prefix(&frame[..have]) {
                    Ok((_, len)) => {
                        assert_eq!(len, frame.len());
                        break;
                    }
                    Err(NetError::Truncated { needed, .. }) => {
                        assert!(needed > have, "must make progress");
                        have = needed;
                    }
                    Err(other) => panic!("unexpected {other:?}"),
                }
            }
            // On a stream the bytes after a frame are the next frame's: the
            // parse stops at its own end instead of calling them trailing.
            let stream = [&frame[..], &frame[..7]].concat();
            let (view, len) = decode_prefix(&stream).unwrap();
            assert_eq!(len, frame.len());
            assert_eq!(view, decode_view(&frame).unwrap());
        }
    }

    #[test]
    fn serving_handshake_kinds_roundtrip() {
        let request = Envelope {
            header: EnvelopeHeader {
                kind: MessageKind::Request,
                scheme: SchemeKind::Rlnc,
                session: 0xB00C, // the object id in the serving handshake
                generation: GENERATION_OBJECT,
            },
            message: Message::Request,
        };
        let bytes = encode_envelope(&request);
        assert_eq!(bytes.len(), ENVELOPE_HEADER_BYTES);
        assert_eq!(decode(&bytes).unwrap(), request);

        let manifest = Message::Manifest { object_len: 70_000, code_length: 32, payload_size: 128 };
        let bytes = encode(&header(MessageKind::Manifest), &manifest);
        assert_eq!(bytes.len(), ENVELOPE_HEADER_BYTES + 16);
        assert_eq!(decode(&bytes).unwrap().message, manifest);

        let bytes = encode(&header(MessageKind::Reject), &Message::Reject);
        assert_eq!(decode(&bytes).unwrap().message, Message::Reject);
    }

    #[test]
    fn hostile_manifest_dimensions_are_capped() {
        let message = Message::Manifest { object_len: u64::MAX, code_length: 1, payload_size: 1 };
        let mut bytes = encode(&header(MessageKind::Manifest), &message);
        let k_at = ENVELOPE_HEADER_BYTES + 8;
        bytes[k_at..k_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode(&bytes), Err(NetError::FrameTooLarge { .. })));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode(&header(MessageKind::Complete), &Message::Complete);
        bytes.push(0);
        assert_eq!(decode(&bytes).unwrap_err(), NetError::TrailingBytes { extra: 1 });
    }

    #[test]
    fn hostile_dimensions_do_not_allocate() {
        // A DataPayload advertising k = 2^31: must error via the cap, not
        // attempt a gigabyte bitmap.
        let mut bytes = encode(
            &header(MessageKind::DataPayload),
            &Message::DataPayload {
                transfer: 1,
                trace: sample_trace(),
                packet: EncodedPacket::new(CodeVector::zero(8), Payload::zero(4)),
            },
        );
        let wire_start = ENVELOPE_HEADER_BYTES + 8 + TRACE_CONTEXT_BYTES;
        bytes[wire_start..wire_start + 4].copy_from_slice(&(1u32 << 31).to_le_bytes());
        assert!(matches!(decode(&bytes), Err(NetError::FrameTooLarge { .. })));
        // A stream learns it as soon as the eight dimension bytes arrive,
        // before buffering anything of the frame they announce.
        let dims_end = wire_start + ltnc_gf2::wire::FIXED_HEADER_BYTES;
        assert!(matches!(decode_prefix(&bytes[..dims_end]), Err(NetError::FrameTooLarge { .. })));
        assert!(matches!(
            decode_prefix(&bytes[..dims_end - 1]),
            Err(NetError::Truncated { needed, .. }) if needed == dims_end
        ));
    }

    #[test]
    fn a_version_2_frame_is_refused() {
        // Version 2 always carried a bitmap right after `k` and `m`,
        // version 3 had no ABORT-SUMMARY and version 4 no ACCEPT-SUMMARY:
        // their frames are refused, not read with this version's rules.
        let message =
            Message::DataPayload { transfer: 3, trace: sample_trace(), packet: list_packet() };
        let mut bytes = encode(&header(MessageKind::DataPayload), &message);
        assert_eq!(bytes[4], PROTOCOL_VERSION);
        for old in [2, 3, 4] {
            bytes[4] = old;
            assert_eq!(decode(&bytes).unwrap_err(), NetError::BadVersion(old));
        }
    }

    /// The summary of a receiver with these component labels.
    fn summary(labels: &[usize]) -> Summary {
        Summary::from_labels(labels)
    }

    /// An ABORT-SUMMARY frame whose summary is `k`, `m`, the code vector
    /// bytes `vector` (its form varint included) and then `varints`.
    fn raw_abort(k: u32, m: u32, vector: &[u8], varints: &[usize]) -> Vec<u8> {
        let mut bytes = encode(&header(MessageKind::AbortSummary), &abort(summary(&[0])));
        bytes.truncate(FEEDBACK_FRAME_BYTES);
        bytes.extend_from_slice(&k.to_le_bytes());
        bytes.extend_from_slice(&m.to_le_bytes());
        bytes.extend_from_slice(vector);
        for &value in varints {
            gf2_wire::write_varint(&mut bytes, value);
        }
        bytes
    }

    fn abort(summary: Summary) -> Message {
        Message::FeedbackSummary { transfer: 7, accept: false, summary }
    }

    fn refusal(bytes: &[u8]) -> SummaryError {
        match decode(bytes) {
            Err(NetError::BadSummary(refused)) => refused,
            other => panic!("expected a refused summary, got {other:?}"),
        }
    }

    #[test]
    fn an_abort_summary_round_trips_in_one_encoding() {
        // Decoded 0, 5 and 20 (a bitmap), components {1, 2} and {3, 7, 9}.
        let mut labels: Vec<usize> = (1..=21).collect();
        for x in [0, 5, 20] {
            labels[x] = 0;
        }
        labels[2] = labels[1];
        labels[7] = labels[3];
        labels[9] = labels[3];
        let bytes = encode(&header(MessageKind::AbortSummary), &abort(summary(&labels)));
        assert_eq!(bytes, raw_abort(21, 0, &[0, 0x21, 0x00, 0x10], &[2, 2, 1, 0, 3, 3, 3, 1]));
        assert_eq!(bytes.len(), FEEDBACK_FRAME_BYTES + 20);
        let decoded = decode(&bytes).unwrap();
        assert_eq!(decoded.header.kind, MessageKind::AbortSummary);
        assert_eq!(decoded.message, abort(summary(&labels)));
        // Relabelling the components changes nothing on the wire.
        let relabelled: Vec<usize> =
            labels.iter().map(|&l| if l == 0 { 0 } else { 22 - l }).collect();
        assert_eq!(encode(&header(MessageKind::AbortSummary), &abort(summary(&relabelled))), bytes);
        // An accept differs in its kind byte alone, and the verdict, not
        // the header, sets the kind.
        let accept =
            Message::FeedbackSummary { transfer: 7, accept: true, summary: summary(&labels) };
        let accepted = encode(&header(MessageKind::AcceptSummary), &accept);
        let mut verdict = Vec::new();
        encode_feedback_summary_into(
            &mut verdict,
            &header(MessageKind::DataHeader),
            7,
            true,
            &summary(&labels),
        );
        assert_eq!(verdict, accepted);
        assert_eq!(accepted[5], MessageKind::AcceptSummary as u8);
        assert_eq!((&accepted[..5], &accepted[6..]), (&bytes[..5], &bytes[6..]));
        let decoded = decode(&accepted).unwrap();
        assert_eq!((decoded.header.kind, decoded.message), (MessageKind::AcceptSummary, accept));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random decoded sets and partitions, under any labelling, encode
        /// to one byte string that decodes back to the same partition.
        #[test]
        fn random_summaries_round_trip_under_any_labelling(seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let k = rng.gen_range(1..=600usize);
            let (decoded, groups) = (rng.gen::<f64>(), rng.gen_range(1..=k));
            let labels: Vec<usize> = (0..k)
                .map(|_| if rng.gen_bool(decoded) { 0 } else { rng.gen_range(1..=groups) })
                .collect();
            // The same partition under other labels: a permutation of 1..=k.
            let mut names: Vec<usize> = (1..=k).collect();
            for i in (1..k).rev() {
                names.swap(i, rng.gen_range(0..=i));
            }
            let renamed: Vec<usize> =
                labels.iter().map(|&l| if l == 0 { 0 } else { names[l - 1] }).collect();
            let bytes = encode(&header(MessageKind::AbortSummary), &abort(summary(&labels)));
            let again = encode(&header(MessageKind::AbortSummary), &abort(summary(&renamed)));
            prop_assert_eq!(&bytes, &again);
            let Message::FeedbackSummary { summary: back, .. } = decode(&bytes).unwrap().message
            else {
                panic!("not a summarised verdict")
            };
            // The same partition: its labels summarise to the input's.
            prop_assert_eq!(summary(&back.labels()), summary(&labels));
            let decoded = labels.iter().filter(|&&l| l == 0).count();
            prop_assert!(bytes.len() - FEEDBACK_FRAME_BYTES >= Summary::min_encoded_len(k, decoded));
        }
    }

    #[test]
    fn the_least_summary_length_is_reached() {
        // Nothing decoded and every native alone: `c`, no index, no
        // component. All decoded: `c = 0` and the bitmap.
        for (labels, decoded) in [(vec![1, 2, 3], 0), (vec![0; 8], 8), (vec![0; 20], 20)] {
            let bytes = encode(&header(MessageKind::AbortSummary), &abort(summary(&labels)));
            let least = Summary::min_encoded_len(labels.len(), decoded);
            assert_eq!(bytes.len() - FEEDBACK_FRAME_BYTES, least, "{labels:?}");
        }
    }

    #[test]
    fn a_summary_no_encoder_writes_is_refused_by_name() {
        // The reference summary, k = 21: decoded 0, 5, 20 as a bitmap.
        let bitmap = [0, 0x21, 0x00, 0x10];
        assert!(decode(&raw_abort(21, 0, &bitmap, &[2, 2, 1, 0, 3, 3, 3, 1])).is_ok());
        // An index ≥ k, in a component and in the decoded set's list.
        let past = SummaryError::IndexOutOfRange { index: 21, len: 21 };
        assert_eq!(refusal(&raw_abort(21, 0, &bitmap, &[1, 2, 19, 1])), past);
        assert_eq!(refusal(&raw_abort(21, 0, &[2, 21], &[0])), past);
        // A native in two components, or decoded and in a component.
        let twice = SummaryError::Overlap { index: 2 };
        assert_eq!(refusal(&raw_abort(21, 0, &bitmap, &[2, 2, 1, 0, 2, 2, 1])), twice);
        let decoded_too = SummaryError::Overlap { index: 5 };
        assert_eq!(refusal(&raw_abort(21, 0, &bitmap, &[1, 2, 1, 3])), decoded_too);
        // More components or members than k natives can fill.
        assert_eq!(refusal(&raw_abort(21, 0, &bitmap, &[11])), SummaryError::Overlap { index: 11 });
        let many = SummaryError::Overlap { index: 22 };
        assert_eq!(refusal(&raw_abort(21, 0, &bitmap, &[1, 22])), many);
        // A singleton component, and an empty one.
        for size in [1, 0] {
            let single = raw_abort(21, 0, &bitmap, &[1, size, 4]);
            assert_eq!(refusal(&single), SummaryError::Singleton);
        }
        // Components out of order, and two with one first member.
        assert_eq!(
            refusal(&raw_abort(21, 0, &bitmap, &[2, 2, 3, 3, 2, 1, 0])),
            SummaryError::Unsorted
        );
        assert_eq!(
            refusal(&raw_abort(21, 0, &bitmap, &[2, 2, 1, 0, 2, 1, 5])),
            SummaryError::Unsorted
        );
        // The longer vector form: a list where the bitmap ties, a bitmap
        // where the list is shorter (k = 64: one native), a set padding
        // bit, a non-minimal varint.
        assert_eq!(refusal(&raw_abort(21, 0, &[4, 0, 4, 14], &[0])), SummaryError::NonCanonical);
        let one_of_64 = [0, 1, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(refusal(&raw_abort(64, 0, &one_of_64, &[0])), SummaryError::NonCanonical);
        assert_eq!(
            refusal(&raw_abort(21, 0, &[0, 0x21, 0x00, 0x30], &[0])),
            SummaryError::NonCanonical
        );
        let mut padded = raw_abort(21, 0, &bitmap, &[]);
        padded.extend_from_slice(&[0x80, 0x00]);
        assert_eq!(refusal(&padded), SummaryError::NonCanonical);
        // A summary with a payload size.
        assert_eq!(refusal(&raw_abort(21, 9, &bitmap, &[0])), SummaryError::NonCanonical);
        // Trailing bytes after the last component.
        let mut trailing = raw_abort(21, 0, &bitmap, &[0]);
        trailing.push(0);
        assert_eq!(decode(&trailing).unwrap_err(), NetError::TrailingBytes { extra: 1 });
        // A hostile k is refused before anything is allocated.
        let huge = raw_abort(u32::MAX, 0, &[1], &[0]);
        assert!(matches!(decode(&huge), Err(NetError::FrameTooLarge { .. })));
    }

    #[test]
    fn an_abort_summary_cut_anywhere_asks_for_more() {
        let mut labels: Vec<usize> = (1..=300).collect();
        for x in (0..300).step_by(7) {
            labels[x] = 0;
        }
        for x in (1..300).step_by(5) {
            labels[x] = 2;
        }
        let frame = encode(&header(MessageKind::AbortSummary), &abort(summary(&labels)));
        let mut have = 0;
        loop {
            match decode_prefix(&frame[..have]) {
                Ok((_, len)) => {
                    assert_eq!((have, len), (frame.len(), frame.len()));
                    break;
                }
                Err(NetError::Truncated { needed, .. }) => {
                    assert!(needed > have && needed <= frame.len(), "{needed} after {have}");
                    have = needed;
                }
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        for cut in 0..frame.len() {
            assert!(matches!(decode(&frame[..cut]), Err(NetError::Truncated { .. })), "cut {cut}");
        }
    }

    #[test]
    fn wrong_magic_version_kind_scheme_all_error() {
        let good = encode(&header(MessageKind::Complete), &Message::Complete);
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(decode(&bad), Err(NetError::BadMagic(_))));
        let mut bad = good.clone();
        bad[4] = 99;
        assert_eq!(decode(&bad).unwrap_err(), NetError::BadVersion(99));
        let mut bad = good.clone();
        bad[5] = 200;
        assert_eq!(decode(&bad).unwrap_err(), NetError::BadKind(200));
        let mut bad = good;
        bad[6] = 9;
        assert_eq!(decode(&bad).unwrap_err(), NetError::BadScheme(9));
    }
}
