//! Byte-stream binding of the envelope codec.
//!
//! UDP preserves message boundaries, so the datagram path decodes each
//! buffer as exactly one frame. A TCP (or QUIC) connection delivers an
//! undifferentiated byte stream chopped at arbitrary points; this module
//! reconstructs frame boundaries from it. The envelope format needs no
//! extra length prefix for that: [`crate::envelope::decode_prefix`] parses
//! a frame from any prefix in one pass — the same parse a datagram gets —
//! and says how many bytes it used or how many it still needs, so the
//! reassembler just accumulates bytes until a frame comes back and carries
//! the remainder forward.
//!
//! Hostile input is survivable by construction: malformed bytes surface
//! as a [`NetError`] (the caller should drop the connection — framing is
//! unrecoverable once the stream is corrupt), advertised dimensions are
//! capped by the codec before any allocation happens, and nothing panics.

use ltnc_gf2::wire as gf2_wire;

use crate::envelope::{self, EnvelopeView};
use crate::NetError;

/// Largest complete frame the reassembler will buffer: the worst legal
/// frame, a `DATA-PAYLOAD` with a [`envelope::MAX_CODE_LENGTH`] bitmap (no
/// header is longer) and a [`envelope::MAX_PAYLOAD_SIZE`] payload. Every
/// frame the codec accepts fits, while a hostile length cannot grow the
/// buffer without bound.
pub const MAX_FRAME_BYTES: usize = envelope::DATA_PREFIX_BYTES
    + gf2_wire::header_size(envelope::MAX_CODE_LENGTH)
    + envelope::MAX_PAYLOAD_SIZE;

/// Incremental frame reassembly over a byte stream.
///
/// Feed raw reads in with [`FrameReassembler::extend`], then drain
/// complete envelopes with [`FrameReassembler::next_frame_view`] until it
/// returns `Ok(None)` (more bytes needed). Any `Err` is fatal for the
/// stream.
///
/// ```
/// use ltnc_net::envelope::{self, EnvelopeHeader, Message, MessageKind};
/// use ltnc_net::stream::FrameReassembler;
/// use ltnc_scheme::SchemeKind;
///
/// let header = EnvelopeHeader {
///     kind: MessageKind::Complete,
///     scheme: SchemeKind::Ltnc,
///     session: 7,
///     generation: 0,
/// };
/// let frame = envelope::encode(&header, &Message::Complete);
/// let mut reassembler = FrameReassembler::new();
/// // Bytes arrive one at a time; the frame appears exactly once complete.
/// for (i, &byte) in frame.iter().enumerate() {
///     reassembler.extend(&[byte]);
///     let decoded = reassembler.next_frame_view().unwrap();
///     assert_eq!(decoded.is_some(), i == frame.len() - 1);
/// }
/// ```
#[derive(Debug, Default)]
pub struct FrameReassembler {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by decoded frames; compacted when
    /// it grows past half the buffer so the amortized cost stays linear.
    start: usize,
}

impl FrameReassembler {
    /// An empty reassembler.
    #[must_use]
    pub fn new() -> Self {
        FrameReassembler::default()
    }

    /// Appends freshly read bytes to the pending buffer.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Number of buffered bytes not yet consumed by a decoded frame.
    #[must_use]
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Decodes the next complete frame from the buffered bytes. The
    /// payload of a data frame stays a view into the reassembly buffer, so
    /// callers that filter or drop frames never copy payload bytes; consume
    /// the view before buffering more bytes.
    ///
    /// Returns `Ok(None)` when the buffer holds only a proper prefix of a
    /// frame (read more and call again). After an `Err` the stream is
    /// unframeable and should be dropped.
    ///
    /// # Errors
    ///
    /// Any codec error of [`envelope::decode_prefix`] on malformed input,
    /// plus [`NetError::FrameTooLarge`] when a frame would exceed
    /// [`MAX_FRAME_BYTES`].
    pub fn next_frame_view(&mut self) -> Result<Option<EnvelopeView<'_>>, NetError> {
        match envelope::decode_prefix(&self.buf[self.start..]) {
            Ok((envelope, len)) => {
                self.start += len;
                Ok(Some(envelope))
            }
            // Unreachable while the codec's dimension caps hold, but the
            // buffer-growth bound must not depend on that invariant.
            Err(NetError::Truncated { needed, .. }) if needed > MAX_FRAME_BYTES => {
                Err(NetError::FrameTooLarge { code_length: 0, payload_size: needed })
            }
            Err(NetError::Truncated { .. }) => Ok(None),
            Err(fatal) => Err(fatal),
        }
    }

    fn compact(&mut self) {
        if self.start > 0 && self.start >= self.buf.len() / 2 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{encode, EnvelopeHeader, Message, MessageKind, MessageView};
    use ltnc_gf2::{CodeVector, EncodedPacket, Payload};
    use ltnc_scheme::SchemeKind;

    fn header(kind: MessageKind) -> EnvelopeHeader {
        EnvelopeHeader { kind, scheme: SchemeKind::Rlnc, session: 11, generation: 2 }
    }

    fn sample_frames() -> Vec<Vec<u8>> {
        let packet = EncodedPacket::new(
            CodeVector::from_indices(16, &[1, 4, 9]),
            Payload::from_vec((0..33u8).collect()),
        );
        vec![
            encode(&header(MessageKind::Request), &Message::Request),
            encode(
                &header(MessageKind::Manifest),
                &Message::Manifest { object_len: 999, code_length: 16, payload_size: 33 },
            ),
            encode(
                &header(MessageKind::DataHeader),
                &Message::DataHeader {
                    transfer: 5,
                    trace: envelope::TraceContext { origin_micros: 42, hop: 1 },
                    payload_size: packet.payload_size(),
                    vector: packet.vector().clone(),
                },
            ),
            encode(
                &header(MessageKind::FeedbackAccept),
                &Message::Feedback { transfer: 5, accept: true },
            ),
            encode(
                &header(MessageKind::DataPayload),
                &Message::DataPayload {
                    transfer: 5,
                    trace: envelope::TraceContext { origin_micros: 42, hop: 1 },
                    packet,
                },
            ),
            encode(&header(MessageKind::Complete), &Message::Complete),
        ]
    }

    #[test]
    fn whole_stream_at_once_yields_every_frame_in_order() {
        let frames = sample_frames();
        let stream: Vec<u8> = frames.iter().flatten().copied().collect();
        let mut reassembler = FrameReassembler::new();
        reassembler.extend(&stream);
        for frame in &frames {
            let envelope = reassembler.next_frame_view().expect("valid").expect("complete");
            assert_eq!(envelope::encode_envelope(&envelope.into_owned()), *frame);
        }
        assert_eq!(reassembler.next_frame_view().unwrap(), None);
        assert_eq!(reassembler.pending_bytes(), 0);
    }

    #[test]
    fn one_byte_at_a_time_yields_identical_frames() {
        let frames = sample_frames();
        let stream: Vec<u8> = frames.iter().flatten().copied().collect();
        let mut reassembler = FrameReassembler::new();
        let mut decoded = Vec::new();
        for &byte in &stream {
            reassembler.extend(&[byte]);
            while let Some(envelope) = reassembler.next_frame_view().expect("valid stream") {
                decoded.push(envelope::encode_envelope(&envelope.into_owned()));
            }
        }
        assert_eq!(decoded, frames);
    }

    #[test]
    fn next_frame_view_borrows_payloads_from_the_buffer() {
        let frames = sample_frames();
        let stream: Vec<u8> = frames.iter().flatten().copied().collect();
        let mut reassembler = FrameReassembler::new();
        reassembler.extend(&stream);
        let mut payload_frames = 0;
        for frame in &frames {
            let view = reassembler.next_frame_view().expect("valid").expect("complete");
            if let MessageView::DataPayload { packet, .. } = &view.message {
                // The payload is a window into the reassembly buffer, not a copy.
                let bytes = packet.payload_bytes();
                assert_eq!(bytes, &frame[frame.len() - bytes.len()..]);
                payload_frames += 1;
            }
            assert_eq!(envelope::encode_envelope(&view.into_owned()), *frame);
        }
        assert_eq!(payload_frames, 1);
        assert_eq!(reassembler.next_frame_view().unwrap(), None);
    }

    #[test]
    fn corrupt_magic_is_a_fatal_error() {
        let mut reassembler = FrameReassembler::new();
        reassembler.extend(b"XXXX garbage that is long enough to parse a header");
        assert!(matches!(reassembler.next_frame_view(), Err(NetError::BadMagic(_))));
    }

    #[test]
    fn short_garbage_waits_for_more_bytes_then_fails() {
        // Fewer than ENVELOPE_HEADER_BYTES garbage bytes: not yet decidable.
        let mut reassembler = FrameReassembler::new();
        reassembler.extend(&[0xFF; 5]);
        assert_eq!(reassembler.next_frame_view().unwrap(), None);
        reassembler.extend(&[0xFF; 32]);
        assert!(reassembler.next_frame_view().is_err());
    }

    #[test]
    fn the_largest_legal_frame_is_buffered_not_refused() {
        // The header prefix of a DATA-PAYLOAD at both dimension caps, its
        // vector dense enough to keep the bitmap: the biggest frame the
        // codec accepts must be one the stream waits for.
        let k = envelope::MAX_CODE_LENGTH;
        let vector = CodeVector::from_le_bytes(k, &vec![0xFF; k / 8]);
        let trace = envelope::TraceContext { origin_micros: 1, hop: 0 };
        let mut prefix = Vec::new();
        let offer = header(MessageKind::DataHeader);
        envelope::encode_offer_into(
            &mut prefix,
            &offer,
            1,
            &trace,
            &vector,
            envelope::MAX_PAYLOAD_SIZE,
        );
        prefix[5] = MessageKind::DataPayload as u8;
        let mut reassembler = FrameReassembler::new();
        reassembler.extend(&prefix);
        assert_eq!(reassembler.next_frame_view().unwrap(), None);
        assert_eq!(prefix.len() + envelope::MAX_PAYLOAD_SIZE, MAX_FRAME_BYTES);
    }
}
