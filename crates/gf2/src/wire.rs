//! Wire (de)serialization of encoded packets.
//!
//! The paper puts the code vector, "represented by a bitmap", in the header of
//! every packet, followed by the payload. This module implements exactly that
//! framing so packets can be shipped over a real transport (or dumped to disk
//! by the examples):
//!
//! ```text
//! +----------------+----------------+------------------+------------------+
//! | k (u32 LE)     | m (u32 LE)     | bitmap ⌈k/8⌉ B   | payload m bytes  |
//! +----------------+----------------+------------------+------------------+
//! ```
//!
//! The binary feedback channel of the evaluation relies on the receiver seeing
//! the header before the payload: [`decode_header`] only needs the first
//! `8 + ⌈k/8⌉` bytes, so a receiver can run its redundancy / innovation check
//! and abort the transfer without ever reading the payload.

use crate::{CodeVector, EncodedPacket, Gf2Error, Payload};

/// Size in bytes of the fixed part of the header (`k` and `m`).
pub const FIXED_HEADER_BYTES: usize = 8;

/// Total header size (fixed part plus bitmap) for a given code length.
#[must_use]
pub const fn header_size(code_length: usize) -> usize {
    FIXED_HEADER_BYTES + code_length.div_ceil(8)
}

/// Reads the advertised code length `k` and payload size `m` from any
/// prefix of a frame, or `None` while it is shorter than
/// [`FIXED_HEADER_BYTES`]. This is the one place either is read off the
/// wire: [`decode_header`] starts with it, and a stream transport sizes a
/// frame with it (`header_size(k) + m`) before buffering the rest.
///
/// The dimensions are whatever the header *claims*: this crate does not
/// know what is reasonable for your session. A caller buffering untrusted
/// input must cap `k`/`m` first — as `ltnc_net::envelope::decode_prefix`
/// does with its `MAX_CODE_LENGTH` / `MAX_PAYLOAD_SIZE` limits — or a
/// hostile 8-byte header can request a multi-gigabyte read.
#[must_use]
pub fn dims(prefix: &[u8]) -> Option<(usize, usize)> {
    let word =
        |at: usize| Some(u32::from_le_bytes(prefix.get(at..at + 4)?.try_into().ok()?) as usize);
    Some((word(0)?, word(4)?))
}

/// Appends only the header (`k`, `m`, bitmap) of a packet whose payload
/// would be `payload_size` bytes to `out`. This is what a sender with a
/// feedback channel puts on the wire as its header-first *offer*: the
/// receiver can run [`decode_header`] on it and abort the transfer
/// without a single payload byte having been sent.
pub fn encode_header_into(out: &mut Vec<u8>, vector: &CodeVector, payload_size: usize) {
    let k = vector.len();
    out.reserve(header_size(k));
    out.extend_from_slice(&(k as u32).to_le_bytes());
    out.extend_from_slice(&(payload_size as u32).to_le_bytes());
    // The wire bit order (bit i in byte i/8 at position i%8) is exactly the
    // little-endian byte layout of the bitmap words, so they go out whole.
    vector.write_le_bytes(out);
}

/// Appends a packet to `out` in the wire format described in the module
/// docs. A sender that batches frames encodes them back to back into one
/// buffer this way, with no intermediate allocation per frame.
pub fn encode_into(out: &mut Vec<u8>, packet: &EncodedPacket) {
    out.reserve(header_size(packet.code_length()) + packet.payload_size());
    encode_header_into(out, packet.vector(), packet.payload_size());
    out.extend_from_slice(packet.payload().as_bytes());
}

/// [`encode_into`] a fresh buffer.
#[must_use]
pub fn encode(packet: &EncodedPacket) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(&mut out, packet);
    out
}

/// Decodes only the header (code length, payload size, code vector) from the
/// first `header_size(k)` bytes of a frame. This is what a receiver with a
/// feedback channel inspects before accepting the payload.
///
/// # Errors
///
/// Returns [`Gf2Error::LengthMismatch`] when the buffer is too short.
pub fn decode_header(bytes: &[u8]) -> Result<(usize, usize, CodeVector), Gf2Error> {
    let short = |right| Gf2Error::LengthMismatch { left: bytes.len(), right };
    let (k, m) = dims(bytes).ok_or_else(|| short(FIXED_HEADER_BYTES))?;
    let bitmap =
        bytes.get(FIXED_HEADER_BYTES..header_size(k)).ok_or_else(|| short(header_size(k)))?;
    // Word-at-a-time bitmap decode; padding bits in the final byte are
    // masked off.
    Ok((k, m, CodeVector::from_le_bytes(k, bitmap)))
}

/// A decoded frame whose payload still borrows the receive buffer.
///
/// The code vector is owned (it is small and every receive path inspects it),
/// but the `m` payload bytes stay in place: a receiver that rejects the
/// packet — redundant vector, completed generation, mismatched session —
/// never copies them. [`PacketView::into_packet`] is the single point where a
/// retained packet pays the copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketView<'buf> {
    vector: CodeVector,
    payload: &'buf [u8],
}

impl<'buf> PacketView<'buf> {
    /// The code vector of the framed packet.
    #[must_use]
    pub fn vector(&self) -> &CodeVector {
        &self.vector
    }

    /// Code length `k`.
    #[must_use]
    pub fn code_length(&self) -> usize {
        self.vector.len()
    }

    /// Payload size `m` in bytes.
    #[must_use]
    pub fn payload_size(&self) -> usize {
        self.payload.len()
    }

    /// The payload bytes, still borrowing the receive buffer.
    #[must_use]
    pub fn payload_bytes(&self) -> &'buf [u8] {
        self.payload
    }

    /// Materializes an owned [`EncodedPacket`], moving the decoded vector
    /// and copying the payload out of the receive buffer. Call this only
    /// when the packet is retained.
    #[must_use]
    pub fn into_packet(self) -> EncodedPacket {
        EncodedPacket::new(self.vector, Payload::from_slice(self.payload))
    }
}

/// Decodes a frame into a [`PacketView`] borrowing the payload bytes. Bytes
/// past the advertised payload are ignored.
///
/// # Errors
///
/// Returns [`Gf2Error::LengthMismatch`] when the buffer is shorter than the
/// header plus the advertised payload size.
pub fn decode_view(bytes: &[u8]) -> Result<PacketView<'_>, Gf2Error> {
    let (k, m, vector) = decode_header(bytes)?;
    let end = header_size(k).saturating_add(m);
    let payload = bytes
        .get(header_size(k)..end)
        .ok_or(Gf2Error::LengthMismatch { left: bytes.len(), right: end })?;
    Ok(PacketView { vector, payload })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pk(k: usize, indices: &[usize], payload: &[u8]) -> EncodedPacket {
        EncodedPacket::new(CodeVector::from_indices(k, indices), Payload::from_slice(payload))
    }

    fn header_bytes(vector: &CodeVector, payload_size: usize) -> Vec<u8> {
        let mut out = Vec::new();
        encode_header_into(&mut out, vector, payload_size);
        out
    }

    fn decode(bytes: &[u8]) -> Result<EncodedPacket, Gf2Error> {
        decode_view(bytes).map(PacketView::into_packet)
    }

    #[test]
    fn header_size_matches_bitmap_rounding() {
        assert_eq!(header_size(8), 8 + 1);
        assert_eq!(header_size(9), 8 + 2);
        assert_eq!(header_size(2048), 8 + 256);
    }

    #[test]
    fn encode_header_is_the_frame_prefix() {
        let p = pk(19, &[0, 7, 8, 18], &[1, 2, 3, 4, 5]);
        let frame = encode(&p);
        let header = header_bytes(p.vector(), p.payload_size());
        assert_eq!(header.len(), header_size(19));
        assert_eq!(&frame[..header.len()], &header[..]);
        let (k, m, vector) = decode_header(&header).unwrap();
        assert_eq!((k, m), (19, 5));
        assert_eq!(&vector, p.vector());
    }

    #[test]
    fn encode_into_appends_exactly_the_frame() {
        let p = pk(19, &[0, 7, 8, 18], &[1, 2, 3, 4, 5]);
        let mut out = vec![0xAA, 0xBB];
        encode_into(&mut out, &p);
        encode_header_into(&mut out, p.vector(), p.payload_size());
        let expected = [&[0xAA, 0xBB][..], &encode(&p), &header_bytes(p.vector(), 5)].concat();
        assert_eq!(out, expected);
    }

    #[test]
    fn roundtrip_preserves_packet() {
        let p = pk(19, &[0, 7, 8, 18], &[1, 2, 3, 4, 5]);
        let bytes = encode(&p);
        assert_eq!(bytes.len(), header_size(19) + 5);
        let decoded = decode(&bytes).unwrap();
        assert_eq!(decoded, p);
    }

    #[test]
    fn header_alone_is_enough_for_the_vector() {
        let p = pk(40, &[3, 31, 39], &[9; 16]);
        let bytes = encode(&p);
        let header_only = &bytes[..header_size(40)];
        let (k, m, vector) = decode_header(header_only).unwrap();
        assert_eq!(k, 40);
        assert_eq!(m, 16);
        assert_eq!(&vector, p.vector());
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let p = pk(16, &[1], &[7; 4]);
        let bytes = encode(&p);
        assert!(decode_header(&bytes[..4]).is_err());
        assert!(decode_header(&bytes[..9]).is_err());
        assert!(decode_view(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_view(&bytes).is_ok());
    }

    #[test]
    fn zero_degree_and_empty_payload_roundtrip() {
        let p = EncodedPacket::new(CodeVector::zero(5), Payload::zero(0));
        let decoded = decode(&encode(&p)).unwrap();
        assert_eq!(decoded, p);
    }

    /// Golden bytes: the exact frame for a fixed packet. Pins the wire format
    /// so the word-sliced bitmap encode/decode cannot change bytes on the
    /// wire (bit `i` of the bitmap lives in byte `i/8` at position `i%8`).
    #[test]
    fn golden_frame_bytes_are_stable() {
        let p = pk(19, &[0, 7, 8, 18], &[1, 2, 3, 4, 5]);
        let expected: &[u8] = &[
            0x13, 0x00, 0x00, 0x00, // k = 19, u32 LE
            0x05, 0x00, 0x00, 0x00, // m = 5, u32 LE
            0x81, 0x01, 0x04, // bitmap: bits 0,7 | bit 8 | bit 18
            0x01, 0x02, 0x03, 0x04, 0x05, // payload
        ];
        assert_eq!(encode(&p), expected);
        assert_eq!(header_bytes(p.vector(), 5), &expected[..header_size(19)]);
        assert_eq!(decode(expected).unwrap(), p);
    }

    #[test]
    fn decode_view_borrows_the_payload_in_place() {
        let p = pk(19, &[0, 7, 8, 18], &[1, 2, 3, 4, 5]);
        let bytes = encode(&p);
        let view = decode_view(&bytes).unwrap();
        assert_eq!(view.vector(), p.vector());
        assert_eq!(view.code_length(), 19);
        assert_eq!(view.payload_size(), 5);
        // The view's payload is the frame's own bytes, not a copy.
        assert!(std::ptr::eq(view.payload_bytes().as_ptr(), bytes[header_size(19)..].as_ptr()));
        assert_eq!(view.into_packet(), p);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(
            k in 1usize..200,
            indices in proptest::collection::vec(0usize..200, 0..20),
            payload in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let indices: Vec<usize> = indices.into_iter().map(|i| i % k).collect();
            let p = pk(k, &indices, &payload);
            let decoded = decode(&encode(&p)).unwrap();
            prop_assert_eq!(decoded, p);
        }

        // The truncation paths are the ones a real socket will hit: a
        // short read must surface as an error from every entry point,
        // never a panic, for every cut of every random frame.
        #[test]
        fn prop_truncations_error_never_panic(
            k in 1usize..200,
            indices in proptest::collection::vec(0usize..200, 0..20),
            payload in proptest::collection::vec(any::<u8>(), 0..64),
            cut_seed in any::<u64>(),
        ) {
            let indices: Vec<usize> = indices.into_iter().map(|i| i % k).collect();
            let p = pk(k, &indices, &payload);
            let bytes = encode(&p);
            let cut = (cut_seed as usize) % bytes.len();
            let prefix = &bytes[..cut];
            prop_assert!(decode_view(prefix).is_err());
            // decode_header succeeds from header_size(k) onward, errors
            // strictly before, and dims reads the same k/m throughout.
            if cut < header_size(k) {
                prop_assert!(decode_header(prefix).is_err());
            } else {
                prop_assert!(decode_header(prefix).is_ok());
            }
            if cut < FIXED_HEADER_BYTES {
                prop_assert_eq!(dims(prefix), None);
            } else {
                prop_assert_eq!(dims(prefix), Some((k, payload.len())));
            }
        }

        // Arbitrary bytes (not produced by encode) must also decode
        // without panicking: either some packet comes back or an error
        // does, and a successful decode re-encodes to the frame prefix it
        // came from, padding bits of the bitmap's last byte cleared (the
        // decoder masks them: they are the one non-canonical part).
        #[test]
        fn prop_garbage_never_panics(
            bytes in proptest::collection::vec(any::<u8>(), 0..320),
        ) {
            // Keep the advertised k and m below 256, so a garbage header
            // never asks for a huge bitmap and about half the inputs are
            // long enough to decode and reach the re-encode.
            let mut bytes = bytes;
            for at in [1, 2, 3, 5, 6, 7] {
                if let Some(byte) = bytes.get_mut(at) {
                    *byte = 0;
                }
            }
            if let Ok(view) = decode_view(&bytes) {
                let k = view.code_length();
                let reencoded = encode(&view.into_packet());
                let mut expected = bytes[..reencoded.len()].to_vec();
                if k % 8 != 0 {
                    expected[FIXED_HEADER_BYTES + k / 8] &= (1u8 << (k % 8)) - 1;
                }
                prop_assert_eq!(reencoded, expected);
            }
            let _ = decode_header(&bytes);
            let _ = dims(&bytes);
        }
    }
}
