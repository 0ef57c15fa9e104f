//! Wire (de)serialization of encoded packets.
//!
//! The paper puts the code vector, "represented by a bitmap", in the header of
//! every packet, followed by the payload. A vector of few natives is shorter
//! as a list of their indices, so a varint `c` says which form follows:
//!
//! ```text
//! +------------+------------+----------+-------------------+-----------------+
//! | k (u32 LE) | m (u32 LE) | c varint | code vector       | payload m bytes |
//! +------------+------------+----------+-------------------+-----------------+
//!   c = 0      the bitmap, ⌈k/8⌉ bytes: bit i in byte i/8 at position i%8
//!   c = n + 1  n varint gaps: the first index, then index_i − index_{i−1} − 1
//! ```
//!
//! Varints are minimal LEB128 of at most three bytes. The list is written only
//! when strictly shorter than the bitmap form, and the decoder refuses any
//! other choice, so every vector has one encoding, [`vector_size`] bytes long.
//!
//! The binary feedback channel of the evaluation relies on the receiver seeing
//! the header before the payload: [`decode_header`] only needs the header,
//! at most [`header_size`]`(k)` bytes, so a receiver can run its redundancy /
//! innovation check and abort the transfer without ever reading the payload.

use crate::{CodeVector, EncodedPacket, Gf2Error, Payload};

/// Size in bytes of the fixed part of the header (`k` and `m`).
pub const FIXED_HEADER_BYTES: usize = 8;

/// The longest varint: 21 bits, so only `k ≤ 2²¹` may use the list form.
const MAX_VARINT_BYTES: usize = 3;

/// The largest header (fixed part, `c = 0` and bitmap) for a code length.
#[must_use]
pub const fn header_size(code_length: usize) -> usize {
    FIXED_HEADER_BYTES + 1 + code_length.div_ceil(8)
}

/// Bytes `vector` takes on the wire, `c` included: what the encoder writes.
#[must_use]
pub fn vector_size(vector: &CodeVector) -> usize {
    let bitmap = header_size(vector.len()) - FIXED_HEADER_BYTES;
    list_walk(vector, |_| ()).unwrap_or(bitmap)
}

/// Walks the list form of `vector`: calls `put` with `c` and then each gap,
/// and returns the form's length, or `None` as soon as it cannot be
/// strictly shorter than the bitmap form. Every gap takes a byte, so a
/// vector of too high a degree is not walked. The encoder writes what this
/// walks.
fn list_walk(vector: &CodeVector, mut put: impl FnMut(usize)) -> Option<usize> {
    let (n, bitmap) = (vector.degree(), header_size(vector.len()) - FIXED_HEADER_BYTES);
    let mut size = varint_len(n + 1);
    if vector.len() > 1 << (7 * MAX_VARINT_BYTES) || size + n >= bitmap {
        return None;
    }
    put(n + 1);
    let mut next = 0;
    for (at, &word) in vector.as_words().iter().enumerate() {
        let mut word = word;
        while word != 0 {
            let index = at * 64 + word.trailing_zeros() as usize;
            let len = varint_len(index - next);
            if size + len >= bitmap {
                return None;
            }
            put(index - next);
            (size, next, word) = (size + len, index + 1, word & (word - 1));
        }
    }
    Some(size)
}

/// The length of `value` as a varint; `value` is below 2²¹.
fn varint_len(value: usize) -> usize {
    1 + usize::from(value >= 1 << 7) + usize::from(value >= 1 << 14)
}

fn write_varint(out: &mut Vec<u8>, mut value: usize) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Reads the advertised code length `k` and payload size `m` from any
/// prefix of a frame, or `None` while it is shorter than
/// [`FIXED_HEADER_BYTES`]. This is the one place either is read off the
/// wire: [`decode_prefix`] starts with it.
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

/// Appends only the header (`k`, `m`, code vector) of a packet whose payload
/// would be `payload_size` bytes to `out`. This is what a sender with a
/// feedback channel puts on the wire as its header-first *offer*: the
/// receiver can run [`decode_header`] on it and abort the transfer
/// without a single payload byte having been sent.
pub fn encode_header_into(out: &mut Vec<u8>, vector: &CodeVector, payload_size: usize) {
    let k = vector.len();
    out.reserve(header_size(k));
    out.extend_from_slice(&(k as u32).to_le_bytes());
    out.extend_from_slice(&(payload_size as u32).to_le_bytes());
    // The list goes out as it is walked; if it is no shorter, the bitmap
    // replaces it. The wire bit order (bit i in byte i/8 at position i%8)
    // is exactly the little-endian byte layout of the bitmap words, so they
    // go out whole.
    let start = out.len();
    if list_walk(vector, |value| write_varint(out, value)).is_none() {
        out.truncate(start);
        out.push(0);
        vector.write_le_bytes(out);
    }
}

/// Appends a packet to `out` in the wire format described in the module
/// docs. A sender that batches frames encodes them back to back into one
/// buffer this way, with no intermediate allocation per frame.
pub fn encode_into(out: &mut Vec<u8>, packet: &EncodedPacket) {
    encode_header_into(out, packet.vector(), packet.payload_size());
    out.extend_from_slice(packet.payload().as_bytes());
}

/// [`encode_into`] a fresh buffer.
#[must_use]
pub fn encode(packet: &EncodedPacket) -> Vec<u8> {
    let mut out = Vec::with_capacity(header_size(packet.code_length()) + packet.payload_size());
    encode_into(&mut out, packet);
    out
}

/// Decodes the frame that opens `bytes`, or only its header if
/// `header_only`, into a view (a header's has no payload) and the number of
/// bytes it took; what follows is left alone. This is the one decode of the
/// wire format. The code vector is allocated, at `⌈k/8⌉` bytes, only once
/// `bytes` is as long as the frame can be at the least.
///
/// # Errors
///
/// [`Gf2Error::LengthMismatch`] while `bytes` ends inside the frame, its
/// `right` the least length the frame can have, which grows as the frame
/// reveals its length; [`Gf2Error::NonCanonicalVector`] and
/// [`Gf2Error::IndexOutOfRange`] for a code vector no encoder writes.
pub fn decode_prefix(bytes: &[u8], header_only: bool) -> Result<(PacketView<'_>, usize), Gf2Error> {
    let (k, m) = dims(bytes).ok_or_else(|| short(bytes, FIXED_HEADER_BYTES))?;
    let (m, bitmap_end) = (if header_only { 0 } else { m }, header_size(k));
    let (count, at) = read_varint(bytes, FIXED_HEADER_BYTES)?;
    // Each gap takes a byte at least, and a list must end before the bitmap
    // form would (which also refuses `n > k`).
    let n = count.saturating_sub(1);
    let least = if count == 0 { bitmap_end } else { at + n };
    if count > 0 && least >= bitmap_end {
        return Err(Gf2Error::NonCanonicalVector);
    } else if bytes.len() < least.saturating_add(m) {
        return Err(short(bytes, least.saturating_add(m)));
    }
    if count == 0 {
        // Word-at-a-time bitmap decode, padding bits masked off. A vector
        // whose list form is shorter has only that encoding.
        let vector = CodeVector::from_le_bytes(k, &bytes[at..bitmap_end]);
        if vector_size(&vector) < bitmap_end - FIXED_HEADER_BYTES {
            return Err(Gf2Error::NonCanonicalVector);
        }
        let payload = &bytes[bitmap_end..bitmap_end + m];
        return Ok((PacketView { vector, payload }, bitmap_end + m));
    }
    // Each index is the one before, plus one, plus its gap; the list is
    // read no further than where the bitmap form would end.
    let mut vector = CodeVector::zero(k);
    let (list, mut end, mut next) = (&bytes[..bitmap_end.min(bytes.len())], at, 0);
    for left in (0..n).rev() {
        let (gap, after) = match read_varint(list, end) {
            Ok(read) => read,
            // Cut short: each varint still to come takes a byte at least.
            Err(Gf2Error::LengthMismatch { right, .. }) if right + left < bitmap_end => {
                return Err(short(bytes, right + left + m));
            }
            Err(Gf2Error::LengthMismatch { .. }) => return Err(Gf2Error::NonCanonicalVector),
            Err(malformed) => return Err(malformed),
        };
        if next + gap >= k {
            return Err(Gf2Error::IndexOutOfRange { index: next + gap, len: k });
        }
        vector.set(next + gap);
        (next, end) = (next + gap + 1, after);
    }
    if end >= bitmap_end {
        return Err(Gf2Error::NonCanonicalVector);
    }
    let payload = bytes.get(end..end + m).ok_or(short(bytes, end + m))?;
    Ok((PacketView { vector, payload }, end + m))
}

/// The minimal varint of at most [`MAX_VARINT_BYTES`] at `bytes[at..]`, and
/// the offset after it.
fn read_varint(bytes: &[u8], at: usize) -> Result<(usize, usize), Gf2Error> {
    if let Some(&byte @ 0..0x80) = bytes.get(at) {
        return Ok((usize::from(byte), at + 1));
    }
    let mut value = 0;
    for i in 0..MAX_VARINT_BYTES {
        let &byte = bytes.get(at + i).ok_or_else(|| short(bytes, at + i + 1))?;
        value |= usize::from(byte & 0x7F) << (7 * i);
        if byte < 0x80 {
            // A zero last byte after the first adds nothing: not minimal.
            let minimal = byte != 0 || i == 0;
            return minimal.then_some((value, at + i + 1)).ok_or(Gf2Error::NonCanonicalVector);
        }
    }
    Err(Gf2Error::NonCanonicalVector)
}

fn short(bytes: &[u8], needed: usize) -> Gf2Error {
    Gf2Error::LengthMismatch { left: bytes.len(), right: needed }
}

/// Decodes only the header (code length, payload size, code vector) that
/// opens a frame. This is what a receiver with a feedback channel inspects
/// before accepting the payload.
///
/// # Errors
///
/// Those of [`decode_prefix`].
pub fn decode_header(bytes: &[u8]) -> Result<(usize, usize, CodeVector), Gf2Error> {
    let (view, _) = decode_prefix(bytes, true)?;
    let (_, m) = dims(bytes).ok_or_else(|| short(bytes, FIXED_HEADER_BYTES))?;
    Ok((view.code_length(), m, view.vector))
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
/// Those of [`decode_prefix`].
pub fn decode_view(bytes: &[u8]) -> Result<PacketView<'_>, Gf2Error> {
    decode_prefix(bytes, false).map(|(view, _)| view)
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

    fn header_len(bytes: &[u8]) -> Result<usize, Gf2Error> {
        decode_prefix(bytes, true).map(|(_, len)| len)
    }

    /// The list frame of `golden_list_frame_bytes_are_stable`: k = 40,
    /// natives 3, 31 and 39, payload `[1, 2]`.
    const LIST_FRAME: [u8; 14] = [
        0x28, 0x00, 0x00, 0x00, // k = 40
        0x02, 0x00, 0x00, 0x00, // m = 2
        0x04, // c = n + 1: three indices
        0x03, 0x1B, 0x07, // gaps: 3, 31 − 3 − 1, 39 − 31 − 1
        0x01, 0x02, // payload
    ];

    /// A k = 40, m = 2 frame whose form is `form`, with the payload after it.
    fn frame_with_form(form: &[u8]) -> Vec<u8> {
        [&LIST_FRAME[..FIXED_HEADER_BYTES], form, &[1, 2]].concat()
    }

    #[test]
    fn header_size_matches_bitmap_rounding() {
        assert_eq!(header_size(8), 8 + 1 + 1);
        assert_eq!(header_size(9), 8 + 1 + 2);
        assert_eq!(header_size(2048), 8 + 1 + 256);
    }

    #[test]
    fn wire_size_accounts_for_header_and_payload() {
        let p = pk(2048, &[1], &[0; 8]);
        // c = 2, then the one gap: far below the 1 + 256 of the bitmap.
        assert_eq!(vector_size(p.vector()), 2);
        assert_eq!(encode(&p).len(), FIXED_HEADER_BYTES + 2 + 8);
        let dense = CodeVector::from_indices(2048, &(0..2048).step_by(2).collect::<Vec<_>>());
        assert_eq!(vector_size(&dense), 1 + 256);
    }

    #[test]
    fn encode_header_is_the_frame_prefix() {
        for p in [pk(19, &[0, 7, 8, 18], &[1, 2, 3, 4, 5]), pk(40, &[3, 31, 39], &[1, 2])] {
            let frame = encode(&p);
            let header = header_bytes(p.vector(), p.payload_size());
            assert_eq!(header.len(), header_len(&frame).unwrap());
            assert_eq!(header.len(), FIXED_HEADER_BYTES + vector_size(p.vector()));
            assert_eq!(&frame[..header.len()], &header[..]);
            let (k, m, vector) = decode_header(&header).unwrap();
            assert_eq!((k, m), (p.code_length(), p.payload_size()));
            assert_eq!(&vector, p.vector());
        }
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
        let header_only = &bytes[..header_len(&bytes).unwrap()];
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
    /// Its list would take a byte more than its bitmap, so it keeps `c = 0`.
    #[test]
    fn golden_frame_bytes_are_stable() {
        let p = pk(19, &[0, 7, 8, 18], &[1, 2, 3, 4, 5]);
        let expected: &[u8] = &[
            0x13, 0x00, 0x00, 0x00, // k = 19, u32 LE
            0x05, 0x00, 0x00, 0x00, // m = 5, u32 LE
            0x00, // c = 0: a bitmap follows
            0x81, 0x01, 0x04, // bitmap: bits 0,7 | bit 8 | bit 18
            0x01, 0x02, 0x03, 0x04, 0x05, // payload
        ];
        assert_eq!(encode(&p), expected);
        assert_eq!(header_bytes(p.vector(), 5), &expected[..header_size(19)]);
        assert_eq!(decode(expected).unwrap(), p);
    }

    #[test]
    fn golden_list_frame_bytes_are_stable() {
        let p = pk(40, &[3, 31, 39], &[1, 2]);
        assert_eq!(encode(&p), LIST_FRAME);
        assert_eq!(decode(&LIST_FRAME).unwrap(), p);
    }

    #[test]
    fn a_non_minimal_varint_is_rejected() {
        // Gap 3 as 0x83 0x00, and the count as 0x84 0x00.
        let padded_gap = frame_with_form(&[0x04, 0x83, 0x00, 0x1B, 0x07]);
        assert_eq!(decode(&padded_gap), Err(Gf2Error::NonCanonicalVector));
        let padded_count = frame_with_form(&[0x84, 0x00, 0x03, 0x1B, 0x07]);
        assert_eq!(header_len(&padded_count), Err(Gf2Error::NonCanonicalVector));
    }

    #[test]
    fn a_four_byte_varint_is_rejected() {
        // k = 2048 holds a list of one index; 2²¹ needs a fourth byte.
        let mut frame = encode(&pk(2048, &[5], &[]));
        frame.truncate(FIXED_HEADER_BYTES + 1);
        frame.extend_from_slice(&[0x80, 0x80, 0x80, 0x01]);
        assert_eq!(decode(&frame), Err(Gf2Error::NonCanonicalVector));
        assert_eq!(header_len(&frame), Err(Gf2Error::NonCanonicalVector));
    }

    #[test]
    fn more_indices_than_k_are_rejected() {
        // n = 41 > k = 40, each gap a zero byte.
        let frame = frame_with_form(&[[42].as_slice(), &[0; 41]].concat());
        assert_eq!(decode(&frame), Err(Gf2Error::NonCanonicalVector));
        // It is refused from the count alone, before the gaps arrive.
        assert!(header_len(&frame[..9]) == Err(Gf2Error::NonCanonicalVector));
    }

    #[test]
    fn an_index_past_k_is_rejected() {
        let frame = frame_with_form(&[0x04, 0x03, 0x1B, 0x08]);
        assert_eq!(decode(&frame), Err(Gf2Error::IndexOutOfRange { index: 40, len: 40 }));
    }

    #[test]
    fn a_list_no_shorter_than_the_bitmap_is_rejected() {
        // k = 16: the bitmap form is 3 bytes, and so is the list of 1 and 4,
        // which the bitmap wins. A longer list is refused as well.
        let dims = [0x10, 0, 0, 0, 0, 0, 0, 0];
        for form in [&[0x03, 0x01, 0x02][..], &[0x04, 0x01, 0x02, 0x00]] {
            let frame = [&dims[..], form].concat();
            assert_eq!(decode(&frame), Err(Gf2Error::NonCanonicalVector));
        }
        let tie = pk(16, &[1, 4], &[]);
        assert_eq!(encode(&tie)[FIXED_HEADER_BYTES], 0, "the bitmap wins the tie");
    }

    #[test]
    fn a_bitmap_the_list_would_beat_is_rejected() {
        let mut bitmap = vec![0];
        CodeVector::from_indices(40, &[3, 31, 39]).write_le_bytes(&mut bitmap);
        let frame = frame_with_form(&bitmap);
        assert_eq!(frame.len(), header_size(40) + 2, "the layout itself is whole");
        assert_eq!(decode(&frame), Err(Gf2Error::NonCanonicalVector));
    }

    #[test]
    fn every_cut_of_a_list_frame_asks_for_more() {
        let end = header_len(&LIST_FRAME).unwrap();
        assert_eq!(end, 12);
        for cut in 0..LIST_FRAME.len() {
            let prefix = &LIST_FRAME[..cut];
            let Err(Gf2Error::LengthMismatch { left, right }) = decode_view(prefix) else {
                panic!("cut {cut} must ask for more");
            };
            assert_eq!(left, cut);
            assert!(cut < right && right <= LIST_FRAME.len(), "cut {cut} asks for {right}");
            match header_len(prefix) {
                Ok(len) => assert!(cut >= end && len == end, "cut {cut}"),
                Err(Gf2Error::LengthMismatch { right, .. }) => {
                    assert!(cut < end && cut < right && right <= end, "cut {cut}: {right}")
                }
                Err(other) => panic!("cut {cut}: {other:?}"),
            }
        }
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
            // decode_header succeeds from the header's length onward,
            // errors strictly before, and dims reads the same k/m
            // throughout.
            let end = FIXED_HEADER_BYTES + vector_size(p.vector());
            if cut < end {
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
        // came from, padding bits of a bitmap's last byte cleared (the
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
                if expected[FIXED_HEADER_BYTES] == 0 && k % 8 != 0 {
                    expected[FIXED_HEADER_BYTES + 1 + k / 8] &= (1u8 << (k % 8)) - 1;
                }
                prop_assert_eq!(reencoded, expected);
            }
            let _ = decode_header(&bytes);
            let _ = header_len(&bytes);
            let _ = dims(&bytes);
        }
    }
}
