use core::fmt;

use crate::Gf2Error;

/// Bytes per XOR word: the kernel walks payloads in `u64` steps.
const WORD_BYTES: usize = 8;
/// Bytes per fold lane in [`Payload::xor_assign_many`]: one cache line.
const LANE_BYTES: usize = 64;
/// Words per fold lane.
const LANE_WORDS: usize = LANE_BYTES / WORD_BYTES;

/// XORs `src` into `dst` word-sliced: `u64` chunks with a byte-wise tail.
///
/// Endianness does not matter for XOR, so the words are read and written
/// native-endian; the result is byte-for-byte identical to the scalar loop.
#[inline]
fn xor_slices(dst: &mut [u8], src: &[u8]) {
    debug_assert_eq!(dst.len(), src.len());
    let mut dst_words = dst.chunks_exact_mut(WORD_BYTES);
    let mut src_words = src.chunks_exact(WORD_BYTES);
    for (d, s) in dst_words.by_ref().zip(src_words.by_ref()) {
        let x = u64::from_ne_bytes(d.try_into().expect("word-sized chunk"))
            ^ u64::from_ne_bytes(s.try_into().expect("word-sized chunk"));
        d.copy_from_slice(&x.to_ne_bytes());
    }
    for (d, s) in dst_words.into_remainder().iter_mut().zip(src_words.remainder()) {
        *d ^= *s;
    }
}

/// Writes `a ⊕ b` into `dst` in one pass, word-sliced like [`xor_slices`].
#[inline]
fn xor_to(dst: &mut [u8], a: &[u8], b: &[u8]) {
    debug_assert!(dst.len() == a.len() && dst.len() == b.len());
    let mut dst_words = dst.chunks_exact_mut(WORD_BYTES);
    let mut a_words = a.chunks_exact(WORD_BYTES);
    let mut b_words = b.chunks_exact(WORD_BYTES);
    for ((d, a), b) in dst_words.by_ref().zip(a_words.by_ref()).zip(b_words.by_ref()) {
        let x = u64::from_ne_bytes(a.try_into().expect("word-sized chunk"))
            ^ u64::from_ne_bytes(b.try_into().expect("word-sized chunk"));
        d.copy_from_slice(&x.to_ne_bytes());
    }
    let tail = a_words.remainder().iter().zip(b_words.remainder());
    for (d, (a, b)) in dst_words.into_remainder().iter_mut().zip(tail) {
        *d = a ^ b;
    }
}

/// The data part of a packet: `m` bytes combined by XOR.
///
/// The paper separates the cost of operations on *control structures* (code
/// vectors, Tanner graph, code matrix) from operations on *data* (payload
/// XORs of `m = 256 KB` blocks). `Payload` is the data side; every XOR of two
/// payloads is the unit the cost model of `ltnc-metrics` charges as a data
/// operation of `m` bytes.
#[derive(Clone, PartialEq, Eq)]
pub struct Payload {
    bytes: Vec<u8>,
}

impl Payload {
    /// Creates a zero payload (all bytes `0`) of the given size.
    #[must_use]
    pub fn zero(size: usize) -> Self {
        Payload { bytes: vec![0; size] }
    }

    /// Wraps an existing byte vector.
    #[must_use]
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        Payload { bytes }
    }

    /// Copies a byte slice into a new payload.
    #[must_use]
    pub fn from_slice(bytes: &[u8]) -> Self {
        Payload { bytes: bytes.to_vec() }
    }

    /// Payload size `m` in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Returns `true` for a zero-length payload.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Returns `true` when every byte is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        let mut words = self.bytes.chunks_exact(WORD_BYTES);
        words.by_ref().all(|w| u64::from_ne_bytes(w.try_into().expect("word-sized chunk")) == 0)
            && words.remainder().iter().all(|&b| b == 0)
    }

    /// Read-only view of the payload bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the payload and returns the owned bytes.
    #[must_use]
    pub fn into_vec(self) -> Vec<u8> {
        self.bytes
    }

    /// Adds `other` to `self` over GF(2) (word-sliced XOR).
    ///
    /// # Panics
    ///
    /// Panics if the payload sizes differ.
    pub fn xor_assign(&mut self, other: &Payload) {
        assert_eq!(
            self.bytes.len(),
            other.bytes.len(),
            "cannot combine payloads of different sizes"
        );
        xor_slices(&mut self.bytes, &other.bytes);
    }

    /// Checked variant of [`Payload::xor_assign`].
    ///
    /// # Errors
    ///
    /// Returns [`Gf2Error::LengthMismatch`] when the payload sizes differ.
    pub fn try_xor_assign(&mut self, other: &Payload) -> Result<(), Gf2Error> {
        if self.bytes.len() != other.bytes.len() {
            return Err(Gf2Error::LengthMismatch {
                left: self.bytes.len(),
                right: other.bytes.len(),
            });
        }
        self.xor_assign(other);
        Ok(())
    }

    /// Returns `self ⊕ other` without modifying either operand.
    ///
    /// Builds the result in a single pass (no clone-then-rewalk).
    ///
    /// # Panics
    ///
    /// Panics if the payload sizes differ.
    #[must_use]
    pub fn xor(&self, other: &Payload) -> Payload {
        assert_eq!(
            self.bytes.len(),
            other.bytes.len(),
            "cannot combine payloads of different sizes"
        );
        let mut bytes = vec![0; self.bytes.len()];
        xor_to(&mut bytes, &self.bytes, &other.bytes);
        Payload { bytes }
    }

    /// Folds every payload in `sources` into `self` in one pass over the
    /// buffer: each cache line of `self` is loaded once, XORed with the
    /// matching line of every source, and stored once. Recoding relays that
    /// combine `ln k + 20` buffered packets per emitted packet use this
    /// instead of N separate [`Payload::xor_assign`] walks.
    ///
    /// # Panics
    ///
    /// Panics if any source size differs from `self`.
    pub fn xor_assign_many(&mut self, sources: &[&Payload]) {
        for src in sources {
            assert_eq!(
                self.bytes.len(),
                src.bytes.len(),
                "cannot combine payloads of different sizes"
            );
        }
        if sources.is_empty() {
            return;
        }
        let len = self.bytes.len();
        let lanes_end = len - len % LANE_BYTES;
        let mut offset = 0;
        while offset < lanes_end {
            // Slice each lane once, then walk it with `chunks_exact`: the
            // single up-front bounds check is all the optimizer needs to
            // keep the accumulator loop branch-free and vectorized.
            let mut acc = [0u64; LANE_WORDS];
            let dst_lane = &self.bytes[offset..offset + LANE_BYTES];
            for (word, chunk) in acc.iter_mut().zip(dst_lane.chunks_exact(WORD_BYTES)) {
                *word = u64::from_ne_bytes(chunk.try_into().expect("word-sized chunk"));
            }
            for src in sources {
                let src_lane = &src.bytes[offset..offset + LANE_BYTES];
                for (word, chunk) in acc.iter_mut().zip(src_lane.chunks_exact(WORD_BYTES)) {
                    *word ^= u64::from_ne_bytes(chunk.try_into().expect("word-sized chunk"));
                }
            }
            let dst_lane = &mut self.bytes[offset..offset + LANE_BYTES];
            for (chunk, word) in dst_lane.chunks_exact_mut(WORD_BYTES).zip(acc) {
                chunk.copy_from_slice(&word.to_ne_bytes());
            }
            offset += LANE_BYTES;
        }
        // Sub-cache-line tail: word-sliced per source (at most 63 bytes each).
        for src in sources {
            xor_slices(&mut self.bytes[lanes_end..], &src.bytes[lanes_end..]);
        }
    }
}

/// Method-of-Four-Russians table: the 2ᵗ XOR combinations of a group of `t`
/// payloads, entry `i` holding the XOR of the payloads named by the set bits
/// of `i`. Whoever must add a subset of the group to many accumulators pays
/// one lookup-and-XOR per accumulator instead of one XOR per member.
pub(crate) struct XorTable {
    group_size: usize,
    payload_size: usize,
    /// `2^group_size` entries of `payload_size` bytes; entry 0 stays zero.
    bytes: Vec<u8>,
}

impl XorTable {
    /// Largest table built, so that it stays cache-resident beside the
    /// accumulators: 256 entries of 1 KiB.
    pub(crate) const MAX_BYTES: usize = 256 * 1024;
    /// Largest group size considered (a 64 Ki-entry table).
    pub(crate) const MAX_GROUP: usize = 16;

    /// An all-zero table for groups of up to `group_size` payloads.
    pub(crate) fn new(group_size: usize, payload_size: usize) -> Self {
        assert!((1..=Self::MAX_GROUP).contains(&group_size), "group size out of range");
        XorTable { group_size, payload_size, bytes: vec![0; payload_size << group_size] }
    }

    /// Tabulates the combinations of `group` and returns the number of
    /// payload XORs spent. Entries are visited in Gray-code order, so each is
    /// its predecessor plus one payload: one XOR per entry, except entry 1,
    /// which is a copy.
    ///
    /// # Panics
    ///
    /// Panics if `group` is larger than the table's group size or a payload
    /// size differs from the table's.
    pub(crate) fn fill(&mut self, group: &[&Payload]) -> u64 {
        assert!(group.len() <= self.group_size, "group larger than the table was built for");
        let m = self.payload_size;
        for src in group {
            assert_eq!(src.bytes.len(), m, "cannot combine payloads of different sizes");
        }
        let mut xors = 0;
        let mut prev = 0;
        for i in 1usize..1 << group.len() {
            let entry = i ^ (i >> 1);
            let added = &group[i.trailing_zeros() as usize].bytes;
            if prev == 0 {
                self.bytes[entry * m..][..m].copy_from_slice(added);
            } else {
                let (dst, base) = if entry > prev {
                    let (low, high) = self.bytes.split_at_mut(entry * m);
                    (&mut high[..m], &low[prev * m..][..m])
                } else {
                    let (low, high) = self.bytes.split_at_mut(prev * m);
                    (&mut low[entry * m..][..m], &high[..m])
                };
                xor_to(dst, base, added);
                xors += 1;
            }
            prev = entry;
        }
        xors
    }

    /// XORs entry `index` of the last [`XorTable::fill`] into `dst`.
    #[inline]
    pub(crate) fn xor_entry_into(&self, index: usize, dst: &mut Payload) {
        let m = self.payload_size;
        assert_eq!(dst.bytes.len(), m, "cannot combine payloads of different sizes");
        xor_slices(&mut dst.bytes, &self.bytes[index * m..][..m]);
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload({} bytes)", self.bytes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_payload_is_zero() {
        let p = Payload::zero(32);
        assert!(p.is_zero());
        assert_eq!(p.len(), 32);
        assert!(!p.is_empty());
    }

    #[test]
    fn empty_payload() {
        let p = Payload::zero(0);
        assert!(p.is_empty());
        assert!(p.is_zero());
    }

    #[test]
    fn xor_assign_is_bytewise() {
        let mut a = Payload::from_vec(vec![0b1010_1010; 4]);
        let b = Payload::from_vec(vec![0b0000_1111; 4]);
        a.xor_assign(&b);
        assert_eq!(a.into_vec(), vec![0b1010_0101; 4]);
    }

    #[test]
    fn xor_with_zero_is_identity() {
        let a = Payload::from_vec(vec![1, 2, 3, 4]);
        let z = Payload::zero(4);
        assert_eq!(a.xor(&z), a);
    }

    #[test]
    fn xor_with_self_is_zero() {
        let a = Payload::from_vec(vec![9, 8, 7]);
        assert!(a.xor(&a).is_zero());
    }

    #[test]
    fn try_xor_assign_rejects_size_mismatch() {
        let mut a = Payload::zero(4);
        let b = Payload::zero(5);
        assert_eq!(a.try_xor_assign(&b), Err(Gf2Error::LengthMismatch { left: 4, right: 5 }));
    }

    #[test]
    #[should_panic(expected = "different sizes")]
    fn xor_assign_panics_on_size_mismatch() {
        let mut a = Payload::zero(4);
        a.xor_assign(&Payload::zero(5));
    }

    #[test]
    fn xor_assign_many_matches_sequential_folds() {
        // Length chosen to exercise full lanes, a word tail, and a byte tail.
        let m = 2 * 64 + 8 + 3;
        let mk =
            |seed: u8| Payload::from_vec((0..m).map(|j| (j as u8).wrapping_mul(seed)).collect());
        let sources = [mk(3), mk(5), mk(7), mk(11), mk(13)];
        let refs: Vec<&Payload> = sources.iter().collect();
        let mut batched = mk(1);
        let mut sequential = mk(1);
        batched.xor_assign_many(&refs);
        for s in &sources {
            sequential.xor_assign(s);
        }
        assert_eq!(batched, sequential);
    }

    #[test]
    fn xor_assign_many_with_no_sources_is_identity() {
        let mut a = Payload::from_vec(vec![1, 2, 3]);
        a.xor_assign_many(&[]);
        assert_eq!(a.as_bytes(), &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "different sizes")]
    fn xor_assign_many_panics_on_size_mismatch() {
        let mut a = Payload::zero(4);
        let b = Payload::zero(5);
        a.xor_assign_many(&[&b]);
    }

    proptest! {
        #[test]
        fn prop_xor_commutes(a in proptest::collection::vec(any::<u8>(), 0..64),
                             b_seed in any::<u8>()) {
            let b: Vec<u8> = a.iter().map(|x| x.wrapping_add(b_seed)).collect();
            let pa = Payload::from_vec(a);
            let pb = Payload::from_vec(b);
            prop_assert_eq!(pa.xor(&pb), pb.xor(&pa));
        }

        #[test]
        fn prop_double_xor_is_identity(a in proptest::collection::vec(any::<u8>(), 0..64),
                                       mask in any::<u8>()) {
            let b: Vec<u8> = a.iter().map(|x| x ^ mask).collect();
            let pa = Payload::from_vec(a.clone());
            let pb = Payload::from_vec(b);
            let mut w = pa.clone();
            w.xor_assign(&pb);
            w.xor_assign(&pb);
            prop_assert_eq!(w, pa);
        }
    }
}
