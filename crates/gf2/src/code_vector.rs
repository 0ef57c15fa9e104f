use core::fmt;

use crate::Gf2Error;

const WORD_BITS: usize = 64;

/// A dense bitmap over the `k` native packets of a content.
///
/// Bit `i` is set when native packet `x_i` participates in the linear
/// combination described by this vector. The *degree* of a packet is the
/// number of set bits. The paper transmits code vectors as bitmaps in packet
/// headers, so this representation is both the wire format and the in-memory
/// format.
///
/// All mutating operations keep the vector length (`k`) fixed; combining two
/// vectors of different lengths is a logic error and panics in debug builds
/// (the checked variants return [`Gf2Error::LengthMismatch`]).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct CodeVector {
    /// Number of native packets `k` (number of valid bits).
    len: usize,
    /// Bit words, little-endian within the vector: bit `i` lives in
    /// `words[i / 64]` at position `i % 64`. Trailing bits beyond `len` are
    /// always zero (an invariant relied upon by `degree`).
    words: Vec<u64>,
}

impl CodeVector {
    /// Creates the all-zero vector of length `len` (the neutral element of XOR).
    #[must_use]
    pub fn zero(len: usize) -> Self {
        let n_words = len.div_ceil(WORD_BITS);
        CodeVector { len, words: vec![0; n_words] }
    }

    /// Creates a vector with exactly one bit set: the native packet `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    #[must_use]
    pub fn singleton(len: usize, index: usize) -> Self {
        let mut v = CodeVector::zero(len);
        v.set(index);
        v
    }

    /// Builds a vector of length `len` directly from its wire bitmap: exactly
    /// `⌈len/8⌉` bytes, bit `i` in byte `i / 8` at position `i % 8`. That bit
    /// order is the little-endian byte layout of the backing `u64` words, so
    /// the bitmap is decoded eight bytes per step instead of one bit at a
    /// time. Padding bits beyond `len` in the final byte are ignored (masked
    /// off, preserving the trailing-zero invariant of the last word).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not exactly `⌈len/8⌉` bytes long.
    #[must_use]
    pub fn from_le_bytes(len: usize, bytes: &[u8]) -> Self {
        assert_eq!(
            bytes.len(),
            len.div_ceil(8),
            "bitmap for a length-{len} vector must be {} bytes",
            len.div_ceil(8)
        );
        let mut words = Vec::with_capacity(len.div_ceil(WORD_BITS));
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            words.push(u64::from_le_bytes(chunk.try_into().expect("word-sized chunk")));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut buf = [0u8; 8];
            buf[..tail.len()].copy_from_slice(tail);
            words.push(u64::from_le_bytes(buf));
        }
        if !len.is_multiple_of(WORD_BITS) {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << (len % WORD_BITS)) - 1;
            }
        }
        CodeVector { len, words }
    }

    /// Appends the wire bitmap (`⌈len/8⌉` bytes, inverse of
    /// [`CodeVector::from_le_bytes`]) to `out`, emitting whole words at a
    /// time. The trailing-zero invariant makes truncating the last word's
    /// bytes lossless.
    pub fn write_le_bytes(&self, out: &mut Vec<u8>) {
        let mut remaining = self.len.div_ceil(8);
        for word in &self.words {
            let take = remaining.min(8);
            out.extend_from_slice(&word.to_le_bytes()[..take]);
            remaining -= take;
        }
    }

    /// Creates a vector with the given native packet indices set.
    ///
    /// Duplicate indices cancel out pairwise (GF(2) semantics): `from_indices(8, &[1, 1, 2])`
    /// has degree 1.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= len`.
    #[must_use]
    pub fn from_indices(len: usize, indices: &[usize]) -> Self {
        let mut v = CodeVector::zero(len);
        for &i in indices {
            v.flip(i);
        }
        v
    }

    /// Number of native packets `k` this vector ranges over.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the code length is zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` when no bit is set (the zero combination).
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The degree of the packet: the number of native packets involved.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` when native packet `index` participates in this combination.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    #[must_use]
    pub fn contains(&self, index: usize) -> bool {
        assert!(index < self.len, "index {index} out of range {}", self.len);
        (self.words[index / WORD_BITS] >> (index % WORD_BITS)) & 1 == 1
    }

    /// Sets bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn set(&mut self, index: usize) {
        assert!(index < self.len, "index {index} out of range {}", self.len);
        self.words[index / WORD_BITS] |= 1 << (index % WORD_BITS);
    }

    /// Clears bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn clear(&mut self, index: usize) {
        assert!(index < self.len, "index {index} out of range {}", self.len);
        self.words[index / WORD_BITS] &= !(1 << (index % WORD_BITS));
    }

    /// Flips bit `index` (adds `x_index` over GF(2)).
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn flip(&mut self, index: usize) {
        assert!(index < self.len, "index {index} out of range {}", self.len);
        self.words[index / WORD_BITS] ^= 1 << (index % WORD_BITS);
    }

    /// Adds `other` to `self` over GF(2) (bitwise XOR).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor_assign(&mut self, other: &CodeVector) {
        assert_eq!(self.len, other.len, "cannot combine code vectors of different lengths");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= *b;
        }
    }

    /// Checked variant of [`CodeVector::xor_assign`].
    ///
    /// # Errors
    ///
    /// Returns [`Gf2Error::LengthMismatch`] when the code lengths differ.
    pub fn try_xor_assign(&mut self, other: &CodeVector) -> Result<(), Gf2Error> {
        if self.len != other.len {
            return Err(Gf2Error::LengthMismatch { left: self.len, right: other.len });
        }
        self.xor_assign(other);
        Ok(())
    }

    /// Returns `self ⊕ other` without modifying either operand.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[must_use]
    pub fn xor(&self, other: &CodeVector) -> CodeVector {
        let mut out = self.clone();
        out.xor_assign(other);
        out
    }

    /// Degree of `self ⊕ other` computed without allocating the combined vector.
    ///
    /// This is the hot operation of Algorithm 1 in the paper (the greedy build
    /// step checks `d(z) < d(z ⊕ y) ≤ d` for every candidate `y`), so it avoids
    /// the allocation of [`CodeVector::xor`].
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[must_use]
    pub fn xor_degree(&self, other: &CodeVector) -> usize {
        assert_eq!(self.len, other.len);
        self.words.iter().zip(&other.words).map(|(a, b)| (a ^ b).count_ones() as usize).sum()
    }

    /// Number of native packets present in both combinations (`|self ∩ other|`).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[must_use]
    pub fn intersection_size(&self, other: &CodeVector) -> usize {
        assert_eq!(self.len, other.len);
        self.words.iter().zip(&other.words).map(|(a, b)| (a & b).count_ones() as usize).sum()
    }

    /// Returns `true` when every native packet of `self` also appears in `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[must_use]
    pub fn is_subset_of(&self, other: &CodeVector) -> bool {
        assert_eq!(self.len, other.len);
        self.words.iter().zip(&other.words).all(|(a, b)| a & !b == 0)
    }

    /// Iterates over the indices of the native packets involved, in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(wi, &word)| OnesInWord { word, base: wi * WORD_BITS })
    }

    /// Collects the indices of the native packets involved.
    #[must_use]
    pub fn ones(&self) -> Vec<usize> {
        self.iter_ones().collect()
    }

    /// Index of the lowest set bit, or `None` for the zero vector.
    #[must_use]
    pub fn first_one(&self) -> Option<usize> {
        for (wi, &word) in self.words.iter().enumerate() {
            if word != 0 {
                return Some(wi * WORD_BITS + word.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Raw words backing the bitmap (read-only, for hashing/serialization helpers).
    #[must_use]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }
}

impl fmt::Debug for CodeVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CodeVector(k={}, ones={:?})", self.len, self.ones())
    }
}

/// The set bits of one bitmap word, lowest first, as indices offset by `base`.
pub(crate) struct OnesInWord {
    pub(crate) word: u64,
    pub(crate) base: usize,
}

impl Iterator for OnesInWord {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + tz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_vector_has_degree_zero() {
        let v = CodeVector::zero(100);
        assert_eq!(v.degree(), 0);
        assert!(v.is_zero());
        assert_eq!(v.len(), 100);
        assert!(!v.is_empty());
    }

    #[test]
    fn empty_vector_is_empty() {
        let v = CodeVector::zero(0);
        assert!(v.is_empty());
        assert!(v.is_zero());
        assert_eq!(v.degree(), 0);
    }

    #[test]
    fn singleton_has_degree_one() {
        let v = CodeVector::singleton(70, 65);
        assert_eq!(v.degree(), 1);
        assert!(v.contains(65));
        assert!(!v.contains(64));
        assert_eq!(v.first_one(), Some(65));
    }

    #[test]
    fn from_indices_cancels_duplicates() {
        let v = CodeVector::from_indices(8, &[1, 1, 2]);
        assert_eq!(v.degree(), 1);
        assert!(v.contains(2));
        assert!(!v.contains(1));
    }

    #[test]
    fn set_clear_flip_roundtrip() {
        let mut v = CodeVector::zero(130);
        v.set(129);
        assert!(v.contains(129));
        v.flip(129);
        assert!(!v.contains(129));
        v.flip(129);
        assert!(v.contains(129));
        v.clear(129);
        assert!(!v.contains(129));
    }

    #[test]
    fn xor_is_gf2_addition() {
        let a = CodeVector::from_indices(10, &[1, 2, 3]);
        let b = CodeVector::from_indices(10, &[2, 3, 4]);
        let c = a.xor(&b);
        assert_eq!(c.ones(), vec![1, 4]);
        assert_eq!(c.degree(), 2);
        assert_eq!(a.xor_degree(&b), 2);
    }

    #[test]
    fn xor_with_self_is_zero() {
        let a = CodeVector::from_indices(200, &[0, 63, 64, 127, 128, 199]);
        let z = a.xor(&a);
        assert!(z.is_zero());
        assert_eq!(a.xor_degree(&a), 0);
    }

    #[test]
    fn try_xor_assign_rejects_length_mismatch() {
        let mut a = CodeVector::zero(10);
        let b = CodeVector::zero(11);
        assert_eq!(a.try_xor_assign(&b), Err(Gf2Error::LengthMismatch { left: 10, right: 11 }));
    }

    #[test]
    #[should_panic(expected = "different lengths")]
    fn xor_assign_panics_on_length_mismatch() {
        let mut a = CodeVector::zero(10);
        a.xor_assign(&CodeVector::zero(11));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        let mut v = CodeVector::zero(10);
        v.set(10);
    }

    #[test]
    fn iter_ones_is_sorted_and_complete() {
        let idx = [0, 5, 63, 64, 65, 120, 121, 191];
        let v = CodeVector::from_indices(192, &idx);
        assert_eq!(v.ones(), idx.to_vec());
    }

    #[test]
    fn subset_and_intersection() {
        let a = CodeVector::from_indices(100, &[1, 2, 3]);
        let b = CodeVector::from_indices(100, &[1, 2, 3, 70]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert_eq!(a.intersection_size(&b), 3);
        assert_eq!(a.intersection_size(&CodeVector::zero(100)), 0);
    }

    #[test]
    fn wire_size_rounds_up() {
        for (len, bytes) in [(2048, 256), (7, 1), (8, 1), (9, 2)] {
            let mut wire = Vec::new();
            CodeVector::zero(len).write_le_bytes(&mut wire);
            assert_eq!(wire.len(), bytes, "len {len}");
        }
    }

    #[test]
    fn first_one_of_zero_is_none() {
        assert_eq!(CodeVector::zero(50).first_one(), None);
    }

    #[test]
    fn le_bytes_roundtrip_preserves_bits() {
        for &len in &[1usize, 7, 8, 9, 63, 64, 65, 127, 128, 129] {
            let indices: Vec<usize> = (0..len).step_by(3).collect();
            let v = CodeVector::from_indices(len, &indices);
            let mut wire = Vec::new();
            v.write_le_bytes(&mut wire);
            assert_eq!(wire.len(), len.div_ceil(8));
            assert_eq!(CodeVector::from_le_bytes(len, &wire), v, "len {len}");
        }
    }

    #[test]
    fn from_le_bytes_masks_padding_bits() {
        // len = 5 needs one byte; bits 5..8 are padding and must be dropped.
        let v = CodeVector::from_le_bytes(5, &[0b1111_1111]);
        assert_eq!(v.ones(), vec![0, 1, 2, 3, 4]);
        assert_eq!(v.as_words(), &[0b1_1111]);
        // len = 68: padding lives in the second word.
        let v = CodeVector::from_le_bytes(68, &[0xFF; 9]);
        assert_eq!(v.degree(), 68);
        assert_eq!(v.as_words()[1], 0b1111);
    }

    #[test]
    #[should_panic(expected = "must be 2 bytes")]
    fn from_le_bytes_rejects_wrong_size() {
        let _ = CodeVector::from_le_bytes(9, &[0]);
    }

    #[test]
    fn as_words_exposes_backing_storage() {
        let v = CodeVector::from_indices(77, &[3, 64, 76]);
        assert_eq!(v.as_words().len(), 2);
        assert_eq!(v.as_words()[0], 1 << 3);
        assert_eq!(v.as_words()[1], (1 << 0) | (1 << 12));
    }

    proptest! {
        #[test]
        fn prop_degree_equals_ones_len(indices in proptest::collection::vec(0usize..256, 0..64)) {
            let v = CodeVector::from_indices(256, &indices);
            prop_assert_eq!(v.degree(), v.ones().len());
        }

        #[test]
        fn prop_xor_commutes(
            a in proptest::collection::vec(0usize..200, 0..40),
            b in proptest::collection::vec(0usize..200, 0..40),
        ) {
            let va = CodeVector::from_indices(200, &a);
            let vb = CodeVector::from_indices(200, &b);
            prop_assert_eq!(va.xor(&vb), vb.xor(&va));
        }

        #[test]
        fn prop_xor_associates(
            a in proptest::collection::vec(0usize..100, 0..30),
            b in proptest::collection::vec(0usize..100, 0..30),
            c in proptest::collection::vec(0usize..100, 0..30),
        ) {
            let va = CodeVector::from_indices(100, &a);
            let vb = CodeVector::from_indices(100, &b);
            let vc = CodeVector::from_indices(100, &c);
            prop_assert_eq!(va.xor(&vb).xor(&vc), va.xor(&vb.xor(&vc)));
        }

        #[test]
        fn prop_xor_degree_matches_xor(
            a in proptest::collection::vec(0usize..300, 0..60),
            b in proptest::collection::vec(0usize..300, 0..60),
        ) {
            let va = CodeVector::from_indices(300, &a);
            let vb = CodeVector::from_indices(300, &b);
            prop_assert_eq!(va.xor_degree(&vb), va.xor(&vb).degree());
        }

        #[test]
        fn prop_double_xor_is_identity(
            a in proptest::collection::vec(0usize..150, 0..40),
            b in proptest::collection::vec(0usize..150, 0..40),
        ) {
            let va = CodeVector::from_indices(150, &a);
            let vb = CodeVector::from_indices(150, &b);
            let mut w = va.clone();
            w.xor_assign(&vb);
            w.xor_assign(&vb);
            prop_assert_eq!(w, va);
        }

        #[test]
        fn prop_intersection_plus_xor_consistency(
            a in proptest::collection::vec(0usize..128, 0..40),
            b in proptest::collection::vec(0usize..128, 0..40),
        ) {
            // |A Δ B| = |A| + |B| - 2|A ∩ B|
            let va = CodeVector::from_indices(128, &a);
            let vb = CodeVector::from_indices(128, &b);
            prop_assert_eq!(
                va.xor_degree(&vb),
                va.degree() + vb.degree() - 2 * va.intersection_size(&vb)
            );
        }
    }
}
