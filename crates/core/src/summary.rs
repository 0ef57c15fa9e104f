//! What a receiver tells a sender with its verdict on an offer: the natives
//! it decoded and the components of those it has not (`cc_r` of
//! Algorithm 4), in the one canonical form the wire carries. The sender
//! keeps it and [`Summary::fold`]s into it the packets it knows are on
//! their way.
//!
//! ```text
//! +-------------------------------+------------+----------------------------------+
//! | decoded set: k, m = 0, c and  | n (varint) | n components, first members      |
//! | vector, a gf2 wire header     |            | rising: s (varint, ≥ 2), s gaps  |
//! +-------------------------------+------------+----------------------------------+
//! ```
//!
//! The decoded set is a `gf2::wire` header with `m = 0`, so its vector goes
//! as the shorter of the bitmap and the index list. A component lists its
//! members the way the index list does: the first index, then
//! `index_i − index_{i−1} − 1`. Only undecoded components of two or more
//! natives are listed; every other undecoded native is alone in its own.
//!
//! [`Summary::decode_prefix`] refuses every byte string [`Summary::encode_into`]
//! does not write: an index ≥ `k`, a native listed twice (in the decoded set
//! and a component, or in two components), a component of fewer than two
//! natives, components whose first members do not rise, a non-canonical
//! vector or varint, a set padding bit, and `m ≠ 0`. A gap list cannot
//! write its members out of order. The summary ends where its last
//! component does; what follows is the caller's.

use core::fmt;

use ltnc_gf2::wire::{self, FIXED_HEADER_BYTES};
use ltnc_gf2::{CodeVector, Gf2Error};

use crate::components::DECODED_CLASS;
use crate::LtncNode;

/// A receiver's decoded set and its undecoded components of two or more
/// natives, each sorted, in the order of their first members.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    decoded: CodeVector,
    components: Vec<Vec<usize>>,
}

/// Why [`Summary::decode_prefix`] refused its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SummaryError {
    /// The input ends inside the summary, which is at least `needed`
    /// bytes long.
    Truncated {
        /// The least length the summary can still have.
        needed: usize,
    },
    /// A form no encoder writes: the longer vector form, a non-minimal
    /// varint, a set padding bit or `m ≠ 0`.
    NonCanonical,
    /// A listed native outside the code length.
    IndexOutOfRange {
        /// The native.
        index: usize,
        /// The code length `k`.
        len: usize,
    },
    /// A native listed twice, or more components or members than `k`
    /// natives can fill without repeating one.
    Overlap {
        /// The native listed again, or the count no `k` natives can fill.
        index: usize,
    },
    /// A component of fewer than two natives.
    Singleton,
    /// A component whose first member is not above the previous one's.
    Unsorted,
}

impl fmt::Display for SummaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SummaryError::Truncated { needed } => write!(f, "summary needs {needed} bytes"),
            SummaryError::NonCanonical => write!(f, "non-canonical summary"),
            SummaryError::IndexOutOfRange { index, len } => {
                write!(f, "summary lists native {index} of {len}")
            }
            SummaryError::Overlap { index } => write!(f, "summary lists {index} twice"),
            SummaryError::Singleton => write!(f, "summary lists a singleton component"),
            SummaryError::Unsorted => write!(f, "summary components out of order"),
        }
    }
}

impl std::error::Error for SummaryError {}

impl Summary {
    /// The summary of a receiver with component labels `labels`, one per
    /// native, as [`LtncNode::component_labels`] returns them: equal labels
    /// share a component and [`DECODED_CLASS`] marks the decoded natives.
    /// Which label a component carries does not matter.
    ///
    /// # Panics
    ///
    /// Panics if a label exceeds `labels.len()`, which no tracker's does.
    #[must_use]
    pub fn from_labels(labels: &[usize]) -> Summary {
        let k = labels.len();
        let mut size = vec![0usize; k + 1];
        for &label in labels {
            size[label] += 1;
        }
        let mut decoded = CodeVector::zero(k);
        let (mut slot, mut components) = (vec![usize::MAX; k + 1], Vec::<Vec<usize>>::new());
        for (x, &label) in labels.iter().enumerate() {
            if label == DECODED_CLASS {
                decoded.set(x);
            } else if size[label] > 1 {
                if slot[label] == usize::MAX {
                    slot[label] = components.len();
                    components.push(Vec::with_capacity(size[label]));
                }
                components[slot[label]].push(x);
            }
        }
        Summary { decoded, components }
    }

    /// The fewest bytes a summary of code length `k` with `decoded`
    /// natives decoded encodes to: the decoded set's shorter form takes
    /// `c` and one byte per native or per 8 natives at least, and the
    /// count of components one byte. A caller with a size cap reads this
    /// before it builds the summary; past `k ≈ 2048` the bitmap alone
    /// outgrows a cap of a few hundred bytes.
    #[must_use]
    pub fn min_encoded_len(k: usize, decoded: usize) -> usize {
        FIXED_HEADER_BYTES + 1 + decoded.min(k.div_ceil(8)) + 1
    }

    /// The code length `k` the summary describes.
    #[must_use]
    pub fn code_length(&self) -> usize {
        self.decoded.len()
    }

    /// The receiver's labels as [`LtncNode::smart_packet`] reads them:
    /// [`DECODED_CLASS`] for a decoded native, one more than the first
    /// member of its component for any other.
    #[must_use]
    pub fn labels(&self) -> Vec<usize> {
        let mut labels: Vec<usize> = (1..=self.code_length()).collect();
        for x in self.decoded.iter_ones() {
            labels[x] = DECODED_CLASS;
        }
        for members in &self.components {
            for &x in members {
                labels[x] = members[0] + 1;
            }
        }
        labels
    }

    /// Folds in a packet of degree 1 or 2 that the receiver is about to
    /// take, as its decoder would: a native decodes its whole component,
    /// and so does the other native of a pair one side of which is decoded;
    /// a pair of two undecoded natives merges their components. A packet of
    /// another degree or code length changes nothing. The receiver may
    /// learn more from its buffered packets of higher degree, which no
    /// summary shows, but never less.
    pub fn fold(&mut self, vector: &CodeVector) {
        if vector.len() != self.code_length() {
            return;
        }
        let mut natives = vector.iter_ones();
        match (natives.next(), natives.next(), natives.next()) {
            (Some(x), None, _) => self.decode_component(x),
            (Some(x), Some(y), None) => {
                match (self.decoded.contains(x), self.decoded.contains(y)) {
                    (true, true) => {}
                    (true, false) => self.decode_component(y),
                    (false, true) => self.decode_component(x),
                    (false, false) => self.merge(x, y),
                }
            }
            _ => {}
        }
    }

    /// The position of the listed component holding `x`, if one does.
    fn component_of(&self, x: usize) -> Option<usize> {
        self.components.iter().position(|members| members.binary_search(&x).is_ok())
    }

    /// Marks `x` and the rest of its component decoded.
    fn decode_component(&mut self, x: usize) {
        match self.component_of(x) {
            Some(at) => self.components.remove(at).into_iter().for_each(|m| self.decoded.set(m)),
            None => self.decoded.set(x),
        }
    }

    /// Joins the components of the undecoded natives `x` and `y`, keeping
    /// the components in the order of their first members.
    fn merge(&mut self, x: usize, y: usize) {
        let (at_x, at_y) = (self.component_of(x), self.component_of(y));
        if at_x.is_some() && at_x == at_y {
            return;
        }
        let mut members = Vec::new();
        // The later position first, so the earlier one stays where it is.
        for at in [at_x.max(at_y), at_x.min(at_y)].into_iter().flatten() {
            members.append(&mut self.components.remove(at));
        }
        // A native in no listed component is alone in its own.
        if at_x.is_none() {
            members.push(x);
        }
        if at_y.is_none() {
            members.push(y);
        }
        members.sort_unstable();
        let at = self.components.partition_point(|listed| listed[0] < members[0]);
        self.components.insert(at, members);
    }

    /// Appends the summary's one encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        wire::encode_header_into(out, &self.decoded, 0);
        wire::write_varint(out, self.components.len());
        for members in &self.components {
            wire::write_varint(out, members.len());
            let mut next = 0;
            for &x in members {
                wire::write_varint(out, x - next);
                next = x + 1;
            }
        }
    }

    /// Decodes the summary that opens `bytes` and returns it with the number
    /// of bytes it took. The caller caps the `k` of the first four bytes:
    /// the decoded set is allocated at `⌈k/8⌉` bytes.
    ///
    /// # Errors
    ///
    /// [`SummaryError::Truncated`] while `bytes` ends inside the summary,
    /// with a `needed` that grows as the summary reveals its length, and
    /// the other variants for the forms the module docs list.
    pub fn decode_prefix(bytes: &[u8]) -> Result<(Summary, usize), SummaryError> {
        let (k, m) =
            wire::dims(bytes).ok_or(SummaryError::Truncated { needed: FIXED_HEADER_BYTES + 2 })?;
        if m != 0 {
            return Err(SummaryError::NonCanonical);
        }
        let (view, mut at) = wire::decode_prefix(bytes, true).map_err(|e| match e {
            // The count of components follows: one byte at least.
            Gf2Error::LengthMismatch { right, .. } => SummaryError::Truncated { needed: right + 1 },
            Gf2Error::IndexOutOfRange { index, len } => {
                SummaryError::IndexOutOfRange { index, len }
            }
            _ => SummaryError::NonCanonical,
        })?;
        // The decoder masks a bitmap's padding bits; a summary must not set them.
        if bytes[FIXED_HEADER_BYTES] == 0 && k % 8 != 0 && bytes[at - 1] >> (k % 8) != 0 {
            return Err(SummaryError::NonCanonical);
        }
        let (decoded, _) = view.into_packet().into_parts();
        // A varint at `at` with at least `rest` more bytes to come after it.
        let read = |at: usize, rest: usize| {
            wire::read_varint(bytes, at).map_err(|e| match e {
                Gf2Error::LengthMismatch { right, .. } => {
                    SummaryError::Truncated { needed: right.saturating_add(rest) }
                }
                _ => SummaryError::NonCanonical,
            })
        };
        // Every component takes three bytes at least: its size and two gaps.
        let (count, after) = read(at, 0)?;
        if count > k / 2 {
            return Err(SummaryError::Overlap { index: count });
        }
        at = after;
        let (mut listed, mut components) = (decoded.clone(), Vec::new());
        for left in (0..count).rev() {
            let (size, after) = read(at, 2 + 3 * left)?;
            if size < 2 {
                return Err(SummaryError::Singleton);
            } else if size > k {
                return Err(SummaryError::Overlap { index: size });
            }
            at = after;
            let mut members = Vec::with_capacity(size.min(bytes.len() - at));
            for rest in (0..size).rev() {
                let (gap, after) = read(at, rest + 3 * left)?;
                let x = members.last().map_or(0, |&last| last + 1) + gap;
                if x >= k {
                    return Err(SummaryError::IndexOutOfRange { index: x, len: k });
                }
                let previous: Option<&Vec<usize>> = components.last();
                if members.is_empty() && previous.is_some_and(|p| p[0] >= x) {
                    return Err(SummaryError::Unsorted);
                } else if listed.contains(x) {
                    return Err(SummaryError::Overlap { index: x });
                }
                listed.set(x);
                members.push(x);
                at = after;
            }
            components.push(members);
        }
        Ok((Summary { decoded, components }, at))
    }
}

impl LtncNode {
    /// This node's [`Summary`]: what it tells a sender with its verdict on
    /// an offer, so that the sender's next offer is one it cannot refuse.
    #[must_use]
    pub fn summary(&self) -> Summary {
        Summary::from_labels(&self.component_labels())
    }
}
