use core::fmt;

/// Errors produced by GF(2) operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Gf2Error {
    /// Two operands had incompatible lengths (code length or payload size).
    LengthMismatch {
        /// Length of the left-hand operand.
        left: usize,
        /// Length of the right-hand operand.
        right: usize,
    },
    /// An index was outside the code length.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// The code length.
        len: usize,
    },
    /// A wire code vector that is not the one encoding of its vector: a
    /// non-minimal or over-long varint, an index list no shorter than the
    /// bitmap, or a bitmap that the index list would beat.
    NonCanonicalVector,
    /// A decode was attempted before the system was solvable.
    NotFullRank {
        /// Current rank of the system.
        rank: usize,
        /// Number of unknowns (code length).
        needed: usize,
    },
}

impl fmt::Display for Gf2Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gf2Error::LengthMismatch { left, right } => {
                write!(f, "length mismatch: {left} vs {right}")
            }
            Gf2Error::IndexOutOfRange { index, len } => {
                write!(f, "index {index} out of range for length {len}")
            }
            Gf2Error::NonCanonicalVector => write!(f, "non-canonical wire code vector"),
            Gf2Error::NotFullRank { rank, needed } => {
                write!(f, "system not full rank: rank {rank} of {needed}")
            }
        }
    }
}

impl std::error::Error for Gf2Error {}
