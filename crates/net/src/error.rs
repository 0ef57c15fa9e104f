use core::fmt;

use ltnc_gf2::Gf2Error;
use ltnc_scheme::SummaryError;

/// Errors of the wire codec and session layer.
///
/// Decoding never panics: every malformed, truncated or oversized input maps
/// to a variant here, because on a real socket *every* byte pattern will
/// eventually arrive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The buffer ends before the structure is complete. `needed` is the
    /// total length required (so an incremental caller knows how much more
    /// to read); `have` is what was supplied.
    Truncated {
        /// Bytes available.
        have: usize,
        /// Total bytes required to make progress.
        needed: usize,
    },
    /// The frame does not start with the `LTNC` magic.
    BadMagic([u8; 4]),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown message kind byte.
    BadKind(u8),
    /// Unknown scheme identifier byte.
    BadScheme(u8),
    /// Advertised dimensions exceed the decoder's safety limits (a corrupt
    /// or hostile header must not drive allocation).
    FrameTooLarge {
        /// Advertised code length `k`.
        code_length: usize,
        /// Advertised payload size `m`.
        payload_size: usize,
    },
    /// The frame decoded but left unconsumed trailing bytes.
    TrailingBytes {
        /// Number of unconsumed bytes.
        extra: usize,
    },
    /// The inner `gf2` wire frame was malformed.
    Wire(Gf2Error),
    /// The summary of an `ABORT-SUMMARY` is not the one encoding of a
    /// decoded set and its components.
    BadSummary(SummaryError),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Truncated { have, needed } => {
                write!(f, "truncated frame: have {have} bytes, need {needed}")
            }
            NetError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            NetError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            NetError::BadKind(k) => write!(f, "unknown message kind {k}"),
            NetError::BadScheme(s) => write!(f, "unknown scheme id {s}"),
            NetError::FrameTooLarge { code_length, payload_size } => {
                write!(f, "frame dimensions too large (k = {code_length}, m = {payload_size})")
            }
            NetError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after frame")
            }
            NetError::Wire(e) => write!(f, "gf2 wire error: {e}"),
            NetError::BadSummary(e) => write!(f, "bad abort summary: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<Gf2Error> for NetError {
    fn from(e: Gf2Error) -> Self {
        NetError::Wire(e)
    }
}
