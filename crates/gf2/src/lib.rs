//! GF(2) primitives for LT network codes.
//!
//! This crate provides the algebraic substrate shared by every coding scheme in
//! the workspace:
//!
//! * [`CodeVector`] — a dense bitmap over the `k` native packets describing which
//!   native packets participate in a linear combination (the paper transmits code
//!   vectors "represented by bitmaps" in packet headers).
//! * [`Payload`] — the `m`-byte data part of a packet, supporting in-place XOR.
//! * [`EncodedPacket`] — a code vector together with its payload.
//! * [`Gf2Solver`] — incremental Gaussian elimination that tracks which received
//!   rows make up each reduced row; [`Gf2Solver::solve`] back-substitutes on those
//!   combinations alone and [`Recipes::replay`] applies the result to the payloads
//!   once, with Four-Russians tables. The decoder of the RLNC baseline.
//!
//! All operations are over GF(2): addition is XOR and every element is its own
//! inverse, which is what makes the "substitution by adding a degree-2 packet"
//! trick of LTNC work (`x ⊕ x = 0`).
//!
//! # Example
//!
//! ```
//! use ltnc_gf2::{CodeVector, Payload, EncodedPacket};
//!
//! // k = 8 native packets, combine x1 and x3 (0-indexed: 0 and 2).
//! let mut v = CodeVector::zero(8);
//! v.set(0);
//! v.set(2);
//! assert_eq!(v.degree(), 2);
//!
//! let mut p = Payload::from_vec(vec![0xAA; 16]);
//! p.xor_assign(&Payload::from_vec(vec![0x0F; 16]));
//! assert_eq!(p.as_bytes()[0], 0xA5);
//!
//! let packet = EncodedPacket::new(v, p);
//! assert_eq!(packet.degree(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod code_vector;
mod error;
mod matrix;
mod packet;
mod payload;
pub mod wire;

pub use code_vector::CodeVector;
pub use error::Gf2Error;
pub use matrix::{Gf2Solver, Recipes};
pub use packet::EncodedPacket;
pub use payload::Payload;
