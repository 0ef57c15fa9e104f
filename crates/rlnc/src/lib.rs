//! Random Linear Network Coding (RLNC) — the paper's baseline scheme.
//!
//! RLNC nodes recode by XOR-ing a *random* subset of the encoded packets they
//! hold (bounded by the sparsity parameter `ln k + 20`, the setting the paper
//! cites as optimal for sparse linear network codes) and decode by Gaussian
//! elimination over GF(2), which costs `O(k²)` row operations on the code
//! matrix plus `O(m·k²)` payload work — the complexity LTNC is designed to
//! avoid. The baseline is kept honest: the elimination runs on bit vectors
//! only, and the payloads are touched once, at the end, through
//! Four-Russians XOR tables (≈ k²/7 payload XORs at k = 2048 instead of the
//! textbook k²/2).
//!
//! The crate exposes:
//!
//! * [`GaussianDecoder`] — incremental Gaussian elimination with an
//!   innovation check on reception (the "partial Gaussian reduction" the
//!   paper mentions) and payload recovery at full rank;
//! * [`SparseRecoder`] — the random recoding rule;
//! * [`RlncNode`] — the per-node state used by the dissemination sessions,
//!   bundling both and accounting costs into [`ltnc_metrics::OpCounters`].
//!
//! # Example
//!
//! ```
//! use ltnc_rlnc::RlncNode;
//! use ltnc_gf2::{EncodedPacket, Payload};
//! use rand::SeedableRng;
//! use rand::rngs::SmallRng;
//!
//! let k = 16;
//! let m = 8;
//! let natives: Vec<Payload> = (0..k).map(|i| Payload::from_vec(vec![i as u8; m])).collect();
//! let mut rng = SmallRng::seed_from_u64(1);
//!
//! // A "source" node that holds everything and recodes.
//! let mut source = RlncNode::new(k, m);
//! for (i, p) in natives.iter().enumerate() {
//!     source.receive(&EncodedPacket::native(k, i, p.clone()));
//! }
//!
//! // A receiver that decodes from recoded packets only.
//! let mut sink = RlncNode::new(k, m);
//! while !sink.is_complete() {
//!     let packet = source.recode(&mut rng).unwrap();
//!     sink.receive(&packet);
//! }
//! assert_eq!(sink.decode().unwrap(), natives);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod decoder;
mod error;
mod node;
mod recoder;

pub use decoder::GaussianDecoder;
pub use error::RlncError;
pub use node::{ReceiveOutcome, RlncNode};
pub use recoder::{sparsity_for, SparseRecoder};
