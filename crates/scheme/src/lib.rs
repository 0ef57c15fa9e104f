//! The pluggable per-node coding behaviour shared by every driver in the
//! workspace.
//!
//! The [`Scheme`] trait is the contract between *any* dissemination
//! session (UDP gossip in `ltnc-net`, TCP serving in `ltnc-serve`) and
//! the three coding schemes of the paper's evaluation:
//!
//! * [`WcNode`] — "Without Coding", native packets only;
//! * [`RlncSchemeNode`] — sparse RLNC with Gaussian decoding;
//! * [`LtncSchemeNode`] — LT network codes (the paper's contribution).
//!
//! [`SchemeKind`] names a scheme, and [`SchemeParams`] builds empty or
//! source nodes for one — exactly what a transport session needs when it
//! opens a generation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adapters;
mod kind;
mod wc;

pub use adapters::{LtncSchemeNode, RlncSchemeNode, Scheme};
pub use kind::{SchemeKind, SchemeParams};
pub use ltnc_core::{Summary, SummaryError};
pub use wc::{WcNode, WC_BUFFER, WC_FANOUT};
