//! Transport-neutral object sessions for LT network codes.
//!
//! Historically the generation construction lived inside `ltnc-net`, next
//! to its UDP peer actor. It is not about datagrams, though: chunking an
//! object into codeable generations, tracking per-generation decode state
//! and reassembling the object bit-exactly is exactly the same work
//! whether packets arrive over UDP gossip, a TCP serving session
//! (`ltnc-serve`) or a future QUIC binding. This crate holds that shared
//! layer, and both transports import it from here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generation;
pub mod lease;

pub use generation::{split_object, ObjectManifest, ReceiverSession, SourceSession};
pub use lease::{DeliverOutcome, LeaseTable, SharedReceiver};
