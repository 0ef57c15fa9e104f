//! Datagram transport and session layer for LT network codes.
//!
//! This crate runs the [`ltnc_scheme::Scheme`] implementations as one
//! protocol node — encoder → wire → socket → recoder → decoder — and
//! drives that one node two ways: over real UDP sockets on the reactor,
//! and in virtual time over in-memory links ([`run_virtual_swarm`]),
//! which is what the paper's figures run on:
//!
//! * [`envelope`] — the versioned wire protocol: a 19-byte envelope
//!   (magic, version, kind, scheme, session, generation) framing the
//!   `gf2::wire` packet format, with a pure sans-io codec whose
//!   header-first incremental decode carries the paper's binary feedback
//!   channel onto real sockets (`DATA-HEADER` offer →
//!   `FEEDBACK-ACCEPT`/`ABORT` → `DATA-PAYLOAD`; aborted transfers never
//!   cost payload bytes);
//! * [`generation`] — chunking of arbitrarily large objects into
//!   generations of `k` payloads, per-generation decode state, push
//!   scheduling and bit-exact reassembly (now the transport-neutral
//!   [`ltnc_session`] crate, re-exported here under its historical paths
//!   so UDP gossip and the TCP serving path of `ltnc-serve` share one
//!   implementation);
//! * [`stream`] — the byte-stream binding of the envelope codec: a
//!   [`stream::FrameReassembler`] that turns arbitrarily chunked TCP
//!   reads back into complete envelopes via [`envelope::decode_prefix`],
//!   the same one-pass parse a datagram gets, tolerant of hostile input;
//! * [`faults`] — seeded, deterministic fault injection for both
//!   transports: [`faults::FaultyStream`] over any `Read + Write` plus a
//!   TCP [`faults::FaultProxy`] (drops, delays, truncation and
//!   disconnect-at-byte-K), and [`faults::FaultySocket`] over UDP
//!   (whole-datagram drop/duplicate/reorder/delay per direction, decided
//!   by the one routine the virtual-time links use too), so every
//!   transport test can run under adverse conditions reproducibly;
//! * [`peer`] — the sans-io node state machine and its
//!   [`peer::PeerNode`] handle on `ltnc-reactor`: event-clocked offers,
//!   loss-adaptive per-peer in-flight budgets (AIMD over feedback
//!   arrivals and offer timeouts), the aggressiveness gate for relays,
//!   and graceful shutdown with wire-level accounting
//!   ([`ltnc_metrics::WireCounters`]);
//! * [`swarm`] — one-call orchestration used by the integration tests
//!   and the examples, optionally running every node behind seeded
//!   datagram faults ([`swarm::SwarmConfig::faults`]). The harness is
//!   wiring-generic ([`swarm::run_wired_swarm`] and
//!   [`run_virtual_swarm`] over a [`swarm::SwarmWiring`] with
//!   per-directed-link fault plans); the legacy full mesh is the trivial
//!   wiring, and the declarative multi-hop topology layer on top lives
//!   in the `ltnc-topo` crate.
//!
//! # Example
//!
//! ```
//! use ltnc_net::swarm::{run_localhost_swarm, SwarmConfig};
//! use ltnc_scheme::SchemeKind;
//!
//! let object: Vec<u8> = (0..500u32).map(|i| (i * 7 % 256) as u8).collect();
//! let mut config = SwarmConfig::quick(SchemeKind::Rlnc, object);
//! config.peers = 2;
//! config.code_length = 8;
//! let report = run_localhost_swarm(&config).unwrap();
//! assert!(report.converged && report.bit_exact);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod envelope;
mod error;
pub mod faults;
mod observe;
pub mod peer;
mod sharded;
pub mod stream;
pub mod swarm;
mod virtual_time;

// Backward-compatible re-export: `ltnc_net::generation::…` keeps working
// even though the implementation moved to the transport-neutral
// `ltnc-session` crate.
pub use ltnc_session::generation;

pub use envelope::{Envelope, EnvelopeHeader, Message, MessageKind};
pub use error::NetError;
pub use faults::{
    DatagramFaultCounters, DatagramFaultPlan, DatagramFaults, FaultPlan, FaultProxy, FaultySocket,
    FaultyStream,
};
pub use ltnc_session::{split_object, ObjectManifest, ReceiverSession, SourceSession};
pub use peer::{NodeConfig, NodeOptions, NodeRole, PeerNode, PeerReport};
pub use stream::FrameReassembler;
pub use swarm::{
    run_localhost_swarm, run_wired_swarm, FlightRecorder, SwarmConfig, SwarmReport, SwarmRuntime,
    SwarmWiring,
};
pub use virtual_time::{run_virtual_swarm, LINK_LATENCY};
