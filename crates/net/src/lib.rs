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
//! * generations — chunking of arbitrarily large objects into
//!   generations of `k` payloads, per-generation decode state, push
//!   scheduling and bit-exact reassembly live in the transport-neutral
//!   [`ltnc_session::generation`], which UDP gossip and the TCP serving
//!   path of `ltnc-serve` share;
//! * [`stream`] — the byte-stream binding of the envelope codec: a
//!   [`stream::FrameReassembler`] that turns arbitrarily chunked TCP
//!   reads back into complete envelopes via [`envelope::decode_prefix`],
//!   the same one-pass parse a datagram gets, tolerant of hostile input;
//! * [`faults`] — seeded, deterministic fault injection for both
//!   transports: [`faults::FaultyStream`] over any `Read` plus a TCP
//!   [`faults::FaultProxy`] (drops, delays, truncation and
//!   disconnect-at-byte-K), and per-link [`faults::DatagramFaultPlan`]s
//!   for UDP (whole-datagram drop/duplicate/reorder/delay on the
//!   receiving end, carried out for both swarm drivers by one sans-io
//!   node endpoint on the node's microsecond clock), so every transport
//!   test can run under adverse conditions reproducibly;
//! * [`ledger`] — the sender's and the receiver's halves of the
//!   header-first transfer on one link, for a node and `ltnc-serve` alike;
//! * [`peer`] — the sans-io node state machine: event-clocked offers,
//!   loss-adaptive per-peer in-flight budgets (AIMD over feedback
//!   arrivals and offer timeouts), the aggressiveness gate for relays,
//!   and wire-level accounting ([`ltnc_metrics::WireCounters`]) in each
//!   node's [`PeerReport`]. Its tuning is [`NodeOptions`];
//! * [`swarm`] — one description of a run, [`TopologyConfig`]: an
//!   overlay [`Topology`] with its source, seeded per-directed-link loss
//!   ([`TopologyFaults`]) and the node tuning. Its two drivers are
//!   [`run_swarm`], every node on a localhost UDP socket on
//!   `ltnc-reactor`, and [`run_virtual_swarm`]; both return the same
//!   [`SwarmReport`], and nodes are numbered by topology index
//!   throughout. A node runs no other way. The per-hop and per-link
//!   attribution of a run lives one crate up, in `ltnc-topo`.
//!
//! # Example
//!
//! ```
//! use ltnc_net::{run_swarm, Topology, TopologyConfig};
//! use ltnc_scheme::SchemeKind;
//!
//! // A 2-hop line: source → relay → leaf. The relay starts empty and
//! // recodes; the leaf can only ever hear the relay.
//! let object: Vec<u8> = (0..500u32).map(|i| (i * 7 % 256) as u8).collect();
//! let mut config = TopologyConfig::quick(SchemeKind::Rlnc, object, Topology::line(3));
//! config.code_length = 8;
//! let report = run_swarm(&config).unwrap();
//! assert!(report.converged && report.bit_exact);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod endpoint;
pub mod envelope;
mod error;
pub mod faults;
pub mod ledger;
mod observe;
pub mod peer;
mod sharded;
pub mod stream;
pub mod swarm;
mod topology;
mod virtual_time;

pub use envelope::{Envelope, EnvelopeHeader, Message, MessageKind};
pub use error::NetError;
pub use faults::{DatagramFaultCounters, DatagramFaultPlan};
pub use peer::{NodeOptions, PeerReport};
pub use sharded::run_swarm;
pub use stream::FrameReassembler;
pub use swarm::{FlightRecorder, SwarmReport, SwarmRuntime, TopologyConfig, TopologyFaults};
pub use topology::Topology;
pub use virtual_time::{run_virtual_swarm, LINK_LATENCY};
