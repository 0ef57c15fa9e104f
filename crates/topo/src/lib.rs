//! Per-hop and per-link attribution of multi-hop dissemination runs.
//!
//! The paper's headline claim is that LTNC lets *intermediate* nodes
//! recode LT symbols without decoding. A [`TopologyConfig`] (from
//! `ltnc-net`, re-exported here) names the overlay a run uses — a
//! [`Topology`]: line, ring, star, binary tree, complete, seeded random
//! k-regular, or an explicit edge list — and every node pushes only to
//! its neighbours, so on a line every byte reaching the far end has
//! crossed every interior relay, each of which starts empty and recodes
//! from whatever it has decoded so far. [`run_topology`] (over UDP) and
//! [`run_topology_virtual`] (in virtual time) run it and return a
//! [`TopologyReport`] that attributes the outcome per hop
//! ([`ltnc_metrics::HopCounters`]) and per link.
//!
//! Loss is declared per *directed link* ([`TopologyFaults`]): one seeded
//! [`ltnc_net::faults::DatagramFaultPlan`] template re-mixed per link
//! (plus explicit overrides), installed as per-origin plans on each
//! receiving node's inbound side. One seed describes the whole overlay's
//! loss pattern, and every injected fault stays attributable to the link
//! that ate it — the multi-hop lossy channel of Kabore et al.
//! (arXiv:1509.06019), reproducible byte for byte.
//!
//! # Example
//!
//! ```
//! use ltnc_scheme::SchemeKind;
//! use ltnc_topo::{run_topology, Topology, TopologyConfig};
//!
//! // A 2-hop line: source → relay → leaf. The relay starts empty and
//! // recodes; the leaf can only ever hear the relay.
//! let object: Vec<u8> = (0..400u32).map(|i| (i * 7 % 256) as u8).collect();
//! let mut config = TopologyConfig::quick(SchemeKind::Rlnc, object, Topology::line(3));
//! config.code_length = 8;
//! config.payload_size = 16;
//! let report = run_topology(&config).unwrap();
//! assert!(report.swarm.converged && report.swarm.bit_exact);
//! assert!(report.relay_recoding_ops > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod run;

pub use ltnc_net::{FlightRecorder, SwarmRuntime, Topology, TopologyConfig, TopologyFaults};
pub use run::{run_topology, run_topology_virtual, TopologyReport};
