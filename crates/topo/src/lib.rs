//! Multi-hop overlay topologies with in-network recoding relays.
//!
//! The paper's headline claim is that LTNC lets *intermediate* nodes
//! recode LT symbols without decoding — yet the flat localhost swarm
//! (`ltnc_net::swarm`) and the 1-hop serving path never force a packet
//! through a relay: every receiver is one UDP hop from the source. This
//! crate closes that gap. A [`Topology`] declares which overlay node may
//! talk to which (line, ring, star, binary tree, complete, seeded random
//! k-regular, or an explicit edge list), [`run_topology`] lowers it onto
//! the wiring-generic swarm harness with *neighbour-restricted* push
//! sets — so on a line, every byte reaching the far end has crossed
//! every interior relay, each of which starts empty and recodes from
//! whatever it has decoded so far — and [`TopologyReport`] attributes
//! the outcome per hop ([`ltnc_metrics::HopCounters`]) and per link.
//!
//! Loss is declared per *directed link* ([`TopologyFaults`]): one seeded
//! [`ltnc_net::faults::DatagramFaultPlan`] template re-mixed per link
//! (plus explicit overrides), installed as per-origin plans on each
//! receiving node's [`ltnc_net::faults::FaultySocket`]. One seed
//! describes the whole overlay's loss pattern, and every injected fault
//! stays attributable to the link that ate it — the multi-hop lossy
//! channel of Kabore et al. (arXiv:1509.06019), reproducible byte for
//! byte.
//!
//! The legacy full-mesh swarm is the trivial case: a complete topology
//! with the source at index 0 lowers to exactly the legacy wiring (the
//! equivalence is asserted by this crate's tests).
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
pub mod topology;

pub use ltnc_net::swarm::{FlightRecorder, SwarmRuntime};
pub use run::{run_topology, run_topology_virtual, TopologyConfig, TopologyFaults, TopologyReport};
pub use topology::Topology;
