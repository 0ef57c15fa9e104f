//! `ltnc-ledger`: the repository's reference benchmark.
//!
//! Five workloads drive the system through its public functions only and
//! time those calls from outside; nothing inside `crates/` is
//! instrumented. Every run is a closed loop with one client: one object
//! in flight, the next operation starts once the previous one has been
//! verified bit-exact against the generated input. See `README.md`.

pub mod chain;
pub mod fetch;
pub mod probes;
pub mod procstat;
pub mod report;
pub mod run;
pub mod seed;
pub mod spec;
pub mod stats;
pub mod swarm;
pub mod trace;
pub mod workload;
