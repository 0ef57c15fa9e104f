//! Cost accounting and statistics for the LTNC reproduction.
//!
//! The paper's Figure 8 reports CPU cycles split along two axes:
//!
//! * **recoding vs decoding** — the operation being performed, and
//! * **control vs data** — whether the work touches the control structures
//!   (code vectors, Tanner graph, code matrix, indexes) or the `m`-byte
//!   payloads themselves.
//!
//! We do not have the authors' Xeon testbed, so this crate provides two
//! complementary ways to reproduce those figures:
//!
//! 1. [`OpCounters`] — deterministic counts of the elementary operations each
//!    scheme performs (payload XORs, code-vector XORs, row reductions, index
//!    updates, …). These are platform independent and are what the simulator
//!    records per node.
//! 2. [`CostModel`] — a translation of those counts into estimated cycles,
//!    using per-operation weights calibrated to a commodity x86 core. The
//!    absolute numbers are not meaningful; the *ratios* (LTNC vs RLNC, control
//!    vs data, scaling with `k`) are what the reproduction compares against the
//!    paper.
//!
//! The transports' counter families ([`WireCounters`], [`ServeCounters`],
//! [`StripeCounters`], [`HopCounters`], [`ReactorSnapshot`]) are each
//! declared once with [`counter_family!`].
//!
//! The crate also contains small statistics helpers ([`Summary`], [`Histogram`],
//! [`TimeSeries`]) used by the simulator and the figure harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod counters;
mod family;
mod histogram;
mod hop;
mod loghist;
mod reactor;
mod series;
mod serve;
mod stripe;
mod summary;
mod wire;

pub use cost::{CostBreakdown, CostModel};
pub use counters::{OpCounters, OpKind};
pub use family::{CounterFamily, Field};
pub use histogram::Histogram;
pub use hop::{HopCounters, HopStats};
pub use loghist::{
    bucket_bound, HopLatency, LogHistogram, LogHistogramSnapshot, LOG_BUCKETS, MAX_LATENCY_HOPS,
};
pub use reactor::{ReactorCounters, ReactorSnapshot};
pub use series::TimeSeries;
pub use serve::{AtomicServeCounters, ServeCounters};
pub use stripe::{ReplicaCounters, StripeCounters};
pub use summary::Summary;
pub use wire::WireCounters;
