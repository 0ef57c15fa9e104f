//! `ltnc-reactor`: a vendored mini-runtime for running many node state
//! machines on a few threads.
//!
//! Every UDP node of `ltnc-net` is scheduled here — a swarm of any size
//! on a few workers — and so is every TCP session of `ltnc-serve`'s
//! server, with no external dependencies:
//!
//! * [`Poller`] — readiness polling (read, and write on request): `epoll`
//!   (edge-triggered) on Linux, a degraded-but-correct spurious-wakeup
//!   backend elsewhere;
//! * [`TimerWheel`] — hashed wheel for protocol ticks and pending-TTL
//!   deadlines, never-early firing, lazy cancellation;
//! * [`Waker`] — cross-thread wakeup with coalescing, built on a
//!   self-connected loopback datagram socket;
//! * [`Reactor`] / [`Driven`] — the sharded scheduler: nodes are
//!   partitioned round-robin across worker threads and driven through
//!   readiness and timer callbacks — for their own descriptor and for
//!   any they watch ([`Cx::watch`]) — with a graceful shutdown sweep
//!   that drains in-flight datagrams before collecting outputs;
//! * [`ShardObserver`] — the instrumentation seam: a dependency-free
//!   hook trait the worker loops report scheduler events through (poll
//!   waits, dispatch latencies, timer lag, turns), so embedding
//!   crates can keep histograms without this crate owning any.
//!
//! The crate is deliberately protocol-agnostic: `ltnc-net` implements
//! [`Driven`] for its node and `ltnc-serve` for its server's shards.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod observe;
mod poll;
mod shard;
mod timer;
mod wake;

pub use observe::{Dispatch, ShardObserver};
pub use poll::{Event, Poller};
pub use shard::{Cx, Driven, Reactor};
pub use timer::{TimerId, TimerWheel};
pub use wake::Waker;
