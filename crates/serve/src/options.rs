//! Validated tuning options of the serving subsystem.

use std::net::SocketAddr;
use std::time::Duration;

use crate::ServeError;

/// Tuning knobs of a [`crate::Server`], in the style of
/// `ltnc_net::TopologyConfig` / `NodeOptions` — but *validated*: a zero or
/// absurd value is an error at spawn time, never a panic or a silent
/// hang deep inside a session.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Pre-encoded symbols the warm cache keeps per hot generation.
    /// Should comfortably exceed the code length `k` of the objects
    /// served, so one cache pass can complete a typical client.
    pub warm_cache_capacity: usize,
    /// Transfer offers a session keeps awaiting feedback at once (the
    /// pipelining depth of the header-first handshake over TCP). It
    /// bounds what a session can make either end hold: the server keeps
    /// this many packets pending, and at most this many offers plus
    /// accepted payloads sit unread on the wire.
    ///
    /// The default of 16 is the handshake's bandwidth × delay on
    /// loopback: a round trip of offer → verdict → payload lasts about as
    /// long as the two ends take to process 16 symbols, so a smaller
    /// window leaves the pipe idle while verdicts travel. It is also no
    /// larger than a typical lease: offers go round-robin over the
    /// generations a client still wants, so while the window does not
    /// exceed their number at most one offer per generation is in flight
    /// and the client never judges an offer against a decoder state that
    /// a payload still in flight is about to change. Past that point a
    /// deeper window buys goodput with duplicate and aborted transfers.
    pub per_session_inflight: usize,
    /// Worker threads consuming accepted connections.
    pub workers: usize,
    /// Accepted connections that may queue for a free worker before the
    /// accept loop starts refusing new ones.
    pub accept_backlog: usize,
    /// Socket read timeout: the cadence at which blocked sessions notice
    /// shutdown and pump fresh offers.
    pub read_timeout: Duration,
    /// A session with no inbound bytes for this long is dropped, so idle
    /// connections cannot pin worker threads indefinitely.
    pub idle_timeout: Duration,
    /// Replica identity salt. Replicas of the same object should each run
    /// with a distinct salt: it seeds the warm store's per-generation
    /// encoders (so two replicas never produce identical symbol streams)
    /// and offsets each session's initial warm-ring cursors (so two
    /// replicas with warm rings don't serve identical prefixes). Striped
    /// clients rely on this — duplicate-rank symbols across replicas are
    /// discarded work. `0` (the default) applies no offset, matching the
    /// single-server behaviour.
    pub replica_salt: u64,
    /// When set, the server binds a telemetry scrape endpoint here
    /// (port 0 for ephemeral — see `Server::metrics_addr`) serving the
    /// live `serve` counter family as Prometheus text (`/metrics`) and
    /// JSON (`/metrics.json`). `None` (the default) runs no endpoint and
    /// costs nothing.
    pub metrics_bind: Option<SocketAddr>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            warm_cache_capacity: 256,
            per_session_inflight: 16,
            workers: 4,
            accept_backlog: 64,
            read_timeout: Duration::from_millis(5),
            idle_timeout: Duration::from_secs(30),
            replica_salt: 0,
            metrics_bind: None,
        }
    }
}

/// Bounds accepted by [`ServeOptions::validate`]. Public so operators can
/// surface them in their own configuration errors.
pub mod bounds {
    /// Maximum warm-cache capacity per generation (symbols).
    pub const MAX_CACHE_CAPACITY: usize = 1 << 20;
    /// Maximum per-session in-flight budget.
    pub const MAX_INFLIGHT: usize = 4096;
    /// Maximum worker threads.
    pub const MAX_WORKERS: usize = 1024;
    /// Maximum queued-connection backlog.
    pub const MAX_BACKLOG: usize = 1 << 16;
    /// Maximum read timeout in milliseconds (a larger value would make
    /// shutdown and offer pumping pathologically slow).
    pub const MAX_READ_TIMEOUT_MS: u64 = 10_000;
    /// Maximum idle timeout in milliseconds.
    pub const MAX_IDLE_TIMEOUT_MS: u64 = 3_600_000;
}

impl ServeOptions {
    /// Checks every knob against its bounds.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidOption`] naming the first offending knob.
    pub fn validate(&self) -> Result<(), ServeError> {
        let checks: [(&'static str, u64, u64, u64); 6] = [
            (
                "warm_cache_capacity",
                self.warm_cache_capacity as u64,
                1,
                bounds::MAX_CACHE_CAPACITY as u64,
            ),
            (
                "per_session_inflight",
                self.per_session_inflight as u64,
                1,
                bounds::MAX_INFLIGHT as u64,
            ),
            ("workers", self.workers as u64, 1, bounds::MAX_WORKERS as u64),
            ("accept_backlog", self.accept_backlog as u64, 1, bounds::MAX_BACKLOG as u64),
            (
                "read_timeout_ms",
                self.read_timeout.as_millis() as u64,
                1,
                bounds::MAX_READ_TIMEOUT_MS,
            ),
            (
                "idle_timeout_ms",
                self.idle_timeout.as_millis() as u64,
                1,
                bounds::MAX_IDLE_TIMEOUT_MS,
            ),
        ];
        for (name, value, min, max) in checks {
            if value < min || value > max {
                return Err(ServeError::InvalidOption { name, value, min, max });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(ServeOptions::default().validate().is_ok());
    }

    #[test]
    fn zero_and_absurd_values_are_errors_not_panics() {
        let cases: [ServeOptions; 5] = [
            ServeOptions { warm_cache_capacity: 0, ..ServeOptions::default() },
            ServeOptions { per_session_inflight: 0, ..ServeOptions::default() },
            ServeOptions { workers: 0, ..ServeOptions::default() },
            ServeOptions {
                warm_cache_capacity: bounds::MAX_CACHE_CAPACITY + 1,
                ..ServeOptions::default()
            },
            ServeOptions { read_timeout: Duration::from_secs(3600), ..ServeOptions::default() },
        ];
        for options in cases {
            match options.validate() {
                Err(ServeError::InvalidOption { .. }) => {}
                other => panic!("expected InvalidOption, got {other:?}"),
            }
        }
    }
}
