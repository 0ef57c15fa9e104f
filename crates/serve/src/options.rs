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
    /// Reactor worker threads. Each runs one shard of the server: it
    /// accepts connections and serves every session it accepted, so a
    /// worker holds any number of sessions at once.
    pub workers: usize,
    /// Connections the server holds at once, over all workers. Past it a
    /// new connection is closed unanswered and counted in
    /// `sessions_rejected`.
    pub max_sessions: usize,
    /// A session with no inbound bytes for this long is dropped (a
    /// reactor timer reaps it), so silent or departed clients do not
    /// hold their connections, and places under `max_sessions`, for
    /// ever.
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
            max_sessions: 64,
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
    /// Maximum sessions held at once.
    pub const MAX_SESSIONS: usize = 1 << 16;
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
        // Every knob's minimum is 1.
        let idle_timeout_ms = self.idle_timeout.as_millis() as u64;
        let checks = [
            ("warm_cache_capacity", self.warm_cache_capacity, bounds::MAX_CACHE_CAPACITY),
            ("per_session_inflight", self.per_session_inflight, bounds::MAX_INFLIGHT),
            ("workers", self.workers, bounds::MAX_WORKERS),
            ("max_sessions", self.max_sessions, bounds::MAX_SESSIONS),
        ]
        .map(|(name, value, max)| (name, value as u64, max as u64))
        .into_iter()
        .chain([("idle_timeout_ms", idle_timeout_ms, bounds::MAX_IDLE_TIMEOUT_MS)]);
        for (name, value, max) in checks {
            if !(1..=max).contains(&value) {
                return Err(ServeError::InvalidOption { name, value, min: 1, max });
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
            ServeOptions { idle_timeout: Duration::from_secs(3601), ..ServeOptions::default() },
        ];
        for options in cases {
            match options.validate() {
                Err(ServeError::InvalidOption { .. }) => {}
                other => panic!("expected InvalidOption, got {other:?}"),
            }
        }
    }
}
