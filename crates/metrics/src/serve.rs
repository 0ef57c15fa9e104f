use core::fmt;

crate::counter_family! {
    /// Accounting of a serving endpoint (the TCP edge-cache server).
    ///
    /// Where [`crate::WireCounters`] describes one gossip endpoint's traffic,
    /// `ServeCounters` describes a *server*: how many client sessions it
    /// accepted and finished, what left on the wire, how the header-first
    /// feedback channel fared, and — the point of the warm store — how often
    /// a symbol was served from cache instead of encoded.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ServeCounters {
        /// Client sessions accepted (request matched a registered object).
        pub sessions_accepted: u64,
        /// Client requests refused (unknown object, scheme mismatch), and
        /// connections closed unanswered because the server already held
        /// its `max_sessions`.
        pub sessions_rejected: u64,
        /// Sessions that reached the client's final object-complete signal.
        pub sessions_completed: u64,
        /// Bytes written to client sockets.
        pub bytes_out: u64,
        /// Bytes read from client sockets.
        pub bytes_in: u64,
        /// Header-first transfer offers sent.
        pub transfers_offered: u64,
        /// Offers the client aborted after seeing only the header.
        pub transfers_aborted: u64,
        /// Offers that carried their payload to acceptance.
        pub transfers_delivered: u64,
        /// Symbols served straight from the warm cache (no coding work).
        pub cache_hits: u64,
        /// Symbols that had to be encoded on demand.
        pub cache_misses: u64,
        /// Symbols evicted to keep a warm ring at capacity.
        pub cache_evictions: u64,
    }
    snapshot_delta {
        /// `Server::counters` snapshots are cumulative since spawn, which is
        /// the wrong shape for dashboards; polling on an interval and
        /// diffing consecutive snapshots yields rates.
        ///
        /// # Example
        ///
        /// ```
        /// use ltnc_metrics::ServeCounters;
        ///
        /// // Two cumulative snapshots, taken (say) 10 seconds apart…
        /// let earlier = ServeCounters { bytes_out: 1_000, cache_hits: 40, ..ServeCounters::new() };
        /// let now = ServeCounters { bytes_out: 6_000, cache_hits: 90, ..ServeCounters::new() };
        ///
        /// // …become interval activity, and from there rates.
        /// let delta = now.snapshot_delta(&earlier);
        /// assert_eq!(delta.bytes_out, 5_000);
        /// assert_eq!(delta.cache_hits, 50);
        /// let interval_secs = 10.0;
        /// assert_eq!(delta.bytes_out as f64 / interval_secs, 500.0); // B/s
        /// ```
    }
    atomic {
        /// The live cells a server's workers bump, one relaxed `fetch_add`
        /// per event. The cache fields stay zero: the store keeps those.
        #[derive(Debug, Default)]
        pub struct AtomicServeCounters;
    }
}

impl ServeCounters {
    /// Fraction of symbol requests served from the warm cache, in
    /// `[0, 1]`; `0` when no symbol was ever requested.
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Fraction of offered transfers the client aborted at the header, in
    /// `[0, 1]`; `0` when nothing was offered.
    #[must_use]
    pub fn abort_rate(&self) -> f64 {
        if self.transfers_offered == 0 {
            0.0
        } else {
            self.transfers_aborted as f64 / self.transfers_offered as f64
        }
    }
}

impl fmt::Display for ServeCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sessions {} accepted / {} rejected / {} completed, \
             {} B out / {} B in, transfers {} offered / {} aborted / {} delivered, \
             cache {} hits / {} misses / {} evictions ({:.0}% hit)",
            self.sessions_accepted,
            self.sessions_rejected,
            self.sessions_completed,
            self.bytes_out,
            self.bytes_in,
            self.transfers_offered,
            self.transfers_aborted,
            self.transfers_delivered,
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            self.cache_hit_rate() * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fieldwise() {
        let mut a = ServeCounters { sessions_accepted: 1, cache_hits: 10, ..ServeCounters::new() };
        let b = ServeCounters {
            sessions_accepted: 2,
            cache_hits: 5,
            cache_misses: 5,
            bytes_out: 100,
            ..ServeCounters::new()
        };
        a.merge(&b);
        assert_eq!(a.sessions_accepted, 3);
        assert_eq!(a.cache_hits, 15);
        assert_eq!(a.bytes_out, 100);
    }

    #[test]
    fn rates_handle_zero_denominators() {
        let zero = ServeCounters::new();
        assert_eq!(zero.cache_hit_rate(), 0.0);
        assert_eq!(zero.abort_rate(), 0.0);
        let c = ServeCounters {
            cache_hits: 3,
            cache_misses: 1,
            transfers_offered: 8,
            transfers_aborted: 2,
            ..ServeCounters::new()
        };
        assert!((c.cache_hit_rate() - 0.75).abs() < 1e-12);
        assert!((c.abort_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn display_is_stable() {
        let s = ServeCounters::new().to_string();
        assert!(s.contains("0 accepted"));
        assert!(s.contains("0 hits"));
    }

    #[test]
    fn snapshot_delta_diffs_every_field_and_saturates() {
        let earlier = ServeCounters {
            sessions_accepted: 3,
            sessions_rejected: 1,
            sessions_completed: 2,
            bytes_out: 1000,
            bytes_in: 100,
            transfers_offered: 50,
            transfers_aborted: 5,
            transfers_delivered: 40,
            cache_hits: 30,
            cache_misses: 10,
            cache_evictions: 4,
        };
        let now = ServeCounters {
            sessions_accepted: 7,
            sessions_rejected: 1,
            sessions_completed: 6,
            bytes_out: 2500,
            bytes_in: 260,
            transfers_offered: 90,
            transfers_aborted: 9,
            transfers_delivered: 72,
            cache_hits: 75,
            cache_misses: 15,
            cache_evictions: 4,
        };
        let delta = now.snapshot_delta(&earlier);
        assert_eq!(
            delta,
            ServeCounters {
                sessions_accepted: 4,
                sessions_rejected: 0,
                sessions_completed: 4,
                bytes_out: 1500,
                bytes_in: 160,
                transfers_offered: 40,
                transfers_aborted: 4,
                transfers_delivered: 32,
                cache_hits: 45,
                cache_misses: 5,
                cache_evictions: 0,
            }
        );
        // Interval rates derive directly from the delta.
        assert!((delta.cache_hit_rate() - 0.9).abs() < 1e-12);
        // Out-of-order snapshots saturate to zero instead of wrapping.
        let backwards = earlier.snapshot_delta(&now);
        assert_eq!(backwards, ServeCounters::new());
        // Deltas re-accumulate: earlier + delta == now.
        let mut rebuilt = earlier;
        rebuilt.merge(&delta);
        assert_eq!(rebuilt, now);
    }
}
