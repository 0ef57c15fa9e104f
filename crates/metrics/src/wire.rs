use core::fmt;

crate::counter_family! {
    /// Transport-level traffic accounting for one endpoint.
    ///
    /// Where [`crate::OpCounters`] counts *coding* work (XORs, row reductions),
    /// `WireCounters` counts what actually crosses the network: datagrams and
    /// bytes, split into control (envelopes, code-vector headers, feedback) and
    /// data (payload bytes), plus the outcomes of the paper's binary feedback
    /// channel — transfers aborted after the header never cost payload bytes,
    /// which is exactly the saving the feedback channel exists to provide.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct WireCounters {
        /// Datagrams handed to the socket.
        pub datagrams_sent: u64,
        /// Datagrams received and decoded successfully.
        pub datagrams_received: u64,
        /// Total bytes handed to the socket (envelope + body).
        pub bytes_sent: u64,
        /// Total bytes received in decodable datagrams.
        pub bytes_received: u64,
        /// Bytes of payload data sent (the data-plane share of `bytes_sent`).
        pub payload_bytes_sent: u64,
        /// Header-probe transfers offered to peers (one per `DATA-HEADER`).
        pub transfers_offered: u64,
        /// Transfers a peer aborted after seeing only the header.
        pub transfers_aborted: u64,
        /// Transfers that carried their payload to acceptance.
        pub transfers_delivered: u64,
        /// Payload deliveries that turned out useful (innovative) at the receiver.
        pub useful_deliveries: u64,
        /// Datagrams that failed envelope or frame decoding.
        pub decode_errors: u64,
        /// Well-formed datagrams discarded for belonging to another session or
        /// scheme (not corruption: e.g. a stale peer from a previous run).
        pub session_mismatches: u64,
        /// Always 0: the queue that dropped went with the thread-per-node
        /// runtime; kept because the frozen `benchmark/` reads it.
        pub inbound_dropped: u64,
        /// Offers that never received feedback and were forgotten at their TTL
        /// — the loss signal the adaptive pacing budget reacts to.
        pub offer_timeouts: u64,
        /// Times an adaptive in-flight budget crossed up to the next integer
        /// (additive increase on observed feedback).
        pub budget_raises: u64,
        /// Times an adaptive in-flight budget was cut (multiplicative decrease
        /// after offer timeouts).
        pub budget_cuts: u64,
        /// Payloads dropped unread: they claimed no accept given on their link.
        pub unsolicited_payloads: u64,
        /// Accepts evicted, oldest first, to keep a link's accept table in its cap.
        pub accepts_evicted: u64,
        /// Senders' accept tables evicted, least recently used first, to keep
        /// their number in its cap.
        pub accept_ledgers_evicted: u64,
        /// Verdicts, accept or abort, that went out as `ACCEPT-SUMMARY` or
        /// `ABORT-SUMMARY`, with the receiver's decoded set and components.
        pub summaries_sent: u64,
        /// Offers of a packet built from the peer's summary (Algorithm 4).
        pub smart_offers: u64,
        /// Smart offers the peer aborted all the same: it learned something
        /// between its summary and the offer.
        pub smart_aborts: u64,
    }
    snapshot_delta {
        /// Sampling a live endpoint at two instants and diffing yields the
        /// traffic of that interval alone, so a periodic scraper can report
        /// rates without the endpoint ever resetting its counters:
        ///
        /// ```
        /// use ltnc_metrics::WireCounters;
        ///
        /// let earlier = WireCounters { datagrams_sent: 40, bytes_sent: 4_000, ..WireCounters::new() };
        /// let now = WireCounters { datagrams_sent: 65, bytes_sent: 6_500, ..WireCounters::new() };
        /// let delta = now.snapshot_delta(&earlier);
        /// assert_eq!(delta.datagrams_sent, 25);
        /// assert_eq!(delta.bytes_sent, 2_500);
        /// ```
    }
}

impl fmt::Display for WireCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sent {} dgrams / {} B ({} B payload), recv {} dgrams / {} B, \
             transfers {} offered / {} aborted / {} delivered ({} useful) / {} timed out, \
             {} decode errors, {} foreign-session, {} dropped, \
             budget {} raises / {} cuts, {} unsolicited payloads / {} accepts evicted / \
             {} accept tables evicted, {} summaries sent, smart offers {} / {} aborted",
            self.datagrams_sent,
            self.bytes_sent,
            self.payload_bytes_sent,
            self.datagrams_received,
            self.bytes_received,
            self.transfers_offered,
            self.transfers_aborted,
            self.transfers_delivered,
            self.useful_deliveries,
            self.offer_timeouts,
            self.decode_errors,
            self.session_mismatches,
            self.inbound_dropped,
            self.budget_raises,
            self.budget_cuts,
            self.unsolicited_payloads,
            self.accepts_evicted,
            self.accept_ledgers_evicted,
            self.summaries_sent,
            self.smart_offers,
            self.smart_aborts,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fieldwise() {
        let mut a = WireCounters { datagrams_sent: 1, bytes_sent: 100, ..WireCounters::new() };
        let b = WireCounters {
            datagrams_sent: 2,
            bytes_sent: 50,
            payload_bytes_sent: 30,
            transfers_aborted: 4,
            ..WireCounters::new()
        };
        a.merge(&b);
        assert_eq!(a.datagrams_sent, 3);
        assert_eq!(a.bytes_sent, 150);
        assert_eq!(a.payload_bytes_sent, 30);
        assert_eq!(a.transfers_aborted, 4);
    }

    #[test]
    fn pacing_counters_merge_and_rate() {
        let mut a = WireCounters {
            transfers_offered: 10,
            offer_timeouts: 2,
            budget_raises: 3,
            ..WireCounters::new()
        };
        let b = WireCounters { offer_timeouts: 1, budget_cuts: 4, ..WireCounters::new() };
        a.merge(&b);
        assert_eq!(a.offer_timeouts, 3);
        assert_eq!(a.budget_raises, 3);
        assert_eq!(a.budget_cuts, 4);
        assert_eq!(a.transfers_offered, 10);
    }

    #[test]
    fn snapshot_delta_diffs_every_field_and_saturates() {
        let earlier = WireCounters {
            datagrams_sent: 10,
            datagrams_received: 9,
            bytes_sent: 1_000,
            bytes_received: 900,
            payload_bytes_sent: 600,
            transfers_offered: 8,
            transfers_aborted: 1,
            transfers_delivered: 6,
            useful_deliveries: 5,
            decode_errors: 1,
            session_mismatches: 2,
            inbound_dropped: 3,
            offer_timeouts: 1,
            budget_raises: 2,
            budget_cuts: 1,
            unsolicited_payloads: 4,
            accepts_evicted: 0,
            accept_ledgers_evicted: 1,
            summaries_sent: 30,
            smart_offers: 20,
            smart_aborts: 2,
        };
        let now = WireCounters {
            datagrams_sent: 25,
            datagrams_received: 20,
            bytes_sent: 2_600,
            bytes_received: 2_000,
            payload_bytes_sent: 1_700,
            transfers_offered: 20,
            transfers_aborted: 3,
            transfers_delivered: 15,
            useful_deliveries: 12,
            decode_errors: 1,
            session_mismatches: 2,
            inbound_dropped: 4,
            offer_timeouts: 3,
            budget_raises: 6,
            budget_cuts: 2,
            unsolicited_payloads: 7,
            accepts_evicted: 2,
            accept_ledgers_evicted: 1,
            summaries_sent: 41,
            smart_offers: 29,
            smart_aborts: 3,
        };
        let delta = now.snapshot_delta(&earlier);
        assert_eq!(
            delta,
            WireCounters {
                datagrams_sent: 15,
                datagrams_received: 11,
                bytes_sent: 1_600,
                bytes_received: 1_100,
                payload_bytes_sent: 1_100,
                transfers_offered: 12,
                transfers_aborted: 2,
                transfers_delivered: 9,
                useful_deliveries: 7,
                decode_errors: 0,
                session_mismatches: 0,
                inbound_dropped: 1,
                offer_timeouts: 2,
                budget_raises: 4,
                budget_cuts: 1,
                unsolicited_payloads: 3,
                accepts_evicted: 2,
                accept_ledgers_evicted: 0,
                summaries_sent: 11,
                smart_offers: 9,
                smart_aborts: 1,
            }
        );
        // Re-accumulating the delta onto the earlier snapshot round-trips.
        let mut rebuilt = earlier;
        rebuilt.merge(&delta);
        assert_eq!(rebuilt, now);
        // A counter that went "backwards" (stale earlier) saturates at 0.
        assert_eq!(earlier.snapshot_delta(&now).datagrams_sent, 0);
    }

    #[test]
    fn display_is_stable() {
        let c = WireCounters::new();
        let s = c.to_string();
        assert!(s.contains("0 dgrams"));
        assert!(s.contains("0 aborted"));
    }
}
