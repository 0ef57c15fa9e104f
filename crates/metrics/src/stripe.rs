use core::fmt;

crate::counter_family! {
    /// One replica's share of a striped fetch.
    ///
    /// A striped client opens one session per replica; this is the per-stream
    /// accounting: what the replica offered, what the merged decoder took,
    /// and what arrived too late to matter (duplicate rank — discarded, the
    /// cost rateless union pays instead of coordination). Re-leased streams
    /// merge into the surviving replica's numbers.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ReplicaCounters {
        /// Header-first offers this replica made.
        pub offers_seen: u64,
        /// Offers the client aborted at the header (completed or duplicate
        /// rank, or a generation this stream does not lease).
        pub aborted: u64,
        /// Payloads this replica delivered.
        pub delivered: u64,
        /// Deliveries that advanced the merged decoder's rank.
        pub useful: u64,
        /// Deliveries discarded as duplicate rank (another replica got there
        /// first).
        pub duplicates: u64,
        /// Generations whose finishing symbol came from this replica.
        pub generations_completed: u64,
        /// Bytes received from this replica.
        pub bytes_in: u64,
        /// Bytes sent to this replica.
        pub bytes_out: u64,
        /// The stream ended in an error (disconnect, stall, protocol); its
        /// leases were re-assigned.
        pub failed: bool,
    }
}

crate::counter_family! {
    /// Accounting of one whole striped fetch across every replica stream.
    ///
    /// `replicas` has one fixed slot per configured replica (index =
    /// replica index); streams re-opened after a failover merge into the
    /// surviving replica's slot.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct StripeCounters {
        /// Per-replica stream accounting, indexed by replica.
        pub replicas: Vec<ReplicaCounters>,
        /// Replica streams declared dead (error or progress-watermark stall).
        pub failovers: u64,
        /// Generation leases moved to a survivor after a failover.
        pub generations_releases: u64,
    }
    snapshot_delta {
        /// Replica slots present now but not in `earlier` (a wider stripe)
        /// pass through whole, so a scraper that started before a
        /// reconfiguration still reads sane deltas.
        ///
        /// ```
        /// use ltnc_metrics::StripeCounters;
        ///
        /// let mut earlier = StripeCounters::with_replicas(2);
        /// earlier.replicas[0].delivered = 10;
        /// let mut now = StripeCounters::with_replicas(2);
        /// now.replicas[0].delivered = 25;
        /// now.failovers = 1;
        /// let delta = now.snapshot_delta(&earlier);
        /// assert_eq!(delta.replicas[0].delivered, 15);
        /// assert_eq!(delta.failovers, 1);
        /// ```
    }
}

impl StripeCounters {
    /// Counters for `replicas` streams, all zero.
    #[must_use]
    pub fn with_replicas(replicas: usize) -> StripeCounters {
        StripeCounters { replicas: vec![ReplicaCounters::new(); replicas], ..StripeCounters::new() }
    }

    /// Total payloads delivered across all replicas.
    #[must_use]
    pub fn total_delivered(&self) -> u64 {
        self.replicas.iter().map(|r| r.delivered).sum()
    }

    /// Total rank-advancing deliveries across all replicas.
    #[must_use]
    pub fn total_useful(&self) -> u64 {
        self.replicas.iter().map(|r| r.useful).sum()
    }

    /// Total duplicate-rank deliveries discarded across all replicas.
    #[must_use]
    pub fn duplicates_discarded(&self) -> u64 {
        self.replicas.iter().map(|r| r.duplicates).sum()
    }

    /// Replicas that delivered at least one useful symbol.
    #[must_use]
    pub fn contributing_replicas(&self) -> usize {
        self.replicas.iter().filter(|r| r.useful > 0).count()
    }

    /// Fraction of deliveries that were duplicates, in `[0, 1]`; `0` when
    /// nothing was delivered.
    #[must_use]
    pub fn duplicate_rate(&self) -> f64 {
        let delivered = self.total_delivered();
        if delivered == 0 {
            0.0
        } else {
            self.duplicates_discarded() as f64 / delivered as f64
        }
    }
}

impl fmt::Display for StripeCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} replicas ({} contributing), {} delivered / {} useful / {} duplicate, \
             {} failovers / {} leases moved",
            self.replicas.len(),
            self.contributing_replicas(),
            self.total_delivered(),
            self.total_useful(),
            self.duplicates_discarded(),
            self.failovers,
            self.generations_releases,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_sum_over_replicas() {
        let mut c = StripeCounters::with_replicas(3);
        c.replicas[0] =
            ReplicaCounters { delivered: 10, useful: 9, duplicates: 1, ..Default::default() };
        c.replicas[2] = ReplicaCounters { delivered: 5, useful: 5, ..Default::default() };
        assert_eq!(c.total_delivered(), 15);
        assert_eq!(c.total_useful(), 14);
        assert_eq!(c.duplicates_discarded(), 1);
        assert_eq!(c.contributing_replicas(), 2);
        assert!((c.duplicate_rate() - 1.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn zero_denominators_are_safe() {
        let c = StripeCounters::with_replicas(0);
        assert_eq!(c.duplicate_rate(), 0.0);
        assert_eq!(c.contributing_replicas(), 0);
    }

    #[test]
    fn snapshot_delta_is_pairwise_and_saturating() {
        let mut earlier = StripeCounters::with_replicas(2);
        earlier.replicas[0] = ReplicaCounters {
            offers_seen: 10,
            aborted: 2,
            delivered: 8,
            useful: 7,
            duplicates: 1,
            generations_completed: 1,
            bytes_in: 800,
            bytes_out: 80,
            failed: false,
        };
        earlier.failovers = 1;
        let mut now = earlier.clone();
        now.replicas[0].offers_seen = 25;
        now.replicas[0].delivered = 20;
        now.replicas[0].useful = 18;
        now.replicas[0].bytes_in = 2_000;
        now.replicas[0].failed = true;
        now.replicas[1].delivered = 5;
        now.failovers = 2;
        now.generations_releases = 3;

        let delta = now.snapshot_delta(&earlier);
        assert_eq!(delta.replicas[0].offers_seen, 15);
        assert_eq!(delta.replicas[0].delivered, 12);
        assert_eq!(delta.replicas[0].useful, 11);
        assert_eq!(delta.replicas[0].bytes_in, 1_200);
        assert_eq!(delta.replicas[0].aborted, 0);
        assert_eq!(delta.replicas[1].delivered, 5);
        assert_eq!(delta.failovers, 1);
        assert_eq!(delta.generations_releases, 3);
        // `failed` flips only on the interval where the failure happened.
        assert!(delta.replicas[0].failed);
        assert!(!now.snapshot_delta(&now).replicas[0].failed);
        // Saturation: diffing against a "later" snapshot yields zeros.
        assert_eq!(earlier.snapshot_delta(&now).replicas[0].offers_seen, 0);
    }

    #[test]
    fn snapshot_delta_handles_widened_stripe() {
        let earlier = StripeCounters::with_replicas(1);
        let mut now = StripeCounters::with_replicas(3);
        now.replicas[2].delivered = 4;
        let delta = now.snapshot_delta(&earlier);
        assert_eq!(delta.replicas.len(), 3);
        assert_eq!(delta.replicas[2].delivered, 4);
    }

    #[test]
    fn display_is_stable() {
        let s = StripeCounters::with_replicas(2).to_string();
        assert!(s.contains("2 replicas"));
        assert!(s.contains("0 failovers"));
    }
}
