use core::fmt;

crate::counter_family! {
    /// Aggregate statistics of the nodes at one hop distance from the source.
    ///
    /// A multi-hop run buckets every node by its overlay distance to the
    /// source (0 = the source itself, 1 = its direct neighbours, …) and sums
    /// each bucket's coding work, delivery outcomes and injected link faults
    /// into one of these. The interesting shape is how the columns fall off
    /// with distance: in-network recoding keeps `useful_deliveries` (and
    /// completion) high at the far end of a lossy path, while the recoding
    /// cost concentrates on the interior relays.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct HopStats {
        /// Nodes at this hop distance.
        pub nodes: u64,
        /// Nodes at this distance that decoded the full object.
        pub completed: u64,
        /// Recoding operations performed by these nodes (relay emissions; for
        /// the source, encoding).
        pub recoding_ops: u64,
        /// Decoding operations performed by these nodes.
        pub decoding_ops: u64,
        /// Payload deliveries that were innovative at these nodes.
        pub useful_deliveries: u64,
        /// Datagram faults injected on the links into these nodes.
        pub faults_injected: u64,
    }
}

crate::counter_family! {
    /// Per-hop-distance rollup of a multi-hop dissemination.
    ///
    /// Bucket `d` aggregates every node whose overlay distance to the source
    /// is `d` hops. Built by the topology harness (`ltnc-topo`) from the
    /// per-node reports of a swarm run; merging two `HopCounters` merges
    /// bucket-by-bucket, so repeated runs aggregate naturally.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct HopCounters {
        /// One bucket per hop distance.
        buckets: Vec<HopStats>,
    }
    snapshot_delta {
        /// ```
        /// use ltnc_metrics::{HopCounters, HopStats};
        ///
        /// let mut earlier = HopCounters::new();
        /// earlier.record(1, &HopStats { nodes: 2, useful_deliveries: 10, ..HopStats::default() });
        /// let mut now = earlier.clone();
        /// now.record(1, &HopStats { useful_deliveries: 5, ..HopStats::default() });
        /// assert_eq!(now.snapshot_delta(&earlier).get(1).useful_deliveries, 5);
        /// ```
    }
}

impl HopCounters {
    /// Adds `stats` into the bucket at `distance` hops, growing the
    /// bucket array as needed.
    pub fn record(&mut self, distance: usize, stats: &HopStats) {
        if distance >= self.buckets.len() {
            self.buckets.resize(distance + 1, HopStats::default());
        }
        self.buckets[distance].merge(stats);
    }

    /// The bucket at `distance` hops (all-zero when never recorded).
    #[must_use]
    pub fn get(&self, distance: usize) -> HopStats {
        self.buckets.get(distance).copied().unwrap_or_default()
    }

    /// The farthest hop distance with any nodes, or `None` when empty.
    #[must_use]
    pub fn max_distance(&self) -> Option<usize> {
        self.buckets.iter().rposition(|b| b.nodes > 0)
    }

    /// Iterates over `(distance, stats)` for buckets with nodes.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &HopStats)> + '_ {
        self.buckets.iter().enumerate().filter(|(_, b)| b.nodes > 0)
    }

    /// Every bucket summed into one `HopStats`.
    #[must_use]
    pub fn total(&self) -> HopStats {
        let mut total = HopStats::default();
        for bucket in &self.buckets {
            total.merge(bucket);
        }
        total
    }

    /// `true` when no node was ever recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|b| b.nodes == 0)
    }
}

impl fmt::Display for HopCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (distance, stats) in self.iter() {
            writeln!(
                f,
                "hop {distance}: {}/{} complete, {} recode ops, {} decode ops, \
                 {} useful, {} faults",
                stats.completed,
                stats.nodes,
                stats.recoding_ops,
                stats.decoding_ops,
                stats.useful_deliveries,
                stats.faults_injected,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(nodes: u64, completed: u64) -> HopStats {
        HopStats { nodes, completed, recoding_ops: 10 * nodes, ..HopStats::default() }
    }

    #[test]
    fn empty_rollup() {
        let h = HopCounters::new();
        assert!(h.is_empty());
        assert_eq!(h.max_distance(), None);
        assert_eq!(h.get(3), HopStats::default());
        assert_eq!(h.to_string(), "");
    }

    #[test]
    fn record_grows_and_merges_buckets() {
        let mut h = HopCounters::new();
        h.record(0, &stats(1, 1));
        h.record(2, &stats(4, 3));
        h.record(2, &stats(1, 1));
        assert_eq!(h.get(0).nodes, 1);
        assert_eq!(h.get(1), HopStats::default());
        assert_eq!(h.get(2).nodes, 5);
        assert_eq!(h.get(2).completed, 4);
        assert_eq!(h.get(2).recoding_ops, 50);
        assert_eq!(h.max_distance(), Some(2));
    }

    #[test]
    fn iter_skips_nodeless_buckets() {
        let mut h = HopCounters::new();
        h.record(1, &stats(2, 2));
        h.record(3, &stats(1, 0));
        let distances: Vec<usize> = h.iter().map(|(d, _)| d).collect();
        assert_eq!(distances, vec![1, 3]);
    }

    #[test]
    fn merge_is_bucketwise() {
        let mut a = HopCounters::new();
        a.record(1, &stats(1, 1));
        let mut b = HopCounters::new();
        b.record(1, &stats(2, 1));
        b.record(4, &stats(1, 1));
        a.merge(&b);
        assert_eq!(a.get(1).nodes, 3);
        assert_eq!(a.get(4).nodes, 1);
        assert_eq!(a.total().nodes, 4);
        assert_eq!(a.total().completed, 3);
    }

    #[test]
    fn snapshot_delta_is_bucketwise_and_saturating() {
        let mut earlier = HopCounters::new();
        earlier.record(0, &stats(1, 1));
        earlier.record(1, &stats(2, 1));
        let mut now = earlier.clone();
        now.record(1, &HopStats { completed: 1, useful_deliveries: 7, ..HopStats::default() });
        now.record(2, &stats(3, 2));

        let delta = now.snapshot_delta(&earlier);
        assert_eq!(delta.get(0), HopStats::default());
        assert_eq!(delta.get(1).completed, 1);
        assert_eq!(delta.get(1).useful_deliveries, 7);
        assert_eq!(delta.get(1).nodes, 0);
        // A bucket that only exists now passes through whole.
        assert_eq!(delta.get(2).nodes, 3);
        // Re-accumulating the delta onto the earlier snapshot round-trips.
        let mut rebuilt = earlier.clone();
        rebuilt.merge(&delta);
        assert_eq!(rebuilt, now);
        // Saturation against a "later" snapshot.
        assert!(earlier.snapshot_delta(&now).total() == HopStats::default());
    }

    #[test]
    fn display_lists_one_line_per_hop() {
        let mut h = HopCounters::new();
        h.record(0, &stats(1, 1));
        h.record(1, &stats(2, 1));
        let s = h.to_string();
        assert!(s.contains("hop 0: 1/1 complete"));
        assert!(s.contains("hop 1: 1/2 complete"));
    }
}
