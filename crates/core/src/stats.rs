use ltnc_metrics::Summary;

/// Running statistics about the recoding pipeline of a node.
///
/// These are the in-text numbers the paper reports in §III-B and §III-C:
///
/// * first picked degree accepted ≈ 99.9 % of the time, ≈ 1.02 draws on
///   average when a retry happens ([`RecodeStats::first_pick_accept_rate`],
///   [`RecodeStats::average_draws`]);
/// * the build step reaches the target degree ≈ 95 % of the time with an
///   average relative deviation of ≈ 0.2 % ([`RecodeStats::target_reached_rate`],
///   [`RecodeStats::average_relative_deviation`]);
/// * the redundancy detection drops ≈ 31 % of the redundant packets that
///   would otherwise be inserted ([`RecodeStats::redundant_rejected`]).
///
/// `experiments --figure stats` (`ltnc-bench`) prints them next to the
/// paper's values.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecodeStats {
    /// Number of fresh packets recoded.
    pub recoded_packets: u64,
    /// Number of degree draws performed (≥ `recoded_packets`).
    pub degree_draws: u64,
    /// Number of recodings whose first drawn degree was accepted.
    pub first_pick_accepted: u64,
    /// Number of recodings for which the build step reached the target degree exactly.
    pub target_reached: u64,
    /// Sum over recodings of `(target − achieved) / target`.
    pub relative_deviation_sum: f64,
    /// Packets rejected on reception by the redundancy detection (Algorithm 3).
    pub redundant_rejected: u64,
    /// Packets accepted on reception.
    pub accepted: u64,
    /// Packets that turned out to be redundant but were *not* caught by
    /// Algorithm 3 (they reduced to nothing inside the decoder).
    pub redundant_missed: u64,
}

impl RecodeStats {
    /// Creates zeroed statistics.
    #[must_use]
    pub fn new() -> Self {
        RecodeStats::default()
    }

    /// Fraction of recodings whose first degree draw was accepted
    /// (paper: ≈ 0.999).
    #[must_use]
    pub fn first_pick_accept_rate(&self) -> f64 {
        ratio(self.first_pick_accepted, self.recoded_packets)
    }

    /// Average number of degree draws per recoding (paper: ≈ 1.02 counting
    /// only recodings that needed a retry; over all recodings the value is
    /// barely above 1).
    #[must_use]
    pub fn average_draws(&self) -> f64 {
        if self.recoded_packets == 0 {
            0.0
        } else {
            self.degree_draws as f64 / self.recoded_packets as f64
        }
    }

    /// Fraction of recodings for which the greedy build reached the target
    /// degree exactly (paper: ≈ 0.95).
    #[must_use]
    pub fn target_reached_rate(&self) -> f64 {
        ratio(self.target_reached, self.recoded_packets)
    }

    /// Average relative deviation `(target − achieved) / target`
    /// (paper: ≈ 0.002).
    #[must_use]
    pub fn average_relative_deviation(&self) -> f64 {
        if self.recoded_packets == 0 {
            0.0
        } else {
            self.relative_deviation_sum / self.recoded_packets as f64
        }
    }

    /// Fraction of incoming redundant packets caught by Algorithm 3 before
    /// insertion (the paper's check, limited to degree ≤ 3, removes ≈ 31 %;
    /// ours runs on the undecoded residual at every degree).
    #[must_use]
    pub fn redundancy_catch_rate(&self) -> f64 {
        ratio(self.redundant_rejected, self.redundant_rejected + self.redundant_missed)
    }

    /// Merges the statistics of another node (for network-wide aggregates).
    pub fn merge(&mut self, other: &RecodeStats) {
        self.recoded_packets += other.recoded_packets;
        self.degree_draws += other.degree_draws;
        self.first_pick_accepted += other.first_pick_accepted;
        self.target_reached += other.target_reached;
        self.relative_deviation_sum += other.relative_deviation_sum;
        self.redundant_rejected += other.redundant_rejected;
        self.accepted += other.accepted;
        self.redundant_missed += other.redundant_missed;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A snapshot of the degree spread of native packets in previously sent
/// packets, paired with [`RecodeStats`] in the evaluation harness.
#[derive(Debug, Clone, Copy)]
pub struct OccurrenceSpread {
    /// Mean occurrences per native packet.
    pub mean: f64,
    /// Relative standard deviation (paper: ≈ 0.001 with refinement).
    pub relative_std_dev: f64,
}

impl OccurrenceSpread {
    /// Builds the snapshot from a summary of per-native occurrence counts.
    #[must_use]
    pub fn from_summary(summary: &Summary) -> Self {
        OccurrenceSpread { mean: summary.mean(), relative_std_dev: summary.relative_std_dev() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_have_zero_rates() {
        let s = RecodeStats::new();
        assert_eq!(s.first_pick_accept_rate(), 0.0);
        assert_eq!(s.average_draws(), 0.0);
        assert_eq!(s.target_reached_rate(), 0.0);
        assert_eq!(s.average_relative_deviation(), 0.0);
        assert_eq!(s.redundancy_catch_rate(), 0.0);
    }

    #[test]
    fn rates_compute_as_expected() {
        let s = RecodeStats {
            recoded_packets: 100,
            degree_draws: 102,
            first_pick_accepted: 99,
            target_reached: 95,
            relative_deviation_sum: 0.2,
            redundant_rejected: 31,
            accepted: 300,
            redundant_missed: 69,
        };
        assert!((s.first_pick_accept_rate() - 0.99).abs() < 1e-12);
        assert!((s.average_draws() - 1.02).abs() < 1e-12);
        assert!((s.target_reached_rate() - 0.95).abs() < 1e-12);
        assert!((s.average_relative_deviation() - 0.002).abs() < 1e-12);
        assert!((s.redundancy_catch_rate() - 0.31).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = RecodeStats {
            recoded_packets: 1,
            degree_draws: 2,
            first_pick_accepted: 1,
            target_reached: 1,
            relative_deviation_sum: 0.5,
            redundant_rejected: 1,
            accepted: 2,
            redundant_missed: 0,
        };
        a.merge(&a.clone());
        assert_eq!(a.recoded_packets, 2);
        assert_eq!(a.degree_draws, 4);
        assert_eq!(a.relative_deviation_sum, 1.0);
    }

    #[test]
    fn occurrence_spread_from_summary() {
        let s = Summary::from_iter([2.0, 2.0, 2.0, 2.0]);
        let spread = OccurrenceSpread::from_summary(&s);
        assert_eq!(spread.mean, 2.0);
        assert_eq!(spread.relative_std_dev, 0.0);
    }
}
