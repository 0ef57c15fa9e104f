/// An integer-bucket histogram.
///
/// Used to record degree distributions of sent packets (to check the Robust
/// Soliton shape empirically) and distributions of native-packet occurrences
/// (to check the near-Dirac property maintained by the refinement step).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Creates a histogram with `buckets` pre-allocated buckets (0..buckets).
    #[must_use]
    pub fn with_buckets(buckets: usize) -> Self {
        Histogram { counts: vec![0; buckets], total: 0 }
    }

    /// Records one observation of `value`, growing the bucket array as needed.
    pub fn record(&mut self, value: usize) {
        if value >= self.counts.len() {
            self.counts.resize(value + 1, 0);
        }
        self.counts[value] += 1;
        self.total += 1;
    }

    /// Records `n` observations of `value`.
    pub fn record_n(&mut self, value: usize, n: u64) {
        if n == 0 {
            return;
        }
        if value >= self.counts.len() {
            self.counts.resize(value + 1, 0);
        }
        self.counts[value] += n;
        self.total += n;
    }

    /// Number of observations equal to `value`.
    #[must_use]
    pub fn count(&self, value: usize) -> u64 {
        self.counts.get(value).copied().unwrap_or(0)
    }

    /// Total number of observations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Returns `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Empirical probability of `value` (0 when the histogram is empty).
    #[must_use]
    pub fn probability(&self, value: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(value) as f64 / self.total as f64
        }
    }

    /// Mean of the recorded values.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let weighted: f64 = self.counts.iter().enumerate().map(|(v, &c)| v as f64 * c as f64).sum();
        weighted / self.total as f64
    }

    /// Largest recorded value, or `None` when empty.
    #[must_use]
    pub fn max_value(&self) -> Option<usize> {
        self.counts.iter().rposition(|&c| c > 0)
    }

    /// Empirical cumulative probability `P(X <= value)`.
    #[must_use]
    pub fn cdf(&self, value: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let cum: u64 = self.counts.iter().take(value + 1).sum();
        cum as f64 / self.total as f64
    }

    /// Iterates over `(value, count)` pairs with non-zero counts.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts.iter().enumerate().filter(|&(_, &c)| c > 0).map(|(v, &c)| (v, c))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (value, count) in other.iter() {
            self.record_n(value, count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.total(), 0);
        assert_eq!(h.probability(3), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max_value(), None);
        assert_eq!(h.cdf(10), 0.0);
    }

    #[test]
    fn record_and_count() {
        let mut h = Histogram::new();
        h.record(1);
        h.record(1);
        h.record(3);
        assert_eq!(h.count(1), 2);
        assert_eq!(h.count(3), 1);
        assert_eq!(h.count(2), 0);
        assert_eq!(h.total(), 3);
        assert_eq!(h.max_value(), Some(3));
    }

    #[test]
    fn probability_and_cdf() {
        let mut h = Histogram::with_buckets(8);
        h.record_n(1, 5);
        h.record_n(2, 3);
        h.record_n(4, 2);
        assert!((h.probability(1) - 0.5).abs() < 1e-12);
        assert!((h.cdf(2) - 0.8).abs() < 1e-12);
        assert!((h.cdf(4) - 1.0).abs() < 1e-12);
        assert!((h.cdf(100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_is_weighted() {
        let mut h = Histogram::new();
        h.record_n(2, 2);
        h.record_n(8, 2);
        assert!((h.mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn record_n_zero_is_noop() {
        let mut h = Histogram::new();
        h.record_n(5, 0);
        assert!(h.is_empty());
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Histogram::new();
        a.record_n(1, 2);
        let mut b = Histogram::new();
        b.record_n(1, 3);
        b.record_n(7, 1);
        a.merge(&b);
        assert_eq!(a.count(1), 5);
        assert_eq!(a.count(7), 1);
        assert_eq!(a.total(), 6);
    }

    #[test]
    fn iter_yields_nonzero_buckets_in_order() {
        let mut h = Histogram::new();
        h.record(4);
        h.record(2);
        h.record(4);
        let pairs: Vec<_> = h.iter().collect();
        assert_eq!(pairs, vec![(2, 1), (4, 2)]);
    }
}
