/// Streaming summary statistics (Welford's online algorithm).
///
/// Used throughout the evaluation harness: the relative standard deviation of
/// native-packet occurrences (§III-B.3 reports ≈ 0.1 %), the average number of
/// degree-draw retries (§III-B.1 reports ≈ 1.02), completion times across
/// Monte-Carlo runs, etc.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Summary {
    /// Creates an empty summary.
    #[must_use]
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Adds every observation of an iterator.
    pub fn record_all<I: IntoIterator<Item = f64>>(&mut self, values: I) {
        for v in values {
            self.record(v);
        }
    }

    /// Builds a summary from an iterator of observations.
    ///
    /// Not the `FromIterator` trait method: this inherent constructor keeps
    /// `Summary::from_iter(xs)` call sites working without a `use`.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = f64>>(values: I) -> Self {
        let mut s = Summary::new();
        s.record_all(values);
        s
    }

    /// Number of observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance, or 0 when fewer than two observations.
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Relative standard deviation (std-dev / mean), or 0 when the mean is 0.
    ///
    /// This is the statistic the paper reports for the spread of native-packet
    /// occurrences after refinement.
    #[must_use]
    pub fn relative_std_dev(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.std_dev() / m
        }
    }

    /// Smallest observation, or `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another summary into this one (parallel Welford combine).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean = new_mean;
        self.count = total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_summary_defaults() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.relative_std_dev(), 0.0);
    }

    #[test]
    fn single_observation() {
        let s = Summary::from_iter([5.0]);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), Some(5.0));
        assert_eq!(s.max(), Some(5.0));
    }

    #[test]
    fn known_mean_and_variance() {
        let s = Summary::from_iter([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert!((s.relative_std_dev() - 0.4).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert_eq!(s.sum(), 40.0);
    }

    #[test]
    fn merge_matches_single_pass() {
        let data_a = [1.0, 2.0, 3.0, 4.0];
        let data_b = [10.0, 20.0, 30.0];
        let mut a = Summary::from_iter(data_a);
        let b = Summary::from_iter(data_b);
        a.merge(&b);
        let all = Summary::from_iter(data_a.into_iter().chain(data_b));
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Summary::from_iter([1.0, 2.0]);
        let before = a;
        a.merge(&Summary::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.mean(), before.mean());

        let mut empty = Summary::new();
        empty.merge(&before);
        assert_eq!(empty.count(), 2);
        assert!((empty.mean() - 1.5).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_mean_is_bounded_by_min_max(values in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
            let s = Summary::from_iter(values.iter().copied());
            let min = s.min().unwrap();
            let max = s.max().unwrap();
            prop_assert!(s.mean() >= min - 1e-9);
            prop_assert!(s.mean() <= max + 1e-9);
            prop_assert!(s.variance() >= 0.0);
        }

        #[test]
        fn prop_merge_equals_single_pass(
            a in proptest::collection::vec(-1e3f64..1e3, 0..50),
            b in proptest::collection::vec(-1e3f64..1e3, 0..50),
        ) {
            let mut left = Summary::from_iter(a.iter().copied());
            left.merge(&Summary::from_iter(b.iter().copied()));
            let full = Summary::from_iter(a.iter().copied().chain(b.iter().copied()));
            prop_assert_eq!(left.count(), full.count());
            prop_assert!((left.mean() - full.mean()).abs() < 1e-6);
            prop_assert!((left.variance() - full.variance()).abs() < 1e-4);
        }
    }
}
