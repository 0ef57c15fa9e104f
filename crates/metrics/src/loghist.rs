//! Log-bucketed latency histograms with lock-free recording.
//!
//! [`LogHistogram`] buckets values by their binary order of magnitude:
//! bucket `i` covers `[2^(i-1), 2^i - 1]` (bucket 0 holds exactly the
//! value 0). Recording is a pair of relaxed atomic adds plus an atomic
//! max, so peer actors and serving workers can record on the hot path
//! while a scrape thread snapshots concurrently — no locks, no
//! allocation, bounded memory regardless of the value range.
//!
//! The price is resolution: a quantile is reported as the *upper bound*
//! of the bucket it falls in, i.e. within a factor of two of the true
//! value. For latency distributions spanning microseconds to seconds
//! that is exactly the fidelity the multihop experiments need, and it
//! is what the Prometheus exposition renders as cumulative
//! `_bucket{le="..."}` series.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one for zero plus one per possible bit width of a
/// `u64` value.
pub const LOG_BUCKETS: usize = 65;

/// Delivery latencies are attributed to the number of overlay links the
/// information crossed; anything deeper than this folds into the last
/// slot so the recorder stays fixed-size.
pub const MAX_LATENCY_HOPS: usize = 16;

/// A power-of-two-bucketed histogram with atomic, lock-free recording.
///
/// Values are `u64` (by convention: microseconds for latencies).
/// Concurrent [`record`](LogHistogram::record) and
/// [`snapshot`](LogHistogram::snapshot) calls are safe; a snapshot taken
/// during concurrent recording is a consistent-enough view (bucket
/// counts and sum may straddle an in-flight record by one sample).
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; LOG_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

/// Bucket index for a value: 0 for 0, otherwise the value's bit width.
fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `index` (`u64::MAX` for the last
/// bucket — values of 2^63 and above saturate there).
#[must_use]
pub fn bucket_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= LOG_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

impl LogHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> LogHistogram {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation. Lock-free; safe from any thread.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Folds another histogram's counts into this one.
    pub fn merge(&self, other: &LogHistogram) {
        self.merge_snapshot(&other.snapshot());
    }

    /// Folds a snapshot's counts into this live histogram.
    pub fn merge_snapshot(&self, snapshot: &LogHistogramSnapshot) {
        for (bucket, &count) in self.buckets.iter().zip(snapshot.buckets.iter()) {
            if count > 0 {
                bucket.fetch_add(count, Ordering::Relaxed);
            }
        }
        self.sum.fetch_add(snapshot.sum, Ordering::Relaxed);
        self.max.fetch_max(snapshot.max, Ordering::Relaxed);
    }

    /// An owned, immutable copy of the current counts.
    #[must_use]
    pub fn snapshot(&self) -> LogHistogramSnapshot {
        LogHistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// True when nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|b| b.load(Ordering::Relaxed) == 0)
    }
}

/// An immutable view of a [`LogHistogram`]: plain counts, cheap to clone
/// and compare, with the quantile arithmetic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogramSnapshot {
    /// Per-bucket observation counts (not cumulative); bucket `i` covers
    /// values up to [`bucket_bound`]`(i)` inclusive.
    pub buckets: [u64; LOG_BUCKETS],
    /// Sum of every recorded value (wrapping only past `u64::MAX` total).
    pub sum: u64,
    /// Largest value recorded.
    pub max: u64,
}

impl Default for LogHistogramSnapshot {
    fn default() -> Self {
        LogHistogramSnapshot::empty()
    }
}

impl LogHistogramSnapshot {
    /// A snapshot with no observations.
    #[must_use]
    pub fn empty() -> LogHistogramSnapshot {
        LogHistogramSnapshot { buckets: [0; LOG_BUCKETS], sum: 0, max: 0 }
    }

    /// Total number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// True when no observations were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Mean of the recorded values (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum as f64 / count as f64
        }
    }

    /// The quantile `q` in `[0, 1]`, reported as the upper bound of the
    /// bucket the rank falls in (so within 2x above the true value),
    /// clamped to [`LogHistogramSnapshot::max`]. Returns 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the sample that dominates the quantile, 1-based.
        let rank = ((q * count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (index, &bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket;
            if cumulative >= rank {
                return bucket_bound(index).min(self.max);
            }
        }
        self.max
    }

    /// Median (upper bucket bound).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile (upper bucket bound).
    #[must_use]
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile (upper bucket bound).
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Folds another snapshot's counts into this one.
    pub fn merge(&mut self, other: &LogHistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The observations recorded since `earlier` was taken (per-bucket
    /// saturating subtraction, for interval views of a live histogram).
    #[must_use]
    pub fn snapshot_delta(&self, earlier: &LogHistogramSnapshot) -> LogHistogramSnapshot {
        LogHistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
            sum: self.sum.saturating_sub(earlier.sum),
            // Interval max is unknowable from counts alone; the lifetime
            // max is the honest upper bound.
            max: self.max,
        }
    }
}

/// Delivery-latency recorder keyed by the number of overlay links the
/// delivered information crossed (the wire-carried hop count + 1).
/// Fixed-size and lock-free, so a node records on its hot path
/// while the scrape endpoint snapshots live.
#[derive(Debug, Default)]
pub struct HopLatency {
    by_hop: [LogHistogram; MAX_LATENCY_HOPS],
}

impl HopLatency {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> HopLatency {
        HopLatency::default()
    }

    /// Records a latency observation for a delivery that crossed `hops`
    /// overlay links (clamped to [`MAX_LATENCY_HOPS`]).
    pub fn record(&self, hops: usize, value: u64) {
        let slot = hops.clamp(1, MAX_LATENCY_HOPS) - 1;
        self.by_hop[slot].record(value);
    }

    /// Snapshots of the non-empty per-hop histograms as
    /// `(links_crossed, snapshot)` pairs, ascending.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(usize, LogHistogramSnapshot)> {
        self.by_hop
            .iter()
            .enumerate()
            .filter(|(_, h)| !h.is_empty())
            .map(|(i, h)| (i + 1, h.snapshot()))
            .collect()
    }

    /// Folds another recorder's counts into this one, hop by hop.
    pub fn merge(&self, other: &HopLatency) {
        for (mine, theirs) in self.by_hop.iter().zip(&other.by_hop) {
            mine.merge(theirs);
        }
    }

    /// All hops merged into one distribution.
    #[must_use]
    pub fn total(&self) -> LogHistogramSnapshot {
        let mut total = LogHistogramSnapshot::empty();
        for histogram in &self.by_hop {
            total.merge(&histogram.snapshot());
        }
        total
    }

    /// True when nothing has been recorded at any hop.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.by_hop.iter().all(LogHistogram::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        let s = h.snapshot();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.max, 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn single_sample_every_quantile_is_that_bucket() {
        let h = LogHistogram::new();
        h.record(100);
        let s = h.snapshot();
        assert_eq!(s.count(), 1);
        assert_eq!(s.sum, 100);
        assert_eq!(s.max, 100);
        // 100 lands in bucket [64, 127]; quantiles clamp to the max.
        assert_eq!(s.p50(), 100);
        assert_eq!(s.p99(), 100);
        assert_eq!(s.quantile(0.0), 100);
        assert_eq!(s.quantile(1.0), 100);
    }

    #[test]
    fn zero_lands_in_its_own_bucket() {
        let h = LogHistogram::new();
        h.record(0);
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn saturating_values_land_in_the_top_bucket() {
        let h = LogHistogram::new();
        h.record(u64::MAX);
        h.record(1u64 << 63);
        let s = h.snapshot();
        assert_eq!(s.buckets[LOG_BUCKETS - 1], 2);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.p99(), u64::MAX);
        assert_eq!(bucket_bound(LOG_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn quantiles_track_bucket_bounds() {
        let h = LogHistogram::new();
        // 90 small values, 10 large: p50 small, p99 large.
        for _ in 0..90 {
            h.record(10);
        }
        for _ in 0..10 {
            h.record(10_000);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        // 10 is in bucket [8, 15] -> bound 15.
        assert_eq!(s.p50(), 15);
        assert_eq!(s.p90(), 15);
        // 10_000 is in bucket [8192, 16383] -> bound 16383, clamped to
        // the max observed value (10_000).
        assert_eq!(s.p99(), 10_000);
        assert!(s.quantile(1.0) >= 10_000);
    }

    #[test]
    fn quantile_upper_bound_is_within_2x_of_true_value() {
        let h = LogHistogram::new();
        for v in [3u64, 17, 200, 5_000, 70_000] {
            h.record(v);
            let s = h.snapshot();
            let q = s.quantile(1.0);
            assert!(q >= v, "quantile {q} under true value {v}");
            assert!(q <= v.saturating_mul(2), "quantile {q} over 2x true value {v}");
        }
    }

    #[test]
    fn merge_and_snapshot_delta_roundtrip() {
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        a.record(5);
        a.record(500);
        b.record(50_000);
        a.merge(&b);
        let merged = a.snapshot();
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.sum, 5 + 500 + 50_000);
        assert_eq!(merged.max, 50_000);

        let earlier = merged.clone();
        a.record(7);
        let delta = a.snapshot().snapshot_delta(&earlier);
        assert_eq!(delta.count(), 1);
        assert_eq!(delta.sum, 7);
    }

    #[test]
    fn the_full_quantile_is_the_recorded_max() {
        let merged = LogHistogram::new();
        for values in [&[0u64][..], &[1, 2, 3], &[100, 127, 128], &[5, 9_000, 70_001], &[u64::MAX]]
        {
            let h = LogHistogram::new();
            for &v in values {
                h.record(v);
            }
            let s = h.snapshot();
            assert_eq!(s.quantile(1.0), s.max, "values {values:?}");
            merged.merge_snapshot(&s);
            let m = merged.snapshot();
            assert_eq!(m.quantile(1.0), m.max, "merged through {values:?}");
        }
        assert_eq!(LogHistogramSnapshot::empty().quantile(1.0), LogHistogramSnapshot::empty().max);
    }

    #[test]
    fn hop_latency_clamps_and_merges() {
        let lat = HopLatency::new();
        assert!(lat.is_empty());
        lat.record(1, 100);
        lat.record(2, 200);
        lat.record(0, 1); // clamps up to hop 1
        lat.record(999, 9); // clamps down to the last slot
        let per_hop = lat.snapshot();
        let hops: Vec<usize> = per_hop.iter().map(|(h, _)| *h).collect();
        assert_eq!(hops, vec![1, 2, MAX_LATENCY_HOPS]);
        assert_eq!(per_hop[0].1.count(), 2);
        let total = lat.total();
        assert_eq!(total.count(), 4);
        assert_eq!(total.max, 200);

        let merged = HopLatency::new();
        merged.merge(&lat);
        merged.merge(&lat);
        let doubled: Vec<(usize, u64)> =
            merged.snapshot().iter().map(|(h, s)| (*h, s.count())).collect();
        assert_eq!(doubled, vec![(1, 4), (2, 2), (MAX_LATENCY_HOPS, 2)]);
        assert_eq!(merged.total().sum, 2 * total.sum);
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        let h = std::sync::Arc::new(LogHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1_000u64 {
                        h.record(i + t * 1_000);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 4_000);
        assert_eq!(s.sum, (0..4_000u64).sum());
        assert_eq!(s.max, 3_999);
    }
}
