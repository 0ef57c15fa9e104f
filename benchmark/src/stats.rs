//! Order statistics over a run's samples: the median, the quartile
//! spread, and the highest percentile the sample count supports.

/// A percentile needs this many samples beyond it to be reported.
pub const SAMPLES_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut values = samples.to_vec();
    values.sort_by(f64::total_cmp);
    values
}

/// Linear interpolation at position `q × (n − 1)` of the sorted samples.
fn interpolate(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let below = pos.floor() as usize;
    let above = pos.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (pos - below as f64)
}

/// The median; `None` for an empty sample.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| interpolate(&sorted(samples), 0.5))
}

/// Distance between the third and the first quartile; `None` below two
/// samples.
#[must_use]
pub fn iqr(samples: &[f64]) -> Option<f64> {
    (samples.len() >= 2).then(|| {
        let values = sorted(samples);
        interpolate(&values, 0.75) - interpolate(&values, 0.25)
    })
}

/// Share of the samples [`trimmed`] drops at each end.
pub const TRIM: f64 = 0.10;

/// The samples left after dropping the lowest and the highest
/// `⌊TRIM × n⌋` by `key`. A mean over them ignores a rare outlier (which
/// a plain mean would not) and moves smoothly when a two-humped sample
/// shifts weight between its humps (which a median would not).
#[must_use]
pub fn trimmed<T: Copy>(samples: &[T], key: impl Fn(&T) -> f64) -> Vec<T> {
    let mut kept = samples.to_vec();
    kept.sort_by(|a, b| key(a).total_cmp(&key(b)));
    let drop = (TRIM * kept.len() as f64) as usize;
    kept[drop..kept.len() - drop].to_vec()
}

/// The arithmetic mean; `None` for an empty sample.
#[must_use]
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// The highest percentile with [`SAMPLES_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in percent (e.g. 93.3 with 150 samples).
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
}

/// Picks the tail percentile, or refuses (`None`) when the sample cannot
/// support one above the median: ten samples beyond the median already
/// take `2 × SAMPLES_BEYOND + 1` samples.
#[must_use]
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n < 2 * SAMPLES_BEYOND + 1 {
        return None;
    }
    let index = n - 1 - SAMPLES_BEYOND;
    Some(Tail { percentile: 100.0 * index as f64 / (n - 1) as f64, value: sorted(samples)[index] })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn iqr_matches_inclusive_quartiles() {
        let samples: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(iqr(&samples), Some(4.0));
        assert_eq!(iqr(&[1.0]), None);
    }

    #[test]
    fn trimming_drops_a_tenth_at_each_end_and_nothing_below_ten_samples() {
        let samples: Vec<f64> = (0..20).rev().map(f64::from).collect();
        let kept = trimmed(&samples, |&x| x);
        assert_eq!(kept.len(), 16);
        assert_eq!((kept[0], kept[15]), (2.0, 17.0));
        assert_eq!(trimmed(&samples[..9], |&x| x).len(), 9);
        assert!(trimmed(&[] as &[f64], |&x| x).is_empty());
    }

    #[test]
    fn tail_refuses_below_twenty_one_samples() {
        let samples: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(tail(&samples), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 21 samples: only the median has ten beyond it.
        let samples: Vec<f64> = (0..21).map(f64::from).collect();
        assert_eq!(tail(&samples), Some(Tail { percentile: 50.0, value: 10.0 }));
        // 101 samples 0..=100: p90 has exactly 91..=100 beyond it.
        let samples: Vec<f64> = (0..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&samples), Some(Tail { percentile: 90.0, value: 90.0 }));
    }
}
