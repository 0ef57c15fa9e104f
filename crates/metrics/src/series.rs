/// A labelled `(x, y)` series, used by the figure harness to collect and print
/// the curves of Figures 7 and 8.
///
/// The series keeps insertion order; `x` values are typically gossip periods
/// (Figure 7a), code lengths (Figures 7b/7c/8), or degrees (Figure 2).
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    label: String,
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Creates an empty series with the given label.
    #[must_use]
    pub fn new(label: impl Into<String>) -> Self {
        TimeSeries { label: label.into(), points: Vec::new() }
    }

    /// The series label (e.g. `"LTNC"`, `"RLNC"`, `"WC"`).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The recorded points, in insertion order.
    #[must_use]
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` when the series has no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The `y` value recorded for the given `x`, if present (exact match).
    #[must_use]
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points.iter().find(|&&(px, _)| px == x).map(|&(_, y)| y)
    }

    /// Linear interpolation of `y` at `x`; clamps outside the recorded range.
    /// Requires points sorted by increasing `x`. Returns `None` when empty.
    #[must_use]
    pub fn interpolate(&self, x: f64) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        let first = self.points[0];
        let last = *self.points.last().expect("non-empty");
        if x <= first.0 {
            return Some(first.1);
        }
        if x >= last.0 {
            return Some(last.1);
        }
        for w in self.points.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            if x >= x0 && x <= x1 {
                if x1 == x0 {
                    return Some(y0);
                }
                let t = (x - x0) / (x1 - x0);
                return Some(y0 + t * (y1 - y0));
            }
        }
        Some(last.1)
    }

    /// First `x` at which the series reaches at least `threshold` (assumes `y`
    /// is non-decreasing, like a convergence curve). `None` if never reached.
    #[must_use]
    pub fn first_x_reaching(&self, threshold: f64) -> Option<f64> {
        self.points.iter().find(|&&(_, y)| y >= threshold).map(|&(x, _)| x)
    }

    /// Renders the series as tab-separated `x<TAB>y` lines (gnuplot-friendly).
    #[must_use]
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        for (x, y) in &self.points {
            out.push_str(&format!("{x}\t{y}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> TimeSeries {
        let mut s = TimeSeries::new("LTNC");
        s.push(0.0, 0.0);
        s.push(10.0, 50.0);
        s.push(20.0, 100.0);
        s
    }

    #[test]
    fn label_and_points() {
        let s = series();
        assert_eq!(s.label(), "LTNC");
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.points()[1], (10.0, 50.0));
    }

    #[test]
    fn empty_series() {
        let s = TimeSeries::new("x");
        assert!(s.is_empty());
        assert_eq!(s.interpolate(1.0), None);
        assert_eq!(s.first_x_reaching(0.5), None);
        assert_eq!(s.y_at(0.0), None);
    }

    #[test]
    fn y_at_exact_match() {
        let s = series();
        assert_eq!(s.y_at(10.0), Some(50.0));
        assert_eq!(s.y_at(15.0), None);
    }

    #[test]
    fn interpolation_midpoint_and_clamping() {
        let s = series();
        assert_eq!(s.interpolate(5.0), Some(25.0));
        assert_eq!(s.interpolate(-1.0), Some(0.0));
        assert_eq!(s.interpolate(99.0), Some(100.0));
        assert_eq!(s.interpolate(20.0), Some(100.0));
    }

    #[test]
    fn first_x_reaching_threshold() {
        let s = series();
        assert_eq!(s.first_x_reaching(50.0), Some(10.0));
        assert_eq!(s.first_x_reaching(75.0), Some(20.0));
        assert_eq!(s.first_x_reaching(100.1), None);
    }

    #[test]
    fn tsv_rendering() {
        let s = series();
        let tsv = s.to_tsv();
        assert!(tsv.contains("10\t50"));
        assert_eq!(tsv.lines().count(), 3);
    }
}
