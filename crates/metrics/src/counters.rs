use core::fmt;

/// The elementary operations the coding schemes perform.
///
/// Each variant is charged to either the *control* plane (code vectors, Tanner
/// graph, code matrix, auxiliary indexes) or the *data* plane (XOR of `m`-byte
/// payloads), matching the split used in Figure 8 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum OpKind {
    /// XOR of two `m`-byte payloads (data plane).
    PayloadXor,
    /// XOR of two code vectors / bitmap rows of length `k` bits (control plane).
    VectorXor,
    /// One Gaussian row-reduction step on the code matrix (control plane).
    RowReduction,
    /// One Tanner-graph edge update during belief propagation (control plane).
    TannerEdgeUpdate,
    /// One update of an auxiliary LTNC structure: degree index, connected
    /// components, occurrence counts (control plane).
    IndexUpdate,
    /// One degree draw from the Robust Soliton distribution, including retries
    /// (control plane).
    DegreeDraw,
    /// One candidate examination in the greedy build step, Algorithm 1
    /// (control plane).
    BuildCandidate,
    /// One substitution attempt in the refinement step, Algorithm 2
    /// (control plane).
    RefineStep,
    /// One redundancy check, Algorithm 3 (control plane): one per LTNC
    /// reception, at every degree.
    RedundancyCheck,
}

impl OpKind {
    /// All operation kinds, in a stable order (useful for reports).
    pub const ALL: [OpKind; 9] = [
        OpKind::PayloadXor,
        OpKind::VectorXor,
        OpKind::RowReduction,
        OpKind::TannerEdgeUpdate,
        OpKind::IndexUpdate,
        OpKind::DegreeDraw,
        OpKind::BuildCandidate,
        OpKind::RefineStep,
        OpKind::RedundancyCheck,
    ];

    /// Whether this operation touches packet data (`true`) or only control
    /// structures (`false`).
    #[must_use]
    pub fn is_data(self) -> bool {
        matches!(self, OpKind::PayloadXor)
    }

    /// A short stable label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            OpKind::PayloadXor => "payload_xor",
            OpKind::VectorXor => "vector_xor",
            OpKind::RowReduction => "row_reduction",
            OpKind::TannerEdgeUpdate => "tanner_edge_update",
            OpKind::IndexUpdate => "index_update",
            OpKind::DegreeDraw => "degree_draw",
            OpKind::BuildCandidate => "build_candidate",
            OpKind::RefineStep => "refine_step",
            OpKind::RedundancyCheck => "redundancy_check",
        }
    }

    fn slot(self) -> usize {
        match self {
            OpKind::PayloadXor => 0,
            OpKind::VectorXor => 1,
            OpKind::RowReduction => 2,
            OpKind::TannerEdgeUpdate => 3,
            OpKind::IndexUpdate => 4,
            OpKind::DegreeDraw => 5,
            OpKind::BuildCandidate => 6,
            OpKind::RefineStep => 7,
            OpKind::RedundancyCheck => 8,
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Deterministic counts of elementary operations.
///
/// Counters are cheap to copy and add; a run keeps one per node and
/// per phase (recoding / decoding), then folds them through a [`crate::CostModel`]
/// to produce the Figure 8 series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounters {
    counts: [u64; 9],
}

impl OpCounters {
    /// Creates a zeroed counter set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` occurrences of an operation.
    pub fn add(&mut self, kind: OpKind, n: u64) {
        self.counts[kind.slot()] += n;
    }

    /// Records a single occurrence of an operation.
    pub fn incr(&mut self, kind: OpKind) {
        self.add(kind, 1);
    }

    /// Number of recorded occurrences of `kind`.
    #[must_use]
    pub fn get(&self, kind: OpKind) -> u64 {
        self.counts[kind.slot()]
    }

    /// Sum of all data-plane operations (payload XORs).
    #[must_use]
    pub fn data_ops(&self) -> u64 {
        OpKind::ALL.iter().filter(|k| k.is_data()).map(|&k| self.get(k)).sum()
    }

    /// Sum of all control-plane operations.
    #[must_use]
    pub fn control_ops(&self) -> u64 {
        OpKind::ALL.iter().filter(|k| !k.is_data()).map(|&k| self.get(k)).sum()
    }

    /// Total number of operations of any kind.
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Returns `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Adds every count of `other` into `self` (saturating).
    pub fn merge(&mut self, other: &OpCounters) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.saturating_add(*b);
        }
    }

    /// Returns the element-wise difference `self - other`, saturating at zero.
    ///
    /// Useful to isolate the cost of a single operation from cumulative
    /// counters: snapshot before, subtract after.
    #[must_use]
    pub fn since(&self, other: &OpCounters) -> OpCounters {
        let mut out = OpCounters::new();
        for (i, slot) in out.counts.iter_mut().enumerate() {
            *slot = self.counts[i].saturating_sub(other.counts[i]);
        }
        out
    }

    /// Iterates over `(kind, count)` pairs for non-zero counters.
    pub fn iter(&self) -> impl Iterator<Item = (OpKind, u64)> + '_ {
        OpKind::ALL.iter().map(|&k| (k, self.get(k))).filter(|&(_, c)| c > 0)
    }
}

impl core::ops::Add for OpCounters {
    type Output = OpCounters;

    fn add(mut self, rhs: OpCounters) -> OpCounters {
        self.merge(&rhs);
        self
    }
}

impl core::iter::Sum for OpCounters {
    fn sum<I: Iterator<Item = OpCounters>>(iter: I) -> Self {
        iter.fold(OpCounters::new(), |acc, c| acc + c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_counters_are_empty() {
        let c = OpCounters::new();
        assert!(c.is_empty());
        assert_eq!(c.total_ops(), 0);
        assert_eq!(c.data_ops(), 0);
        assert_eq!(c.control_ops(), 0);
    }

    #[test]
    fn incr_and_get() {
        let mut c = OpCounters::new();
        c.incr(OpKind::PayloadXor);
        c.add(OpKind::RowReduction, 5);
        assert_eq!(c.get(OpKind::PayloadXor), 1);
        assert_eq!(c.get(OpKind::RowReduction), 5);
        assert_eq!(c.get(OpKind::VectorXor), 0);
        assert!(!c.is_empty());
    }

    #[test]
    fn data_vs_control_split() {
        let mut c = OpCounters::new();
        c.add(OpKind::PayloadXor, 10);
        c.add(OpKind::VectorXor, 3);
        c.add(OpKind::IndexUpdate, 2);
        assert_eq!(c.data_ops(), 10);
        assert_eq!(c.control_ops(), 5);
        assert_eq!(c.total_ops(), 15);
    }

    #[test]
    fn only_payload_xor_is_data() {
        for k in OpKind::ALL {
            assert_eq!(k.is_data(), k == OpKind::PayloadXor, "{k}");
        }
    }

    #[test]
    fn merge_and_add_agree() {
        let mut a = OpCounters::new();
        a.add(OpKind::DegreeDraw, 2);
        let mut b = OpCounters::new();
        b.add(OpKind::DegreeDraw, 3);
        b.add(OpKind::RefineStep, 1);
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged, a + b);
        assert_eq!(merged.get(OpKind::DegreeDraw), 5);
        assert_eq!(merged.get(OpKind::RefineStep), 1);
    }

    #[test]
    fn since_isolates_a_window() {
        let mut c = OpCounters::new();
        c.add(OpKind::PayloadXor, 4);
        let snapshot = c;
        c.add(OpKind::PayloadXor, 3);
        c.add(OpKind::VectorXor, 2);
        let delta = c.since(&snapshot);
        assert_eq!(delta.get(OpKind::PayloadXor), 3);
        assert_eq!(delta.get(OpKind::VectorXor), 2);
    }

    #[test]
    fn since_saturates_at_zero() {
        let mut big = OpCounters::new();
        big.add(OpKind::PayloadXor, 4);
        let small = OpCounters::new();
        assert_eq!(small.since(&big).get(OpKind::PayloadXor), 0);
    }

    #[test]
    fn sum_folds_counters() {
        let counters: Vec<OpCounters> = (0..4)
            .map(|i| {
                let mut c = OpCounters::new();
                c.add(OpKind::TannerEdgeUpdate, i);
                c
            })
            .collect();
        let total: OpCounters = counters.into_iter().sum();
        assert_eq!(total.get(OpKind::TannerEdgeUpdate), 6);
    }

    #[test]
    fn iter_skips_zero_counts() {
        let mut c = OpCounters::new();
        c.add(OpKind::RedundancyCheck, 7);
        let pairs: Vec<_> = c.iter().collect();
        assert_eq!(pairs, vec![(OpKind::RedundancyCheck, 7)]);
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = OpKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), OpKind::ALL.len());
    }
}
