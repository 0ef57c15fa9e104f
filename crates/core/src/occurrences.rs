use ltnc_gf2::CodeVector;
use ltnc_metrics::Summary;
use rand::Rng;

/// Random probes into a bucket before [`pick_outside`] counts who is allowed.
const PROBES: usize = 8;

/// Per-native occurrence counts in the packets previously *sent* by this node
/// (third row of Table I: "determine substitutions of native packets that
/// decrease the variance of degrees").
///
/// LT decoding performs best when all native packets appear in roughly the
/// same number of encoded packets (a near-Dirac degree distribution on the
/// native side). The refinement step (Algorithm 2) consults this tracker to
/// replace over-represented natives with under-represented ones; the tracker
/// is updated every time a fresh encoded packet leaves the node.
///
/// To answer "least frequent native that can stand in for `x`" without
/// scanning `x`'s component, the tracker mirrors the partition of
/// [`crate::ComponentTracker`] as *groups* and keeps the members of each group
/// bucketed by occurrence count.
#[derive(Debug, Clone)]
pub struct OccurrenceTracker {
    counts: Vec<u64>,
    packets_sent: u64,
    /// `group_of[x]` is the group of native `x`: the label `x + 1` until
    /// [`OccurrenceTracker::regroup`] says otherwise.
    group_of: Vec<usize>,
    /// `groups[g]` holds the natives of group `g`, one bucket per distinct
    /// occurrence count, by ascending count; no bucket is empty. A native
    /// that is still alone in the group it started in has no substitute and
    /// is left out: `groups[x + 1]` stays empty until somebody joins `x`.
    groups: Vec<Vec<Bucket>>,
    /// `slots[x]` is the position of `x` in its bucket's `members`.
    slots: Vec<usize>,
}

/// The natives of one group that share one occurrence count.
#[derive(Debug, Clone)]
struct Bucket {
    count: u64,
    members: Vec<usize>,
}

impl OccurrenceTracker {
    /// Creates a tracker over `k` natives with all counts at zero and every
    /// native alone in group `x + 1`; group 0 starts empty.
    #[must_use]
    pub fn new(k: usize) -> Self {
        OccurrenceTracker {
            counts: vec![0; k],
            packets_sent: 0,
            group_of: (1..=k).collect(),
            groups: vec![Vec::new(); k + 1],
            slots: vec![0; k],
        }
    }

    /// Code length `k`.
    #[must_use]
    pub fn code_length(&self) -> usize {
        self.counts.len()
    }

    /// Number of packets recorded so far.
    #[must_use]
    pub fn packets_sent(&self) -> u64 {
        self.packets_sent
    }

    /// Number of previously sent packets in which native `x` appeared.
    ///
    /// # Panics
    ///
    /// Panics if `x >= k`.
    #[must_use]
    pub fn frequency(&self, x: usize) -> u64 {
        self.counts[x]
    }

    /// Takes `x` out of its bucket, dropping the bucket if that empties it.
    fn detach(&mut self, x: usize) {
        let group = &mut self.groups[self.group_of[x]];
        if group.is_empty() {
            return; // alone at home, in no bucket
        }
        let at = group.partition_point(|b| b.count < self.counts[x]);
        let members = &mut group[at].members;
        members.swap_remove(self.slots[x]);
        if let Some(&moved) = members.get(self.slots[x]) {
            self.slots[moved] = self.slots[x];
        } else if members.is_empty() {
            group.remove(at);
            if group.is_empty() {
                // Merged away or decoded: the label never comes back.
                *group = Vec::new();
            }
        }
    }

    /// Puts `x` into the bucket of its group and count, creating it if needed.
    fn attach(&mut self, x: usize) {
        let g = self.group_of[x];
        if self.groups[g].is_empty() && g > 0 {
            let first = g - 1; // the native group `g` started with
            if first == x {
                return; // alone at home again
            }
            if self.group_of[first] == g {
                self.groups[g].push(Bucket { count: self.counts[first], members: vec![first] });
                self.slots[first] = 0;
            }
        }
        let group = &mut self.groups[g];
        let at = group.partition_point(|b| b.count < self.counts[x]);
        if group.get(at).is_none_or(|b| b.count != self.counts[x]) {
            group.insert(at, Bucket { count: self.counts[x], members: Vec::new() });
        }
        self.slots[x] = group[at].members.len();
        group[at].members.push(x);
    }

    /// Moves native `x` to group `group` — the node calls this whenever the
    /// component tracker relabels `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x >= k` or `group > k`.
    pub fn regroup(&mut self, x: usize, group: usize) {
        self.detach(x);
        self.group_of[x] = group;
        self.attach(x);
    }

    /// Records that a fresh encoded packet with the given code vector was sent.
    ///
    /// # Panics
    ///
    /// Panics if the vector length differs from `k`.
    pub fn record_sent(&mut self, vector: &CodeVector) {
        assert_eq!(vector.len(), self.counts.len(), "code length mismatch");
        for x in vector.iter_ones() {
            self.detach(x);
            self.counts[x] += 1;
            self.attach(x);
        }
        self.packets_sent += 1;
    }

    /// A native of `reference`'s group with the lowest occurrence count among
    /// those that are strictly less frequent than `reference` and not
    /// `excluded`, chosen uniformly at random among the natives that tie on
    /// that count. Returns `None` when no native qualifies — the refinement
    /// step then leaves `reference` in place.
    ///
    /// Ties used to go to the smallest index; a complete node then swept the
    /// index space in order, neighbouring natives entered and left its packets
    /// together, and a downstream sink could wait for ever for the packet that
    /// separates two of them.
    ///
    /// Costs O(1) expected while the lowest bucket is mostly not `excluded`,
    /// and O(number of `excluded` natives) otherwise — never the group's size.
    pub fn pick_substitute<F, R>(&self, reference: usize, excluded: F, rng: &mut R) -> Option<usize>
    where
        F: Fn(usize) -> bool,
        R: Rng + ?Sized,
    {
        self.groups[self.group_of[reference]]
            .iter()
            .take_while(|bucket| bucket.count < self.counts[reference])
            .find_map(|bucket| pick_outside(&bucket.members, &excluded, rng))
    }

    /// Summary statistics of the per-native occurrence counts. The paper
    /// reports the relative standard deviation of this distribution (≈ 0.1 %
    /// with refinement enabled).
    #[must_use]
    pub fn summary(&self) -> Summary {
        Summary::from_iter(self.counts.iter().map(|&c| c as f64))
    }
}

/// A uniformly random element of `members` that is not `excluded`, or `None`
/// when all are. A few random probes settle the common case, where most of
/// the bucket is allowed; when they all hit excluded natives the allowed ones
/// are counted and one of them is drawn by rank. Either way every allowed
/// native is equally likely.
fn pick_outside<F, R>(members: &[usize], excluded: &F, rng: &mut R) -> Option<usize>
where
    F: Fn(usize) -> bool,
    R: Rng + ?Sized,
{
    for _ in 0..PROBES.min(members.len()) {
        let candidate = members[rng.gen_range(0..members.len())];
        if !excluded(candidate) {
            return Some(candidate);
        }
    }
    let allowed = members.iter().filter(|&&c| !excluded(c)).count();
    if allowed == 0 {
        return None;
    }
    members.iter().copied().filter(|&c| !excluded(c)).nth(rng.gen_range(0..allowed))
}

#[cfg(test)]
impl OccurrenceTracker {
    /// Asserts that every bucket sits in the right group at the right count,
    /// in order, non-empty, and holds each native at the slot on record, and
    /// that every native is in one bucket or alone in the group it started in.
    pub(crate) fn assert_consistent(&self) {
        let alone_at_home = |x: usize| self.group_of[x] == x + 1 && self.groups[x + 1].is_empty();
        let mut seen = (0..self.code_length()).filter(|&x| alone_at_home(x)).count();
        for (g, group) in self.groups.iter().enumerate() {
            assert!(group.windows(2).all(|w| w[0].count < w[1].count), "group {g} out of order");
            for bucket in group {
                assert!(!bucket.members.is_empty(), "group {g} keeps an empty bucket");
                for (slot, &x) in bucket.members.iter().enumerate() {
                    let on_record = (self.group_of[x], self.counts[x], self.slots[x]);
                    assert_eq!(on_record, (g, bucket.count, slot), "x{x}");
                    seen += 1;
                }
            }
        }
        assert_eq!(seen, self.code_length());
    }

    /// The group of native `x`.
    pub(crate) fn group_of(&self, x: usize) -> usize {
        self.group_of[x]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn starts_at_zero() {
        let t = OccurrenceTracker::new(4);
        assert_eq!(t.code_length(), 4);
        assert_eq!(t.packets_sent(), 0);
        for x in 0..4 {
            assert_eq!(t.frequency(x), 0);
        }
        assert_eq!(t.summary().mean(), 0.0);
    }

    #[test]
    fn record_sent_increments_member_counts() {
        let mut t = OccurrenceTracker::new(5);
        t.record_sent(&CodeVector::from_indices(5, &[0, 2]));
        t.record_sent(&CodeVector::from_indices(5, &[2, 4]));
        assert_eq!(t.frequency(0), 1);
        assert_eq!(t.frequency(2), 2);
        assert_eq!(t.frequency(4), 1);
        assert_eq!(t.frequency(1), 0);
        assert_eq!(t.packets_sent(), 2);
    }

    #[test]
    #[should_panic(expected = "code length mismatch")]
    fn record_sent_rejects_wrong_length() {
        let mut t = OccurrenceTracker::new(5);
        t.record_sent(&CodeVector::zero(6));
    }

    /// The scan the buckets replaced, kept as the oracle: among `candidates`,
    /// the one with the lowest occurrence count that is strictly less
    /// frequent than `reference` and satisfies `allowed`, ties going to the
    /// smallest index.
    fn best_substitute(
        t: &OccurrenceTracker,
        reference: usize,
        candidates: &[usize],
        allowed: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        candidates
            .iter()
            .copied()
            .filter(|&c| c != reference && t.counts[c] < t.counts[reference] && allowed(c))
            .min_by_key(|&c| (t.counts[c], c))
    }

    fn all_in_one_group(k: usize) -> OccurrenceTracker {
        let mut t = OccurrenceTracker::new(k);
        for x in 0..k {
            t.regroup(x, 0);
        }
        t
    }

    #[test]
    fn pick_substitute_takes_the_least_frequent_allowed() {
        let mut t = all_in_one_group(5);
        // frequencies: x0=3, x1=1, x2=2, x3=0, x4=0
        for _ in 0..3 {
            t.record_sent(&CodeVector::from_indices(5, &[0]));
        }
        t.record_sent(&CodeVector::from_indices(5, &[1, 2]));
        t.record_sent(&CodeVector::from_indices(5, &[2]));
        t.assert_consistent();

        let mut rng = SmallRng::seed_from_u64(4);
        // Excluding the whole lowest bucket falls back to the next one.
        assert_eq!(t.pick_substitute(0, |c| c == 3, &mut rng), Some(4));
        assert_eq!(t.pick_substitute(0, |c| c == 3 || c == 4, &mut rng), Some(1));
        assert_eq!(t.pick_substitute(2, |c| c == 3 || c == 4, &mut rng), Some(1));
        // Strictly rarer only: x1 has nobody below it but x3 and x4.
        assert_eq!(t.pick_substitute(1, |c| c == 3 || c == 4, &mut rng), None);
        // A reference with count 0 cannot be improved.
        assert_eq!(t.pick_substitute(3, |_| false, &mut rng), None);
    }

    #[test]
    fn pick_substitute_breaks_ties_uniformly_at_random() {
        let k = 64;
        let mut t = all_in_one_group(k);
        t.record_sent(&CodeVector::from_indices(k, &[0]));
        let mut rng = SmallRng::seed_from_u64(8);
        let mut hits = vec![0u32; k];
        let draws = 63 * 400;
        for _ in 0..draws {
            // Odd natives are in the packet already: only the 31 even ones tie.
            hits[t.pick_substitute(0, |c| c % 2 == 1, &mut rng).unwrap()] += 1;
        }
        assert_eq!(hits[0], 0, "the reference is never its own substitute");
        for (x, &n) in hits.iter().enumerate().skip(1) {
            if x % 2 == 1 {
                assert_eq!(n, 0, "x{x} is excluded");
            } else {
                // Mean 813, standard deviation 28: six sigmas either way.
                assert!((640..=980).contains(&n), "x{x} was picked {n} times of {draws}");
            }
        }
    }

    #[test]
    fn substitutes_come_from_the_reference_group_only() {
        let mut t = OccurrenceTracker::new(6);
        t.record_sent(&CodeVector::from_indices(6, &[0, 3]));
        let mut rng = SmallRng::seed_from_u64(1);
        // Everybody is alone: nobody has a substitute.
        assert_eq!(t.pick_substitute(0, |_| false, &mut rng), None);
        t.regroup(1, 1); // joins x0 in group 1
        t.regroup(4, 4); // joins x3 in group 4
        t.assert_consistent();
        for _ in 0..20 {
            assert_eq!(t.pick_substitute(0, |_| false, &mut rng), Some(1));
            assert_eq!(t.pick_substitute(3, |_| false, &mut rng), Some(4));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whatever mix of sent packets and regroupings, the buckets stay
        /// consistent and the pick is a member of the arg-min set the linear
        /// scan over the reference's group defines.
        #[test]
        fn prop_pick_is_in_the_arg_min_set_of_the_scan(
            k in 2usize..24,
            ops in proptest::collection::vec((any::<bool>(), 0usize..24, 0usize..24, 0usize..24), 1..60),
            seed in any::<u64>(),
        ) {
            let mut t = OccurrenceTracker::new(k);
            let mut rng = SmallRng::seed_from_u64(seed);
            for &(send, a, b, c) in &ops {
                if send {
                    t.record_sent(&CodeVector::from_indices(k, &[a % k, b % k, c % k]));
                } else {
                    t.regroup(a % k, b % (k + 1));
                }
                t.assert_consistent();
                let reference = c % k;
                let excluded = |x: usize| x % 3 == a % 3;
                let group: Vec<usize> =
                    (0..k).filter(|&x| t.group_of[x] == t.group_of[reference]).collect();
                let scan = best_substitute(&t, reference, &group, |x| !excluded(x));
                let pick = t.pick_substitute(reference, excluded, &mut rng);
                prop_assert_eq!(pick.is_some(), scan.is_some());
                if let (Some(pick), Some(scan)) = (pick, scan) {
                    prop_assert!(group.contains(&pick) && !excluded(pick) && pick != reference);
                    prop_assert_eq!(t.frequency(pick), t.frequency(scan));
                }
            }
        }
    }

    #[test]
    fn summary_reflects_spread() {
        let mut t = OccurrenceTracker::new(4);
        for _ in 0..4 {
            t.record_sent(&CodeVector::from_indices(4, &[0, 1, 2, 3]));
        }
        let s = t.summary();
        assert_eq!(s.mean(), 4.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.relative_std_dev(), 0.0);

        t.record_sent(&CodeVector::from_indices(4, &[0]));
        assert!(t.summary().relative_std_dev() > 0.0);
    }
}
