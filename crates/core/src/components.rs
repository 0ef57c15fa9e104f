use ltnc_lt::PacketId;
use rand::Rng;

/// Label of the equivalence class of decoded native packets.
pub const DECODED_CLASS: usize = 0;

/// The connected components of native packets under the relation
/// "`x ⊕ x'` can be generated using only decoded natives and degree-2 encoded
/// packets" (second row of Table I, leader-based representation `cc` of the
/// paper).
///
/// * Initially `cc(x_i) = i + 1` (every native is alone in its component).
/// * When a native is decoded, its label becomes [`DECODED_CLASS`] (0).
/// * When a degree-2 packet `x ⊕ x'` is received — or a buffered packet drops
///   to degree 2 during belief propagation — the two components are merged.
///
/// Two natives are substitutable in the refinement step (Algorithm 2) exactly
/// when their labels are equal. On top of the labels, the tracker keeps the
/// member list of every component (the decoded class is what the build step
/// samples its degree-1 candidates from) and the degree-2 packets forming the
/// component (to materialise the payload of `x ⊕ x'` by XOR-ing packets along
/// a path between `x` and `x'`).
#[derive(Debug, Clone)]
pub struct ComponentTracker {
    /// `labels[x]` is the component label of native `x` (0 = decoded).
    labels: Vec<usize>,
    /// `members[l]` lists the natives currently labelled `l`.
    members: Vec<Vec<usize>>,
    /// `slots[x]` is the position of `x` in `members[labels[x]]`.
    slots: Vec<usize>,
    /// Adjacency over natives: for each native, `(neighbour, degree-2 packet id)`.
    edges: Vec<Vec<(usize, PacketId)>>,
    /// Number of label rewrites performed (the paper's merge is a relabel; this
    /// is the control-plane work the cost model charges as index updates).
    relabel_ops: u64,
    /// Scratch of [`ComponentTracker::path_between`], reused across searches
    /// so that one search costs the component it explores, not `k`.
    search: PathSearch,
}

/// Breadth-first search state that is never cleared: `seen[x]` is valid only
/// when it equals the current `epoch`, and `came_from[x]` — the native the
/// search reached `x` from and the position of the edge it took in that
/// native's adjacency list — only when `seen[x]` is.
#[derive(Debug, Clone, Default)]
struct PathSearch {
    epoch: u32,
    seen: Vec<u32>,
    came_from: Vec<(usize, usize)>,
    queue: Vec<usize>,
    path: Vec<PacketId>,
}

impl ComponentTracker {
    /// Creates the initial partition where every native is its own component.
    #[must_use]
    pub fn new(k: usize) -> Self {
        ComponentTracker {
            labels: (1..=k).collect(),
            members: std::iter::once(Vec::new()).chain((0..k).map(|x| vec![x])).collect(),
            slots: vec![0; k],
            edges: vec![Vec::new(); k],
            relabel_ops: 0,
            search: PathSearch::default(),
        }
    }

    /// Code length `k`.
    #[must_use]
    pub fn code_length(&self) -> usize {
        self.labels.len()
    }

    /// The component label of native `x` (0 when decoded).
    ///
    /// # Panics
    ///
    /// Panics if `x >= k`.
    #[must_use]
    pub fn label_of(&self, x: usize) -> usize {
        self.labels[x]
    }

    /// A copy of the full label vector — this is what a receiver ships to the
    /// sender over the feedback channel (`cc_r` in Algorithm 4).
    #[must_use]
    pub fn labels(&self) -> Vec<usize> {
        self.labels.clone()
    }

    /// Returns `true` when `x` is in the decoded class.
    #[must_use]
    pub fn is_decoded(&self, x: usize) -> bool {
        self.labels[x] == DECODED_CLASS
    }

    /// The natives currently sharing `x`'s component (including `x` itself).
    #[must_use]
    pub fn members_of(&self, x: usize) -> &[usize] {
        &self.members[self.labels[x]]
    }

    /// The natives currently in the decoded class (label 0). These are the
    /// degree-1 packets available to the build step (`S[1]` in the paper).
    #[must_use]
    pub fn decoded_members(&self) -> &[usize] {
        &self.members[DECODED_CLASS]
    }

    /// Step `drawn` of a lazy Fisher–Yates shuffle of the decoded class: swaps
    /// a uniformly random native of `decoded_members()[drawn..]` into position
    /// `drawn` and returns it (see [`crate::DegreeIndex::draw`]).
    ///
    /// # Panics
    ///
    /// Panics if `drawn >= decoded_members().len()`.
    pub fn draw_decoded<R: Rng + ?Sized>(&mut self, drawn: usize, rng: &mut R) -> usize {
        let decoded = &mut self.members[DECODED_CLASS];
        let pick = rng.gen_range(drawn..decoded.len());
        decoded.swap(drawn, pick);
        self.slots[decoded[drawn]] = drawn;
        self.slots[decoded[pick]] = pick;
        decoded[drawn]
    }

    /// Size of `x`'s component.
    #[must_use]
    pub fn component_size(&self, x: usize) -> usize {
        self.members_of(x).len()
    }

    /// Number of distinct non-empty components (the decoded class counts as
    /// one when non-empty).
    #[must_use]
    pub fn component_count(&self) -> usize {
        self.members.iter().filter(|m| !m.is_empty()).count()
    }

    /// Cumulative number of label rewrites (control-plane cost).
    #[must_use]
    pub fn relabel_ops(&self) -> u64 {
        self.relabel_ops
    }

    /// Gives native `x` the label `to`, appending it to that member list.
    fn relabel(&mut self, x: usize, to: usize) {
        self.labels[x] = to;
        self.slots[x] = self.members[to].len();
        self.members[to].push(x);
        self.relabel_ops += 1;
    }

    /// Moves native `x` to the decoded class.
    ///
    /// # Panics
    ///
    /// Panics if `x >= k`.
    pub fn mark_decoded(&mut self, x: usize) {
        let old = self.labels[x];
        if old == DECODED_CLASS {
            return;
        }
        let slot = self.slots[x];
        self.members[old].swap_remove(slot);
        if let Some(&moved) = self.members[old].get(slot) {
            self.slots[moved] = slot;
        }
        self.relabel(x, DECODED_CLASS);
    }

    /// Records the degree-2 packet `x ⊕ y` (id `packet`) and merges the two
    /// components. Mirrors the update rule of Figure 5 in the paper: every
    /// native labelled like `y` is relabelled like `x` (we relabel the smaller
    /// component for efficiency — the resulting partition is identical).
    ///
    /// Returns the label `x` and `y` now share and the natives that changed to
    /// it — none when the two natives already were in the same component (the
    /// packet connected nothing).
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` is out of range or `x == y`.
    pub fn merge(&mut self, x: usize, y: usize, packet: PacketId) -> (usize, &[usize]) {
        assert_ne!(x, y, "a degree-2 packet has two distinct natives");
        self.edges[x].push((y, packet));
        self.edges[y].push((x, packet));

        let lx = self.labels[x];
        let ly = self.labels[y];
        if lx == ly {
            return (lx, &[]);
        }
        // Keep the decoded class label if present, otherwise relabel the
        // smaller component into the larger one.
        let (keep, drop) = if lx == DECODED_CLASS {
            (lx, ly)
        } else if ly == DECODED_CLASS {
            (ly, lx)
        } else if self.members[lx].len() >= self.members[ly].len() {
            (lx, ly)
        } else {
            (ly, lx)
        };
        let kept = self.members[keep].len();
        for m in std::mem::take(&mut self.members[drop]) {
            self.relabel(m, keep);
        }
        (keep, &self.members[keep][kept..])
    }

    /// Finds a shortest sequence of degree-2 packets whose XOR equals `x ⊕ y`
    /// (intermediate natives telescope away). Returns `None` when `x` and `y`
    /// are not connected by degree-2 packets — in particular when their
    /// relation only holds because both are decoded, which the caller handles
    /// by XOR-ing the two decoded payloads directly.
    ///
    /// `edge_alive` lets the caller skip packets that have since been consumed
    /// by belief propagation. The search allocates nothing and visits at most
    /// the component of `x`.
    pub fn path_between<F>(&mut self, x: usize, y: usize, edge_alive: F) -> Option<&[PacketId]>
    where
        F: Fn(PacketId) -> bool,
    {
        let search = &mut self.search;
        search.path.clear();
        if x == y {
            return Some(&search.path);
        }
        if search.epoch == u32::MAX {
            search.seen.fill(0);
            search.epoch = 0;
        }
        search.epoch += 1;
        // Sized by the first search; a node that never substitutes along
        // degree-2 paths (a source) never pays for the scratch.
        search.seen.resize(self.labels.len(), 0);
        search.came_from.resize(self.labels.len(), (0, 0));
        search.queue.clear();
        search.queue.push(x);
        search.seen[x] = search.epoch;
        let mut head = 0;
        while let Some(&cur) = search.queue.get(head) {
            head += 1;
            for (edge, &(next, packet)) in self.edges[cur].iter().enumerate() {
                if search.seen[next] == search.epoch || !edge_alive(packet) {
                    continue;
                }
                search.seen[next] = search.epoch;
                search.came_from[next] = (cur, edge);
                if next == y {
                    let mut node = y;
                    while node != x {
                        let (parent, edge) = search.came_from[node];
                        search.path.push(self.edges[parent][edge].1);
                        node = parent;
                    }
                    search.path.reverse();
                    return Some(&search.path);
                }
                search.queue.push(next);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltnc_gf2::{CodeVector, Payload};
    use ltnc_lt::TannerGraph;
    use proptest::prelude::*;

    /// The search as it was before it reused its scratch: a breadth-first
    /// search over the degree-2 edge graph on freshly allocated state.
    fn path_between_oracle(
        cc: &ComponentTracker,
        x: usize,
        y: usize,
        edge_alive: impl Fn(PacketId) -> bool,
    ) -> Option<Vec<PacketId>> {
        if x == y {
            return Some(Vec::new());
        }
        let k = cc.labels.len();
        let mut prev: Vec<Option<(usize, PacketId)>> = vec![None; k];
        let mut visited = vec![false; k];
        visited[x] = true;
        let mut queue = std::collections::VecDeque::from([x]);
        while let Some(cur) = queue.pop_front() {
            for &(next, packet) in &cc.edges[cur] {
                if visited[next] || !edge_alive(packet) {
                    continue;
                }
                visited[next] = true;
                prev[next] = Some((cur, packet));
                if next == y {
                    let mut path = Vec::new();
                    let mut node = y;
                    while let Some((parent, pkt)) = prev[node] {
                        path.push(pkt);
                        node = parent;
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(next);
            }
        }
        None
    }

    fn pids(n: usize) -> Vec<PacketId> {
        let mut g = TannerGraph::new(n + 2);
        (0..n)
            .map(|i| g.insert(CodeVector::from_indices(n + 2, &[i, i + 1]), Payload::zero(1)))
            .collect()
    }

    #[test]
    fn initial_partition_is_singletons() {
        let cc = ComponentTracker::new(5);
        assert_eq!(cc.code_length(), 5);
        assert_eq!(cc.component_count(), 5);
        for x in 0..5 {
            assert_eq!(cc.label_of(x), x + 1);
            assert_eq!(cc.members_of(x), &[x]);
            assert!(!cc.is_decoded(x));
            assert_eq!(cc.component_size(x), 1);
        }
        assert_ne!(cc.label_of(0), cc.label_of(1));
    }

    #[test]
    fn mark_decoded_moves_to_class_zero() {
        let mut cc = ComponentTracker::new(4);
        cc.mark_decoded(2);
        assert!(cc.is_decoded(2));
        assert_eq!(cc.label_of(2), DECODED_CLASS);
        assert_eq!(cc.members_of(2), &[2]);
        cc.mark_decoded(0);
        assert_eq!(cc.label_of(0), cc.label_of(2));
        assert_eq!(cc.component_size(0), 2);
        // Idempotent.
        cc.mark_decoded(0);
        assert_eq!(cc.component_size(0), 2);
    }

    #[test]
    fn mark_decoded_leaves_the_rest_of_the_component_in_place() {
        let ids = pids(3);
        let mut cc = ComponentTracker::new(5);
        cc.merge(0, 1, ids[0]);
        cc.merge(1, 2, ids[1]);
        cc.merge(2, 3, ids[2]);
        // Decode from the middle of the member list, then the ends: every
        // removal must keep the positions of the natives that stay.
        for (x, left) in [(1, vec![0, 2, 3]), (0, vec![2, 3]), (3, vec![2]), (2, vec![])] {
            cc.mark_decoded(x);
            let mut members = cc.members.iter().skip(1).flatten().copied().collect::<Vec<_>>();
            members.retain(|&m| m != 4);
            members.sort_unstable();
            assert_eq!(members, left);
            for (label, list) in cc.members.iter().enumerate() {
                for (slot, &m) in list.iter().enumerate() {
                    assert_eq!((cc.labels[m], cc.slots[m]), (label, slot));
                }
            }
        }
        assert_eq!(cc.decoded_members(), &[1, 0, 3, 2]);
    }

    #[test]
    fn draw_decoded_visits_every_decoded_native_once() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut cc = ComponentTracker::new(8);
        for x in [6, 1, 4, 3, 0] {
            cc.mark_decoded(x);
        }
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..20 {
            let mut drawn: Vec<usize> = (0..5).map(|i| cc.draw_decoded(i, &mut rng)).collect();
            drawn.sort_unstable();
            assert_eq!(drawn, vec![0, 1, 3, 4, 6]);
            for (slot, &m) in cc.decoded_members().iter().enumerate() {
                assert_eq!(cc.slots[m], slot);
            }
        }
        // Positions stayed true: a later removal-free relabel still works.
        cc.mark_decoded(7);
        assert_eq!(cc.decoded_members().len(), 6);
    }

    #[test]
    fn merge_joins_components() {
        let ids = pids(3);
        let mut cc = ComponentTracker::new(5);
        // The singleton {1} joins {0}: the larger (here: first) side keeps its label.
        assert_eq!(cc.merge(0, 1, ids[0]), (1, &[1][..]));
        assert_eq!(cc.label_of(0), cc.label_of(1));
        assert_eq!(cc.component_size(0), 2);
        assert_eq!(cc.merge(1, 2, ids[1]), (1, &[2][..]));
        assert_eq!(cc.label_of(0), cc.label_of(2));
        assert_eq!(cc.component_size(2), 3);
        // Merging within the same component is a no-op on the partition.
        assert_eq!(cc.merge(0, 2, ids[2]), (1, &[][..]));
        assert_eq!(cc.component_size(0), 3);
        assert_eq!(cc.component_count(), 3); // {0,1,2}, {3}, {4}
    }

    #[test]
    fn paper_figure5_example() {
        // Figure 5: components {x1}, {x2,x4}, {x3,x5,x7}, {x6 decoded};
        // receiving x3 ⊕ x4 merges {x2,x4} and {x3,x5,x7}.
        // 0-based: x1..x7 -> 0..6.
        let ids = pids(6);
        let mut cc = ComponentTracker::new(7);
        cc.merge(1, 3, ids[0]); // x2 ⊕ x4
        cc.merge(2, 4, ids[1]); // x3 ⊕ x5
        cc.merge(4, 6, ids[2]); // x5 ⊕ x7
        cc.mark_decoded(5); // x6 decoded
        assert_eq!(cc.component_count(), 4);

        cc.merge(2, 3, ids[3]); // receive x3 ⊕ x4
        assert_eq!(cc.label_of(1), cc.label_of(6)); // x2 ~ x7 now
        assert_eq!(cc.component_size(1), 5);
        assert_eq!(cc.component_count(), 3);
        assert_ne!(cc.label_of(0), cc.label_of(1));
        assert!(cc.is_decoded(5));
    }

    #[test]
    fn merge_with_decoded_class_keeps_label_zero() {
        let ids = pids(2);
        let mut cc = ComponentTracker::new(4);
        cc.mark_decoded(0);
        cc.merge(0, 1, ids[0]);
        assert_eq!(cc.label_of(1), DECODED_CLASS);
        cc.merge(2, 1, ids[1]);
        assert_eq!(cc.label_of(2), DECODED_CLASS);
    }

    #[test]
    #[should_panic(expected = "distinct natives")]
    fn merge_same_native_panics() {
        let ids = pids(1);
        let mut cc = ComponentTracker::new(4);
        cc.merge(1, 1, ids[0]);
    }

    #[test]
    fn path_between_follows_degree2_edges() {
        let ids = pids(3);
        let mut cc = ComponentTracker::new(5);
        cc.merge(0, 1, ids[0]);
        cc.merge(1, 2, ids[1]);
        cc.merge(2, 3, ids[2]);
        assert_eq!(cc.path_between(0, 3, |_| true).unwrap(), &[ids[0], ids[1], ids[2]]);
        assert_eq!(cc.path_between(0, 0, |_| true).unwrap(), &[]);
        assert!(cc.path_between(0, 4, |_| true).is_none());
        // The scratch of one search does not leak into the next.
        assert_eq!(cc.path_between(3, 1, |_| true).unwrap(), &[ids[2], ids[1]]);
    }

    #[test]
    fn path_between_respects_dead_edges() {
        let ids = pids(2);
        let mut cc = ComponentTracker::new(4);
        cc.merge(0, 1, ids[0]);
        cc.merge(1, 2, ids[1]);
        assert!(cc.path_between(0, 2, |_| true).is_some());
        assert!(cc.path_between(0, 2, |p| p != ids[0]).is_none());
    }

    #[test]
    fn path_prefers_any_valid_route() {
        // Two parallel routes between 0 and 2; killing one still finds the other.
        let ids = pids(4);
        let mut cc = ComponentTracker::new(4);
        cc.merge(0, 1, ids[0]);
        cc.merge(1, 2, ids[1]);
        cc.merge(0, 3, ids[2]);
        cc.merge(3, 2, ids[3]);
        assert_eq!(cc.path_between(0, 2, |p| p != ids[1]).unwrap(), &[ids[2], ids[3]]);
    }

    #[test]
    fn relabel_ops_accumulate() {
        let ids = pids(2);
        let mut cc = ComponentTracker::new(4);
        assert_eq!(cc.relabel_ops(), 0);
        cc.merge(0, 1, ids[0]);
        let after_first = cc.relabel_ops();
        assert!(after_first >= 1);
        cc.mark_decoded(3);
        assert!(cc.relabel_ops() > after_first);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The label partition always matches reachability over the recorded
        /// degree-2 edges (plus the decoded class).
        #[test]
        fn prop_labels_match_edge_reachability(
            k in 3usize..16,
            ops in proptest::collection::vec((0usize..16, 0usize..16), 0..24),
        ) {
            let ids = pids(ops.len().max(1));
            let mut cc = ComponentTracker::new(k);
            for (i, &(a, b)) in ops.iter().enumerate() {
                let (a, b) = (a % k, b % k);
                if a != b {
                    cc.merge(a, b, ids[i]);
                }
            }
            for x in 0..k {
                for y in 0..k {
                    let connected = cc.path_between(x, y, |_| true).is_some();
                    prop_assert_eq!(
                        connected,
                        cc.label_of(x) == cc.label_of(y),
                        "x={} y={}", x, y
                    );
                }
            }
        }

        /// The search on reused, never-cleared scratch finds what a search on
        /// fresh state finds: a path exactly when one exists, as short as the
        /// shortest, made of live edges that chain from `x` to `y`.
        #[test]
        fn prop_path_search_matches_the_allocating_oracle(
            k in 3usize..16,
            ops in proptest::collection::vec((0usize..16, 0usize..16), 0..24),
            dead in proptest::collection::vec(0usize..24, 0..6),
        ) {
            let ids = pids(ops.len().max(1));
            let mut cc = ComponentTracker::new(k);
            for (i, &(a, b)) in ops.iter().enumerate() {
                let (a, b) = (a % k, b % k);
                if a != b {
                    cc.merge(a, b, ids[i]);
                }
            }
            let alive = |p: PacketId| !dead.iter().any(|&d| ids.get(d) == Some(&p));
            for x in 0..k {
                for y in 0..k {
                    let expected = path_between_oracle(&cc, x, y, alive);
                    let found = cc.path_between(x, y, alive).map(<[PacketId]>::to_vec);
                    prop_assert_eq!(
                        found.as_ref().map(Vec::len),
                        expected.as_ref().map(Vec::len),
                        "x={} y={}", x, y
                    );
                    let mut at = x;
                    for packet in found.iter().flatten() {
                        prop_assert!(alive(*packet));
                        let edge = cc.edges[at].iter().find(|e| e.1 == *packet);
                        prop_assert!(edge.is_some(), "packet {:?} does not leave x{}", packet, at);
                        at = edge.unwrap().0;
                    }
                    prop_assert!(found.is_none() || at == y);
                }
            }
        }
    }
}
