use ltnc_lt::PacketId;
use rand::Rng;

/// The index `S` of buffered encoded packets grouped by their current degree
/// (first row of Table I in the paper: "find a set of encoded packets to
/// build a fresh one of a given degree").
///
/// Decoded native packets play the role of `S[1]`; they are tracked by the
/// node itself (the belief-propagation decoder owns their payloads), so this
/// index only stores buffered packets, whose degree is always ≥ 2. The index
/// must be kept in sync with the Tanner graph through the decoder's
/// [`ltnc_lt::DecodeEvent`]s: packets move buckets when belief propagation
/// reduces them and leave when they are consumed.
#[derive(Debug, Clone, Default)]
pub struct DegreeIndex {
    /// `buckets[d]` holds the ids of buffered packets of current degree `d`.
    /// Bucket 0 and 1 stay empty (degree-0/1 packets never stay buffered).
    buckets: Vec<Vec<PacketId>>,
    /// Reverse map, dense over [`PacketId::index`] (ids are never reused):
    /// (degree, position in bucket) for O(1) removal and in-place sampling.
    positions: Vec<Option<(usize, usize)>>,
    len: usize,
}

impl DegreeIndex {
    /// Creates an empty index.
    #[must_use]
    pub fn new() -> Self {
        DegreeIndex::default()
    }

    /// Number of indexed packets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no packet is indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of indexed packets of exactly degree `d` (`n(d)` in the paper).
    #[must_use]
    pub fn count(&self, degree: usize) -> usize {
        self.buckets.get(degree).map_or(0, Vec::len)
    }

    /// Largest degree with at least one packet, or `None` when empty.
    #[must_use]
    pub fn max_degree(&self) -> Option<usize> {
        self.buckets.iter().rposition(|b| !b.is_empty())
    }

    /// The ids currently indexed at degree `d`.
    #[must_use]
    pub fn bucket(&self, degree: usize) -> &[PacketId] {
        self.buckets.get(degree).map_or(&[], Vec::as_slice)
    }

    fn position(&self, id: PacketId) -> Option<(usize, usize)> {
        self.positions.get(id.index()).copied().flatten()
    }

    /// Current degree of an indexed packet.
    #[must_use]
    pub fn degree_of(&self, id: PacketId) -> Option<usize> {
        self.position(id).map(|(d, _)| d)
    }

    /// Returns `true` when the packet is indexed.
    #[must_use]
    pub fn contains(&self, id: PacketId) -> bool {
        self.position(id).is_some()
    }

    /// Adds a packet at the given degree.
    ///
    /// # Panics
    ///
    /// Panics if the id is already indexed (packets are inserted exactly once).
    pub fn insert(&mut self, id: PacketId, degree: usize) {
        assert!(!self.contains(id), "packet {id:?} is already indexed");
        if degree >= self.buckets.len() {
            self.buckets.resize(degree + 1, Vec::new());
        }
        if id.index() >= self.positions.len() {
            self.positions.resize(id.index() + 1, None);
        }
        self.positions[id.index()] = Some((degree, self.buckets[degree].len()));
        self.buckets[degree].push(id);
        self.len += 1;
    }

    /// Moves a packet to a new degree bucket (no-op if the degree is unchanged).
    ///
    /// # Panics
    ///
    /// Panics if the id is not indexed.
    pub fn update(&mut self, id: PacketId, new_degree: usize) {
        let old_degree =
            self.degree_of(id).unwrap_or_else(|| panic!("packet {id:?} is not indexed"));
        if old_degree == new_degree {
            return;
        }
        self.remove(id);
        self.insert(id, new_degree);
    }

    /// Removes a packet from the index. Returns its last known degree.
    ///
    /// Removal is O(1) (swap-remove within the bucket).
    pub fn remove(&mut self, id: PacketId) -> Option<usize> {
        let (degree, pos) = self.positions.get_mut(id.index())?.take()?;
        let bucket = &mut self.buckets[degree];
        bucket.swap_remove(pos);
        if let Some(&moved) = bucket.get(pos) {
            self.positions[moved.index()] = Some((degree, pos));
        }
        self.len -= 1;
        Some(degree)
    }

    /// Step `drawn` of a lazy Fisher–Yates shuffle of the bucket of `degree`:
    /// swaps a uniformly random packet of `bucket[drawn..]` into position
    /// `drawn` and returns it. Calling this with `drawn = 0, 1, 2, …` visits
    /// the bucket in uniformly random order without replacement, paying only
    /// for the packets actually examined. The order inside a bucket carries
    /// no meaning, so the swaps stay.
    ///
    /// # Panics
    ///
    /// Panics if `drawn >= count(degree)`.
    pub fn draw<R: Rng + ?Sized>(&mut self, degree: usize, drawn: usize, rng: &mut R) -> PacketId {
        let bucket = &mut self.buckets[degree];
        let pick = rng.gen_range(drawn..bucket.len());
        bucket.swap(drawn, pick);
        self.positions[bucket[drawn].index()] = Some((degree, drawn));
        self.positions[bucket[pick].index()] = Some((degree, pick));
        bucket[drawn]
    }

    /// Sum of `i · n(i)` for `i ≤ cap` — the first reachability bound of
    /// §III-B.1: a degree `d` is unreachable when
    /// `decoded + Σ_{i=2}^{d} i·n(i) < d` (the decoded-native count is added by
    /// the caller since decoded packets have degree 1).
    #[must_use]
    pub fn degree_mass_up_to(&self, cap: usize) -> usize {
        self.buckets.iter().enumerate().take(cap + 1).map(|(d, bucket)| d * bucket.len()).sum()
    }

    /// Iterates over all indexed ids, lowest degree first (order within a
    /// bucket is unspecified).
    pub fn iter(&self) -> impl Iterator<Item = (usize, PacketId)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .flat_map(|(d, bucket)| bucket.iter().map(move |&id| (d, id)))
    }
}

#[cfg(test)]
impl DegreeIndex {
    /// Asserts that buckets and reverse map describe the same packets.
    pub(crate) fn assert_consistent(&self) {
        let mut indexed = 0;
        for (degree, bucket) in self.buckets.iter().enumerate() {
            for (pos, &id) in bucket.iter().enumerate() {
                assert_eq!(self.position(id), Some((degree, pos)), "{id:?}");
                indexed += 1;
            }
        }
        assert_eq!(indexed, self.len);
        assert_eq!(self.positions.iter().flatten().count(), self.len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltnc_gf2::{CodeVector, Payload};
    use ltnc_lt::TannerGraph;

    /// Obtain real `PacketId`s by inserting into a Tanner graph.
    fn ids(n: usize) -> Vec<PacketId> {
        let mut g = TannerGraph::new(n + 2);
        (0..n)
            .map(|i| g.insert(CodeVector::from_indices(n + 2, &[i, i + 1]), Payload::zero(1)))
            .collect()
    }

    #[test]
    fn empty_index() {
        let idx = DegreeIndex::new();
        assert!(idx.is_empty());
        assert_eq!(idx.len(), 0);
        assert_eq!(idx.count(2), 0);
        assert_eq!(idx.max_degree(), None);
        assert_eq!(idx.degree_mass_up_to(10), 0);
        assert!(idx.bucket(3).is_empty());
    }

    #[test]
    fn insert_and_lookup() {
        let ids = ids(3);
        let mut idx = DegreeIndex::new();
        idx.insert(ids[0], 2);
        idx.insert(ids[1], 3);
        idx.insert(ids[2], 3);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.count(2), 1);
        assert_eq!(idx.count(3), 2);
        assert_eq!(idx.max_degree(), Some(3));
        assert_eq!(idx.degree_of(ids[1]), Some(3));
        assert!(idx.contains(ids[0]));
        assert_eq!(idx.bucket(3).len(), 2);
    }

    #[test]
    #[should_panic(expected = "already indexed")]
    fn double_insert_panics() {
        let ids = ids(1);
        let mut idx = DegreeIndex::new();
        idx.insert(ids[0], 2);
        idx.insert(ids[0], 3);
    }

    #[test]
    fn update_moves_between_buckets() {
        let ids = ids(2);
        let mut idx = DegreeIndex::new();
        idx.insert(ids[0], 5);
        idx.insert(ids[1], 5);
        idx.update(ids[0], 4);
        assert_eq!(idx.count(5), 1);
        assert_eq!(idx.count(4), 1);
        assert_eq!(idx.degree_of(ids[0]), Some(4));
        assert_eq!(idx.degree_of(ids[1]), Some(5));
        // No-op update keeps everything consistent.
        idx.update(ids[0], 4);
        assert_eq!(idx.count(4), 1);
    }

    #[test]
    fn remove_swaps_positions_correctly() {
        let ids = ids(3);
        let mut idx = DegreeIndex::new();
        for &id in &ids {
            idx.insert(id, 2);
        }
        assert_eq!(idx.remove(ids[0]), Some(2));
        assert_eq!(idx.len(), 2);
        assert!(!idx.contains(ids[0]));
        // The swapped packet is still reachable and removable.
        assert_eq!(idx.remove(ids[2]), Some(2));
        assert_eq!(idx.remove(ids[1]), Some(2));
        assert!(idx.is_empty());
        assert_eq!(idx.remove(ids[1]), None);
    }

    #[test]
    fn degree_mass_matches_paper_example() {
        // Example of §III-B.1: packets of degrees {3, 2, 2} give a maximum
        // reachable degree of 2·2 + 3 = 7.
        let ids = ids(3);
        let mut idx = DegreeIndex::new();
        idx.insert(ids[0], 3);
        idx.insert(ids[1], 2);
        idx.insert(ids[2], 2);
        assert_eq!(idx.degree_mass_up_to(7), 7);
        assert_eq!(idx.degree_mass_up_to(2), 4);
        assert_eq!(idx.degree_mass_up_to(1), 0);
    }

    #[test]
    fn iter_visits_everything_in_degree_order() {
        let ids = ids(3);
        let mut idx = DegreeIndex::new();
        idx.insert(ids[0], 4);
        idx.insert(ids[1], 2);
        idx.insert(ids[2], 4);
        let degrees: Vec<usize> = idx.iter().map(|(d, _)| d).collect();
        assert_eq!(degrees, vec![2, 4, 4]);
    }

    #[test]
    fn draw_visits_a_bucket_once_each_and_keeps_positions() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let ids = ids(7);
        let mut idx = DegreeIndex::new();
        for &id in &ids[..5] {
            idx.insert(id, 3);
        }
        idx.insert(ids[5], 2);
        idx.insert(ids[6], 4);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut first = [0u32; 5];
        for _ in 0..500 {
            let mut drawn: Vec<PacketId> = (0..5).map(|i| idx.draw(3, i, &mut rng)).collect();
            first[ids.iter().position(|&id| id == drawn[0]).unwrap()] += 1;
            drawn.sort();
            assert_eq!(drawn, ids[..5]);
            idx.assert_consistent();
        }
        // Each packet leads about one shuffle in five (σ ≈ 9).
        assert!(first.iter().all(|&n| (55..=145).contains(&n)), "{first:?}");
        // A stopped shuffle leaves an index that removes and moves as before.
        idx.draw(3, 0, &mut rng);
        idx.draw(3, 1, &mut rng);
        idx.update(ids[2], 2);
        assert_eq!(idx.remove(ids[0]), Some(3));
        idx.assert_consistent();
        assert_eq!((idx.count(2), idx.count(3), idx.count(4)), (2, 3, 1));
    }
}
