use ltnc_lt::DegreeDistribution;
use ltnc_metrics::OpKind;
use rand::Rng;

use crate::LtncNode;

/// For every native, the lowest degree among the buffered packets that
/// contain it (0 once it is decoded), with a histogram of those degrees —
/// the second reachability heuristic of §III-B.1 without a pass over the
/// buffer.
///
/// A native's lowest covering degree only ever falls: belief propagation
/// reduces or consumes buffered packets and never evicts one, and a native
/// leaves a packet only by being decoded. So the node lowers the entries of
/// the natives of each packet it buffers or reduces, and nothing else.
#[derive(Debug, Clone)]
pub(crate) struct Coverage {
    /// `lowest[x]`, or [`Coverage::UNCOVERED`] when no packet contains `x`.
    lowest: Vec<u32>,
    /// `histogram[d]` = number of natives whose lowest covering degree is `d`.
    histogram: Vec<u32>,
}

impl Coverage {
    const UNCOVERED: u32 = u32::MAX;

    pub(crate) fn new(k: usize) -> Self {
        Coverage { lowest: vec![Self::UNCOVERED; k], histogram: vec![0] }
    }

    /// Records that native `x` is decoded (`degree` 0) or appears in a
    /// buffered packet of the given degree.
    pub(crate) fn lower(&mut self, x: usize, degree: usize) {
        let old = self.lowest[x];
        if (old as usize) <= degree {
            return;
        }
        if old != Self::UNCOVERED {
            self.histogram[old as usize] -= 1;
        }
        if degree >= self.histogram.len() {
            self.histogram.resize(degree + 1, 0);
        }
        self.histogram[degree] += 1;
        self.lowest[x] = u32::try_from(degree).expect("a degree is at most k");
    }

    /// Number of natives that are decoded or appear in at least one buffered
    /// packet of degree ≤ `d`.
    pub(crate) fn up_to(&self, d: usize) -> usize {
        self.histogram.iter().take(d.saturating_add(1)).map(|&n| n as usize).sum()
    }
}

impl LtncNode {
    /// The two reachability heuristics of §III-B.1, in O(d).
    fn reachable(&self, d: usize) -> bool {
        d > 0
            && self.decoder.decoded_count() + self.degree_index.degree_mass_up_to(d) >= d
            && self.coverage.up_to(d) >= d
    }

    /// Picks a target degree for a fresh encoded packet (§III-B.1).
    ///
    /// Degrees are drawn from the Robust Soliton distribution; a drawn degree
    /// is rejected when either of the two reachability heuristics of the paper
    /// says it cannot be built from the packets available:
    ///
    /// 1. the total degree mass of available packets of degree ≤ d (decoded
    ///    natives count 1 each) is smaller than `d`;
    /// 2. fewer than `d` distinct natives are decoded or appear in a buffered
    ///    packet of degree ≤ d.
    ///
    /// After [`crate::LtncConfig::max_degree_retries`] rejected draws the node
    /// falls back to the largest reachable degree (the paper reports that the
    /// first draw is accepted 99.9 % of the time, so the fallback is
    /// essentially never exercised).
    pub(crate) fn pick_degree<R: Rng + ?Sized>(&mut self, rng: &mut R) -> usize {
        let mut draws = 0;
        while draws < self.config.max_degree_retries {
            draws += 1;
            self.recode_counters.incr(OpKind::DegreeDraw);
            let d = self.soliton.sample(rng);
            if self.reachable(d) {
                self.stats.degree_draws += draws as u64;
                if draws == 1 {
                    self.stats.first_pick_accepted += 1;
                }
                return d;
            }
        }
        self.stats.degree_draws += draws as u64;

        // Fallback: the largest degree both heuristics accept, found in one
        // pass that carries the two running sums. At least one degree is
        // reachable because `can_recode()` held when recoding started.
        let mut mass = self.decoder.decoded_count();
        let mut covered = self.coverage.up_to(0);
        let mut largest = 1;
        for d in 1..=self.coverage.up_to(usize::MAX) {
            mass += d * self.degree_index.count(d);
            covered += self.coverage.histogram.get(d).map_or(0, |&n| n as usize);
            if mass >= d && covered >= d {
                largest = d;
            }
        }
        largest
    }
}

#[cfg(test)]
impl LtncNode {
    /// The test oracle of [`Coverage`]: `coverage[d]` = number of natives that
    /// are decoded or appear in at least one buffered packet of degree ≤ d,
    /// recomputed from every buffered packet in one pass over the degree
    /// index (which iterates lowest degree first).
    pub(crate) fn coverage_by_degree(&self) -> Vec<usize> {
        let max_degree = self.degree_index.max_degree().unwrap_or(0);
        let mut covered = vec![false; self.k];
        let mut count = 0usize;
        for (x, slot) in covered.iter_mut().enumerate() {
            if self.decoder.is_decoded(x) {
                *slot = true;
                count += 1;
            }
        }
        let mut coverage = vec![0usize; max_degree + 1];
        let mut current_degree = 0usize;
        for (degree, id) in self.degree_index.iter() {
            while current_degree < degree {
                coverage[current_degree] = count;
                current_degree += 1;
            }
            if let Some((vector, _)) = self.decoder.graph().packet(id) {
                for x in vector.iter_ones() {
                    if !covered[x] {
                        covered[x] = true;
                        count += 1;
                    }
                }
            }
        }
        while current_degree <= max_degree {
            coverage[current_degree] = count;
            current_degree += 1;
        }
        coverage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltnc_gf2::{CodeVector, EncodedPacket, Payload};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn natives(k: usize, m: usize) -> Vec<Payload> {
        (0..k).map(|i| Payload::from_vec((0..m).map(|j| (i * 3 + j + 1) as u8).collect())).collect()
    }

    fn packet(k: usize, indices: &[usize], nat: &[Payload]) -> EncodedPacket {
        let mut payload = Payload::zero(nat[0].len());
        for &i in indices {
            payload.xor_assign(&nat[i]);
        }
        EncodedPacket::new(CodeVector::from_indices(k, indices), payload)
    }

    #[test]
    fn coverage_counts_decoded_and_buffered_natives() {
        let k = 8;
        let nat = natives(k, 2);
        let mut node = LtncNode::new(k, 2);
        node.receive(&packet(k, &[0], &nat));
        node.receive(&packet(k, &[1, 2, 3], &nat));
        node.receive(&packet(k, &[3, 4], &nat));
        let coverage = node.coverage_by_degree();
        // Degrees present: 2 and 3 → coverage has entries 0..=3.
        assert_eq!(coverage.len(), 4);
        // Degree 0/1: only the decoded native x0.
        assert_eq!(coverage[0], 1);
        assert_eq!(coverage[1], 1);
        // Degree ≤ 2: x0 plus {x3, x4}.
        assert_eq!(coverage[2], 3);
        // Degree ≤ 3: adds {x1, x2} (x3 already counted).
        assert_eq!(coverage[3], 5);
    }

    #[test]
    fn picked_degree_never_exceeds_what_is_available() {
        // Paper example: {x1⊕x2⊕x3, x1⊕x3, x2⊕x5} — degree 5 is unreachable
        // because only 4 distinct natives are covered.
        let k = 8;
        let nat = natives(k, 2);
        let mut node = LtncNode::new(k, 2);
        node.receive(&packet(k, &[0, 1, 2], &nat));
        node.receive(&packet(k, &[0, 2], &nat));
        node.receive(&packet(k, &[1, 4], &nat));
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..200 {
            let d = node.pick_degree(&mut rng);
            assert!((1..=4).contains(&d), "picked unreachable degree {d}");
        }
    }

    #[test]
    fn single_decoded_native_only_allows_degree_one() {
        let k = 16;
        let nat = natives(k, 2);
        let mut node = LtncNode::new(k, 2);
        node.receive(&packet(k, &[5], &nat));
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..50 {
            assert_eq!(node.pick_degree(&mut rng), 1);
        }
    }

    #[test]
    fn stats_track_draws_and_first_pick_acceptance() {
        let k = 32;
        let m = 2;
        let nat = natives(k, m);
        // A node with everything decoded accepts any degree immediately.
        let mut node = LtncNode::with_all_natives(k, m, &nat, crate::LtncConfig::default());
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            node.pick_degree(&mut rng);
        }
        assert_eq!(node.stats().first_pick_accepted, 100);
        assert_eq!(node.stats().degree_draws, 100);
    }
}
