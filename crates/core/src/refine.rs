use ltnc_metrics::OpKind;
use rand::Rng;

use crate::build::Draft;
use crate::LtncNode;

impl LtncNode {
    /// Algorithm 2 of the paper: refines a freshly built packet by replacing
    /// over-represented native packets with under-represented ones, without
    /// changing the packet's degree.
    ///
    /// A native `x` appearing in `z` can be replaced by `x'` when `x ⊕ x'` can
    /// be generated from decoded natives and degree-2 packets (i.e. `x` and
    /// `x'` are in the same connected component), `x'` is strictly less
    /// frequent than `x` in the packets this node has already sent, and `x'`
    /// does not already appear in the packet. Adding `x ⊕ x'` then swaps the
    /// two (`x ⊕ x = 0`): between decoded natives that is a swap of two bits
    /// of the draft's vector, between undecoded ones it also adds the
    /// degree-2 packets on a path from `x` to `x'` to the draft's sources.
    pub(crate) fn refine_packet<R: Rng + ?Sized>(&mut self, z: &mut Draft, rng: &mut R) {
        for x in z.vector.ones() {
            self.recode_counters.incr(OpKind::RefineStep);
            let Some(best) = self.occurrences.pick_substitute(x, |c| z.vector.contains(c), rng)
            else {
                continue;
            };
            // A component is decoded as a whole (the ripple that decodes one
            // of its natives runs down every degree-2 packet that ties it), so
            // `x` and `best` are both decoded — nothing to add — or joined by
            // live degree-2 packets.
            if !(self.decoder.is_decoded(x) && self.decoder.is_decoded(best)) {
                let graph = self.decoder.graph();
                let alive = |id| graph.packet(id).is_some();
                let Some(path) = self.cc.path_between(x, best, alive) else {
                    debug_assert!(false, "x{x} and x{best} share a component but no path");
                    continue;
                };
                z.buffered.extend_from_slice(path);
            }
            z.vector.clear(x);
            z.vector.set(best);
            self.recode_counters.incr(OpKind::VectorXor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LtncConfig;
    use ltnc_gf2::{CodeVector, EncodedPacket, Payload};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn natives(k: usize, m: usize) -> Vec<Payload> {
        (0..k)
            .map(|i| Payload::from_vec((0..m).map(|j| (i * 11 + j + 1) as u8).collect()))
            .collect()
    }

    fn packet(k: usize, indices: &[usize], nat: &[Payload]) -> EncodedPacket {
        let mut payload = Payload::zero(nat[0].len());
        for &i in indices {
            payload.xor_assign(&nat[i]);
        }
        EncodedPacket::new(CodeVector::from_indices(k, indices), payload)
    }

    fn assert_consistent(p: &EncodedPacket, nat: &[Payload]) {
        let mut expected = Payload::zero(nat[0].len());
        for i in p.vector().iter_ones() {
            expected.xor_assign(&nat[i]);
        }
        assert_eq!(p.payload(), &expected, "payload does not match code vector");
    }

    /// The draft of a packet made of the given decoded natives.
    fn draft_of_natives(k: usize, indices: &[usize]) -> Draft {
        Draft { vector: CodeVector::from_indices(k, indices), buffered: Vec::new() }
    }

    /// The draft that is exactly the node's only buffered packet of `degree`.
    fn draft_of_buffered(node: &LtncNode, degree: usize) -> Draft {
        let id = node.degree_index.bucket(degree)[0];
        let vector = node.decoder.graph().packet(id).unwrap().0.clone();
        Draft { vector, buffered: vec![id] }
    }

    fn refine(node: &mut LtncNode, mut z: Draft) -> EncodedPacket {
        node.refine_packet(&mut z, &mut SmallRng::seed_from_u64(19));
        node.fold(z)
    }

    #[test]
    fn refinement_preserves_degree_and_consistency() {
        let k = 16;
        let m = 4;
        let nat = natives(k, m);
        let mut node = LtncNode::with_all_natives(k, m, &nat, LtncConfig::default());
        let mut rng = SmallRng::seed_from_u64(17);
        // Skew the occurrence counts: pretend x0..x3 were sent many times.
        for _ in 0..10 {
            node.occurrences.record_sent(&CodeVector::from_indices(k, &[0, 1, 2, 3]));
        }
        let z = node.build_packet(4, &mut rng);
        let d = z.vector.degree();
        let refined = refine(&mut node, z);
        assert_eq!(refined.degree(), d);
        assert_consistent(&refined, &nat);
    }

    #[test]
    fn over_represented_natives_are_swapped_out() {
        // Everything decoded, so every pair is substitutable. x0 is made very
        // frequent; a packet containing x0 must lose it after refinement.
        let k = 8;
        let m = 2;
        let nat = natives(k, m);
        let mut node = LtncNode::with_all_natives(k, m, &nat, LtncConfig::default());
        for _ in 0..5 {
            node.occurrences.record_sent(&CodeVector::from_indices(k, &[0]));
        }
        let refined = refine(&mut node, draft_of_natives(k, &[0, 1]));
        assert_eq!(refined.degree(), 2);
        assert!(!refined.vector().contains(0), "frequent native x0 should be replaced");
        assert_consistent(&refined, &nat);
    }

    #[test]
    fn decoded_substitution_is_an_index_swap() {
        // Between decoded natives a substitution touches no payload: the
        // fold still XORs exactly one payload per native of the packet.
        let k = 8;
        let m = 2;
        let nat = natives(k, m);
        let mut node = LtncNode::with_all_natives(k, m, &nat, LtncConfig::default());
        node.occurrences.record_sent(&CodeVector::from_indices(k, &[0, 1, 2]));
        let before = node.recoding_counters().get(OpKind::PayloadXor);
        let refined = refine(&mut node, draft_of_natives(k, &[0, 1, 2]));
        assert_eq!(refined.degree(), 3);
        assert!(refined.vector().iter_ones().all(|x| x > 2), "{:?}", refined.vector());
        assert_eq!(node.recoding_counters().get(OpKind::PayloadXor) - before, 3);
        assert_consistent(&refined, &nat);
    }

    #[test]
    fn paper_figure4_refinement_example() {
        // Figure 4 / §III-B.3: z = x1⊕x2⊕x3⊕x4⊕x5 (0-based 0..4); x3 (index 2)
        // is over-represented and connected to x7 (index 6) through
        // y4 = x3⊕x5 and y6 = x5⊕x7; x7 is the least frequent. The refined
        // packet is x1⊕x2⊕x4⊕x5⊕x7.
        let k = 7;
        let m = 2;
        let nat = natives(k, m);
        let mut node = LtncNode::new(k, m);
        node.receive(&packet(k, &[2, 4], &nat)); // y4 = x3 ⊕ x5
        node.receive(&packet(k, &[4, 6], &nat)); // y6 = x5 ⊕ x7
        node.receive(&packet(k, &[0, 1, 2, 3, 4], &nat)); // z, as the build would pick it
                                                          // Occurrence counts: x3 (index 2) frequent, x7 (index 6) never sent.
        for _ in 0..4 {
            node.occurrences.record_sent(&CodeVector::from_indices(k, &[2]));
        }
        for _ in 0..2 {
            node.occurrences.record_sent(&CodeVector::from_indices(k, &[4])); // x5 somewhat frequent
        }
        for _ in 0..1 {
            node.occurrences.record_sent(&CodeVector::from_indices(k, &[0, 1, 3]));
        }

        let z = draft_of_buffered(&node, 5);
        let refined = refine(&mut node, z);
        assert_eq!(refined.degree(), 5);
        assert!(!refined.vector().contains(2), "x3 must be replaced");
        assert!(refined.vector().contains(6), "x7 must be introduced");
        assert_consistent(&refined, &nat);
        assert_eq!(refined.vector().ones(), vec![0, 1, 3, 4, 6]);
    }

    #[test]
    fn no_substitution_when_no_candidate_is_less_frequent() {
        let k = 8;
        let m = 2;
        let nat = natives(k, m);
        let mut node = LtncNode::with_all_natives(k, m, &nat, LtncConfig::default());
        // Uniform occurrence counts: nothing to improve.
        node.occurrences.record_sent(&CodeVector::from_indices(k, &(0..k).collect::<Vec<_>>()));
        let refined = refine(&mut node, draft_of_natives(k, &[1, 2, 3]));
        assert_eq!(refined, packet(k, &[1, 2, 3], &nat));
    }

    #[test]
    fn refinement_without_connectivity_is_a_noop() {
        // Nothing decoded and no degree-2 packets: components are singletons,
        // so no substitution is possible.
        let k = 8;
        let m = 2;
        let nat = natives(k, m);
        let mut node = LtncNode::new(k, m);
        node.receive(&packet(k, &[1, 2, 3], &nat));
        for _ in 0..3 {
            node.occurrences.record_sent(&CodeVector::from_indices(k, &[1, 2, 3]));
        }
        let z = draft_of_buffered(&node, 3);
        let refined = refine(&mut node, z);
        assert_eq!(refined, packet(k, &[1, 2, 3], &nat));
    }

    #[test]
    fn refinement_reduces_occurrence_variance_over_time() {
        // Full-knowledge node recoding many packets: with refinement the
        // spread of native occurrences must stay small (paper: ≈ 0.1 % RSD),
        // and must be smaller than without refinement.
        let k = 64;
        let m = 1;
        let nat = natives(k, m);
        let mut with = LtncNode::with_all_natives(k, m, &nat, LtncConfig::default());
        let mut without =
            LtncNode::with_all_natives(k, m, &nat, LtncConfig::default().without_refinement());
        let mut rng_a = SmallRng::seed_from_u64(3);
        let mut rng_b = SmallRng::seed_from_u64(3);
        for _ in 0..400 {
            with.recode(&mut rng_a).unwrap();
            without.recode(&mut rng_b).unwrap();
        }
        let rsd_with = with.occurrence_spread().relative_std_dev;
        let rsd_without = without.occurrence_spread().relative_std_dev;
        assert!(
            rsd_with < rsd_without,
            "refinement should reduce the spread: {rsd_with} vs {rsd_without}"
        );
        assert!(rsd_with < 0.25, "relative std-dev too high: {rsd_with}");
    }
}
