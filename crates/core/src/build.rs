use ltnc_gf2::{CodeVector, EncodedPacket, Payload};
use ltnc_lt::PacketId;
use ltnc_metrics::OpKind;
use rand::Rng;

use crate::LtncNode;

/// A fresh packet while build and refinement shape it: only its code vector
/// and the list of what to XOR, no payload yet.
///
/// Buffered packets only ever contain undecoded natives (belief propagation
/// keeps the Tanner graph reduced), so the decoded natives of `vector` are
/// exactly the degree-1 sources of the packet and need no list of their own:
/// the payload is the XOR of `buffered` and of the decoded natives `vector`
/// names, folded once by [`LtncNode::fold`].
#[derive(Debug)]
pub(crate) struct Draft {
    pub(crate) vector: CodeVector,
    /// Buffered packets combined so far, the degree-2 packets of substitution
    /// paths included.
    pub(crate) buffered: Vec<PacketId>,
}

impl LtncNode {
    /// Algorithm 1 of the paper: greedily builds a fresh encoded packet of
    /// degree at most `target`, examining available packets by decreasing
    /// degree starting from `target` and skipping any candidate whose
    /// inclusion would not increase the degree or would overshoot it
    /// (collision avoidance).
    ///
    /// The candidates of one degree — the bucket of the degree index, or the
    /// decoded natives at degree 1 — are visited in uniformly random order by
    /// a lazy shuffle that pays only for the candidates examined.
    pub(crate) fn build_packet<R: Rng + ?Sized>(&mut self, target: usize, rng: &mut R) -> Draft {
        let mut draft = Draft { vector: CodeVector::zero(self.k), buffered: Vec::new() };
        let mut reached = 0;
        let top = target.min(self.degree_index.max_degree().unwrap_or(1)).max(1);
        for degree in (1..=top).rev() {
            let candidates = match degree {
                1 => self.cc.decoded_members().len(),
                _ => self.degree_index.count(degree),
            };
            for drawn in 0..candidates {
                if reached == target {
                    return draft;
                }
                self.recode_counters.incr(OpKind::BuildCandidate);
                if degree == 1 {
                    let x = self.cc.draw_decoded(drawn, rng);
                    let decoded = self.decoder.is_decoded(x);
                    debug_assert!(decoded, "the component tracker calls x{x} decoded");
                    if !decoded || draft.vector.contains(x) {
                        continue;
                    }
                    draft.vector.set(x);
                    reached += 1;
                } else {
                    let id = self.degree_index.draw(degree, drawn, rng);
                    let Some((candidate, _)) = self.decoder.graph().packet(id) else {
                        debug_assert!(false, "the degree index holds consumed packet {id:?}");
                        continue;
                    };
                    let combined = draft.vector.xor_degree(candidate);
                    if combined <= reached || combined > target {
                        continue;
                    }
                    draft.vector.xor_assign(candidate);
                    draft.buffered.push(id);
                    reached = combined;
                }
                self.recode_counters.incr(OpKind::VectorXor);
            }
        }
        draft
    }

    /// Turns a draft into a packet: one pass over the payload that folds in
    /// every source, none of them cloned.
    pub(crate) fn fold(&mut self, draft: Draft) -> EncodedPacket {
        let graph = self.decoder.graph();
        let natives = draft.vector.iter_ones().filter_map(|x| self.decoder.native(x));
        let buffered = draft
            .buffered
            .iter()
            .map(|&id| graph.packet(id).expect("nothing is consumed between build and fold").1);
        let sources: Vec<&Payload> = natives.chain(buffered).collect();
        self.recode_counters.add(OpKind::PayloadXor, sources.len() as u64);
        let mut payload = Payload::zero(self.payload_size);
        payload.xor_assign_many(&sources);
        EncodedPacket::new(draft.vector, payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LtncConfig;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn natives(k: usize, m: usize) -> Vec<Payload> {
        (0..k).map(|i| Payload::from_vec((0..m).map(|j| (i * 5 + j + 1) as u8).collect())).collect()
    }

    fn packet(k: usize, indices: &[usize], nat: &[Payload]) -> EncodedPacket {
        let mut payload = Payload::zero(nat[0].len());
        for &i in indices {
            payload.xor_assign(&nat[i]);
        }
        EncodedPacket::new(CodeVector::from_indices(k, indices), payload)
    }

    /// Build then fold: the packet Algorithm 1 alone would emit.
    fn build(node: &mut LtncNode, target: usize, rng: &mut SmallRng) -> EncodedPacket {
        let draft = node.build_packet(target, rng);
        node.fold(draft)
    }

    /// Checks the fundamental invariant: the payload of a built packet always
    /// equals the XOR of the natives named by its code vector.
    fn assert_consistent(p: &EncodedPacket, nat: &[Payload]) {
        let mut expected = Payload::zero(nat[0].len());
        for i in p.vector().iter_ones() {
            expected.xor_assign(&nat[i]);
        }
        assert_eq!(p.payload(), &expected, "payload does not match code vector");
    }

    #[test]
    fn builds_exact_degree_from_full_knowledge() {
        let k = 32;
        let m = 4;
        let nat = natives(k, m);
        let mut node = LtncNode::with_all_natives(k, m, &nat, LtncConfig::default());
        let mut rng = SmallRng::seed_from_u64(5);
        for target in 1..=10 {
            let p = build(&mut node, target, &mut rng);
            assert_eq!(p.degree(), target, "target {target}");
            assert_consistent(&p, &nat);
        }
    }

    #[test]
    fn paper_figure4_example_reaches_degree_five() {
        // Figure 4: k = 7, the node holds x6 (decoded) and encoded packets
        // y1 = x1⊕x2, y2 = x3⊕x4⊕x5, y3 = x1⊕x2⊕x4⊕x5⊕x6⊕x7 (degree 6),
        // y4 = x3⊕x5, y5 = x3⊕x4⊕x5 — wait, the figure's exact contents are:
        // degree buckets: 1 → {x6}, 2 → {y2, y4, y6}, 3 → {y1, y5}, 6 → {y3}.
        // We reproduce the *shape*: a degree-5 build must be possible from the
        // degree-2/3 packets without using the degree-6 one.
        let k = 7;
        let m = 2;
        let nat = natives(k, m);
        let mut node = LtncNode::new(k, m);
        node.receive(&packet(k, &[5], &nat)); // x6 decoded (0-based index 5)
        node.receive(&packet(k, &[0, 1], &nat)); // degree 2
        node.receive(&packet(k, &[2, 4], &nat)); // degree 2 (y4 = x3⊕x5)
        node.receive(&packet(k, &[4, 6], &nat)); // degree 2 (y6 = x5⊕x7)
        node.receive(&packet(k, &[1, 2, 3], &nat)); // degree 3
        node.receive(&packet(k, &[2, 3, 4], &nat)); // degree 3 (y5)
        let mut rng = SmallRng::seed_from_u64(11);
        let mut reached = false;
        for _ in 0..50 {
            let p = build(&mut node, 5, &mut rng);
            assert!(p.degree() <= 5);
            assert_consistent(&p, &nat);
            if p.degree() == 5 {
                reached = true;
            }
        }
        assert!(reached, "a degree-5 packet should be buildable");
    }

    #[test]
    fn built_packet_never_exceeds_target() {
        let k = 16;
        let m = 2;
        let nat = natives(k, m);
        let mut node = LtncNode::new(k, m);
        let mut rng = SmallRng::seed_from_u64(23);
        // Mixed bag of packets.
        node.receive(&packet(k, &[0], &nat));
        node.receive(&packet(k, &[1, 2], &nat));
        node.receive(&packet(k, &[3, 4, 5], &nat));
        node.receive(&packet(k, &[6, 7, 8, 9], &nat));
        for target in 1..=8 {
            for _ in 0..20 {
                let p = build(&mut node, target, &mut rng);
                assert!(p.degree() <= target, "degree {} > target {target}", p.degree());
                assert_consistent(&p, &nat);
            }
        }
    }

    #[test]
    fn collisions_are_avoided() {
        // Only two packets are held: x0⊕x1 and x1⊕x2. Their sum has degree 2
        // (a collision), so a greedy build of degree 4 must stop at degree 2 —
        // adding the second packet would not increase the degree.
        let k = 8;
        let m = 2;
        let nat = natives(k, m);
        let mut node = LtncNode::new(k, m);
        node.receive(&packet(k, &[0, 1], &nat));
        node.receive(&packet(k, &[1, 2], &nat));
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..20 {
            let p = build(&mut node, 4, &mut rng);
            assert_eq!(p.degree(), 2, "collision must be avoided");
            assert_consistent(&p, &nat);
        }
    }

    #[test]
    fn empty_node_builds_zero_packet() {
        let mut node = LtncNode::new(8, 2);
        let mut rng = SmallRng::seed_from_u64(1);
        let p = build(&mut node, 3, &mut rng);
        assert!(p.is_zero());
    }

    #[test]
    fn build_counts_candidate_examinations() {
        let k = 8;
        let m = 2;
        let nat = natives(k, m);
        let mut node = LtncNode::with_all_natives(k, m, &nat, LtncConfig::default());
        let before = node.recoding_counters().get(OpKind::BuildCandidate);
        let mut rng = SmallRng::seed_from_u64(2);
        build(&mut node, 3, &mut rng);
        assert!(node.recoding_counters().get(OpKind::BuildCandidate) > before);
    }

    #[test]
    fn build_examines_only_what_it_needs() {
        // A complete node builds degree d from exactly d decoded natives: the
        // lazy shuffle never looks at the other k − d.
        let (k, m) = (256, 2);
        let nat = natives(k, m);
        let mut node = LtncNode::with_all_natives(k, m, &nat, LtncConfig::default());
        let mut rng = SmallRng::seed_from_u64(6);
        for target in [1, 2, 7, 40, 256] {
            let before = *node.recoding_counters();
            let p = build(&mut node, target, &mut rng);
            assert_eq!(p.degree(), target);
            assert_consistent(&p, &nat);
            let after = node.recoding_counters();
            let examined = after.get(OpKind::BuildCandidate) - before.get(OpKind::BuildCandidate);
            assert_eq!(examined, target as u64);
            // One payload per native, all folded in one pass.
            assert_eq!(
                after.get(OpKind::PayloadXor) - before.get(OpKind::PayloadXor),
                target as u64
            );
        }
    }

    #[test]
    fn degree_one_candidates_are_drawn_uniformly() {
        let (k, m) = (16, 1);
        let nat = natives(k, m);
        let mut node = LtncNode::with_all_natives(k, m, &nat, LtncConfig::default());
        let mut rng = SmallRng::seed_from_u64(12);
        let mut hits = [0u32; 16];
        for _ in 0..16 * 500 {
            let p = build(&mut node, 3, &mut rng);
            for x in p.vector().iter_ones() {
                hits[x] += 1;
            }
        }
        // Each native expects 1500 appearances (σ ≈ 35).
        assert!(hits.iter().all(|&n| (1300..=1700).contains(&n)), "{hits:?}");
    }

    #[test]
    fn tracker_and_decoder_disagreement_skips_the_candidate() {
        // The component tracker calls x3 decoded, the decoder does not hold
        // it: the build must pass over x3, not panic (debug builds assert).
        let (k, m) = (8, 2);
        let nat = natives(k, m);
        let mut node = LtncNode::new(k, m);
        node.receive(&packet(k, &[0], &nat));
        node.receive(&packet(k, &[1], &nat));
        node.cc.mark_decoded(3);
        let mut rng = SmallRng::seed_from_u64(2);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            (0..20).map(|_| build(&mut node, 3, &mut rng)).collect::<Vec<_>>()
        }));
        if cfg!(debug_assertions) {
            assert!(outcome.is_err(), "the debug assertion names the disagreement");
        } else {
            for p in outcome.expect("release builds skip the candidate") {
                assert_eq!(p.vector().ones(), vec![0, 1]);
                assert_consistent(&p, &nat);
            }
        }
    }
}
