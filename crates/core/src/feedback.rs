use ltnc_gf2::{CodeVector, EncodedPacket};
use ltnc_metrics::OpKind;
use rand::Rng;

use crate::build::Draft;
use crate::components::DECODED_CLASS;
use crate::LtncNode;

impl LtncNode {
    /// "Smart" packet construction of §III-C.2: given the receiver's
    /// component labels (`cc_r`, obtained over the feedback channel), builds a
    /// low-degree packet guaranteed to be innovative for the receiver, or
    /// returns `None` when no such degree-1/2 packet exists.
    ///
    /// * degree 1 — a native decoded at the sender but not at the receiver;
    /// * degree 2 — Algorithm 4: a pair `x ⊕ x'` that the sender can generate
    ///   (same component at the sender) but the receiver cannot (different
    ///   components at the receiver), found by mapping sender components onto
    ///   receiver components and emitting on the first inconsistency.
    ///
    /// Both scans start at a point `rng` draws, so senders answering one
    /// receiver at once do not all pick the same native or pair.
    ///
    /// # Panics
    ///
    /// Panics if `receiver_labels.len() != k`.
    pub fn smart_packet<R: Rng + ?Sized>(
        &mut self,
        receiver_labels: &[usize],
        rng: &mut R,
    ) -> Option<EncodedPacket> {
        assert_eq!(receiver_labels.len(), self.k, "receiver labels must cover all k natives");

        // Degree 1: a native we decoded that the receiver has not.
        let decoded = self.cc.decoded_members().len();
        let start = if decoded > 0 { rng.gen_range(0..decoded) } else { 0 };
        for step in 0..decoded {
            let x = self.cc.decoded_members()[(start + step) % decoded];
            self.recode_counters.incr(OpKind::RedundancyCheck);
            if receiver_labels[x] != DECODED_CLASS {
                let payload = self.decoder.native(x).expect("decoded native").clone();
                self.recode_counters.incr(OpKind::PayloadXor);
                return Some(EncodedPacket::native(self.k, x, payload));
            }
        }

        // Degree 2 (Algorithm 4): map each sender component to the receiver
        // component of its first visited member; a second member landing in a
        // different receiver component yields an innovative pair.
        let mut sigma: Vec<Option<(usize, usize)>> = vec![None; self.k + 1];
        let start = rng.gen_range(0..self.k);
        for i in (start..self.k).chain(0..start) {
            let receiver_label_i = receiver_labels[i];
            self.recode_counters.incr(OpKind::RedundancyCheck);
            let sender_label = self.cc.label_of(i);
            match sigma[sender_label] {
                None => sigma[sender_label] = Some((receiver_label_i, i)),
                Some((receiver_label, representative)) => {
                    if receiver_label != receiver_label_i {
                        if let Some(pair) = self.pair_packet(representative, i) {
                            return Some(pair);
                        }
                    }
                }
            }
        }
        None
    }

    /// Builds the degree-2 packet `x ⊕ y` from what the node holds: directly
    /// from the two decoded payloads when both are decoded, otherwise by
    /// XOR-ing buffered degree-2 packets along a path between `x` and `y`.
    ///
    /// Returns `None` when the pair cannot be generated (the two natives are
    /// not in the same connected component).
    fn pair_packet(&mut self, x: usize, y: usize) -> Option<EncodedPacket> {
        debug_assert_ne!(x, y);
        let mut pair =
            Draft { vector: CodeVector::from_indices(self.k, &[x, y]), buffered: Vec::new() };
        if !(self.decoder.is_decoded(x) && self.decoder.is_decoded(y)) {
            let graph = self.decoder.graph();
            let path = self.cc.path_between(x, y, |id| graph.packet(id).is_some())?;
            pair.buffered.extend_from_slice(path);
        }
        self.recode_counters.add(OpKind::VectorXor, pair.buffered.len().max(1) as u64);
        Some(self.fold(pair))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LtncConfig;
    use ltnc_gf2::{CodeVector, Payload};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(4)
    }

    fn natives(k: usize, m: usize) -> Vec<Payload> {
        (0..k)
            .map(|i| Payload::from_vec((0..m).map(|j| (i * 17 + j + 1) as u8).collect()))
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
        assert_eq!(p.payload(), &expected);
    }

    #[test]
    fn degree_one_rule_sends_a_missing_native() {
        let k = 8;
        let m = 2;
        let nat = natives(k, m);
        let sender = &mut LtncNode::with_all_natives(k, m, &nat, LtncConfig::default());
        let mut receiver = LtncNode::new(k, m);
        receiver.receive(&packet(k, &[0], &nat));
        receiver.receive(&packet(k, &[1], &nat));

        let labels = receiver.component_labels();
        let p = sender.smart_packet(&labels, &mut rng()).expect("an innovative native exists");
        assert_eq!(p.degree(), 1);
        let x = p.vector().first_one().unwrap();
        assert!(!receiver.is_decoded(x), "sent native must be new to the receiver");
        assert_consistent(&p, &nat);
        assert_eq!(receiver.receive(&p), crate::ReceiveOutcome::Progress(1));
    }

    #[test]
    fn degree_two_rule_bridges_receiver_components() {
        // Mirrors Figure 6: sender has x3 ~ x5 ~ x7 in one component while the
        // receiver has x3 alone and {x5, x7} together, so x3 ⊕ x5 (or x3 ⊕ x7)
        // is innovative for the receiver and generatable by the sender.
        let k = 7;
        let m = 2;
        let nat = natives(k, m);
        let mut sender = LtncNode::new(k, m);
        sender.receive(&packet(k, &[2, 4], &nat)); // x3 ⊕ x5
        sender.receive(&packet(k, &[4, 6], &nat)); // x5 ⊕ x7
        let mut receiver = LtncNode::new(k, m);
        receiver.receive(&packet(k, &[4, 6], &nat)); // receiver only connects x5 ⊕ x7

        let labels = receiver.component_labels();
        let p = sender.smart_packet(&labels, &mut rng()).expect("an innovative pair exists");
        assert_eq!(p.degree(), 2);
        assert_consistent(&p, &nat);
        assert!(
            !receiver.is_redundant(p.vector()),
            "smart packet must be innovative for the receiver"
        );
        assert!(receiver.receive(&p).is_useful());
    }

    #[test]
    fn identical_nodes_have_no_smart_packet() {
        let k = 8;
        let m = 2;
        let nat = natives(k, m);
        let mut a = LtncNode::new(k, m);
        let mut b = LtncNode::new(k, m);
        for p in [packet(k, &[0, 1], &nat), packet(k, &[3], &nat)] {
            a.receive(&p);
            b.receive(&p);
        }
        let labels = b.component_labels();
        assert!(a.smart_packet(&labels, &mut rng()).is_none());
    }

    #[test]
    fn empty_sender_has_nothing_to_offer() {
        let k = 8;
        let mut sender = LtncNode::new(k, 2);
        let receiver = LtncNode::new(k, 2);
        assert!(sender.smart_packet(&receiver.component_labels(), &mut rng()).is_none());
    }

    #[test]
    fn smart_packets_drive_a_receiver_to_completion() {
        // A sender with full knowledge can always find an innovative packet of
        // degree ≤ 2 for any incomplete receiver, so feedback alone completes
        // the transfer in at most k + (k − 1) packets.
        let k = 16;
        let m = 2;
        let nat = natives(k, m);
        let mut sender = LtncNode::with_all_natives(k, m, &nat, LtncConfig::default());
        let mut receiver = LtncNode::new(k, m);
        let mut sent = 0;
        while !receiver.is_complete() {
            let p = sender
                .smart_packet(&receiver.component_labels(), &mut rng())
                .expect("sender with full knowledge always has an innovative packet");
            assert!(receiver.receive(&p).is_useful());
            sent += 1;
            assert!(sent <= 2 * k, "too many packets");
        }
        assert_eq!(receiver.decode().unwrap(), nat);
    }

    #[test]
    #[should_panic(expected = "receiver labels")]
    fn mismatched_label_length_panics() {
        let mut sender = LtncNode::new(8, 2);
        sender.smart_packet(&[0; 7], &mut rng());
    }
}
