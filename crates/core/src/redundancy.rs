use ltnc_gf2::CodeVector;

use crate::LtncNode;

impl LtncNode {
    /// Algorithm 3 of the paper: decides, from the code vector alone, whether
    /// an encoded packet of degree ≤ 3 could be generated from the packets
    /// this node already holds (and is therefore non-innovative).
    ///
    /// * degree 0 — trivially redundant;
    /// * degree 1 — redundant when the native is already decoded;
    /// * degree 2 — redundant when the two natives are in the same connected
    ///   component (the packet can be produced from degree ≤ 2 packets);
    /// * degree 3 — redundant when it splits into a redundant degree-1 part
    ///   and a redundant degree-2 part (three possible splits), or when an
    ///   identical degree-3 packet is already buffered;
    /// * degree ≥ 4 — never reported redundant (the check is intentionally
    ///   limited to low degrees, which are both the common case under the
    ///   Robust Soliton distribution and the cheap one).
    ///
    /// The check is `O(1)` for degrees ≤ 2 and `O(log k)`-ish for degree 3
    /// (a hash lookup of the sorted triple), exactly the budget the paper
    /// allows. It never gives false positives: a packet reported redundant is
    /// genuinely generatable from the node's current holdings.
    #[must_use]
    pub fn is_redundant(&self, vector: &CodeVector) -> bool {
        match vector.degree() {
            0 => true,
            1 => {
                let x = vector.first_one().expect("degree 1");
                self.decoder.is_decoded(x)
            }
            2 => {
                let ones = vector.ones();
                self.cc.same_component(ones[0], ones[1])
            }
            3 => {
                let ones = vector.ones();
                let (a, b, c) = (ones[0], ones[1], ones[2]);
                let decoded = |x: usize| self.decoder.is_decoded(x);
                let pair_ok = |x: usize, y: usize| self.cc.same_component(x, y);
                (decoded(a) && pair_ok(b, c))
                    || (decoded(b) && pair_ok(a, c))
                    || (decoded(c) && pair_ok(a, b))
                    || self.degree3_counts.contains_key(&[a, b, c])
            }
            _ => false,
        }
    }

    /// Convenience wrapper taking a full packet (the protocol's feedback
    /// channel runs the check on the header before the payload is sent).
    #[must_use]
    pub fn is_redundant_packet(&self, packet: &ltnc_gf2::EncodedPacket) -> bool {
        self.is_redundant(packet.vector())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltnc_gf2::{EncodedPacket, Payload};

    fn natives(k: usize, m: usize) -> Vec<Payload> {
        (0..k)
            .map(|i| Payload::from_vec((0..m).map(|j| (i * 13 + j + 1) as u8).collect()))
            .collect()
    }

    fn packet(k: usize, indices: &[usize], nat: &[Payload]) -> EncodedPacket {
        let mut payload = Payload::zero(nat[0].len());
        for &i in indices {
            payload.xor_assign(&nat[i]);
        }
        EncodedPacket::new(CodeVector::from_indices(k, indices), payload)
    }

    fn cv(k: usize, indices: &[usize]) -> CodeVector {
        CodeVector::from_indices(k, indices)
    }

    #[test]
    fn zero_vector_is_redundant() {
        let node = LtncNode::new(8, 2);
        assert!(node.is_redundant(&CodeVector::zero(8)));
    }

    #[test]
    fn degree_one_redundant_iff_decoded() {
        let k = 8;
        let nat = natives(k, 2);
        let mut node = LtncNode::new(k, 2);
        assert!(!node.is_redundant(&cv(k, &[3])));
        node.receive(&packet(k, &[3], &nat));
        assert!(node.is_redundant(&cv(k, &[3])));
        assert!(!node.is_redundant(&cv(k, &[4])));
    }

    #[test]
    fn degree_two_redundant_iff_same_component() {
        let k = 8;
        let nat = natives(k, 2);
        let mut node = LtncNode::new(k, 2);
        node.receive(&packet(k, &[0, 1], &nat));
        node.receive(&packet(k, &[1, 2], &nat));
        // x0 ⊕ x2 is generatable from the two held packets.
        assert!(node.is_redundant(&cv(k, &[0, 2])));
        assert!(node.is_redundant(&cv(k, &[0, 1])));
        assert!(!node.is_redundant(&cv(k, &[0, 3])));
        assert!(!node.is_redundant(&cv(k, &[4, 5])));
    }

    #[test]
    fn degree_two_redundant_when_both_decoded() {
        let k = 8;
        let nat = natives(k, 2);
        let mut node = LtncNode::new(k, 2);
        node.receive(&packet(k, &[0], &nat));
        node.receive(&packet(k, &[5], &nat));
        assert!(node.is_redundant(&cv(k, &[0, 5])));
        assert!(!node.is_redundant(&cv(k, &[0, 4])));
    }

    #[test]
    fn degree_three_split_detection() {
        // Paper example (§III-C.1): the node stores y5 = x3⊕x4⊕x5 and can
        // generate x3⊕x5 from other packets; once x4 is decoded, x3⊕x4⊕x5 is
        // redundant because it splits into a decoded native and a generatable pair.
        let k = 8;
        let nat = natives(k, 2);
        let mut node = LtncNode::new(k, 2);
        node.receive(&packet(k, &[2, 4], &nat)); // x3 ⊕ x5 available as degree 2
        node.receive(&packet(k, &[3], &nat)); // x4 decoded
        assert!(node.is_redundant(&cv(k, &[2, 3, 4])));
        // Without the decoded native the split fails.
        assert!(!node.is_redundant(&cv(k, &[2, 4, 5])));
    }

    #[test]
    fn degree_three_identical_packet_detection() {
        let k = 8;
        let nat = natives(k, 2);
        let mut node = LtncNode::new(k, 2);
        node.receive(&packet(k, &[1, 2, 5], &nat));
        assert!(node.is_redundant(&cv(k, &[1, 2, 5])));
        assert!(!node.is_redundant(&cv(k, &[1, 2, 6])));
    }

    #[test]
    fn high_degree_packets_are_never_flagged() {
        let k = 8;
        let nat = natives(k, 2);
        let mut node = LtncNode::new(k, 2);
        for i in 0..k {
            node.receive(&packet(k, &[i], &nat));
        }
        // Even though everything is decoded (any packet is redundant in truth),
        // the cheap check only covers degree ≤ 3.
        assert!(!node.is_redundant(&cv(k, &[0, 1, 2, 3])));
        assert!(node.is_redundant(&cv(k, &[0, 1, 2])));
    }

    #[test]
    fn reception_rejects_detected_redundant_packets() {
        let k = 8;
        let nat = natives(k, 2);
        let mut node = LtncNode::new(k, 2);
        node.receive(&packet(k, &[0, 1], &nat));
        node.receive(&packet(k, &[1, 2], &nat));
        let outcome = node.receive(&packet(k, &[0, 2], &nat));
        assert_eq!(outcome, crate::ReceiveOutcome::RejectedRedundant);
        assert_eq!(node.stats().redundant_rejected, 1);
        assert_eq!(node.buffered_count(), 2);
    }

    #[test]
    fn detection_can_be_disabled() {
        let k = 8;
        let nat = natives(k, 2);
        let mut node = LtncNode::with_config(
            k,
            2,
            crate::LtncConfig::default().without_redundancy_detection(),
        );
        node.receive(&packet(k, &[0, 1], &nat));
        node.receive(&packet(k, &[1, 2], &nat));
        let outcome = node.receive(&packet(k, &[0, 2], &nat));
        // Without detection the packet is buffered even though it is redundant.
        assert_eq!(outcome, crate::ReceiveOutcome::Stored);
        assert_eq!(node.buffered_count(), 3);
    }

    #[test]
    fn consumed_degree3_packets_leave_the_lookup_table() {
        let k = 8;
        let nat = natives(k, 2);
        let mut node = LtncNode::new(k, 2);
        node.receive(&packet(k, &[1, 2, 5], &nat));
        assert!(node.is_redundant(&cv(k, &[1, 2, 5])));
        // Decode x1 and x2: the stored packet reduces to degree 1 and is
        // consumed (decoding x5 on the way); the triple must disappear.
        node.receive(&packet(k, &[1], &nat));
        node.receive(&packet(k, &[2], &nat));
        assert!(node.is_decoded(5));
        assert!(node.degree3_counts.is_empty());
        assert!(node.degree3_by_id.is_empty());
        // The vector is still redundant, but now through the decoded-native rule.
        assert!(node.is_redundant(&cv(k, &[1, 2, 5])));
    }
}
