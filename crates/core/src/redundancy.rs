use core::cell::RefCell;

use ltnc_gf2::CodeVector;

use crate::LtncNode;

std::thread_local! {
    /// One parity bit per component label, shared by every node on the
    /// thread; each check leaves it all clear, so it costs the vector, not `k`.
    static PARITY: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

impl LtncNode {
    /// Algorithm 3 of the paper, at every degree: decides from the code
    /// vector alone whether a packet could be generated from what this node
    /// holds. The vector's decoded natives are skipped; the packet is
    /// redundant when every component the rest (the *residual*) touches holds
    /// an even number of its natives, the empty residual included, or when
    /// the residual is the triple of a buffered degree-3 packet.
    ///
    /// The buffered degree-2 packets of a component span exactly the
    /// even-weight subsets of its natives (the cycle space of a connected
    /// graph), components never split, and belief propagation decodes a whole
    /// component once one member decodes. So the parity test refuses exactly
    /// the span of the decoded natives and degree-2 packets, a superset of
    /// the paper's degree ≤ 3 cases, and never an innovative packet.
    /// Costs `O(⌈k/64⌉ + degree)`.
    #[must_use]
    pub fn is_redundant(&self, vector: &CodeVector) -> bool {
        let residual = || vector.iter_ones().filter(|&x| !self.cc.is_decoded(x));
        PARITY.with_borrow_mut(|parity| {
            parity.resize(parity.len().max((self.k + 1).div_ceil(64)), 0);
            // `odd` counts the components holding an odd share of the residual.
            let (mut odd, mut size, mut triple) = (0usize, 0, [0; 3]);
            for x in residual() {
                let label = self.cc.label_of(x);
                let (word, bit) = (label / 64, 1u64 << (label % 64));
                parity[word] ^= bit;
                odd = if parity[word] & bit == 0 { odd - 1 } else { odd + 1 };
                if size < 3 {
                    triple[size] = x;
                }
                size += 1;
            }
            if odd == 0 {
                return true;
            }
            for x in residual() {
                parity[self.cc.label_of(x) / 64] = 0;
            }
            size == 3 && self.degree3_counts.contains_key(&triple)
        })
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
    fn high_degree_packets_are_judged_by_their_residual() {
        let k = 8;
        let nat = natives(k, 2);
        let mut node = LtncNode::new(k, 2);
        node.receive(&packet(k, &[0, 1], &nat));
        node.receive(&packet(k, &[1, 2], &nat));
        node.receive(&packet(k, &[4, 5, 6], &nat));
        node.receive(&packet(k, &[7], &nat));
        // Residual {0, 2}: two natives of one component, whatever is decoded.
        assert!(node.is_redundant(&cv(k, &[0, 2, 7])));
        // Residual {0, 1, 2}: an odd share of the component is not spanned.
        assert!(!node.is_redundant(&cv(k, &[0, 1, 2, 7])));
        // Residual {0, 1, 4, 5}: two components, each holding an even share.
        node.receive(&packet(k, &[4, 5], &nat));
        assert!(node.is_redundant(&cv(k, &[0, 1, 4, 5, 7])));
        assert!(!node.is_redundant(&cv(k, &[0, 1, 3, 4, 5])));
        // Residual {4, 5, 6} after x7 is skipped: the buffered triple.
        assert!(node.is_redundant(&cv(k, &[4, 5, 6, 7])));
        for i in 0..k {
            node.receive(&packet(k, &[i], &nat));
        }
        // Once everything is decoded, every residual is empty.
        assert!(node.is_redundant(&cv(k, &[0, 1, 2, 3])));
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
