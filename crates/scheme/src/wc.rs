use std::collections::VecDeque;

use ltnc_gf2::{CodeVector, EncodedPacket, Payload};
use ltnc_metrics::{OpCounters, OpKind};
use rand::RngCore;

use crate::Scheme;

/// The fan-out `f` of WC nodes built from [`crate::SchemeParams`]: the
/// paper's small-system value.
pub const WC_FANOUT: usize = 8;

/// The buffer size `b` of WC nodes built from [`crate::SchemeParams`]:
/// the paper's small-system value.
pub const WC_BUFFER: usize = 32;

/// The "Without Coding" (WC) reference scheme of the paper.
///
/// Nodes exchange native packets only. A node buffers up to `b` innovative
/// packets (oldest evicted first) and, each gossip period, pushes the buffered
/// packet it has forwarded the least, as long as that packet has not yet been
/// forwarded `f` times (`f` must exceed `ln N` for the epidemic to reach
/// everyone with high probability). Detecting a non-innovative packet is a
/// simple membership test, so WC has no communication overhead when the
/// feedback channel is available — its weakness is the coupon-collector
/// behaviour near completion, which the coded schemes avoid.
#[derive(Debug, Clone)]
pub struct WcNode {
    k: usize,
    payload_size: usize,
    fanout: usize,
    buffer_size: usize,
    natives: Vec<Option<Payload>>,
    decoded: usize,
    /// Buffered native indices with their forward counts, oldest first.
    buffer: VecDeque<(usize, usize)>,
    decode_counters: OpCounters,
    recode_counters: OpCounters,
}

impl WcNode {
    /// Creates an empty WC node.
    #[must_use]
    pub fn new(k: usize, payload_size: usize, fanout: usize, buffer_size: usize) -> Self {
        WcNode {
            k,
            payload_size,
            fanout: fanout.max(1),
            buffer_size: buffer_size.max(1),
            natives: vec![None; k],
            decoded: 0,
            buffer: VecDeque::new(),
            decode_counters: OpCounters::new(),
            recode_counters: OpCounters::new(),
        }
    }

    /// Creates a WC node already holding the full content (the source). The
    /// source keeps every native eligible for forwarding indefinitely.
    #[must_use]
    pub fn source(k: usize, payload_size: usize, fanout: usize, natives: &[Payload]) -> Self {
        let mut node = WcNode::new(k, payload_size, fanout, k.max(1));
        for (i, p) in natives.iter().enumerate() {
            node.store(i, p.clone());
        }
        node
    }

    fn store(&mut self, index: usize, payload: Payload) {
        if self.natives[index].is_none() {
            self.natives[index] = Some(payload);
            self.decoded += 1;
            if self.buffer.len() == self.buffer_size {
                self.buffer.pop_front();
            }
            self.buffer.push_back((index, 0));
            self.decode_counters.incr(OpKind::IndexUpdate);
        }
    }
}

impl Scheme for WcNode {
    fn is_complete(&self) -> bool {
        self.decoded == self.k
    }

    fn useful_received(&self) -> usize {
        self.decoded
    }

    fn would_accept(&self, vector: &CodeVector) -> bool {
        match vector.first_one() {
            Some(x) if vector.degree() == 1 => self.natives[x].is_none(),
            _ => false,
        }
    }

    fn deliver(&mut self, packet: &EncodedPacket) -> bool {
        assert_eq!(packet.code_length(), self.k, "code length mismatch");
        assert_eq!(packet.payload_size(), self.payload_size, "payload size mismatch");
        if packet.degree() != 1 {
            return false;
        }
        let x = packet.vector().first_one().expect("degree 1");
        let was_new = self.natives[x].is_none();
        if was_new {
            self.store(x, packet.payload().clone());
        }
        was_new
    }

    fn make_packet(&mut self, _rng: &mut dyn RngCore) -> Option<EncodedPacket> {
        // Pick the buffered packet forwarded the least, preferring those that
        // have not yet reached the fanout quota.
        let candidate = self
            .buffer
            .iter()
            .enumerate()
            .filter(|(_, &(_, sent))| sent < self.fanout)
            .min_by_key(|(_, &(_, sent))| sent)
            .or_else(|| self.buffer.iter().enumerate().min_by_key(|(_, &(_, sent))| sent))
            .map(|(pos, _)| pos)?;
        let (index, sent) = self.buffer[candidate];
        self.buffer[candidate] = (index, sent + 1);
        self.recode_counters.incr(OpKind::IndexUpdate);
        let payload = self.natives[index].as_ref().expect("buffered natives are held").clone();
        Some(EncodedPacket::native(self.k, index, payload))
    }

    fn decoded_content(&mut self) -> Option<Vec<Payload>> {
        if !self.is_complete() {
            return None;
        }
        Some(self.natives.iter().map(|p| p.clone().expect("complete")).collect())
    }

    fn decoding_counters(&self) -> OpCounters {
        self.decode_counters
    }

    fn recoding_counters(&self) -> OpCounters {
        self.recode_counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn natives(k: usize, m: usize) -> Vec<Payload> {
        (0..k)
            .map(|i| Payload::from_vec((0..m).map(|j| (i * 47 + j + 1) as u8).collect()))
            .collect()
    }

    #[test]
    fn empty_node_state() {
        let node = WcNode::new(8, 2, 4, 4);
        assert!(!node.is_complete());
        assert_eq!(node.useful_received(), 0);
    }

    #[test]
    fn source_holds_everything() {
        let k = 8;
        let nat = natives(k, 2);
        let mut source = WcNode::source(k, 2, 4, &nat);
        assert!(source.is_complete());
        assert_eq!(source.decoded_content().unwrap(), nat);
    }

    #[test]
    fn deliver_accepts_new_natives_only() {
        let k = 8;
        let nat = natives(k, 2);
        let mut node = WcNode::new(k, 2, 4, 4);
        let p = EncodedPacket::native(k, 3, nat[3].clone());
        assert!(node.would_accept(p.vector()));
        assert!(node.deliver(&p));
        assert!(!node.would_accept(p.vector()));
        assert!(!node.deliver(&p));
        assert_eq!(node.useful_received(), 1);
    }

    #[test]
    fn encoded_packets_are_rejected() {
        let k = 8;
        let nat = natives(k, 2);
        let mut node = WcNode::new(k, 2, 4, 4);
        let mut combined = EncodedPacket::native(k, 0, nat[0].clone());
        combined.xor_assign(&EncodedPacket::native(k, 1, nat[1].clone()));
        assert!(!node.would_accept(combined.vector()));
        assert!(!node.deliver(&combined));
    }

    #[test]
    fn make_packet_prefers_least_forwarded() {
        let k = 4;
        let nat = natives(k, 2);
        let mut node = WcNode::new(k, 2, 2, 4);
        let mut rng = SmallRng::seed_from_u64(1);
        node.deliver(&EncodedPacket::native(k, 0, nat[0].clone()));
        node.deliver(&EncodedPacket::native(k, 1, nat[1].clone()));
        // First two sends cover both buffered natives (least-forwarded first).
        let a = node.make_packet(&mut rng).unwrap();
        let b = node.make_packet(&mut rng).unwrap();
        let mut sent: Vec<usize> =
            vec![a.vector().first_one().unwrap(), b.vector().first_one().unwrap()];
        sent.sort_unstable();
        assert_eq!(sent, vec![0, 1]);
    }

    #[test]
    fn fanout_quota_is_exhausted_then_recycled() {
        let k = 4;
        let nat = natives(k, 2);
        let mut node = WcNode::new(k, 2, 2, 4);
        let mut rng = SmallRng::seed_from_u64(1);
        node.deliver(&EncodedPacket::native(k, 0, nat[0].clone()));
        // Fanout 2: the node keeps forwarding its only packet even past the
        // quota (the quota only prioritises fresher packets).
        for _ in 0..5 {
            let p = node.make_packet(&mut rng).unwrap();
            assert_eq!(p.vector().first_one(), Some(0));
        }
    }

    #[test]
    fn buffer_evicts_oldest_when_full() {
        let k = 8;
        let nat = natives(k, 2);
        let mut node = WcNode::new(k, 2, 4, 2);
        let mut rng = SmallRng::seed_from_u64(1);
        for (i, native) in nat.iter().enumerate().take(4) {
            node.deliver(&EncodedPacket::native(k, i, native.clone()));
        }
        // Buffer holds only the two most recent natives (2 and 3); the node
        // still *stores* all four for completeness purposes.
        assert_eq!(node.useful_received(), 4);
        let mut forwarded = std::collections::HashSet::new();
        for _ in 0..10 {
            forwarded.insert(node.make_packet(&mut rng).unwrap().vector().first_one().unwrap());
        }
        assert!(forwarded.contains(&2) && forwarded.contains(&3));
        assert!(!forwarded.contains(&0) && !forwarded.contains(&1));
    }

    #[test]
    fn empty_buffer_makes_no_packet() {
        let mut node = WcNode::new(8, 2, 4, 4);
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(node.make_packet(&mut rng).is_none());
    }

    #[test]
    fn incomplete_node_has_no_content() {
        let k = 4;
        let nat = natives(k, 2);
        let mut node = WcNode::new(k, 2, 4, 4);
        node.deliver(&EncodedPacket::native(k, 0, nat[0].clone()));
        assert!(node.decoded_content().is_none());
    }
}
