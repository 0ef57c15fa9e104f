use ltnc_core::LtncNode;
use ltnc_gf2::{CodeVector, EncodedPacket, Payload};
use ltnc_metrics::OpCounters;
use ltnc_rlnc::{ReceiveOutcome as RlncOutcome, RlncNode};
use rand::RngCore;

/// The per-node behaviour a dissemination driver drives.
///
/// One implementation exists per scheme of the paper's evaluation:
/// [`crate::WcNode`] (no coding), [`RlncSchemeNode`] and [`LtncSchemeNode`].
/// A session — UDP gossip or TCP serving — does not know which coding
/// scheme is running; it only pushes packets between `Scheme` objects and
/// collects their counters. `Send` is required so nodes can run on
/// reactor and serving threads.
pub trait Scheme: Send {
    /// Returns `true` once the node can reconstruct the full content.
    fn is_complete(&self) -> bool;

    /// Number of *useful* packets received so far (innovative packets for the
    /// coded schemes, distinct natives for WC). Drives the aggressiveness gate.
    fn useful_received(&self) -> usize;

    /// Header-only check used by the binary feedback channel: would a
    /// packet with this code vector bring anything new? For LTNC the check
    /// is the redundancy detection of Algorithm 3 on the undecoded residual:
    /// it refuses exactly what the decoded natives and buffered degree-2
    /// packets span, so it may still return `true` for a packet that later
    /// turns out to be redundant (one that needs a wider buffered packet) —
    /// that is the communication overhead the paper measures.
    fn would_accept(&self, vector: &CodeVector) -> bool;

    /// Delivers a packet (payload included). Returns `true` when the packet
    /// was useful to this node.
    fn deliver(&mut self, packet: &EncodedPacket) -> bool;

    /// Produces the next packet this node would push, or `None` when it has
    /// nothing to send yet.
    fn make_packet(&mut self, rng: &mut dyn RngCore) -> Option<EncodedPacket>;

    /// Reconstructs the content if complete (this is where RLNC pays its
    /// Gaussian elimination); `None` when the node is not complete.
    fn decoded_content(&mut self) -> Option<Vec<Payload>>;

    /// Cost ledger of the reception/decoding path.
    fn decoding_counters(&self) -> OpCounters;

    /// Cost ledger of the emission/recoding path.
    fn recoding_counters(&self) -> OpCounters;
}

/// RLNC node adapter: sparse random recoding, Gaussian-elimination decoding.
#[derive(Debug, Clone)]
pub struct RlncSchemeNode {
    node: RlncNode,
    useful: usize,
}

impl RlncSchemeNode {
    /// Creates an empty RLNC node.
    #[must_use]
    pub fn new(k: usize, payload_size: usize) -> Self {
        RlncSchemeNode { node: RlncNode::new(k, payload_size), useful: 0 }
    }

    /// Creates an RLNC node already holding the full content (the source).
    #[must_use]
    pub fn source(k: usize, payload_size: usize, natives: &[Payload]) -> Self {
        let mut node = RlncNode::new(k, payload_size);
        for (i, p) in natives.iter().enumerate() {
            node.receive(&EncodedPacket::native(k, i, p.clone()));
        }
        RlncSchemeNode { node, useful: k }
    }
}

impl Scheme for RlncSchemeNode {
    fn is_complete(&self) -> bool {
        self.node.is_complete()
    }

    fn useful_received(&self) -> usize {
        self.useful
    }

    fn would_accept(&self, vector: &CodeVector) -> bool {
        self.node.is_innovative(vector)
    }

    fn deliver(&mut self, packet: &EncodedPacket) -> bool {
        let innovative = self.node.receive(packet) == RlncOutcome::Innovative;
        if innovative {
            self.useful += 1;
        }
        innovative
    }

    fn make_packet(&mut self, rng: &mut dyn RngCore) -> Option<EncodedPacket> {
        self.node.recode(rng).ok()
    }

    fn decoded_content(&mut self) -> Option<Vec<Payload>> {
        self.node.decode().ok()
    }

    fn decoding_counters(&self) -> OpCounters {
        *self.node.decoding_counters()
    }

    fn recoding_counters(&self) -> OpCounters {
        *self.node.recoding_counters()
    }
}

/// LTNC node adapter: Robust-Soliton-preserving recoding, belief-propagation
/// decoding, Algorithm 3 redundancy detection (on the undecoded residual, at
/// every degree) as the feedback check.
#[derive(Debug, Clone)]
pub struct LtncSchemeNode {
    node: LtncNode,
    useful: usize,
}

impl LtncSchemeNode {
    /// Creates an empty LTNC node with the paper's default configuration.
    #[must_use]
    pub fn new(k: usize, payload_size: usize) -> Self {
        LtncSchemeNode { node: LtncNode::new(k, payload_size), useful: 0 }
    }

    /// Creates an LTNC node with a custom configuration (`experiments --figure ablations`).
    #[must_use]
    pub fn with_config(k: usize, payload_size: usize, config: ltnc_core::LtncConfig) -> Self {
        LtncSchemeNode { node: LtncNode::with_config(k, payload_size, config), useful: 0 }
    }

    /// Creates an LTNC node already holding the full content (the source).
    #[must_use]
    pub fn source(k: usize, payload_size: usize, natives: &[Payload]) -> Self {
        LtncSchemeNode {
            node: LtncNode::with_all_natives(
                k,
                payload_size,
                natives,
                ltnc_core::LtncConfig::default(),
            ),
            useful: k,
        }
    }

    /// The wrapped LTNC node (read access for statistics reporting).
    #[must_use]
    pub fn inner(&self) -> &LtncNode {
        &self.node
    }
}

impl Scheme for LtncSchemeNode {
    fn is_complete(&self) -> bool {
        self.node.is_complete()
    }

    fn useful_received(&self) -> usize {
        self.useful
    }

    fn would_accept(&self, vector: &CodeVector) -> bool {
        !self.node.is_redundant(vector)
    }

    fn deliver(&mut self, packet: &EncodedPacket) -> bool {
        let useful = self.node.receive(packet).is_useful();
        if useful {
            self.useful += 1;
        }
        useful
    }

    fn make_packet(&mut self, rng: &mut dyn RngCore) -> Option<EncodedPacket> {
        self.node.recode(rng)
    }

    fn decoded_content(&mut self) -> Option<Vec<Payload>> {
        self.node.decode().ok()
    }

    fn decoding_counters(&self) -> OpCounters {
        *self.node.decoding_counters()
    }

    fn recoding_counters(&self) -> OpCounters {
        *self.node.recoding_counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn natives(k: usize, m: usize) -> Vec<Payload> {
        (0..k)
            .map(|i| Payload::from_vec((0..m).map(|j| (i * 41 + j + 1) as u8).collect()))
            .collect()
    }

    fn drive<S: Scheme>(source: &mut S, sink: &mut S, budget: usize) -> usize {
        let mut rng = SmallRng::seed_from_u64(33);
        let mut delivered = 0;
        for _ in 0..budget {
            if sink.is_complete() {
                break;
            }
            if let Some(p) = source.make_packet(&mut rng) {
                if sink.would_accept(p.vector()) {
                    sink.deliver(&p);
                    delivered += 1;
                }
            }
        }
        delivered
    }

    #[test]
    fn rlnc_scheme_node_completes_and_decodes() {
        let k = 24;
        let m = 4;
        let nat = natives(k, m);
        let mut source = RlncSchemeNode::source(k, m, &nat);
        assert!(source.is_complete());
        assert_eq!(source.useful_received(), k);
        let mut sink = RlncSchemeNode::new(k, m);
        drive(&mut source, &mut sink, 50 * k);
        assert!(sink.is_complete());
        assert_eq!(sink.decoded_content().unwrap(), nat);
        assert!(sink.decoding_counters().total_ops() > 0);
        assert!(source.recoding_counters().total_ops() > 0);
    }

    #[test]
    fn ltnc_scheme_node_completes_and_decodes() {
        let k = 24;
        let m = 4;
        let nat = natives(k, m);
        let mut source = LtncSchemeNode::source(k, m, &nat);
        assert!(source.is_complete());
        let mut sink = LtncSchemeNode::new(k, m);
        drive(&mut source, &mut sink, 100 * k);
        assert!(sink.is_complete());
        assert_eq!(sink.decoded_content().unwrap(), nat);
        assert!(sink.decoding_counters().total_ops() > 0);
    }

    #[test]
    fn incomplete_nodes_return_no_content() {
        let mut n = LtncSchemeNode::new(8, 2);
        assert!(n.decoded_content().is_none());
        let mut r = RlncSchemeNode::new(8, 2);
        assert!(r.decoded_content().is_none());
    }

    #[test]
    fn empty_nodes_make_no_packets() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut n = LtncSchemeNode::new(8, 2);
        assert!(n.make_packet(&mut rng).is_none());
        let mut r = RlncSchemeNode::new(8, 2);
        assert!(r.make_packet(&mut rng).is_none());
    }

    #[test]
    fn rlnc_feedback_check_is_exact() {
        // RLNC's innovation check never lets a redundant payload through, so
        // its communication overhead is zero (as stated in the paper).
        let k = 16;
        let m = 2;
        let nat = natives(k, m);
        let mut source = RlncSchemeNode::source(k, m, &nat);
        let mut sink = RlncSchemeNode::new(k, m);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut wasted = 0;
        while !sink.is_complete() {
            let p = source.make_packet(&mut rng).unwrap();
            if sink.would_accept(p.vector()) && !sink.deliver(&p) {
                wasted += 1;
            }
        }
        assert_eq!(wasted, 0);
    }

    #[test]
    fn ltnc_useful_counter_tracks_progress() {
        let k = 16;
        let m = 2;
        let nat = natives(k, m);
        let mut node = LtncSchemeNode::new(k, m);
        assert_eq!(node.useful_received(), 0);
        node.deliver(&EncodedPacket::native(k, 0, nat[0].clone()));
        assert_eq!(node.useful_received(), 1);
        // Duplicate is not useful.
        node.deliver(&EncodedPacket::native(k, 0, nat[0].clone()));
        assert_eq!(node.useful_received(), 1);
        assert_eq!(node.inner().decoded_count(), 1);
    }
}
