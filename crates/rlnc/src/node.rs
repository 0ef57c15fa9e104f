use ltnc_gf2::{CodeVector, EncodedPacket, Payload};
use ltnc_metrics::OpCounters;
use rand::Rng;

use crate::{GaussianDecoder, RlncError, SparseRecoder};

/// What happened to a packet handed to [`RlncNode::receive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReceiveOutcome {
    /// The packet increased the rank of the node's code matrix and was stored.
    Innovative,
    /// The packet was linearly dependent on what the node already had.
    Redundant,
}

/// The per-node state of the RLNC dissemination scheme.
///
/// Bundles the Gaussian-elimination decoder (reception and decoding) with the
/// sparse random recoder (emission), and keeps the two cost ledgers separate so
/// a run can report recoding and decoding costs independently, as in
/// Figure 8 of the paper. Every innovative packet is held once, by the decoder;
/// recoding combines from that same buffer.
#[derive(Debug, Clone)]
pub struct RlncNode {
    decoder: GaussianDecoder,
    recoder: SparseRecoder,
}

impl RlncNode {
    /// Creates a node for `k` native packets of `payload_size` bytes.
    #[must_use]
    pub fn new(k: usize, payload_size: usize) -> Self {
        RlncNode { decoder: GaussianDecoder::new(k, payload_size), recoder: SparseRecoder::new(k) }
    }

    /// Creates a node with an explicit recoding sparsity (ablation knob).
    #[must_use]
    pub fn with_sparsity(k: usize, payload_size: usize, sparsity: usize) -> Self {
        RlncNode {
            decoder: GaussianDecoder::new(k, payload_size),
            recoder: SparseRecoder::with_sparsity(sparsity),
        }
    }

    /// Code length `k`.
    #[must_use]
    pub fn code_length(&self) -> usize {
        self.decoder.code_length()
    }

    /// Payload size `m`.
    #[must_use]
    pub fn payload_size(&self) -> usize {
        self.decoder.payload_size()
    }

    /// Current rank of the node's code matrix.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.decoder.rank()
    }

    /// Returns `true` once the node can decode the full content.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.decoder.is_full_rank()
    }

    /// Returns `true` when a packet with this code vector would be
    /// innovative for this node.
    ///
    /// Used by the binary feedback channel: the receiver checks the code
    /// vector (carried in the header) before the payload is transferred and
    /// aborts the transfer of non-innovative packets.
    #[must_use]
    pub fn is_innovative(&self, vector: &CodeVector) -> bool {
        self.decoder.is_innovative(vector)
    }

    /// Number of packets this node has accepted as innovative.
    #[must_use]
    pub fn innovative_count(&self) -> usize {
        self.decoder.packets().len()
    }

    /// Receives a packet, updating the code matrix and the packet buffer.
    ///
    /// The innovation check and the row insertion share a single Gaussian
    /// reduction pass ([`Gf2Solver::insert_if_innovative`]); returns
    /// [`ReceiveOutcome::Redundant`] for non-innovative packets, which are
    /// dropped (they would only waste memory and CPU).
    ///
    /// [`Gf2Solver::insert_if_innovative`]: ltnc_gf2::Gf2Solver::insert_if_innovative
    ///
    /// # Panics
    ///
    /// Panics if the packet's code length or payload size does not match the
    /// node (schemes never mix packet shapes within one dissemination).
    pub fn receive(&mut self, packet: &EncodedPacket) -> ReceiveOutcome {
        if self.decoder.insert(packet).expect("packet shape must match the node") {
            ReceiveOutcome::Innovative
        } else {
            ReceiveOutcome::Redundant
        }
    }

    /// Produces a fresh encoded packet by sparse random recoding.
    ///
    /// # Errors
    ///
    /// Returns [`RlncError::NothingToRecode`] when the node has not received
    /// any innovative packet yet.
    pub fn recode<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Result<EncodedPacket, RlncError> {
        self.recoder.recode(self.decoder.packets(), rng)
    }

    /// Decodes the full content (Gaussian elimination + payload recovery).
    ///
    /// # Errors
    ///
    /// Returns [`RlncError::NotFullRank`] when the node is not complete yet.
    pub fn decode(&mut self) -> Result<Vec<Payload>, RlncError> {
        self.decoder.decode()
    }

    /// Cost ledger of the reception/decoding path (innovation checks, row
    /// reductions, payload recovery).
    #[must_use]
    pub fn decoding_counters(&self) -> &OpCounters {
        self.decoder.counters()
    }

    /// Cost ledger of the recoding path (random combinations).
    #[must_use]
    pub fn recoding_counters(&self) -> &OpCounters {
        self.recoder.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn natives(k: usize, m: usize) -> Vec<Payload> {
        (0..k).map(|i| Payload::from_vec((0..m).map(|j| (i * 7 + j + 1) as u8).collect())).collect()
    }

    fn seed_source(k: usize, nat: &[Payload]) -> RlncNode {
        let mut node = RlncNode::new(k, nat[0].len());
        for (i, p) in nat.iter().enumerate() {
            node.receive(&EncodedPacket::native(k, i, p.clone()));
        }
        node
    }

    #[test]
    fn node_reports_shape() {
        let node = RlncNode::new(16, 32);
        assert_eq!(node.code_length(), 16);
        assert_eq!(node.payload_size(), 32);
        assert_eq!(node.rank(), 0);
        assert!(!node.is_complete());
        assert_eq!(node.innovative_count(), 0);
    }

    #[test]
    fn duplicate_packets_are_redundant() {
        let k = 8;
        let nat = natives(k, 4);
        let mut node = RlncNode::new(k, 4);
        let p = EncodedPacket::native(k, 0, nat[0].clone());
        assert_eq!(node.receive(&p), ReceiveOutcome::Innovative);
        assert_eq!(node.receive(&p), ReceiveOutcome::Redundant);
        assert_eq!(node.innovative_count(), 1);
    }

    #[test]
    fn source_to_sink_dissemination_decodes() {
        let k = 24;
        let m = 8;
        let nat = natives(k, m);
        let mut source = seed_source(k, &nat);
        assert!(source.is_complete());

        let mut sink = RlncNode::new(k, m);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut sent = 0;
        while !sink.is_complete() {
            let p = source.recode(&mut rng).unwrap();
            sink.receive(&p);
            sent += 1;
            assert!(sent < 20 * k, "sink did not converge");
        }
        assert_eq!(sink.decode().unwrap(), nat);
        // RLNC needs close to k innovative packets; redundancy should be low.
        assert!(sent < 3 * k, "needed {sent} packets for k = {k}");
    }

    #[test]
    fn multi_hop_recoding_preserves_decodability() {
        // source -> relay -> sink, the relay only ever sees recoded packets.
        let k = 16;
        let m = 4;
        let nat = natives(k, m);
        let mut source = seed_source(k, &nat);
        let mut relay = RlncNode::new(k, m);
        let mut sink = RlncNode::new(k, m);
        let mut rng = SmallRng::seed_from_u64(11);

        let mut rounds = 0;
        while !sink.is_complete() {
            rounds += 1;
            assert!(rounds < 100 * k, "did not converge");
            let p = source.recode(&mut rng).unwrap();
            relay.receive(&p);
            if relay.innovative_count() > 0 {
                let q = relay.recode(&mut rng).unwrap();
                sink.receive(&q);
            }
        }
        assert_eq!(sink.decode().unwrap(), nat);
    }

    #[test]
    fn is_innovative_predicts_receive_outcome() {
        let k = 8;
        let m = 2;
        let nat = natives(k, m);
        let mut source = seed_source(k, &nat);
        let mut sink = RlncNode::new(k, m);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..4 * k {
            let p = source.recode(&mut rng).unwrap();
            let predicted = sink.is_innovative(p.vector());
            let outcome = sink.receive(&p);
            assert_eq!(predicted, outcome == ReceiveOutcome::Innovative);
        }
    }

    #[test]
    fn counters_are_split_between_recoding_and_decoding() {
        let k = 12;
        let m = 4;
        let nat = natives(k, m);
        let mut source = seed_source(k, &nat);
        let mut sink = RlncNode::new(k, m);
        let mut rng = SmallRng::seed_from_u64(13);
        while !sink.is_complete() {
            let p = source.recode(&mut rng).unwrap();
            sink.receive(&p);
        }
        sink.decode().unwrap();
        assert!(source.recoding_counters().total_ops() > 0);
        assert!(sink.decoding_counters().total_ops() > 0);
        // The sink never recoded; the source never decoded beyond insertions.
        assert_eq!(sink.recoding_counters().total_ops(), 0);
    }

    #[test]
    fn decode_on_incomplete_node_errors() {
        let mut node = RlncNode::new(4, 2);
        assert!(matches!(node.decode(), Err(RlncError::NotFullRank { .. })));
    }
}
