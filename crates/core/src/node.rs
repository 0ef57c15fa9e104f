use std::collections::HashMap;

use ltnc_gf2::{EncodedPacket, Payload};
use ltnc_lt::{BpDecoder, DecodeEvent, InsertOutcome, LtError, PacketId, RobustSoliton};
use ltnc_metrics::{OpCounters, OpKind};
use rand::Rng;

use crate::components::DECODED_CLASS;
use crate::pick::Coverage;
use crate::{
    ComponentTracker, DegreeIndex, LtncConfig, OccurrenceSpread, OccurrenceTracker, RecodeStats,
};

/// What happened to a packet handed to [`LtncNode::receive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReceiveOutcome {
    /// The redundancy detection (Algorithm 3) rejected the packet before it
    /// was inserted: it could be generated from what the node already holds.
    RejectedRedundant,
    /// The packet was inserted but reduced to the zero combination inside the
    /// decoder — a redundant packet the detection did not catch.
    NonInnovative,
    /// The packet was stored in the Tanner graph (no new native decoded yet).
    Stored,
    /// The packet triggered belief propagation and decoded this many new natives.
    Progress(usize),
}

impl ReceiveOutcome {
    /// Returns `true` when the packet brought information the node kept.
    #[must_use]
    pub fn is_useful(self) -> bool {
        matches!(self, ReceiveOutcome::Stored | ReceiveOutcome::Progress(_))
    }
}

/// A node of the LTNC scheme: it decodes with belief propagation and recodes
/// fresh packets whose statistics preserve the LT structure.
///
/// The node owns the four structures the paper describes (Tanner graph inside
/// the [`BpDecoder`], plus the three complementary structures of Table I:
/// [`DegreeIndex`], [`ComponentTracker`], [`OccurrenceTracker`]) and exposes
/// the two operations the dissemination protocol needs:
///
/// * [`LtncNode::receive`] — reception path: redundancy detection
///   (Algorithm 3), belief propagation, maintenance of the auxiliary
///   structures;
/// * [`LtncNode::recode`] — emission path: degree picking (§III-B.1), greedy
///   build (Algorithm 1) and refinement (Algorithm 2).
///
/// Costs are recorded in two separate [`OpCounters`] ledgers so that the
/// evaluation can report recoding and decoding costs independently
/// (Figure 8 of the paper).
#[derive(Debug, Clone)]
pub struct LtncNode {
    pub(crate) k: usize,
    pub(crate) payload_size: usize,
    pub(crate) config: LtncConfig,
    pub(crate) soliton: RobustSoliton,
    pub(crate) decoder: BpDecoder,
    pub(crate) degree_index: DegreeIndex,
    pub(crate) coverage: Coverage,
    pub(crate) cc: ComponentTracker,
    pub(crate) occurrences: OccurrenceTracker,
    /// Multiset of the (sorted) native triples of buffered degree-3 packets,
    /// for the `isAvailable` lookup of Algorithm 3.
    pub(crate) degree3_counts: HashMap<[usize; 3], u32>,
    /// Which triple a buffered packet currently at degree 3 contributes.
    pub(crate) degree3_by_id: HashMap<PacketId, [usize; 3]>,
    pub(crate) recode_counters: OpCounters,
    pub(crate) decode_counters: OpCounters,
    pub(crate) stats: RecodeStats,
    /// Snapshot of the decoder's cumulative data/edge counters, used to charge
    /// per-reception deltas to `decode_counters`.
    last_decoder_payload_ops: u64,
    last_decoder_edge_ops: u64,
}

impl LtncNode {
    /// Creates a node for `k` native packets of `payload_size` bytes using the
    /// paper's default configuration.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(k: usize, payload_size: usize) -> Self {
        Self::with_config(k, payload_size, LtncConfig::default())
    }

    /// Creates a node with an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or the Soliton parameters in the configuration are invalid.
    #[must_use]
    pub fn with_config(k: usize, payload_size: usize, config: LtncConfig) -> Self {
        let soliton = RobustSoliton::new(k, config.soliton_c, config.soliton_delta)
            .expect("configuration must describe a valid Robust Soliton distribution");
        LtncNode {
            k,
            payload_size,
            config,
            soliton,
            decoder: BpDecoder::new(k, payload_size),
            degree_index: DegreeIndex::new(),
            coverage: Coverage::new(k),
            cc: ComponentTracker::new(k),
            occurrences: OccurrenceTracker::new(k),
            degree3_counts: HashMap::new(),
            degree3_by_id: HashMap::new(),
            recode_counters: OpCounters::new(),
            decode_counters: OpCounters::new(),
            stats: RecodeStats::new(),
            last_decoder_payload_ops: 0,
            last_decoder_edge_ops: 0,
        }
    }

    /// A node that already holds every native packet (used for the source of a
    /// dissemination, and convenient in tests). Equivalent to receiving the
    /// `k` degree-1 packets.
    ///
    /// # Panics
    ///
    /// Panics if the number of payloads differs from `k` or their sizes differ
    /// from `payload_size`.
    #[must_use]
    pub fn with_all_natives(
        k: usize,
        payload_size: usize,
        natives: &[Payload],
        config: LtncConfig,
    ) -> Self {
        assert_eq!(natives.len(), k, "expected {k} native payloads");
        let mut node = Self::with_config(k, payload_size, config);
        for (i, payload) in natives.iter().enumerate() {
            assert_eq!(payload.len(), payload_size, "native {i} has the wrong size");
            let packet = EncodedPacket::native(k, i, payload.clone());
            if !node.rejects(&packet) {
                node.insert(packet);
            }
        }
        node
    }

    /// Code length `k`.
    #[must_use]
    pub fn code_length(&self) -> usize {
        self.k
    }

    /// Payload size `m` in bytes.
    #[must_use]
    pub fn payload_size(&self) -> usize {
        self.payload_size
    }

    /// The configuration this node runs with.
    #[must_use]
    pub fn config(&self) -> &LtncConfig {
        &self.config
    }

    /// Number of native packets decoded so far.
    #[must_use]
    pub fn decoded_count(&self) -> usize {
        self.decoder.decoded_count()
    }

    /// Returns `true` once every native packet has been decoded.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.decoder.is_complete()
    }

    /// Returns `true` when native packet `index` has been decoded.
    #[must_use]
    pub fn is_decoded(&self, index: usize) -> bool {
        self.decoder.is_decoded(index)
    }

    /// The decoded payload of native `index`, if available.
    #[must_use]
    pub fn native(&self, index: usize) -> Option<&Payload> {
        self.decoder.native(index)
    }

    /// All decoded payloads in native order.
    ///
    /// # Errors
    ///
    /// Returns [`LtError::NotDecoded`] when decoding is not complete.
    pub fn decode(&self) -> Result<Vec<Payload>, LtError> {
        (0..self.k)
            .map(|index| self.decoder.native(index).cloned().ok_or(LtError::NotDecoded { index }))
            .collect()
    }

    /// Number of encoded packets currently buffered in the Tanner graph.
    #[must_use]
    pub fn buffered_count(&self) -> usize {
        self.decoder.graph().len()
    }

    /// Number of packets received, useful or not.
    #[must_use]
    pub fn received_count(&self) -> u64 {
        self.decoder.received_count() + self.stats.redundant_rejected
    }

    /// Returns `true` when the node holds something it can recode from
    /// (at least one decoded native or one buffered packet).
    #[must_use]
    pub fn can_recode(&self) -> bool {
        self.decoder.decoded_count() > 0 || !self.degree_index.is_empty()
    }

    /// Cost ledger of the reception/decoding path.
    #[must_use]
    pub fn decoding_counters(&self) -> &OpCounters {
        &self.decode_counters
    }

    /// Cost ledger of the recoding path.
    #[must_use]
    pub fn recoding_counters(&self) -> &OpCounters {
        &self.recode_counters
    }

    /// Statistics of the recoding pipeline (degree draws, build accuracy,
    /// redundancy catches) — the in-text numbers of §III-B/§III-C.
    #[must_use]
    pub fn stats(&self) -> &RecodeStats {
        &self.stats
    }

    /// Spread of the per-native occurrence counts in the packets this node has
    /// sent (the refinement step keeps the relative standard deviation tiny).
    #[must_use]
    pub fn occurrence_spread(&self) -> OccurrenceSpread {
        OccurrenceSpread::from_summary(&self.occurrences.summary())
    }

    /// The component labels of this node (`cc` in the paper) — what a receiver
    /// transmits to a sender over the feedback channel for Algorithm 4.
    #[must_use]
    pub fn component_labels(&self) -> Vec<usize> {
        self.cc.labels()
    }

    /// Receives an encoded packet.
    ///
    /// Runs the redundancy detection of Algorithm 3 (when enabled, at every
    /// degree), then belief propagation, and keeps the auxiliary structures
    /// in sync.
    ///
    /// # Panics
    ///
    /// Panics if the packet's code length or payload size does not match the
    /// node; a dissemination never mixes packet shapes.
    pub fn receive(&mut self, packet: &EncodedPacket) -> ReceiveOutcome {
        if self.rejects(packet) {
            return ReceiveOutcome::RejectedRedundant;
        }
        self.insert(packet.clone())
    }

    /// The checks of reception that need no copy of the packet: its shape,
    /// then the redundancy detection. Returns `true` when the packet is
    /// detected redundant and must not be inserted.
    fn rejects(&mut self, packet: &EncodedPacket) -> bool {
        assert_eq!(packet.code_length(), self.k, "code length mismatch");
        assert_eq!(packet.payload_size(), self.payload_size, "payload size mismatch");
        if !self.config.detect_redundancy {
            return false;
        }
        self.decode_counters.incr(OpKind::RedundancyCheck);
        let redundant = self.is_redundant(packet.vector());
        self.stats.redundant_rejected += u64::from(redundant);
        redundant
    }

    /// Hands a packet that passed [`LtncNode::rejects`] to belief propagation.
    fn insert(&mut self, packet: EncodedPacket) -> ReceiveOutcome {
        let report = self.decoder.insert(packet).expect("packet shape was checked on reception");
        self.charge_decoder_deltas();
        self.apply_events(&report.events);
        self.stats.accepted += 1;

        match report.outcome {
            InsertOutcome::Redundant => {
                self.stats.redundant_missed += 1;
                ReceiveOutcome::NonInnovative
            }
            InsertOutcome::Buffered(_) => ReceiveOutcome::Stored,
            InsertOutcome::Progress => ReceiveOutcome::Progress(report.newly_decoded.len()),
        }
    }

    /// Generates a fresh encoded packet preserving the LT statistics:
    /// picks a Robust Soliton degree, builds a packet of that degree from the
    /// available encoded/decoded packets (Algorithm 1) and refines it to
    /// balance native-packet occurrences (Algorithm 2).
    ///
    /// Returns `None` when the node holds nothing to recode from.
    pub fn recode<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<EncodedPacket> {
        if !self.can_recode() {
            return None;
        }
        let target = self.pick_degree(rng);
        let mut draft = self.build_packet(target, rng);
        if draft.vector.is_zero() {
            return None;
        }
        let achieved = draft.vector.degree();
        self.stats.recoded_packets += 1;
        if achieved == target {
            self.stats.target_reached += 1;
        }
        self.stats.relative_deviation_sum += (target - achieved) as f64 / target as f64;

        if self.config.refine {
            self.refine_packet(&mut draft, rng);
        }
        self.occurrences.record_sent(&draft.vector);
        self.recode_counters.incr(OpKind::IndexUpdate);
        Some(self.fold(draft))
    }

    /// Charges the decoder's newly accumulated payload/edge work to the
    /// decoding ledger.
    fn charge_decoder_deltas(&mut self) {
        let payload_ops = self.decoder.payload_xor_ops();
        let edge_ops = self.decoder.edge_updates();
        self.decode_counters.add(OpKind::PayloadXor, payload_ops - self.last_decoder_payload_ops);
        self.decode_counters.add(OpKind::TannerEdgeUpdate, edge_ops - self.last_decoder_edge_ops);
        self.last_decoder_payload_ops = payload_ops;
        self.last_decoder_edge_ops = edge_ops;
    }

    /// Keeps the degree index, coverage, connected components, occurrence
    /// groups and degree-3 lookup table in sync with the decoder.
    ///
    /// Events are applied after the decoder has finished its ripple, so a
    /// packet reported at degree `d` by an intermediate event may since have
    /// been reduced further or consumed. Only the final state matters for the
    /// structures keyed on a packet's natives (a packet that kept ripping
    /// down ends with its natives decoded anyway): a first pass brings the
    /// degree index up to date, a second one registers each packet that is
    /// still buffered under the one event that reports its final degree.
    fn apply_events(&mut self, events: &[DecodeEvent]) {
        for event in events {
            self.decode_counters.incr(OpKind::IndexUpdate);
            match *event {
                DecodeEvent::NativeDecoded { index } => {
                    self.cc.mark_decoded(index);
                    self.occurrences.regroup(index, DECODED_CLASS);
                    self.coverage.lower(index, 0);
                }
                DecodeEvent::PacketBuffered { id, degree } => self.degree_index.insert(id, degree),
                DecodeEvent::PacketReduced { id, new_degree } => {
                    self.untrack_degree3(id);
                    self.degree_index.update(id, new_degree);
                }
                DecodeEvent::PacketConsumed { id } => {
                    self.untrack_degree3(id);
                    self.degree_index.remove(id);
                }
            }
        }
        for event in events {
            let (DecodeEvent::PacketBuffered { id, degree }
            | DecodeEvent::PacketReduced { id, new_degree: degree }) = *event
            else {
                continue;
            };
            if self.degree_index.degree_of(id) == Some(degree) {
                self.track_natives(id, degree);
            }
        }
    }

    /// Lowers the coverage of the natives of a packet that is now buffered at
    /// `degree`, and registers a packet of degree 2 or 3 in the corresponding
    /// auxiliary structure.
    fn track_natives(&mut self, id: PacketId, degree: usize) {
        let Some((vector, _)) = self.decoder.graph().packet(id) else {
            debug_assert!(false, "the degree index holds consumed packet {id:?}");
            return;
        };
        debug_assert_eq!(vector.degree(), degree);
        for x in vector.iter_ones() {
            self.coverage.lower(x, degree);
        }
        if degree > 3 {
            return;
        }
        match vector.ones()[..] {
            [x, y] => {
                let (label, moved) = self.cc.merge(x, y, id);
                for &m in moved {
                    self.occurrences.regroup(m, label);
                }
                self.decode_counters.incr(OpKind::IndexUpdate);
            }
            [x, y, z] => {
                *self.degree3_counts.entry([x, y, z]).or_insert(0) += 1;
                self.degree3_by_id.insert(id, [x, y, z]);
                self.decode_counters.incr(OpKind::IndexUpdate);
            }
            _ => {}
        }
    }

    /// Removes a packet from the degree-3 lookup table if it was registered there.
    fn untrack_degree3(&mut self, id: PacketId) {
        if let Some(triple) = self.degree3_by_id.remove(&id) {
            if let Some(count) = self.degree3_counts.get_mut(&triple) {
                *count -= 1;
                if *count == 0 {
                    self.degree3_counts.remove(&triple);
                }
            }
        }
    }
}
