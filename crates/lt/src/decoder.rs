use std::collections::VecDeque;

use ltnc_gf2::{EncodedPacket, Payload};

use crate::tanner::{PacketId, TannerGraph};
use crate::LtError;

/// What happened to an inserted packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The packet reduced to the zero combination against already-decoded
    /// natives: it brought no information.
    Redundant,
    /// The packet was stored in the Tanner graph at degree ≥ 2.
    Buffered(PacketId),
    /// The packet (after reduction) had degree 1 and triggered belief
    /// propagation; at least one new native packet was decoded.
    Progress,
}

/// Fine-grained events emitted while processing an insertion.
///
/// `ltnc-core` consumes these to keep its auxiliary structures (degree index,
/// connected components of degree ≤ 2 packets, redundancy bookkeeping) in sync
/// with the decoder without re-implementing the peeling logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeEvent {
    /// A packet entered the Tanner graph with the given (reduced) degree.
    PacketBuffered {
        /// Id of the packet in the Tanner graph.
        id: PacketId,
        /// Its degree at insertion time (≥ 2).
        degree: usize,
    },
    /// A buffered packet lost one native (propagation) and now has this degree (≥ 2).
    PacketReduced {
        /// Id of the packet in the Tanner graph.
        id: PacketId,
        /// Its new degree.
        new_degree: usize,
    },
    /// A buffered packet was consumed: it reached degree 1 (and decoded a
    /// native) or degree 0, and left the Tanner graph.
    PacketConsumed {
        /// Id of the packet that left the graph.
        id: PacketId,
    },
    /// A native packet was decoded.
    NativeDecoded {
        /// Index of the decoded native packet.
        index: usize,
    },
}

/// Report returned by [`BpDecoder::insert`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsertReport {
    /// What happened to the inserted packet.
    pub outcome: InsertOutcome,
    /// Native packets decoded as a consequence of this insertion, in decode order.
    pub newly_decoded: Vec<usize>,
    /// Every event triggered by this insertion, in order.
    pub events: Vec<DecodeEvent>,
}

/// The belief-propagation (peeling) decoder of LT codes.
///
/// Maintains the set of decoded native payloads and a [`TannerGraph`] of
/// buffered encoded packets reduced against them. Every time a packet of
/// degree 1 appears — either received directly or produced by reduction — the
/// corresponding native is decoded and *propagated*: it is XOR-ed out of every
/// buffered packet that contains it, which may release further degree-1
/// packets (the *ripple*).
///
/// Decoding cost is `O(m)` payload work per edge removed, i.e. `O(m·k·log k)`
/// overall when packet degrees follow the Robust Soliton distribution — the
/// low-complexity property that motivates LTNC.
#[derive(Debug, Clone)]
pub struct BpDecoder {
    k: usize,
    payload_size: usize,
    graph: TannerGraph,
    decoded: Vec<Option<Payload>>,
    decoded_count: usize,
    received: u64,
    payload_xor_ops: u64,
    edge_updates: u64,
}

impl BpDecoder {
    /// Creates a decoder for `k` native packets of `payload_size` bytes each.
    #[must_use]
    pub fn new(k: usize, payload_size: usize) -> Self {
        BpDecoder {
            k,
            payload_size,
            graph: TannerGraph::new(k),
            decoded: vec![None; k],
            decoded_count: 0,
            received: 0,
            payload_xor_ops: 0,
            edge_updates: 0,
        }
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

    /// Number of native packets decoded so far.
    #[must_use]
    pub fn decoded_count(&self) -> usize {
        self.decoded_count
    }

    /// Returns `true` once all `k` native packets are decoded.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.decoded_count == self.k
    }

    /// Returns `true` when native packet `index` has been decoded.
    ///
    /// # Panics
    ///
    /// Panics if `index >= k`.
    #[must_use]
    pub fn is_decoded(&self, index: usize) -> bool {
        self.decoded[index].is_some()
    }

    /// The decoded payload of native packet `index`, if available.
    ///
    /// # Panics
    ///
    /// Panics if `index >= k`.
    #[must_use]
    pub fn native(&self, index: usize) -> Option<&Payload> {
        self.decoded[index].as_ref()
    }

    /// The Tanner graph of buffered (not yet consumed) packets.
    #[must_use]
    pub fn graph(&self) -> &TannerGraph {
        &self.graph
    }

    /// Number of packets handed to [`BpDecoder::insert`] so far.
    #[must_use]
    pub fn received_count(&self) -> u64 {
        self.received
    }

    /// Number of `m`-byte payload XOR operations performed so far (data-plane cost).
    #[must_use]
    pub fn payload_xor_ops(&self) -> u64 {
        self.payload_xor_ops
    }

    /// Number of Tanner-graph edge updates performed so far (control-plane cost).
    #[must_use]
    pub fn edge_updates(&self) -> u64 {
        self.edge_updates
    }

    /// Inserts an encoded packet and runs belief propagation.
    ///
    /// # Errors
    ///
    /// Returns [`LtError::PacketMismatch`] when the packet's code length or
    /// payload size does not match the decoder.
    pub fn insert(&mut self, packet: EncodedPacket) -> Result<InsertReport, LtError> {
        if packet.code_length() != self.k {
            return Err(LtError::PacketMismatch { expected: self.k, found: packet.code_length() });
        }
        if packet.payload_size() != self.payload_size {
            return Err(LtError::PacketMismatch {
                expected: self.payload_size,
                found: packet.payload_size(),
            });
        }
        self.received += 1;
        let mut events = Vec::new();
        let mut newly_decoded = Vec::new();

        // Reduce the incoming packet against already-decoded natives, folding
        // all of them into the payload in one batched pass.
        let (mut vector, mut payload) = packet.into_parts();
        let mut sources: Vec<&Payload> = Vec::new();
        for x in vector.ones() {
            if let Some(value) = &self.decoded[x] {
                sources.push(value);
                vector.clear(x);
            }
        }
        payload.xor_assign_many(&sources);
        self.payload_xor_ops += sources.len() as u64;
        drop(sources);

        let outcome = match vector.degree() {
            0 => InsertOutcome::Redundant,
            1 => {
                let x = vector.first_one().expect("degree 1 has a set bit");
                self.decode_native(x, payload, &mut events, &mut newly_decoded);
                self.propagate(&mut events, &mut newly_decoded);
                InsertOutcome::Progress
            }
            d => {
                let id = self.graph.insert(vector, payload);
                events.push(DecodeEvent::PacketBuffered { id, degree: d });
                InsertOutcome::Buffered(id)
            }
        };

        Ok(InsertReport { outcome, newly_decoded, events })
    }

    /// Records a decoded native and queues it for propagation.
    fn decode_native(
        &mut self,
        x: usize,
        value: Payload,
        events: &mut Vec<DecodeEvent>,
        newly_decoded: &mut Vec<usize>,
    ) {
        debug_assert!(self.decoded[x].is_none(), "native {x} decoded twice");
        self.decoded[x] = Some(value);
        self.decoded_count += 1;
        events.push(DecodeEvent::NativeDecoded { index: x });
        newly_decoded.push(x);
    }

    /// Propagates every newly decoded native through the Tanner graph until no
    /// degree-1 packet remains (the ripple).
    fn propagate(&mut self, events: &mut Vec<DecodeEvent>, newly_decoded: &mut Vec<usize>) {
        let mut queue: VecDeque<usize> = newly_decoded.iter().copied().collect();
        // `newly_decoded` already contains the seeds; only append new ones below.
        while let Some(x) = queue.pop_front() {
            // Disjoint field borrows: the decoded value is read in place (no
            // per-ripple payload clone) while the graph is reduced.
            let value = self.decoded[x].as_ref().expect("queued natives are decoded");
            let touched = self.graph.eliminate_native(x, value);
            self.payload_xor_ops += touched.len() as u64;
            self.edge_updates += touched.len() as u64;
            for (id, new_degree) in touched {
                match new_degree {
                    0 => {
                        // The packet became the zero combination: everything it
                        // contained is now decoded. Drop it.
                        self.graph.remove(id);
                        events.push(DecodeEvent::PacketConsumed { id });
                    }
                    1 => {
                        let (vector, payload) =
                            self.graph.remove(id).expect("touched packet is live");
                        events.push(DecodeEvent::PacketConsumed { id });
                        let y = vector.first_one().expect("degree 1 has a set bit");
                        if self.decoded[y].is_none() {
                            self.decode_native(y, payload, events, newly_decoded);
                            queue.push_back(y);
                        }
                    }
                    d => {
                        events.push(DecodeEvent::PacketReduced { id, new_degree: d });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LtEncoder, RobustSoliton};
    use ltnc_gf2::CodeVector;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn natives(k: usize, m: usize) -> Vec<Payload> {
        (0..k)
            .map(|i| Payload::from_vec((0..m).map(|j| (i * 131 + j * 7 + 1) as u8).collect()))
            .collect()
    }

    fn packet(k: usize, indices: &[usize], natives: &[Payload]) -> EncodedPacket {
        let m = natives[0].len();
        let mut payload = Payload::zero(m);
        for &i in indices {
            payload.xor_assign(&natives[i]);
        }
        EncodedPacket::new(CodeVector::from_indices(k, indices), payload)
    }

    #[test]
    fn rejects_mismatched_packets() {
        let mut dec = BpDecoder::new(8, 4);
        let err = dec
            .insert(EncodedPacket::new(CodeVector::singleton(9, 0), Payload::zero(4)))
            .unwrap_err();
        assert_eq!(err, LtError::PacketMismatch { expected: 8, found: 9 });
        let err = dec
            .insert(EncodedPacket::new(CodeVector::singleton(8, 0), Payload::zero(5)))
            .unwrap_err();
        assert_eq!(err, LtError::PacketMismatch { expected: 4, found: 5 });
    }

    #[test]
    fn degree_one_packet_decodes_immediately() {
        let k = 4;
        let nat = natives(k, 3);
        let mut dec = BpDecoder::new(k, 3);
        let report = dec.insert(packet(k, &[2], &nat)).unwrap();
        assert_eq!(report.outcome, InsertOutcome::Progress);
        assert_eq!(report.newly_decoded, vec![2]);
        assert!(dec.is_decoded(2));
        assert_eq!(dec.native(2), Some(&nat[2]));
        assert_eq!(dec.decoded_count(), 1);
    }

    #[test]
    fn duplicate_native_is_redundant() {
        let k = 4;
        let nat = natives(k, 3);
        let mut dec = BpDecoder::new(k, 3);
        dec.insert(packet(k, &[2], &nat)).unwrap();
        let report = dec.insert(packet(k, &[2], &nat)).unwrap();
        assert_eq!(report.outcome, InsertOutcome::Redundant);
        assert_eq!(dec.decoded_count(), 1);
    }

    #[test]
    fn higher_degree_packet_is_buffered_then_released() {
        let k = 4;
        let nat = natives(k, 3);
        let mut dec = BpDecoder::new(k, 3);

        let report = dec.insert(packet(k, &[0, 1], &nat)).unwrap();
        let id = match report.outcome {
            InsertOutcome::Buffered(id) => id,
            other => panic!("expected buffered, got {other:?}"),
        };
        assert_eq!(report.events, vec![DecodeEvent::PacketBuffered { id, degree: 2 }]);
        assert_eq!(dec.graph().len(), 1);

        // Decoding x0 reduces the buffered packet to degree 1, releasing x1.
        let report = dec.insert(packet(k, &[0], &nat)).unwrap();
        assert_eq!(report.outcome, InsertOutcome::Progress);
        assert_eq!(report.newly_decoded, vec![0, 1]);
        assert!(report.events.contains(&DecodeEvent::PacketConsumed { id }));
        assert!(dec.is_decoded(1));
        assert_eq!(dec.native(1), Some(&nat[1]));
        assert!(dec.graph().is_empty());
    }

    #[test]
    fn incoming_packet_is_reduced_against_decoded_natives() {
        let k = 4;
        let nat = natives(k, 3);
        let mut dec = BpDecoder::new(k, 3);
        dec.insert(packet(k, &[0], &nat)).unwrap();
        dec.insert(packet(k, &[1], &nat)).unwrap();
        // x0 ⊕ x1 ⊕ x2 reduces to x2 on arrival.
        let report = dec.insert(packet(k, &[0, 1, 2], &nat)).unwrap();
        assert_eq!(report.outcome, InsertOutcome::Progress);
        assert_eq!(report.newly_decoded, vec![2]);
        assert_eq!(dec.native(2), Some(&nat[2]));
    }

    #[test]
    fn ripple_cascades_through_chain() {
        // y1 = x0, y2 = x0+x1, y3 = x1+x2, y4 = x2+x3: inserting y2..y4 first
        // buffers them all; then x0 releases the whole chain.
        let k = 4;
        let nat = natives(k, 3);
        let mut dec = BpDecoder::new(k, 3);
        dec.insert(packet(k, &[0, 1], &nat)).unwrap();
        dec.insert(packet(k, &[1, 2], &nat)).unwrap();
        dec.insert(packet(k, &[2, 3], &nat)).unwrap();
        assert_eq!(dec.decoded_count(), 0);
        let report = dec.insert(packet(k, &[0], &nat)).unwrap();
        assert_eq!(report.newly_decoded, vec![0, 1, 2, 3]);
        assert!(dec.is_complete());
        for (i, expected) in nat.iter().enumerate() {
            assert_eq!(dec.native(i), Some(expected));
        }
    }

    #[test]
    fn zero_degree_buffered_packet_is_dropped_during_propagation() {
        // Insert x0+x1 twice; decoding x0 then x1 reduces the duplicate to zero.
        let k = 4;
        let nat = natives(k, 3);
        let mut dec = BpDecoder::new(k, 3);
        dec.insert(packet(k, &[0, 1], &nat)).unwrap();
        dec.insert(packet(k, &[0, 1], &nat)).unwrap();
        assert_eq!(dec.graph().len(), 2);
        let report = dec.insert(packet(k, &[0], &nat)).unwrap();
        // One duplicate decodes x1; the other collapses to degree 0 and is dropped.
        assert_eq!(report.newly_decoded, vec![0, 1]);
        assert!(dec.graph().is_empty());
        assert!(dec.is_decoded(1));
    }

    #[test]
    fn ops_counters_increase_with_work() {
        let k = 8;
        let nat = natives(k, 4);
        let mut dec = BpDecoder::new(k, 4);
        dec.insert(packet(k, &[0, 1], &nat)).unwrap();
        assert_eq!(dec.payload_xor_ops(), 0);
        dec.insert(packet(k, &[0], &nat)).unwrap();
        assert!(dec.payload_xor_ops() >= 1);
        assert!(dec.edge_updates() >= 1);
        assert_eq!(dec.received_count(), 2);
    }

    #[test]
    fn full_decode_with_source_encoder() {
        let k = 64;
        let m = 16;
        let nat = natives(k, m);
        let dist = RobustSoliton::for_code_length(k).unwrap();
        let mut enc = LtEncoder::new(nat.clone(), dist).unwrap();
        let mut rng = SmallRng::seed_from_u64(2024);
        let mut dec = BpDecoder::new(k, m);
        let mut sent = 0;
        while !dec.is_complete() {
            dec.insert(enc.encode(&mut rng)).unwrap();
            sent += 1;
            assert!(sent < 20 * k, "decoder failed to converge");
        }
        for (i, expected) in nat.iter().enumerate() {
            assert_eq!(dec.native(i), Some(expected));
        }
        // LT codes need (1+ε)·k packets; ε should be modest for k = 64.
        assert!(sent < 4 * k, "needed {sent} packets for k = {k}");
    }

    #[test]
    fn decode_cost_scales_quasilinearly() {
        // The number of payload XORs per decoded native should stay close to
        // the mean degree (O(log k)), far below k (what Gaussian elimination
        // would pay). This is the heart of the paper's Figure 8d claim.
        let k = 256;
        let m = 1;
        let nat = natives(k, m);
        let dist = RobustSoliton::for_code_length(k).unwrap();
        let mut enc = LtEncoder::new(nat, dist).unwrap();
        let mut rng = SmallRng::seed_from_u64(9);
        let mut dec = BpDecoder::new(k, m);
        while !dec.is_complete() {
            dec.insert(enc.encode(&mut rng)).unwrap();
        }
        let xors_per_native = dec.payload_xor_ops() as f64 / k as f64;
        assert!(
            xors_per_native < 3.0 * (k as f64).ln(),
            "payload XORs per native {xors_per_native} too high"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Whatever order packets arrive in, decoded natives always carry the
        /// original payloads (never garbage), and decoding completes once the
        /// unit packets have all been seen.
        #[test]
        fn prop_decoded_values_are_always_correct(
            seed in any::<u64>(),
            k in 4usize..32,
        ) {
            let m = 4;
            let nat = natives(k, m);
            let dist = RobustSoliton::for_code_length(k).unwrap();
            let mut enc = LtEncoder::new(nat.clone(), dist).unwrap();
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut dec = BpDecoder::new(k, m);
            for _ in 0..6 * k {
                dec.insert(enc.encode(&mut rng)).unwrap();
                for (i, expected) in nat.iter().enumerate() {
                    if let Some(p) = dec.native(i) {
                        prop_assert_eq!(p, expected);
                    }
                }
                if dec.is_complete() {
                    break;
                }
            }
            // Force completion with unit packets and re-check.
            for (i, native) in nat.iter().enumerate() {
                if !dec.is_decoded(i) {
                    dec.insert(EncodedPacket::native(k, i, native.clone())).unwrap();
                }
            }
            prop_assert!(dec.is_complete());
            for (i, expected) in nat.iter().enumerate() {
                prop_assert_eq!(dec.native(i).unwrap(), expected);
            }
        }
    }
}
