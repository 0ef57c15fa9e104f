use ltnc_gf2::{CodeVector, EncodedPacket, Gf2Solver, Payload};
use ltnc_metrics::{OpCounters, OpKind};

use crate::RlncError;

/// Incremental Gaussian-elimination decoder over GF(2).
///
/// Received code vectors are reduced against the current row-echelon form as
/// they arrive (the partial Gaussian reduction the paper's RLNC baseline uses
/// to drop non-innovative packets immediately). Innovative packets are
/// buffered as received — the one copy a node keeps, which recoding draws from
/// too ([`GaussianDecoder::packets`]); once the matrix reaches full rank,
/// [`GaussianDecoder::decode`] back-substitutes on the code matrix alone and
/// then replays the solution onto the payloads in one table-driven pass
/// ([`ltnc_gf2::Recipes::replay`]).
///
/// Costs are recorded in an [`OpCounters`]: [`OpKind::RowReduction`] for every
/// row XOR on the code matrix (control plane) and [`OpKind::PayloadXor`] for
/// every `m`-byte XOR during payload recovery, table construction included
/// (data plane).
#[derive(Debug, Clone)]
pub struct GaussianDecoder {
    k: usize,
    payload_size: usize,
    solver: Gf2Solver,
    /// Innovative packets in arrival order: index = the solver's row id.
    packets: Vec<EncodedPacket>,
    decoded: Option<Vec<Payload>>,
    received: u64,
    counters: OpCounters,
}

impl GaussianDecoder {
    /// Creates a decoder for `k` native packets of `payload_size` bytes each.
    #[must_use]
    pub fn new(k: usize, payload_size: usize) -> Self {
        GaussianDecoder {
            k,
            payload_size,
            solver: Gf2Solver::new(k, k),
            packets: Vec::with_capacity(k),
            decoded: None,
            received: 0,
            counters: OpCounters::new(),
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

    /// Current rank of the code matrix.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.solver.rank()
    }

    /// Returns `true` once `k` innovative packets have been received.
    #[must_use]
    pub fn is_full_rank(&self) -> bool {
        self.solver.is_full_rank()
    }

    /// Number of packets handed to [`GaussianDecoder::insert`].
    #[must_use]
    pub fn received_count(&self) -> u64 {
        self.received
    }

    /// The operation counters accumulated so far.
    #[must_use]
    pub fn counters(&self) -> &OpCounters {
        &self.counters
    }

    /// The innovative packets received so far, as received, in arrival order.
    #[must_use]
    pub fn packets(&self) -> &[EncodedPacket] {
        &self.packets
    }

    /// Returns `true` when a packet with this code vector would increase
    /// the rank of the code matrix. This is the check a receiver runs on
    /// the code vector alone (before the payload is transferred) when a
    /// feedback channel is available.
    #[must_use]
    pub fn is_innovative(&self, vector: &CodeVector) -> bool {
        vector.len() == self.k && self.solver.is_innovative(vector)
    }

    /// Inserts a packet. Returns `true` when it was innovative (and stored).
    ///
    /// # Errors
    ///
    /// Returns [`RlncError::PacketMismatch`] when the code length or payload
    /// size does not match.
    pub fn insert(&mut self, packet: &EncodedPacket) -> Result<bool, RlncError> {
        if packet.code_length() != self.k {
            return Err(RlncError::PacketMismatch {
                expected: self.k,
                found: packet.code_length(),
            });
        }
        if packet.payload_size() != self.payload_size {
            return Err(RlncError::PacketMismatch {
                expected: self.payload_size,
                found: packet.payload_size(),
            });
        }
        self.received += 1;
        // Single reduction against the echelon form: the innovation check IS
        // the insertion. The row ops spent reducing are charged whether or not
        // the packet is kept — that is exactly the cost of the partial
        // Gaussian reduction.
        let ops_before = self.solver.row_ops();
        let stored = self.solver.insert_if_innovative(packet.vector());
        self.counters.add(OpKind::RowReduction, self.solver.row_ops() - ops_before);
        let Some(id) = stored else {
            return Ok(false);
        };
        debug_assert_eq!(id, self.packets.len(), "solver ids align with the packet buffer");
        self.packets.push(packet.clone());
        self.decoded = None;
        Ok(true)
    }

    /// Recovers every native payload by back-substitution.
    ///
    /// The result is cached: calling `decode` again returns a clone of the
    /// cached vector without re-doing the elimination.
    ///
    /// # Errors
    ///
    /// Returns [`RlncError::NotFullRank`] when fewer than `k` innovative
    /// packets have been received.
    pub fn decode(&mut self) -> Result<Vec<Payload>, RlncError> {
        if let Some(cached) = &self.decoded {
            return Ok(cached.clone());
        }
        let ops_before = self.solver.row_ops();
        let recipes = self
            .solver
            .solve()
            .map_err(|_| RlncError::NotFullRank { rank: self.solver.rank(), needed: self.k })?;
        self.counters.add(OpKind::RowReduction, self.solver.row_ops() - ops_before);

        let sources: Vec<&Payload> = self.packets.iter().map(EncodedPacket::payload).collect();
        let (natives, payload_xors) = recipes.replay(&sources, self.payload_size);
        self.counters.add(OpKind::PayloadXor, payload_xors);
        self.decoded = Some(natives.clone());
        Ok(natives)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltnc_gf2::CodeVector;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn natives(k: usize, m: usize) -> Vec<Payload> {
        (0..k)
            .map(|i| Payload::from_vec((0..m).map(|j| (i * 37 + j * 11 + 3) as u8).collect()))
            .collect()
    }

    fn packet(k: usize, indices: &[usize], nat: &[Payload]) -> EncodedPacket {
        let mut payload = Payload::zero(nat[0].len());
        for &i in indices {
            payload.xor_assign(&nat[i]);
        }
        EncodedPacket::new(CodeVector::from_indices(k, indices), payload)
    }

    #[test]
    fn rejects_mismatched_packets() {
        let mut dec = GaussianDecoder::new(4, 2);
        let nat = natives(5, 2);
        assert_eq!(
            dec.insert(&packet(5, &[0], &nat)).unwrap_err(),
            RlncError::PacketMismatch { expected: 4, found: 5 }
        );
        let nat4 = natives(4, 3);
        assert_eq!(
            dec.insert(&packet(4, &[0], &nat4)).unwrap_err(),
            RlncError::PacketMismatch { expected: 2, found: 3 }
        );
    }

    #[test]
    fn innovative_packets_increase_rank() {
        let k = 4;
        let nat = natives(k, 2);
        let mut dec = GaussianDecoder::new(k, 2);
        assert!(dec.insert(&packet(k, &[0, 1], &nat)).unwrap());
        assert!(dec.insert(&packet(k, &[1, 2], &nat)).unwrap());
        assert_eq!(dec.rank(), 2);
        assert!(!dec.is_full_rank());
    }

    #[test]
    fn non_innovative_packets_are_rejected_and_counted() {
        let k = 4;
        let nat = natives(k, 2);
        let mut dec = GaussianDecoder::new(k, 2);
        dec.insert(&packet(k, &[0, 1], &nat)).unwrap();
        dec.insert(&packet(k, &[1, 2], &nat)).unwrap();
        assert!(!dec.insert(&packet(k, &[0, 2], &nat)).unwrap());
        assert_eq!(dec.received_count(), 3);
        assert_eq!(dec.rank(), 2);
        assert!(!dec.is_innovative(packet(k, &[0, 2], &nat).vector()));
        assert!(dec.is_innovative(packet(k, &[3], &nat).vector()));
    }

    #[test]
    fn zero_packet_is_never_innovative() {
        let k = 4;
        let mut dec = GaussianDecoder::new(k, 2);
        let zero = EncodedPacket::new(CodeVector::zero(k), Payload::zero(2));
        assert!(!dec.is_innovative(zero.vector()));
        assert!(!dec.insert(&zero).unwrap());
    }

    #[test]
    fn decode_before_full_rank_fails() {
        let k = 3;
        let nat = natives(k, 2);
        let mut dec = GaussianDecoder::new(k, 2);
        dec.insert(&packet(k, &[0], &nat)).unwrap();
        assert_eq!(dec.decode().unwrap_err(), RlncError::NotFullRank { rank: 1, needed: 3 });
    }

    #[test]
    fn decode_recovers_natives_from_unit_packets() {
        let k = 5;
        let nat = natives(k, 4);
        let mut dec = GaussianDecoder::new(k, 4);
        for i in 0..k {
            dec.insert(&packet(k, &[i], &nat)).unwrap();
        }
        assert_eq!(dec.decode().unwrap(), nat);
    }

    #[test]
    fn decode_recovers_natives_from_combined_packets() {
        let k = 4;
        let nat = natives(k, 8);
        let mut dec = GaussianDecoder::new(k, 8);
        dec.insert(&packet(k, &[0, 1], &nat)).unwrap();
        dec.insert(&packet(k, &[1, 2], &nat)).unwrap();
        dec.insert(&packet(k, &[2, 3], &nat)).unwrap();
        dec.insert(&packet(k, &[3], &nat)).unwrap();
        assert!(dec.is_full_rank());
        assert_eq!(dec.decode().unwrap(), nat);
    }

    #[test]
    fn decode_is_cached() {
        let k = 3;
        let nat = natives(k, 2);
        let mut dec = GaussianDecoder::new(k, 2);
        for i in 0..k {
            dec.insert(&packet(k, &[i], &nat)).unwrap();
        }
        let first = dec.decode().unwrap();
        let ops_after_first = dec.counters().total_ops();
        let second = dec.decode().unwrap();
        assert_eq!(first, second);
        assert_eq!(dec.counters().total_ops(), ops_after_first);
    }

    #[test]
    fn counters_record_row_and_payload_work() {
        let k = 8;
        let nat = natives(k, 16);
        let mut dec = GaussianDecoder::new(k, 16);
        let mut rng = SmallRng::seed_from_u64(3);
        while !dec.is_full_rank() {
            let indices: Vec<usize> = (0..k).filter(|_| rng.gen_bool(0.5)).collect();
            if indices.is_empty() {
                continue;
            }
            dec.insert(&packet(k, &indices, &nat)).unwrap();
        }
        dec.decode().unwrap();
        assert!(dec.counters().get(OpKind::RowReduction) > 0);
        assert!(dec.counters().get(OpKind::PayloadXor) > 0);
        assert!(dec.counters().data_ops() > 0);
        assert!(dec.counters().control_ops() > 0);
    }

    /// The decode this crate had before the two-pass solve, in its textbook
    /// form: Gauss–Jordan elimination on whole packets, every row operation
    /// on a code vector dragging its payload along.
    fn decode_by_whole_packet_elimination(k: usize, packets: &[EncodedPacket]) -> Vec<Payload> {
        let mut rows: Vec<(CodeVector, Payload)> =
            packets.iter().map(|p| (p.vector().clone(), p.payload().clone())).collect();
        for col in 0..k {
            let pivot = (col..rows.len())
                .find(|&r| rows[r].0.contains(col))
                .expect("the oracle is fed a full-rank system");
            rows.swap(col, pivot);
            let (vector, payload) = rows[col].clone();
            for (r, row) in rows.iter_mut().enumerate() {
                if r != col && row.0.contains(col) {
                    row.0.xor_assign(&vector);
                    row.1.xor_assign(&payload);
                }
            }
        }
        rows.truncate(k);
        rows.into_iter().map(|(_, payload)| payload).collect()
    }

    #[test]
    fn decode_matches_whole_packet_elimination() {
        // Code lengths off the byte and word grid; payload lengths with
        // empty, sub-word, lane-sized and ragged tails.
        let mut rng = SmallRng::seed_from_u64(17);
        for k in [1, 9, 33, 65, 130] {
            for m in [0, 5, 64, 129] {
                let nat: Vec<Payload> = (0..k)
                    .map(|_| Payload::from_vec((0..m).map(|_| rng.gen()).collect()))
                    .collect();
                let mut dec = GaussianDecoder::new(k, m);
                while !dec.is_full_rank() {
                    let indices: Vec<usize> = (0..k).filter(|_| rng.gen_bool(0.5)).collect();
                    dec.insert(&packet(k, &indices, &nat)).unwrap();
                }
                let expected = decode_by_whole_packet_elimination(k, dec.packets());
                assert_eq!(dec.decode().unwrap(), expected, "k = {k}, m = {m}");
                assert_eq!(expected, nat, "k = {k}, m = {m}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random dense packets decode to exactly the original natives once
        /// full rank is reached, regardless of the arrival order.
        #[test]
        fn prop_random_packets_decode_correctly(seed in any::<u64>(), k in 2usize..24) {
            let m = 4;
            let nat = natives(k, m);
            let mut dec = GaussianDecoder::new(k, m);
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut attempts = 0;
            while !dec.is_full_rank() {
                attempts += 1;
                prop_assert!(attempts < 50 * k, "did not reach full rank");
                let indices: Vec<usize> = (0..k).filter(|_| rng.gen_bool(0.5)).collect();
                if indices.is_empty() {
                    continue;
                }
                dec.insert(&packet(k, &indices, &nat)).unwrap();
            }
            prop_assert_eq!(dec.decode().unwrap(), nat);
        }
    }
}
