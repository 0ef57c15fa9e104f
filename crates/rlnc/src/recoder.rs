use ltnc_gf2::{EncodedPacket, Payload};
use ltnc_metrics::{OpCounters, OpKind};
use rand::seq::index::sample as sample_indices;
use rand::Rng;

use crate::RlncError;

/// The sparsity bound `⌈ln k⌉ + 20` used by the paper's RLNC baseline.
///
/// "The number of encoded packets involved in the recoding operation is
/// bounded by a given parameter, namely the sparsity of the codes, set to
/// ln k + 20" (§IV-A). Limiting the combination size keeps the per-packet
/// recoding cost `O(m·(ln k + 20))` instead of `O(m·k)` without hurting the
/// dissemination performance.
#[must_use]
pub fn sparsity_for(code_length: usize) -> usize {
    (code_length.max(1) as f64).ln().ceil() as usize + 20
}

/// The RLNC recoding rule: XOR a random subset of the held packets.
///
/// The recoder holds no packets of its own: [`crate::RlncNode`] hands it the
/// innovative packets its decoder buffered, and it produces fresh encoded
/// packets by combining `min(sparsity, held)` of them chosen uniformly at
/// random.
#[derive(Debug, Clone)]
pub struct SparseRecoder {
    sparsity: usize,
    counters: OpCounters,
}

impl SparseRecoder {
    /// Creates a recoder with the paper's default sparsity `ln k + 20`.
    #[must_use]
    pub fn new(k: usize) -> Self {
        Self::with_sparsity(sparsity_for(k))
    }

    /// Creates a recoder with an explicit sparsity bound (≥ 1).
    #[must_use]
    pub fn with_sparsity(sparsity: usize) -> Self {
        SparseRecoder { sparsity: sparsity.max(1), counters: OpCounters::new() }
    }

    /// The sparsity bound in use.
    #[must_use]
    pub fn sparsity(&self) -> usize {
        self.sparsity
    }

    /// The operation counters accumulated by recoding.
    #[must_use]
    pub fn counters(&self) -> &OpCounters {
        &self.counters
    }

    /// Produces a fresh encoded packet as a random GF(2) combination of the
    /// `held` packets (all of one code length and payload size): at most `sparsity` candidate packets are drawn
    /// uniformly, and each is included with an (independent) random 0/1
    /// coefficient — the sparse random linear recoding of the paper.
    ///
    /// The combination may occasionally collapse to the zero vector (all
    /// coefficients zero, or the selected packets cancel out); the recoder
    /// then retries with fresh randomness a few times and finally falls back
    /// to forwarding one held packet, mirroring the small non-innovation
    /// probability the paper attributes to random linear codes.
    ///
    /// # Errors
    ///
    /// Returns [`RlncError::NothingToRecode`] when `held` is empty.
    pub fn recode<R: Rng + ?Sized>(
        &mut self,
        held: &[EncodedPacket],
        rng: &mut R,
    ) -> Result<EncodedPacket, RlncError> {
        if held.is_empty() {
            return Err(RlncError::NothingToRecode);
        }
        const MAX_RETRIES: usize = 4;
        let candidates = self.sparsity.min(held.len());
        for _ in 0..MAX_RETRIES {
            let chosen = sample_indices(rng, held.len(), candidates);
            // Draw the random GF(2) coefficients first (same RNG order as the
            // one-at-a-time loop), then fold the selected packets batched.
            let selected: Vec<usize> = chosen.iter().filter(|_| rng.gen_bool(0.5)).collect();
            let Some((&first, rest)) = selected.split_first() else {
                continue;
            };
            let mut vector = held[first].vector().clone();
            for &i in rest {
                vector.xor_assign(held[i].vector());
            }
            self.counters.add(OpKind::VectorXor, selected.len() as u64);
            if vector.is_zero() {
                continue;
            }
            // One pass over the payload for the whole combination instead of
            // one full walk per selected packet.
            let mut payload = held[first].payload().clone();
            let sources: Vec<&Payload> = rest.iter().map(|&i| held[i].payload()).collect();
            payload.xor_assign_many(&sources);
            self.counters.add(OpKind::PayloadXor, selected.len() as u64);
            return Ok(EncodedPacket::new(vector, payload));
        }
        // Fallback: forward one held packet chosen at random.
        let i = rng.gen_range(0..held.len());
        self.counters.incr(OpKind::PayloadXor);
        self.counters.incr(OpKind::VectorXor);
        Ok(held[i].clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltnc_gf2::CodeVector;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn natives(k: usize, m: usize) -> Vec<Payload> {
        (0..k).map(|i| Payload::from_vec((0..m).map(|j| (i + 2 * j + 1) as u8).collect())).collect()
    }

    fn packet(k: usize, indices: &[usize], nat: &[Payload]) -> EncodedPacket {
        let mut payload = Payload::zero(nat[0].len());
        for &i in indices {
            payload.xor_assign(&nat[i]);
        }
        EncodedPacket::new(CodeVector::from_indices(k, indices), payload)
    }

    #[test]
    fn sparsity_matches_the_paper_formula() {
        assert_eq!(sparsity_for(1), 20);
        assert_eq!(sparsity_for(2048), (2048f64.ln().ceil() as usize) + 20);
        assert_eq!(sparsity_for(2048), 28);
        assert!(sparsity_for(4096) >= sparsity_for(512));
    }

    #[test]
    fn recode_from_empty_buffer_fails() {
        let mut r = SparseRecoder::new(8);
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(r.recode(&[], &mut rng).unwrap_err(), RlncError::NothingToRecode);
    }

    #[test]
    fn recoded_packet_is_consistent_combination() {
        let k = 16;
        let m = 8;
        let nat = natives(k, m);
        let mut r = SparseRecoder::new(k);
        let held: Vec<EncodedPacket> = (0..k).map(|i| packet(k, &[i, (i + 1) % k], &nat)).collect();
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..50 {
            let p = r.recode(&held, &mut rng).unwrap();
            // Invariant: payload equals XOR of natives named by the vector.
            let mut expected = Payload::zero(m);
            for i in p.vector().iter_ones() {
                expected.xor_assign(&nat[i]);
            }
            assert_eq!(p.payload(), &expected);
        }
    }

    #[test]
    fn combination_size_respects_sparsity() {
        let k = 64;
        let m = 1;
        let nat = natives(k, m);
        let mut r = SparseRecoder::with_sparsity(3);
        let held: Vec<EncodedPacket> = (0..k).map(|i| packet(k, &[i], &nat)).collect();
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..50 {
            let p = r.recode(&held, &mut rng).unwrap();
            // With unit packets and sparsity 3, the result combines 1 to 3 of them.
            assert!(p.degree() <= 3 && p.degree() >= 1, "degree {}", p.degree());
        }
        assert!(r.counters().get(OpKind::PayloadXor) >= 50);
    }

    #[test]
    fn recoded_packets_are_diverse_even_with_a_small_buffer() {
        // Regression test: when the buffer is smaller than the sparsity bound
        // the recoder must still produce varied combinations (a deterministic
        // "XOR everything" output would stall every downstream receiver).
        let k = 8;
        let m = 1;
        let nat = natives(k, m);
        let mut r = SparseRecoder::new(k); // sparsity 23 ≥ buffer size
        let held: Vec<EncodedPacket> = (0..k).map(|i| packet(k, &[i], &nat)).collect();
        let mut rng = SmallRng::seed_from_u64(4);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..64 {
            distinct.insert(r.recode(&held, &mut rng).unwrap().vector().ones());
        }
        assert!(distinct.len() > 10, "only {} distinct combinations", distinct.len());
    }

    #[test]
    fn recode_with_single_packet_returns_it() {
        let k = 8;
        let nat = natives(k, 2);
        let mut r = SparseRecoder::new(k);
        let held = [packet(k, &[2, 5], &nat)];
        let mut rng = SmallRng::seed_from_u64(1);
        let p = r.recode(&held, &mut rng).unwrap();
        assert_eq!(p.vector().ones(), vec![2, 5]);
    }

    #[test]
    fn sparsity_is_at_least_one() {
        let r = SparseRecoder::with_sparsity(0);
        assert_eq!(r.sparsity(), 1);
    }
}
