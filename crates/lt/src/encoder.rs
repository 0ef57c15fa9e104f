use rand::seq::index::sample as sample_indices;
use rand::Rng;

use ltnc_gf2::{CodeVector, EncodedPacket, Payload};

use crate::{DegreeDistribution, LtError, RobustSoliton};

/// The source-side LT encoder.
///
/// The encoder owns the `k` native payloads and produces a stream of encoded
/// packets: each packet combines `d` native packets chosen uniformly at
/// random, with `d` drawn from the configured degree distribution (Robust
/// Soliton in the paper). LT codes are rateless: the encoder can produce an
/// unbounded number of distinct packets.
///
/// This is the plain-LT reference: the interop tests of `ltnc-lt` and
/// `ltnc-core` decode its stream, and the reference benchmark times it
/// (`lt.encode_ns`). No dissemination runs it: a source encodes through
/// `ltnc-scheme`'s adapters like every other node, an LTNC source as an
/// `LtncNode` holding every native.
#[derive(Debug, Clone)]
pub struct LtEncoder<D = RobustSoliton> {
    natives: Vec<Payload>,
    payload_size: usize,
    distribution: D,
    packets_emitted: u64,
}

impl<D: DegreeDistribution> LtEncoder<D> {
    /// Creates an encoder over the given native payloads.
    ///
    /// # Errors
    ///
    /// Returns [`LtError::EmptyCode`] when `natives` is empty,
    /// [`LtError::InconsistentPayloadSizes`] when payload sizes differ, and
    /// [`LtError::PacketMismatch`] when the distribution's code length does
    /// not match the number of native packets.
    pub fn new(natives: Vec<Payload>, distribution: D) -> Result<Self, LtError> {
        if natives.is_empty() {
            return Err(LtError::EmptyCode);
        }
        let payload_size = natives[0].len();
        for (i, p) in natives.iter().enumerate() {
            if p.len() != payload_size {
                return Err(LtError::InconsistentPayloadSizes {
                    expected: payload_size,
                    index: i,
                    found: p.len(),
                });
            }
        }
        if distribution.code_length() != natives.len() {
            return Err(LtError::PacketMismatch {
                expected: natives.len(),
                found: distribution.code_length(),
            });
        }
        Ok(LtEncoder { natives, payload_size, distribution, packets_emitted: 0 })
    }

    /// Number of native packets `k`.
    #[must_use]
    pub fn code_length(&self) -> usize {
        self.natives.len()
    }

    /// Payload size `m` in bytes.
    #[must_use]
    pub fn payload_size(&self) -> usize {
        self.payload_size
    }

    /// Number of packets emitted so far.
    #[must_use]
    pub fn packets_emitted(&self) -> u64 {
        self.packets_emitted
    }

    /// Generates one encoded packet: draws a degree from the distribution and
    /// XORs that many native packets chosen uniformly at random without
    /// replacement.
    pub fn encode<R: Rng + ?Sized>(&mut self, rng: &mut R) -> EncodedPacket {
        let degree = self.distribution.sample(rng);
        self.encode_with_degree(rng, degree)
    }

    /// Generates one encoded packet of exactly the given degree (clamped to
    /// `1..=k`), choosing the natives uniformly at random.
    pub fn encode_with_degree<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        degree: usize,
    ) -> EncodedPacket {
        let k = self.natives.len();
        let degree = degree.clamp(1, k);
        let chosen = sample_indices(rng, k, degree);
        let mut vector = CodeVector::zero(k);
        let mut sources = Vec::with_capacity(degree);
        for i in chosen.iter() {
            vector.set(i);
            sources.push(&self.natives[i]);
        }
        // Fold all chosen natives in one batched pass over the payload.
        let (&first, rest) = sources.split_first().expect("degree >= 1");
        let mut payload = first.clone();
        payload.xor_assign_many(rest);
        self.packets_emitted += 1;
        EncodedPacket::new(vector, payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IdealSoliton;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn natives(k: usize, m: usize) -> Vec<Payload> {
        (0..k).map(|i| Payload::from_vec((0..m).map(|j| (i * 31 + j) as u8).collect())).collect()
    }

    #[test]
    fn rejects_empty_natives() {
        let dist = RobustSoliton::for_code_length(1).unwrap();
        assert_eq!(LtEncoder::new(vec![], dist).unwrap_err(), LtError::EmptyCode);
    }

    #[test]
    fn rejects_inconsistent_sizes() {
        let dist = RobustSoliton::for_code_length(2).unwrap();
        let err = LtEncoder::new(vec![Payload::zero(4), Payload::zero(5)], dist).unwrap_err();
        assert_eq!(err, LtError::InconsistentPayloadSizes { expected: 4, index: 1, found: 5 });
    }

    #[test]
    fn rejects_mismatched_distribution() {
        let dist = RobustSoliton::for_code_length(3).unwrap();
        let err = LtEncoder::new(natives(4, 8), dist).unwrap_err();
        assert_eq!(err, LtError::PacketMismatch { expected: 4, found: 3 });
    }

    #[test]
    fn encoded_packet_payload_is_xor_of_selected_natives() {
        let k = 16;
        let m = 8;
        let nat = natives(k, m);
        let dist = RobustSoliton::for_code_length(k).unwrap();
        let mut enc = LtEncoder::new(nat.clone(), dist).unwrap();
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..100 {
            let p = enc.encode(&mut rng);
            assert_eq!(p.code_length(), k);
            assert_eq!(p.payload_size(), m);
            assert!(p.degree() >= 1);
            let mut expected = Payload::zero(m);
            for i in p.vector().iter_ones() {
                expected.xor_assign(&nat[i]);
            }
            assert_eq!(p.payload(), &expected);
        }
        assert_eq!(enc.packets_emitted(), 100);
    }

    #[test]
    fn encode_with_degree_honours_degree() {
        let k = 32;
        let nat = natives(k, 4);
        let dist = IdealSoliton::new(k).unwrap();
        let mut enc = LtEncoder::new(nat, dist).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        for d in 1..=k {
            let p = enc.encode_with_degree(&mut rng, d);
            assert_eq!(p.degree(), d);
        }
    }

    #[test]
    fn encode_with_degree_clamps_out_of_range() {
        let k = 8;
        let nat = natives(k, 4);
        let dist = IdealSoliton::new(k).unwrap();
        let mut enc = LtEncoder::new(nat, dist).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        assert_eq!(enc.encode_with_degree(&mut rng, 0).degree(), 1);
        assert_eq!(enc.encode_with_degree(&mut rng, 100).degree(), k);
    }

    #[test]
    fn degrees_follow_the_distribution_on_average() {
        let k = 256;
        let nat = natives(k, 1);
        let dist = RobustSoliton::for_code_length(k).unwrap();
        let expected_mean = dist.mean_degree();
        let mut enc = LtEncoder::new(nat, dist).unwrap();
        let mut rng = SmallRng::seed_from_u64(77);
        let n = 20_000;
        let mut sum = 0usize;
        for _ in 0..n {
            sum += enc.encode(&mut rng).degree();
        }
        let mean = sum as f64 / n as f64;
        assert!(
            (mean - expected_mean).abs() < 0.3,
            "empirical mean {mean}, expected {expected_mean}"
        );
    }
}
