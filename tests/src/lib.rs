//! Shared helpers for the cross-crate integration tests.
//!
//! The actual tests live in `tests/tests/` and exercise complete flows across
//! the workspace: source encoding (`ltnc-lt`), recoding (`ltnc-core` /
//! `ltnc-rlnc`), epidemic dissemination (`ltnc-topo` on the virtual-time
//! driver) and cost accounting (`ltnc-metrics`).

use ltnc_gf2::{CodeVector, EncodedPacket, Payload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generates `k` pseudo-random native payloads of `m` bytes.
#[must_use]
pub fn random_content(k: usize, m: usize, seed: u64) -> Vec<Payload> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..k)
        .map(|_| {
            let mut bytes = vec![0u8; m];
            rng.fill(&mut bytes[..]);
            Payload::from_vec(bytes)
        })
        .collect()
}

/// Builds the encoded packet combining the given native indices of `content`.
///
/// # Panics
///
/// Panics if any index is out of range.
#[must_use]
pub fn packet_of(content: &[Payload], k: usize, indices: &[usize]) -> EncodedPacket {
    let mut payload = Payload::zero(content[0].len());
    for &i in indices {
        payload.xor_assign(&content[i]);
    }
    EncodedPacket::new(CodeVector::from_indices(k, indices), payload)
}

/// Asserts the fundamental on-the-wire invariant: the payload of `packet`
/// equals the XOR of the native payloads named by its code vector.
///
/// # Panics
///
/// Panics when the invariant is violated.
pub fn assert_packet_consistent(packet: &EncodedPacket, content: &[Payload]) {
    let mut expected = Payload::zero(content[0].len());
    for i in packet.vector().iter_ones() {
        expected.xor_assign(&content[i]);
    }
    assert_eq!(packet.payload(), &expected, "packet payload does not match its code vector");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_of_builds_consistent_packets() {
        let content = random_content(8, 16, 3);
        let p = packet_of(&content, 8, &[1, 4, 6]);
        assert_eq!(p.degree(), 3);
        assert_packet_consistent(&p, &content);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn assert_packet_consistent_catches_corruption() {
        let content = random_content(4, 8, 3);
        let mut p = packet_of(&content, 4, &[0, 1]);
        let mut corrupted = p.payload().clone().into_vec();
        corrupted[0] ^= 0xFF;
        p = EncodedPacket::new(p.vector().clone(), Payload::from_vec(corrupted));
        assert_packet_consistent(&p, &content);
    }
}
