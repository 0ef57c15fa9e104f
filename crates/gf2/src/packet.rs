use crate::{CodeVector, Gf2Error, Payload};

/// An encoded packet: a code vector (header) plus the XOR of the corresponding
/// native payloads (data).
///
/// The invariant maintained by every operation in this workspace is that the
/// payload always equals the XOR of the native payloads whose bits are set in
/// the code vector. The integration tests verify this end-to-end against a
/// reference store of native packets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedPacket {
    vector: CodeVector,
    payload: Payload,
}

impl EncodedPacket {
    /// Bundles a code vector and its payload.
    #[must_use]
    pub fn new(vector: CodeVector, payload: Payload) -> Self {
        EncodedPacket { vector, payload }
    }

    /// A degree-1 packet carrying native packet `index` with the given payload.
    ///
    /// # Panics
    ///
    /// Panics if `index >= k`.
    #[must_use]
    pub fn native(k: usize, index: usize, payload: Payload) -> Self {
        EncodedPacket { vector: CodeVector::singleton(k, index), payload }
    }

    /// The code vector (bitmap header) of this packet.
    #[must_use]
    pub fn vector(&self) -> &CodeVector {
        &self.vector
    }

    /// The data payload of this packet.
    #[must_use]
    pub fn payload(&self) -> &Payload {
        &self.payload
    }

    /// Number of native packets combined in this packet.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.vector.degree()
    }

    /// Code length `k` (number of native packets of the content).
    #[must_use]
    pub fn code_length(&self) -> usize {
        self.vector.len()
    }

    /// Payload size `m` in bytes.
    #[must_use]
    pub fn payload_size(&self) -> usize {
        self.payload.len()
    }

    /// Returns `true` when this packet is the zero combination (useless on the wire).
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.vector.is_zero()
    }

    /// Adds another encoded packet to this one over GF(2): both the code vector
    /// and the payload are XOR-ed. This is the recoding primitive shared by
    /// RLNC and LTNC.
    ///
    /// # Panics
    ///
    /// Panics if code lengths or payload sizes differ.
    pub fn xor_assign(&mut self, other: &EncodedPacket) {
        self.vector.xor_assign(&other.vector);
        self.payload.xor_assign(&other.payload);
    }

    /// Checked variant of [`EncodedPacket::xor_assign`].
    ///
    /// # Errors
    ///
    /// Returns [`Gf2Error::LengthMismatch`] when code lengths or payload sizes differ.
    pub fn try_xor_assign(&mut self, other: &EncodedPacket) -> Result<(), Gf2Error> {
        if self.vector.len() != other.vector.len() {
            return Err(Gf2Error::LengthMismatch {
                left: self.vector.len(),
                right: other.vector.len(),
            });
        }
        self.payload.try_xor_assign(&other.payload)?;
        self.vector.xor_assign(&other.vector);
        Ok(())
    }

    /// Returns `self ⊕ other` without modifying either operand.
    ///
    /// # Panics
    ///
    /// Panics if code lengths or payload sizes differ.
    #[must_use]
    pub fn xor(&self, other: &EncodedPacket) -> EncodedPacket {
        let mut out = self.clone();
        out.xor_assign(other);
        out
    }

    /// Splits the packet into its parts.
    #[must_use]
    pub fn into_parts(self) -> (CodeVector, Payload) {
        (self.vector, self.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pk(k: usize, indices: &[usize], fill: u8) -> EncodedPacket {
        EncodedPacket::new(CodeVector::from_indices(k, indices), Payload::from_vec(vec![fill; 8]))
    }

    #[test]
    fn native_packet_has_degree_one() {
        let p = EncodedPacket::native(16, 3, Payload::zero(4));
        assert_eq!(p.degree(), 1);
        assert_eq!(p.code_length(), 16);
        assert_eq!(p.payload_size(), 4);
        assert!(p.vector().contains(3));
    }

    #[test]
    fn xor_combines_header_and_payload() {
        let a = pk(8, &[0, 1], 0xF0);
        let b = pk(8, &[1, 2], 0x0F);
        let c = a.xor(&b);
        assert_eq!(c.vector().ones(), vec![0, 2]);
        assert_eq!(c.payload().as_bytes(), &[0xFF; 8]);
    }

    #[test]
    fn xor_with_self_gives_zero_packet() {
        let a = pk(8, &[0, 5], 0x33);
        let z = a.xor(&a);
        assert!(z.is_zero());
        assert!(z.payload().is_zero());
    }

    #[test]
    fn try_xor_assign_rejects_mismatched_payload() {
        let mut a = EncodedPacket::new(CodeVector::zero(8), Payload::zero(4));
        let b = EncodedPacket::new(CodeVector::zero(8), Payload::zero(5));
        assert!(a.try_xor_assign(&b).is_err());
        // a must be unchanged after a failed combine.
        assert_eq!(a.payload().len(), 4);
        assert!(a.vector().is_zero());
    }

    #[test]
    fn try_xor_assign_rejects_mismatched_code_length() {
        let mut a = EncodedPacket::new(CodeVector::zero(8), Payload::zero(4));
        let b = EncodedPacket::new(CodeVector::zero(9), Payload::zero(4));
        assert!(a.try_xor_assign(&b).is_err());
    }

    #[test]
    fn into_parts_roundtrip() {
        let p = pk(8, &[1, 2], 7);
        let (v, d) = p.clone().into_parts();
        assert_eq!(EncodedPacket::new(v, d), p);
    }
}
