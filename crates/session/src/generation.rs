//! Generations: chunking arbitrarily large objects into codeable units.
//!
//! LT/RLNC coding works over a fixed code length `k`; a real object (a
//! file) is rarely exactly `k × m` bytes. The session layer therefore
//! splits the object into *generations* of `k` native payloads of `m`
//! bytes each (the last generation zero-padded), codes each generation
//! independently, and reassembles the object once every generation has
//! decoded — the standard "generation" construction of practical network
//! coding, and the unit the wire envelope addresses with its
//! `generation` field.
//!
//! * [`ObjectManifest`] — the immutable description both ends agree on
//!   (object length, `k`, `m`, scheme): enough for a receiver to size its
//!   decode state and to know when it is done.
//! * [`split_object`] — source-side chunking into per-generation native
//!   payload vectors.
//! * [`SourceSession`] — per-generation source scheme nodes plus a push
//!   scheduler.
//! * [`ReceiverSession`] — per-generation decode state with header-first
//!   innovation checks and object reassembly.

use ltnc_gf2::{CodeVector, EncodedPacket, Payload};
use ltnc_metrics::OpCounters;
use ltnc_scheme::{Scheme, SchemeParams, Summary};
use rand::RngCore;

/// The per-object contract between source and receivers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectManifest {
    /// Exact object length in bytes (the tail generation is padded up to
    /// `k × m`; this is how much survives reassembly).
    pub object_len: u64,
    /// Scheme and code dimensions every generation uses.
    pub params: SchemeParams,
}

impl ObjectManifest {
    /// Bytes of object data one full generation carries.
    #[must_use]
    pub fn generation_bytes(&self) -> usize {
        self.params.code_length * self.params.payload_size
    }

    /// Number of generations the object spans (at least 1).
    ///
    /// # Panics
    ///
    /// Panics on a degenerate manifest (`k × m = 0`) or one whose object
    /// length implies more than `u32::MAX` generations (the wire addresses
    /// generations with a `u32`; truncating silently would make such an
    /// object appear complete with nothing received). Manifests received
    /// from untrusted peers must be bounds-checked before use — the serve
    /// client caps the implied generation count at a far smaller limit.
    #[must_use]
    pub fn generation_count(&self) -> u32 {
        let per_gen = self.generation_bytes() as u64;
        assert!(per_gen > 0, "degenerate manifest: k × m = 0");
        let count = self.object_len.div_ceil(per_gen).max(1);
        assert!(count <= u64::from(u32::MAX), "object spans more generations than u32 addresses");
        count as u32
    }
}

/// Splits `object` into per-generation native payloads (the source side of
/// the manifest contract). The last generation is zero-padded to exactly
/// `k` payloads of `m` bytes.
///
/// # Panics
///
/// Panics when `params.code_length == 0` or `params.payload_size == 0`.
#[must_use]
pub fn split_object(object: &[u8], params: SchemeParams) -> (ObjectManifest, Vec<Vec<Payload>>) {
    assert!(params.code_length > 0, "code length must be positive");
    assert!(params.payload_size > 0, "payload size must be positive");
    let manifest = ObjectManifest { object_len: object.len() as u64, params };
    let k = params.code_length;
    let m = params.payload_size;
    let mut generations = Vec::with_capacity(manifest.generation_count() as usize);
    for gen_index in 0..manifest.generation_count() as usize {
        let base = gen_index * k * m;
        let natives: Vec<Payload> = (0..k)
            .map(|i| {
                let start = (base + i * m).min(object.len());
                let end = (base + (i + 1) * m).min(object.len());
                let mut bytes = object[start..end].to_vec();
                bytes.resize(m, 0);
                Payload::from_vec(bytes)
            })
            .collect();
        generations.push(natives);
    }
    (manifest, generations)
}

/// Source-side session: one source scheme node per generation, plus a
/// round-robin scheduler that skips generations a target already finished.
pub struct SourceSession {
    manifest: ObjectManifest,
    nodes: Vec<Box<dyn Scheme>>,
    cursor: usize,
}

impl SourceSession {
    /// Builds source nodes for every generation of `object`.
    #[must_use]
    pub fn new(object: &[u8], params: SchemeParams) -> Self {
        let (manifest, generations) = split_object(object, params);
        let nodes = generations.iter().map(|natives| params.source_node(natives)).collect();
        SourceSession { manifest, nodes, cursor: 0 }
    }

    /// The manifest receivers must agree on.
    #[must_use]
    pub fn manifest(&self) -> &ObjectManifest {
        &self.manifest
    }

    /// Produces the next packet to push, cycling round-robin over the
    /// generations for which `target_needs(gen)` returns `true`. Returns
    /// the generation index with the packet.
    pub fn make_packet(
        &mut self,
        rng: &mut dyn RngCore,
        mut target_needs: impl FnMut(u32) -> bool,
    ) -> Option<(u32, EncodedPacket)> {
        let n = self.nodes.len();
        for _ in 0..n {
            let gen_index = self.cursor % n;
            self.cursor = self.cursor.wrapping_add(1);
            if !target_needs(gen_index as u32) {
                continue;
            }
            if let Some(packet) = self.nodes[gen_index].make_packet(rng) {
                return Some((gen_index as u32, packet));
            }
        }
        None
    }

    /// A packet of generation `gen_index` that the receiver which sent
    /// `summary` is sure to find innovative, if there is one.
    pub fn smart_packet(
        &mut self,
        gen_index: u32,
        summary: &Summary,
        rng: &mut dyn RngCore,
    ) -> Option<EncodedPacket> {
        self.nodes.get_mut(gen_index as usize)?.smart_packet(summary, rng)
    }

    /// Merged recoding counters across all generations.
    #[must_use]
    pub fn recoding_counters(&self) -> OpCounters {
        let mut total = OpCounters::new();
        for node in &self.nodes {
            total.merge(&node.recoding_counters());
        }
        total
    }
}

/// Receiver-side session: per-generation decode state, the header-first
/// feedback check, and final reassembly.
///
/// A thin single-owner façade over [`crate::lease::SharedReceiver`] — one
/// implementation of the accept/deliver/reassemble protocol serves the
/// UDP gossip path (this type) and the TCP/striped serving path (the
/// shared receiver directly), so the semantics cannot drift apart.
pub struct ReceiverSession {
    shared: crate::lease::SharedReceiver,
}

impl ReceiverSession {
    /// Builds empty decode state for every generation in the manifest.
    #[must_use]
    pub fn new(manifest: ObjectManifest) -> Self {
        ReceiverSession { shared: crate::lease::SharedReceiver::new(manifest) }
    }

    /// The session's manifest.
    #[must_use]
    pub fn manifest(&self) -> &ObjectManifest {
        self.shared.manifest()
    }

    /// Number of generations fully decoded so far.
    #[must_use]
    pub fn complete_generations(&self) -> usize {
        self.shared.complete_generations()
    }

    /// `true` once every generation has decoded.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.shared.is_complete()
    }

    /// Whether one specific generation has decoded.
    #[must_use]
    pub fn generation_complete(&self, gen_index: u32) -> bool {
        self.shared.generation_complete(gen_index)
    }

    /// Useful packets received for a generation (drives the
    /// aggressiveness gate of relays).
    #[must_use]
    pub fn useful_received(&self, gen_index: u32) -> usize {
        self.shared.useful_received(gen_index)
    }

    /// The paper's header-first feedback check: given only a code vector
    /// from a `DATA-HEADER`, would this generation want the payload?
    /// Returns `false` for out-of-range generations, completed
    /// generations, or vectors of the wrong length.
    #[must_use]
    pub fn would_accept(&self, gen_index: u32, vector: &CodeVector) -> bool {
        self.shared.would_accept(gen_index, vector)
    }

    /// Delivers a full packet to a generation. Returns `true` when the
    /// packet was useful; newly-completed generations are tracked.
    pub fn deliver(&mut self, gen_index: u32, packet: &EncodedPacket) -> bool {
        self.shared.deliver(gen_index, packet).useful
    }

    /// Recodes a fresh packet from a generation's received state (relay
    /// behaviour).
    pub fn make_packet(&mut self, gen_index: u32, rng: &mut dyn RngCore) -> Option<EncodedPacket> {
        self.shared.make_packet(gen_index, rng)
    }

    /// What generation `gen_index` tells a sender with its verdict on an
    /// offer; `None` once it is complete, when the scheme has no summary,
    /// or when none of `max_bytes` or fewer can be built.
    #[must_use]
    pub fn summary(&self, gen_index: u32, max_bytes: usize) -> Option<Summary> {
        self.shared.summary(gen_index, max_bytes)
    }

    /// A packet of generation `gen_index` that the receiver which sent
    /// `summary` is sure to find innovative, if there is one (relay
    /// behaviour).
    pub fn smart_packet(
        &mut self,
        gen_index: u32,
        summary: &Summary,
        rng: &mut dyn RngCore,
    ) -> Option<EncodedPacket> {
        self.shared.smart_packet(gen_index, summary, rng)
    }

    /// Reassembles the object once complete: decodes every generation,
    /// concatenates the native payloads and trims the tail padding.
    /// `None` while any generation is missing or a decode fails.
    pub fn reassemble(&mut self) -> Option<Vec<u8>> {
        self.shared.reassemble()
    }

    /// Merged decoding counters across all generations.
    #[must_use]
    pub fn decoding_counters(&self) -> OpCounters {
        self.shared.decoding_counters()
    }

    /// Merged recoding counters across all generations (relay emissions).
    #[must_use]
    pub fn recoding_counters(&self) -> OpCounters {
        self.shared.recoding_counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltnc_scheme::SchemeKind;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn object(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut data = vec![0u8; len];
        rng.fill(&mut data[..]);
        data
    }

    #[test]
    fn split_pads_tail_and_counts_generations() {
        let params = SchemeParams::new(SchemeKind::Ltnc, 8, 4);
        // 8 × 4 = 32 bytes per generation; 70 bytes → 3 generations.
        let data = object(70, 1);
        let (manifest, gens) = split_object(&data, params);
        assert_eq!(manifest.generation_count(), 3);
        assert_eq!(gens.len(), 3);
        for gen in &gens {
            assert_eq!(gen.len(), 8);
            assert!(gen.iter().all(|p| p.len() == 4));
        }
        // Concatenation reproduces the object plus zero padding.
        let mut cat = Vec::new();
        for gen in &gens {
            for p in gen {
                cat.extend_from_slice(p.as_bytes());
            }
        }
        assert_eq!(&cat[..70], &data[..]);
        assert!(cat[70..].iter().all(|&b| b == 0));
    }

    #[test]
    fn empty_object_still_has_one_generation() {
        let params = SchemeParams::new(SchemeKind::Wc, 4, 2);
        let (manifest, gens) = split_object(&[], params);
        assert_eq!(manifest.generation_count(), 1);
        assert_eq!(gens.len(), 1);
    }

    #[test]
    fn source_to_receiver_loopback_all_schemes() {
        for kind in SchemeKind::ALL {
            let params = SchemeParams::new(kind, 12, 5);
            let data = object(137, 7); // 12×5 = 60 B/gen → 3 generations
            let mut source = SourceSession::new(&data, params);
            let mut receiver = ReceiverSession::new(*source.manifest());
            let mut rng = SmallRng::seed_from_u64(11);
            let mut budget = 60_000;
            while !receiver.is_complete() && budget > 0 {
                budget -= 1;
                if let Some((gen, packet)) =
                    source.make_packet(&mut rng, |g| !receiver.generation_complete(g))
                {
                    if receiver.would_accept(gen, packet.vector()) {
                        receiver.deliver(gen, &packet);
                    }
                }
            }
            assert!(receiver.is_complete(), "{kind:?} did not complete");
            assert_eq!(receiver.reassemble().unwrap(), data, "{kind:?} reassembly mismatch");
        }
    }

    #[test]
    fn scheduler_skips_completed_generations() {
        let params = SchemeParams::new(SchemeKind::Rlnc, 4, 2);
        let data = object(24, 3); // 3 generations
        let mut source = SourceSession::new(&data, params);
        let mut rng = SmallRng::seed_from_u64(1);
        // Pretend the target finished generations 0 and 2.
        for _ in 0..32 {
            let (gen, _) = source.make_packet(&mut rng, |g| g == 1).unwrap();
            assert_eq!(gen, 1);
        }
        // No generation needed → no packet.
        assert!(source.make_packet(&mut rng, |_| false).is_none());
    }

    #[test]
    fn would_accept_rejects_mismatched_and_done_generations() {
        let params = SchemeParams::new(SchemeKind::Ltnc, 6, 3);
        let data = object(18, 9); // single generation
        let source = SourceSession::new(&data, params);
        let receiver = ReceiverSession::new(*source.manifest());
        // Out-of-range generation.
        assert!(!receiver.would_accept(5, &CodeVector::singleton(6, 0)));
        // Wrong vector length.
        assert!(!receiver.would_accept(0, &CodeVector::singleton(9, 0)));
        // Fresh degree-1 vector is wanted.
        assert!(receiver.would_accept(0, &CodeVector::singleton(6, 0)));
    }

    #[test]
    fn deliver_rejects_wrong_dimensions() {
        let params = SchemeParams::new(SchemeKind::Rlnc, 6, 3);
        let (manifest, _) = split_object(&object(18, 2), params);
        let mut receiver = ReceiverSession::new(manifest);
        let wrong_k = EncodedPacket::native(9, 0, Payload::zero(3));
        assert!(!receiver.deliver(0, &wrong_k));
        let wrong_m = EncodedPacket::native(6, 0, Payload::zero(8));
        assert!(!receiver.deliver(0, &wrong_m));
        assert_eq!(receiver.useful_received(0), 0);
    }
}
