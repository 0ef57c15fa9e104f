//! Striped-fetch bookkeeping: generation leases and a thread-safe shared
//! receiver.
//!
//! Rateless codes make *any* subset of a generation's coded symbols
//! useful, so a client may pull one object from several replicas at once
//! and merge the streams. Two pieces of state make that concrete:
//!
//! * [`LeaseTable`] — which replica is responsible for pushing which
//!   generation. A fresh table partitions generations round-robin; when a
//!   stream dies its outstanding leases are reassigned to the survivors
//!   ([`LeaseTable::reassign_set`]), and completed generations are
//!   released so they never migrate.
//! * [`SharedReceiver`] — the merge point: the same per-generation decode
//!   state as [`crate::generation::ReceiverSession`], but behind one lock
//!   *per generation* plus atomic completion flags, so replica streams
//!   working disjoint generations never contend. Duplicate-rank symbols
//!   (two replicas serving overlapping symbols after a failover) are
//!   simply not useful and are discarded by the decoder — the rateless
//!   union needs no coordination beyond this.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use ltnc_gf2::{CodeVector, EncodedPacket};
use ltnc_metrics::OpCounters;
use ltnc_scheme::{Scheme, Summary};
use rand::RngCore;

use crate::generation::ObjectManifest;

/// Ownership map from generation index to replica index.
///
/// # Example
///
/// ```
/// use ltnc_session::LeaseTable;
///
/// // 5 generations striped across 2 replicas, round-robin.
/// let mut table = LeaseTable::partition(5, 2);
/// assert_eq!(table.leased_to(0), vec![0, 2, 4]);
/// assert_eq!(table.leased_to(1), vec![1, 3]);
///
/// // Generation 2 completes (released), then replica 0 dies: only its
/// // *outstanding* leases migrate to the survivor.
/// table.release(2);
/// let moves = table.reassign_set(&table.leased_to(0), &[1]);
/// assert_eq!(moves, vec![(0, 1), (4, 1)]);
/// assert_eq!(table.owner(2), None, "completed leases never migrate");
/// assert_eq!(table.outstanding(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct LeaseTable {
    owner: Vec<Option<usize>>,
}

impl LeaseTable {
    /// Partitions `generations` round-robin across `replicas` (replica
    /// `i` gets generations `i`, `i + replicas`, …), the striping that
    /// spreads both wire load and decode work evenly.
    ///
    /// # Panics
    ///
    /// Panics when `replicas == 0`.
    #[must_use]
    pub fn partition(generations: u32, replicas: usize) -> LeaseTable {
        assert!(replicas > 0, "cannot lease to zero replicas");
        let owner = (0..generations as usize).map(|g| Some(g % replicas)).collect();
        LeaseTable { owner }
    }

    /// The generations currently leased to `replica`, in index order.
    #[must_use]
    pub fn leased_to(&self, replica: usize) -> Vec<u32> {
        self.owner
            .iter()
            .enumerate()
            .filter(|(_, owner)| **owner == Some(replica))
            .map(|(g, _)| g as u32)
            .collect()
    }

    /// Current owner of a generation (`None` once released or for an
    /// out-of-range index).
    #[must_use]
    pub fn owner(&self, generation: u32) -> Option<usize> {
        self.owner.get(generation as usize).copied().flatten()
    }

    /// Number of generations still under lease.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.owner.iter().filter(|o| o.is_some()).count()
    }

    /// Drops the lease on a completed generation so it can never be
    /// reassigned. Idempotent; out-of-range indices are ignored.
    pub fn release(&mut self, generation: u32) {
        if let Some(owner) = self.owner.get_mut(generation as usize) {
            *owner = None;
        }
    }

    /// Moves exactly the generations in `set` (skipping any already
    /// released) onto the `survivors` round-robin, returning the
    /// `(generation, new_owner)` moves. This is the per-*stream* failover
    /// primitive: when one session dies, only the generations that
    /// session was responsible for migrate — other streams of the same
    /// replica keep theirs; a whole replica's set is
    /// [`LeaseTable::leased_to`]. An empty survivor list leaves the table
    /// untouched and returns no moves — the caller must treat that as a
    /// fatal loss of service.
    pub fn reassign_set(&mut self, set: &[u32], survivors: &[usize]) -> Vec<(u32, usize)> {
        if survivors.is_empty() {
            return Vec::new();
        }
        let mut moves = Vec::new();
        let mut next = 0usize;
        for &g in set {
            let Some(owner) = self.owner.get_mut(g as usize) else { continue };
            if owner.is_none() {
                continue; // completed and released: never migrates
            }
            let new_owner = survivors[next % survivors.len()];
            next += 1;
            *owner = Some(new_owner);
            moves.push((g, new_owner));
        }
        moves
    }
}

/// Outcome of delivering one packet to a [`SharedReceiver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliverOutcome {
    /// The packet advanced the generation's rank.
    pub useful: bool,
    /// This delivery completed the generation (reported exactly once per
    /// generation, to whichever stream lands the finishing symbol).
    pub newly_complete: bool,
}

/// Thread-safe per-generation decode state shared by several replica
/// streams.
///
/// Functionally [`crate::generation::ReceiverSession`], restructured for
/// concurrency: one mutex per generation (streams striping disjoint
/// generations never block each other) and lock-free completion checks on
/// the hot path.
///
/// # Example
///
/// ```
/// use ltnc_scheme::{SchemeKind, SchemeParams};
/// use ltnc_session::{SharedReceiver, SourceSession};
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let params = SchemeParams::new(SchemeKind::Rlnc, 4, 8);
/// let object: Vec<u8> = (0..64u8).collect(); // 2 generations of 4×8 B
/// let mut source = SourceSession::new(&object, params);
/// let receiver = SharedReceiver::new(*source.manifest());
///
/// // Any number of replica streams may call deliver() concurrently;
/// // here one loop plays them all.
/// let mut rng = SmallRng::seed_from_u64(1);
/// while !receiver.is_complete() {
///     let (gen, packet) = source
///         .make_packet(&mut rng, |g| !receiver.generation_complete(g))
///         .expect("incomplete generations remain");
///     receiver.deliver(gen, &packet);
/// }
/// assert_eq!(receiver.reassemble().unwrap(), object);
/// ```
pub struct SharedReceiver {
    manifest: ObjectManifest,
    nodes: Vec<Mutex<Box<dyn Scheme>>>,
    complete: Vec<AtomicBool>,
    complete_count: AtomicUsize,
}

impl SharedReceiver {
    /// Empty decode state for every generation of `manifest`.
    #[must_use]
    pub fn new(manifest: ObjectManifest) -> SharedReceiver {
        let count = manifest.generation_count() as usize;
        SharedReceiver {
            manifest,
            nodes: (0..count).map(|_| Mutex::new(manifest.params.empty_node())).collect(),
            complete: (0..count).map(|_| AtomicBool::new(false)).collect(),
            complete_count: AtomicUsize::new(0),
        }
    }

    /// The manifest all replicas must agree on.
    #[must_use]
    pub fn manifest(&self) -> &ObjectManifest {
        &self.manifest
    }

    /// Whether one generation has fully decoded (lock-free).
    #[must_use]
    pub fn generation_complete(&self, gen_index: u32) -> bool {
        self.complete.get(gen_index as usize).is_some_and(|c| c.load(Ordering::Acquire))
    }

    /// Number of generations fully decoded so far.
    #[must_use]
    pub fn complete_generations(&self) -> usize {
        self.complete_count.load(Ordering::Acquire)
    }

    /// `true` once every generation has decoded.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.complete_generations() == self.nodes.len()
    }

    /// `true` once every generation in `gens` has decoded.
    #[must_use]
    pub fn generations_complete(&self, gens: &[u32]) -> bool {
        gens.iter().all(|&g| self.generation_complete(g))
    }

    /// The header-first feedback check against the shared state: would
    /// this generation want a packet with this code vector? `false` for
    /// out-of-range generations, completed generations, or vectors of the
    /// wrong length.
    #[must_use]
    pub fn would_accept(&self, gen_index: u32, vector: &CodeVector) -> bool {
        let Some(node) = self.nodes.get(gen_index as usize) else {
            return false;
        };
        if self.generation_complete(gen_index) || vector.len() != self.manifest.params.code_length {
            return false;
        }
        node.lock().expect("generation lock poisoned").would_accept(vector)
    }

    /// Delivers a full packet to a generation, holding only that
    /// generation's lock. Duplicate-rank packets come back
    /// `useful: false` — the striped client counts them as discarded.
    pub fn deliver(&self, gen_index: u32, packet: &EncodedPacket) -> DeliverOutcome {
        let none = DeliverOutcome { useful: false, newly_complete: false };
        let idx = gen_index as usize;
        let Some(node) = self.nodes.get(idx) else {
            return none;
        };
        if packet.code_length() != self.manifest.params.code_length
            || packet.payload_size() != self.manifest.params.payload_size
        {
            return none;
        }
        let mut node = node.lock().expect("generation lock poisoned");
        let useful = node.deliver(packet);
        // The completion flip happens under the generation lock, so
        // exactly one delivering stream observes `newly_complete`.
        let newly_complete = node.is_complete() && !self.complete[idx].swap(true, Ordering::AcqRel);
        if newly_complete {
            self.complete_count.fetch_add(1, Ordering::AcqRel);
        }
        DeliverOutcome { useful, newly_complete }
    }

    /// Useful packets received for a generation (drives the
    /// aggressiveness gate of relays).
    #[must_use]
    pub fn useful_received(&self, gen_index: u32) -> usize {
        self.nodes
            .get(gen_index as usize)
            .map_or(0, |n| n.lock().expect("generation lock poisoned").useful_received())
    }

    /// Recodes a fresh packet from a generation's received state (relay
    /// behaviour).
    pub fn make_packet(&self, gen_index: u32, rng: &mut dyn RngCore) -> Option<EncodedPacket> {
        self.nodes
            .get(gen_index as usize)?
            .lock()
            .expect("generation lock poisoned")
            .make_packet(rng)
    }

    /// What a generation tells a sender with its verdict on an offer
    /// ([`Scheme::summary`]); `None` for out-of-range or completed
    /// generations, for schemes without a summary and when none of
    /// `max_bytes` or fewer can be built.
    #[must_use]
    pub fn summary(&self, gen_index: u32, max_bytes: usize) -> Option<Summary> {
        let node = self.nodes.get(gen_index as usize)?;
        if self.generation_complete(gen_index) {
            return None;
        }
        node.lock().expect("generation lock poisoned").summary(max_bytes)
    }

    /// A packet of a generation that the receiver which sent `summary` is
    /// sure to find innovative ([`Scheme::smart_packet`]), if there is one.
    pub fn smart_packet(
        &self,
        gen_index: u32,
        summary: &Summary,
        rng: &mut dyn RngCore,
    ) -> Option<EncodedPacket> {
        self.nodes
            .get(gen_index as usize)?
            .lock()
            .expect("generation lock poisoned")
            .smart_packet(summary, rng)
    }

    /// Merged decoding counters across all generations.
    #[must_use]
    pub fn decoding_counters(&self) -> OpCounters {
        let mut total = OpCounters::new();
        for node in &self.nodes {
            total.merge(&node.lock().expect("generation lock poisoned").decoding_counters());
        }
        total
    }

    /// Merged recoding counters across all generations (relay emissions).
    #[must_use]
    pub fn recoding_counters(&self) -> OpCounters {
        let mut total = OpCounters::new();
        for node in &self.nodes {
            total.merge(&node.lock().expect("generation lock poisoned").recoding_counters());
        }
        total
    }

    /// Reassembles the object once complete: decodes every generation,
    /// concatenates the natives and trims the tail padding. `None` while
    /// any generation is missing or a decode fails.
    #[must_use]
    pub fn reassemble(&self) -> Option<Vec<u8>> {
        if !self.is_complete() {
            return None;
        }
        let mut object = Vec::with_capacity(self.manifest.object_len as usize);
        for node in &self.nodes {
            let natives = node.lock().expect("generation lock poisoned").decoded_content()?;
            for payload in &natives {
                object.extend_from_slice(payload.as_bytes());
            }
        }
        object.truncate(self.manifest.object_len as usize);
        Some(object)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generation::{split_object, SourceSession};
    use ltnc_gf2::Payload;
    use ltnc_scheme::{SchemeKind, SchemeParams};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn object(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut data = vec![0u8; len];
        rng.fill(&mut data[..]);
        data
    }

    #[test]
    fn partition_is_round_robin_and_covers_everything() {
        let table = LeaseTable::partition(7, 3);
        assert_eq!(table.leased_to(0), vec![0, 3, 6]);
        assert_eq!(table.leased_to(1), vec![1, 4]);
        assert_eq!(table.leased_to(2), vec![2, 5]);
        assert_eq!(table.outstanding(), 7);
        for g in 0..7 {
            assert!(table.owner(g).is_some());
        }
        assert_eq!(table.owner(7), None, "out of range");
    }

    #[test]
    fn reassign_moves_only_outstanding_leases() {
        let mut table = LeaseTable::partition(6, 3);
        // Replica 1 completed generation 1 before dying; only 4 migrates.
        table.release(1);
        let moves = table.reassign_set(&table.leased_to(1), &[0, 2]);
        assert_eq!(moves, vec![(4, 0)]);
        assert_eq!(table.owner(4), Some(0));
        assert_eq!(table.owner(1), None, "released leases stay released");
        assert_eq!(table.leased_to(1), Vec::<u32>::new());
    }

    #[test]
    fn reassign_spreads_across_survivors() {
        let mut table = LeaseTable::partition(9, 3);
        let moves = table.reassign_set(&table.leased_to(2), &[0, 1]);
        // Replica 2 owned 2, 5, 8 → alternating to 0 and 1.
        assert_eq!(moves, vec![(2, 0), (5, 1), (8, 0)]);
        assert!(table.leased_to(2).is_empty());
    }

    #[test]
    fn reassign_set_moves_only_the_named_outstanding_generations() {
        let mut table = LeaseTable::partition(8, 2);
        // Replica 0 owns 0,2,4,6. One of its *streams* held {2, 4}; 4 is
        // already complete.
        table.release(4);
        let moves = table.reassign_set(&[2, 4], &[1]);
        assert_eq!(moves, vec![(2, 1)]);
        assert_eq!(table.owner(2), Some(1));
        assert_eq!(table.owner(4), None, "released lease never migrates");
        assert_eq!(table.leased_to(0), vec![0, 6], "other leases untouched");
    }

    #[test]
    fn reassign_with_no_survivors_is_a_noop() {
        let mut table = LeaseTable::partition(4, 2);
        assert!(table.reassign_set(&table.leased_to(0), &[]).is_empty());
        assert_eq!(table.leased_to(0), vec![0, 2], "leases untouched");
    }

    #[test]
    fn sole_survivor_inherits_every_outstanding_lease() {
        // Two of three replicas die in sequence; the last one standing
        // ends up owning everything still outstanding.
        let mut table = LeaseTable::partition(7, 3);
        table.release(1); // replica 1 finished one generation first
        let first = table.reassign_set(&table.leased_to(1), &[0, 2]);
        assert_eq!(first, vec![(4, 0)]);
        let second = table.reassign_set(&table.leased_to(0), &[2]);
        assert_eq!(second, vec![(0, 2), (3, 2), (4, 2), (6, 2)]);
        assert_eq!(table.leased_to(2), vec![0, 2, 3, 4, 5, 6]);
        assert_eq!(table.outstanding(), 6);
        assert!(table.leased_to(0).is_empty());
        assert!(table.leased_to(1).is_empty());
    }

    #[test]
    fn re_lease_to_the_same_replica_is_allowed() {
        // The striped client re-opens a fresh session on the same replica
        // after a per-stream failure: `from` may appear among the
        // survivors, and its generations then stay put but are reported
        // as moves (the caller re-sends the steering COMPLETEs).
        let mut table = LeaseTable::partition(4, 2);
        let moves = table.reassign_set(&table.leased_to(0), &[0]);
        assert_eq!(moves, vec![(0, 0), (2, 0)]);
        assert_eq!(table.leased_to(0), vec![0, 2]);
        assert_eq!(table.outstanding(), 4, "nothing lost in a self re-lease");
    }

    #[test]
    fn release_of_never_leased_or_out_of_range_generations_is_idempotent() {
        let mut table = LeaseTable::partition(3, 2);
        // Out of range: generation 9 was never part of the object.
        table.release(9);
        assert_eq!(table.outstanding(), 3, "out-of-range release is a no-op");
        // Double release of the same generation.
        table.release(1);
        table.release(1);
        assert_eq!(table.outstanding(), 2);
        assert_eq!(table.owner(1), None);
        // A released generation named explicitly in a set reassignment is
        // skipped, and unknown generations are ignored, not panicked on.
        let moves = table.reassign_set(&[1, 9, 2], &[0]);
        assert_eq!(moves, vec![(2, 0)]);
        assert_eq!(table.owner(9), None);
    }

    #[test]
    fn shared_receiver_decodes_interleaved_streams_bit_exactly() {
        for kind in SchemeKind::ALL {
            let params = SchemeParams::new(kind, 8, 4);
            let data = object(100, 3); // 8×4 = 32 B/gen → 4 generations
            let mut source = SourceSession::new(&data, params);
            let receiver = SharedReceiver::new(*source.manifest());
            let mut rng = SmallRng::seed_from_u64(5);
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
            assert_eq!(receiver.reassemble().unwrap(), data, "{kind:?} mismatch");
        }
    }

    #[test]
    fn newly_complete_fires_exactly_once_per_generation() {
        let params = SchemeParams::new(SchemeKind::Rlnc, 4, 2);
        let data = object(8, 9); // single generation
        let mut source = SourceSession::new(&data, params);
        let receiver = SharedReceiver::new(*source.manifest());
        let mut rng = SmallRng::seed_from_u64(1);
        let mut completions = 0;
        for _ in 0..64 {
            if let Some((gen, packet)) = source.make_packet(&mut rng, |_| true) {
                if receiver.deliver(gen, &packet).newly_complete {
                    completions += 1;
                }
            }
        }
        assert!(receiver.is_complete());
        assert_eq!(completions, 1);
    }

    #[test]
    fn duplicate_deliveries_are_not_useful() {
        let params = SchemeParams::new(SchemeKind::Wc, 4, 2);
        let data = object(8, 11);
        let mut source = SourceSession::new(&data, params);
        let receiver = SharedReceiver::new(*source.manifest());
        let mut rng = SmallRng::seed_from_u64(2);
        let (gen, packet) = source.make_packet(&mut rng, |_| true).unwrap();
        assert!(receiver.deliver(gen, &packet).useful);
        let again = receiver.deliver(gen, &packet);
        assert!(!again.useful, "duplicate-rank symbol must be discarded");
    }

    #[test]
    fn wrong_dimensions_and_bad_generation_are_rejected() {
        let params = SchemeParams::new(SchemeKind::Rlnc, 6, 3);
        let (manifest, _) = split_object(&object(18, 4), params);
        let receiver = SharedReceiver::new(manifest);
        let wrong_k = EncodedPacket::native(9, 0, Payload::zero(3));
        assert_eq!(
            receiver.deliver(0, &wrong_k),
            DeliverOutcome { useful: false, newly_complete: false }
        );
        assert!(!receiver.would_accept(42, &CodeVector::singleton(6, 0)));
        assert!(receiver.would_accept(0, &CodeVector::singleton(6, 0)));
    }
}
