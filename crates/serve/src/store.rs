//! The coded object store: registered objects behind a warm symbol cache.
//!
//! A serving workload is repetitive in a way gossip is not: many clients
//! pull the *same* object, so encoding a fresh symbol per client is
//! wasted work — the insight RECIPE-style serving systems exploit by
//! reusing computed output across requests. The store therefore keeps,
//! per hot generation, a bounded ring of pre-encoded symbols identified
//! by a monotonically increasing sequence number:
//!
//! * a session asks for the symbol at its cursor; if the ring still holds
//!   it, that is a **hit** — the ring hands out another reference to the
//!   shared symbol: no coding work, and no payload copy under the
//!   generation lock;
//! * a cursor past the newest symbol encodes one fresh symbol (a
//!   **miss**), appends it, and evicts the oldest once the ring is at
//!   capacity;
//! * a cursor that fell behind the eviction horizon skips forward to the
//!   oldest retained symbol (the skipped symbols were already seen by
//!   *some* client — rateless codes do not care which ones a given
//!   client gets, only that it gets enough distinct ones).
//!
//! Distinct clients consume identical cached symbols, which is exactly
//! what makes them cheap; a single client never sees the same sequence
//! number twice because its cursor only moves forward.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use ltnc_gf2::EncodedPacket;
use ltnc_scheme::{Scheme, SchemeParams, Summary};
use ltnc_session::generation::{split_object, ObjectManifest};
use ltnc_telemetry::{TraceEvent, Tracer};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::{ServeError, ServeOptions};

/// One generation's warm symbol ring plus the encoder that refills it.
struct GenerationCache {
    /// Source node for this generation: the only thing that ever runs the
    /// encoder on a serving path.
    node: Box<dyn Scheme>,
    /// Pre-encoded symbols, oldest first.
    symbols: VecDeque<Arc<EncodedPacket>>,
    /// Sequence number of `symbols.front()`.
    base_seq: u64,
    rng: SmallRng,
}

impl GenerationCache {
    /// Returns the symbol at `seq`, clamped forward past the eviction
    /// horizon and extended by one freshly encoded symbol when the cursor
    /// is at the head. `None` only if the encoder refuses to produce.
    fn symbol(
        &mut self,
        seq: u64,
        capacity: usize,
        stats: &StoreStats,
        tracer: &Tracer,
        object: u64,
        generation: u32,
    ) -> Option<(u64, Arc<EncodedPacket>)> {
        let seq = seq.max(self.base_seq);
        let offset = (seq - self.base_seq) as usize;
        if offset < self.symbols.len() {
            stats.hits.fetch_add(1, Ordering::Relaxed);
            crate::trace(tracer, || TraceEvent::StoreHit { object, generation });
            return Some((seq, Arc::clone(&self.symbols[offset])));
        }
        // Cursor at (or, after a race on a shrunk ring, past) the head:
        // encode one fresh symbol for the head position.
        stats.misses.fetch_add(1, Ordering::Relaxed);
        crate::trace(tracer, || TraceEvent::StoreMiss { object, generation });
        let packet = Arc::new(self.node.make_packet(&mut self.rng)?);
        let seq = self.base_seq + self.symbols.len() as u64;
        self.symbols.push_back(Arc::clone(&packet));
        if self.symbols.len() > capacity {
            self.symbols.pop_front();
            self.base_seq += 1;
            stats.evictions.fetch_add(1, Ordering::Relaxed);
            crate::trace(tracer, || TraceEvent::StoreEvicted { object, generation });
        }
        Some((seq, packet))
    }
}

/// A registered object: its manifest and one warm cache per generation.
struct StoredObject {
    manifest: ObjectManifest,
    generations: Vec<Mutex<GenerationCache>>,
}

#[derive(Default)]
struct StoreStats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Cache hit/miss accounting of an [`ObjectStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Symbol requests served from the warm ring without coding work.
    pub hits: u64,
    /// Symbol requests that ran the encoder.
    pub misses: u64,
    /// Symbols evicted to keep a ring at capacity.
    pub evictions: u64,
}

/// Thread-safe store of registered objects with per-generation warm
/// symbol caches. Shared between every session of a [`crate::Server`].
pub struct ObjectStore {
    objects: RwLock<HashMap<u64, Arc<StoredObject>>>,
    cache_capacity: usize,
    /// Replica identity salt mixed into every generation encoder's RNG
    /// seed, so distinct replicas of the same object emit distinct symbol
    /// streams (see [`crate::ServeOptions::replica_salt`]).
    salt: u64,
    stats: StoreStats,
    /// Emits `StoreHit`/`StoreMiss`/`StoreEvicted` events; disabled
    /// tracers cost one branch per symbol request.
    tracer: Tracer,
}

impl ObjectStore {
    /// An empty store whose warm rings hold at most `cache_capacity`
    /// symbols per generation, with the default (salt `0`) replica
    /// identity.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidOption`] when `cache_capacity` is zero or
    /// absurd (see [`crate::options::bounds`]).
    pub fn new(cache_capacity: usize) -> Result<Self, ServeError> {
        ObjectStore::with_salt_traced(cache_capacity, 0, Tracer::off())
    }

    /// An empty store with an explicit replica identity salt that emits
    /// `StoreHit`/`StoreMiss`/`StoreEvicted` trace events through
    /// `tracer`.
    ///
    /// # Errors
    ///
    /// Same as [`ObjectStore::new`].
    pub fn with_salt_traced(
        cache_capacity: usize,
        salt: u64,
        tracer: Tracer,
    ) -> Result<Self, ServeError> {
        ServeOptions { warm_cache_capacity: cache_capacity, ..ServeOptions::default() }
            .validate()?;
        Ok(ObjectStore {
            objects: RwLock::new(HashMap::new()),
            cache_capacity,
            salt,
            stats: StoreStats::default(),
            tracer,
        })
    }

    /// Registers `object` under `id`, chunking it into generations and
    /// building one source encoder per generation. Encoding work only
    /// happens later, on cache misses.
    ///
    /// # Errors
    ///
    /// [`ServeError::DuplicateObject`] when `id` is taken;
    /// [`ServeError::BadDimensions`] when `params` is degenerate.
    pub fn register(
        &self,
        id: u64,
        object: &[u8],
        params: SchemeParams,
    ) -> Result<ObjectManifest, ServeError> {
        if params.code_length == 0 || params.payload_size == 0 {
            return Err(ServeError::BadDimensions {
                code_length: params.code_length,
                payload_size: params.payload_size,
            });
        }
        // Cheap duplicate probe before the O(object) chunking below; the
        // insert re-checks under the write lock to close the race.
        if self.objects.read().expect("store lock poisoned").contains_key(&id) {
            return Err(ServeError::DuplicateObject(id));
        }
        let (manifest, generations) = split_object(object, params);
        let caches = generations
            .iter()
            .enumerate()
            .map(|(gen_index, natives)| {
                Mutex::new(GenerationCache {
                    node: params.source_node(natives),
                    symbols: VecDeque::new(),
                    base_seq: 0,
                    rng: SmallRng::seed_from_u64(
                        id ^ ((gen_index as u64) << 32)
                            ^ 0x5EED
                            ^ self.salt.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    ),
                })
            })
            .collect();
        let stored = Arc::new(StoredObject { manifest, generations: caches });
        let mut objects = self.objects.write().expect("store lock poisoned");
        if objects.contains_key(&id) {
            return Err(ServeError::DuplicateObject(id));
        }
        objects.insert(id, stored);
        Ok(manifest)
    }

    /// The manifest of a registered object, if any.
    #[must_use]
    pub fn manifest(&self, id: u64) -> Option<ObjectManifest> {
        self.objects.read().expect("store lock poisoned").get(&id).map(|o| o.manifest)
    }

    /// Number of registered objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.objects.read().expect("store lock poisoned").len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The warm-cache symbol at sequence `seq` of `(id, gen_index)`: the
    /// cached symbol when retained (hit), a freshly encoded one when the
    /// cursor is at or past the head (miss). Returns the *actual*
    /// sequence served so the caller can resume at `actual + 1`: it
    /// jumps forward past evictions, and jumps *backward* to the head
    /// when `seq` points beyond the newest symbol (replica-salted
    /// sessions start with cursors offset into a ring that may not have
    /// grown that far yet — the cursor self-heals on first use). The
    /// symbol is shared with the ring and every other session at that
    /// sequence.
    ///
    /// `None` for unknown objects, out-of-range generations, or an
    /// encoder that refuses to produce.
    #[must_use]
    pub fn symbol(&self, id: u64, gen_index: u32, seq: u64) -> Option<(u64, Arc<EncodedPacket>)> {
        let (capacity, stats, tracer) = (self.cache_capacity, &self.stats, &self.tracer);
        self.with_generation(id, gen_index, |cache| {
            cache.symbol(seq, capacity, stats, tracer, id, gen_index)
        })
    }

    /// A packet of `(id, gen_index)` that the receiver which sent
    /// `summary` is sure to find innovative: built by the generation's
    /// source node (Algorithm 4), which holds a native the receiver lacks
    /// while one is missing. No ring lookup, so neither a hit nor a miss.
    /// `None` for unknown objects or generations, for schemes without
    /// summaries, and for a summary of another code length or one that
    /// claims every native decoded.
    #[must_use]
    pub fn smart_symbol(
        &self,
        id: u64,
        gen_index: u32,
        summary: &Summary,
    ) -> Option<Arc<EncodedPacket>> {
        self.with_generation(id, gen_index, |cache| {
            cache.node.smart_packet(summary, &mut cache.rng).map(Arc::new)
        })
    }

    /// Runs `f` on the cache of `(id, gen_index)` under its lock.
    fn with_generation<T>(
        &self,
        id: u64,
        gen_index: u32,
        f: impl FnOnce(&mut GenerationCache) -> Option<T>,
    ) -> Option<T> {
        let stored = self.objects.read().expect("store lock poisoned").get(&id).cloned()?;
        let mut cache =
            stored.generations.get(gen_index as usize)?.lock().expect("cache lock poisoned");
        f(&mut cache)
    }

    /// Snapshot of the hit/miss/eviction counters.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltnc_scheme::SchemeKind;

    fn store_with_object(capacity: usize, kind: SchemeKind) -> (ObjectStore, ObjectManifest) {
        let store = ObjectStore::new(capacity).expect("valid capacity");
        let object: Vec<u8> = (0..200u32).map(|i| (i * 31 % 256) as u8).collect();
        let manifest =
            store.register(9, &object, SchemeParams::new(kind, 8, 16)).expect("register");
        (store, manifest)
    }

    #[test]
    fn zero_capacity_is_an_error() {
        assert!(matches!(ObjectStore::new(0), Err(ServeError::InvalidOption { .. })));
    }

    #[test]
    fn duplicate_registration_is_an_error() {
        let (store, _) = store_with_object(16, SchemeKind::Rlnc);
        let err = store.register(9, &[1, 2, 3], SchemeParams::new(SchemeKind::Rlnc, 4, 2));
        assert!(matches!(err, Err(ServeError::DuplicateObject(9))));
    }

    #[test]
    fn degenerate_dimensions_are_an_error() {
        let store = ObjectStore::new(4).expect("valid");
        let err = store.register(1, &[1], SchemeParams::new(SchemeKind::Ltnc, 0, 4));
        assert!(matches!(err, Err(ServeError::BadDimensions { .. })));
    }

    #[test]
    fn repeated_sequences_hit_the_cache() {
        let (store, _) = store_with_object(32, SchemeKind::Rlnc);
        // First pass over seqs 0..10 encodes (misses); second pass hits.
        for seq in 0..10 {
            let (actual, _) = store.symbol(9, 0, seq).expect("symbol");
            assert_eq!(actual, seq);
        }
        let after_first = store.cache_stats();
        assert_eq!(after_first.misses, 10);
        assert_eq!(after_first.hits, 0);
        for seq in 0..10 {
            let (_, _) = store.symbol(9, 0, seq).expect("symbol");
        }
        let after_second = store.cache_stats();
        assert_eq!(after_second.misses, 10, "second pass must not re-encode");
        assert_eq!(after_second.hits, 10);
    }

    #[test]
    fn capacity_evicts_oldest_and_clamps_stale_cursors() {
        let (store, _) = store_with_object(4, SchemeKind::Rlnc);
        for seq in 0..8 {
            store.symbol(9, 0, seq).expect("symbol");
        }
        let stats = store.cache_stats();
        assert_eq!(stats.misses, 8);
        assert_eq!(stats.evictions, 4, "ring of 4 kept, 4 evicted");
        // A cursor behind the horizon is clamped forward, not an error.
        let (actual, _) = store.symbol(9, 0, 0).expect("symbol");
        assert_eq!(actual, 4, "oldest retained symbol");
        assert_eq!(store.cache_stats().hits, 1);
    }

    #[test]
    fn identical_sequence_numbers_serve_identical_symbols() {
        let (store, _) = store_with_object(16, SchemeKind::Ltnc);
        let (s1, p1) = store.symbol(9, 1, 0).expect("symbol");
        let (s2, p2) = store.symbol(9, 1, 0).expect("symbol");
        assert_eq!(s1, s2);
        assert_eq!(p1, p2, "two clients at the same cursor share one encode");
    }

    #[test]
    fn distinct_salts_encode_distinct_symbol_streams() {
        // Two replicas of the same object with different salts must not
        // hand a striped client identical (duplicate-rank) prefixes.
        let object: Vec<u8> = (0..200u32).map(|i| (i * 31 % 256) as u8).collect();
        let params = SchemeParams::new(SchemeKind::Rlnc, 8, 16);
        let streams: Vec<Vec<_>> = [1u64, 2]
            .iter()
            .map(|&salt| {
                let store = ObjectStore::with_salt_traced(16, salt, Tracer::off()).expect("store");
                store.register(9, &object, params).expect("register");
                (0..8).map(|seq| store.symbol(9, 0, seq).expect("symbol").1).collect()
            })
            .collect();
        assert_ne!(streams[0], streams[1], "salted replicas must diverge");
    }

    #[test]
    fn unknown_object_or_generation_is_none() {
        let (store, manifest) = store_with_object(16, SchemeKind::Wc);
        assert!(store.symbol(404, 0, 0).is_none());
        assert!(store.symbol(9, manifest.generation_count() + 5, 0).is_none());
    }
}
