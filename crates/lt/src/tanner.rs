use ltnc_gf2::{CodeVector, Payload};

/// Identifier of a buffered encoded packet inside a [`TannerGraph`].
///
/// Ids are stable for the lifetime of the packet (they are never reused while
/// the packet is alive) which lets callers keep side tables — the LTNC degree
/// index keyed by packet id, for instance — in sync through
/// [`crate::DecodeEvent`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketId(pub(crate) usize);

impl PacketId {
    /// The raw index of this id (useful for diagnostics and dense side tables).
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone)]
struct StoredPacket {
    vector: CodeVector,
    payload: Payload,
}

/// The bipartite Tanner graph of buffered encoded packets.
///
/// One side of the graph is the `k` native packets; the other side is the
/// encoded packets currently buffered (all of degree ≥ 2 — degree-1 packets
/// decode immediately and never land here). An edge connects native `x` to
/// encoded packet `y` when `x` participates in the combination `y`. The
/// structure is kept *reduced*: once a native is decoded, the belief
/// propagation decoder removes it from every buffered packet, so a buffered
/// packet's current vector only references undecoded natives.
#[derive(Debug, Clone)]
pub struct TannerGraph {
    k: usize,
    packets: Vec<Option<StoredPacket>>,
    /// For each native index, the ids of live packets whose vector contains it.
    native_edges: Vec<Vec<PacketId>>,
    live: usize,
}

impl TannerGraph {
    /// Creates an empty graph over `k` native packets.
    #[must_use]
    pub fn new(k: usize) -> Self {
        TannerGraph { k, packets: Vec::new(), native_edges: vec![Vec::new(); k], live: 0 }
    }

    /// Code length `k`.
    #[must_use]
    pub fn code_length(&self) -> usize {
        self.k
    }

    /// Number of live (buffered) packets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` when no packet is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Inserts a packet and returns its id. The caller is responsible for only
    /// inserting packets of degree ≥ 1 over the right code length.
    pub fn insert(&mut self, vector: CodeVector, payload: Payload) -> PacketId {
        debug_assert_eq!(vector.len(), self.k);
        let id = PacketId(self.packets.len());
        for x in vector.iter_ones() {
            self.native_edges[x].push(id);
        }
        self.packets.push(Some(StoredPacket { vector, payload }));
        self.live += 1;
        id
    }

    /// Read-only view of a live packet.
    #[must_use]
    pub fn packet(&self, id: PacketId) -> Option<(&CodeVector, &Payload)> {
        self.packets.get(id.0).and_then(|slot| slot.as_ref()).map(|p| (&p.vector, &p.payload))
    }

    /// Current degree of a live packet.
    #[must_use]
    pub fn degree(&self, id: PacketId) -> Option<usize> {
        self.packet(id).map(|(v, _)| v.degree())
    }

    /// Removes a packet and returns its parts. Edges from its natives are
    /// pruned lazily (they are skipped by [`TannerGraph::packets_with_native`]).
    pub fn remove(&mut self, id: PacketId) -> Option<(CodeVector, Payload)> {
        let slot = self.packets.get_mut(id.0)?;
        let removed = slot.take()?;
        self.live -= 1;
        Some((removed.vector, removed.payload))
    }

    /// Ids of the live packets whose (reduced) vector contains native `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x >= k`.
    #[must_use]
    pub fn packets_with_native(&self, x: usize) -> Vec<PacketId> {
        self.native_edges[x]
            .iter()
            .copied()
            .filter(|id| self.packets[id.0].as_ref().is_some_and(|p| p.vector.contains(x)))
            .collect()
    }

    /// Removes native `x` (whose decoded payload is `value`) from every live
    /// packet that contains it, XOR-ing the payloads. Returns the affected
    /// packet ids with their new degree. The edge lists for `x` are cleared.
    ///
    /// This is the propagation primitive of belief propagation; the number of
    /// returned entries is the number of payload XOR operations performed.
    /// Each XOR has a distinct destination (the buffered packet's payload), so
    /// the work is one word-sliced [`Payload::xor_assign`] per touched packet —
    /// there is nothing to batch here, unlike the encode/recode folds.
    pub fn eliminate_native(&mut self, x: usize, value: &Payload) -> Vec<(PacketId, usize)> {
        let ids = std::mem::take(&mut self.native_edges[x]);
        let mut touched = Vec::with_capacity(ids.len());
        for id in ids {
            if let Some(p) = self.packets[id.0].as_mut() {
                if p.vector.contains(x) {
                    p.vector.clear(x);
                    p.payload.xor_assign(value);
                    touched.push((id, p.vector.degree()));
                }
            }
        }
        touched
    }

    /// Iterates over the ids of all live packets.
    pub fn ids(&self) -> impl Iterator<Item = PacketId> + '_ {
        self.packets.iter().enumerate().filter(|(_, slot)| slot.is_some()).map(|(i, _)| PacketId(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cv(k: usize, idx: &[usize]) -> CodeVector {
        CodeVector::from_indices(k, idx)
    }

    #[test]
    fn empty_graph() {
        let g = TannerGraph::new(8);
        assert!(g.is_empty());
        assert_eq!(g.len(), 0);
        assert_eq!(g.code_length(), 8);
        assert!(g.packets_with_native(3).is_empty());
    }

    #[test]
    fn insert_and_lookup() {
        let mut g = TannerGraph::new(8);
        let id = g.insert(cv(8, &[1, 3]), Payload::from_vec(vec![7; 4]));
        assert_eq!(g.len(), 1);
        assert_eq!(g.degree(id), Some(2));
        let (v, p) = g.packet(id).unwrap();
        assert_eq!(v.ones(), vec![1, 3]);
        assert_eq!(p.as_bytes(), &[7; 4]);
        assert_eq!(g.packets_with_native(1), vec![id]);
        assert_eq!(g.packets_with_native(3), vec![id]);
        assert!(g.packets_with_native(2).is_empty());
    }

    #[test]
    fn remove_makes_packet_unreachable() {
        let mut g = TannerGraph::new(8);
        let id = g.insert(cv(8, &[1, 3]), Payload::zero(4));
        let (v, _) = g.remove(id).unwrap();
        assert_eq!(v.ones(), vec![1, 3]);
        assert!(g.is_empty());
        assert_eq!(g.packet(id), None);
        assert!(g.packets_with_native(1).is_empty());
        assert_eq!(g.remove(id), None);
    }

    #[test]
    fn ids_are_not_reused() {
        let mut g = TannerGraph::new(4);
        let a = g.insert(cv(4, &[0, 1]), Payload::zero(1));
        g.remove(a);
        let b = g.insert(cv(4, &[2, 3]), Payload::zero(1));
        assert_ne!(a, b);
    }

    #[test]
    fn eliminate_native_reduces_packets() {
        let mut g = TannerGraph::new(4);
        let a = g.insert(cv(4, &[0, 1]), Payload::from_vec(vec![0b11]));
        let b = g.insert(cv(4, &[1, 2, 3]), Payload::from_vec(vec![0b111]));
        let touched = g.eliminate_native(1, &Payload::from_vec(vec![0b01]));
        let mut touched_ids: Vec<_> = touched.iter().map(|&(id, _)| id).collect();
        touched_ids.sort();
        assert_eq!(touched_ids, vec![a, b]);
        assert_eq!(g.degree(a), Some(1));
        assert_eq!(g.degree(b), Some(2));
        assert_eq!(g.packet(a).unwrap().1.as_bytes(), &[0b10]);
        assert_eq!(g.packet(b).unwrap().1.as_bytes(), &[0b110]);
        // Edges for native 1 are gone.
        assert!(g.packets_with_native(1).is_empty());
    }

    #[test]
    fn eliminate_native_skips_removed_packets() {
        let mut g = TannerGraph::new(4);
        let a = g.insert(cv(4, &[0, 1]), Payload::from_vec(vec![1]));
        g.remove(a);
        let touched = g.eliminate_native(1, &Payload::from_vec(vec![9]));
        assert!(touched.is_empty());
    }

    #[test]
    fn packets_with_native_filters_stale_edges() {
        let mut g = TannerGraph::new(4);
        let a = g.insert(cv(4, &[0, 1]), Payload::from_vec(vec![1]));
        // Eliminating native 0 leaves a stale edge entry for packet `a` only
        // under native 0 (cleared), not under native 1.
        g.eliminate_native(0, &Payload::from_vec(vec![2]));
        assert_eq!(g.packets_with_native(1), vec![a]);
        assert!(g.packets_with_native(0).is_empty());
    }

    #[test]
    fn ids_iterates_live_packets_only() {
        let mut g = TannerGraph::new(4);
        let a = g.insert(cv(4, &[0, 1]), Payload::zero(1));
        let b = g.insert(cv(4, &[2, 3]), Payload::zero(1));
        g.remove(a);
        let ids: Vec<_> = g.ids().collect();
        assert_eq!(ids, vec![b]);
    }
}
