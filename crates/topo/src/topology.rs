//! Declarative overlay graphs: which node can talk to which.
//!
//! A [`Topology`] is an undirected connectivity graph over `n` overlay
//! nodes, built by one of the shape constructors (line, ring, star,
//! binary tree, complete, seeded random k-regular) or from an explicit
//! edge list. It knows nothing about sockets or schemes — the harness in
//! [`crate::run`] lowers it onto the UDP swarm. Everything here is
//! deterministic: the random-regular constructor derives the whole graph
//! from its seed, so a topology run replays exactly.

use std::collections::HashSet;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// An undirected overlay graph over `nodes` overlay nodes.
///
/// Neighbour lists are sorted and deduplicated; self-loops are rejected
/// at construction. Connectivity is *not* enforced here (tests build
/// disconnected graphs on purpose) — the harness checks
/// [`Topology::is_connected`] before running.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    adjacency: Vec<Vec<usize>>,
    label: String,
}

impl Topology {
    /// Builds a topology from an explicit undirected edge list.
    ///
    /// # Panics
    ///
    /// Panics when `nodes == 0`, an endpoint is out of range, or an edge
    /// is a self-loop. Duplicate edges are merged.
    #[must_use]
    pub fn from_edges(
        nodes: usize,
        edges: &[(usize, usize)],
        label: impl Into<String>,
    ) -> Topology {
        assert!(nodes > 0, "a topology needs at least one node");
        let mut adjacency = vec![Vec::new(); nodes];
        for &(a, b) in edges {
            assert!(a < nodes && b < nodes, "edge ({a}, {b}) out of range for {nodes} nodes");
            assert_ne!(a, b, "edge ({a}, {b}) is a self-loop");
            adjacency[a].push(b);
            adjacency[b].push(a);
        }
        for neighbors in &mut adjacency {
            neighbors.sort_unstable();
            neighbors.dedup();
        }
        Topology { adjacency, label: label.into() }
    }

    /// A line `0 — 1 — … — n-1`: the deepest relay chain per node count,
    /// and the paper's multi-hop evaluation shape (source at one end,
    /// every interior node a recoding relay).
    ///
    /// # Panics
    ///
    /// Panics when `nodes < 2`.
    #[must_use]
    pub fn line(nodes: usize) -> Topology {
        assert!(nodes >= 2, "a line needs at least two nodes");
        let edges: Vec<(usize, usize)> = (0..nodes - 1).map(|i| (i, i + 1)).collect();
        Topology::from_edges(nodes, &edges, format!("line({nodes})"))
    }

    /// A ring `0 — 1 — … — n-1 — 0`: every node has exactly two
    /// neighbours and two disjoint paths to the source.
    ///
    /// # Panics
    ///
    /// Panics when `nodes < 3`.
    #[must_use]
    pub fn ring(nodes: usize) -> Topology {
        assert!(nodes >= 3, "a ring needs at least three nodes");
        let edges: Vec<(usize, usize)> = (0..nodes).map(|i| (i, (i + 1) % nodes)).collect();
        Topology::from_edges(nodes, &edges, format!("ring({nodes})"))
    }

    /// A star with node 0 as the hub. With the source placed at a *leaf*
    /// the hub relays between every pair of leaves (2 hops apart).
    ///
    /// # Panics
    ///
    /// Panics when `nodes < 2`.
    #[must_use]
    pub fn star(nodes: usize) -> Topology {
        assert!(nodes >= 2, "a star needs at least two nodes");
        let edges: Vec<(usize, usize)> = (1..nodes).map(|leaf| (0, leaf)).collect();
        Topology::from_edges(nodes, &edges, format!("star({nodes})"))
    }

    /// A complete binary tree in heap order: node `i`'s children are
    /// `2i + 1` and `2i + 2` (when in range), the root is node 0.
    ///
    /// # Panics
    ///
    /// Panics when `nodes < 2`.
    #[must_use]
    pub fn binary_tree(nodes: usize) -> Topology {
        assert!(nodes >= 2, "a tree needs at least two nodes");
        let edges: Vec<(usize, usize)> = (1..nodes).map(|child| ((child - 1) / 2, child)).collect();
        Topology::from_edges(nodes, &edges, format!("tree({nodes})"))
    }

    /// The complete graph: every node adjacent to every other — the
    /// trivial topology that reproduces the legacy full-mesh swarm.
    ///
    /// # Panics
    ///
    /// Panics when `nodes < 2`.
    #[must_use]
    pub fn complete(nodes: usize) -> Topology {
        assert!(nodes >= 2, "a complete graph needs at least two nodes");
        let mut edges = Vec::with_capacity(nodes * (nodes - 1) / 2);
        for a in 0..nodes {
            for b in a + 1..nodes {
                edges.push((a, b));
            }
        }
        Topology::from_edges(nodes, &edges, format!("complete({nodes})"))
    }

    /// A seeded random `degree`-regular simple graph: every node gets
    /// exactly `degree` distinct neighbours. The same seed always yields
    /// the same graph. Disconnected draws are rejected and redrawn, so
    /// the result is always connected.
    ///
    /// Up to degree 4 this is the pairing model with rejection. Its
    /// acceptance rate falls like e^−(d²−1)/4 (≈ 10⁻²⁸ at degree 16, the
    /// paper's view size), so denser graphs start from a circulant graph
    /// and are randomised by degree-preserving edge switches.
    ///
    /// # Panics
    ///
    /// Panics when the parameters admit no such graph
    /// (`degree == 0`, `degree >= nodes`, or `nodes × degree` odd), or
    /// when no connected simple matching is found after many attempts
    /// (practically unreachable for sane parameters).
    #[must_use]
    pub fn random_regular(nodes: usize, degree: usize, seed: u64) -> Topology {
        assert!(degree >= 1, "degree must be at least 1");
        assert!(degree < nodes, "degree {degree} impossible with {nodes} nodes");
        assert!((nodes * degree).is_multiple_of(2), "nodes × degree must be even");
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x70_70_70);
        let label = format!("kregular({nodes},{degree})");
        if degree > 4 {
            return Topology::switched_circulant(nodes, degree, &mut rng, label);
        }
        // Pairing model: shuffle `degree` stubs per node, pair them off,
        // reject draws with self-loops, parallel edges, or a
        // disconnected result. Succeeds within a few attempts whp for
        // any sane (nodes, degree).
        for _ in 0..1000 {
            let mut stubs: Vec<usize> =
                (0..nodes).flat_map(|i| std::iter::repeat_n(i, degree)).collect();
            for i in (1..stubs.len()).rev() {
                stubs.swap(i, rng.gen_range(0..=i));
            }
            let edges: Vec<(usize, usize)> =
                stubs.chunks_exact(2).map(|pair| (pair[0], pair[1])).collect();
            let simple = edges.iter().all(|&(a, b)| a != b) && {
                let mut sorted: Vec<(usize, usize)> =
                    edges.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
                sorted.sort_unstable();
                sorted.windows(2).all(|w| w[0] != w[1])
            };
            if !simple {
                continue;
            }
            let topology = Topology::from_edges(nodes, &edges, label.clone());
            if topology.is_connected() {
                return topology;
            }
        }
        panic!("no connected {degree}-regular graph on {nodes} nodes found (seed {seed:#x})");
    }

    /// The overlay of the paper's epidemic (§IV-A): `peers` nodes on a
    /// seeded random `view`-regular graph — the partial views of its peer
    /// sampling service — plus node 0, the source, adjacent to every peer,
    /// as the paper's source injects into uniformly random nodes. (Confined
    /// to `view` neighbours instead, WC's 32-packet buffers strand natives
    /// for good once `k > 32`: at k = 64, 99 of 100 peers after 10 s of
    /// virtual time.)
    ///
    /// # Panics
    ///
    /// As [`Topology::random_regular`] for `peers` nodes of degree `view`.
    #[must_use]
    pub fn epidemic(peers: usize, view: usize, seed: u64) -> Topology {
        let views = Topology::random_regular(peers, view, seed).edges().into_iter();
        let edges: Vec<(usize, usize)> =
            views.map(|(a, b)| (a + 1, b + 1)).chain((1..=peers).map(|peer| (0, peer))).collect();
        Topology::from_edges(peers + 1, &edges, format!("epidemic({peers},{view})"))
    }

    /// The circulant `degree`-regular graph (`i ~ i ± 1 … ± degree/2`,
    /// plus `i ~ i + nodes/2` for odd degrees), randomised by ten
    /// double-edge switches per edge — `a–b, c–d` becomes `a–d, c–b`
    /// unless that makes a loop or a parallel edge — and switched further
    /// while disconnected.
    fn switched_circulant(
        nodes: usize,
        degree: usize,
        rng: &mut SmallRng,
        label: String,
    ) -> Topology {
        let mut edges: Vec<(usize, usize)> = (0..nodes)
            .flat_map(|i| (1..=degree / 2).map(move |k| (i, (i + k) % nodes)))
            .chain((0..nodes / 2).filter(|_| degree % 2 == 1).map(|i| (i, i + nodes / 2)))
            .collect();
        let key = |a: usize, b: usize| (a.min(b), a.max(b));
        let mut present: HashSet<(usize, usize)> = edges.iter().map(|&(a, b)| key(a, b)).collect();
        loop {
            for _ in 0..10 * edges.len() {
                let (i, j) = (rng.gen_range(0..edges.len()), rng.gen_range(0..edges.len()));
                let ((a, b), (c, d)) = (edges[i], edges[j]);
                if a == d || c == b || present.contains(&key(a, d)) || present.contains(&key(c, b))
                {
                    continue;
                }
                present.remove(&key(a, b));
                present.remove(&key(c, d));
                present.extend([key(a, d), key(c, b)]);
                (edges[i], edges[j]) = ((a, d), (c, b));
            }
            let topology = Topology::from_edges(nodes, &edges, label.clone());
            if topology.is_connected() {
                return topology;
            }
        }
    }

    /// Number of overlay nodes.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.adjacency.len()
    }

    /// A short human-readable shape label, e.g. `line(5)`.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The sorted neighbour list of node `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    #[must_use]
    pub fn neighbors(&self, index: usize) -> &[usize] {
        &self.adjacency[index]
    }

    /// Every undirected edge once, as `(low, high)` pairs in order.
    #[must_use]
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut edges = Vec::new();
        for (a, neighbors) in self.adjacency.iter().enumerate() {
            for &b in neighbors {
                if a < b {
                    edges.push((a, b));
                }
            }
        }
        edges
    }

    /// Every *directed* link `(from, to)`: both directions of every edge
    /// — the unit per-link fault plans attach to.
    #[must_use]
    pub fn directed_links(&self) -> Vec<(usize, usize)> {
        let mut links = Vec::new();
        for (from, neighbors) in self.adjacency.iter().enumerate() {
            for &to in neighbors {
                links.push((from, to));
            }
        }
        links
    }

    /// Whether every node can reach every other.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        self.distances_from(0).iter().all(Option::is_some)
    }

    /// BFS hop distances from `source`: `None` for unreachable nodes.
    ///
    /// # Panics
    ///
    /// Panics when `source` is out of range.
    #[must_use]
    pub fn distances_from(&self, source: usize) -> Vec<Option<usize>> {
        assert!(source < self.nodes(), "source {source} out of range");
        let mut distances = vec![None; self.nodes()];
        distances[source] = Some(0);
        let mut frontier = vec![source];
        let mut depth = 0;
        while !frontier.is_empty() {
            depth += 1;
            let mut next = Vec::new();
            for &node in &frontier {
                for &neighbor in &self.adjacency[node] {
                    if distances[neighbor].is_none() {
                        distances[neighbor] = Some(depth);
                        next.push(neighbor);
                    }
                }
            }
            frontier = next;
        }
        distances
    }

    /// The largest hop distance from `source` to any reachable node.
    ///
    /// # Panics
    ///
    /// Panics when `source` is out of range.
    #[must_use]
    pub fn eccentricity(&self, source: usize) -> usize {
        self.distances_from(source).into_iter().flatten().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_shape_and_distances() {
        let t = Topology::line(5);
        assert_eq!(t.nodes(), 5);
        assert_eq!(t.label(), "line(5)");
        assert_eq!(t.neighbors(0), &[1]);
        assert_eq!(t.neighbors(2), &[1, 3]);
        assert_eq!(t.neighbors(4), &[3]);
        assert!(t.is_connected());
        let d: Vec<usize> = t.distances_from(0).into_iter().flatten().collect();
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        assert_eq!(t.eccentricity(0), 4);
        assert_eq!(t.eccentricity(2), 2);
    }

    #[test]
    fn ring_star_and_tree_shapes() {
        let ring = Topology::ring(6);
        assert!(ring.adjacency.iter().all(|n| n.len() == 2));
        assert_eq!(ring.eccentricity(0), 3);

        let star = Topology::star(6);
        assert_eq!(star.neighbors(0).len(), 5, "hub touches every leaf");
        assert!((1..6).all(|leaf| star.neighbors(leaf) == [0]));
        assert_eq!(star.eccentricity(1), 2, "leaf to leaf crosses the hub");

        let tree = Topology::binary_tree(7);
        assert_eq!(tree.neighbors(0), &[1, 2]);
        assert_eq!(tree.neighbors(1), &[0, 3, 4]);
        assert_eq!(tree.neighbors(6), &[2]);
        assert_eq!(tree.eccentricity(0), 2);
        assert_eq!(tree.eccentricity(3), 4, "leaf to opposite leaf");
    }

    #[test]
    fn complete_graph_is_one_hop_everywhere() {
        let t = Topology::complete(4);
        assert_eq!(t.edges().len(), 6);
        assert!(t.adjacency.iter().all(|n| n.len() == 3));
        assert_eq!(t.eccentricity(2), 1);
        assert_eq!(t.directed_links().len(), 12);
    }

    #[test]
    fn random_regular_is_seeded_and_valid() {
        let a = Topology::random_regular(10, 3, 42);
        let b = Topology::random_regular(10, 3, 42);
        let c = Topology::random_regular(10, 3, 43);
        assert_eq!(a, b, "same seed, same graph");
        assert_ne!(a, c, "different seed, different graph");
        assert!(a.adjacency.iter().all(|n| n.len() == 3), "exactly degree neighbours");
        assert!(a.is_connected());

        // Past the pairing model: the paper's 16-peer views, and an odd degree.
        for (nodes, degree) in [(101, 16), (40, 7)] {
            let dense = Topology::random_regular(nodes, degree, 42);
            assert_eq!(dense, Topology::random_regular(nodes, degree, 42), "seeded");
            assert!(dense.adjacency.iter().all(|n| n.len() == degree), "{degree}-regular");
            assert!(dense.is_connected());
            let ring = (0..nodes).filter(|&i| dense.neighbors(i).contains(&((i + 1) % nodes)));
            assert!(ring.count() < nodes / 2, "the switches randomised the circulant start");
        }

        let epidemic = Topology::epidemic(40, 16, 42);
        assert_eq!(epidemic.neighbors(0), (1..=40).collect::<Vec<_>>(), "the source reaches all");
        assert!((1..=40).all(|peer| epidemic.neighbors(peer).len() == 17), "16 views + source");
    }

    #[test]
    fn disconnected_graph_is_detected() {
        let t = Topology::from_edges(4, &[(0, 1), (2, 3)], "split");
        assert!(!t.is_connected());
        assert_eq!(t.distances_from(0)[2], None);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_are_rejected() {
        let _ = Topology::from_edges(2, &[(1, 1)], "bad");
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn odd_regular_parameters_are_rejected() {
        let _ = Topology::random_regular(5, 3, 1);
    }
}
