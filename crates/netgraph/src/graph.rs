//! Weighted undirected graphs.
//!
//! The paper models the network as a graph `G = (V, E)` of processors and
//! point-to-point FIFO links, and runs the arrow protocol on a pre-selected spanning
//! tree `T` of `G`. [`Graph`] is the shared representation used by the topology
//! generators, the spanning-tree constructors, the distance/stretch computations and
//! the protocol harness.
//!
//! Internally the graph keeps two adjacency representations: per-node `Vec`s used
//! while the graph is being built, and a CSR (compressed sparse row) view — one flat
//! `Vec<(NodeId, f64)>` plus an offsets array — frozen lazily on the first
//! [`Graph::neighbors`] query. All hot read paths (BFS/Dijkstra, protocol routing,
//! stretch computation) iterate the CSR view, which is contiguous in memory and
//! avoids a pointer chase per node. Any mutation invalidates the frozen view.

use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Node identifier — an index in `0..graph.node_count()`.
pub type NodeId = usize;

/// An undirected edge with a positive weight (latency in time units).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// One endpoint.
    pub u: NodeId,
    /// Other endpoint.
    pub v: NodeId,
    /// Edge weight (latency). Must be positive.
    pub weight: f64,
}

/// Frozen compressed-sparse-row adjacency: `flat[offsets[u]..offsets[u + 1]]` is the
/// neighbor list of `u`.
#[derive(Debug, Clone)]
struct Csr {
    offsets: Vec<usize>,
    flat: Vec<(NodeId, f64)>,
}

impl Csr {
    fn build(adjacency: &[Vec<(NodeId, f64)>]) -> Self {
        let mut offsets = Vec::with_capacity(adjacency.len() + 1);
        let total: usize = adjacency.iter().map(Vec::len).sum();
        let mut flat = Vec::with_capacity(total);
        offsets.push(0);
        for list in adjacency {
            flat.extend_from_slice(list);
            offsets.push(flat.len());
        }
        Csr { offsets, flat }
    }
}

/// A weighted undirected graph stored as adjacency lists with a lazily frozen CSR
/// view for queries.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Graph {
    n: usize,
    /// adjacency[u] = list of (neighbor, weight); the build-time representation.
    adjacency: Vec<Vec<(NodeId, f64)>>,
    edges: Vec<Edge>,
    /// True while every inserted edge has weight exactly 1 (kept incrementally so
    /// the BFS fast path can be selected in O(1)).
    unit_weights: bool,
    /// CSR view, frozen on first neighbor query and reset by mutation.
    #[serde(skip)]
    csr: OnceLock<Csr>,
}

impl Default for Graph {
    fn default() -> Self {
        Graph::new(0)
    }
}

impl Graph {
    /// Create a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        Graph {
            n,
            adjacency: vec![Vec::new(); n],
            edges: Vec::new(),
            unit_weights: true,
            csr: OnceLock::new(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// All edges in insertion order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Iterate over the nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.n
    }

    /// Add an undirected edge `{u, v}` with unit weight.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        self.add_weighted_edge(u, v, 1.0);
    }

    /// Add an undirected edge `{u, v}` with the given positive weight.
    ///
    /// # Panics
    /// If `u == v`, if either endpoint is out of range, if the weight is not positive
    /// and finite, or if the edge already exists.
    pub fn add_weighted_edge(&mut self, u: NodeId, v: NodeId, weight: f64) {
        assert!(
            !self.has_edge(u, v),
            "edge ({u},{v}) already present; parallel edges are not allowed"
        );
        self.add_weighted_edge_unchecked(u, v, weight);
    }

    /// Add an undirected edge `{u, v}` without the O(deg) duplicate-edge scan.
    ///
    /// Intended for generators whose construction is duplicate-free by design (grid,
    /// complete graph, hypercube, Prüfer decoding, …), where the per-edge scan turns
    /// an `O(m)` build into `O(n·m)`. Duplicates are still caught in debug builds.
    ///
    /// # Panics
    /// If `u == v`, either endpoint is out of range, or the weight is not positive
    /// and finite. In debug builds, also if the edge already exists.
    pub fn add_weighted_edge_unchecked(&mut self, u: NodeId, v: NodeId, weight: f64) {
        assert!(u != v, "self-loops are not allowed ({u})");
        assert!(u < self.n && v < self.n, "edge ({u},{v}) out of range");
        assert!(
            weight > 0.0 && weight.is_finite(),
            "edge weight must be positive and finite, got {weight}"
        );
        debug_assert!(
            !self.has_edge(u, v),
            "edge ({u},{v}) already present; parallel edges are not allowed"
        );
        self.adjacency[u].push((v, weight));
        self.adjacency[v].push((u, weight));
        self.edges.push(Edge { u, v, weight });
        if weight != 1.0 {
            self.unit_weights = false;
        }
        self.csr.take();
    }

    /// Build a graph over `n` nodes from an edge list known to be duplicate-free
    /// (batch variant of [`Graph::add_weighted_edge_unchecked`] that sizes the
    /// adjacency lists exactly once).
    pub fn from_edges_unchecked(n: usize, edges: &[(NodeId, NodeId, f64)]) -> Self {
        let mut degree = vec![0usize; n];
        for &(u, v, _) in edges {
            assert!(u != v, "self-loops are not allowed ({u})");
            assert!(u < n && v < n, "edge ({u},{v}) out of range");
            degree[u] += 1;
            degree[v] += 1;
        }
        let mut g = Graph {
            n,
            adjacency: degree.into_iter().map(Vec::with_capacity).collect(),
            edges: Vec::with_capacity(edges.len()),
            unit_weights: true,
            csr: OnceLock::new(),
        };
        for &(u, v, w) in edges {
            assert!(
                w > 0.0 && w.is_finite(),
                "edge weight must be positive and finite, got {w}"
            );
            debug_assert!(!g.has_edge(u, v), "duplicate edge ({u},{v})");
            g.adjacency[u].push((v, w));
            g.adjacency[v].push((u, w));
            g.edges.push(Edge { u, v, weight: w });
            if w != 1.0 {
                g.unit_weights = false;
            }
        }
        g
    }

    /// True if the edge `{u, v}` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u < self.n && self.adjacency[u].iter().any(|&(w, _)| w == v)
    }

    /// Weight of edge `{u, v}` if present.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        if u >= self.n {
            return None;
        }
        self.adjacency[u]
            .iter()
            .find(|&&(w, _)| w == v)
            .map(|&(_, weight)| weight)
    }

    /// The frozen CSR view, built on first use.
    #[inline]
    fn csr(&self) -> &Csr {
        self.csr.get_or_init(|| Csr::build(&self.adjacency))
    }

    /// Neighbors of `u` with edge weights.
    ///
    /// Served from the CSR view (frozen on first call); a contiguous slice with no
    /// per-node indirection.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[(NodeId, f64)] {
        debug_assert!(u < self.n, "node {u} out of range");
        let csr = self.csr();
        let lo = csr.offsets[u];
        let hi = csr.offsets[u + 1];
        debug_assert!(lo <= hi && hi <= csr.flat.len(), "corrupt CSR offsets");
        &csr.flat[lo..hi]
    }

    /// Degree of `u`.
    pub fn degree(&self, u: NodeId) -> usize {
        self.adjacency[u].len()
    }

    /// Maximum degree over all nodes (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.n).map(|u| self.degree(u)).max().unwrap_or(0)
    }

    /// True if every edge has weight exactly 1 (O(1): tracked incrementally).
    pub fn is_unweighted(&self) -> bool {
        self.unit_weights
    }

    /// True if the graph is connected (the empty graph and 1-node graph are connected).
    pub fn is_connected(&self) -> bool {
        if self.n <= 1 {
            return true;
        }
        let mut seen = vec![false; self.n];
        let mut stack = vec![0];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &(v, _) in self.neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == self.n
    }

    /// True if the graph is a tree: connected with exactly `n - 1` edges.
    pub fn is_tree(&self) -> bool {
        self.n > 0 && self.edge_count() == self.n - 1 && self.is_connected()
    }

    /// Build a graph from an explicit edge list over `n` nodes.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId, f64)]) -> Self {
        let mut g = Graph::new(n);
        for &(u, v, w) in edges {
            g.add_weighted_edge(u, v, w);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_single_node_graphs_are_connected() {
        assert!(Graph::new(0).is_connected());
        assert!(Graph::new(1).is_connected());
        assert!(!Graph::new(2).is_connected());
    }

    #[test]
    fn add_edge_updates_adjacency_both_ways() {
        let mut g = Graph::new(3);
        g.add_weighted_edge(0, 2, 2.5);
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 1));
        assert_eq!(g.edge_weight(2, 0), Some(2.5));
        assert_eq!(g.edge_weight(0, 1), None);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 0);
        assert_eq!(g.max_degree(), 1);
        assert!(!g.is_unweighted());
    }

    #[test]
    fn path_graph_is_a_tree() {
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        assert!(g.is_tree());
        assert!(g.is_connected());
        assert!(g.is_unweighted());
    }

    #[test]
    fn cycle_is_not_a_tree() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]);
        assert!(!g.is_tree());
        assert!(g.is_connected());
    }

    #[test]
    fn disconnected_graph_detected() {
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]);
        assert!(!g.is_connected());
        assert!(!g.is_tree());
    }

    #[test]
    fn csr_view_matches_adjacency_and_survives_mutation() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        // Freeze the CSR by querying, then mutate and query again.
        assert_eq!(g.neighbors(1), &[(0, 1.0), (2, 1.0)]);
        g.add_edge(1, 3);
        assert_eq!(g.neighbors(1), &[(0, 1.0), (2, 1.0), (3, 1.0)]);
        assert_eq!(g.neighbors(3), &[(1, 1.0)]);
        assert!(g.neighbors(0).iter().any(|&(v, _)| v == 1));
    }

    #[test]
    fn unchecked_batch_constructor_matches_checked_one() {
        let edges = [(0usize, 1usize, 1.0), (1, 2, 2.0), (2, 3, 1.0), (0, 3, 4.0)];
        let checked = Graph::from_edges(4, &edges);
        let unchecked = Graph::from_edges_unchecked(4, &edges);
        assert_eq!(checked.edge_count(), unchecked.edge_count());
        assert_eq!(checked.is_unweighted(), unchecked.is_unweighted());
        for u in 0..4 {
            assert_eq!(checked.neighbors(u), unchecked.neighbors(u));
        }
    }

    #[test]
    fn unit_weight_flag_tracks_insertions() {
        let mut g = Graph::new(3);
        assert!(g.is_unweighted());
        g.add_edge(0, 1);
        assert!(g.is_unweighted());
        g.add_weighted_edge(1, 2, 0.5);
        assert!(!g.is_unweighted());
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        Graph::new(2).add_edge(1, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        Graph::new(2).add_edge(0, 5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_weight_panics() {
        Graph::new(2).add_weighted_edge(0, 1, 0.0);
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn parallel_edge_panics() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
    }
}
