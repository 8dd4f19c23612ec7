//! Shortest paths, distance matrices, eccentricities, diameter and radius.
//!
//! The analysis of the arrow protocol is phrased in terms of the graph distance
//! `d_G(u, v)` and the tree distance `d_T(u, v)` (Section 3.1); the competitive bounds
//! depend on the tree's diameter `D` and its stretch `s`. This module provides the
//! distance machinery: Dijkstra (weighted), BFS (unweighted fast path) and all-pairs
//! distance matrices.
//!
//! The all-pairs computation is the hot path of every experiment sweep, so
//! [`DistanceMatrix::new`] runs parent-free single-source kernels that write straight
//! into the matrix rows and reuse one scratch heap/queue across all sources (no
//! per-source allocation). Sweeps that evaluate many runs on one topology should
//! compute the matrix once and share it via [`DistanceMatrix::shared`].

use crate::graph::{Graph, NodeId};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

/// Result of a single-source shortest path computation.
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    /// Source node.
    pub source: NodeId,
    /// Distance from the source to each node (`f64::INFINITY` if unreachable).
    pub dist: Vec<f64>,
    /// Predecessor of each node on a shortest path from the source (`None` for the
    /// source itself and unreachable nodes).
    pub parent: Vec<Option<NodeId>>,
}

impl ShortestPaths {
    /// Reconstruct a shortest path from the source to `target` (inclusive of both
    /// endpoints). Returns `None` if `target` is unreachable.
    pub fn path_to(&self, target: NodeId) -> Option<Vec<NodeId>> {
        if self.dist[target].is_infinite() {
            return None;
        }
        let mut path = vec![target];
        let mut cur = target;
        while let Some(p) = self.parent[cur] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        Some(path)
    }
}

#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by distance; tie-break on node id for determinism.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Single-source shortest paths with Dijkstra's algorithm.
///
/// Runs in `O((n + m) log n)`. Falls back to BFS automatically when the graph is
/// unweighted (all weights exactly 1; an O(1) check).
pub fn shortest_paths(graph: &Graph, source: NodeId) -> ShortestPaths {
    assert!(source < graph.node_count(), "source out of range");
    if graph.is_unweighted() {
        return bfs(graph, source);
    }
    let n = graph.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[source] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: source,
    });
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        for &(v, w) in graph.neighbors(u) {
            let nd = d + w;
            if nd < dist[v] {
                dist[v] = nd;
                parent[v] = Some(u);
                heap.push(HeapEntry { dist: nd, node: v });
            }
        }
    }
    ShortestPaths {
        source,
        dist,
        parent,
    }
}

/// Single-source shortest paths by breadth-first search (unit edge weights assumed).
pub fn bfs(graph: &Graph, source: NodeId) -> ShortestPaths {
    assert!(source < graph.node_count(), "source out of range");
    let n = graph.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![None; n];
    let mut queue = VecDeque::new();
    dist[source] = 0.0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        for &(v, _) in graph.neighbors(u) {
            if dist[v].is_infinite() {
                dist[v] = dist[u] + 1.0;
                parent[v] = Some(u);
                queue.push_back(v);
            }
        }
    }
    ShortestPaths {
        source,
        dist,
        parent,
    }
}

/// Parent-free BFS kernel writing distances into `dist` (must be `INFINITY`-filled,
/// length `n`). `queue` is caller-owned scratch, cleared on entry.
fn bfs_dist_into(graph: &Graph, source: NodeId, dist: &mut [f64], queue: &mut VecDeque<NodeId>) {
    queue.clear();
    dist[source] = 0.0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u];
        for &(v, _) in graph.neighbors(u) {
            if dist[v].is_infinite() {
                dist[v] = du + 1.0;
                queue.push_back(v);
            }
        }
    }
}

/// Parent-free Dijkstra kernel writing distances into `dist` (must be
/// `INFINITY`-filled, length `n`). `heap` is caller-owned scratch, cleared on entry.
fn dijkstra_dist_into(
    graph: &Graph,
    source: NodeId,
    dist: &mut [f64],
    heap: &mut BinaryHeap<HeapEntry>,
) {
    heap.clear();
    dist[source] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: source,
    });
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        for &(v, w) in graph.neighbors(u) {
            let nd = d + w;
            if nd < dist[v] {
                dist[v] = nd;
                heap.push(HeapEntry { dist: nd, node: v });
            }
        }
    }
}

/// All-pairs distance matrix, `n` single-source computations.
///
/// Memory is `O(n^2)`; fine up to a few thousand nodes which covers every experiment
/// in the paper (the largest is 76 processors). The computation allocates the matrix
/// once and reuses a single scratch heap/queue across all sources. The one metric
/// known in closed form, the complete graph's with a uniform edge weight
/// ([`DistanceMatrix::uniform`]), stores no entries at all.
#[derive(Debug, Clone)]
pub struct DistanceMatrix {
    n: usize,
    entries: Entries,
}

/// How a [`DistanceMatrix`] holds its distances.
#[derive(Debug, Clone)]
enum Entries {
    /// Every distance, row-major.
    Dense(Vec<f64>),
    /// The complete graph's metric with this edge weight: 0 on the diagonal,
    /// the weight everywhere else.
    Uniform(f64),
}

impl DistanceMatrix {
    /// Compute all-pairs shortest-path distances of `graph`.
    pub fn new(graph: &Graph) -> Self {
        let n = graph.node_count();
        let mut dist = vec![f64::INFINITY; n * n];
        if graph.is_unweighted() {
            let mut queue = VecDeque::with_capacity(n);
            for s in 0..n {
                bfs_dist_into(graph, s, &mut dist[s * n..(s + 1) * n], &mut queue);
            }
        } else {
            let mut heap = BinaryHeap::with_capacity(n);
            for s in 0..n {
                dijkstra_dist_into(graph, s, &mut dist[s * n..(s + 1) * n], &mut heap);
            }
        }
        DistanceMatrix {
            n,
            entries: Entries::Dense(dist),
        }
    }

    /// The distances of the complete graph on `n` nodes whose edges all weigh
    /// `weight` (`generators::complete(n, weight)`), in closed form: the same
    /// matrix as [`DistanceMatrix::new`] of that graph, without building it or
    /// running `n` searches, in `O(1)` memory.
    ///
    /// # Panics
    /// If `weight` is not positive and finite.
    pub fn uniform(n: usize, weight: f64) -> Self {
        assert!(
            weight > 0.0 && weight.is_finite(),
            "edge weight must be positive and finite"
        );
        DistanceMatrix {
            n,
            entries: Entries::Uniform(weight),
        }
    }

    /// Compute the matrix and wrap it in an [`Arc`] so sweeps can share one
    /// computation per topology across many runs (and across threads).
    pub fn shared(graph: &Graph) -> Arc<Self> {
        Arc::new(DistanceMatrix::new(graph))
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Distance between `u` and `v` (`INFINITY` if disconnected).
    #[inline]
    pub fn dist(&self, u: NodeId, v: NodeId) -> f64 {
        debug_assert!(u < self.n && v < self.n, "pair ({u},{v}) out of range");
        match self.entries {
            Entries::Dense(ref dist) => dist[u * self.n + v],
            Entries::Uniform(_) if u == v => 0.0,
            Entries::Uniform(weight) => weight,
        }
    }

    /// Eccentricity of `u`: max distance to any other node.
    pub fn eccentricity(&self, u: NodeId) -> f64 {
        (0..self.n).map(|v| self.dist(u, v)).fold(0.0_f64, f64::max)
    }

    /// Diameter: max eccentricity over all nodes. 0 for graphs with < 2 nodes.
    pub fn diameter(&self) -> f64 {
        (0..self.n)
            .map(|u| self.eccentricity(u))
            .fold(0.0, f64::max)
    }

    /// Radius: min eccentricity over all nodes.
    pub fn radius(&self) -> f64 {
        (0..self.n)
            .map(|u| self.eccentricity(u))
            .fold(f64::INFINITY, f64::min)
    }

    /// A node with minimum eccentricity (a "center"), breaking ties by smallest id.
    pub fn center(&self) -> Option<NodeId> {
        (0..self.n).min_by(|&a, &b| {
            self.eccentricity(a)
                .partial_cmp(&self.eccentricity(b))
                .unwrap_or(Ordering::Equal)
        })
    }

    /// True if every pair of nodes is at finite distance.
    pub fn is_connected(&self) -> bool {
        match self.entries {
            Entries::Dense(ref dist) => dist.iter().all(|d| d.is_finite()),
            Entries::Uniform(_) => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn path_graph(n: usize) -> Graph {
        let edges: Vec<(usize, usize, f64)> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn bfs_distances_on_a_path() {
        let g = path_graph(5);
        let sp = shortest_paths(&g, 0);
        assert_eq!(sp.dist, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(sp.path_to(4), Some(vec![0, 1, 2, 3, 4]));
        assert_eq!(sp.path_to(0), Some(vec![0]));
    }

    #[test]
    fn dijkstra_prefers_lighter_path() {
        // 0 -1- 1 -1- 2  and a heavy direct edge 0 -5- 2
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)]);
        let sp = shortest_paths(&g, 0);
        assert_eq!(sp.dist[2], 2.0);
        assert_eq!(sp.path_to(2), Some(vec![0, 1, 2]));
    }

    #[test]
    fn unreachable_nodes_have_infinite_distance() {
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]);
        let sp = shortest_paths(&g, 0);
        assert!(sp.dist[2].is_infinite());
        assert_eq!(sp.path_to(2), None);
    }

    #[test]
    fn distance_matrix_diameter_radius_center() {
        let g = path_graph(7);
        let dm = DistanceMatrix::new(&g);
        assert_eq!(dm.diameter(), 6.0);
        assert_eq!(dm.radius(), 3.0);
        assert_eq!(dm.center(), Some(3));
        assert!(dm.is_connected());
        assert_eq!(dm.dist(1, 5), 4.0);
        assert_eq!(dm.dist(5, 1), 4.0);
    }

    #[test]
    fn distance_matrix_weighted() {
        let g = Graph::from_edges(4, &[(0, 1, 2.0), (1, 2, 3.0), (2, 3, 4.0), (0, 3, 20.0)]);
        let dm = DistanceMatrix::new(&g);
        assert_eq!(dm.dist(0, 3), 9.0);
        assert_eq!(dm.diameter(), 9.0);
    }

    #[test]
    fn matrix_rows_match_single_source_runs() {
        // Weighted and unweighted matrices must agree with the allocating kernels.
        let weighted = Graph::from_edges(5, &[(0, 1, 2.5), (1, 2, 1.0), (2, 3, 0.5), (3, 4, 4.0)]);
        let unweighted = path_graph(6);
        for g in [&weighted, &unweighted] {
            let dm = DistanceMatrix::new(g);
            for s in 0..g.node_count() {
                let row: Vec<f64> = (0..g.node_count()).map(|v| dm.dist(s, v)).collect();
                assert_eq!(row, shortest_paths(g, s).dist, "source {s}");
            }
        }
    }

    #[test]
    fn uniform_matrix_is_the_complete_graphs() {
        // Unit weight takes the BFS kernel, 2.5 the Dijkstra one.
        for w in [1.0, 2.5] {
            for n in [1, 2, 3, 7, 64, 65] {
                let closed = DistanceMatrix::uniform(n, w);
                let searched = DistanceMatrix::new(&crate::generators::complete(n, w));
                assert_eq!(closed.node_count(), searched.node_count());
                for u in 0..n {
                    for v in 0..n {
                        assert_eq!(closed.dist(u, v), searched.dist(u, v), "n={n} w={w}");
                    }
                }
                assert_eq!(closed.diameter(), searched.diameter(), "n={n} w={w}");
                assert_eq!(closed.radius(), searched.radius(), "n={n} w={w}");
                assert_eq!(closed.center(), searched.center(), "n={n} w={w}");
                assert!(closed.is_connected());
            }
        }
    }

    #[test]
    fn shared_matrix_is_the_same_data() {
        let g = path_graph(4);
        let dm = DistanceMatrix::shared(&g);
        let plain = DistanceMatrix::new(&g);
        for u in 0..4 {
            for v in 0..4 {
                assert_eq!(dm.dist(u, v), plain.dist(u, v));
            }
        }
    }

    #[test]
    fn single_node_graph() {
        let g = Graph::new(1);
        let dm = DistanceMatrix::new(&g);
        assert_eq!(dm.diameter(), 0.0);
        assert_eq!(dm.radius(), 0.0);
        assert!(dm.is_connected());
    }

    #[test]
    fn eccentricity_of_path_endpoint() {
        let g = path_graph(5);
        let dm = DistanceMatrix::new(&g);
        assert_eq!(dm.eccentricity(0), 4.0);
        assert_eq!(dm.eccentricity(2), 2.0);
    }

    #[test]
    #[should_panic(expected = "source out of range")]
    fn out_of_range_source_panics() {
        shortest_paths(&Graph::new(2), 7);
    }
}
