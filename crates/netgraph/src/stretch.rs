//! Stretch of a spanning tree.
//!
//! Definition 3.1 of the paper: given a graph `G` and spanning tree `T`, the stretch is
//! `s := max_{u,v} d_T(u, v) / d_G(u, v)`. The competitive ratio of the arrow protocol
//! is `O(s · log D)`, so every experiment needs `s` (and usually also the average
//! stretch, which governs expected behaviour under uniformly random request origins).

use crate::graph::{Graph, NodeId};
use crate::shortest::DistanceMatrix;
use crate::tree::RootedTree;
use serde::{Deserialize, Serialize};

/// Stretch statistics of a spanning tree relative to its host graph.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct StretchReport {
    /// Maximum stretch over all node pairs (Definition 3.1). At least 1.
    pub max_stretch: f64,
    /// Average stretch over all unordered node pairs.
    pub avg_stretch: f64,
    /// A pair attaining the maximum stretch.
    pub worst_pair: (NodeId, NodeId),
    /// Weighted diameter of the tree (the `D` in the bounds).
    pub tree_diameter: f64,
    /// Weighted diameter of the graph.
    pub graph_diameter: f64,
}

impl StretchReport {
    /// The paper's upper-bound expression `s · (3 ⌈log2(3D)⌉ + 1)` from the proof of
    /// Theorem 3.19 — the concrete constant the measured competitive ratio is compared
    /// against in the experiments (using max(D, 2) to keep the log positive on tiny
    /// trees).
    pub fn upper_bound_constant(&self) -> f64 {
        let d = self.tree_diameter.max(2.0);
        self.max_stretch * (3.0 * (3.0 * d).log2().ceil() + 1.0)
    }
}

/// Compute stretch statistics of `tree` as a spanning tree of `graph`.
///
/// # Panics
/// If node counts differ or the graph is disconnected.
pub fn stretch(graph: &Graph, tree: &RootedTree) -> StretchReport {
    assert_eq!(
        graph.node_count(),
        tree.node_count(),
        "graph and tree must have the same node set"
    );
    stretch_with_distances(tree, &DistanceMatrix::new(graph))
}

/// [`stretch`] from a precomputed all-pairs distance matrix of the graph, so callers
/// that already hold one (e.g. a sweep sharing an `Arc<DistanceMatrix>` per
/// topology, or the closed-form matrix of a complete graph) need neither the graph
/// itself nor a second all-pairs computation.
///
/// # Panics
/// If the tree and the matrix differ in node count, or the graph is disconnected.
pub fn stretch_with_distances(tree: &RootedTree, dm: &DistanceMatrix) -> StretchReport {
    let n = tree.node_count();
    assert_eq!(
        n,
        dm.node_count(),
        "distance matrix does not match the tree's node set"
    );
    assert!(dm.is_connected(), "graph must be connected");

    let mut max_stretch: f64 = 1.0;
    let mut worst_pair = (0, 0);
    let mut sum_stretch = 0.0;
    let mut pairs = 0u64;
    for u in 0..n {
        for v in (u + 1)..n {
            let dg = dm.dist(u, v);
            let dt = tree.distance(u, v);
            debug_assert!(
                dt >= dg - 1e-9,
                "tree distance cannot be shorter than graph distance"
            );
            let ratio = if dg > 0.0 { dt / dg } else { 1.0 };
            if ratio > max_stretch {
                max_stretch = ratio;
                worst_pair = (u, v);
            }
            sum_stretch += ratio;
            pairs += 1;
        }
    }
    let avg_stretch = if pairs > 0 {
        sum_stretch / pairs as f64
    } else {
        1.0
    };
    StretchReport {
        max_stretch,
        avg_stretch,
        worst_pair,
        tree_diameter: tree.diameter(),
        graph_diameter: dm.diameter(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::spanning::{build_spanning_tree, SpanningTreeKind};

    #[test]
    fn spanning_tree_of_a_tree_has_stretch_one() {
        let g = generators::balanced_binary_tree(15);
        let t = RootedTree::from_tree_graph(&g, 0);
        let r = stretch(&g, &t);
        assert_eq!(r.max_stretch, 1.0);
        assert_eq!(r.avg_stretch, 1.0);
        assert_eq!(r.tree_diameter, r.graph_diameter);
    }

    #[test]
    fn cycle_with_path_tree_has_stretch_n_minus_one() {
        // Removing one edge of an n-cycle gives a path; the endpoints of the removed
        // edge are at graph distance 1 but tree distance n-1.
        let n = 10;
        let g = generators::cycle(n);
        let t = build_spanning_tree(&g, 0, SpanningTreeKind::ShortestPath);
        let r = stretch(&g, &t);
        assert!(r.max_stretch >= (n - 1) as f64 - 1e-9);
        assert!(r.avg_stretch >= 1.0);
        assert!(r.avg_stretch <= r.max_stretch);
    }

    #[test]
    fn star_tree_on_complete_graph_has_stretch_two() {
        let g = generators::complete(12, 1.0);
        let t = build_spanning_tree(&g, 0, SpanningTreeKind::Star);
        let r = stretch(&g, &t);
        assert_eq!(r.max_stretch, 2.0);
        assert_eq!(r.tree_diameter, 2.0);
        assert_eq!(r.graph_diameter, 1.0);
    }

    #[test]
    fn balanced_binary_tree_on_complete_graph_stretch_matches_depth() {
        let g = generators::complete(15, 1.0);
        let t = build_spanning_tree(&g, 0, SpanningTreeKind::BalancedBinary);
        let r = stretch(&g, &t);
        // Tree diameter is 2*depth = 6, graph diameter 1 => stretch 6.
        assert_eq!(r.max_stretch, 6.0);
        assert_eq!(r.tree_diameter, 6.0);
    }

    #[test]
    fn upper_bound_constant_is_positive_and_grows_with_stretch() {
        let g = generators::complete(15, 1.0);
        let star = stretch(&g, &build_spanning_tree(&g, 0, SpanningTreeKind::Star));
        let bin = stretch(
            &g,
            &build_spanning_tree(&g, 0, SpanningTreeKind::BalancedBinary),
        );
        assert!(star.upper_bound_constant() > 0.0);
        assert!(bin.upper_bound_constant() > star.upper_bound_constant());
    }

    #[test]
    fn worst_pair_attains_max_stretch() {
        let g = generators::cycle(8);
        let t = build_spanning_tree(&g, 0, SpanningTreeKind::ShortestPath);
        let r = stretch(&g, &t);
        let dm = DistanceMatrix::new(&g);
        let (u, v) = r.worst_pair;
        let attained = t.distance(u, v) / dm.dist(u, v);
        assert!((attained - r.max_stretch).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "same node set")]
    fn mismatched_sizes_panic() {
        let g = generators::path(5);
        let t = RootedTree::from_tree_graph(&generators::path(4), 0);
        stretch(&g, &t);
    }
}
