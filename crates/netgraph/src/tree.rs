//! Rooted spanning trees: parent arrays, depths, LCA, tree distances and paths.
//!
//! The arrow protocol runs on a pre-selected rooted spanning tree `T`: the link
//! pointers are initialised to point along the tree towards the root (Section 2), a
//! `queue()` message always travels on the unique tree path between the requesting
//! node and the current sink, and the cost analysis is entirely in terms of the tree
//! distance `d_T(u, v)`. [`RootedTree`] provides those primitives with `O(log n)` LCA
//! queries (binary lifting) and `O(1)` distance queries given the LCA.

use crate::graph::{Graph, NodeId};
use serde::{Deserialize, Serialize};

/// A rooted spanning tree over nodes `0..n`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RootedTree {
    root: NodeId,
    parent: Vec<Option<NodeId>>,
    /// Weight of the edge to the parent (0 for the root).
    parent_weight: Vec<f64>,
    children: Vec<Vec<NodeId>>,
    /// Hop depth from the root.
    depth: Vec<usize>,
    /// Weighted distance from the root.
    root_dist: Vec<f64>,
    /// Binary-lifting ancestor table: `up[k][v]` = 2^k-th ancestor of `v` (or root).
    up: Vec<Vec<NodeId>>,
}

impl RootedTree {
    /// Build a rooted tree from a parent array.
    ///
    /// `parents[v]` is `Some((parent, weight))` for every node except the root, which
    /// must be `None`. Exactly one root is required and the structure must be acyclic
    /// and connected.
    ///
    /// # Panics
    /// If there is not exactly one root, or the parent pointers do not form a tree.
    pub fn from_parents(parents: &[Option<(NodeId, f64)>]) -> Self {
        let n = parents.len();
        assert!(n > 0, "tree must have at least one node");
        let roots: Vec<NodeId> = parents
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_none())
            .map(|(i, _)| i)
            .collect();
        assert!(
            roots.len() == 1,
            "expected exactly one root, found {}",
            roots.len()
        );
        let root = roots[0];

        let mut parent = vec![None; n];
        let mut parent_weight = vec![0.0; n];
        let mut children = vec![Vec::new(); n];
        for (v, p) in parents.iter().enumerate() {
            if let Some((u, w)) = *p {
                assert!(u < n, "parent {u} of {v} out of range");
                assert!(w > 0.0 && w.is_finite(), "edge weight must be positive");
                parent[v] = Some(u);
                parent_weight[v] = w;
                children[u].push(v);
            }
        }

        // BFS from the root to compute depths/distances and verify connectivity+acyclicity.
        let mut depth = vec![usize::MAX; n];
        let mut root_dist = vec![f64::INFINITY; n];
        let mut queue = std::collections::VecDeque::new();
        depth[root] = 0;
        root_dist[root] = 0.0;
        queue.push_back(root);
        let mut visited = 1;
        while let Some(u) = queue.pop_front() {
            for &c in &children[u] {
                assert!(depth[c] == usize::MAX, "cycle detected at node {c}");
                depth[c] = depth[u] + 1;
                root_dist[c] = root_dist[u] + parent_weight[c];
                visited += 1;
                queue.push_back(c);
            }
        }
        assert!(
            visited == n,
            "parent array does not form a connected tree ({visited}/{n} reachable)"
        );

        // Binary lifting table.
        let levels = (usize::BITS - (n.max(2) - 1).leading_zeros()) as usize;
        let mut up = vec![vec![root; n]; levels.max(1)];
        for v in 0..n {
            up[0][v] = parent[v].unwrap_or(root);
        }
        for k in 1..up.len() {
            for v in 0..n {
                up[k][v] = up[k - 1][up[k - 1][v]];
            }
        }

        RootedTree {
            root,
            parent,
            parent_weight,
            children,
            depth,
            root_dist,
            up,
        }
    }

    /// Build a rooted tree from an (unrooted) tree graph and a chosen root.
    ///
    /// # Panics
    /// If `graph` is not a tree or `root` is out of range.
    pub fn from_tree_graph(graph: &Graph, root: NodeId) -> Self {
        assert!(graph.is_tree(), "graph is not a tree");
        assert!(root < graph.node_count(), "root out of range");
        let n = graph.node_count();
        let mut parents: Vec<Option<(NodeId, f64)>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut stack = vec![root];
        seen[root] = true;
        while let Some(u) = stack.pop() {
            for &(v, w) in graph.neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    parents[v] = Some((u, w));
                    stack.push(v);
                }
            }
        }
        RootedTree::from_parents(&parents)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.parent.len()
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Parent of `v`, or `None` for the root.
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v]
    }

    /// Weight of the edge from `v` to its parent (0 for the root).
    pub fn parent_edge_weight(&self, v: NodeId) -> f64 {
        self.parent_weight[v]
    }

    /// Children of `v`.
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        &self.children[v]
    }

    /// Hop depth of `v` below the root.
    pub fn depth(&self, v: NodeId) -> usize {
        self.depth[v]
    }

    /// Weighted distance from `v` to the root.
    pub fn root_distance(&self, v: NodeId) -> f64 {
        self.root_dist[v]
    }

    /// Tree neighbours of `v` (parent and children), in deterministic order.
    pub fn neighbors(&self, v: NodeId) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.children[v].len() + 1);
        if let Some(p) = self.parent[v] {
            out.push(p);
        }
        out.extend_from_slice(&self.children[v]);
        out
    }

    /// Lowest common ancestor of `u` and `v`.
    pub fn lca(&self, u: NodeId, v: NodeId) -> NodeId {
        let (mut u, mut v) = (u, v);
        if self.depth[u] < self.depth[v] {
            std::mem::swap(&mut u, &mut v);
        }
        // Lift u to v's depth.
        let mut diff = self.depth[u] - self.depth[v];
        let mut k = 0;
        while diff > 0 {
            if diff & 1 == 1 {
                u = self.up[k][u];
            }
            diff >>= 1;
            k += 1;
        }
        if u == v {
            return u;
        }
        for k in (0..self.up.len()).rev() {
            if self.up[k][u] != self.up[k][v] {
                u = self.up[k][u];
                v = self.up[k][v];
            }
        }
        self.parent[u].expect("nodes in a tree always share an ancestor")
    }

    /// Weighted tree distance `d_T(u, v)`.
    pub fn distance(&self, u: NodeId, v: NodeId) -> f64 {
        let l = self.lca(u, v);
        self.root_dist[u] + self.root_dist[v] - 2.0 * self.root_dist[l]
    }

    /// Hop distance between `u` and `v` on the tree.
    pub fn hop_distance(&self, u: NodeId, v: NodeId) -> usize {
        let l = self.lca(u, v);
        self.depth[u] + self.depth[v] - 2 * self.depth[l]
    }

    /// The unique tree path from `u` to `v`, inclusive of both endpoints.
    pub fn path(&self, u: NodeId, v: NodeId) -> Vec<NodeId> {
        let l = self.lca(u, v);
        let mut up_part = Vec::new();
        let mut cur = u;
        while cur != l {
            up_part.push(cur);
            cur = self.parent[cur].expect("walking up must reach the LCA");
        }
        up_part.push(l);
        let mut down_part = Vec::new();
        let mut cur = v;
        while cur != l {
            down_part.push(cur);
            cur = self.parent[cur].expect("walking up must reach the LCA");
        }
        up_part.extend(down_part.into_iter().rev());
        up_part
    }

    /// Weighted diameter of the tree (max pairwise tree distance), via double sweep.
    pub fn diameter(&self) -> f64 {
        let n = self.node_count();
        if n <= 1 {
            return 0.0;
        }
        // Farthest node from the root, then farthest node from that one.
        let far = |src: NodeId| -> (NodeId, f64) {
            (0..n)
                .map(|v| (v, self.distance(src, v)))
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .unwrap()
        };
        let (a, _) = far(self.root);
        let (_, d) = far(a);
        d
    }

    /// Hop-count diameter of the tree.
    pub fn hop_diameter(&self) -> usize {
        let n = self.node_count();
        if n <= 1 {
            return 0;
        }
        let far = |src: NodeId| -> (NodeId, usize) {
            (0..n)
                .map(|v| (v, self.hop_distance(src, v)))
                .max_by_key(|&(_, d)| d)
                .unwrap()
        };
        let (a, _) = far(self.root);
        let (_, d) = far(a);
        d
    }

    /// Convert the rooted tree into an (unrooted) tree [`Graph`].
    pub fn to_graph(&self) -> Graph {
        let n = self.node_count();
        let mut g = Graph::new(n);
        for v in 0..n {
            if let Some(p) = self.parent[v] {
                g.add_weighted_edge(v, p, self.parent_weight[v]);
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A path 0-1-2-3-4 rooted at 0.
    fn path_tree() -> RootedTree {
        let parents = vec![
            None,
            Some((0, 1.0)),
            Some((1, 1.0)),
            Some((2, 1.0)),
            Some((3, 1.0)),
        ];
        RootedTree::from_parents(&parents)
    }

    /// A balanced binary tree on 7 nodes rooted at 0:
    ///        0
    ///       / \
    ///      1   2
    ///     / \ / \
    ///    3  4 5  6
    fn binary_tree() -> RootedTree {
        let parents = vec![
            None,
            Some((0, 1.0)),
            Some((0, 1.0)),
            Some((1, 1.0)),
            Some((1, 1.0)),
            Some((2, 1.0)),
            Some((2, 1.0)),
        ];
        RootedTree::from_parents(&parents)
    }

    #[test]
    fn basic_structure_queries() {
        let t = binary_tree();
        assert_eq!(t.root(), 0);
        assert_eq!(t.node_count(), 7);
        assert_eq!(t.parent(3), Some(1));
        assert_eq!(t.parent(0), None);
        assert_eq!(t.children(0), &[1, 2]);
        assert_eq!(t.depth(6), 2);
        assert_eq!(t.root_distance(6), 2.0);
        assert_eq!(t.neighbors(1), vec![0, 3, 4]);
    }

    #[test]
    fn lca_and_distance_on_binary_tree() {
        let t = binary_tree();
        assert_eq!(t.lca(3, 4), 1);
        assert_eq!(t.lca(3, 6), 0);
        assert_eq!(t.lca(3, 3), 3);
        assert_eq!(t.lca(1, 3), 1);
        assert_eq!(t.distance(3, 4), 2.0);
        assert_eq!(t.distance(3, 6), 4.0);
        assert_eq!(t.distance(0, 0), 0.0);
        assert_eq!(t.hop_distance(3, 6), 4);
    }

    #[test]
    fn path_and_next_hop() {
        let t = binary_tree();
        assert_eq!(t.path(3, 6), vec![3, 1, 0, 2, 6]);
        assert_eq!(t.path(3, 3), vec![3]);
        assert_eq!(t.path(0, 4), vec![0, 1, 4]);
    }

    #[test]
    fn diameter_of_path_and_binary_tree() {
        assert_eq!(path_tree().diameter(), 4.0);
        assert_eq!(path_tree().hop_diameter(), 4);
        assert_eq!(binary_tree().diameter(), 4.0);
    }

    #[test]
    fn weighted_distances() {
        let parents = vec![None, Some((0, 2.0)), Some((1, 3.0)), Some((0, 10.0))];
        let t = RootedTree::from_parents(&parents);
        assert_eq!(t.distance(2, 3), 15.0);
        assert_eq!(t.root_distance(2), 5.0);
        assert_eq!(t.diameter(), 15.0);
    }

    #[test]
    fn from_tree_graph_and_back() {
        let g = Graph::from_edges(5, &[(0, 1, 1.0), (1, 2, 1.0), (1, 3, 2.0), (3, 4, 1.0)]);
        let t = RootedTree::from_tree_graph(&g, 2);
        assert_eq!(t.root(), 2);
        assert_eq!(t.distance(0, 4), 4.0);
        let g2 = t.to_graph();
        assert_eq!(g2.edge_count(), 4);
        assert!(g2.is_tree());
        assert_eq!(g2.edge_weight(1, 3), Some(2.0));
    }

    #[test]
    fn rerooting_preserves_distances() {
        let t = binary_tree();
        let t2 = RootedTree::from_tree_graph(&t.to_graph(), 5);
        assert_eq!(t2.root(), 5);
        for u in 0..7 {
            for v in 0..7 {
                assert_eq!(t.distance(u, v), t2.distance(u, v));
            }
        }
    }

    #[test]
    fn single_node_tree() {
        let t = RootedTree::from_parents(&[None]);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.diameter(), 0.0);
        assert_eq!(t.distance(0, 0), 0.0);
        assert_eq!(t.lca(0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "exactly one root")]
    fn two_roots_panics() {
        RootedTree::from_parents(&[None, None]);
    }

    #[test]
    #[should_panic(expected = "not a tree")]
    fn from_non_tree_graph_panics() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]);
        RootedTree::from_tree_graph(&g, 0);
    }

    #[test]
    #[should_panic(expected = "connected tree")]
    fn cyclic_parents_panic() {
        // 1 and 2 form a cycle disconnected from the root 0.
        RootedTree::from_parents(&[None, Some((2, 1.0)), Some((1, 1.0))]);
    }
}
