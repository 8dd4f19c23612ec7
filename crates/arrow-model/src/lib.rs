//! Bounded explicit-state model checking for the arrow protocol's shared
//! [`ArrowCore`](arrow_core::live::ArrowCore) state machine.
//!
//! The conformance harness samples behaviour: seeded workloads, seeded fault
//! schedules, randomized sweeps. This crate closes the gap for small
//! configurations by checking **all** of them: every labelled spanning tree up
//! to a node bound, every request placement, every message interleaving the
//! per-link FIFO transports could produce, and every crash/recovery schedule
//! within an episode budget. A system state is the product of per-node
//! [`ArrowCore`]s (the *same* pure state machine every execution tier drives), per-directed-link FIFO frame queues, and the
//! request/fault bookkeeping; transitions deliver one frame, issue one
//! request, crash/restart one node, deliver one epoch-detection signal, or
//! release one granted token.
//!
//! Exploration is a DFS with two orthogonal prunings, both optional so their
//! soundness can be cross-checked (`--no-dedup`, `--no-reduce`):
//!
//! * **canonical-hash dedup** — states hash to a 128-bit canonical fingerprint
//!   ([`SysState::hash128`]); revisits are skipped under the sleep-set subset
//!   rule (see [`explore()`]);
//! * **sleep-set partial-order reduction** — commuting independent steps
//!   (disjoint-footprint deliveries, issues at different nodes, …) are
//!   explored in one order instead of all ([`reduce`]). Sleep sets still visit
//!   every reachable *state*, so invariant coverage is unaffected.
//!
//! Safety invariants are checked at every state, quiescence invariants at
//! every drained state ([`invariants`]); a violation aborts the search and is
//! exported as a conformance replay file with the transition trace embedded as
//! comments ([`replay`]), so the model-level counterexample can be re-driven
//! through the live tiers with the existing `conformance --replay` tooling.
//!
//! One sweep configuration subsumes the smaller ones: quiescence is evaluated
//! at every drained state *whatever budget remains*, so exploring with a
//! request budget of 4 also verifies every execution that stops after 0–3
//! requests, and a crash budget of 1 also covers every crash-free execution.
//! Verifying "all trees ≤ 5 nodes, ≤ 2 objects, ≤ 4 requests, ≤ 1 crash
//! episode" therefore takes exactly one [`sweep`] call per tree.
//!
//! [`ArrowCore`]: arrow_core::live::ArrowCore
//! [`SysState::hash128`]: state::SysState::hash128

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod explore;
pub mod invariants;
pub mod reduce;
pub mod replay;
pub mod state;
pub mod transition;

pub use explore::{explore, CheckReport, Counterexample, ExploreConfig, ExploreStats};
pub use invariants::{ModelInvariant, ModelViolation};
pub use replay::export_replay;
pub use state::SysState;
pub use transition::{BugSwitch, Transition};

use netgraph::{Graph, NodeId, RootedTree};
use std::collections::BTreeSet;

/// One bounded configuration to verify: a spanning tree plus the model's
/// nondeterminism budgets. Everything else — which node issues which request
/// for which object, when the crash hits, how messages interleave — is folded
/// into the transition relation, so a single exploration covers all of it.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The spanning tree the protocol runs on (root = node 0 by convention).
    pub tree: RootedTree,
    /// Number of directory objects.
    pub objects: usize,
    /// Total request budget across all nodes and objects.
    pub max_requests: usize,
    /// Crash/restart episode budget (0 = fault-free model).
    pub crash_episodes: usize,
    /// Waiter-abandonment budget: how many pending acquires may time out and
    /// drop their reply channel (the PR 6 orphaned-grant trigger — a grant
    /// arriving for a vanished waiter must be self-released by the runtime).
    /// Unlike a crash, abandonment bumps no epoch, so nothing ever cleans up a
    /// wedged token except the self-release fix itself.
    pub abandons: usize,
}

impl Scenario {
    /// A fault-free scenario on `tree`.
    pub fn fault_free(tree: RootedTree, objects: usize, max_requests: usize) -> Self {
        Scenario {
            tree,
            objects,
            max_requests,
            crash_episodes: 0,
            abandons: 0,
        }
    }
}

/// Decode a Prüfer sequence over `0..n` into the corresponding labelled tree.
fn prufer_decode(n: usize, seq: &[NodeId]) -> Graph {
    debug_assert_eq!(seq.len(), n.saturating_sub(2));
    let mut g = Graph::new(n);
    if n == 2 {
        g.add_edge(0, 1);
        return g;
    }
    let mut degree = vec![1usize; n];
    for &p in seq {
        degree[p] += 1;
    }
    let mut leaves: BTreeSet<NodeId> = (0..n).filter(|&v| degree[v] == 1).collect();
    for &p in seq {
        let leaf = *leaves.iter().next().expect("prufer decoding invariant");
        leaves.remove(&leaf);
        g.add_weighted_edge(leaf, p, 1.0);
        degree[p] -= 1;
        if degree[p] == 1 {
            leaves.insert(p);
        }
    }
    let rest: Vec<NodeId> = leaves.into_iter().collect();
    g.add_weighted_edge(rest[0], rest[1], 1.0);
    g
}

/// Every labelled tree on `n` nodes, rooted at node 0, via exhaustive Prüfer
/// enumeration (`n^(n-2)` trees; 125 at `n = 5`).
pub fn enumerate_trees(n: usize) -> Vec<RootedTree> {
    assert!(n >= 1, "need at least one node");
    if n == 1 {
        return vec![RootedTree::from_parents(&[None])];
    }
    if n == 2 {
        return vec![RootedTree::from_tree_graph(&prufer_decode(2, &[]), 0)];
    }
    let len = n - 2;
    let mut out = Vec::new();
    let mut seq = vec![0 as NodeId; len];
    loop {
        out.push(RootedTree::from_tree_graph(&prufer_decode(n, &seq), 0));
        // Odometer increment over base-n digits.
        let mut i = 0;
        loop {
            if i == len {
                return out;
            }
            seq[i] += 1;
            if seq[i] < n {
                break;
            }
            seq[i] = 0;
            i += 1;
        }
    }
}

/// AHU canonical form of the subtree rooted at `v`: children's forms, sorted.
fn ahu(tree: &RootedTree, v: NodeId) -> String {
    let mut kids: Vec<String> = tree.children(v).iter().map(|&c| ahu(tree, c)).collect();
    kids.sort_unstable();
    format!("({})", kids.concat())
}

/// One representative per rooted-isomorphism class of trees on `n` nodes
/// (AHU canonical form keyed on the root): 2 classes at `n = 3`, 4 at
/// `n = 4`, 9 at `n = 5`.
///
/// Protocol behaviour depends on the tree only through its shape relative to
/// the root — node labels appear in request ids but never influence routing
/// decisions — so exploring one labelling per class gives the same invariant
/// coverage as the full labelled enumeration at a fraction of the cost. The
/// conformance-style paranoia check (run both, compare verdicts) lives in the
/// workspace test suite rather than being assumed here.
pub fn representative_trees(n: usize) -> Vec<RootedTree> {
    let mut seen = BTreeSet::new();
    enumerate_trees(n)
        .into_iter()
        .filter(|t| seen.insert(ahu(t, t.root())))
        .collect()
}

/// Aggregated outcome of sweeping one budget configuration over many trees.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Scenarios explored (one per tree).
    pub scenarios: u64,
    /// Counters summed over all explorations (`max_depth` is the maximum).
    pub stats: ExploreStats,
    /// The first failing scenario, with its counterexample.
    pub failure: Option<(Scenario, Counterexample)>,
}

impl SweepOutcome {
    /// True when every scenario verified clean.
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }
}

/// Explore every tree in `trees` under the given budgets, stopping at the
/// first violation. `on_tree` is called after each tree with its index and the
/// per-tree report (progress reporting for the CLI; pass `|_, _| {}` to skip).
pub fn sweep(
    trees: Vec<RootedTree>,
    objects: usize,
    max_requests: usize,
    crash_episodes: usize,
    abandons: usize,
    config: &ExploreConfig,
    mut on_tree: impl FnMut(usize, &CheckReport),
) -> SweepOutcome {
    let mut outcome = SweepOutcome {
        scenarios: 0,
        stats: ExploreStats::default(),
        failure: None,
    };
    for (i, tree) in trees.into_iter().enumerate() {
        let scenario = Scenario {
            tree,
            objects,
            max_requests,
            crash_episodes,
            abandons,
        };
        let report = explore(&scenario, config);
        outcome.scenarios += 1;
        outcome.stats.states += report.stats.states;
        outcome.stats.deduped += report.stats.deduped;
        outcome.stats.sleep_pruned += report.stats.sleep_pruned;
        outcome.stats.transitions += report.stats.transitions;
        outcome.stats.quiescent += report.stats.quiescent;
        outcome.stats.max_depth = outcome.stats.max_depth.max(report.stats.max_depth);
        outcome.stats.capped |= report.stats.capped;
        on_tree(i, &report);
        if let Some(cx) = report.counterexample {
            outcome.failure = Some((scenario, cx));
            break;
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labelled_tree_counts_follow_cayley() {
        assert_eq!(enumerate_trees(1).len(), 1);
        assert_eq!(enumerate_trees(2).len(), 1);
        assert_eq!(enumerate_trees(3).len(), 3);
        assert_eq!(enumerate_trees(4).len(), 16);
        assert_eq!(enumerate_trees(5).len(), 125);
        for t in enumerate_trees(4) {
            assert_eq!(t.node_count(), 4);
            assert_eq!(t.root(), 0);
        }
    }

    #[test]
    fn rooted_isomorphism_classes_match_oeis_a000081() {
        assert_eq!(representative_trees(1).len(), 1);
        assert_eq!(representative_trees(2).len(), 1);
        assert_eq!(representative_trees(3).len(), 2);
        assert_eq!(representative_trees(4).len(), 4);
        assert_eq!(representative_trees(5).len(), 9);
    }

    #[test]
    fn sweep_over_three_node_trees_is_clean() {
        let outcome = sweep(
            enumerate_trees(3),
            1,
            2,
            0,
            0,
            &ExploreConfig::default(),
            |_, _| {},
        );
        assert!(outcome.ok(), "{:?}", outcome.failure);
        assert_eq!(outcome.scenarios, 3);
        assert!(outcome.stats.quiescent >= 3);
    }
}
