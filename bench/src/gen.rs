//! Seeded input generators: everything the workloads feed the program under
//! test comes from `--seed` through here, so the same seed gives the same
//! inputs and the program itself never sees the seed.

use desim::SimRng;
use netgraph::{NodeId, RootedTree};

/// One open-loop request: when it is due (nanoseconds from the start of its
/// ladder step), where it is issued and for which object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub due_ns: u64,
    pub node: u16,
    pub obj: u16,
}

/// Derive an independent stream seed from the run seed and a purpose tag, so
/// adding a generator never shifts the numbers another one draws.
pub fn stream_seed(seed: u64, tag: u64) -> u64 {
    // SplitMix64 finalizer over the pair.
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Inverse-CDF sampler of a Zipf distribution over `k` ranks with exponent
/// `s` (rank 0 most popular).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(k: usize, s: f64) -> Zipf {
        assert!(k > 0, "a Zipf distribution needs at least one rank");
        let weights: Vec<f64> = (1..=k).map(|r| (r as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.uniform(0.0, 1.0);
        self.cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cdf.len() - 1)
    }
}

/// Poisson arrivals at `rate_per_s` over `duration_ns`: exponential gaps,
/// uniform nodes, Zipf objects. Due times ascend.
pub fn poisson_arrivals(
    seed: u64,
    rate_per_s: f64,
    duration_ns: u64,
    nodes: usize,
    zipf: &Zipf,
) -> Vec<Arrival> {
    let mut rng = SimRng::new(seed);
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut out = Vec::with_capacity((rate_per_s * duration_ns as f64 / 1e9 * 1.1) as usize + 16);
    let mut t = rng.exponential(mean_gap_ns);
    while (t as u64) < duration_ns {
        out.push(Arrival {
            due_ns: t as u64,
            node: rng.index(nodes) as u16,
            obj: zipf.sample(&mut rng) as u16,
        });
        t += rng.exponential(mean_gap_ns);
    }
    out
}

/// Nodes at `depth` hops from the root, ascending.
pub fn nodes_at_depth(tree: &RootedTree, depth: usize) -> Vec<NodeId> {
    (0..tree.node_count())
        .filter(|&v| tree.depth(v) == depth)
        .collect()
}

/// One seeded node at `client_depth` under every node at `subtree_depth`.
///
/// In a balanced tree every such placement has the same multiset of pairwise
/// tree distances, so which one the seed picks changes where the clients sit
/// but not how far a request travels: the workload's numbers stay comparable
/// across seeds.
pub fn one_per_subtree(
    rng: &mut SimRng,
    tree: &RootedTree,
    subtree_depth: usize,
    client_depth: usize,
) -> Vec<NodeId> {
    let deep = nodes_at_depth(tree, client_depth);
    nodes_at_depth(tree, subtree_depth)
        .into_iter()
        .map(|top| {
            let below: Vec<NodeId> = deep
                .iter()
                .copied()
                .filter(|&v| tree.path(v, top).len() == client_depth - subtree_depth + 1)
                .collect();
            assert!(
                !below.is_empty(),
                "no node at depth {client_depth} under node {top}"
            );
            below[rng.index(below.len())]
        })
        .collect()
}

/// What the churn driver injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    Crash(NodeId),
    Restart(NodeId),
    DropLink(NodeId, NodeId),
    RestoreLink(NodeId, NodeId),
}

/// One injected fault and when it is due (nanoseconds from window start).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultStep {
    pub at_ns: u64,
    pub kind: FaultKind,
}

/// The churn plan: one fault every `period_ns`, cycling crash → restart →
/// drop-link → restore-link with a fresh seeded victim per cycle, always an
/// even number of faults so the mesh ends healed. The first fault is due one
/// period into the window and the last at least half a period before its end.
///
/// Victims are the nodes at `victim_depth`: interior, not the root (which
/// anchors token regeneration), and all alike, so every fault cuts off an
/// equally large part of the tree whichever victim the seed picks.
pub fn fault_plan(
    seed: u64,
    tree: &RootedTree,
    victim_depth: usize,
    window_ns: u64,
    period_ns: u64,
) -> Vec<FaultStep> {
    let victims = nodes_at_depth(tree, victim_depth);
    assert!(
        victim_depth > 0 && !victims.is_empty(),
        "victims are below the root and exist"
    );
    let mut rng = SimRng::new(seed);
    let mut count = (window_ns.saturating_sub(period_ns / 2) / period_ns) as usize;
    count -= count % 2;
    let mut plan = Vec::with_capacity(count);
    let mut open = FaultKind::Crash(0);
    for i in 0..count {
        let kind = match i % 4 {
            0 => FaultKind::Crash(victims[rng.index(victims.len())]),
            2 => {
                let u = victims[rng.index(victims.len())];
                FaultKind::DropLink(u, tree.parent(u).expect("non-root nodes have a parent"))
            }
            _ => match open {
                FaultKind::Crash(v) => FaultKind::Restart(v),
                FaultKind::DropLink(u, p) => FaultKind::RestoreLink(u, p),
                healed => unreachable!("odd fault follows an opening fault, got {healed:?}"),
            },
        };
        open = kind;
        plan.push(FaultStep {
            at_ns: (i as u64 + 1) * period_ns,
            kind,
        });
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::generators;

    fn tree(n: usize) -> RootedTree {
        RootedTree::from_tree_graph(&generators::balanced_binary_tree(n), 0)
    }

    #[test]
    fn arrivals_are_identical_per_seed_and_differ_across_seeds() {
        let zipf = Zipf::new(16, 1.1);
        let a = poisson_arrivals(5, 6000.0, 500_000_000, 64, &zipf);
        let b = poisson_arrivals(5, 6000.0, 500_000_000, 64, &zipf);
        let c = poisson_arrivals(6, 6000.0, 500_000_000, 64, &zipf);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a
            .iter()
            .all(|x| x.due_ns < 500_000_000 && x.node < 64 && x.obj < 16));
        // 3000 expected; Poisson sd is ~55.
        assert!((2700..3300).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn zipf_prefers_low_ranks_and_covers_all() {
        let zipf = Zipf::new(16, 1.1);
        let mut rng = SimRng::new(1);
        let mut counts = [0usize; 16];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[3] && counts[3] > counts[15]);
        assert!(counts.iter().all(|&c| c > 0));
        assert_eq!(Zipf::new(1, 1.1).sample(&mut rng), 0);
    }

    #[test]
    fn placement_is_seeded_and_metrically_the_same_for_every_seed() {
        let t = tree(64);
        assert_eq!(nodes_at_depth(&t, 3), (7..=14).collect::<Vec<_>>());
        let pick = |seed| one_per_subtree(&mut SimRng::new(seed), &t, 3, 5);
        assert_eq!(pick(3), pick(3));
        assert_ne!(pick(3), pick(4));
        let distances = |nodes: &[NodeId]| {
            let mut d: Vec<usize> = nodes
                .iter()
                .flat_map(|&u| nodes.iter().map(move |&v| (u, v)))
                .filter(|(u, v)| u < v)
                .map(|(u, v)| t.hop_distance(u, v))
                .collect();
            d.sort_unstable();
            d
        };
        for seed in 0..20 {
            let p = pick(seed);
            assert_eq!(p.len(), 8);
            assert!(p.iter().all(|&v| t.depth(v) == 5));
            assert_eq!(distances(&p), distances(&pick(99)), "seed {seed}");
        }
    }

    #[test]
    fn fault_plans_heal_and_are_seeded() {
        let t = tree(64);
        let plan = fault_plan(9, &t, 2, 12_000_000_000, 800_000_000);
        assert_eq!(plan, fault_plan(9, &t, 2, 12_000_000_000, 800_000_000));
        assert_ne!(plan, fault_plan(10, &t, 2, 12_000_000_000, 800_000_000));
        assert_eq!(plan.len(), 14);
        for pair in plan.chunks(2) {
            match (pair[0].kind, pair[1].kind) {
                (FaultKind::Crash(a), FaultKind::Restart(b)) => {
                    assert_eq!(a, b);
                    assert_eq!(t.depth(a), 2);
                }
                (FaultKind::DropLink(a, p), FaultKind::RestoreLink(b, q)) => {
                    assert_eq!((a, p), (b, q));
                    assert_eq!(t.parent(a), Some(p));
                }
                other => panic!("unhealed pair {other:?}"),
            }
        }
        assert!(plan.last().unwrap().at_ns + 400_000_000 <= 12_000_000_000);
        assert!(fault_plan(9, &t, 2, 100, 800).is_empty());
    }

    #[test]
    fn stream_seeds_separate_purposes() {
        assert_eq!(stream_seed(1, 2), stream_seed(1, 2));
        assert_ne!(stream_seed(1, 2), stream_seed(1, 3));
        assert_ne!(stream_seed(1, 2), stream_seed(2, 2));
    }
}
