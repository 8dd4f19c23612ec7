//! Workload generators.
//!
//! The analysis covers *any* finite request set, so the experiments exercise several
//! shapes: the one-shot concurrent burst (the PODC'01 setting), sequential requests
//! spaced farther apart than the tree diameter (the Demmer–Herlihy setting), Poisson
//! arrivals, hotspot-skewed arrivals, and alternating burst/quiet phases (the regime
//! discussed around Lemma 3.11). The paper's own experiment (Section 5) is a
//! *closed-loop* workload — each processor issues its next request the moment its
//! previous one completes — which cannot be written down as a schedule in advance and
//! is therefore described by [`ClosedLoopSpec`] and generated inside the protocol
//! nodes at run time.

use crate::request::{ObjectId, RequestSchedule};
use desim::{SimRng, SimTime};
use netgraph::NodeId;
use serde::{Deserialize, Serialize};

/// Parameters of the closed-loop workload of Section 5.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClosedLoopSpec {
    /// How many requests each node issues (the paper uses 100,000).
    pub requests_per_node: u64,
    /// Local service time (in time units) a node spends per protocol message and
    /// between completing one request and issuing the next. Models the CPU cost that
    /// the paper's SP2 processors pay; without it the simulated central server would
    /// have infinite throughput and the centralized baseline would not degrade.
    pub local_service_time: f64,
}

impl Default for ClosedLoopSpec {
    fn default() -> Self {
        ClosedLoopSpec {
            requests_per_node: 1_000,
            local_service_time: 0.05,
        }
    }
}

/// A workload: either a pre-computed open-loop schedule or a closed-loop spec.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Workload {
    /// Requests issued at predetermined `(node, time)` pairs.
    OpenLoop(RequestSchedule),
    /// Each node issues its next request as soon as the previous one completes.
    ClosedLoop(ClosedLoopSpec),
}

/// All nodes in `nodes` issue one request simultaneously at `time` — the one-shot
/// concurrent setting of the PODC 2001 paper.
pub fn one_shot_burst(nodes: &[NodeId], time: SimTime) -> RequestSchedule {
    RequestSchedule::from_pairs(&nodes.iter().map(|&v| (v, time)).collect::<Vec<_>>())
}

/// `count` requests issued round-robin by `nodes`, each `gap` time units after the
/// previous one. With `gap > D` this is the sequential setting of Demmer–Herlihy.
pub fn sequential_round_robin(nodes: &[NodeId], count: usize, gap: f64) -> RequestSchedule {
    assert!(!nodes.is_empty(), "need at least one requesting node");
    let pairs: Vec<(NodeId, SimTime)> = (0..count)
        .map(|i| {
            (
                nodes[i % nodes.len()],
                SimTime::from_subticks(
                    (i as f64 * gap * desim::SUBTICKS_PER_UNIT as f64).round() as u64
                ),
            )
        })
        .collect();
    RequestSchedule::from_pairs(&pairs)
}

/// Poisson arrivals: each of the `n` nodes issues requests as an independent Poisson
/// process with the given mean inter-arrival time, until `horizon` time units.
pub fn poisson(n: usize, mean_interarrival: f64, horizon: f64, seed: u64) -> RequestSchedule {
    assert!(
        mean_interarrival > 0.0,
        "mean inter-arrival must be positive"
    );
    let mut rng = SimRng::new(seed);
    let mut pairs = Vec::new();
    for node in 0..n {
        let mut t = rng.exponential(mean_interarrival);
        while t < horizon {
            pairs.push((
                node,
                SimTime::from_subticks((t * desim::SUBTICKS_PER_UNIT as f64) as u64),
            ));
            t += rng.exponential(mean_interarrival);
        }
    }
    RequestSchedule::from_pairs(&pairs)
}

/// `count` requests at uniformly random nodes and uniformly random times in
/// `[0, horizon)`.
pub fn uniform_random(n: usize, count: usize, horizon: f64, seed: u64) -> RequestSchedule {
    let mut rng = SimRng::new(seed);
    let pairs: Vec<(NodeId, SimTime)> = (0..count)
        .map(|_| {
            (
                rng.index(n),
                SimTime::from_subticks(
                    (rng.uniform(0.0, horizon.max(f64::MIN_POSITIVE))
                        * desim::SUBTICKS_PER_UNIT as f64) as u64,
                ),
            )
        })
        .collect();
    RequestSchedule::from_pairs(&pairs)
}

/// Hotspot workload: a fraction `hot_fraction` of the `count` requests originate from
/// the `hot_nodes` set, the rest from uniformly random nodes; times uniform in
/// `[0, horizon)`.
pub fn hotspot(
    n: usize,
    hot_nodes: &[NodeId],
    hot_fraction: f64,
    count: usize,
    horizon: f64,
    seed: u64,
) -> RequestSchedule {
    assert!(!hot_nodes.is_empty(), "need at least one hot node");
    let mut rng = SimRng::new(seed);
    let pairs: Vec<(NodeId, SimTime)> = (0..count)
        .map(|_| {
            let node = if rng.chance(hot_fraction.clamp(0.0, 1.0)) {
                hot_nodes[rng.index(hot_nodes.len())]
            } else {
                rng.index(n)
            };
            let t = rng.uniform(0.0, horizon.max(f64::MIN_POSITIVE));
            (
                node,
                SimTime::from_subticks((t * desim::SUBTICKS_PER_UNIT as f64) as u64),
            )
        })
        .collect();
    RequestSchedule::from_pairs(&pairs)
}

/// Cumulative distribution over `k` objects with Zipf-skewed popularity: object `r`
/// (0-indexed) has weight `1 / (r + 1)^s`. Higher `s` = heavier skew; `s = 0` is
/// uniform.
fn zipf_cdf(k: usize, s: f64) -> Vec<f64> {
    assert!(k > 0, "need at least one object");
    let mut cdf = Vec::with_capacity(k);
    let mut acc = 0.0;
    for r in 0..k {
        acc += 1.0 / ((r + 1) as f64).powf(s);
        cdf.push(acc);
    }
    let total = *cdf.last().expect("k > 0");
    for c in &mut cdf {
        *c /= total;
    }
    cdf
}

fn sample_cdf(cdf: &[f64], rng: &mut SimRng) -> usize {
    let u = rng.uniform(0.0, 1.0);
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

/// Multi-object workload with Zipf-skewed object popularity: `count` requests at
/// uniformly random nodes and uniformly random times in `[0, horizon)`, each for one
/// of `k` objects drawn from a Zipf distribution with exponent `s` (object 0 is the
/// most popular; `s = 0` makes all objects equally popular).
///
/// This is the canonical directory workload: a few hot objects absorb most of the
/// traffic while a long tail of cold objects sees occasional requests.
pub fn zipf_objects(
    n: usize,
    k: usize,
    s: f64,
    count: usize,
    horizon: f64,
    seed: u64,
) -> RequestSchedule {
    let cdf = zipf_cdf(k, s);
    let mut rng = SimRng::new(seed);
    let triples: Vec<(NodeId, SimTime, ObjectId)> = (0..count)
        .map(|_| {
            let node = rng.index(n);
            let obj = ObjectId(sample_cdf(&cdf, &mut rng) as u32);
            let t = rng.uniform(0.0, horizon.max(f64::MIN_POSITIVE));
            (
                node,
                SimTime::from_subticks((t * desim::SUBTICKS_PER_UNIT as f64) as u64),
                obj,
            )
        })
        .collect();
    RequestSchedule::from_object_pairs(&triples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shot_burst_is_simultaneous() {
        let s = one_shot_burst(&[0, 3, 5], SimTime::from_units(2));
        assert_eq!(s.len(), 3);
        assert!(s
            .requests()
            .iter()
            .all(|r| r.time == SimTime::from_units(2)));
        assert_eq!(s.requesting_nodes(), vec![0, 3, 5]);
    }

    #[test]
    fn sequential_round_robin_spacing_and_rotation() {
        let s = sequential_round_robin(&[1, 2], 4, 10.0);
        let nodes: Vec<NodeId> = s.requests().iter().map(|r| r.node).collect();
        assert_eq!(nodes, vec![1, 2, 1, 2]);
        assert!(s.is_sequential(10.0));
        assert!(!s.is_sequential(10.5));
        assert_eq!(s.requests()[3].time, SimTime::from_units(30));
    }

    #[test]
    fn poisson_respects_horizon_and_is_deterministic() {
        let a = poisson(5, 2.0, 50.0, 7);
        let b = poisson(5, 2.0, 50.0, 7);
        assert_eq!(a.len(), b.len());
        assert!(
            a.len() > 25,
            "expected on the order of 125 requests, got {}",
            a.len()
        );
        assert!(a
            .requests()
            .iter()
            .all(|r| r.time < SimTime::from_units(50)));
    }

    #[test]
    fn uniform_random_counts_and_bounds() {
        let s = uniform_random(10, 200, 30.0, 3);
        assert_eq!(s.len(), 200);
        assert!(s.requests().iter().all(|r| r.node < 10));
        assert!(s
            .requests()
            .iter()
            .all(|r| r.time < SimTime::from_units(30)));
    }

    #[test]
    fn hotspot_skews_origins() {
        let s = hotspot(20, &[0], 0.9, 500, 10.0, 5);
        let hot_count = s.requests().iter().filter(|r| r.node == 0).count();
        assert!(hot_count > 350, "hot node got only {hot_count}/500");
    }

    #[test]
    fn zipf_objects_skews_towards_low_object_ids() {
        let k = 8;
        let s = zipf_objects(16, k, 1.2, 4000, 100.0, 9);
        assert_eq!(s.len(), 4000);
        assert_eq!(s.object_id_bound(), k);
        let count_for = |o: u32| s.requests().iter().filter(|r| r.obj == ObjectId(o)).count();
        let hottest = count_for(0);
        let coldest = count_for(k as u32 - 1);
        // Zipf(1.2) over 8 objects: object 0 gets ~40%, object 7 ~3%.
        assert!(
            hottest > 4 * coldest,
            "expected heavy skew, got {hottest} vs {coldest}"
        );
        // Deterministic in the seed.
        let again = zipf_objects(16, k, 1.2, 4000, 100.0, 9);
        assert_eq!(s.requests(), again.requests());
    }

    #[test]
    fn zipf_with_zero_exponent_is_roughly_uniform() {
        let k = 4;
        let s = zipf_objects(8, k, 0.0, 4000, 50.0, 3);
        for o in 0..k as u32 {
            let c = s.requests().iter().filter(|r| r.obj == ObjectId(o)).count();
            assert!((800..1200).contains(&c), "object {o} got {c}/4000");
        }
    }

    #[test]
    fn closed_loop_default_is_sane() {
        let spec = ClosedLoopSpec::default();
        assert!(spec.requests_per_node > 0);
        assert!(spec.local_service_time > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one requesting node")]
    fn empty_round_robin_panics() {
        sequential_round_robin(&[], 3, 1.0);
    }
}
