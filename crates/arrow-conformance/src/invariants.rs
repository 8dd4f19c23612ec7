//! The shared invariant suite every tier's outcome is checked against.
//!
//! A [`QueuingOutcome`] that reaches this module already passed per-object order
//! *assembly* (the checked run paths return [`arrow_core::RunError`] otherwise);
//! the suite re-derives the paper's observable contracts independently, so a bug
//! in the assembly code itself cannot silently vouch for the protocol:
//!
//! * **exactly-once queuing** — every request of the schedule appears in exactly
//!   one object's order, exactly once, and no order contains foreign requests;
//! * **token conservation** — per object, the successor records form one chain:
//!   each request has exactly one predecessor record, the virtual root grants
//!   exactly once, and no request grants two successors (a duplicated or lost
//!   token would show up precisely here);
//! * **message-count sanity** — protocol messages stay within the structural
//!   bounds of the protocol (arrow: a `queue()` walks tree edges, so at most
//!   `n - 1` hops per request; centralized: at most two messages per request);
//! * **per-link FIFO** — on every tier whose nodes carry recording probes, the
//!   `queue()` frames each directed link delivers are exactly the frames it was
//!   sent, in send order (the arrow protocol's correctness assumes FIFO links);
//! * **tree edges** — on the same probed tiers, every `queue()` frame goes to a
//!   tree neighbour of its sender (the arrows are tree edges);
//! * **latency bound** — on synchronous single-object arrow simulator outcomes,
//!   the measured competitive ratio respects the Theorem 3.19 bound (via
//!   [`queuing_analysis::measure_ratio`]; degenerate instances are skipped).

use arrow_core::prelude::*;
use arrow_trace::recorder::TraceEventRecord;
use arrow_trace::ProbeEvent;
use netgraph::RootedTree;
use queuing_analysis::measure_ratio_with_cost;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Which invariant a violation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InvariantKind {
    /// The run itself failed (typed [`arrow_core::RunError`] from a tier).
    RunFailed,
    /// Exactly-once queuing across per-object orders.
    ExactlyOnce,
    /// Per-object token-chain conservation.
    TokenConservation,
    /// Structural message-count bounds.
    MessageSanity,
    /// Per-link FIFO delivery of `queue()` frames (probed tiers only).
    PerLinkFifo,
    /// Every `queue()` frame travels a spanning-tree edge (probed tiers only).
    TreeEdge,
    /// Theorem 3.19 competitive-ratio bound (sync single-object arrow only).
    LatencyBound,
    /// Cross-tier agreement on the per-object request multiset.
    CrossTier,
    /// Causal-trace coverage (`--trace` runs): every issued request must leave a
    /// complete reconstructed hop chain whose tree-path cost equals the `c_A`
    /// adjacency of the validated queuing order (see [`crate::trace`]).
    TraceCoverage,
    /// The churn contract on fault-injected cases: every issued request granted,
    /// every `(object, epoch)` order chain fork-free, the final epoch one
    /// complete chain per object (see [`arrow_core::prelude::ChurnOutcome`]).
    ChurnContract,
}

/// One invariant violation observed while checking a tier's outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// The violated invariant.
    pub invariant: InvariantKind,
    /// Which tier produced the outcome (`sim`, `sim-centralized`, `net`, ...).
    pub tier: String,
    /// Human-readable description with the offending values.
    pub detail: String,
}

impl Violation {
    fn new(invariant: InvariantKind, tier: &str, detail: String) -> Self {
        Violation {
            invariant,
            tier: tier.to_string(),
            detail,
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {:?}: {}", self.tier, self.invariant, self.detail)
    }
}

/// Exactly-once queuing: the union of all per-object orders is precisely the set
/// of scheduled request ids, with no duplicates across or within orders.
pub fn check_exactly_once(tier: &str, outcome: &QueuingOutcome) -> Vec<Violation> {
    let mut violations = Vec::new();
    let scheduled: HashSet<RequestId> = outcome.schedule.requests().iter().map(|r| r.id).collect();
    let mut queued: HashSet<RequestId> = HashSet::new();
    for (obj, order) in &outcome.orders {
        for &id in order.order() {
            if !queued.insert(id) {
                violations.push(Violation::new(
                    InvariantKind::ExactlyOnce,
                    tier,
                    format!("request {id} queued more than once (seen again in {obj})"),
                ));
            }
            if !scheduled.contains(&id) {
                violations.push(Violation::new(
                    InvariantKind::ExactlyOnce,
                    tier,
                    format!("{obj} queued unscheduled request {id}"),
                ));
            }
        }
    }
    for id in scheduled.difference(&queued) {
        violations.push(Violation::new(
            InvariantKind::ExactlyOnce,
            tier,
            format!("scheduled request {id} never queued"),
        ));
    }
    violations
}

/// Token conservation per object: walking the records, the virtual root grants
/// exactly once (if the object saw requests), every queued request is granted to
/// exactly one successor or is the final tail, and predecessor/successor sets
/// tile the order without forks.
pub fn check_token_conservation(tier: &str, outcome: &QueuingOutcome) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (obj, order) in &outcome.orders {
        if order.is_empty() {
            continue;
        }
        let ids: Vec<RequestId> = order.order().to_vec();
        // Expected: predecessors = {ROOT} ∪ ids[..len-1], each used exactly once.
        let mut pred_counts: HashMap<RequestId, usize> = HashMap::new();
        for &id in &ids {
            match order.predecessor_of(id) {
                Some(pred) => *pred_counts.entry(pred).or_insert(0) += 1,
                None => violations.push(Violation::new(
                    InvariantKind::TokenConservation,
                    tier,
                    format!("{obj}: request {id} has no predecessor record"),
                )),
            }
        }
        if pred_counts.get(&RequestId::ROOT) != Some(&1) {
            violations.push(Violation::new(
                InvariantKind::TokenConservation,
                tier,
                format!(
                    "{obj}: the virtual root granted {} times (expected once)",
                    pred_counts.get(&RequestId::ROOT).copied().unwrap_or(0)
                ),
            ));
        }
        for (&pred, &count) in &pred_counts {
            if count > 1 {
                violations.push(Violation::new(
                    InvariantKind::TokenConservation,
                    tier,
                    format!("{obj}: request {pred} granted {count} successors (token fork)"),
                ));
            }
        }
        let tail = *ids.last().expect("non-empty order");
        for &id in &ids {
            let grants = pred_counts.get(&id).copied().unwrap_or(0);
            if id == tail && grants != 0 {
                violations.push(Violation::new(
                    InvariantKind::TokenConservation,
                    tier,
                    format!("{obj}: tail request {id} granted a successor"),
                ));
            }
            if id != tail && grants != 1 {
                violations.push(Violation::new(
                    InvariantKind::TokenConservation,
                    tier,
                    format!("{obj}: non-tail request {id} granted {grants} successors"),
                ));
            }
        }
    }
    violations
}

/// Structural message-count bounds: an arrow `queue()` travels tree edges without
/// revisiting one (path reversal), so a request costs at most `n - 1` hops; the
/// centralized protocol costs at most two messages per request.
pub fn check_message_sanity(tier: &str, outcome: &QueuingOutcome, n: usize) -> Vec<Violation> {
    let mut violations = Vec::new();
    let requests = outcome.request_count() as u64;
    let bound = match outcome.protocol {
        ProtocolKind::Arrow => requests * (n.saturating_sub(1) as u64),
        ProtocolKind::Centralized => 2 * requests,
    };
    if outcome.protocol_messages > bound {
        violations.push(Violation::new(
            InvariantKind::MessageSanity,
            tier,
            format!(
                "{} protocol messages for {requests} requests on {n} nodes (bound {bound})",
                outcome.protocol_messages
            ),
        ));
    }
    if !outcome.hops_per_request.is_finite() || outcome.hops_per_request < 0.0 {
        violations.push(Violation::new(
            InvariantKind::MessageSanity,
            tier,
            format!("hops_per_request = {}", outcome.hops_per_request),
        ));
    }
    violations
}

/// Per-link FIFO: for every directed link `u -> v`, the `(obj, req)` frames
/// that `v` records as [`ProbeEvent::QueueReceived`] from `u` equal, in order,
/// the frames `u` records as [`ProbeEvent::QueueSent`] to `v` — no loss, no
/// duplicate, no reordering (the arrow protocol is incorrect without FIFO
/// links). Each node's events are read in the order that node recorded them:
/// [`arrow_trace::TraceRecorder::finish`] sorts stably by time, and one node's
/// timestamps never decrease, so per-node order survives the merge.
pub fn check_per_link_fifo(tier: &str, events: &[TraceEventRecord]) -> Vec<Violation> {
    type Frames = Vec<(u32, u64)>;
    let mut links: HashMap<(usize, usize), (Frames, Frames)> = HashMap::new();
    for e in events {
        match e.ev {
            ProbeEvent::QueueSent { obj, req, to, .. } => {
                links.entry((e.node, to)).or_default().0.push((obj, req));
            }
            ProbeEvent::QueueReceived { obj, req, from, .. } => {
                links.entry((from, e.node)).or_default().1.push((obj, req));
            }
            _ => {}
        }
    }
    let mut links: Vec<_> = links.into_iter().collect();
    links.sort_unstable_by_key(|&(link, _)| link);
    let mut violations = Vec::new();
    for ((u, v), (sent, received)) in links {
        if sent == received {
            continue;
        }
        let at = sent
            .iter()
            .zip(&received)
            .position(|(s, r)| s != r)
            .unwrap_or(sent.len().min(received.len()));
        violations.push(Violation::new(
            InvariantKind::PerLinkFifo,
            tier,
            format!(
                "link {u}->{v}: {} queue frames sent, {} received; first divergence at \
                 frame {at}: sent {:?}, received {:?} (as (obj, req))",
                sent.len(),
                received.len(),
                sent.get(at),
                received.get(at)
            ),
        ));
    }
    violations
}

/// Tree edges: every [`ProbeEvent::QueueSent`] goes to a tree neighbour of
/// the node that recorded it. The paper's `queue()` message follows the
/// arrows, and an arrow only ever names a tree neighbour, so a frame to any
/// other node is a protocol that is not arrow, even when its chains are
/// valid (a path-compressing `link := origin` variant is one). One violation
/// per offending directed pair, with its frame count.
pub fn check_tree_edges(
    tier: &str,
    tree: &RootedTree,
    events: &[TraceEventRecord],
) -> Vec<Violation> {
    let n = tree.node_count();
    let adjacent = |u: usize, v: usize| {
        u < n && v < n && (tree.parent(u) == Some(v) || tree.parent(v) == Some(u))
    };
    let mut off_tree: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for e in events {
        if let ProbeEvent::QueueSent { to, .. } = e.ev {
            if !adjacent(e.node, to) {
                *off_tree.entry((e.node, to)).or_default() += 1;
            }
        }
    }
    off_tree
        .into_iter()
        .map(|((u, v), frames)| {
            Violation::new(
                InvariantKind::TreeEdge,
                tier,
                format!("{frames} queue frames sent on {u}->{v}, which is not a tree edge"),
            )
        })
        .collect()
}

/// Theorem 3.19: on synchronous single-object arrow analysis runs, the measured
/// competitive ratio (against a certified lower bound on the optimum) stays under
/// the constant-explicit theorem bound. Degenerate instances (zero lower bound)
/// are skipped — there is nothing to certify. Takes the already-measured arrow
/// cost ([`QueuingOutcome::total_latency`]) so the deterministic simulation is
/// not executed a second time just to certify the bound.
pub fn check_latency_bound(
    tier: &str,
    instance: &Instance,
    schedule: &RequestSchedule,
    arrow_cost: f64,
) -> Vec<Violation> {
    let report = measure_ratio_with_cost(instance, schedule, arrow_cost);
    // within_bound is vacuously true on degenerate instances — exactly the skip
    // this invariant wants (nothing can be certified against a zero bound).
    if report.within_bound() {
        return Vec::new();
    }
    vec![Violation::new(
        InvariantKind::LatencyBound,
        tier,
        format!(
            "ratio {:.3} exceeds theorem bound {:.3} (stretch {:.2}, diameter {:.2})",
            report.ratio, report.theorem_bound, report.stretch, report.tree_diameter
        ),
    )]
}

/// Per-object request multiset of an outcome: `(object, node) -> count`. Live
/// tiers reassign ids and times, but the multiset of issuing `(node, object)`
/// pairs must survive every tier unchanged.
pub fn request_multiset(schedule: &RequestSchedule) -> HashMap<(u32, usize), usize> {
    let mut counts = HashMap::new();
    for r in schedule.requests() {
        *counts.entry((r.obj.0, r.node)).or_insert(0) += 1;
    }
    counts
}

/// Cross-tier agreement: a tier's outcome must carry exactly the case's request
/// multiset (per object and issuing node).
pub fn check_cross_tier(
    tier: &str,
    expected: &HashMap<(u32, usize), usize>,
    outcome: &QueuingOutcome,
) -> Vec<Violation> {
    let got = request_multiset(&outcome.schedule);
    if &got == expected {
        return Vec::new();
    }
    let mut keys: HashSet<(u32, usize)> = expected.keys().copied().collect();
    keys.extend(got.keys().copied());
    let mut diffs = Vec::new();
    for key in keys {
        let want = expected.get(&key).copied().unwrap_or(0);
        let have = got.get(&key).copied().unwrap_or(0);
        if want != have {
            diffs.push(format!(
                "o{} at node {}: expected {want}, got {have}",
                key.0, key.1
            ));
        }
    }
    diffs.sort();
    vec![Violation::new(
        InvariantKind::CrossTier,
        tier,
        format!("request multiset diverged: {}", diffs.join("; ")),
    )]
}

#[cfg(test)]
mod tests {
    use super::*;
    use arrow_core::order::OrderRecord;
    use arrow_core::run::outcome_from_records;
    use desim::SimTime;
    use netgraph::spanning::SpanningTreeKind;

    fn valid_outcome() -> QueuingOutcome {
        let instance = Instance::complete_uniform(6, SpanningTreeKind::BalancedBinary);
        let schedule = workload::uniform_random(6, 8, 8.0, 3);
        run_schedule(
            &instance,
            &schedule,
            &RunConfig::analysis(ProtocolKind::Arrow),
        )
    }

    #[test]
    fn valid_outcomes_pass_every_structural_invariant() {
        let outcome = valid_outcome();
        assert!(check_exactly_once("sim", &outcome).is_empty());
        assert!(check_token_conservation("sim", &outcome).is_empty());
        assert!(check_message_sanity("sim", &outcome, 6).is_empty());
        let expected = request_multiset(&outcome.schedule);
        assert!(check_cross_tier("sim", &expected, &outcome).is_empty());
    }

    #[test]
    fn forged_outcome_trips_token_conservation() {
        // Hand-build records where one request grants two successors — a token
        // fork. QueuingOrder::from_records already rejects it, so forge the check
        // input through a *valid* chain and then corrupt the multiset check
        // instead: here we verify the low-level helpers see through a missing
        // request.
        let schedule = RequestSchedule::from_pairs(&[(1, SimTime::ZERO), (2, SimTime::ZERO)]);
        let records: Vec<OrderRecord> = [(0u64, 1u64), (1, 2)]
            .iter()
            .map(|&(p, s)| OrderRecord {
                predecessor: RequestId(p),
                successor: RequestId(s),
                obj: ObjectId::DEFAULT,
                at_node: 0,
                informed_at: SimTime::from_units(1),
                epoch: 0,
            })
            .collect();
        let outcome = outcome_from_records(
            ProtocolKind::Arrow,
            schedule.requests().to_vec(),
            records,
            2,
            2,
            SimTime::from_units(2),
        )
        .unwrap();
        assert!(check_token_conservation("sim", &outcome).is_empty());
        // A diverged multiset is caught by the cross-tier check.
        let mut expected = request_multiset(&outcome.schedule);
        *expected.entry((0, 1)).or_insert(0) += 1;
        let violations = check_cross_tier("net", &expected, &outcome);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].invariant, InvariantKind::CrossTier);
    }

    fn sent(node: usize, t: f64, req: u64, to: usize) -> TraceEventRecord {
        let ev = ProbeEvent::QueueSent {
            obj: 0,
            req,
            origin: node,
            to,
        };
        TraceEventRecord { node, t, ev }
    }

    fn received(node: usize, t: f64, req: u64, from: usize) -> TraceEventRecord {
        let ev = ProbeEvent::QueueReceived {
            obj: 0,
            req,
            origin: from,
            from,
        };
        TraceEventRecord { node, t, ev }
    }

    #[test]
    fn fifo_check_flags_reordered_sends() {
        // Link 0->1 delivers request 2 before request 1.
        let reordered = [
            sent(0, 0.0, 1, 1),
            sent(0, 0.5, 2, 1),
            received(1, 1.0, 2, 0),
            received(1, 1.5, 1, 0),
        ];
        let violations = check_per_link_fifo("sim", &reordered);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].invariant, InvariantKind::PerLinkFifo);
        assert!(
            violations[0].detail.starts_with("link 0->1:"),
            "{violations:?}"
        );

        // Link 0->1 loses request 2: its prefix arrived in order, its tail never.
        let lost = [
            sent(0, 0.0, 1, 1),
            sent(0, 0.5, 2, 1),
            received(1, 1.0, 1, 0),
        ];
        let violations = check_per_link_fifo("net", &lost);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0]
            .detail
            .contains("2 queue frames sent, 1 received"));

        // Frames on *different* links may arrive in any relative order.
        let across_links = [
            sent(0, 0.0, 1, 1),
            sent(0, 0.5, 2, 2),
            received(2, 1.0, 2, 0),
            received(1, 2.0, 1, 0),
        ];
        assert!(check_per_link_fifo("sim", &across_links).is_empty());
    }

    /// The `link := origin` mutant: a node that points its arrow at the
    /// request's origin instead of the neighbour the `queue()` came from
    /// later forwards the next `queue()` straight to that origin. On the path
    /// 0 - 1 - 2 - 3, node 3's request walks 3 -> 2 -> 1 -> 0; the mutant
    /// then sends node 1's request from 0 to 3, which is not a tree edge.
    #[test]
    fn tree_edge_check_flags_the_link_to_origin_mutant() {
        let tree = RootedTree::from_tree_graph(&netgraph::generators::path(4), 0);
        let mut trace = vec![
            sent(3, 0.0, 1, 2),
            sent(2, 1.0, 1, 1),
            sent(1, 2.0, 1, 0),
            sent(1, 3.0, 2, 0),
        ];
        assert!(check_tree_edges("sim", &tree, &trace).is_empty());
        trace.push(sent(0, 4.0, 2, 3));
        trace.push(sent(0, 5.0, 3, 3));
        let violations = check_tree_edges("sim", &tree, &trace);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].invariant, InvariantKind::TreeEdge);
        assert_eq!(
            violations[0].detail,
            "2 queue frames sent on 0->3, which is not a tree edge"
        );
        // A node id outside the tree is no neighbour either.
        let stray = [sent(1, 0.0, 1, 9)];
        assert_eq!(check_tree_edges("net", &tree, &stray).len(), 1);
    }

    /// The check is not vacuous: on every probed tier it reads one `QueueSent`
    /// per protocol message the tier counted, and finds each link in order.
    #[test]
    fn fifo_check_reads_every_queue_frame_on_every_probed_tier() {
        use crate::net_driver::{NetDriver, NetHosting};
        use arrow_trace::TraceRecorder;
        use std::sync::Arc;

        let instance = Instance::complete_uniform(12, SpanningTreeKind::BalancedBinary);
        for seed in 0..20 {
            let schedule = workload::zipf_objects(12, 3, 1.1, 40, 20.0, seed);
            for sync in [true, false] {
                let mut cfg = RunConfig::analysis(ProtocolKind::Arrow);
                if !sync {
                    cfg = cfg.asynchronous(seed);
                }
                let tiers: [(&str, Option<NetHosting>); 3] = [
                    ("sim", None),
                    ("net", Some(NetHosting::Shards(4))),
                    ("net-1shard", Some(NetHosting::Shards(1))),
                ];
                for (tier, hosting) in tiers {
                    let recorder = Arc::new(TraceRecorder::new());
                    let outcome = match hosting {
                        None => {
                            arrow_core::run::run_schedule_probed(&instance, &schedule, &cfg, |v| {
                                recorder.sim_probe(v)
                            })
                        }
                        Some(h) => {
                            NetDriver::hosted(h)
                                .run_probed(&instance, &schedule, &cfg, |v| recorder.wall_probe(v))
                        }
                    }
                    .unwrap_or_else(|e| panic!("{tier} seed {seed}: {e}"));
                    let events = crate::trace::finish(recorder);
                    let queue_sent = events
                        .iter()
                        .filter(|e| matches!(e.ev, ProbeEvent::QueueSent { .. }))
                        .count() as u64;
                    assert!(queue_sent > 0, "{tier} seed {seed}: no queue frames");
                    assert_eq!(
                        queue_sent, outcome.protocol_messages,
                        "{tier} seed {seed} sync={sync}"
                    );
                    let violations = check_per_link_fifo(tier, &events);
                    assert!(violations.is_empty(), "{tier} seed {seed}: {violations:?}");
                    let violations = check_tree_edges(tier, instance.tree(), &events);
                    assert!(violations.is_empty(), "{tier} seed {seed}: {violations:?}");
                }
            }
        }
    }

    #[test]
    fn message_sanity_flags_impossible_counts() {
        let mut outcome = valid_outcome();
        outcome.protocol_messages = u64::MAX / 2;
        let violations = check_message_sanity("sim", &outcome, 6);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].invariant, InvariantKind::MessageSanity);
    }

    #[test]
    fn latency_bound_holds_on_the_papers_platform() {
        let instance = Instance::complete_uniform(10, SpanningTreeKind::BalancedBinary);
        let schedule = workload::one_shot_burst(&(0..10).collect::<Vec<_>>(), SimTime::ZERO);
        let cfg = RunConfig::analysis(ProtocolKind::Arrow);
        let outcome = run_schedule(&instance, &schedule, &cfg);
        let violations = check_latency_bound("sim", &instance, &schedule, outcome.total_latency);
        assert!(violations.is_empty(), "{violations:?}");
        // An absurd measured cost must trip the bound.
        let tripped = check_latency_bound("sim", &instance, &schedule, 1e9);
        assert_eq!(tripped.len(), 1);
        assert_eq!(tripped[0].invariant, InvariantKind::LatencyBound);
    }
}
