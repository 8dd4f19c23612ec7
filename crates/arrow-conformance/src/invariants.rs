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
//! * **per-link FIFO** — on simulator outcomes with a trace, messages on each
//!   directed link are delivered in send order (the arrow protocol's correctness
//!   assumes FIFO links);
//! * **latency bound** — on synchronous single-object arrow simulator outcomes,
//!   the measured competitive ratio respects the Theorem 3.19 bound (via
//!   [`queuing_analysis::measure_ratio`]; degenerate instances are skipped).

use arrow_core::prelude::*;
use desim::{Trace, TraceEvent};
use queuing_analysis::measure_ratio_with_cost;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

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
    /// Per-link FIFO delivery (simulator traces only).
    PerLinkFifo,
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
    /// Which tier produced the outcome (`sim`, `sim-centralized`, `thread`, `net`).
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

/// Per-link FIFO: on each directed link, scheduled delivery times never decrease
/// in send order (the simulator's latency models must preserve this; the arrow
/// protocol is incorrect without it).
pub fn check_per_link_fifo(tier: &str, trace: &Trace) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut last_delivery: HashMap<(usize, usize), desim::SimTime> = HashMap::new();
    for event in trace.events() {
        if let TraceEvent::Send {
            from,
            to,
            delivery,
            label,
            ..
        } = event
        {
            if let Some(&prev) = last_delivery.get(&(*from, *to)) {
                if *delivery < prev {
                    violations.push(Violation::new(
                        InvariantKind::PerLinkFifo,
                        tier,
                        format!(
                            "link {from}->{to}: {label} scheduled for {delivery} after a \
                             frame scheduled for {prev}"
                        ),
                    ));
                }
            }
            last_delivery.insert((*from, *to), *delivery);
        }
    }
    violations
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

    #[test]
    fn fifo_check_flags_reordered_sends() {
        let mut trace = Trace::enabled();
        trace.push(TraceEvent::Send {
            time: SimTime::ZERO,
            from: 0,
            to: 1,
            delivery: SimTime::from_units(5),
            label: "a".into(),
        });
        trace.push(TraceEvent::Send {
            time: SimTime::from_units(1),
            from: 0,
            to: 1,
            delivery: SimTime::from_units(3),
            label: "b".into(),
        });
        let violations = check_per_link_fifo("sim", &trace);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].invariant, InvariantKind::PerLinkFifo);
        // Reordering across *different* links is fine.
        let mut ok = Trace::enabled();
        ok.push(TraceEvent::Send {
            time: SimTime::ZERO,
            from: 0,
            to: 1,
            delivery: SimTime::from_units(5),
            label: "a".into(),
        });
        ok.push(TraceEvent::Send {
            time: SimTime::from_units(1),
            from: 0,
            to: 2,
            delivery: SimTime::from_units(3),
            label: "b".into(),
        });
        assert!(check_per_link_fifo("sim", &ok).is_empty());
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
