//! One interface over the execution tiers.
//!
//! The repo runs the one arrow automaton ([`crate::live::ArrowCore`]) on two
//! independent hosts — the discrete-event simulator ([`mod@crate::run`]) and the
//! reactor runtime (the `arrow-net` crate, in one process or as one `arrowd`
//! process per node) — each with its own hosting, journaling and timing code, and
//! nothing stops those drifting apart unless something runs the *same workload*
//! through all of them and holds the results to the *same contract*.
//! [`Driver`] is that seam: "run this [`RequestSchedule`] on this [`Instance`] and
//! hand back a [`QueuingOutcome`], or a typed [`RunError`]". The conformance
//! harness (`arrow-conformance`) sweeps seeded cases over every applicable driver
//! and checks a shared invariant suite on each outcome.
//!
//! One driver lives here because it needs nothing beyond this crate:
//! [`SimDriver`] (the simulator). The reactor tier's `NetDriver` lives in
//! `arrow-conformance` and the process tier's `ClusterDriver` in `arrow-cluster`,
//! which may depend on `arrow-net`.
//!
//! ## What the live tiers can and cannot replay
//!
//! The simulator replays a schedule *exactly*: issue times are virtual, so the
//! outcome's schedule is the input schedule. The live tiers run on wall clocks and
//! assign their own request ids, so a schedule is replayed as a **concurrency
//! shape**: for every `(node, object)` pair, that node issues the pair's requests
//! in schedule order (blocking on each acquire), while distinct pairs proceed in
//! parallel. The reconstructed outcome therefore has the same per-node/per-object
//! request *multiset* as the input but fresh ids and wall-clock times — which is
//! exactly what the conformance invariants need (order validity, exactly-once
//! queuing, token conservation), and exactly what latency-bound invariants must
//! not be applied to (the harness only checks those on [`SimDriver`] outcomes).

use crate::request::{ObjectId, RequestSchedule};
use crate::run::{run_schedule_checked, Instance, QueuingOutcome, RunConfig, RunError};
use netgraph::NodeId;
use std::collections::BTreeMap;

/// Run a [`RequestSchedule`] on an [`Instance`] in one execution tier and return
/// the outcome with failures as data.
///
/// Implementations must never abort the process on a protocol failure: an invalid
/// order, a dropped protocol-violating message or a transport failure comes back
/// as a [`RunError`] so a differential sweep can record, shrink and replay it.
pub trait Driver {
    /// Short stable name of the tier (used in reports and replay files).
    fn name(&self) -> &'static str;

    /// True if this driver can execute the given configuration (e.g. the live
    /// tiers only implement the arrow protocol, not the centralized baseline).
    fn supports(&self, config: &RunConfig) -> bool;

    /// Execute the schedule and assemble a validated outcome.
    fn run(
        &self,
        instance: &Instance,
        schedule: &RequestSchedule,
        config: &RunConfig,
    ) -> Result<QueuingOutcome, RunError>;
}

/// Tier 1: the deterministic discrete-event simulator ([`run_schedule_checked`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct SimDriver;

impl Driver for SimDriver {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn supports(&self, _config: &RunConfig) -> bool {
        true
    }

    fn run(
        &self,
        instance: &Instance,
        schedule: &RequestSchedule,
        config: &RunConfig,
    ) -> Result<QueuingOutcome, RunError> {
        run_schedule_checked(instance, schedule, config)
    }
}

/// Group a schedule into per-`(node, object)` acquire counts — the replay unit of
/// the live tiers (each pair's acquires run sequentially on one worker thread,
/// distinct pairs run concurrently) — as `(node, object, count)` in
/// `(node, object)` order. The live drivers live outside this crate
/// (`NetDriver` in `arrow-conformance`, `ClusterDriver` in `arrow-cluster`) and
/// both replay schedules through it, so they cannot disagree on the shape.
///
/// A schedule naming a node outside an `n`-node instance is refused as a
/// [`RunError::Transport`] at that node: no live tier can host it.
pub fn acquire_sequences(
    schedule: &RequestSchedule,
    n: usize,
) -> Result<Vec<(NodeId, ObjectId, usize)>, RunError> {
    let mut seqs = BTreeMap::new();
    for r in schedule.requests() {
        if r.node >= n {
            let description = format!("schedule names node {} outside the instance", r.node);
            return Err(RunError::Transport {
                node: r.node,
                description,
            });
        }
        *seqs.entry((r.node, r.obj)).or_insert(0) += 1;
    }
    Ok(seqs.into_iter().map(|((v, obj), c)| (v, obj, c)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ProtocolKind;
    use crate::workload;
    use netgraph::spanning::SpanningTreeKind;

    #[test]
    fn sim_driver_matches_run_schedule() {
        let instance = Instance::complete_uniform(8, SpanningTreeKind::BalancedBinary);
        let schedule = workload::poisson(8, 1.0, 8.0, 3);
        let cfg = RunConfig::analysis(ProtocolKind::Arrow);
        let via_driver = SimDriver.run(&instance, &schedule, &cfg).unwrap();
        let direct = crate::run::run_schedule(&instance, &schedule, &cfg);
        assert_eq!(via_driver.order.order(), direct.order.order());
        assert_eq!(via_driver.total_latency, direct.total_latency);
        assert!(SimDriver.supports(&RunConfig::analysis(ProtocolKind::Centralized)));
    }
}
