//! One interface over the three execution tiers.
//!
//! The repo runs the one arrow automaton ([`crate::live::ArrowCore`]) on three
//! independent transports here — the discrete-event simulator
//! ([`mod@crate::run`]), the in-process thread runtime
//! ([`crate::live::ArrowRuntime`]) and the socket runtime (the `arrow-net`
//! crate) — each with its own hosting, journaling and timing code, and nothing
//! stops those drifting apart unless something runs the *same workload* through
//! all of them and holds the results to the *same contract*.
//! [`Driver`] is that seam: "run this [`RequestSchedule`] on this [`Instance`] and
//! hand back a [`QueuingOutcome`], or a typed [`RunError`]". The conformance
//! harness (`arrow-conformance`) sweeps seeded cases over every applicable driver
//! and checks a shared invariant suite on each outcome.
//!
//! Two drivers live here because they need nothing beyond this crate:
//! [`SimDriver`] (the simulator) and [`ThreadDriver`] (the thread runtime). The
//! socket tier's `NetDriver` lives in `arrow-conformance`, which may depend on
//! `arrow-net`.
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

use crate::live::ArrowRuntime;
use crate::protocol::ProtocolKind;
use crate::request::{ObjectId, RequestSchedule};
use crate::run::{
    outcome_from_records, run_schedule_checked, Instance, QueuingOutcome, RunConfig, RunError,
};
use arrow_trace::{NoProbe, Probe};
use desim::SimTime;
use netgraph::NodeId;
use std::collections::BTreeMap;
use std::time::Duration;

/// Default live-tier grant timeout: how long a replay worker waits for one token
/// grant before declaring the grant chain wedged (a lost token is exactly the
/// class of protocol bug the conformance harness exists to catch — it must
/// surface as a typed [`RunError::GrantTimeout`], not hang the sweep).
/// Conformance cases complete in milliseconds; half a minute of silence on an
/// instant-latency mesh is a deadlock, not contention.
///
/// Per-run override: [`RunConfig::with_grant_timeout_ms`] — the drivers read
/// [`RunConfig::grant_timeout`], and fault sweeps lower it so a genuinely lost
/// token fails fast.
pub const GRANT_TIMEOUT: Duration = Duration::from_millis(RunConfig::DEFAULT_GRANT_TIMEOUT_MS);

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
/// distinct pairs run concurrently). Public so out-of-crate drivers (the socket
/// tier's `NetDriver`) replay schedules exactly the way [`ThreadDriver`] does.
pub fn acquire_sequences(schedule: &RequestSchedule) -> BTreeMap<(NodeId, ObjectId), usize> {
    let mut seqs: BTreeMap<(NodeId, ObjectId), usize> = BTreeMap::new();
    for r in schedule.requests() {
        *seqs.entry((r.node, r.obj)).or_insert(0) += 1;
    }
    seqs
}

/// Tier 2: the in-process thread runtime ([`ArrowRuntime`]) — one OS thread per
/// node, std mpsc links, real token passing. Runs on the instance's spanning tree
/// (protocol traffic is tree-only in every tier).
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadDriver;

impl ThreadDriver {
    /// Like [`Driver::run`], with a recording probe per node (typically
    /// [`arrow_trace::TraceRecorder::wall_probe`]) so the replay leaves a causal
    /// event trace behind. The runtime's node threads — and therefore the probes,
    /// which flush on drop — exit inside this call, so the recorder holds every
    /// event once this returns.
    pub fn run_probed<P: Probe>(
        &self,
        instance: &Instance,
        schedule: &RequestSchedule,
        config: &RunConfig,
        probe_for: impl FnMut(NodeId) -> P,
    ) -> Result<QueuingOutcome, RunError> {
        debug_assert!(self.supports(config));
        if let Some(r) = schedule
            .requests()
            .iter()
            .find(|r| r.node >= instance.node_count())
        {
            return Err(RunError::Transport {
                node: r.node,
                description: format!("schedule names node {} outside the instance", r.node),
            });
        }
        let k = schedule.object_id_bound();
        let grant_timeout = config.grant_timeout();
        let rt = ArrowRuntime::spawn_multi_probed(instance.tree(), k, probe_for);
        let mut workers = Vec::new();
        for ((node, obj), count) in acquire_sequences(schedule) {
            let h = rt.handle(node);
            workers.push(std::thread::spawn(move || -> Result<(), RunError> {
                for _ in 0..count {
                    let req = h.acquire_object_timeout(obj, grant_timeout).ok_or(
                        RunError::GrantTimeout {
                            node,
                            obj,
                            waited_ms: grant_timeout.as_millis() as u64,
                        },
                    )?;
                    h.release_object(obj, req);
                }
                Ok(())
            }));
        }
        // Join every worker before shutting down, collecting the first failure —
        // an early return here would drop the runtime under still-blocked workers.
        let mut first_failure: Option<RunError> = None;
        for w in workers {
            match w.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    first_failure.get_or_insert(e);
                }
                Err(_) => {
                    first_failure.get_or_insert(RunError::Transport {
                        node: 0,
                        description: "a replay worker thread panicked".to_string(),
                    });
                }
            }
        }
        let report = rt.shutdown_report();
        if let Some(failure) = first_failure {
            return Err(failure);
        }
        let (queue_msgs, token_msgs, _) = report.stats();
        let makespan = report
            .records()
            .iter()
            .map(|r| r.informed_at)
            .max()
            .unwrap_or(SimTime::ZERO);
        outcome_from_records(
            ProtocolKind::Arrow,
            report.schedule().requests().to_vec(),
            report.records().to_vec(),
            queue_msgs,
            queue_msgs + token_msgs,
            makespan,
        )
    }
}

impl Driver for ThreadDriver {
    fn name(&self) -> &'static str {
        "thread"
    }

    fn supports(&self, config: &RunConfig) -> bool {
        config.protocol == ProtocolKind::Arrow
    }

    fn run(
        &self,
        instance: &Instance,
        schedule: &RequestSchedule,
        config: &RunConfig,
    ) -> Result<QueuingOutcome, RunError> {
        self.run_probed(instance, schedule, config, |_| NoProbe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    }

    #[test]
    fn thread_driver_replays_the_request_multiset() {
        let instance = Instance::complete_uniform(6, SpanningTreeKind::BalancedBinary);
        let triples: Vec<(NodeId, SimTime, ObjectId)> = (0..12)
            .map(|i| {
                (
                    i % 6,
                    SimTime::from_units(i as u64),
                    ObjectId((i % 2) as u32),
                )
            })
            .collect();
        let schedule = RequestSchedule::from_object_pairs(&triples);
        let cfg = RunConfig::analysis(ProtocolKind::Arrow);
        let outcome = ThreadDriver.run(&instance, &schedule, &cfg).unwrap();
        assert_eq!(outcome.request_count(), 12);
        assert_eq!(outcome.object_count(), 2);
        // Same per-(node, object) multiset, fresh ids.
        assert_eq!(
            acquire_sequences(&outcome.schedule),
            acquire_sequences(&schedule)
        );
        let total: usize = outcome.orders.iter().map(|(_, o)| o.len()).sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn thread_driver_rejects_out_of_range_nodes_as_typed_errors() {
        let instance = Instance::complete_uniform(4, SpanningTreeKind::BalancedBinary);
        let schedule = RequestSchedule::from_pairs(&[(9, SimTime::ZERO)]);
        let cfg = RunConfig::analysis(ProtocolKind::Arrow);
        let err = ThreadDriver.run(&instance, &schedule, &cfg).unwrap_err();
        assert!(matches!(err, RunError::Transport { node: 9, .. }));
    }

    #[test]
    fn thread_driver_does_not_support_the_centralized_baseline() {
        assert!(!ThreadDriver.supports(&RunConfig::analysis(ProtocolKind::Centralized)));
        assert!(SimDriver.supports(&RunConfig::analysis(ProtocolKind::Centralized)));
    }
}
