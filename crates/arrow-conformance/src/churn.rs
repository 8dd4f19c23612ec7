//! The churn path of the sweep: fault-injected cases on the simulator and the
//! in-process reactor tiers.
//!
//! A [`ReplayCase`] with a non-empty fault list cannot be held to the fault-free
//! invariant suite — requests may be delayed across recovery epochs, each epoch
//! builds its own order chain, and a crashed node rejects acquires until it is
//! restarted and re-adopted by an epoch bump. What *is* checkable, identically on
//! every tier, is the **churn contract**:
//!
//! * **liveness** — every request a worker issued is eventually granted (workers
//!   retry through crashes with a bounded per-attempt timeout; exhausting the
//!   retry budget is a violation, not a hang);
//! * **per-epoch order integrity** — the epoch-stamped successor records form
//!   fork-free chains per `(object, epoch)` group, and the final epoch forms one
//!   complete chain per object from the virtual root
//!   ([`validate_churn_records`]);
//! * **terminal convergence** — the run drains at the schedule's final epoch
//!   (`fault count` bumps), i.e. recovery actually caught every injected fault.
//!
//! The simulator replays the fault schedule in virtual time
//! ([`run_schedule_faulted`]); the reactor tiers pace the same schedule on the
//! wall clock through the runtime's [`arrow_net::NetFaultHandle`] while the
//! live replay client ([`arrow_net::replay`]) runs the case's `(node, object)`
//! acquire sequences with retries. A live grant can be lost to a crash *after*
//! injection has finished (no further epoch bump will re-issue it), so the
//! client's recovery nudge is the one [`arrow_net::replay::inject`] hands
//! back: that module is the one home of the timeout-as-detection rule, a
//! missed attempt after injection re-broadcasting the final epoch as a real
//! deployment's failure detector would.
//!
//! Each tier also reports how many **token regenerations** it observed (order
//! records chained behind the virtual root in a bumped epoch — evidence the
//! directory rebuilt a token that churn destroyed), which the sweep surfaces per
//! tier so a fault run visibly exercised recovery rather than dodging it — and so
//! a tier whose faults all land on an idle directory shows up as zero.

use crate::case::ReplayCase;
use crate::invariants::{InvariantKind, Violation};
use crate::net_driver::{NetHosting, NET_TIERS};
use arrow_core::driver::acquire_sequences;
use arrow_core::prelude::*;
use arrow_net::replay::{inject, Client};
use arrow_net::{NetConfig, NetRuntime};
use netgraph::NodeId;
use std::time::Duration;

/// Per-attempt grant timeout for live-tier churn workers. Long enough for a
/// token to cross an instant-latency mesh even under injection, short enough
/// that a worker stuck behind a crash re-checks (and possibly re-heals) quickly.
const ATTEMPT_TIMEOUT_MS: u64 = 300;

/// Retry budget per acquire. `ATTEMPT_TIMEOUT_MS × MAX_ATTEMPTS` (60 s) bounds
/// the sweep's worst case; a genuinely lost token fails the liveness contract
/// long before a CI timeout would.
const MAX_ATTEMPTS: u32 = 200;

/// Wall-clock duration of one fault-schedule tick in the live tiers — long
/// enough that protocol traffic actually flows between consecutive faults.
const TICK: Duration = Duration::from_millis(15);

fn churn_violation(tier: &str, detail: String) -> Violation {
    Violation {
        invariant: InvariantKind::ChurnContract,
        tier: tier.to_string(),
        detail,
    }
}

/// Run one fault-injected case through every applicable tier. Returns each tier
/// run with the token regenerations it observed, as `(tier, regenerations)` in
/// the order the tiers ran, and all violations.
pub fn run_churn_case(
    case: &ReplayCase,
    include_net: bool,
) -> (Vec<(String, u64)>, Vec<Violation>) {
    let instance = case.spec.build_instance();
    let schedule = case.schedule();
    let faults = case.fault_schedule();
    let mut tiers_run = Vec::new();
    let mut violations = Vec::new();

    if let Err(e) = faults.validate(instance.tree()) {
        // A bad schedule (hand-edited replay, shrink bug) fails the case up
        // front on every tier rather than panicking inside one of them.
        violations.push(churn_violation("schedule", e));
        return (tiers_run, violations);
    }
    let work = match acquire_sequences(&schedule, instance.node_count()) {
        Ok(work) => work,
        Err(e) => {
            violations.push(churn_violation("schedule", e.to_string()));
            return (tiers_run, violations);
        }
    };

    // The simulator config also drives the live tiers' retry pacing: the churn
    // runners read the (lowered) grant timeout as their per-attempt budget.
    let cfg = case
        .spec
        .run_config(ProtocolKind::Arrow)
        .with_grant_timeout_ms(ATTEMPT_TIMEOUT_MS);

    // Tier 1: deterministic virtual-time churn on the simulator.
    let sim_regenerations = match run_schedule_faulted(&instance, &schedule, &cfg, &faults) {
        Err(e) => {
            violations.push(churn_violation("sim", e.to_string()));
            0
        }
        Ok(outcome) => {
            if let Err(e) = outcome.validate() {
                violations.push(churn_violation("sim", e.to_string()));
            }
            outcome.token_regenerations()
        }
    };
    tiers_run.push(("sim".to_string(), sim_regenerations));

    // Tier 3: the same schedule paced on the wall clock.
    if include_net {
        // Fault injection drives one runtime's fault handle, so the churn
        // sweep runs the tiers that host every node in one runtime; the wire
        // meets churn in the cluster tier's SIGKILL coverage.
        for (tier, hosting) in NET_TIERS {
            let NetHosting::Shards(shards) = hosting else {
                continue;
            };
            let (found, regenerations) =
                run_net_churn(&instance, &schedule, &work, &faults, &cfg, tier, shards);
            violations.extend(found);
            tiers_run.push((tier.to_string(), regenerations));
        }
    }
    (tiers_run, violations)
}

/// Socket-tier churn: one runtime hosting every node in fault-tolerant mode
/// (an unreachable peer drops the frame for epoch recovery to compensate,
/// instead of failing the whole mesh) + wall-clock fault injection crashing
/// nodes and severing links, at one of the [`NET_TIERS`] shard counts.
/// Returns the tier's violations and the token regenerations it observed.
fn run_net_churn(
    instance: &Instance,
    schedule: &RequestSchedule,
    work: &[(NodeId, ObjectId, usize)],
    faults: &FaultSchedule,
    cfg: &RunConfig,
    tier: &str,
    shards: usize,
) -> (Vec<Violation>, u64) {
    let final_epoch = faults.final_epoch();
    let k = schedule.object_id_bound().max(1);
    let net_cfg = NetConfig::instant()
        .with_fault_tolerance()
        .with_dial_retries(1)
        .with_shards(shards);
    let rt = NetRuntime::spawn_multi(instance.tree(), k, net_cfg);
    let (injector, nudge) = {
        let (tree, faults) = (instance.tree().clone(), faults.clone());
        inject(rt.fault_handle(), final_epoch, move |fh| {
            fh.run_schedule(&faults, &tree, TICK)
        })
    };
    let client = Client::new(cfg.grant_timeout(), MAX_ATTEMPTS).with_nudge(nudge);
    let tally = client.spawn(work.iter().copied(), |v| rt.handle(v)).join();
    let mut violations: Vec<Violation> = tally
        .failures
        .into_iter()
        .map(|(_, e)| churn_violation(tier, e.to_string()))
        .collect();
    injector.join().ok();
    let report = rt.shutdown();
    if let Err(e) = report.validate_churn(final_epoch) {
        violations.push(churn_violation(tier, e.to_string()));
    }
    // In fault-tolerant mode the failure list should stay empty: transient
    // acquire rejections surface to workers (who retry), not the mesh.
    for f in report.failures() {
        violations.push(churn_violation(tier, f.to_string()));
    }
    (violations, report.token_regenerations() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::{CaseSpec, GraphKind, WorkloadKind};

    fn fault_spec(seed: u64) -> CaseSpec {
        CaseSpec {
            seed,
            nodes: 7,
            graph: GraphKind::Complete,
            tree: SpanningTreeKind::BalancedBinary,
            objects: 2,
            requests: 10,
            workload: WorkloadKind::Zipf,
            sync: SyncMode::Synchronous,
            async_lo: 0.05,
        }
    }

    #[test]
    fn a_faulted_case_passes_the_churn_contract_on_all_three_tiers() {
        let case = ReplayCase::generate_with_faults(fault_spec(3), 2);
        assert!(!case.faults.is_empty());
        let (tiers, violations) = run_churn_case(&case, true);
        let tiers: Vec<&str> = tiers.iter().map(|(t, _)| t.as_str()).collect();
        assert_eq!(tiers, ["sim", "net", "net-1shard"]);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn an_invalid_fault_schedule_is_a_violation_not_a_panic() {
        let mut case = ReplayCase::generate(fault_spec(4));
        // Crash without a restart: terminally dirty, rejected by validation.
        case.faults = vec![FaultEvent {
            at: 1,
            action: FaultAction::CrashNode(3),
        }];
        let (tiers, violations) = run_churn_case(&case, true);
        assert!(tiers.is_empty());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].invariant, InvariantKind::ChurnContract);
        assert!(violations[0].detail.contains("still crashed"));
    }
}
