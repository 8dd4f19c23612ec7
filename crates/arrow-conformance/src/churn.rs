//! The churn path of the sweep: fault-injected cases across all three tiers.
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
//! ([`run_schedule_faulted`]); the thread and socket tiers pace the same schedule
//! on the wall clock through their fault handles ([`FaultHandle`](arrow_core::live::FaultHandle),
//! [`arrow_net::NetFaultHandle`]) while replay workers run the case's
//! `(node, object)` acquire sequences with retries. Because a live grant can be
//! lost to a crash *after* injection has finished (no further epoch bump will
//! re-issue it), a worker whose attempt times out after the injector is done
//! re-broadcasts the final epoch — an idempotent recovery nudge, exactly the
//! timeout-as-detection rule a real deployment would use.
//!
//! Each tier also reports how many **token regenerations** it observed (order
//! records chained behind the virtual root in a bumped epoch — evidence the
//! directory rebuilt a token that churn destroyed), which the sweep surfaces so a
//! fault run visibly exercised recovery rather than dodging it.

use crate::case::ReplayCase;
use crate::invariants::{InvariantKind, Violation};
use crate::net_driver::{NetHosting, NET_TIERS};
use arrow_core::driver::acquire_sequences;
use arrow_core::live::ArrowRuntime;
use arrow_core::prelude::*;
use arrow_net::{NetConfig, NetRuntime};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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

/// What one tier observed running a churn case.
struct TierChurn {
    violations: Vec<Violation>,
    token_regenerations: u64,
}

fn churn_violation(tier: &str, detail: String) -> Violation {
    Violation {
        invariant: InvariantKind::ChurnContract,
        tier: tier.to_string(),
        detail,
    }
}

/// Run one fault-injected case through every applicable tier. Returns the tiers
/// run, all violations, and the total token regenerations observed across tiers.
pub fn run_churn_case(
    case: &ReplayCase,
    include_thread: bool,
    include_net: bool,
) -> (Vec<String>, Vec<Violation>, u64) {
    let instance = case.spec.build_instance();
    let schedule = case.schedule();
    let faults = case.fault_schedule();
    let mut tiers_run = Vec::new();
    let mut violations = Vec::new();
    let mut regenerations = 0u64;

    if let Err(e) = faults.validate(instance.tree()) {
        // A bad schedule (hand-edited replay, shrink bug) fails the case up
        // front on every tier rather than panicking inside one of them.
        violations.push(churn_violation("schedule", e));
        return (tiers_run, violations, regenerations);
    }
    if let Some(r) = schedule
        .requests()
        .iter()
        .find(|r| r.node >= instance.node_count())
    {
        violations.push(churn_violation(
            "schedule",
            format!("schedule names node {} outside the instance", r.node),
        ));
        return (tiers_run, violations, regenerations);
    }

    // The simulator config also drives the live tiers' retry pacing: the churn
    // runners read the (lowered) grant timeout as their per-attempt budget.
    let cfg = case
        .spec
        .run_config(ProtocolKind::Arrow)
        .with_grant_timeout_ms(ATTEMPT_TIMEOUT_MS);

    // Tier 1: deterministic virtual-time churn on the simulator.
    tiers_run.push("sim".to_string());
    match run_schedule_faulted(&instance, &schedule, &cfg, &faults) {
        Err(e) => violations.push(churn_violation("sim", e.to_string())),
        Ok(outcome) => {
            if let Err(e) = outcome.validate() {
                violations.push(churn_violation("sim", e.to_string()));
            }
            regenerations += outcome.token_regenerations();
        }
    }

    // Tiers 2 and 3: the same schedule paced on the wall clock.
    if include_thread {
        tiers_run.push("thread".to_string());
        let t = run_thread_churn(&instance, &schedule, &faults, &cfg);
        violations.extend(t.violations);
        regenerations += t.token_regenerations;
    }
    if include_net {
        // Fault injection drives one runtime's fault handle, so the churn
        // sweep runs the tiers that host every node in one runtime; the wire
        // meets churn in the cluster tier's SIGKILL coverage.
        for (tier, hosting) in NET_TIERS {
            let NetHosting::Shards(shards) = hosting else {
                continue;
            };
            tiers_run.push(tier.to_string());
            let t = run_net_churn(&instance, &schedule, &faults, &cfg, tier, shards);
            violations.extend(t.violations);
            regenerations += t.token_regenerations;
        }
    }
    (tiers_run, violations, regenerations)
}

/// Thread-tier churn: in-process runtime + wall-clock fault injection.
fn run_thread_churn(
    instance: &Instance,
    schedule: &RequestSchedule,
    faults: &FaultSchedule,
    cfg: &RunConfig,
) -> TierChurn {
    let tier = "thread";
    let final_epoch = faults.final_epoch();
    let attempt = cfg.grant_timeout();
    let k = schedule.object_id_bound().max(1);
    let rt = ArrowRuntime::spawn_multi(instance.tree(), k);
    let fh = rt.fault_handle();
    let injector_done = Arc::new(AtomicBool::new(false));
    let injector = {
        let fh = fh.clone();
        let tree = instance.tree().clone();
        let faults = faults.clone();
        let done = Arc::clone(&injector_done);
        std::thread::spawn(move || {
            fh.run_schedule(&faults, &tree, TICK);
            done.store(true, Ordering::SeqCst);
        })
    };
    let mut workers = Vec::new();
    for ((node, obj), count) in acquire_sequences(schedule) {
        let h = rt.handle(node);
        let fh = fh.clone();
        let done = Arc::clone(&injector_done);
        workers.push(std::thread::spawn(move || -> Result<(), String> {
            for _ in 0..count {
                let mut attempts = 0u32;
                loop {
                    attempts += 1;
                    if attempts > MAX_ATTEMPTS {
                        return Err(format!(
                            "node {node} {obj}: no grant within {MAX_ATTEMPTS} attempts"
                        ));
                    }
                    match h.acquire_object_timeout(obj, attempt) {
                        Some(req) => {
                            h.release_object(obj, req);
                            break;
                        }
                        None => {
                            // Crashed-node rejection or a grant lost to churn:
                            // once injection is over a timeout doubles as fault
                            // detection, and re-broadcasting the final epoch is
                            // an idempotent heal.
                            if done.load(Ordering::SeqCst) {
                                fh.broadcast_epoch(final_epoch);
                            }
                            std::thread::sleep(Duration::from_millis(10));
                        }
                    }
                }
            }
            Ok(())
        }));
    }
    let mut violations = Vec::new();
    for w in workers {
        match w.join() {
            Ok(Ok(())) => {}
            Ok(Err(detail)) => violations.push(churn_violation(tier, detail)),
            Err(_) => violations.push(churn_violation(
                tier,
                "a churn replay worker panicked".to_string(),
            )),
        }
    }
    injector.join().ok();
    let report = rt.shutdown_report();
    if let Err(e) = validate_churn_records(report.records(), final_epoch) {
        violations.push(churn_violation(tier, e.to_string()));
    }
    let token_regenerations = report
        .records()
        .iter()
        .filter(|r| r.epoch > 0 && r.predecessor.is_root())
        .count() as u64;
    TierChurn {
        violations,
        token_regenerations,
    }
}

/// Socket-tier churn: one runtime hosting every node in fault-tolerant mode
/// (an unreachable peer drops the frame for epoch recovery to compensate,
/// instead of failing the whole mesh) + wall-clock fault injection crashing
/// nodes and severing links, at one of the [`NET_TIERS`] shard counts.
fn run_net_churn(
    instance: &Instance,
    schedule: &RequestSchedule,
    faults: &FaultSchedule,
    cfg: &RunConfig,
    tier: &str,
    shards: usize,
) -> TierChurn {
    let final_epoch = faults.final_epoch();
    let attempt = cfg.grant_timeout();
    let k = schedule.object_id_bound().max(1);
    let net_cfg = NetConfig::instant()
        .with_fault_tolerance()
        .with_dial_retries(1)
        .with_shards(shards);
    let rt = NetRuntime::spawn_multi(instance.tree(), k, net_cfg);
    let fh = rt.fault_handle();
    let injector_done = Arc::new(AtomicBool::new(false));
    let injector = {
        let fh = fh.clone();
        let tree = instance.tree().clone();
        let faults = faults.clone();
        let done = Arc::clone(&injector_done);
        std::thread::spawn(move || {
            fh.run_schedule(&faults, &tree, TICK);
            done.store(true, Ordering::SeqCst);
        })
    };
    let mut workers = Vec::new();
    for ((node, obj), count) in acquire_sequences(schedule) {
        let h = rt.handle(node);
        let fh = fh.clone();
        let done = Arc::clone(&injector_done);
        workers.push(std::thread::spawn(move || -> Result<(), String> {
            for _ in 0..count {
                let mut attempts = 0u32;
                loop {
                    attempts += 1;
                    if attempts > MAX_ATTEMPTS {
                        return Err(format!(
                            "node {node} {obj}: no grant within {MAX_ATTEMPTS} attempts"
                        ));
                    }
                    match h.try_acquire_object_timeout(obj, attempt) {
                        Ok(req) => {
                            h.release_object(obj, req);
                            break;
                        }
                        Err(_) => {
                            if done.load(Ordering::SeqCst) {
                                fh.broadcast_epoch(final_epoch);
                            }
                            std::thread::sleep(Duration::from_millis(10));
                        }
                    }
                }
            }
            Ok(())
        }));
    }
    let mut violations = Vec::new();
    for w in workers {
        match w.join() {
            Ok(Ok(())) => {}
            Ok(Err(detail)) => violations.push(churn_violation(tier, detail)),
            Err(_) => violations.push(churn_violation(
                tier,
                "a churn replay worker panicked".to_string(),
            )),
        }
    }
    injector.join().ok();
    let report = rt.shutdown();
    if let Err(e) = report.validate_churn(final_epoch) {
        violations.push(churn_violation(tier, e.to_string()));
    }
    // In fault-tolerant mode the failure list should stay empty: transient
    // acquire rejections surface to workers (who retry), not the mesh.
    for f in report.failures() {
        violations.push(churn_violation(
            tier,
            format!("node {}: {}", f.node, f.description),
        ));
    }
    let token_regenerations = report.token_regenerations() as u64;
    TierChurn {
        violations,
        token_regenerations,
    }
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
        let (tiers, violations, _regens) = run_churn_case(&case, true, true);
        assert_eq!(tiers, ["sim", "thread", "net", "net-1shard"]);
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
        let (tiers, violations, _) = run_churn_case(&case, true, true);
        assert!(tiers.is_empty());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].invariant, InvariantKind::ChurnContract);
        assert!(violations[0].detail.contains("still crashed"));
    }
}
