//! The differential sweep: seeded cases × tiers × invariants.
//!
//! For every generated [`ReplayCase`] the sweep runs, where applicable:
//!
//! 1. **sim** — the arrow protocol on the deterministic simulator, every node
//!    carrying a recording probe, held to every invariant including per-link
//!    FIFO (read from the probe trace) and the Theorem 3.19 latency bound
//!    (sync, single-object);
//! 2. **sim-centralized** — the centralized baseline on the same schedule, as a
//!    differential reference (same exactly-once/token/multiset contracts);
//! 3. **net**, **net-1shard**, **net-wire** — the reactor runtime, hosted three
//!    ways ([`crate::net_driver::NET_TIERS`]): memory hops across four shards'
//!    threads, memory hops on one shard, and one daemon-mode runtime per node
//!    with every hop on loopback TCP. The first two carry wall-clock probes and
//!    are held to per-link FIFO too; daemons carry none.
//!
//! Any violation (or typed [`RunError`]) fails the case; failing cases are
//! shrunk ([`crate::shrink::shrink`]) and can be written out as one-command
//! replay files.
//!
//! With [`SweepOptions::fault_episodes`] `> 0` every case additionally carries a
//! seeded fault schedule (crashes, restarts, link drops) and runs the churn
//! contract ([`crate::churn`]) on the sim and in-process net tiers instead of the
//! fault-free suite; the report then also counts observed token regenerations
//! per tier.

use crate::case::{CaseSpec, GraphKind, ReplayCase, WorkloadKind};
use crate::invariants::{self, InvariantKind, Violation};
use crate::net_driver::{NetDriver, NET_TIERS};
use crate::trace::finish;
use arrow_core::driver::{Driver, SimDriver};
use arrow_core::prelude::*;
use arrow_core::run::run_schedule_probed;
use arrow_trace::TraceRecorder;
use desim::{SimConfig, SimRng};
use netgraph::spanning::SpanningTreeKind;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::Arc;

/// What a sweep should run.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Number of generated cases.
    pub cases: usize,
    /// Master seed; case `i` derives its spec from `master_seed + i`.
    pub master_seed: u64,
    /// Maximum node budget per case.
    pub max_nodes: usize,
    /// Maximum request budget per case.
    pub max_requests: usize,
    /// Run the reactor tiers (`net`, `net-1shard`, `net-wire`).
    pub include_net: bool,
    /// Shrink failing cases before reporting them.
    pub shrink_failures: bool,
    /// Directory to write replay files for failing cases into (created on first
    /// failure); `None` disables replay files.
    pub replay_dir: Option<PathBuf>,
    /// Maximum fault episodes injected per case (`0` = fault-free sweep). When
    /// positive, every case carries a seeded [`arrow_core::prelude::FaultSchedule`]
    /// and is held to the churn contract ([`crate::churn`]) instead of the
    /// fault-free invariant suite.
    pub fault_episodes: usize,
    /// Directory for causal-trace exports (`--trace`): every fault-free case's
    /// sim tier is re-run with recording probes, held to the
    /// [`InvariantKind::TraceCoverage`] contract (every issued request leaves a
    /// complete hop chain whose cost matches the validated order's `c_A`
    /// adjacency), and written as Chrome trace-event JSON
    /// (`case-<seed>.trace.json`, see [`crate::trace`]). `None` disables
    /// tracing.
    pub trace_dir: Option<PathBuf>,
}

impl SweepOptions {
    /// The fast CI profile: 32 shrunk-size cases, every tier, fixed seed block.
    pub fn smoke() -> Self {
        SweepOptions {
            cases: 32,
            master_seed: 0xC0FFEE,
            max_nodes: 12,
            max_requests: 24,
            include_net: true,
            shrink_failures: true,
            replay_dir: None,
            fault_episodes: 0,
            trace_dir: None,
        }
    }

    /// A deeper profile for local runs: more and larger cases, same contracts.
    pub fn full() -> Self {
        SweepOptions {
            cases: 256,
            master_seed: 0xC0FFEE,
            max_nodes: 48,
            max_requests: 160,
            include_net: true,
            shrink_failures: true,
            replay_dir: Some(PathBuf::from("conformance-failures")),
            fault_episodes: 0,
            trace_dir: None,
        }
    }
}

/// Result of one case: which tiers ran and what they violated.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CaseResult {
    /// Index of the case within the sweep.
    pub index: usize,
    /// The (possibly shrunk) case.
    pub case: ReplayCase,
    /// Names of the tiers that executed.
    pub tiers_run: Vec<String>,
    /// Violations across all tiers (empty = case passed).
    pub violations: Vec<Violation>,
    /// Path of the replay file written for this failure, if any.
    pub replay_path: Option<String>,
}

/// Summary of a whole sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepReport {
    /// Cases executed.
    pub cases: usize,
    /// Total requests across all cases.
    pub total_requests: usize,
    /// Per-tier execution counts `(tier, cases run)`.
    pub tier_counts: Vec<(String, usize)>,
    /// Failing cases (shrunk when enabled), with their violations.
    pub failures: Vec<CaseResult>,
    /// Total fault events injected across all cases (0 for a fault-free sweep).
    pub fault_events: usize,
    /// Per-tier token regenerations `(tier, regenerations)` across all cases:
    /// order chains rebuilt behind the virtual root in a recovery epoch — direct
    /// evidence that tier destroyed and regenerated tokens rather than merely
    /// surviving benign faults. Empty for a fault-free sweep.
    pub token_regenerations: Vec<(String, u64)>,
}

impl SweepReport {
    /// True if every case passed every invariant on every tier.
    pub fn all_passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Derive case `i`'s spec from the sweep options (deterministic in
/// `master_seed + i`): a seeded walk over the topology/workload/synchrony menus.
pub fn derive_spec(opts: &SweepOptions, i: usize) -> CaseSpec {
    let seed = opts.master_seed.wrapping_add(i as u64);
    let mut rng = SimRng::new(seed ^ 0x9E37_79B9_7F4A_7C15);
    let graph = GraphKind::ALL[rng.index(GraphKind::ALL.len())];
    // Star/BalancedBinary require a complete graph; pick trees per graph.
    let tree = if graph == GraphKind::Complete {
        [
            SpanningTreeKind::ShortestPath,
            SpanningTreeKind::Star,
            SpanningTreeKind::BalancedBinary,
            SpanningTreeKind::MinimumCommunication,
        ][rng.index(4)]
    } else {
        [
            SpanningTreeKind::ShortestPath,
            SpanningTreeKind::MinimumWeight,
            SpanningTreeKind::MinimumCommunication,
        ][rng.index(3)]
    };
    let objects = [1, 1, 2, 4][rng.index(4)];
    let workload = if objects > 1 {
        WorkloadKind::Zipf
    } else {
        WorkloadKind::ALL[rng.index(WorkloadKind::ALL.len())]
    };
    let nodes = 4 + rng.index(opts.max_nodes.saturating_sub(3).max(1));
    let requests = 4 + rng.index(opts.max_requests.saturating_sub(3).max(1));
    let sync = if rng.index(2) == 0 {
        SyncMode::Synchronous
    } else {
        SyncMode::Asynchronous
    };
    CaseSpec {
        seed,
        nodes,
        graph,
        tree,
        objects,
        requests,
        workload,
        sync,
        async_lo: SimConfig::DEFAULT_ASYNC_LO,
    }
}

fn violations_from_error(tier: &str, err: &RunError) -> Vec<Violation> {
    vec![Violation {
        invariant: InvariantKind::RunFailed,
        tier: tier.to_string(),
        detail: err.to_string(),
    }]
}

/// Run one case through every applicable tier and collect violations.
pub fn run_case(case: &ReplayCase, opts: &SweepOptions) -> (Vec<String>, Vec<Violation>) {
    let (tiers, violations, _) = run_case_counted(case, opts);
    (tiers, violations)
}

/// [`run_case`] plus the token regenerations each tier observed, as
/// `(tier, regenerations)` (empty on the fault-free path; the sweep surfaces
/// them per tier so a fault run visibly exercised recovery where it did).
pub fn run_case_counted(
    case: &ReplayCase,
    opts: &SweepOptions,
) -> (Vec<String>, Vec<Violation>, Vec<(String, u64)>) {
    if !case.faults.is_empty() {
        // Fault-injected case: the churn contract replaces the fault-free suite
        // (no centralized baseline, no latency bound — epochs reshape both).
        let (counted, violations) = crate::churn::run_churn_case(case, opts.include_net);
        let tiers = counted.iter().map(|(t, _)| t.clone()).collect();
        return (tiers, violations, counted);
    }
    let (tiers, violations) = run_case_fault_free(case, opts);
    (tiers, violations, Vec::new())
}

fn run_case_fault_free(case: &ReplayCase, opts: &SweepOptions) -> (Vec<String>, Vec<Violation>) {
    let instance = case.spec.build_instance();
    let schedule = case.schedule();
    let expected = invariants::request_multiset(&schedule);
    let mut tiers_run = Vec::new();
    let mut violations = Vec::new();
    let n = instance.node_count();
    let tree = instance.tree();

    // Tier 1: simulator, probed, arrow.
    let arrow_cfg = case.spec.run_config(ProtocolKind::Arrow);
    tiers_run.push("sim".to_string());
    let recorder = Arc::new(TraceRecorder::new());
    match run_schedule_probed(&instance, &schedule, &arrow_cfg, |v| recorder.sim_probe(v)) {
        Err(e) => violations.extend(violations_from_error("sim", &e)),
        Ok(outcome) => {
            violations.extend(invariants::check_exactly_once("sim", &outcome));
            violations.extend(invariants::check_token_conservation("sim", &outcome));
            violations.extend(invariants::check_message_sanity("sim", &outcome, n));
            let events = finish(recorder);
            violations.extend(invariants::check_per_link_fifo("sim", &events));
            violations.extend(invariants::check_tree_edges("sim", tree, &events));
            violations.extend(invariants::check_cross_tier("sim", &expected, &outcome));
            if case.spec.sync == SyncMode::Synchronous && schedule.object_id_bound() == 1 {
                violations.extend(invariants::check_latency_bound(
                    "sim",
                    &instance,
                    &schedule,
                    outcome.total_latency,
                ));
            }
        }
    }

    // Tier 1b: the centralized baseline as a differential reference.
    let central_cfg = case.spec.run_config(ProtocolKind::Centralized);
    tiers_run.push("sim-centralized".to_string());
    match SimDriver.run(&instance, &schedule, &central_cfg) {
        Err(e) => violations.extend(violations_from_error("sim-centralized", &e)),
        Ok(outcome) => {
            violations.extend(invariants::check_exactly_once("sim-centralized", &outcome));
            violations.extend(invariants::check_token_conservation(
                "sim-centralized",
                &outcome,
            ));
            violations.extend(invariants::check_message_sanity(
                "sim-centralized",
                &outcome,
                n,
            ));
            violations.extend(invariants::check_cross_tier(
                "sim-centralized",
                &expected,
                &outcome,
            ));
        }
    }

    // Tier 3: the reactor runtime, hosted three ways (arrow only; ids/times are
    // its own, the request multiset and the queuing contracts are not).
    let net_tiers = if opts.include_net {
        &NET_TIERS[..]
    } else {
        &[]
    };
    for &(tier, hosting) in net_tiers {
        let driver = NetDriver::hosted(hosting);
        tiers_run.push(tier.to_string());
        let recorder = Arc::new(TraceRecorder::new());
        match driver.run_probed(&instance, &schedule, &arrow_cfg, |v| recorder.wall_probe(v)) {
            Err(e) => violations.extend(violations_from_error(tier, &e)),
            Ok(outcome) => {
                violations.extend(invariants::check_exactly_once(tier, &outcome));
                violations.extend(invariants::check_token_conservation(tier, &outcome));
                violations.extend(invariants::check_message_sanity(tier, &outcome, n));
                // `net-wire`'s daemons carry no probes: its trace is empty and
                // the two trace checks pass vacuously.
                let events = finish(recorder);
                violations.extend(invariants::check_per_link_fifo(tier, &events));
                violations.extend(invariants::check_tree_edges(tier, tree, &events));
                violations.extend(invariants::check_cross_tier(tier, &expected, &outcome));
            }
        }
    }

    (tiers_run, violations)
}

/// Run the full differential sweep described by `opts`.
pub fn run_sweep(opts: &SweepOptions) -> SweepReport {
    let mut total_requests = 0usize;
    let mut tier_counts: Vec<(String, usize)> = Vec::new();
    let mut failures = Vec::new();
    let mut fault_events = 0usize;
    let mut token_regenerations: Vec<(String, u64)> = Vec::new();
    for i in 0..opts.cases {
        let spec = derive_spec(opts, i);
        let case = if opts.fault_episodes > 0 {
            ReplayCase::generate_with_faults(spec, opts.fault_episodes)
        } else {
            ReplayCase::generate(spec)
        };
        total_requests += case.requests.len();
        fault_events += case.faults.len();
        let (tiers_run, mut violations, regens) = run_case_counted(&case, opts);
        for (tier, n) in regens {
            tally(&mut token_regenerations, &tier, n);
        }
        if let Some(dir) = &opts.trace_dir {
            // Probed re-run of the sim tier: coverage failures fail the sweep
            // like any other invariant (fault cases are skipped inside).
            let (trace_violations, _) = crate::trace::trace_case(&case, Some(dir));
            violations.extend(trace_violations);
        }
        for tier in &tiers_run {
            tally(&mut tier_counts, tier, 1);
        }
        if violations.is_empty() {
            continue;
        }
        let reported_case = if opts.shrink_failures {
            crate::shrink::shrink(&case, |candidate| !run_case(candidate, opts).1.is_empty())
        } else {
            case.clone()
        };
        // Re-derive the violations only when shrinking actually changed the case,
        // so the report matches the replay file exactly; otherwise the violations
        // in hand already describe it — no need for another multi-tier run.
        let final_violations = if reported_case == case {
            violations
        } else {
            let (_, shrunk_violations) = run_case(&reported_case, opts);
            if shrunk_violations.is_empty() {
                // Nondeterministic (live-tier) failure that did not reproduce on
                // the confirmation run: report the original observation.
                violations
            } else {
                shrunk_violations
            }
        };
        let replay_path = opts.replay_dir.as_ref().map(|dir| {
            let _ = std::fs::create_dir_all(dir);
            let path = dir.join(format!("case-{}.replay", reported_case.spec.seed));
            let _ = std::fs::write(&path, reported_case.to_replay_text());
            // Attach the causal trace of the (shrunk) failing case next to its
            // replay file, so the repro ships with the hop-level story.
            // Best effort: a fault-injected or crashing case simply has none.
            let _ = crate::trace::trace_case(&reported_case, Some(dir));
            path.display().to_string()
        });
        failures.push(CaseResult {
            index: i,
            case: reported_case,
            tiers_run,
            violations: final_violations,
            replay_path,
        });
    }
    SweepReport {
        cases: opts.cases,
        total_requests,
        tier_counts,
        failures,
        fault_events,
        token_regenerations,
    }
}

/// Add `n` to `tier`'s entry of a per-tier tally, appending the tier on first
/// sight so the tally lists tiers in the order they first ran.
fn tally<T: std::ops::AddAssign>(counts: &mut Vec<(String, T)>, tier: &str, n: T) {
    match counts.iter_mut().find(|(t, _)| t == tier) {
        Some((_, c)) => *c += n,
        None => counts.push((tier.to_string(), n)),
    }
}

/// Re-run one replay file's case (the one-command repro path of the
/// `conformance` binary). Returns the tiers run and any violations.
pub fn run_replay(
    text: &str,
    opts: &SweepOptions,
) -> Result<(Vec<String>, Vec<Violation>), String> {
    let case = ReplayCase::from_replay_text(text)?;
    Ok(run_case(&case, opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_spec_is_deterministic_and_in_budget() {
        let opts = SweepOptions::smoke();
        for i in 0..16 {
            let a = derive_spec(&opts, i);
            let b = derive_spec(&opts, i);
            assert_eq!(a, b);
            assert!(a.nodes <= opts.max_nodes, "case {i}: {} nodes", a.nodes);
            assert!(a.requests <= opts.max_requests);
            assert!(a.objects >= 1);
            if a.objects > 1 {
                assert_eq!(a.workload, WorkloadKind::Zipf);
            }
        }
    }

    #[test]
    fn a_single_smoke_case_passes_all_tiers() {
        let opts = SweepOptions::smoke();
        let case = ReplayCase::generate(derive_spec(&opts, 0));
        let (tiers, violations) = run_case(&case, &opts);
        assert!(tiers.iter().any(|t| t == "sim"));
        assert!(tiers.iter().any(|t| t == "net"));
        assert!(tiers.iter().any(|t| t == "net-1shard"));
        assert!(tiers.iter().any(|t| t == "net-wire"));
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn sim_only_mini_sweep_passes() {
        let mut opts = SweepOptions::smoke();
        opts.cases = 6;
        opts.include_net = false;
        let report = run_sweep(&opts);
        assert!(report.all_passed(), "{:?}", report.failures);
        assert_eq!(report.cases, 6);
        assert!(report.total_requests > 0);
        assert!(report
            .tier_counts
            .iter()
            .any(|(t, c)| t == "sim" && *c == 6));
    }

    #[test]
    fn sim_only_fault_mini_sweep_attributes_its_regenerations_to_sim() {
        let mut opts = SweepOptions::smoke();
        opts.cases = 6;
        opts.include_net = false;
        opts.fault_episodes = 2;
        let report = run_sweep(&opts);
        assert!(report.all_passed(), "{:?}", report.failures);
        assert!(report.fault_events > 0);
        assert_eq!(
            report.token_regenerations.len(),
            1,
            "{:?}",
            report.token_regenerations
        );
        let (tier, regenerations) = &report.token_regenerations[0];
        assert_eq!(tier, "sim");
        assert!(*regenerations > 0, "the simulator regenerated no token");
    }
}
