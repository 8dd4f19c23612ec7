//! The experiments of the paper's evaluation section, one function per figure.
//!
//! All functions are deterministic given their arguments (seeds included in the
//! arguments where randomness is involved), so the binaries and the benchmarks report
//! reproducible numbers.
//!
//! Every sweep computes one row per independent grid point (processor count,
//! diameter, seed, topology×workload combination), serially and in input order.
//! Each figure run takes milliseconds, so a thread pool would buy nothing; the
//! figure identity check (`tests/figures/check.sh`) pins the rows.

use arrow_core::prelude::*;
use desim::SimTime;
use queuing_analysis::lower_bound;
use queuing_analysis::{measure_ratio, RatioReport};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One row of the Figure 10 reproduction (total latency vs. number of processors).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig10Row {
    /// Number of processors.
    pub processors: usize,
    /// Requests issued per processor.
    pub requests_per_node: u64,
    /// Arrow: virtual time to complete all enqueues.
    pub arrow_makespan: f64,
    /// Centralized: virtual time to complete all enqueues.
    pub centralized_makespan: f64,
    /// Arrow: mean per-request completion latency.
    pub arrow_mean_latency: f64,
    /// Centralized: mean per-request completion latency.
    pub centralized_mean_latency: f64,
}

fn figure_10_row(n: usize, requests_per_node: u64, local_service_time: f64) -> Fig10Row {
    let instance = Instance::complete_uniform(n, SpanningTreeKind::BalancedBinary);
    let spec = ClosedLoopSpec {
        requests_per_node,
        local_service_time,
    };
    let workload = Workload::ClosedLoop(spec);
    let arrow = run(
        &instance,
        &workload,
        &RunConfig::experiment(ProtocolKind::Arrow, local_service_time),
    );
    let central = run(
        &instance,
        &workload,
        &RunConfig::experiment(ProtocolKind::Centralized, local_service_time),
    );
    Fig10Row {
        processors: n,
        requests_per_node,
        arrow_makespan: arrow.makespan,
        centralized_makespan: central.makespan,
        arrow_mean_latency: arrow.mean_completion_latency,
        centralized_mean_latency: central.mean_completion_latency,
    }
}

/// Reproduce Figure 10: closed-loop workload on a complete graph with a balanced
/// binary spanning tree, arrow vs. centralized, sweeping the processor count.
///
/// `requests_per_node` is 100,000 in the paper; the default harness uses a smaller
/// value because the reported quantities (per-request latency, relative makespan
/// growth) are steady-state properties that do not depend on the total count.
pub fn figure_10(
    processor_counts: &[usize],
    requests_per_node: u64,
    local_service_time: f64,
) -> Vec<Fig10Row> {
    processor_counts
        .iter()
        .map(|&n| figure_10_row(n, requests_per_node, local_service_time))
        .collect()
}

/// One row of the Figure 11 reproduction (average hops per queuing operation).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig11Row {
    /// Number of processors.
    pub processors: usize,
    /// Requests issued per processor.
    pub requests_per_node: u64,
    /// Average inter-processor `queue()` messages per request for arrow.
    pub arrow_hops_per_request: f64,
    /// Average protocol messages per request for the centralized protocol
    /// (2 per remote request in the paper).
    pub centralized_hops_per_request: f64,
}

fn figure_11_row(n: usize, requests_per_node: u64, local_service_time: f64) -> Fig11Row {
    let instance = Instance::complete_uniform(n, SpanningTreeKind::BalancedBinary);
    let spec = ClosedLoopSpec {
        requests_per_node,
        local_service_time,
    };
    let workload = Workload::ClosedLoop(spec);
    let arrow = run(
        &instance,
        &workload,
        &RunConfig::experiment(ProtocolKind::Arrow, local_service_time),
    );
    let central = run(
        &instance,
        &workload,
        &RunConfig::experiment(ProtocolKind::Centralized, local_service_time),
    );
    Fig11Row {
        processors: n,
        requests_per_node,
        arrow_hops_per_request: arrow.hops_per_request,
        centralized_hops_per_request: central.hops_per_request,
    }
}

/// Reproduce Figure 11: the average number of inter-processor messages per queuing
/// operation under the same closed-loop workload as Figure 10.
pub fn figure_11(
    processor_counts: &[usize],
    requests_per_node: u64,
    local_service_time: f64,
) -> Vec<Fig11Row> {
    processor_counts
        .iter()
        .map(|&n| figure_11_row(n, requests_per_node, local_service_time))
        .collect()
}

/// One row of the Figure 9 / Theorem 4.1 lower-bound experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig9Row {
    /// Path length (tree diameter) `D`.
    pub diameter: usize,
    /// Number of time layers `k`.
    pub layers: usize,
    /// Number of requests in the adversarial instance.
    pub requests: usize,
    /// The paper's predicted arrow cost `k · D`.
    pub predicted_arrow_cost: f64,
    /// Arrow's measured total latency.
    pub measured_arrow_cost: f64,
    /// Certified lower bound on the optimal cost.
    pub opt_lower_bound: f64,
    /// Measured competitive ratio (arrow / optimal lower bound).
    pub ratio: f64,
    /// The theoretical lower-bound shape `log D / log log D`.
    pub predicted_ratio_shape: f64,
}

fn figure_9_row(d: usize) -> Fig9Row {
    let k = (d.max(4) as f64).log2().round() as usize;
    let (instance, schedule) = lower_bound::theorem_4_1_instance(d, k);
    let report = measure_ratio(
        &instance,
        &schedule,
        &RunConfig::analysis(ProtocolKind::Arrow),
    );
    Fig9Row {
        diameter: d,
        layers: k,
        requests: schedule.len(),
        predicted_arrow_cost: lower_bound::predicted_arrow_cost(d, k),
        measured_arrow_cost: report.arrow_cost,
        opt_lower_bound: report.opt_lower_bound,
        ratio: report.ratio,
        predicted_ratio_shape: queuing_analysis::theory::lower_bound_shape(1.0, d as f64) - 1.0,
    }
}

/// Reproduce the Figure 9 construction for a sweep of diameters and measure the
/// competitive ratio the instance actually forces.
///
/// The number of time layers follows the paper's own example (`D = 64, k = 6`, i.e.
/// `k = log₂ D`); the asymptotic analysis uses the slightly smaller
/// `k = log D / log log D` ([`lower_bound::recommended_layers`]), which only separates
/// from a constant at diameters far beyond what a table can show.
pub fn figure_9(diameters: &[usize]) -> Vec<Fig9Row> {
    diameters.iter().map(|&d| figure_9_row(d)).collect()
}

/// One row of the competitive-ratio validation sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RatioRow {
    /// Human-readable description of the topology / tree / workload combination.
    pub label: String,
    /// The detailed measurement.
    pub report: RatioReport,
}

/// Build the `(label, instance, schedule)` grid of the ratio sweep. Instances are
/// shared per topology (behind `Arc`), so the cached distance matrix and stretch
/// report are computed once per topology and reused by all four workloads.
fn ratio_sweep_tasks(
    nodes: usize,
    requests: usize,
    seed: u64,
) -> Vec<(String, Arc<Instance>, RequestSchedule)> {
    use netgraph::generators;
    use netgraph::spanning::build_spanning_tree;

    let horizon = 3.0 * nodes as f64;

    // Topology / tree combinations.
    let complete = generators::complete(nodes, 1.0);
    let side = (nodes as f64).sqrt().ceil() as usize;
    let grid = generators::grid(side, side);
    let cycle = generators::cycle(nodes.max(3));
    let combos: Vec<(String, Arc<Instance>)> = vec![
        (
            "complete + balanced binary tree".into(),
            Arc::new(Instance::new(
                complete.clone(),
                build_spanning_tree(&complete, 0, SpanningTreeKind::BalancedBinary),
            )),
        ),
        (
            "complete + star tree".into(),
            Arc::new(Instance::new(
                complete.clone(),
                build_spanning_tree(&complete, 0, SpanningTreeKind::Star),
            )),
        ),
        (
            "grid + shortest-path tree".into(),
            Arc::new(Instance::new(
                grid.clone(),
                build_spanning_tree(&grid, 0, SpanningTreeKind::ShortestPath),
            )),
        ),
        (
            "grid + minimum-communication tree".into(),
            Arc::new(Instance::new(
                grid.clone(),
                build_spanning_tree(&grid, 0, SpanningTreeKind::MinimumCommunication),
            )),
        ),
        (
            "cycle + shortest-path tree (max stretch)".into(),
            Arc::new(Instance::new(
                cycle.clone(),
                build_spanning_tree(&cycle, 0, SpanningTreeKind::ShortestPath),
            )),
        ),
    ];

    let mut tasks = Vec::new();
    for (label, instance) in combos {
        let n = instance.node_count();
        let workloads: Vec<(String, RequestSchedule)> = vec![
            (
                "one-shot burst".into(),
                workload::one_shot_burst(&(0..n).collect::<Vec<_>>(), SimTime::ZERO),
            ),
            (
                "uniform random".into(),
                workload::uniform_random(n, requests, horizon, seed),
            ),
            (
                "hotspot".into(),
                workload::hotspot(n, &[0, n - 1], 0.7, requests, horizon, seed + 1),
            ),
            (
                "sequential".into(),
                workload::sequential_round_robin(
                    &(0..n).collect::<Vec<_>>(),
                    requests.min(3 * n),
                    2.0 * n as f64,
                ),
            ),
        ];
        for (wl_label, schedule) in workloads {
            if schedule.is_empty() {
                continue;
            }
            tasks.push((
                format!("{label}, {wl_label}"),
                Arc::clone(&instance),
                schedule,
            ));
        }
    }
    tasks
}

/// Theorem 3.19 validation: measure arrow's competitive ratio across topologies,
/// spanning trees and workload shapes, and compare with the theorem's bound.
pub fn ratio_sweep(nodes: usize, requests: usize, seed: u64) -> Vec<RatioRow> {
    ratio_sweep_tasks(nodes, requests, seed)
        .into_iter()
        .map(|(label, instance, schedule)| {
            let report = measure_ratio(
                &instance,
                &schedule,
                &RunConfig::analysis(ProtocolKind::Arrow),
            );
            RatioRow { label, report }
        })
        .collect()
}

/// One row of the synchronous-vs-asynchronous comparison (Theorem 3.21).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyncAsyncRow {
    /// Workload label.
    pub label: String,
    /// Arrow's cost under synchronous (worst-case) delays.
    pub sync_cost: f64,
    /// Arrow's cost under random asynchronous delays (≤ the link weight).
    pub async_cost: f64,
    /// Competitive ratio in the synchronous model.
    pub sync_ratio: f64,
    /// Competitive ratio in the asynchronous model (against the same lower bound).
    pub async_ratio: f64,
    /// The theorem bound both must respect.
    pub theorem_bound: f64,
}

/// Section 3.8 validation: run the same request sets under worst-case (synchronous)
/// and random asynchronous delays; both executions must respect the same
/// `O(s · log D)` bound (Theorem 3.21). The asynchronous ordering may differ, so the
/// costs are reported side by side rather than compared directly.
pub fn async_vs_sync(nodes: usize, requests: usize, seeds: &[u64]) -> Vec<SyncAsyncRow> {
    let instance = Instance::complete_uniform(nodes, SpanningTreeKind::BalancedBinary);
    // A seed whose schedule is empty gets no row.
    let tasks = seeds.iter().map(|&seed| {
        (
            seed,
            workload::uniform_random(nodes, requests, 2.0 * nodes as f64, seed),
        )
    });
    let tasks = tasks.filter(|(_, schedule)| !schedule.is_empty());
    tasks
        .map(|(seed, schedule)| {
            let sync = measure_ratio(
                &instance,
                &schedule,
                &RunConfig::analysis(ProtocolKind::Arrow),
            );
            let asynchronous = measure_ratio(
                &instance,
                &schedule,
                &RunConfig::analysis(ProtocolKind::Arrow).asynchronous(seed),
            );
            SyncAsyncRow {
                label: format!("uniform random, seed {seed}"),
                sync_cost: sync.arrow_cost,
                async_cost: asynchronous.arrow_cost,
                sync_ratio: sync.ratio,
                async_ratio: asynchronous.ratio,
                theorem_bound: sync.theorem_bound,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_10_shows_centralized_degrading_faster_than_arrow() {
        let rows = figure_10(&[2, 8, 24], 30, 0.2);
        assert_eq!(rows.len(), 3);
        // The paper's headline shape: as the system grows, the centralized protocol's
        // makespan grows much faster than arrow's.
        let growth = |a: &Fig10Row, b: &Fig10Row| {
            (
                b.arrow_makespan / a.arrow_makespan,
                b.centralized_makespan / a.centralized_makespan,
            )
        };
        let (arrow_growth, central_growth) = growth(&rows[0], &rows[2]);
        assert!(
            central_growth > arrow_growth,
            "centralized should degrade faster: arrow x{arrow_growth:.2}, centralized x{central_growth:.2}"
        );
    }

    #[test]
    fn figure_11_hops_stay_bounded() {
        let rows = figure_11(&[4, 16], 30, 0.2);
        for row in &rows {
            assert!(row.arrow_hops_per_request >= 0.0);
            // The spanning tree has logarithmic depth, so hops per request are far
            // below the worst case (the tree diameter).
            assert!(row.arrow_hops_per_request < 2.0 * (row.processors as f64).log2() + 1.0);
            // The centralized protocol pays ~2 messages per remote request.
            assert!(row.centralized_hops_per_request <= 2.0 + 1e-9);
        }
    }

    #[test]
    fn figure_9_ratio_exceeds_one_and_matches_prediction_order() {
        let rows = figure_9(&[16, 32]);
        for row in &rows {
            assert!(row.ratio > 1.0, "ratio {}", row.ratio);
            assert!(row.measured_arrow_cost > 0.0);
            assert!(row.opt_lower_bound > 0.0);
            // The measured cost should be in the ballpark of the predicted k·D
            // (within a factor of ~3 given tie-breaking and boundary effects).
            assert!(row.measured_arrow_cost >= row.predicted_arrow_cost / 3.0);
            assert!(row.measured_arrow_cost <= row.predicted_arrow_cost * 3.0);
        }
    }

    #[test]
    fn ratio_sweep_respects_the_theorem_everywhere() {
        let rows = ratio_sweep(9, 20, 1);
        assert!(rows.len() >= 15);
        for row in &rows {
            // certifies_bound, not within_bound: these workloads must produce a
            // positive lower bound, so every row positively corroborates the
            // theorem (a degenerate row slipping in here would be a sweep bug).
            assert!(
                row.report.certifies_bound(),
                "{}: ratio {} vs bound {} (degenerate: {})",
                row.label,
                row.report.ratio,
                row.report.theorem_bound,
                row.report.opt_bound_degenerate
            );
        }
    }

    #[test]
    fn async_and_sync_executions_both_respect_the_bound() {
        let rows = async_vs_sync(8, 24, &[1, 2]);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.sync_cost > 0.0 && row.async_cost > 0.0);
            assert!(row.sync_ratio <= row.theorem_bound, "{}", row.label);
            assert!(row.async_ratio <= row.theorem_bound, "{}", row.label);
        }
    }
}
