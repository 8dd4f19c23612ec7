//! Multi-object directory throughput: K objects sharing one spanning tree.
//!
//! The scenario the ROADMAP's production framing cares about: one directory tree
//! serving many mobile objects (the Demmer–Herlihy setting), with Zipf-skewed object
//! popularity — a few hot objects absorb most of the traffic. Each row measures
//! simulator throughput for one object count and verifies that every object's queue
//! independently validates as a total order.
//!
//! The committed baseline lives in `BENCH_multi_object_throughput.json` at the
//! repository root and is regenerated by
//! `cargo run --release -p arrow-bench --bin bench_multi_object`.

use arrow_core::prelude::*;
use std::time::Instant;

/// Zipf exponent of the canonical multi-object workload (object popularity skew).
pub const ZIPF_EXPONENT: f64 = 1.1;

/// One row of the multi-object sweep: a fixed topology and request count, with the
/// object count varying across rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiObjectRow {
    /// Number of nodes in the complete graph.
    pub nodes: usize,
    /// Number of objects sharing the tree.
    pub objects: usize,
    /// Number of queuing requests simulated (per run, across all objects).
    pub requests: usize,
    /// Simulator events processed per run.
    pub sim_events: u64,
    /// Messages delivered by the network per run.
    pub total_messages: u64,
    /// Number of identical runs accumulated into the measurement window.
    pub runs: u64,
    /// Wall-clock seconds across all runs (excludes topology setup).
    pub wall_seconds: f64,
    /// `runs × sim_events / wall_seconds`.
    pub events_per_sec: f64,
    /// Number of per-object queuing orders that validated (must equal the number of
    /// objects that saw at least one request).
    pub valid_orders: usize,
}

/// Build the canonical multi-object benchmark instance and workload: a complete
/// graph with a balanced binary spanning tree and a Zipf-skewed object workload
/// (exponent [`ZIPF_EXPONENT`]) under concurrent open-loop traffic.
pub fn multi_object_workload(
    nodes: usize,
    objects: usize,
    requests: usize,
    seed: u64,
) -> (Instance, RequestSchedule) {
    let instance = Instance::complete_uniform(nodes, SpanningTreeKind::BalancedBinary);
    // Same horizon rule as the single-object throughput kernel: keep many requests
    // in flight concurrently.
    let horizon = (requests as f64 / nodes as f64).max(1.0) * 4.0;
    let schedule = workload::zipf_objects(nodes, objects, ZIPF_EXPONENT, requests, horizon, seed);
    (instance, schedule)
}

/// Run the multi-object kernel for one object count and report events/sec plus
/// per-object order validity. Repeats the identical run until at least
/// `min_window_ms` of wall clock has accumulated.
pub fn measure_multi_object(
    nodes: usize,
    objects: usize,
    requests: usize,
    seed: u64,
    min_window_ms: u64,
) -> MultiObjectRow {
    let (instance, schedule) = multi_object_workload(nodes, objects, requests, seed);
    let config = RunConfig::analysis(ProtocolKind::Arrow);
    // Warm the instance's cached structures outside the timed window. Validation is
    // not optional: run_schedule panics unless every object's records assemble into
    // a complete queuing order over that object's sub-schedule, so each entry of
    // `orders` *is* a validated order — their count is the validated-object count.
    let first = run_schedule(&instance, &schedule, &config);
    let valid_orders = first.object_count();
    let min_window = std::time::Duration::from_millis(min_window_ms);
    let start = Instant::now();
    let mut runs = 0u64;
    let mut events = 0u64;
    while runs == 0 || start.elapsed() < min_window {
        let outcome = run_schedule(&instance, &schedule, &config);
        debug_assert_eq!(outcome.sim_events, first.sim_events, "nondeterministic run");
        events += outcome.sim_events;
        runs += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    MultiObjectRow {
        nodes,
        objects,
        requests,
        sim_events: first.sim_events,
        total_messages: first.total_messages,
        runs,
        wall_seconds: wall,
        events_per_sec: events as f64 / wall.max(1e-12),
        valid_orders,
    }
}

/// Sweep the object count over `objects_list` (parallel over rows, deterministic
/// index-addressed output like the other sweeps).
pub fn multi_object_sweep(
    nodes: usize,
    objects_list: &[usize],
    requests: usize,
    seed: u64,
    min_window_ms: u64,
) -> Vec<MultiObjectRow> {
    crate::par_map(objects_list.to_vec(), |k| {
        measure_multi_object(nodes, k, requests, seed, min_window_ms)
    })
}

/// The full report written to `BENCH_multi_object_throughput.json`.
#[derive(Debug, Clone)]
pub struct MultiObjectReport {
    /// One row per object count.
    pub rows: Vec<MultiObjectRow>,
}

impl MultiObjectReport {
    /// Render as a small stable JSON document (hand-written: serialization is not
    /// wired to a real serde backend in the offline build).
    pub fn to_json(&self) -> String {
        let mut out = String::from(
            "{\n  \"workload\": \"arrow analysis-mode, complete graph, balanced binary tree, \
             Zipf-skewed multi-object open loop (s=1.1)\",\n  \"rows\": [\n",
        );
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"nodes\": {}, \"objects\": {}, \"requests\": {}, \"sim_events\": {}, \
                 \"total_messages\": {}, \"runs\": {}, \"wall_seconds\": {:.6}, \
                 \"events_per_sec\": {:.0}, \"valid_orders\": {}}}{}\n",
                r.nodes,
                r.objects,
                r.requests,
                r.sim_events,
                r.total_messages,
                r.runs,
                r.wall_seconds,
                r.events_per_sec,
                r.valid_orders,
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_object_kernel_validates_every_object() {
        let row = measure_multi_object(32, 8, 400, 5, 0);
        assert_eq!(row.nodes, 32);
        assert_eq!(row.objects, 8);
        // Zipf over 8 objects with 400 requests touches every object w.h.p., but the
        // contract is only that every *touched* object validates.
        assert!(row.valid_orders >= 1);
        assert!(row.events_per_sec > 0.0);
    }

    #[test]
    fn report_json_contains_one_row_per_object_count() {
        let rows = multi_object_sweep(16, &[1, 4], 100, 2, 0);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].objects, 1);
        assert_eq!(rows[1].objects, 4);
        let json = MultiObjectReport { rows }.to_json();
        assert_eq!(json.matches("\"objects\"").count(), 2);
        assert!(json.contains("\"valid_orders\""));
    }
}
