//! The six workloads, one module per shape.

pub mod churn;
pub mod closed;
pub mod cluster;
pub mod net;
pub mod open;
pub mod sim;

use crate::report::{Report, RunArgs};
use crate::span::{splice_chrome, SpanLog};
use arrow_trace::analysis::{self, RequestTrace};
use arrow_trace::chrome;
use netgraph::{generators, RootedTree};
use std::path::PathBuf;

/// How many times a workload sets up per run; `setup_s` is the median. A
/// set-up of a few milliseconds needs this many for its median to hold still.
pub const SETUP_REPS: usize = 15;

/// The balanced binary spanning tree every live workload runs on, rooted at
/// node 0.
pub fn balanced_tree(nodes: usize) -> RootedTree {
    RootedTree::from_tree_graph(&generators::balanced_binary_tree(nodes), 0)
}

/// Run the named workload in this process.
pub fn run(name: &str, args: &RunArgs) -> Option<Report> {
    Some(match name {
        "sim-open-k1" => sim::run(&sim::OPEN_K1, args),
        "sim-closed-svc" => sim::run(&sim::CLOSED_SVC, args),
        "net-closed-k1" => closed::run(args),
        "net-open-zipf" => open::run(args),
        "net-churn" => churn::run(args),
        "cluster-closed" => cluster::run(args),
        _ => return None,
    })
}

/// Where traced runs leave their artefacts and the cluster its journals:
/// `out/` inside the benchmark's own directory (ignored by git).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Requests and spans exported per workload; the summary still covers all.
const EXPORT_REQUESTS: usize = 2_000;
const EXPORT_SPANS: usize = 8_000;

/// Write a traced run's artefacts: `<workload>.trace.json`, a Chrome
/// trace-event file holding the bench spans (process 1) beside the
/// reconstructed request phases (process 0, one track per node), and
/// `<workload>.spans.txt`, the span self-time summary.
pub fn write_artefacts(
    report: &mut Report,
    spans: &SpanLog,
    traces: &[RequestTrace],
    us_per_unit: f64,
) {
    let dir = out_dir();
    let shown = &traces[..traces.len().min(EXPORT_REQUESTS)];
    let doc = splice_chrome(
        &chrome::export(shown, us_per_unit),
        &spans.chrome_events(EXPORT_SPANS),
    );
    report.check(chrome::parse_check(&doc).is_ok(), || {
        "the exported Chrome trace is not well-formed JSON".to_string()
    });
    let written = std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(dir.join(format!("{}.trace.json", report.workload)), doc))
        .and_then(|_| {
            std::fs::write(
                dir.join(format!("{}.spans.txt", report.workload)),
                spans.summary_table(),
            )
        });
    match written {
        Ok(()) => report.note(format!(
            "artefacts: {0}/{1}.trace.json, {0}/{1}.spans.txt",
            dir.display(),
            report.workload
        )),
        Err(e) => report.check(false, || {
            format!("cannot write artefacts under {}: {e}", dir.display())
        }),
    }
}

/// The `trace.*` rows from reconstructed request traces. `to_us` converts the
/// recorder's time base to microseconds (`None` for simulated time, whose
/// phases are not wall time and are left out).
pub fn emit_trace(
    report: &mut Report,
    traces: Vec<RequestTrace>,
    to_us: Option<f64>,
) -> Vec<RequestTrace> {
    // Every peer is one loopback hop (or one unit-weight edge of the complete
    // graph) away, so the direct cost of any adjacency is 1 and the observed
    // stretch of a request is its tree path length.
    let scored = analysis::report(traces, &|_, _| 1.0, &|u, v| if u == v { 0.0 } else { 1.0 });
    let total = scored.traces.len().max(1) as f64;
    report.put("trace.complete_share", scored.complete as f64 / total);
    report.check(scored.complete == scored.traces.len(), || {
        format!(
            "{} of {} traced requests have an incomplete causal chain",
            scored.traces.len() - scored.complete,
            scored.traces.len()
        )
    });
    let hops: usize = scored.traces.iter().map(|t| t.hops.len()).sum();
    report.put("trace.hops_per_request_mean", hops as f64 / total);
    report.put("trace.stretch_max", scored.max_stretch);
    if let Some(to_us) = to_us {
        let phases: Vec<_> = scored.traces.iter().filter_map(|t| t.phases()).collect();
        let p50 = |pick: &dyn Fn(&analysis::Phases) -> f64| {
            crate::stats::median(&phases.iter().map(pick).collect::<Vec<_>>()) * to_us
        };
        report.put("trace.transit_us_p50", p50(&|p| p.transit));
        report.put("trace.queue_wait_us_p50", p50(&|p| p.queue_wait));
        report.put("trace.grant_wait_us_p50", p50(&|p| p.grant_wait));
    }
    scored.traces
}
