//! `net-churn`: the socket tier under injected crash/restart and link
//! drop/restore, with fault tolerance on.
//!
//! 64 nodes, 4 objects, 4 lock-step clients per object: one seeded depth-5
//! node under each of the four depth-2 subtrees. Every `period` the driver
//! injects one fault through `NetFaultHandle` — crash or restart of a seeded
//! depth-2 node, or drop or restore of such a node's parent link — and 5 ms
//! later broadcasts the epoch bump its detection triggers. Each fault so cuts
//! off exactly one client of every object, whichever victim the seed picks.
//! Victims host no clients, so no request is excused: every acquire must
//! still be granted. The same `ArrowCore` and reactor as the other
//! socket workloads, used differently: `on_epoch`, re-issue, stale-epoch
//! drops and token regeneration are on the hot path.

use super::net::{self, Client};
use super::{write_artefacts, SETUP_REPS};
use crate::gen::{fault_plan, one_per_subtree, stream_seed};
use crate::procfs;
use crate::report::{Report, RunArgs};
use crate::span::SpanLog;
use crate::stats::{median, Samples};
use arrow_core::prelude::ObjectId;
use arrow_net::{NetConfig, NetRuntime};
use arrow_trace::Metric;
use desim::SimRng;
use std::time::Duration;

const OBJECTS: usize = 4;
const CLIENTS_PER_OBJECT: usize = 4;
/// Faults hit the four depth-2 nodes; each object has one client below each.
const VICTIM_DEPTH: usize = 2;
const CLIENT_DEPTH: usize = 5;

/// Faults per measured window (one every 800 ms of a 12 s window).
const FAULTS_PER_WINDOW: f64 = 15.0;
/// Shortest spacing of faults, whatever the window.
const MIN_PERIOD: Duration = Duration::from_millis(40);
/// How long after a fault the per-object grant gap is read as its outage.
const OUTAGE_WINDOW: Duration = Duration::from_millis(300);

pub fn run(args: &RunArgs) -> Report {
    let mut report = Report::new("net-churn", args);
    let mut spans = SpanLog::new();
    crate::affinity::pin_workload(&mut report);
    let tree = net::tree();
    let mut rng = SimRng::new(stream_seed(args.seed, 1));
    let clients: Vec<Client> = (0..OBJECTS)
        .flat_map(|o| {
            one_per_subtree(&mut rng, &tree, VICTIM_DEPTH, CLIENT_DEPTH)
                .into_iter()
                .map(move |v| (v, ObjectId(o as u32)))
        })
        .collect();
    assert_eq!(clients.len(), OBJECTS * CLIENTS_PER_OBJECT);
    let window = Duration::from_secs_f64(args.window_s());
    let warm = window.mul_f64(net::WARM_SHARE);
    let period = window.div_f64(FAULTS_PER_WINDOW).max(MIN_PERIOD);
    let plan = fault_plan(
        stream_seed(args.seed, 2),
        &tree,
        VICTIM_DEPTH,
        window.as_nanos() as u64,
        period.as_nanos() as u64,
    );
    let outage_window = OUTAGE_WINDOW.min(period.mul_f64(0.45));
    report.note(format!(
        "{} lock-step clients at depth 5, {} faults one per {period:?} (epoch bump {:?} after each); \
         warm-up {warm:?}, window {window:?}; NetConfig::instant() + fault tolerance, loopback TCP",
        clients.len(),
        plan.len(),
        net::DETECTION_DELAY
    ));
    report.check(!plan.is_empty(), || {
        format!("a {window:?} window is too short for one fault cycle")
    });

    let cfg = NetConfig::instant().with_fault_tolerance();
    let (tree, rt, driver, setup_s) = match net::setup_mesh(
        SETUP_REPS,
        OBJECTS,
        cfg,
        &clients,
        &mut spans,
        &mut report,
        NetRuntime::spawn_multi,
    ) {
        Ok(up) => up,
        Err(e) => {
            report.check(false, || e);
            return report;
        }
    };
    report.put("setup_s", median(&setup_s));

    let faults = rt.fault_handle();
    let out = driver.run(
        &rt,
        warm,
        window,
        Some((&faults, &plan)),
        args.traced.then_some(&mut spans),
    );
    report.attempted = out.attempted;
    report.failed = out.failed;
    let grants = out.grants();
    report.check(out.fault_times.len() == plan.len(), || {
        format!(
            "{} of {} planned faults were injected",
            out.fault_times.len(),
            plan.len()
        )
    });
    let net_report = net::teardown(rt, &mut report, &mut spans, Some(out.final_epoch));
    let stats = net_report.stats();
    report.put(
        "reactor.connections",
        (stats.connections_dialed + stats.connections_accepted) as f64,
    );

    let rate = grants as f64 / out.wall_s.max(1e-9);
    let samples = Samples::new(out.samples);
    report.put("ops_per_s", rate);
    report.put("client.acq_per_s", rate);
    net::emit_client(&mut report, &samples);
    // The last slice is cut short by the window's end.
    net::emit_slices(
        &mut report,
        &out.slices[..out.slices.len().saturating_sub(1)],
    );
    let Some(delta) = out.delta else {
        report.check(false, || "the measured window never opened".to_string());
        return report;
    };
    net::emit_reactor(&mut report, &delta, grants);
    net::emit_cpu(&mut report, &delta, grants);

    report.put("fault.cycles", (out.fault_times.len() / 2) as f64);
    report.put(
        "fault.token_regenerations",
        net_report.token_regenerations() as f64,
    );
    report.put(
        "fault.epochs_adopted",
        delta.metrics.get(Metric::EpochsAdopted) as f64,
    );
    report.put(
        "fault.stale_epoch_drops",
        delta.metrics.get(Metric::StaleEpochDrops) as f64,
    );
    report.put(
        "fault.frames_dropped",
        delta.metrics.get(Metric::FramesDropped) as f64,
    );
    let w = outage_window.as_nanos() as u64;
    let half = period.as_nanos() as u64 / 2;
    let gaps_at = |offset: u64| -> Vec<f64> {
        out.fault_times
            .iter()
            .flat_map(|&f| {
                out.grant_times
                    .iter()
                    .map(move |times| longest_gap(times, f + offset, f + offset + w) as f64 / 1e6)
            })
            .collect()
    };
    let outages = gaps_at(0);
    report.put("fault.outage_ms_p50", median(&outages));
    report.put(
        "fault.outage_ms_max",
        outages.iter().copied().fold(0.0, f64::max),
    );
    report.put("fault.steady_gap_ms_p50", median(&gaps_at(half)));

    if args.traced {
        report.put(
            "runtime.issue_ns_p50",
            Samples::new(out.issue_ns).q(0.5) as f64,
        );
        report.put(
            "runtime.release_ns_p50",
            Samples::new(out.release_ns).q(0.5) as f64,
        );
        // One epoch bump per injected fault's worth of grants.
        let bump_every = (grants.clamp(10_000, 400_000) / plan.len().max(1) as u64).max(1);
        net::emit_layers(
            &mut report,
            &tree,
            OBJECTS,
            &clients,
            &delta,
            grants,
            Some(bump_every),
        );
        report.put("proc.peak_rss_mb", procfs::peak_rss_mb());
        // No probed window: under churn a re-issued request has one causal
        // chain per epoch, which `analysis::reconstruct` reads as incomplete.
        write_artefacts(&mut report, &spans, &[], 1e6);
    }
    report
}

/// The longest stretch of `[from, to)` without a grant, given ascending grant
/// times: the outage one object's clients saw in that interval.
fn longest_gap(times: &[u64], from: u64, to: u64) -> u64 {
    let lo = times.partition_point(|&t| t < from);
    let hi = times.partition_point(|&t| t < to);
    let mut prev = from;
    let mut best = 0;
    for &t in &times[lo..hi] {
        best = best.max(t - prev);
        prev = t;
    }
    best.max(to - prev)
}

#[cfg(test)]
mod tests {
    use super::longest_gap;

    #[test]
    fn longest_gap_is_clipped_to_the_interval() {
        let times = [5, 10, 20, 50, 90, 140];
        assert_eq!(longest_gap(&times, 0, 100), 40);
        assert_eq!(longest_gap(&times, 10, 50), 30);
        assert_eq!(longest_gap(&times, 60, 80), 20);
        assert_eq!(longest_gap(&times, 100, 130), 30);
        assert_eq!(longest_gap(&[], 0, 7), 7);
    }
}
