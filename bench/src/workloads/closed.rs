//! `net-closed-k1`: latency-bound token circulation on the socket tier.
//!
//! 64 loopback nodes, one object, 8 lock-step clients: one seeded depth-5 node
//! under each of the eight depth-3 subtrees, so every placement has the same
//! pairwise distances and a request travels 7 tree hops on average whatever
//! the seed. With one object and one outstanding acquire per client there is
//! nothing to coalesce: every acquire sends queue frames up and down the tree
//! and a token across a direct channel, so throughput is the reactor's cycle
//! time. `net-open-zipf` is the workload where batching matters instead.

use super::net::{self, Client, ClosedDriver};
use super::{emit_trace, write_artefacts, SETUP_REPS};
use crate::gen::{one_per_subtree, stream_seed};
use crate::layers;
use crate::procfs;
use crate::report::{Report, RunArgs};
use crate::span::SpanLog;
use crate::stats::{median, Samples};
use arrow_core::prelude::ObjectId;
use arrow_net::{NetConfig, NetRuntime};
use arrow_trace::analysis::{reconstruct, RequestTrace};
use arrow_trace::TraceRecorder;
use desim::SimRng;
use netgraph::RootedTree;
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 8;

pub fn run(args: &RunArgs) -> Report {
    let mut report = Report::new("net-closed-k1", args);
    let mut spans = SpanLog::new();
    crate::affinity::pin_workload(&mut report);
    let clients: Vec<Client> = one_per_subtree(
        &mut SimRng::new(stream_seed(args.seed, 1)),
        &net::tree(),
        3,
        5,
    )
    .into_iter()
    .map(|v| (v, ObjectId::DEFAULT))
    .collect();

    let window = Duration::from_secs_f64(args.window_s());
    let warm = window.mul_f64(net::WARM_SHARE);
    report.note(format!(
        "{CLIENTS} lock-step clients at nodes {:?}; warm-up {warm:?}, window {window:?}; \
         NetConfig::instant(), loopback TCP: latency is processor + kernel time only",
        clients.iter().map(|c| c.0).collect::<Vec<_>>()
    ));

    let cfg = NetConfig::instant();
    let (tree, rt, driver, setup_s) = match net::setup_mesh(
        SETUP_REPS,
        1,
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

    let out = driver.run(&rt, warm, window, None, args.traced.then_some(&mut spans));
    report.attempted = out.attempted;
    report.failed = out.failed;
    let grants = out.grants();
    let net_report = net::teardown(rt, &mut report, &mut spans, None);
    let stats = net_report.stats();
    report.put(
        "reactor.connections",
        (stats.connections_dialed + stats.connections_accepted) as f64,
    );

    let samples = Samples::new(out.samples);
    let rate = grants as f64 / out.wall_s.max(1e-9);
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
    report.check(grants > 0, || {
        "no acquire was granted in the window".to_string()
    });

    if args.traced {
        report.put(
            "runtime.issue_ns_p50",
            Samples::new(out.issue_ns).q(0.5) as f64,
        );
        report.put(
            "runtime.release_ns_p50",
            Samples::new(out.release_ns).q(0.5) as f64,
        );
        net::emit_layers(&mut report, &tree, 1, &clients, &delta, grants, None);
        let (inc, observe) = layers::registry_costs();
        report.put("registry.inc_ns", inc);
        report.put("registry.observe_ns", observe);

        let traces = match probed_window(&tree, cfg, &clients, warm, window, &mut report) {
            Some((probed_rate, traces)) => {
                report.put("trace.overhead_share", 1.0 - probed_rate / rate.max(1e-9));
                emit_trace(&mut report, traces, Some(1e6))
            }
            None => Vec::new(),
        };
        report.put("proc.peak_rss_mb", procfs::peak_rss_mb());
        write_artefacts(&mut report, &spans, &traces, 1e6);
    }
    report
}

/// Drive a runtime whose every node carries a wall-clock recording probe.
/// `drive` returns its own measurement and how many acquires failed; the
/// result pairs that measurement with the reconstructed per-request traces.
pub fn probed_window_with(
    tree: &RootedTree,
    objects: usize,
    cfg: NetConfig,
    report: &mut Report,
    drive: impl FnOnce(&NetRuntime) -> (f64, u64),
) -> Option<(f64, Vec<RequestTrace>)> {
    let recorder = Arc::new(TraceRecorder::new());
    let rt = {
        let rec = Arc::clone(&recorder);
        NetRuntime::spawn_multi_probed(tree, objects, cfg, move |v| rec.wall_probe(v))
    };
    let (measured, failed) = drive(&rt);
    let net_report = rt.shutdown();
    report.check(failed == 0 && net_report.validated_orders().is_ok(), || {
        format!("the probed runtime's run did not validate ({failed} acquires failed)")
    });
    // Shutdown joined the shard threads, which dropped (and so flushed) every
    // probe: this is the last reference.
    let events = Arc::try_unwrap(recorder).ok()?.finish();
    Some((measured, reconstruct(&events)))
}

/// The same closed loop on a probed runtime: the window's grant rate and the
/// reconstructed per-request traces.
fn probed_window(
    tree: &RootedTree,
    cfg: NetConfig,
    clients: &[Client],
    warm: Duration,
    window: Duration,
    report: &mut Report,
) -> Option<(f64, Vec<RequestTrace>)> {
    probed_window_with(tree, 1, cfg, report, |rt| {
        match ClosedDriver::start(rt, clients) {
            Ok(driver) => {
                let out = driver.run(rt, warm, window, None, None);
                (out.grants() as f64 / out.wall_s.max(1e-9), out.failed)
            }
            Err(_) => (0.0, clients.len() as u64),
        }
    })
}
