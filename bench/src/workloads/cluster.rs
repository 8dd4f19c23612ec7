//! `cluster-closed`: the process tier — what an operator deploys.
//!
//! 8 `arrowd` OS processes on a balanced binary tree, 4 objects, the
//! Zipf-shaped closed-loop assignment of the `cluster` bench (`⌈base/(o+1)⌉`
//! acquires of object `o` per node, one lock-step worker thread per (node,
//! object) inside the daemon). Everything tier 3 pays, plus the control
//! channel, per-process journals and the OS scheduling eight processes.
//!
//! One launched cluster runs a small warm-up round and then equal rounds of
//! `start_workload` → `await_done` until the window is over; `ops_per_s` is
//! the median round's grants per second and `cpu_us_per_op` the daemons' CPU
//! (`scrape_usage`) per grant over the measured rounds. The harness sees no
//! individual acquire, so the `client.p*` latency rows are read from the
//! journals afterwards: gaps between consecutive issues of one lock-step
//! worker, i.e. one acquire-release cycle as that worker saw it.

use super::{balanced_tree, out_dir, write_artefacts};
use crate::report::{Report, RunArgs};
use crate::span::{self, SpanLog};
use crate::stats::{median, Samples};
use arrow_cluster::{
    locate_arrowd, procstat, Cluster, ClusterConfig, ClusterReport, ProcUsage, WorkOutcome,
};
use arrow_core::prelude::ObjectId;
use arrow_trace::{HistMetric, Metric};
use netgraph::NodeId;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

const PROCESSES: usize = 8;
/// Launches per run; `setup_s` is their median. Fewer than the other
/// workloads' repetitions because each costs a launch and a shutdown of
/// eight processes.
const SETUP_REPS: usize = 7;
const OBJECTS: usize = 4;
/// Acquires of the hottest object per node and round, per second of window:
/// about eight rounds fit a window at the seed commit's speed.
const BASE_PER_WINDOW_SECOND: f64 = 190.0;
/// The fewest rounds a window is allowed to end on, for a median worth the name.
const MIN_ROUNDS: usize = 3;
const ACQUIRE_TIMEOUT: Duration = Duration::from_secs(60);
const ROUND_DEADLINE: Duration = Duration::from_secs(120);

/// The `cluster` bench's assignment: object `o` gets `⌈base/(o+1)⌉` acquires
/// per node.
fn zipf_work(base: usize) -> Vec<(NodeId, ObjectId, usize)> {
    (0..PROCESSES)
        .flat_map(|v| (0..OBJECTS).map(move |o| (v, ObjectId(o as u32), base.div_ceil(o + 1))))
        .collect()
}

/// Build `arrowd` into this executable's own target directory, so it lands
/// beside the benchmark binary where `locate_arrowd` looks. The build is part
/// of neither set-up nor any measured window.
fn build_arrowd() -> Result<PathBuf, String> {
    if std::env::var_os("ARROWD_BIN").is_none() {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let target_dir = exe
            .parent()
            .and_then(Path::parent)
            .ok_or("the benchmark executable is not inside a target directory")?;
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../Cargo.toml");
        let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "-p",
                "arrow-cluster",
                "--bin",
                "arrowd",
            ])
            .arg("--manifest-path")
            .arg(&manifest)
            .arg("--target-dir")
            .arg(target_dir)
            .status()
            .map_err(|e| format!("cannot run cargo to build arrowd: {e}"))?;
        if !status.success() {
            return Err(format!("building arrowd failed: {status}"));
        }
    }
    locate_arrowd()
}

/// Journals stay inside the benchmark's own directory, not the system temp
/// directory; one directory per launch of this process.
fn journal_dir(launch: usize) -> PathBuf {
    out_dir().join(format!("journals-{}-{launch}", std::process::id()))
}

fn config(arrowd: &Path, launch: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(arrowd, balanced_tree(PROCESSES), OBJECTS);
    cfg.journal_dir = journal_dir(launch);
    cfg
}

fn cpu_seconds(usage: &[(NodeId, ProcUsage)]) -> f64 {
    usage.iter().map(|(_, u)| u.cpu_seconds()).sum()
}

fn self_cpu_seconds() -> f64 {
    procstat::scrape(std::process::id()).map_or(0.0, |u| u.cpu_seconds())
}

pub fn run(args: &RunArgs) -> Report {
    let mut report = Report::new("cluster-closed", args);
    let mut spans = SpanLog::new();
    let arrowd = match build_arrowd() {
        Ok(path) => path,
        Err(e) => {
            report.check(false, || e);
            return report;
        }
    };
    // After the build, which may use every processor; before any daemon.
    crate::affinity::pin_workload(&mut report);
    let window = Duration::from_secs_f64(args.window_s());
    let base = ((BASE_PER_WINDOW_SECOND * args.window_s()).round() as usize).max(8);
    let work = zipf_work(base);
    let round_total: usize = work.iter().map(|w| w.2).sum();
    let warm_work = zipf_work(base.div_ceil(4));
    report.note(format!(
        "{PROCESSES} arrowd processes, {OBJECTS} objects, rounds of {round_total} acquires \
         (base {base}) for {window:?} after one warm-up round; daemons run NetConfig::instant() over \
         loopback TCP; client.p* = acquire-release cycles of the daemons' workers, from journals"
    ));

    // Set-up: Cluster::launch until every daemon reported ready.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut cluster = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let launched = spans.scope("setup", span::NONE, |spans, setup| {
            spans.scope("cluster.launch", setup, |_, _| {
                Cluster::launch(config(&arrowd, rep))
            })
        });
        setup_s.push(t0.elapsed().as_secs_f64());
        match launched {
            Ok(c) if rep + 1 < SETUP_REPS => {
                report.check(c.shutdown().is_ok(), || {
                    format!("set-up repetition {rep} did not shut down cleanly")
                });
                let _ = std::fs::remove_dir_all(journal_dir(rep));
            }
            Ok(c) => cluster = Some(c),
            Err(e) => {
                report.check(false, || format!("Cluster::launch failed: {e}"));
                return report;
            }
        }
    }
    let mut cluster = cluster.expect("SETUP_REPS is at least 1");
    report.put("setup_s", median(&setup_s));
    report.put("cluster.launch_ms", median(&setup_s) * 1e3);

    // One round: start → await, every daemon must finish with nothing failed.
    let mut start_ms = Vec::new();
    let mut round = |cluster: &mut Cluster,
                     work: &[(NodeId, ObjectId, usize)],
                     report: &mut Report,
                     spans: &mut SpanLog|
     -> Option<f64> {
        let t0 = Instant::now();
        let round_span = spans.open("cluster.round", span::NONE, 0);
        let started = spans.scope("cluster.start", round_span, |_, _| {
            cluster.start_workload(work, ACQUIRE_TIMEOUT, 1)
        });
        start_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = started {
            report.check(false, || format!("start_workload failed: {e}"));
            return None;
        }
        let outcomes = spans.scope("cluster.await", round_span, |_, _| {
            cluster.await_done(ROUND_DEADLINE)
        });
        let wall = t0.elapsed().as_secs_f64();
        spans.close(round_span);
        let expected: usize = work.iter().map(|w| w.2).sum();
        let mut completed = 0;
        for (v, outcome) in outcomes {
            match outcome {
                WorkOutcome::Done {
                    completed: c,
                    failed: 0,
                    ..
                } => completed += c as usize,
                other => {
                    report.check(false, || {
                        format!("node {v} did not finish its round: {other:?}")
                    });
                }
            }
        }
        report.attempted += expected as u64;
        report.failed += (expected - completed.min(expected)) as u64;
        Some(wall)
    };

    let mut rounds = 0usize;
    let warmed = round(&mut cluster, &warm_work, &mut report, &mut spans).is_some();
    let (attempted_warm, failed_warm) = (report.attempted, report.failed);
    let usage_before = spans.scope("cluster.scrape", span::NONE, |_, _| cluster.scrape_usage());
    let harness_cpu_before = self_cpu_seconds();
    let mut round_rates = Vec::new();
    let begin = Instant::now();
    while warmed && (begin.elapsed() < window || rounds < MIN_ROUNDS) {
        match round(&mut cluster, &work, &mut report, &mut spans) {
            Some(wall) => round_rates.push(round_total as f64 / wall.max(1e-9)),
            None => break,
        }
        rounds += 1;
    }
    let usage_after = spans.scope("cluster.scrape", span::NONE, |_, _| cluster.scrape_usage());
    let harness_cpu = self_cpu_seconds() - harness_cpu_before;
    // The warm-up round is checked like any other but is not part of the
    // measured attempt count.
    report.attempted -= attempted_warm;
    report.failed -= failed_warm.min(report.failed);
    let measured = (rounds * round_total) as f64;
    report.check(rounds >= MIN_ROUNDS, || {
        format!("only {rounds} measured rounds completed")
    });
    report.put("ops_per_s", median(&round_rates));
    report.put(
        "client.acq_per_s",
        measured / begin.elapsed().as_secs_f64().max(1e-9),
    );
    report.put("client.samples", rounds as f64);
    report.put("cluster.start_ms", median(&start_ms));
    let daemon_cpu_us_per_acq =
        (cpu_seconds(&usage_after) - cpu_seconds(&usage_before)) * 1e6 / measured.max(1.0);
    report.put("cpu_us_per_op", daemon_cpu_us_per_acq);
    report.put("cluster.cpu_us_per_acq", daemon_cpu_us_per_acq);
    report.put(
        "cluster.harness_cpu_us_per_acq",
        harness_cpu * 1e6 / measured.max(1.0),
    );

    let t0 = Instant::now();
    let shut = spans.scope("teardown", span::NONE, |spans, teardown| {
        spans.scope("cluster.shutdown", teardown, |_, _| cluster.shutdown())
    });
    report.put("cluster.shutdown_ms", t0.elapsed().as_secs_f64() * 1e3);
    let cluster_report = match shut {
        Ok(r) => r,
        Err(e) => {
            report.check(false, || format!("cluster shutdown failed: {e}"));
            return report;
        }
    };
    let _ = std::fs::remove_dir_all(journal_dir(SETUP_REPS - 1));

    let t0 = Instant::now();
    let cycles = spans.scope("cluster.merge", span::NONE, |_, _| {
        check_cluster_report(&cluster_report, &mut report);
        worker_cycles_ns(&cluster_report, &warm_work, &work)
    });
    report.put(
        "cluster.merge_validate_ms",
        t0.elapsed().as_secs_f64() * 1e3,
    );
    let cycles = Samples::new(cycles);
    report.put("client.p50_us", cycles.q_us(0.50));
    report.put("client.p90_us", cycles.q_us(0.90));
    report.put("client.p99_us", cycles.q_us(0.99));
    report.put("client.p999_us", cycles.q_us(0.999));
    report.note(format!(
        "{} worker cycles behind the client.p* rows",
        cycles.len()
    ));
    emit_daemon_rows(&mut report, &cluster_report);

    if args.traced {
        report.put("proc.peak_rss_mb", crate::procfs::peak_rss_mb());
        write_artefacts(&mut report, &spans, &[], 1e6);
    }
    report
}

/// The output checks of a cluster run: merged journals validate with one
/// order per object, every issued acquire is in an order, nothing failed.
fn check_cluster_report(cr: &ClusterReport, report: &mut Report) {
    let issued = cr.schedule().len() as u64;
    match cr.validated_orders() {
        Ok(orders) => {
            report.check(orders.len() == OBJECTS, || {
                format!("{} validated orders for {OBJECTS} objects", orders.len())
            });
            let ordered: u64 = orders.iter().map(|(_, o)| o.len() as u64).sum();
            report.check(ordered == issued, || {
                format!("{ordered} requests in validated orders, {issued} issued")
            });
        }
        Err(e) => report.check(false, || format!("validated_orders failed: {e:?}")),
    }
    let granted = cr.metrics().get(Metric::Acquisitions);
    let failed = report.failed;
    report.check(issued == granted + failed, || {
        format!("issued {issued} != granted {granted} + failed {failed}")
    });
    report.check(cr.metrics().get(Metric::UnexpectedFrames) == 0, || {
        format!(
            "{} unexpected frames",
            cr.metrics().get(Metric::UnexpectedFrames)
        )
    });
    report.check(cr.failures().is_empty(), || {
        format!("daemon transport failures: {:?}", cr.failures())
    });
}

/// Gaps between consecutive issues of each (node, object) worker, in
/// nanoseconds, measured rounds only. A daemon's issue times share that
/// daemon's clock, and one worker's requests are strictly sequential, so a gap
/// is one acquire-release cycle. Gaps that span a round boundary (the worker
/// sat idle) and the warm-up round are left out.
fn worker_cycles_ns(
    cr: &ClusterReport,
    warm_work: &[(NodeId, ObjectId, usize)],
    work: &[(NodeId, ObjectId, usize)],
) -> Vec<u64> {
    let mut streams: BTreeMap<(NodeId, u32), Vec<u64>> = BTreeMap::new();
    for r in cr.schedule().requests() {
        // Journal times are microsecond sub-ticks of seconds.
        streams
            .entry((r.node, r.obj.0))
            .or_default()
            .push(r.time.subticks() * 1_000);
    }
    let count_of = |table: &[(NodeId, ObjectId, usize)], key: (NodeId, u32)| {
        table
            .iter()
            .find(|w| (w.0, w.1 .0) == key)
            .map_or(0, |w| w.2)
    };
    let mut cycles = Vec::new();
    for (key, mut times) in streams {
        times.sort_unstable();
        let (skip, per_round) = (count_of(warm_work, key), count_of(work, key));
        if per_round == 0 {
            continue;
        }
        for chunk in times.get(skip..).unwrap_or(&[]).chunks(per_round) {
            cycles.extend(chunk.windows(2).map(|w| w[1] - w[0]));
        }
    }
    cycles
}

/// The `cluster.*` rows read from the merged daemon registries and `/proc`.
/// They cover the daemons' whole life, warm-up round included.
fn emit_daemon_rows(report: &mut Report, cr: &ClusterReport) {
    let m = cr.metrics();
    let granted = m.get(Metric::Acquisitions).max(1) as f64;
    report.put(
        "cluster.queue_frames_per_acq",
        m.get(Metric::QueueFrames) as f64 / granted,
    );
    report.put(
        "cluster.token_frames_per_acq",
        m.get(Metric::TokenFrames) as f64 / granted,
    );
    report.put(
        "cluster.writes_per_acq",
        m.get(Metric::SocketWrites) as f64 / granted,
    );
    report.put(
        "cluster.wakeups_per_acq",
        m.get(Metric::ReactorWakeups) as f64 / granted,
    );
    report.put(
        "cluster.frames_per_write",
        m.get(Metric::FramesSent) as f64 / m.get(Metric::SocketWrites).max(1) as f64,
    );
    // The daemons' own histogram buckets by powers of two: these two read up
    // to 2x too high and move only in factors of two.
    let lat = m.hist(HistMetric::AcquireNanos);
    report.put(
        "cluster.acquire_p50_us_log2",
        lat.quantile(0.50).unwrap_or(0) as f64 / 1e3,
    );
    report.put(
        "cluster.acquire_p99_us_log2",
        lat.quantile(0.99).unwrap_or(0) as f64 / 1e3,
    );
    let usage: Vec<&ProcUsage> = cr
        .per_node()
        .iter()
        .filter_map(|n| n.usage.as_ref())
        .collect();
    report.check(usage.len() == PROCESSES, || {
        format!(
            "/proc was scraped for {} of {PROCESSES} daemons",
            usage.len()
        )
    });
    report.put(
        "cluster.peak_rss_kb_max",
        usage.iter().map(|u| u.peak_rss_kb).max().unwrap_or(0) as f64,
    );
    report.put(
        "cluster.rss_kb_sum",
        usage.iter().map(|u| u.rss_kb).sum::<u64>() as f64,
    );
}
