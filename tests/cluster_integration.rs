//! Multi-process integration tests for the cluster tier: every "node" here is
//! a real `arrowd` OS process, spawned from the binary Cargo built for this
//! crate, speaking the arrow protocol over TCP to its peer processes. The
//! multi-process analogue of `tests/net_integration.rs`.

use arrow_cluster::{Cluster, ClusterConfig, WorkOutcome};
use arrow_core::prelude::ObjectId;
use netgraph::{generators, NodeId, RootedTree};
use std::time::Duration;

fn arrowd() -> &'static str {
    env!("CARGO_BIN_EXE_arrowd")
}

fn tree(n: usize) -> RootedTree {
    RootedTree::from_tree_graph(&generators::balanced_binary_tree(n), 0)
}

/// A Zipf-flavored per-(node, object) workload over `k` objects: object `o`
/// (popularity rank `o`) gets `⌈base / (o + 1)⌉` acquires per node, so the
/// hottest object sees `k`× the traffic of the coldest — contention is
/// concentrated the way directory workloads actually are.
fn zipf_work(n: usize, k: usize, base: usize) -> Vec<(NodeId, ObjectId, usize)> {
    let mut work = Vec::new();
    for v in 0..n {
        for o in 0..k {
            work.push((v, ObjectId(o as u32), base.div_ceil(o + 1)));
        }
    }
    work
}

#[test]
fn eight_process_zipf_workload_validates_every_object_order() {
    let n = 8;
    let k = 4;
    let cfg = ClusterConfig::new(arrowd(), tree(n), k);
    let mut cluster = Cluster::launch(cfg).expect("cluster launches");
    assert_eq!(cluster.node_count(), n);

    let work = zipf_work(n, k, 6); // 6+3+2+2 = 13 acquires per node
    let total: usize = work.iter().map(|&(_, _, c)| c).sum();
    cluster
        .start_workload(&work, Duration::from_secs(30), 1)
        .expect("workload starts");
    let mut usage_seen = 0;
    for (_, u) in cluster.scrape_usage() {
        assert!(u.rss_kb > 0, "live daemons have resident memory");
        usage_seen += 1;
    }
    assert_eq!(usage_seen, n, "every daemon's /proc entry is scrapable");
    for (v, outcome) in cluster.await_done(Duration::from_secs(120)) {
        assert_eq!(
            outcome,
            WorkOutcome::Done {
                completed: work
                    .iter()
                    .filter(|&&(node, _, _)| node == v)
                    .map(|&(_, _, c)| c)
                    .sum::<usize>() as u64,
                failed: 0,
                first_failed_obj: None,
            },
            "node {v} completed its whole assignment"
        );
    }

    let report = cluster.shutdown().expect("graceful shutdown");
    assert!(report.failures().is_empty(), "healthy cluster");
    assert_eq!(
        report.schedule().len(),
        total,
        "every acquire was journaled"
    );

    // The core contract: every per-object queuing order, assembled across
    // eight process-local journals, forms one unbroken chain.
    let orders = report.validated_orders().expect("orders validate");
    assert_eq!(orders.len(), k, "every object saw traffic");
    let ordered: usize = orders.iter().map(|(_, o)| o.len()).sum();
    assert_eq!(ordered, total);
    // The hottest object carries the most requests (Zipf shape survived).
    assert_eq!(orders[0].1.len(), n * 6);

    // Per-process accounting made it into the report.
    assert_eq!(
        report.metrics().get(arrow_trace::Metric::Acquisitions),
        total as u64
    );
    for node_report in report.per_node() {
        let journal = node_report.journal.as_ref().expect("journal flushed");
        assert_eq!(journal.node, node_report.node);
        assert!(node_report.usage.is_some(), "usage scraped before teardown");
    }
}

#[test]
fn sigkill_and_restart_heal_through_epoch_token_regeneration() {
    // Process-granularity churn: a non-root daemon is SIGKILLed mid-run — a
    // real dead PID, its journal and volatile protocol state gone — the
    // harness broadcasts the detection epoch, restarts the daemon, and the
    // cluster must converge with the churn order contract intact.
    let n = 8;
    let k = 2;
    let victim: NodeId = 5;
    let cfg = ClusterConfig::new(arrowd(), tree(n), k).with_fault_tolerance();
    let mut cluster = Cluster::launch(cfg).expect("cluster launches");

    let work: Vec<(NodeId, ObjectId, usize)> =
        (0..n).map(|v| (v, ObjectId((v % k) as u32), 3)).collect();
    cluster
        .start_workload(&work, Duration::from_secs(1), 200)
        .expect("workload starts");

    // Let traffic build, then kill the victim process outright.
    std::thread::sleep(Duration::from_millis(150));
    cluster.kill(victim).expect("SIGKILL lands");
    cluster
        .broadcast_epoch(1)
        .expect("detection bump reaches survivors");
    cluster
        .restart(victim)
        .expect("victim restarts and rejoins");
    assert_eq!(cluster.epoch(), 1);

    for (v, outcome) in cluster.await_done(Duration::from_secs(120)) {
        if v == victim {
            // The victim's workload died with its first incarnation; the
            // restarted process was never assigned work.
            assert!(
                matches!(outcome, WorkOutcome::Idle | WorkOutcome::Dead),
                "victim owes no done line, got {outcome:?}"
            );
        } else {
            assert!(
                matches!(outcome, WorkOutcome::Done { failed: 0, .. }),
                "survivor {v} must complete through the churn, got {outcome:?}"
            );
        }
    }

    let report = cluster.shutdown().expect("graceful shutdown");
    // The churn contract across real process boundaries: per-epoch chains are
    // fork-free and the final epoch forms one complete chain per object.
    report
        .validate_churn(1)
        .expect("churn order contract holds across the kill/restart cycle");
    // Survivors' acquires all completed and were journaled.
    let survivor_acquires: usize = work
        .iter()
        .filter(|&&(v, _, _)| v != victim)
        .map(|&(_, _, c)| c)
        .sum();
    assert!(
        report.schedule().len() >= survivor_acquires,
        "at least the survivors' {survivor_acquires} acquires are in the assembled schedule"
    );
    // The restarted incarnation flushed a journal at shutdown.
    assert!(
        report.per_node()[victim].journal.is_some(),
        "restarted victim journaled its second incarnation"
    );
}

#[test]
fn sigterm_flushes_journals_and_loses_no_order_records() {
    // Regression for the graceful-termination path: SIGTERM (not the control
    // channel) must drain the mesh and flush every journal, so the assembled
    // per-object orders account for every acquire that was granted.
    let n = 4;
    let k = 2;
    let cfg = ClusterConfig::new(arrowd(), tree(n), k);
    let mut cluster = Cluster::launch(cfg).expect("cluster launches");

    let work: Vec<(NodeId, ObjectId, usize)> = (0..n)
        .flat_map(|v| (0..k).map(move |o| (v, ObjectId(o as u32), 2)))
        .collect();
    let total: usize = work.iter().map(|&(_, _, c)| c).sum();
    cluster
        .start_workload(&work, Duration::from_secs(30), 1)
        .expect("workload starts");
    for (v, outcome) in cluster.await_done(Duration::from_secs(60)) {
        assert!(
            matches!(outcome, WorkOutcome::Done { failed: 0, .. }),
            "node {v}: {outcome:?}"
        );
    }

    // Tear down by signal alone.
    let report = cluster.terminate().expect("SIGTERM teardown");
    let orders = report.validated_orders().expect("orders validate");
    let ordered: usize = orders.iter().map(|(_, o)| o.len()).sum();
    assert_eq!(
        ordered, total,
        "no order record may be lost on graceful termination"
    );
    assert_eq!(report.schedule().len(), total);
    for node_report in report.per_node() {
        assert!(
            node_report.journal.is_some(),
            "node {} flushed its journal on SIGTERM",
            node_report.node
        );
    }
}

#[test]
fn a_stopped_and_continued_daemon_keeps_serving() {
    // Regression: a stop and continue fails a blocking `recv` that has a read
    // timeout with EINTR (signal(7)), and the daemon's control loop, which
    // polls with a 100 ms timeout, used to die of it: the next workload
    // failed with a broken pipe and the node's journal went missing.
    let n = 4;
    let paused: NodeId = 2;
    let cfg = ClusterConfig::new(arrowd(), tree(n), 1);
    let mut cluster = Cluster::launch(cfg).expect("cluster launches");

    let pid = cluster.pid(paused);
    netpoll::kill(pid, netpoll::SIGSTOP).expect("SIGSTOP lands");
    std::thread::sleep(Duration::from_millis(300));
    netpoll::kill(pid, netpoll::SIGCONT).expect("SIGCONT lands");

    let work: Vec<(NodeId, ObjectId, usize)> = (0..n).map(|v| (v, ObjectId(0), 10)).collect();
    cluster
        .start_workload(&work, Duration::from_secs(30), 1)
        .expect("workload starts after the pause");
    for (v, outcome) in cluster.await_done(Duration::from_secs(60)) {
        assert_eq!(
            outcome,
            WorkOutcome::Done {
                completed: 10,
                failed: 0,
                first_failed_obj: None,
            },
            "node {v}"
        );
    }

    let report = cluster.shutdown().expect("graceful shutdown");
    assert!(report.failures().is_empty(), "{:?}", report.failures());
    assert_eq!(report.per_node().len(), n);
    for node_report in report.per_node() {
        assert!(
            node_report.journal.is_some(),
            "node {} flushed its journal",
            node_report.node
        );
    }
    assert_eq!(
        report.schedule().len(),
        n * 10,
        "every acquire was journaled"
    );
}
