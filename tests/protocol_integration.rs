//! Cross-crate integration tests: the arrow protocol and the centralized baseline
//! running on the full stack (netgraph topologies + desim simulator + arrow-core
//! harness), across topologies, spanning trees, workloads and synchrony models.

use arrow_core::prelude::*;
use desim::SimTime;
use netgraph::spanning::build_spanning_tree;
use netgraph::{generators, RootedTree};

/// Every (topology, tree, workload, synchrony) combination must produce a valid total
/// order covering every request exactly once.
#[test]
fn arrow_produces_valid_orders_across_many_instances() {
    let topologies: Vec<(&str, netgraph::Graph)> = vec![
        ("complete-12", generators::complete(12, 1.0)),
        ("grid-4x4", generators::grid(4, 4)),
        ("cycle-15", generators::cycle(15)),
        ("hypercube-4", generators::hypercube(4)),
        (
            "random-geometric-20",
            generators::random_geometric(20, 0.4, 7),
        ),
        (
            "erdos-renyi-18",
            generators::erdos_renyi_connected(18, 0.15, 3),
        ),
    ];
    let kinds = [
        SpanningTreeKind::ShortestPath,
        SpanningTreeKind::MinimumWeight,
        SpanningTreeKind::MinimumCommunication,
    ];
    for (name, graph) in &topologies {
        for &kind in &kinds {
            let tree = build_spanning_tree(graph, 0, kind);
            let instance = Instance::new(graph.clone(), tree);
            let n = instance.node_count();
            for (wl_name, schedule) in [
                (
                    "burst",
                    workload::one_shot_burst(&(0..n).collect::<Vec<_>>(), SimTime::ZERO),
                ),
                ("poisson", workload::poisson(n, 1.5, 10.0, 11)),
                ("hotspot", workload::hotspot(n, &[0], 0.6, 3 * n, 8.0, 5)),
            ] {
                if schedule.is_empty() {
                    continue;
                }
                let expected = schedule.len();
                for (mode_name, cfg) in [
                    ("sync", RunConfig::analysis(ProtocolKind::Arrow)),
                    (
                        "async",
                        RunConfig::analysis(ProtocolKind::Arrow).asynchronous(99),
                    ),
                ] {
                    let outcome = run(&instance, &Workload::OpenLoop(schedule.clone()), &cfg);
                    assert_eq!(
                        outcome.order.len(),
                        expected,
                        "{name}/{kind:?}/{wl_name}/{mode_name}: wrong order length"
                    );
                    assert!(outcome.total_latency >= 0.0);
                }
            }
        }
    }
}

/// Arrow and the centralized protocol queue the same request set; the orders may
/// differ but both must be valid and the per-request latency of arrow must respect
/// the tree diameter bound for sequential requests (Demmer–Herlihy).
#[test]
fn sequential_requests_cost_at_most_the_diameter_per_operation() {
    let graph = generators::grid(5, 5);
    let tree = build_spanning_tree(&graph, 0, SpanningTreeKind::ShortestPath);
    let instance = Instance::new(graph, tree);
    let diameter = instance.stretch_report().tree_diameter;

    let nodes: Vec<usize> = (0..25).collect();
    let schedule = workload::sequential_round_robin(&nodes, 30, diameter + 1.0);
    let outcome = run(
        &instance,
        &Workload::OpenLoop(schedule),
        &RunConfig::analysis(ProtocolKind::Arrow),
    );
    for (id, latency) in outcome.order.latencies(&outcome.schedule) {
        assert!(
            latency.as_units_f64() <= diameter + 1e-9,
            "request {id} took {latency} > diameter {diameter}"
        );
    }
    // In the sequential case arrow's order is exactly the issue order.
    let order_ids: Vec<u64> = outcome.order.order().iter().map(|r| r.0).collect();
    let issue_ids: Vec<u64> = outcome.schedule.requests().iter().map(|r| r.id.0).collect();
    assert_eq!(order_ids, issue_ids);
}

/// The same seed must give byte-identical outcomes (determinism), and different seeds
/// must be allowed to differ (asynchronous model actually samples delays).
#[test]
fn asynchronous_runs_are_deterministic_per_seed() {
    let instance = Instance::complete_uniform(10, SpanningTreeKind::BalancedBinary);
    let schedule = workload::uniform_random(10, 40, 15.0, 3);
    let run_with = |seed: u64| {
        run(
            &instance,
            &Workload::OpenLoop(schedule.clone()),
            &RunConfig::analysis(ProtocolKind::Arrow).asynchronous(seed),
        )
    };
    let a1 = run_with(5);
    let a2 = run_with(5);
    assert_eq!(a1.total_latency, a2.total_latency);
    assert_eq!(a1.order.order(), a2.order.order());
    assert_eq!(a1.protocol_messages, a2.protocol_messages);
}

/// Centralized protocol: every remote request costs exactly two protocol messages,
/// and the order is arrival order at the central node.
#[test]
fn centralized_message_accounting() {
    let instance = Instance::complete_uniform(9, SpanningTreeKind::Star);
    let n = instance.node_count();
    let schedule = workload::one_shot_burst(&(0..n).collect::<Vec<_>>(), SimTime::ZERO);
    let outcome = run(
        &instance,
        &Workload::OpenLoop(schedule),
        &RunConfig::analysis(ProtocolKind::Centralized),
    );
    // 8 remote requests * 2 messages (the root's own request is local).
    assert_eq!(outcome.protocol_messages, 16);
    assert_eq!(outcome.order.len(), 9);
}

/// Arrow on a path where all requests come from the far end: every queue() message
/// walks the whole path the first time, then the tail stays put (locality).
#[test]
fn repeated_requests_from_one_node_become_local_after_the_first() {
    let graph = generators::path(12);
    let instance = Instance::tree_only(graph, 0);
    let schedule = workload::sequential_round_robin(&[11], 5, 30.0);
    let outcome = run(
        &instance,
        &Workload::OpenLoop(schedule),
        &RunConfig::analysis(ProtocolKind::Arrow),
    );
    // First request pays the full path (11 hops); the rest are local (0 hops).
    assert_eq!(outcome.protocol_messages, 11);
    assert_eq!(outcome.total_latency, 11.0);
}

/// The live reactor runtime and the simulator agree on the fundamental guarantee:
/// every acquisition is granted exactly once and mutual exclusion holds.
#[test]
fn live_runtime_agrees_with_simulation_guarantees() {
    use arrow_net::{CriticalSectionLog, DistributedLock, NetConfig, NetRuntime};
    use std::sync::Arc;

    let tree = RootedTree::from_tree_graph(&generators::balanced_binary_tree(9), 0);
    let runtime = Arc::new(NetRuntime::spawn(&tree, NetConfig::instant()));
    let log = CriticalSectionLog::new();
    let mut workers = Vec::new();
    for v in 0..9 {
        let lock = DistributedLock::new(runtime.handle(v), log.clone());
        workers.push(std::thread::spawn(move || {
            for _ in 0..5 {
                lock.with(std::thread::yield_now);
            }
        }));
    }
    for w in workers {
        w.join().unwrap();
    }
    assert_eq!(log.len(), 45);
    assert!(log.find_overlap().is_none());
    let report = Arc::try_unwrap(runtime).ok().unwrap().shutdown();
    assert_eq!(report.stats().acquisitions, 45);
    let orders = report.validated_orders().expect("one valid queue");
    assert_eq!(
        orders[0].1.len(),
        45,
        "every acquisition queued exactly once"
    );
}

/// Local processing order of simultaneous arrivals must not affect the validity of
/// the outcome (Section 3.1 says the analysis is independent of it).
#[test]
fn random_local_processing_order_still_yields_valid_orders() {
    let instance = Instance::complete_uniform(14, SpanningTreeKind::BalancedBinary);
    let n = instance.node_count();
    let schedule = workload::one_shot_burst(&(0..n).collect::<Vec<_>>(), SimTime::ZERO);
    for seed in 0..5 {
        let outcome = run(
            &instance,
            &Workload::OpenLoop(schedule.clone()),
            &RunConfig::analysis(ProtocolKind::Arrow).asynchronous(seed),
        );
        assert_eq!(outcome.order.len(), n);
    }
}
