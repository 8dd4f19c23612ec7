//! Multi-object directory integration tests: K objects sharing one spanning tree,
//! validated end-to-end on the deterministic simulator and on the live reactor
//! runtime.
//!
//! The headline scenario is the ISSUE's acceptance case: a K = 16-object
//! Zipf-skewed workload on a 256-node instance must produce K independently valid
//! per-object queuing orders in both runtimes.

use arrow_bench::multi_object::multi_object_workload;
use arrow_core::prelude::*;
use arrow_net::{CriticalSectionLog, NetConfig, NetRuntime, SectionRecord};
use desim::{SimRng, SimTime};
use netgraph::{generators, RootedTree};
use std::sync::Arc;
use std::time::Instant;

/// K = 16 objects, 256 nodes, Zipf-skewed popularity, simulator: every object's
/// queue must independently validate as a total order covering exactly that
/// object's requests.
#[test]
fn k16_zipf_on_256_nodes_validates_per_object_in_the_simulator() {
    let (instance, schedule) = multi_object_workload(256, 16, 2_000, 1);
    assert_eq!(
        schedule.objects().len(),
        16,
        "workload must touch all 16 objects"
    );
    for config in [
        RunConfig::analysis(ProtocolKind::Arrow),
        RunConfig::analysis(ProtocolKind::Arrow).asynchronous(5),
        RunConfig::analysis(ProtocolKind::Centralized),
    ] {
        let outcome = run_schedule(&instance, &schedule, &config);
        assert_eq!(outcome.object_count(), 16);
        let mut covered = 0;
        for (obj, order) in &outcome.orders {
            let sub = outcome.schedule.for_object(*obj);
            // The order is already validated by the harness; check it covers the
            // object's sub-schedule exactly and only mentions that object's requests.
            assert_eq!(order.len(), sub.len(), "object {obj}");
            for &id in order.order() {
                assert_eq!(outcome.schedule.get(id).unwrap().obj, *obj);
            }
            covered += order.len();
        }
        assert_eq!(covered, schedule.len(), "orders partition the requests");
    }
}

/// Same scenario on the live reactor runtime: 256 nodes serving 16 objects, from 48
/// client threads. Every object's token is a mutual-exclusion witness for its
/// queue — overlapping critical sections for one object would mean its queuing
/// order was invalid.
#[test]
fn k16_on_256_nodes_live_runtime_grants_valid_per_object_queues() {
    let n = 256;
    let k = 16usize;
    let tree = RootedTree::from_tree_graph(&generators::balanced_binary_tree(n), 0);
    let rt = Arc::new(NetRuntime::spawn_multi(&tree, k, NetConfig::instant()));
    // Zipf-ish access pattern: requester nodes drawn per object from a seeded RNG.
    let acquires_per_worker = 6;
    let workers_per_object = 3;
    let logs: Vec<CriticalSectionLog> = (0..k).map(|_| CriticalSectionLog::new()).collect();
    let mut joins = Vec::new();
    let mut rng = SimRng::new(42);
    for (obj, obj_log) in logs.iter().enumerate() {
        for _ in 0..workers_per_object {
            let node = rng.index(n);
            let h = rt.handle(node);
            let log = obj_log.clone();
            joins.push(std::thread::spawn(move || {
                for _ in 0..acquires_per_worker {
                    let req = h.acquire_object(ObjectId(obj as u32));
                    let entered = Instant::now();
                    std::thread::yield_now();
                    log.record(SectionRecord {
                        node,
                        request: req,
                        entered,
                        exited: Instant::now(),
                    });
                    h.release_object(ObjectId(obj as u32), req);
                }
            }));
        }
    }
    for j in joins {
        j.join().unwrap();
    }
    let expected = (k * workers_per_object * acquires_per_worker) as u64;
    assert_eq!(
        rt.stats().snapshot().acquisitions,
        expected,
        "every acquire granted"
    );
    for (obj, log) in logs.iter().enumerate() {
        assert_eq!(log.len(), workers_per_object * acquires_per_worker);
        assert!(
            log.find_overlap().is_none(),
            "object {obj}: two critical sections overlapped — its queue is not a total order"
        );
    }
    let report = Arc::try_unwrap(rt).ok().unwrap().shutdown();
    let orders = report
        .validated_orders()
        .expect("every object's queue is valid");
    assert_eq!(orders.len(), k);
}

/// Property test: for random topologies, object counts and multi-object schedules,
/// the per-object orders re-validate from the raw sub-schedules and partition the
/// request set.
#[test]
fn per_object_orders_always_validate_as_queuing_orders() {
    for case in 0..24u64 {
        let mut rng = SimRng::new(0x0B7EC7 + case);
        let graph = match rng.index(3) {
            0 => generators::complete(4 + rng.index(12), 1.0),
            1 => generators::grid(2 + rng.index(3), 2 + rng.index(4)),
            _ => generators::random_tree(4 + rng.index(12), rng.uniform_u64(0, u64::MAX - 1)),
        };
        let n = graph.node_count();
        let tree = netgraph::spanning::build_spanning_tree(
            &graph,
            rng.index(n),
            SpanningTreeKind::ShortestPath,
        );
        let instance = Instance::new(graph, tree);
        let k = 1 + rng.index(5);
        let count = 1 + rng.index(30);
        let triples: Vec<(usize, SimTime, ObjectId)> = (0..count)
            .map(|_| {
                (
                    rng.index(n),
                    SimTime::from_subticks(rng.uniform_u64(0, 20) * desim::SUBTICKS_PER_UNIT / 2),
                    ObjectId(rng.index(k) as u32),
                )
            })
            .collect();
        let schedule = RequestSchedule::from_object_pairs(&triples);
        let sync = RunConfig::analysis(ProtocolKind::Arrow);
        let config = if case % 2 == 0 {
            sync
        } else {
            sync.asynchronous(case)
        };
        let outcome = run_schedule(&instance, &schedule, &config);
        // One order per touched object, each a permutation of the object's requests.
        assert_eq!(
            outcome.object_count(),
            schedule.objects().len(),
            "case {case}"
        );
        let mut total = 0;
        for (obj, order) in &outcome.orders {
            let sub = outcome.schedule.for_object(*obj);
            assert_eq!(order.len(), sub.len(), "case {case} object {obj}");
            let mut in_order: Vec<RequestId> = order.order().to_vec();
            in_order.sort();
            let mut in_sub: Vec<RequestId> = sub.requests().iter().map(|r| r.id).collect();
            in_sub.sort();
            assert_eq!(in_order, in_sub, "case {case} object {obj}");
            total += order.len();
        }
        assert_eq!(total, schedule.len(), "case {case}");
    }
}

/// A single-object run through the multi-object machinery is byte-identical to the
/// legacy single-object contract: `outcome.order` is the one order, and `orders`
/// holds exactly the default object.
#[test]
fn single_object_runs_keep_the_legacy_shape() {
    let instance = Instance::complete_uniform(16, SpanningTreeKind::BalancedBinary);
    let schedule = workload::uniform_random(16, 100, 10.0, 3);
    let outcome = run_schedule(
        &instance,
        &schedule,
        &RunConfig::analysis(ProtocolKind::Arrow),
    );
    assert_eq!(outcome.object_count(), 1);
    assert_eq!(outcome.orders[0].0, ObjectId::DEFAULT);
    assert_eq!(outcome.order.order(), outcome.orders[0].1.order());
    assert_eq!(outcome.order.len(), 100);
}
