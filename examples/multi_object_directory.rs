//! A distributed directory serving K mobile objects over one spanning tree.
//!
//! One arrow tree, many objects (the Demmer–Herlihy directory setting): every object
//! has its own independent link pointers and its own queue, so requests for
//! different objects never contend with each other — they only share the physical
//! links. Object popularity is Zipf-skewed, the realistic shape for a directory
//! where a few hot documents absorb most of the traffic.
//!
//! The example runs the same K-object scenario twice:
//! 1. on the deterministic simulator, printing each object's validated queue, and
//! 2. on the live reactor runtime (one client thread per node), with per-object
//!    tokens held concurrently to show the sharded queues really are independent.
//!
//! ```text
//! cargo run --release -p arrow-bench --example multi_object_directory
//! ```

use arrow_core::prelude::*;
use arrow_net::{NetConfig, NetRuntime};
use netgraph::{generators, RootedTree};
use std::sync::Arc;

fn main() {
    let n = 16;
    let k = 4;

    // --- Part 1: simulator ---------------------------------------------------
    let instance = Instance::complete_uniform(n, SpanningTreeKind::BalancedBinary);
    let schedule = workload::zipf_objects(n, k, 1.1, 40, 10.0, 7);
    println!(
        "directory: {n}-node complete graph, balanced binary tree, {k} objects, {} requests",
        schedule.len()
    );
    let outcome = run(
        &instance,
        &Workload::OpenLoop(schedule),
        &RunConfig::analysis(ProtocolKind::Arrow),
    );
    println!(
        "simulated: {} per-object queues validated, total latency {:.2} units, {} queue() hops\n",
        outcome.object_count(),
        outcome.total_latency,
        outcome.protocol_messages
    );
    for (obj, order) in &outcome.orders {
        let owners: Vec<String> = order
            .order()
            .iter()
            .map(|&id| format!("n{}", outcome.schedule.get(id).unwrap().node))
            .collect();
        println!(
            "  {obj}: {:>2} requests, owner chain {}",
            order.len(),
            owners.join(" -> ")
        );
    }

    // --- Part 2: live runtime ------------------------------------------------
    let tree = RootedTree::from_tree_graph(&generators::balanced_binary_tree(n), 0);
    let rt = Arc::new(NetRuntime::spawn_multi(&tree, k, NetConfig::instant()));
    let mut joins = Vec::new();
    for v in 0..n {
        let h = rt.handle(v);
        joins.push(std::thread::spawn(move || {
            // Each node works on "its" object (nodes hash onto objects) a few times.
            let obj = ObjectId((v % 4) as u32);
            for _ in 0..5 {
                let req = h.acquire_object(obj);
                // ... exclusive access to the object would happen here ...
                h.release_object(obj, req);
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    let report = Arc::try_unwrap(rt).ok().unwrap().shutdown();
    let stats = report.stats();
    let orders = report
        .validated_orders()
        .expect("every object's queue is valid");
    println!(
        "\nlive runtime: {} acquisitions across {} validated object queues \
         ({} queue() messages, {} token transfers)",
        stats.acquisitions,
        orders.len(),
        stats.queue_frames,
        stats.token_frames
    );
    println!("each object's token moved through its own queue — no cross-object waiting.");
}
