//! Distributed mutual exclusion — the application the arrow protocol was invented for
//! (Raymond 1989), running on the reactor runtime: every node hosted in this process,
//! frames moved in memory as FIFO links, one client thread per node, and the
//! exclusion token passed down the distributed queue from each request to its
//! successor.
//!
//! ```text
//! cargo run --release -p arrow-bench --example mutual_exclusion
//! ```

use arrow_net::{CriticalSectionLog, DistributedLock, NetConfig, NetRuntime};
use netgraph::{generators, RootedTree};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn main() {
    let nodes = 16;
    let rounds_per_node = 25;

    // Spanning tree: balanced binary tree rooted at node 0 (which initially holds the
    // token).
    let tree = RootedTree::from_tree_graph(&generators::balanced_binary_tree(nodes), 0);
    let runtime = Arc::new(NetRuntime::spawn(&tree, NetConfig::instant()));
    let log = CriticalSectionLog::new();
    let shared_counter = Arc::new(AtomicU64::new(0));

    println!("{nodes} nodes, each entering the critical section {rounds_per_node} times");

    let mut workers = Vec::new();
    for v in 0..nodes {
        let lock = DistributedLock::new(runtime.handle(v), log.clone());
        let counter = Arc::clone(&shared_counter);
        workers.push(std::thread::spawn(move || {
            for _ in 0..rounds_per_node {
                lock.with(|| {
                    // The "protected resource": a counter only safe to update under
                    // mutual exclusion (load + store rather than fetch_add, so any
                    // overlap would lose updates).
                    let old = counter.load(Ordering::SeqCst);
                    std::thread::yield_now();
                    counter.store(old + 1, Ordering::SeqCst);
                });
            }
        }));
    }
    for w in workers {
        w.join().expect("worker panicked");
    }

    let expected = (nodes * rounds_per_node) as u64;
    let observed = shared_counter.load(Ordering::SeqCst);
    let stats = runtime.stats().snapshot();
    let (queue_msgs, token_msgs, acquisitions) =
        (stats.queue_frames, stats.token_frames, stats.acquisitions);

    println!("critical sections completed: {}", log.len());
    println!("shared counter: {observed} (expected {expected})");
    println!(
        "overlapping critical sections detected: {}",
        if log.find_overlap().is_some() {
            "YES (bug!)"
        } else {
            "none"
        }
    );
    println!("arrow queue() messages: {queue_msgs}");
    println!("token transfer messages: {token_msgs}");
    println!(
        "average queue() messages per acquisition: {:.2}",
        queue_msgs as f64 / acquisitions as f64
    );

    assert_eq!(
        observed, expected,
        "lost updates — mutual exclusion violated"
    );
    assert!(
        log.find_overlap().is_none(),
        "overlapping critical sections"
    );

    let report = Arc::try_unwrap(runtime)
        .ok()
        .expect("all handles dropped")
        .shutdown();
    report
        .validated_orders()
        .expect("the journaled queue is one valid order");
    println!("done.");
}
