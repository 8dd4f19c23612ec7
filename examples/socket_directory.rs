//! Demo of the socket tier: a multi-object arrow directory whose peers run on a
//! pool of epoll reactor shards.
//!
//! ```text
//! cargo run --release --example socket_directory
//! ```
//!
//! Sixteen nodes on a balanced binary spanning tree serve three mobile objects.
//! Worker threads at random nodes acquire and release each object's exclusion
//! token; `queue()` frames travel tree edges and token grants jump straight to
//! the requester. One runtime hosts all sixteen peers, so every frame is a memory
//! move between (or within) its reactor shards and the byte counter below reads
//! 0: the wire is for peers in other processes (`NetRuntime::spawn_daemon`, the
//! `arrowd` daemon). At shutdown the run's per-object queuing orders are
//! validated with the same machinery the simulator harness uses.

use arrow_core::prelude::ObjectId;
use arrow_net::{NetConfig, NetRuntime};
use desim::SimRng;
use netgraph::{generators, RootedTree};
use std::sync::Arc;

fn main() {
    let n = 16;
    let objects = 3;
    let workers_per_object = 2;
    let acquires_per_worker = 5;

    let tree = RootedTree::from_tree_graph(&generators::balanced_binary_tree(n), 0);
    println!("spawning {n} peers (balanced binary tree, {objects} objects)...");
    let rt = Arc::new(NetRuntime::spawn_multi(
        &tree,
        objects,
        NetConfig::instant(),
    ));

    let mut rng = SimRng::new(7);
    let mut joins = Vec::new();
    for obj in 0..objects {
        for w in 0..workers_per_object {
            let node = rng.index(n);
            let handle = rt.handle(node);
            joins.push(std::thread::spawn(move || {
                for round in 0..acquires_per_worker {
                    let req = handle.acquire_object(ObjectId(obj as u32));
                    if round == 0 {
                        println!("  object o{obj} worker {w}: node {node} granted {req}");
                    }
                    handle.release_object(ObjectId(obj as u32), req);
                }
            }));
        }
    }
    for j in joins {
        j.join().unwrap();
    }

    let rt = Arc::try_unwrap(rt).ok().expect("all handles dropped");
    let report = rt.shutdown();
    let stats = report.stats();
    println!("\nshutdown complete:");
    println!("  acquisitions:      {}", stats.acquisitions);
    println!("  queue() frames:    {}", stats.queue_frames);
    println!("  token frames:      {}", stats.token_frames);
    println!(
        "  connections:       {} dialed / {} accepted",
        stats.connections_dialed, stats.connections_accepted
    );
    println!(
        "  bytes on the wire: {} ({} frames; {} in memory)",
        stats.bytes_sent, stats.frames_sent, stats.local_frames
    );

    let orders = report
        .validated_orders()
        .expect("socket run produced an invalid queuing order");
    println!("\nper-object queuing orders (all validated):");
    for (obj, order) in &orders {
        println!(
            "  {obj}: {} requests queued in a valid total order",
            order.len()
        );
    }
}
