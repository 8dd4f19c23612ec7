//! Socket-tier integration tests: the arrow directory over real loopback TCP.
//!
//! The headline scenario is the ISSUE's acceptance case: a K = 4-object workload on
//! 32 nodes runs over real sockets and every per-object queuing order validates —
//! structurally (the same `QueuingOrder` contract the simulator harness enforces)
//! and against `queuing-analysis` (each order's tree path cost must dominate the
//! certified MST lower bound for that object's request set).

use arrow_core::prelude::*;
use arrow_net::{NetConfig, NetRuntime};
use desim::SimRng;
use netgraph::{generators, RootedTree};
use queuing_analysis::cost::RequestSet;
use queuing_analysis::tsp_bounds::mst_weight;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tree(n: usize) -> RootedTree {
    RootedTree::from_tree_graph(&generators::balanced_binary_tree(n), 0)
}

/// Tree edges whose endpoints live on different reactor shards under the
/// runtime's `v % shards` placement. Only these are ever dialed: a frame
/// between two nodes of one shard is delivered in memory, so a co-sharded
/// edge has no socket at all.
fn cross_shard_tree_edges(t: &RootedTree, cfg: &NetConfig) -> u64 {
    let shards = cfg.effective_shards(t.node_count());
    (0..t.node_count())
        .filter(|&v| t.parent(v).is_some_and(|p| p % shards != v % shards))
        .count() as u64
}

/// Drive `workers_per_object` worker threads per object (at seeded-random nodes),
/// each performing `acquires` acquire/release rounds, then shut down and return the
/// report.
fn drive(
    rt: NetRuntime,
    objects: usize,
    workers_per_object: usize,
    acquires: usize,
    seed: u64,
) -> arrow_net::NetReport {
    let n = rt.node_count();
    let rt = Arc::new(rt);
    let mut rng = SimRng::new(seed);
    let mut joins = Vec::new();
    for obj in 0..objects {
        for _ in 0..workers_per_object {
            let node = rng.index(n);
            let h = rt.handle(node);
            joins.push(std::thread::spawn(move || {
                for _ in 0..acquires {
                    let req = h.acquire_object(ObjectId(obj as u32));
                    std::thread::yield_now();
                    h.release_object(ObjectId(obj as u32), req);
                }
            }));
        }
    }
    for j in joins {
        j.join().unwrap();
    }
    Arc::try_unwrap(rt).ok().unwrap().shutdown()
}

/// The acceptance scenario: K = 4 objects on 32 nodes over real loopback TCP.
/// Every per-object order must (a) validate as a queuing order over exactly that
/// object's requests and (b) satisfy the queuing-analysis spatial lower bound: the
/// order's tree path cost (sum of tree distances between consecutive requests,
/// starting at the root — arrow's cost measure `c_A`) is at least the tree-distance
/// MST weight of the object's request set, since any root-anchored visiting path
/// dominates an MST.
#[test]
fn k4_on_32_nodes_over_loopback_validates_via_queuing_analysis() {
    let n = 32;
    let k = 4;
    let t = tree(n);
    let rt = NetRuntime::spawn_multi(&t, k, NetConfig::instant());
    let report = drive(rt, k, 3, 5, 0xACCE);

    let schedule = report.schedule();
    assert_eq!(schedule.len(), k * 3 * 5, "every acquire was journaled");
    assert_eq!(report.stats().acquisitions as usize, schedule.len());
    assert_eq!(schedule.objects().len(), k, "all objects saw traffic");

    let orders = report
        .validated_orders()
        .expect("socket run produced an invalid queuing order");
    assert_eq!(orders.len(), k);

    let mut covered = 0;
    for (obj, order) in &orders {
        let sub = schedule.for_object(*obj);
        assert_eq!(order.len(), sub.len(), "object {obj}");
        for &id in order.order() {
            assert_eq!(schedule.get(id).unwrap().obj, *obj);
        }
        covered += order.len();

        // queuing-analysis cross-check.
        let rs = RequestSet::new(&sub, &t);
        let perm: Vec<usize> = order
            .order()
            .iter()
            .map(|&id| rs.index_of(id).expect("order id is in the sub-schedule"))
            .collect();
        let path = rs.path_cost(&perm, RequestSet::cost_arrow);
        let mst = mst_weight(&rs, RequestSet::cost_arrow);
        assert!(
            path >= mst - 1e-9,
            "object {obj}: socket order's tree path cost {path} undercuts the MST bound {mst}"
        );
    }
    assert_eq!(covered, schedule.len(), "orders partition the requests");
}

/// Sequential acquires (one in flight at a time) must be queued in issue order —
/// the same contract the simulator's centralized/sequential tests rely on.
#[test]
fn sequential_socket_acquires_queue_in_issue_order() {
    let rt = NetRuntime::spawn(&tree(15), NetConfig::instant());
    let sequence = [14usize, 3, 9, 0, 7];
    for &v in &sequence {
        let h = rt.handle(v);
        let req = h.acquire();
        h.release(req);
    }
    let report = rt.shutdown();
    let orders = report.validated_orders().unwrap();
    let order_nodes: Vec<usize> = orders[0]
        .1
        .order()
        .iter()
        .map(|&id| report.schedule().get(id).unwrap().node)
        .collect();
    assert_eq!(order_nodes, sequence);
}

/// Synchronous latency injection: on a two-node path with unit edge weight and a
/// 60 ms unit latency, a remote acquire needs one queue() hop and one token hop, so
/// it cannot complete in under ~120 ms. The instant config on the same topology
/// stays far below that — the difference is the injected delay, not socket cost.
#[test]
fn synchronous_latency_injection_delays_remote_acquires() {
    let t = RootedTree::from_tree_graph(&generators::path(2), 0);

    let unit = Duration::from_millis(60);
    let rt = NetRuntime::spawn(&t, NetConfig::synchronous(unit));
    let h = rt.handle(1);
    let start = Instant::now();
    let req = h.acquire();
    let delayed = start.elapsed();
    h.release(req);
    rt.shutdown();
    assert!(
        delayed >= Duration::from_millis(110),
        "two injected 60 ms hops finished in {delayed:?}"
    );

    let rt = NetRuntime::spawn(&t, NetConfig::instant());
    let h = rt.handle(1);
    let start = Instant::now();
    let req = h.acquire();
    let instant = start.elapsed();
    h.release(req);
    rt.shutdown();
    assert!(
        instant < Duration::from_millis(110),
        "undelayed loopback acquire took {instant:?}"
    );
}

/// The asynchronous model derived from a simulator RunConfig honors the async
/// floor: with `lo_factor = 0.9` every hop pays at least 90% of the link weight, so
/// a two-hop acquire pays at least ~2 × 0.9 × unit.
#[test]
fn async_floor_from_run_config_bounds_injected_latency_below() {
    let t = RootedTree::from_tree_graph(&generators::path(2), 0);
    let run = RunConfig::analysis(ProtocolKind::Arrow)
        .asynchronous(7)
        .with_async_floor(0.9);
    let unit = Duration::from_millis(60);
    let cfg = NetConfig::from_run_config(&run, unit);
    assert_eq!(cfg.jitter, Some((0.9, 7)));

    let rt = NetRuntime::spawn(&t, cfg);
    let h = rt.handle(1);
    let start = Instant::now();
    let req = h.acquire();
    let elapsed = start.elapsed();
    h.release(req);
    rt.shutdown();
    assert!(
        elapsed >= Duration::from_millis(100),
        "two hops floored at 54 ms each finished in {elapsed:?}"
    );
}

/// The mesh materializes the cross-shard tree edges at bootstrap and only grows by
/// the direct token channels traffic actually needs — never the full n² mesh.
#[test]
fn mesh_stays_sparse() {
    let n = 32;
    let t = tree(n);
    let cfg = NetConfig::instant();
    let tree_links = cross_shard_tree_edges(&t, &cfg);
    let rt = NetRuntime::spawn_multi(&t, 2, cfg);
    let report = drive(rt, 2, 2, 4, 0x5BA2);
    let dialed = report.stats().connections_dialed;
    // The cross-shard tree edges, plus at most one direct channel per (granter,
    // origin) pair that actually exchanged a token; with 4 requester nodes that is
    // far below n².
    assert!(
        dialed >= tree_links,
        "only {dialed} connections dialed: every one of the {tree_links} tree edges \
         that join two shards must materialize at bootstrap (the other {} join two \
         nodes of one shard, are delivered in memory and never get a socket)",
        (n - 1) as u64 - tree_links
    );
    assert!(
        dialed < (n * n / 2) as u64,
        "mesh degenerated into all-pairs: {dialed} connections"
    );
    assert_eq!(report.stats().unexpected_frames, 0);
    report.validated_orders().unwrap();
}

/// Regression for the reactor's dial-race dedupe. Siblings 1 and 2 (no direct
/// tree edge, different shards under `with_shards(2)`) each hold one object's
/// token while the other sibling's request is queued directly behind it.
/// Barrier-synchronized releases then make both nodes dial each other at the
/// same instant for the direct token handoff. Whichever round actually races,
/// the two connections must collapse onto one canonical link with *both*
/// tokens delivered — a lost frame would hang a `wait_timeout` or break the
/// queuing order. The race is probabilistic, so fresh meshes are spun up until
/// the `dial_races_collapsed` counter witnesses a collapse.
#[test]
fn simultaneous_cross_dials_collapse_onto_one_link() {
    let mut collapsed = 0u64;
    let mut rounds = 0u32;
    for _ in 0..40 {
        rounds += 1;
        let cfg = NetConfig::instant().with_shards(2);
        let rt = NetRuntime::spawn_multi(&tree(3), 2, cfg);
        let h1 = rt.handle(1);
        let h2 = rt.handle(2);
        let held1 = h1.acquire_object(ObjectId(0));
        let held2 = h2.acquire_object(ObjectId(1));
        // Queue the crossing requests behind the held tokens so that each
        // release immediately sends a token across the missing 1↔2 link.
        let p2 = h2.start_acquire_object(ObjectId(0));
        let p1 = h1.start_acquire_object(ObjectId(1));
        std::thread::sleep(Duration::from_millis(20));
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let releasers = [
            (rt.handle(1), ObjectId(0), held1),
            (rt.handle(2), ObjectId(1), held2),
        ]
        .map(|(h, obj, req)| {
            let b = Arc::clone(&barrier);
            std::thread::spawn(move || {
                b.wait();
                h.release_object(obj, req);
            })
        });
        for r in releasers {
            r.join().unwrap();
        }
        let got2 = p2
            .wait_timeout(Duration::from_secs(10))
            .expect("token 1→2 must survive the dial race");
        let got1 = p1
            .wait_timeout(Duration::from_secs(10))
            .expect("token 2→1 must survive the dial race");
        h2.release_object(ObjectId(0), got2);
        h1.release_object(ObjectId(1), got1);
        let report = rt.shutdown();
        assert_eq!(report.stats().unexpected_frames, 0);
        report
            .validated_orders()
            .expect("orders stay valid through the dial race");
        collapsed += report.stats().dial_races_collapsed;
        if collapsed >= 1 {
            break;
        }
    }
    assert!(
        collapsed >= 1,
        "{rounds} rounds of simultaneous cross-releases never collapsed a dial race"
    );
}

/// A fault sever racing in-flight token writes: the 0↔1 tree edge is dropped
/// and restored in rapid cycles while workers on both leaves keep the tokens
/// moving through that edge. Token frames die mid-write when the sever lands;
/// the epoch bumps must regenerate them, every surviving round must still be
/// granted, and the journaled orders must satisfy the per-epoch churn
/// contract.
#[test]
fn link_sever_racing_in_flight_tokens_recovers_per_epoch_orders() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let cycles = 6u64;
    let final_epoch = 2 * cycles;
    let cfg = NetConfig::instant()
        .with_dial_retries(1)
        .with_fault_tolerance();
    let rt = NetRuntime::spawn_multi(&tree(3), 2, cfg);
    let fh = rt.fault_handle();
    let chaos_done = Arc::new(AtomicBool::new(false));
    let chaos = {
        let fh = fh.clone();
        let done = Arc::clone(&chaos_done);
        std::thread::spawn(move || {
            for c in 0..cycles {
                fh.apply(&FaultAction::DropLink(0, 1), 2 * c + 1);
                std::thread::sleep(Duration::from_millis(15));
                fh.apply(&FaultAction::RestoreLink(0, 1), 2 * c + 2);
                std::thread::sleep(Duration::from_millis(15));
            }
            done.store(true, Ordering::SeqCst);
        })
    };
    let mut joins = Vec::new();
    for v in [1usize, 2] {
        let h = rt.handle(v);
        let fh = fh.clone();
        let done = Arc::clone(&chaos_done);
        joins.push(std::thread::spawn(move || {
            for round in 0..4u32 {
                let obj = ObjectId((v as u32 + round) % 2);
                let mut attempts = 0;
                loop {
                    attempts += 1;
                    assert!(attempts <= 200, "node {v} round {round} never granted");
                    match h.try_acquire_object_timeout(obj, Duration::from_millis(500)) {
                        Ok(req) => {
                            h.release_object(obj, req);
                            break;
                        }
                        Err(_) => {
                            // A grant lost to a sever: once the chaos loop is
                            // over, re-broadcasting the final epoch is
                            // idempotent and heals any straggler.
                            if done.load(Ordering::SeqCst) {
                                fh.broadcast_epoch(final_epoch);
                            }
                            std::thread::sleep(Duration::from_millis(10));
                        }
                    }
                }
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    chaos.join().unwrap();
    let report = rt.shutdown();
    report
        .validate_churn(final_epoch)
        .expect("per-epoch order contract while severs race token writes");
    assert!(
        report.stats().acquisitions >= 8,
        "every worker round was eventually granted"
    );
}

/// The tentpole scaling claim: one process hosts ≥1024 nodes because thread
/// count is O(shards), not O(nodes). A 1025-node mesh materializes its
/// cross-shard tree links (the co-sharded ones need no socket, which halves
/// the fd cost at two shards) and serves a deep-leaf acquire while the whole
/// process stays under a hundred threads — the old thread-per-connection tier
/// would need thousands.
#[test]
fn process_hosts_1024_nodes_with_o_shards_threads() {
    fn thread_count() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
        status
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .expect("Threads: line")
            .trim()
            .parse()
            .expect("thread count")
    }

    let n = 1025;
    let t = tree(n);
    let cfg = NetConfig::instant();
    let tree_links = cross_shard_tree_edges(&t, &cfg);
    let rt = NetRuntime::spawn(&t, cfg);
    let threads = thread_count();
    assert!(
        threads < 100,
        "hosting {n} nodes takes {threads} threads; the reactor pool must stay O(shards)"
    );

    // The mesh is real: every tree edge that joins two shards was dialed, and
    // a deep leaf's acquire walks the full path to the root and back.
    let h = rt.handle(n - 1);
    let req = h.acquire();
    h.release(req);
    let report = rt.shutdown();
    assert!(
        report.stats().connections_dialed >= tree_links,
        "all {tree_links} cross-shard tree edges must materialize, saw {}",
        report.stats().connections_dialed
    );
    assert_eq!(report.stats().unexpected_frames, 0);
    report
        .validated_orders()
        .expect("1025-node order validates");
}

// ---- the two delivery paths ------------------------------------------------
//
// A frame between two nodes of one reactor shard is delivered in memory; every
// other frame crosses a loopback socket. `with_shards(1)` makes every pair
// co-sharded, `with_shards(n)` none, and anything in between mixes the two. The
// tests below hold both paths to the same contracts.

/// One seeded closed-loop drive at three shard counts: all-memory, mixed, and
/// all-wire. The orders validate in all three; the counters say which path the
/// frames took.
#[test]
fn orders_validate_on_the_memory_path_the_wire_path_and_their_mix() {
    let n = 15;
    let k = 2;
    let run = |shards: usize| {
        let rt = NetRuntime::spawn_multi(&tree(n), k, NetConfig::instant().with_shards(shards));
        let report = drive(rt, k, 3, 6, 0x2BA7);
        assert_eq!(report.stats().acquisitions, (k * 3 * 6) as u64);
        assert_eq!(report.stats().unexpected_frames, 0);
        let orders = report
            .validated_orders()
            .unwrap_or_else(|e| panic!("{shards} shard(s): invalid queuing order: {e:?}"));
        let total: usize = orders.iter().map(|(_, o)| o.len()).sum();
        assert_eq!(total, report.schedule().len(), "{shards} shard(s)");
        report.stats()
    };

    let memory = run(1);
    assert_eq!(
        (memory.connections_dialed, memory.connections_accepted),
        (0, 0),
        "one shard owns every node: no pair may ever hold a socket"
    );
    assert_eq!((memory.socket_writes, memory.bytes_sent), (0, 0));
    assert_eq!(
        memory.local_frames,
        memory.queue_frames + memory.token_frames,
        "every protocol frame was a memory move"
    );

    let mixed = run(2);
    assert!(mixed.local_frames > 0, "half the tree edges are co-sharded");
    assert!(mixed.socket_writes > 0, "the other half cross the wire");

    let wire = run(n);
    assert_eq!(
        wire.local_frames, 0,
        "one node per shard: every hop pays the wire"
    );
    assert!(wire.connections_dialed >= (n - 1) as u64);
}

/// Fault injection sits upstream of the transport choice: a severed link
/// between two nodes of one shard swallows the frame (and counts it) exactly
/// like a severed TCP link, and restoring it plus an epoch bump heals.
#[test]
fn severed_co_sharded_link_drops_the_frame_and_an_epoch_bump_heals() {
    let cfg = NetConfig::instant().with_fault_tolerance().with_shards(1);
    let rt = NetRuntime::spawn(&tree(3), cfg);
    let fh = rt.fault_handle();
    fh.apply(&FaultAction::DropLink(0, 1), 1);
    let pending = rt.handle(1).start_acquire_object(ObjectId::DEFAULT);
    // The queue() frame 1→0 must be swallowed (and counted) at the sender.
    let deadline = Instant::now() + Duration::from_secs(10);
    while rt.stats().snapshot().frames_dropped == 0 {
        assert!(
            Instant::now() < deadline,
            "the severed in-memory link never swallowed the queue() frame"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    fh.apply(&FaultAction::RestoreLink(0, 1), 2);
    let req = pending
        .wait_timeout(Duration::from_secs(10))
        .expect("the re-issued request must complete after the link heals");
    rt.handle(1).release_object(ObjectId::DEFAULT, req);
    let report = rt.shutdown();
    assert_eq!(report.stats().socket_writes, 0, "no frame left the shard");
    report
        .validate_churn(2)
        .expect("per-epoch order contract under churn");
}

/// Crashing a token holder whose every peer is co-sharded: no socket is cut,
/// but the token still dies with the node's state, the epoch bump regenerates
/// it at the root, and the survivors are granted.
#[test]
fn crashing_a_co_sharded_token_holder_regenerates_the_token() {
    let cfg = NetConfig::instant()
        .with_dial_retries(1)
        .with_fault_tolerance()
        .with_shards(1);
    let rt = NetRuntime::spawn(&tree(7), cfg);
    let fh = rt.fault_handle();
    let req = rt.handle(5).try_acquire().expect("healthy mesh grants");
    assert!(!req.is_root());
    fh.apply(&FaultAction::CrashNode(5), 1);
    let got = rt
        .handle(6)
        .try_acquire_object_timeout(ObjectId::DEFAULT, Duration::from_secs(10))
        .expect("regenerated token grants the surviving node");
    rt.handle(6).release_object(ObjectId::DEFAULT, got);
    fh.apply(&FaultAction::RestartNode(5), 2);
    // The restarted node rejoins without dialing anyone and is served again.
    let again = rt
        .handle(5)
        .try_acquire_object_timeout(ObjectId::DEFAULT, Duration::from_secs(10))
        .expect("the restarted node rejoins the directory");
    rt.handle(5).release_object(ObjectId::DEFAULT, again);
    let report = rt.shutdown();
    assert!(
        report.token_regenerations() >= 1,
        "the post-crash grant chains from the regenerated root token"
    );
    report
        .validate_churn(2)
        .expect("per-epoch order contract under churn");
    assert!(report.failures().is_empty(), "churn is not a mesh failure");
    assert_eq!(report.stats().connections_dialed, 0);
}

/// Injected latency also sits upstream of the transport choice: two hops
/// between co-sharded nodes under a 60 ms synchronous unit latency still take
/// two timer-wheel delays, although no byte touches a socket.
#[test]
fn co_sharded_hops_still_pay_injected_latency() {
    let t = RootedTree::from_tree_graph(&generators::path(2), 0);
    let cfg = NetConfig::synchronous(Duration::from_millis(60)).with_shards(1);
    let rt = NetRuntime::spawn(&t, cfg);
    let h = rt.handle(1);
    let start = Instant::now();
    let req = h.acquire();
    let delayed = start.elapsed();
    h.release(req);
    let report = rt.shutdown();
    assert!(
        delayed >= Duration::from_millis(100),
        "two injected 60 ms hops finished in {delayed:?}"
    );
    assert_eq!(report.stats().local_frames, 2, "one queue(), one token");
    assert_eq!(report.stats().socket_writes, 0);
}

/// Per-link FIFO on the memory path: two objects' frames interleave on the one
/// directed pair 1→0 (and their tokens on 0→1). Issued back to back as object
/// 0 then object 1, the grants must come back in that order every round —
/// whichever of the two nodes currently holds the tokens.
#[test]
fn k2_interleaving_on_one_co_sharded_pair_keeps_send_order() {
    let t = RootedTree::from_tree_graph(&generators::path(2), 0);
    let rt = NetRuntime::spawn_multi(&t, 2, NetConfig::instant().with_shards(1));
    let (tx, rx) = std::sync::mpsc::channel();
    for round in 0..40usize {
        let h = rt.handle(1 - round % 2);
        h.start_acquire_object_routed(ObjectId(0), &tx);
        h.start_acquire_object_routed(ObjectId(1), &tx);
        let first = rx.recv_timeout(Duration::from_secs(10)).expect("grant");
        let second = rx.recv_timeout(Duration::from_secs(10)).expect("grant");
        assert_eq!(
            (first.obj, second.obj),
            (ObjectId(0), ObjectId(1)),
            "round {round}: frames on one directed pair overtook each other"
        );
        for g in [first, second] {
            h.release_object(g.obj, g.result.expect("healthy mesh grants"));
        }
    }
    let report = rt.shutdown();
    assert_eq!(report.stats().socket_writes, 0);
    assert_eq!(report.stats().unexpected_frames, 0);
    report
        .validated_orders()
        .expect("both objects' orders validate");
}
