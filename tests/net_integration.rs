//! Socket-tier integration tests: the arrow directory on the reactor shards of
//! one runtime, and over real loopback TCP between daemon-mode runtimes.
//!
//! The headline scenario: a K = 4-object workload on 32 nodes runs on the
//! shards and every per-object queuing order validates —
//! structurally (the same `QueuingOrder` contract the simulator harness enforces)
//! and against `queuing-analysis` (each order's tree path cost must dominate the
//! certified MST lower bound for that object's request set).
//!
//! A runtime that hosts every node never opens a socket; the wire is exercised
//! by [`Daemons`], one `spawn_daemon` runtime per node in this process, the
//! shape an `arrowd` cluster has.

use arrow_core::order::QueuingOrder;
use arrow_core::prelude::*;
use arrow_net::{NetConfig, NetHandle, NetReport, NetRuntime, NetStatsSnapshot};
use desim::SimRng;
use netgraph::{generators, NodeId, RootedTree};
use queuing_analysis::cost::RequestSet;
use queuing_analysis::tsp_bounds::mst_weight;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tree(n: usize) -> RootedTree {
    RootedTree::from_tree_graph(&generators::balanced_binary_tree(n), 0)
}

/// One daemon-mode runtime per tree node, all sharing one address table: every
/// node lives in its own runtime, so every hop crosses loopback TCP.
struct Daemons(Vec<NetRuntime>);

impl Daemons {
    fn spawn(t: &RootedTree, objects: usize, cfg: NetConfig) -> Daemons {
        let listeners: Vec<TcpListener> = (0..t.node_count())
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        let daemons = listeners
            .into_iter()
            .enumerate()
            .map(|(v, l)| NetRuntime::spawn_daemon(t, objects, cfg, v, l, addrs.clone(), 0));
        Daemons(daemons.collect())
    }

    fn handle(&self, v: NodeId) -> NetHandle {
        self.0[v].handle(v)
    }

    /// Shut every daemon down, returning their reports and the per-object
    /// orders their merged journals validate to.
    fn shutdown(self) -> (Vec<NetReport>, Vec<(ObjectId, QueuingOrder)>) {
        let reports: Vec<NetReport> = self.0.into_iter().map(NetRuntime::shutdown).collect();
        let mut issued: Vec<Request> = Vec::new();
        let mut records = Vec::new();
        for r in &reports {
            issued.extend_from_slice(r.schedule().requests());
            records.extend_from_slice(r.records());
        }
        issued.sort_by_key(|r| (r.time, r.id));
        let schedule = RequestSchedule::from_requests(issued);
        let orders = arrow_core::order::per_object_orders(&records, &schedule)
            .unwrap_or_else(|(obj, e)| panic!("daemon journals: invalid order of {obj}: {e:?}"));
        (reports, orders)
    }
}

/// One counter summed over several runtimes' reports.
fn total(reports: &[NetReport], counter: impl Fn(NetStatsSnapshot) -> u64) -> u64 {
    reports.iter().map(|r| counter(r.stats())).sum()
}

/// Drive `workers_per_object` worker threads per object (at seeded-random nodes
/// of an `n`-node directory reached through `handle`), each performing
/// `acquires` acquire/release rounds; returns once every worker is done.
fn drive(
    handle: impl Fn(NodeId) -> NetHandle,
    n: usize,
    objects: usize,
    workers_per_object: usize,
    acquires: usize,
    seed: u64,
) {
    let mut rng = SimRng::new(seed);
    let mut joins = Vec::new();
    for obj in 0..objects {
        for _ in 0..workers_per_object {
            let h = handle(rng.index(n));
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
}

/// [`drive`] a fresh runtime on `t`, then shut it down.
fn drive_runtime(
    t: &RootedTree,
    cfg: NetConfig,
    objects: usize,
    workers_per_object: usize,
    acquires: usize,
    seed: u64,
) -> NetReport {
    let rt = NetRuntime::spawn_multi(t, objects, cfg);
    let n = t.node_count();
    drive(
        |v| rt.handle(v),
        n,
        objects,
        workers_per_object,
        acquires,
        seed,
    );
    rt.shutdown()
}

/// The acceptance scenario: K = 4 objects on 32 nodes across the reactor shards.
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
    let report = drive_runtime(&t, NetConfig::instant(), k, 3, 5, 0xACCE);

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

/// Between daemons the mesh materializes every tree edge at bootstrap and only
/// grows by the direct token channels traffic actually needs — never the full
/// n² mesh.
#[test]
fn mesh_stays_sparse() {
    let n = 32;
    let t = tree(n);
    let daemons = Daemons::spawn(&t, 2, NetConfig::instant());
    drive(|v| daemons.handle(v), n, 2, 2, 4, 0x5BA2);
    let (reports, _) = daemons.shutdown();
    let dialed = total(&reports, |s| s.connections_dialed);
    // The tree edges, plus at most one direct channel per (granter, origin)
    // pair that actually exchanged a token; with 4 requester nodes that is far
    // below n².
    assert!(
        dialed >= (n - 1) as u64,
        "only {dialed} connections dialed: all {} tree edges must materialize at bootstrap",
        n - 1
    );
    assert!(
        dialed < (n * n / 2) as u64,
        "mesh degenerated into all-pairs: {dialed} connections"
    );
    assert_eq!(total(&reports, |s| s.unexpected_frames), 0);
}

/// Regression for the reactor's dial-race dedupe. Siblings 1 and 2 (no direct
/// tree edge, each in its own daemon) each hold one object's
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
        let daemons = Daemons::spawn(&tree(3), 2, NetConfig::instant());
        let h1 = daemons.handle(1);
        let h2 = daemons.handle(2);
        let held1 = h1.acquire_object(ObjectId(0));
        let held2 = h2.acquire_object(ObjectId(1));
        // Queue the crossing requests behind the held tokens so that each
        // release immediately sends a token across the missing 1↔2 link.
        let p2 = h2.start_acquire_object(ObjectId(0));
        let p1 = h1.start_acquire_object(ObjectId(1));
        std::thread::sleep(Duration::from_millis(20));
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let releasers = [
            (daemons.handle(1), ObjectId(0), held1),
            (daemons.handle(2), ObjectId(1), held2),
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
        // Shutting down validates the merged orders through the dial race.
        let (reports, _) = daemons.shutdown();
        assert_eq!(total(&reports, |s| s.unexpected_frames), 0);
        collapsed += total(&reports, |s| s.dial_races_collapsed);
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
/// moving through that edge. Token frames die at the sender while it is severed;
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

/// The scaling claim: one process hosts ≥1024 nodes on O(shards) threads and
/// O(shards) file descriptors — an epoll instance and an eventfd per shard,
/// no listener and no connection, since every node is hosted in this process
/// — while a deep-leaf acquire walks the full path to the root and back. The
/// old thread-per-connection tier needed thousands of threads, and the
/// socket-per-edge mesh over a thousand descriptors.
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
    fn fd_count() -> usize {
        std::fs::read_dir("/proc/self/fd").expect("procfs").count()
    }

    let n = 1025;
    let t = tree(n);
    let fds_before = fd_count();
    let rt = NetRuntime::spawn(&t, NetConfig::instant());
    let threads = thread_count();
    assert!(
        threads < 100,
        "hosting {n} nodes takes {threads} threads; the reactor pool must stay O(shards)"
    );

    let h = rt.handle(n - 1);
    let req = h.acquire();
    h.release(req);
    // Every shard's descriptors exist once `spawn` returns. Other tests of
    // this binary may open sockets meanwhile, hence a bound far above
    // O(shards) yet far below one descriptor per node.
    let opened = fd_count().saturating_sub(fds_before);
    assert!(
        opened < n / 2,
        "hosting {n} nodes opened {opened} descriptors; it must stay O(shards)"
    );
    let report = rt.shutdown();
    assert_eq!(report.stats().connections_dialed, 0);
    assert_eq!(report.stats().unexpected_frames, 0);
    report
        .validated_orders()
        .expect("1025-node order validates");
}

/// The default shard pool is one reactor thread per CPU the process may run
/// on — one under `taskset -c 0`, with no surplus thread to hand frames to —
/// and the thread count is exactly what `effective_shards` promises. The
/// other tests of this binary run runtimes of their own concurrently, so the
/// count is taken in a child process that runs this test alone.
#[test]
fn default_runtime_runs_one_shard_thread_per_usable_cpu() {
    const ALONE: &str = "NET_INTEGRATION_SHARD_COUNT_ALONE";
    const NAME: &str = "default_runtime_runs_one_shard_thread_per_usable_cpu";
    if std::env::var_os(ALONE).is_none() {
        let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args(["--exact", NAME, "--test-threads=1"])
            .env(ALONE, "1")
            .output()
            .expect("re-run this test alone");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "the lone run failed:\n{stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        return;
    }

    fn shard_threads() -> usize {
        std::fs::read_dir("/proc/self/task")
            .expect("procfs")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.starts_with("arrow-net-shard"))
            .count()
    }

    let n = 64;
    let cfg = NetConfig::instant();
    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let want = cfg.effective_shards(n);
    assert_eq!(want, cpus.min(n), "one shard per usable CPU");
    let rt = NetRuntime::spawn(&tree(n), cfg);
    // A shard thread names itself (`comm` keeps the first 15 bytes of the
    // name) when it first runs. Traffic does not have to schedule it: an
    // acquire that finds its shard idle runs on the caller's thread. So wait
    // for the names themselves, and count threads, not scheduling.
    let deadline = Instant::now() + Duration::from_secs(10);
    while shard_threads() < want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(shard_threads(), want);
    for v in 0..n {
        let h = rt.handle(v);
        let req = h
            .try_acquire_object_timeout(ObjectId::DEFAULT, Duration::from_secs(10))
            .expect("the default runtime grants");
        h.release(req);
    }
    assert_eq!(shard_threads(), want, "traffic spawns no thread");
    rt.shutdown()
        .validated_orders()
        .expect("the default runtime's order validates");
}

// ---- the delivery paths ----------------------------------------------------
//
// A frame between two nodes of one reactor shard moves through the shard's
// `localq`; between two shards of one runtime, through the destination shard's
// inbox; toward a node another runtime hosts, over a loopback socket.
// `with_shards(1)` uses the first path alone, more shards mix the first two,
// and `Daemons` uses only the third. The tests below hold the paths to the
// same contracts.

/// One seeded closed-loop drive three ways: in memory on one shard, in memory
/// across two shards' threads, and on the wire between daemons. The orders
/// validate in all three; the counters say which path the frames took.
#[test]
fn orders_validate_on_the_memory_path_the_wire_path_and_their_mix() {
    let n = 15;
    let k = 2;
    let t = tree(n);
    let expected = (k * 3 * 6) as u64;
    for shards in [1, 2] {
        let report = drive_runtime(
            &t,
            NetConfig::instant().with_shards(shards),
            k,
            3,
            6,
            0x2BA7,
        );
        let stats = report.stats();
        assert_eq!(stats.acquisitions, expected);
        assert_eq!(stats.unexpected_frames, 0);
        let orders = report
            .validated_orders()
            .unwrap_or_else(|e| panic!("{shards} shard(s): invalid queuing order: {e:?}"));
        let total: usize = orders.iter().map(|(_, o)| o.len()).sum();
        assert_eq!(total, report.schedule().len(), "{shards} shard(s)");
        assert!(stats.local_frames > 0, "{shards} shard(s)");
    }

    let daemons = Daemons::spawn(&t, k, NetConfig::instant());
    drive(|v| daemons.handle(v), n, k, 3, 6, 0x2BA7);
    let (reports, orders) = daemons.shutdown();
    assert_eq!(total(&reports, |s| s.acquisitions), expected);
    assert_eq!(total(&reports, |s| s.unexpected_frames), 0);
    let ordered: usize = orders.iter().map(|(_, o)| o.len()).sum();
    assert_eq!(ordered as u64, expected);
    assert_eq!(
        total(&reports, |s| s.local_frames),
        0,
        "one node per daemon: every hop pays the wire"
    );
    assert!(total(&reports, |s| s.connections_dialed) >= (n - 1) as u64);
}

/// A runtime that hosts every node opens no socket, whatever its shard count:
/// one shard, two, or one per node — every protocol frame is a socket-free
/// delivery.
#[test]
fn a_runtime_hosting_every_node_opens_no_socket_at_any_shard_count() {
    let n = 15;
    for shards in [1, 2, n] {
        let stats = drive_runtime(
            &tree(n),
            NetConfig::instant().with_shards(shards),
            2,
            2,
            4,
            0x50C,
        )
        .stats();
        assert_eq!(
            (
                stats.socket_writes,
                stats.bytes_sent,
                stats.connections_dialed
            ),
            (0, 0, 0),
            "{shards} shard(s)"
        );
        assert_eq!(
            stats.local_frames,
            stats.queue_frames + stats.token_frames,
            "{shards} shard(s): every protocol frame is a memory move"
        );
    }
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
