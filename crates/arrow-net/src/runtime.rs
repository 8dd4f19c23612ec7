//! The socket-tier arrow runtime: a small pool of event-loop shards drives every
//! node this process hosts, protocol traffic in memory between hosted nodes and
//! over TCP toward nodes of other processes, application commands over local
//! handles.
//!
//! Protocol logic is [`arrow_core::live::ArrowCore`] — the exact state machine the
//! thread runtime uses — so the two real-concurrency tiers cannot drift. What this
//! module adds is the distribution: nodes are partitioned across
//! [`NetConfig::shards`] reactor threads (the crate's internal `reactor`
//! module), each running one `epoll` loop over its inbox, its timers and the
//! connections of its nodes. A hop between two nodes this runtime hosts is a
//! memory move — inside a shard, or one inbox hand-off between shards; only a
//! node another process hosts ([`NetRuntime::spawn_daemon`]) is reached over a
//! socket, where `queue()` frames travel the spanning-tree edges and token
//! grants travel lazily-dialed direct channels (the delivery rule is spelled
//! out on [`NetConfig::shards`]).
//!
//! # Hot-path shape
//!
//! A shard wakes once per readiness batch, drains every ready socket and its
//! inbox, feeds the frames through the owning node's core, carries frames
//! between its own nodes in memory until none is left, then hands each sibling
//! shard one batch of the frames addressed to it and flushes each dirty link's
//! coalesced frame batch with one `write` — no per-node threads, no per-frame
//! wakeups, and thread count is O(shards) rather than O(nodes), which is what
//! lets a single process host ≥1024 nodes. A client's acquire or release that
//! finds its shard idle runs that same cycle on the client's own thread instead
//! of queueing the command and waking the shard thread, so on one shard an
//! acquire costs no context switch at all. With injected latency frames are
//! scheduled on the shard's timer wheel, whose next deadline doubles as the
//! `epoll_wait` timeout, so a shard sleeps in exactly one place. Applications
//! that want to overlap round-trips use the pipelined acquire API
//! ([`NetHandle::start_acquire_object`]): acquires issued from one node for one
//! object are granted in issue order, so a worker can keep several requests in
//! flight and reap grants FIFO instead of lock-stepping on each round trip.
//!
//! Unlike the thread runtime, every node here also journals its protocol history:
//! which requests it issued (with wall-clock issue times) and which
//! successor-notifications it observed. [`NetRuntime::shutdown`] assembles these
//! into a [`NetReport`] whose per-object queuing orders validate through the same
//! [`QueuingOrder`] machinery the simulator harness uses — so a socket run is held
//! to the same correctness contract as a simulated one.

use crate::mesh::{NetConfig, NetStats, NetStatsSnapshot};
use crate::reactor::{spawn_shards, NodeSeed, ReactorShared, ShardCmd, ShardInjector};
use arrow_core::live::ArrowCore;
use arrow_core::order::OrderError;
use arrow_core::prelude::{
    validate_churn_records, ChurnOrderError, FaultAction, FaultSchedule, ObjectId, OrderRecord,
    QueuingOrder, Request, RequestId, RequestSchedule,
};
use arrow_trace::{MetricsSnapshot, NoProbe, Probe};
use netgraph::{NodeId, RootedTree};
use std::collections::HashSet;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The outcome of one acquire, delivered on the acquire's reply channel.
///
/// Carries enough context (`node`, `obj`) that many in-flight acquires — even from
/// different nodes — can share one reply channel (see
/// [`NetHandle::start_acquire_object_routed`]): the receiver knows which handle to
/// release through without any out-of-band bookkeeping.
#[derive(Debug)]
pub struct Grant {
    /// The node that issued the acquire.
    pub node: NodeId,
    /// The object that was acquired.
    pub obj: ObjectId,
    /// The granted request id, or the node-level failure that doomed the acquire.
    pub result: Result<RequestId, NetFailure>,
    /// Time from the node processing the acquire to the token arriving, measured
    /// entirely at the issuing node (queue propagation + predecessor wait).
    /// Exactly zero for an acquire rejected because the node had *already*
    /// failed (it never waited); failed grants are otherwise not comparable
    /// latency samples — filter on `result` before recording waits.
    pub wait: Duration,
}

/// A node-level transport failure: the node exhausted its dial retry budget
/// ([`NetConfig::dial_retries`]) against a peer and can no longer participate.
/// Pending and future acquires on the node fail with this instead of blocking
/// forever, and the failure is surfaced in [`NetReport::failures`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetFailure {
    /// The node that observed the failure.
    pub node: NodeId,
    /// Human-readable description (peer and I/O error).
    pub description: String,
}

impl std::fmt::Display for NetFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node {}: {}", self.node, self.description)
    }
}

/// What one node hands back when its shard stops.
#[derive(Default)]
pub(crate) struct NodeJournal {
    pub(crate) issued: Vec<Request>,
    pub(crate) records: Vec<OrderRecord>,
    pub(crate) failures: Vec<NetFailure>,
}

/// The distributed arrow directory runtime: every node of the spanning tree is an
/// independent peer driven by a reactor shard — all of them in this process
/// ([`NetRuntime::spawn_multi`]), or one, talking TCP to the others
/// ([`NetRuntime::spawn_daemon`]).
///
/// See the [crate docs](crate) for the architecture; see [`NetRuntime::shutdown`]
/// for the validation story.
pub struct NetRuntime {
    /// One command injector per reactor shard; node `v` is served by shard
    /// `v % injectors.len()`.
    injectors: Vec<ShardInjector>,
    shard_threads: Vec<JoinHandle<Vec<(NodeId, NodeJournal)>>>,
    stats: Arc<NetStats>,
    /// Links severed by fault injection, shared with every shard and the
    /// [`NetFaultHandle`].
    blocked: Arc<Mutex<HashSet<(NodeId, NodeId)>>>,
    /// Hot-path gate for the `blocked` check; set by [`NetRuntime::fault_handle`].
    faults_armed: Arc<AtomicBool>,
    /// In daemon mode ([`NetRuntime::spawn_daemon`]) the single node this
    /// process hosts; `handle()` refuses every other id, because a command for
    /// a node the local shard does not own would panic inside the reactor.
    hosted: Option<NodeId>,
    n: usize,
    k: usize,
}

impl NetRuntime {
    /// Spawn a single-object socket runtime over the given rooted spanning tree.
    pub fn spawn(tree: &RootedTree, cfg: NetConfig) -> Self {
        NetRuntime::spawn_multi(tree, 1, cfg)
    }

    /// Spawn the runtime over the given rooted spanning tree, serving `objects`
    /// independent mobile objects. Every object's token initially sits at the
    /// tree root, already released.
    ///
    /// The runtime hosts every node, spread over [`NetConfig::shards`] reactor
    /// shards, so it binds no listener and dials nothing: every hop is a
    /// memory move (see [`NetConfig::shards`]). Sockets belong to
    /// [`NetRuntime::spawn_daemon`], where the peers live in other processes.
    ///
    /// # Panics
    /// If `objects` is zero.
    pub fn spawn_multi(tree: &RootedTree, objects: usize, cfg: NetConfig) -> Self {
        NetRuntime::spawn_multi_probed(tree, objects, cfg, |_| NoProbe)
    }

    /// Like [`NetRuntime::spawn_multi`], with a per-node probe instrumented into
    /// every node's [`ArrowCore`] — `probe_for(v)` builds node `v`'s probe
    /// (typically [`arrow_trace::TraceRecorder::wall_probe`]). Probes ride the
    /// reactor shard threads and are dropped — flushing any buffered trace
    /// events — before [`NetRuntime::shutdown`] returns, so a recorder can be
    /// finished immediately afterwards. The default spawn path monomorphizes
    /// with [`NoProbe`] and pays nothing.
    pub fn spawn_multi_probed<P: Probe>(
        tree: &RootedTree,
        objects: usize,
        cfg: NetConfig,
        mut probe_for: impl FnMut(NodeId) -> P,
    ) -> Self {
        assert!(objects > 0, "a directory serves at least one object");
        // Partition the nodes across the shard pool round-robin: node `v` lives
        // on shard `v % shard_count`, so handles and fault injectors can route
        // commands without a lookup table, in slot `v / shard_count` of that
        // shard's node table.
        let shard_count = cfg.effective_shards(tree.node_count());
        let mut shard_nodes: Vec<Vec<NodeSeed<P>>> = (0..shard_count).map(|_| Vec::new()).collect();
        for v in 0..tree.node_count() {
            let core = ArrowCore::for_tree_with_probe(v, tree, objects, probe_for(v));
            shard_nodes[v % shard_count].push((v, core, None));
        }
        NetRuntime::launch(tree, objects, cfg, Vec::new(), shard_nodes, None)
    }

    /// Start the shards of the manifest `shard_nodes`; `addrs` is the address
    /// table for the nodes it does not list, `hosted` the daemon's one node.
    fn launch<P: Probe>(
        tree: &RootedTree,
        objects: usize,
        cfg: NetConfig,
        addrs: Vec<SocketAddr>,
        shard_nodes: Vec<Vec<NodeSeed<P>>>,
        hosted: Option<NodeId>,
    ) -> Self {
        let stats = Arc::new(NetStats::default());
        let blocked = Arc::new(Mutex::new(HashSet::new()));
        let faults_armed = Arc::new(AtomicBool::new(false));
        let shared = ReactorShared {
            cfg,
            tree: Arc::new(tree.clone()),
            addrs: Arc::new(addrs),
            stats: Arc::clone(&stats),
            blocked: Arc::clone(&blocked),
            faults_armed: Arc::clone(&faults_armed),
            epoch0: Instant::now(),
        };
        let (injectors, shard_threads) = spawn_shards(&shared, shard_nodes);
        NetRuntime {
            injectors,
            shard_threads,
            stats,
            blocked,
            faults_armed,
            hosted,
            n: tree.node_count(),
            k: objects,
        }
    }

    /// Spawn the runtime in **daemon mode**: this process hosts exactly one
    /// node (`me`) of an `n`-node directory whose other peers live in other
    /// processes (or other hosts). The caller supplies the pre-bound listener
    /// for `me` and the full advertised address table `addrs` (one entry per
    /// tree node, `addrs[me]` being this listener's address) — typically
    /// exchanged over a control channel before the mesh comes up.
    ///
    /// Protocol behaviour is identical to the in-process runtime, but every
    /// hop pays the wire: the node dials its tree parent for the
    /// `Hello`/`Welcome` handshake at bootstrap, token channels dial lazily,
    /// and the single local shard journals issued requests and observed order
    /// records for [`NetRuntime::shutdown`].
    /// `seq_base` restores the request-id counter after a process-granularity
    /// restart (see [`ArrowCore::advance_request_seq`]); pass `0` for a fresh
    /// incarnation.
    ///
    /// Pair daemon mode with [`NetConfig::with_fault_tolerance`] when peers
    /// may die: frames towards a dead peer are then dropped (and re-issued by
    /// the epoch machinery) instead of failing this node.
    ///
    /// # Panics
    /// If `objects` is zero, `me` is outside the tree, or the address table
    /// does not cover the tree.
    pub fn spawn_daemon(
        tree: &RootedTree,
        objects: usize,
        cfg: NetConfig,
        me: NodeId,
        listener: TcpListener,
        addrs: Vec<SocketAddr>,
        seq_base: u64,
    ) -> Self {
        assert!(objects > 0, "a directory serves at least one object");
        let n = tree.node_count();
        assert!(me < n, "daemon node {me} outside the {n}-node tree");
        assert_eq!(
            addrs.len(),
            n,
            "address table covers every tree node ({n}), got {}",
            addrs.len()
        );
        let mut core = ArrowCore::for_tree_with_probe(me, tree, objects, NoProbe);
        core.advance_request_seq(seq_base);
        let shard_nodes = vec![vec![(me, core, Some(listener))]];
        NetRuntime::launch(tree, objects, cfg, addrs, shard_nodes, Some(me))
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of objects served.
    pub fn object_count(&self) -> usize {
        self.k
    }

    /// Shared runtime statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// A handle for the application running at node `v`.
    ///
    /// # Panics
    /// If `v` is out of range, or — in daemon mode — names a node this process
    /// does not host.
    pub fn handle(&self, v: NodeId) -> NetHandle {
        assert!(v < self.n, "node {v} out of range");
        if let Some(me) = self.hosted {
            assert_eq!(v, me, "daemon process hosts only node {me}, not {v}");
        }
        NetHandle {
            node: v,
            objects: self.k,
            injector: self.injectors[v % self.injectors.len()].clone(),
        }
    }

    /// Fault-injection handle: kill and respawn nodes, sever and restore TCP
    /// links, and broadcast the detection-driven epoch bumps that trigger token
    /// regeneration — the socket-tier counterpart of the thread tier's
    /// [`arrow_core::live::FaultHandle`] and the simulator's scheduled
    /// [`desim::SimFault`]s. Pair it with [`NetConfig::with_fault_tolerance`] so a
    /// node dialing a currently-dead peer drops the frame instead of failing the
    /// whole run.
    pub fn fault_handle(&self) -> NetFaultHandle {
        self.faults_armed.store(true, Ordering::Relaxed);
        NetFaultHandle {
            injectors: self.injectors.clone(),
            blocked: Arc::clone(&self.blocked),
        }
    }

    /// Broadcast a detection-driven epoch bump to every local shard *without*
    /// arming fault injection. In daemon mode this is how an external
    /// supervisor (the cluster harness) delivers the bump its failure
    /// detection decided on: the local node resets its links to the initial
    /// tree orientation, regenerates the token if it is the root, and
    /// re-issues its still-pending requests — the same recovery the in-process
    /// [`NetFaultHandle::broadcast_epoch`] triggers, minus the per-send
    /// blocked-link check that injected faults need.
    pub fn broadcast_epoch(&self, epoch: u64) {
        for inj in &self.injectors {
            let _ = inj.send(ShardCmd::Epoch { epoch });
        }
    }

    /// Stop every peer (`Goodbye` on every socket and its in-memory
    /// counterpart between shards, sockets closed) and assemble the run's
    /// [`NetReport`]. Call only once all application-level acquires have returned —
    /// a request still waiting for its token would never be granted.
    pub fn shutdown(mut self) -> NetReport {
        for inj in &self.injectors {
            let _ = inj.send(ShardCmd::Shutdown);
        }
        // Each shard drains its links (Goodbye, flush, half-close), closes every
        // socket, and returns its nodes' journals; joining the shards releases
        // every fd before this returns, keeping back-to-back runtimes inside the
        // process fd budget, and makes the frames/bytes counters final before
        // the snapshot below.
        let mut journals: Vec<(NodeId, NodeJournal)> = Vec::new();
        for t in self.shard_threads.drain(..) {
            if let Ok(mut j) = t.join() {
                journals.append(&mut j);
            }
        }
        journals.sort_by_key(|(v, _)| *v);
        let mut issued = Vec::new();
        let mut records = Vec::new();
        let mut failures = Vec::new();
        for (_, journal) in journals {
            issued.extend(journal.issued);
            records.extend(journal.records);
            failures.extend(journal.failures);
        }
        issued.sort_by_key(|r| (r.time, r.id));
        NetReport {
            schedule: RequestSchedule::from_requests(issued),
            records,
            failures,
            stats: self.stats.snapshot(),
            metrics: self.stats.metrics(),
        }
    }
}

/// Fault-injection handle of a running [`NetRuntime`] (see
/// [`NetRuntime::fault_handle`]). Crash/restart are delivered through the target
/// node's own shard inbox; link drops act through a shared blocked-set checked
/// on every send. The epoch numbering contract is shared with the thread tier:
/// fault event `i` of a schedule is followed by the broadcast of epoch `i + 1`.
#[derive(Debug, Clone)]
pub struct NetFaultHandle {
    injectors: Vec<ShardInjector>,
    blocked: Arc<Mutex<HashSet<(NodeId, NodeId)>>>,
}

impl NetFaultHandle {
    /// Crash node `v`: its TCP links (if any) are cut abruptly, frames in
    /// flight to or from it are lost, its volatile protocol state is
    /// discarded, in-flight local acquires fail promptly, and all traffic is
    /// ignored until [`restart`].
    ///
    /// [`restart`]: NetFaultHandle::restart
    pub fn crash(&self, v: NodeId) {
        let _ = self.injectors[v % self.injectors.len()].send(ShardCmd::Crash { node: v });
    }

    /// Restart crashed node `v` with freshly reset protocol state; it re-dials
    /// its tree parent if another process hosts it, and rejoins at the next
    /// epoch bump.
    pub fn restart(&self, v: NodeId) {
        let _ = self.injectors[v % self.injectors.len()].send(ShardCmd::Restart { node: v });
    }

    /// Sever the link between `u` and `v` (both directions): frames staged across
    /// it are dropped at the sender until [`restore_link`].
    ///
    /// [`restore_link`]: NetFaultHandle::restore_link
    pub fn drop_link(&self, u: NodeId, v: NodeId) {
        self.blocked
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert((u.min(v), u.max(v)));
    }

    /// Restore a severed link.
    pub fn restore_link(&self, u: NodeId, v: NodeId) {
        self.blocked
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .remove(&(u.min(v), u.max(v)));
    }

    /// Broadcast a detection-driven epoch bump to every node. Crashed nodes miss
    /// it (a crashed node must not learn anything) and catch up from stamped live
    /// traffic or a later broadcast after restart.
    pub fn broadcast_epoch(&self, epoch: u64) {
        for inj in &self.injectors {
            let _ = inj.send(ShardCmd::Epoch { epoch });
        }
    }

    /// Apply one fault action, then broadcast the epoch bump its detection
    /// triggers. The ordering mirrors the thread tier: per-inbox FIFO
    /// guarantees a crashed node misses its own bump and a restarted node sees
    /// the Restart before the Epoch.
    ///
    /// # Panics
    /// On [`FaultAction::PartitionTree`] — lower the schedule against a tree
    /// first ([`FaultSchedule::lowered`]).
    pub fn apply(&self, action: &FaultAction, epoch: u64) {
        match *action {
            FaultAction::CrashNode(v) => self.crash(v),
            FaultAction::RestartNode(v) => self.restart(v),
            FaultAction::DropLink(u, v) => self.drop_link(u, v),
            FaultAction::RestoreLink(u, v) => self.restore_link(u, v),
            FaultAction::PartitionTree(_) => {
                panic!("partition faults must be lowered to link drops first")
            }
        }
        self.broadcast_epoch(epoch);
    }

    /// Drive a whole fault schedule against the running mesh, pacing schedule
    /// ticks to `tick` of wall clock (blocking; run it on a dedicated injector
    /// thread). Event `i` is followed by the broadcast of epoch `i + 1` —
    /// the same detection model as the simulator harness and the thread tier.
    pub fn run_schedule(&self, schedule: &FaultSchedule, tree: &RootedTree, tick: Duration) {
        let lowered = schedule.lowered(tree);
        let started = Instant::now();
        for (i, ev) in lowered.events.iter().enumerate() {
            let due = started + tick * ev.at as u32;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            self.apply(&ev.action, (i + 1) as u64);
        }
    }
}

/// The application-facing handle of one socket-tier node: token acquire/release
/// per object — blocking ([`acquire_object`]), failure-typed ([`try_acquire_object`])
/// or pipelined ([`start_acquire_object`]).
///
/// An acquire or release whose reactor shard is idle runs on the calling
/// thread, as one shard cycle; a busy shard gets the command through its
/// inbox. Either way the command is handled in the order this handle issued
/// it, and a grant arrives on the acquire's channel.
///
/// [`acquire_object`]: NetHandle::acquire_object
/// [`try_acquire_object`]: NetHandle::try_acquire_object
/// [`start_acquire_object`]: NetHandle::start_acquire_object
#[derive(Debug, Clone)]
pub struct NetHandle {
    node: NodeId,
    objects: usize,
    injector: ShardInjector,
}

impl NetHandle {
    /// This handle's node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    fn check_object(&self, obj: ObjectId) {
        assert!(
            (obj.0 as usize) < self.objects,
            "object {obj} out of range (runtime serves {} objects)",
            self.objects
        );
    }

    /// Issue a queuing request for the default object and block until this node
    /// holds its token.
    pub fn acquire(&self) -> RequestId {
        self.acquire_object(ObjectId::DEFAULT)
    }

    /// Issue a queuing request for `obj` and block until this node holds that
    /// object's token. Returns the id of the granted request, which must be passed
    /// to [`release_object`] with the same object.
    ///
    /// # Panics
    /// If the node failed to reach the mesh (see [`try_acquire_object`] for the
    /// non-panicking variant) or the runtime has shut down.
    ///
    /// [`release_object`]: NetHandle::release_object
    /// [`try_acquire_object`]: NetHandle::try_acquire_object
    pub fn acquire_object(&self, obj: ObjectId) -> RequestId {
        self.try_acquire_object(obj)
            .unwrap_or_else(|failure| panic!("acquire failed: {failure}"))
    }

    /// Issue a queuing request for the default object; a node-level transport
    /// failure comes back as [`NetFailure`] instead of blocking forever.
    pub fn try_acquire(&self) -> Result<RequestId, NetFailure> {
        self.try_acquire_object(ObjectId::DEFAULT)
    }

    /// Like [`acquire_object`], but a node that cannot reach the mesh (dial retry
    /// budget exhausted) fails the acquire with a [`NetFailure`] instead of
    /// panicking or blocking forever.
    ///
    /// [`acquire_object`]: NetHandle::acquire_object
    pub fn try_acquire_object(&self, obj: ObjectId) -> Result<RequestId, NetFailure> {
        self.start_acquire_object(obj).wait()
    }

    /// Like [`try_acquire_object`], but give up after `timeout` with a synthetic
    /// [`NetFailure`] — a grant that never arrives (absent an application that
    /// holds tokens that long) indicates a lost token, i.e. a protocol bug. The
    /// conformance drivers use this so a grant-chain deadlock becomes a recorded
    /// failure instead of a hung sweep.
    ///
    /// [`try_acquire_object`]: NetHandle::try_acquire_object
    pub fn try_acquire_object_timeout(
        &self,
        obj: ObjectId,
        timeout: Duration,
    ) -> Result<RequestId, NetFailure> {
        self.start_acquire_object(obj).wait_timeout(timeout)
    }

    /// Issue a queuing request for `obj` **without blocking** and return a
    /// [`PendingAcquire`] that resolves when the token arrives.
    ///
    /// This is the pipelining primitive: consecutive acquires issued through one
    /// node's handles for one object are queued directly behind each other (the
    /// node is its own sink after the first), so their grants arrive **in issue
    /// order** and a worker can keep a window of requests in flight, reaping
    /// grants FIFO, instead of paying a full queue/token round-trip per acquire.
    ///
    /// # Panics
    /// If `obj` is out of range or the runtime has shut down.
    pub fn start_acquire_object(&self, obj: ObjectId) -> PendingAcquire {
        self.check_object(obj);
        let (reply_tx, reply_rx) = channel();
        assert!(
            self.injector.submit(ShardCmd::Acquire {
                node: self.node,
                obj,
                reply: reply_tx,
            }),
            "runtime has shut down"
        );
        PendingAcquire {
            node: self.node,
            obj,
            rx: reply_rx,
        }
    }

    /// Issue a queuing request for `obj` whose [`Grant`] is delivered on the
    /// caller-supplied channel instead of a dedicated one.
    ///
    /// Because a [`Grant`] carries its issuing node and object, **many in-flight
    /// acquires — across nodes and objects — can share one channel**: an open-loop
    /// driver issues requests as its workload dictates and a single reaper
    /// receives grants in arrival order, releasing each through the right handle.
    /// Grants for one `(node, object)` stream arrive in issue order; grants across
    /// streams arrive in whatever order the tokens land.
    ///
    /// # Panics
    /// If `obj` is out of range or the runtime has shut down.
    pub fn start_acquire_object_routed(&self, obj: ObjectId, reply: &Sender<Grant>) {
        self.check_object(obj);
        assert!(
            self.injector.submit(ShardCmd::Acquire {
                node: self.node,
                obj,
                reply: reply.clone(),
            }),
            "runtime has shut down"
        );
    }

    /// Release the default object's token held for `req`.
    pub fn release(&self, req: RequestId) {
        self.release_object(ObjectId::DEFAULT, req);
    }

    /// Release `obj`'s token held for `req`, letting it move on to the successor.
    pub fn release_object(&self, obj: ObjectId, req: RequestId) {
        assert!(
            self.injector.submit(ShardCmd::Release {
                node: self.node,
                obj,
                req,
            }),
            "runtime has shut down"
        );
    }
}

/// One in-flight acquire issued with [`NetHandle::start_acquire_object`]: a future
/// for the [`Grant`], resolved by [`wait`](PendingAcquire::wait).
#[derive(Debug)]
pub struct PendingAcquire {
    node: NodeId,
    obj: ObjectId,
    rx: Receiver<Grant>,
}

impl PendingAcquire {
    /// The node the acquire was issued at.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The object being acquired.
    pub fn obj(&self) -> ObjectId {
        self.obj
    }

    /// Block until the token arrives (or the node fails).
    pub fn wait(self) -> Result<RequestId, NetFailure> {
        self.rx.recv().expect("runtime has shut down").result
    }

    /// Block until the token arrives, with the grant's queue-wait measurement.
    pub fn wait_grant(self) -> Grant {
        self.rx.recv().expect("runtime has shut down")
    }

    /// Like [`wait`](PendingAcquire::wait), but give up after `timeout` with a
    /// synthetic [`NetFailure`].
    pub fn wait_timeout(self, timeout: Duration) -> Result<RequestId, NetFailure> {
        match self.rx.recv_timeout(timeout) {
            Ok(grant) => grant.result,
            Err(_) => Err(NetFailure {
                node: self.node,
                description: format!(
                    "acquire of {} not granted within {timeout:?} — possible lost token",
                    self.obj
                ),
            }),
        }
    }
}

/// Everything a socket run leaves behind: the reconstructed request schedule
/// (wall-clock issue times, in seconds), the successor-notification records every
/// node journaled, and the runtime statistics.
#[derive(Debug, Clone)]
pub struct NetReport {
    schedule: RequestSchedule,
    records: Vec<OrderRecord>,
    failures: Vec<NetFailure>,
    stats: NetStatsSnapshot,
    metrics: MetricsSnapshot,
}

impl NetReport {
    /// The requests issued during the run, in non-decreasing issue-time order.
    /// Times are wall-clock seconds since the runtime was spawned.
    pub fn schedule(&self) -> &RequestSchedule {
        &self.schedule
    }

    /// The successor notifications journaled by all nodes.
    pub fn records(&self) -> &[OrderRecord] {
        &self.records
    }

    /// Transport failures observed during the run (empty on a healthy mesh): one
    /// entry per node that exhausted its dial retry budget.
    pub fn failures(&self) -> &[NetFailure] {
        &self.failures
    }

    /// Runtime statistics at shutdown.
    pub fn stats(&self) -> NetStatsSnapshot {
        self.stats
    }

    /// The full metrics-registry snapshot at shutdown: the counters of
    /// [`NetReport::stats`] plus the socket tier's histograms (write coalescing,
    /// timer-wheel lateness, acquire latency), in the schema shared with the
    /// thread tier's [`arrow_core::live::LiveReport::metrics`].
    pub fn metrics(&self) -> &MetricsSnapshot {
        &self.metrics
    }

    /// Assemble and validate the queuing order of every object that saw at least
    /// one request — the same per-object validation contract the simulator harness
    /// enforces: every request queued exactly once, one unbroken successor chain
    /// from the object's virtual root request.
    pub fn validated_orders(&self) -> Result<Vec<(ObjectId, QueuingOrder)>, OrderError> {
        arrow_core::order::per_object_orders(&self.records, &self.schedule).map_err(|(_, e)| e)
    }

    /// Validate the run's order records under churn: every `(object, epoch)`
    /// group must be fork-free, and `final_epoch` (the epoch the mesh converged
    /// to after the last fault's detection bump) must form one complete successor
    /// chain per object — the relaxed contract of
    /// [`arrow_core::order::validate_churn_records`], replacing
    /// [`validated_orders`](NetReport::validated_orders) for runs with faults
    /// (across epochs a request may legitimately be queued twice: once in an
    /// abandoned epoch, once re-issued after recovery).
    pub fn validate_churn(&self, final_epoch: u64) -> Result<(), ChurnOrderError> {
        validate_churn_records(&self.records, final_epoch)
    }

    /// Successor records that evidence a token regeneration: a request queued
    /// directly behind the *regenerated* virtual root request of a recovery
    /// epoch. At least one of these proves a token died with a fault and the
    /// directory minted a replacement at the tree root.
    pub fn token_regenerations(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.epoch > 0 && r.predecessor.is_root())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh;
    use arrow_trace::{HistMetric, Metric};
    use netgraph::generators;

    fn tree(n: usize) -> RootedTree {
        RootedTree::from_tree_graph(&generators::balanced_binary_tree(n), 0)
    }

    /// One single-object daemon-mode runtime per node of `t`, as `arrowd`
    /// processes would run them: every hop crosses loopback TCP. All share one
    /// address table, which `edit(v, table)` may change for node `v` (to name
    /// a refused peer, say).
    fn daemon_mesh(
        t: &RootedTree,
        cfg: NetConfig,
        edit: impl Fn(NodeId, &mut Vec<SocketAddr>),
    ) -> Vec<NetRuntime> {
        let listeners: Vec<TcpListener> = (0..t.node_count())
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        listeners
            .into_iter()
            .enumerate()
            .map(|(v, l)| {
                let mut table = addrs.clone();
                edit(v, &mut table);
                NetRuntime::spawn_daemon(t, 1, cfg, v, l, table, 0)
            })
            .collect()
    }

    /// Shut every daemon down and validate their merged journals, the merge
    /// the cluster harness makes.
    fn shutdown_mesh(daemons: Vec<NetRuntime>) -> (Vec<NetReport>, Vec<(ObjectId, QueuingOrder)>) {
        let reports: Vec<NetReport> = daemons.into_iter().map(NetRuntime::shutdown).collect();
        let mut issued: Vec<Request> = Vec::new();
        let mut records = Vec::new();
        for r in &reports {
            issued.extend_from_slice(r.schedule().requests());
            records.extend_from_slice(r.records());
        }
        issued.sort_by_key(|r| (r.time, r.id));
        let schedule = RequestSchedule::from_requests(issued);
        let orders = arrow_core::order::per_object_orders(&records, &schedule).unwrap();
        (reports, orders)
    }

    /// One counter summed over several runtimes' reports.
    fn total(reports: &[NetReport], counter: impl Fn(NetStatsSnapshot) -> u64) -> u64 {
        reports.iter().map(|r| counter(r.stats())).sum()
    }

    /// Node 1 of a two-node tree, alone in its daemon, whose address table
    /// names a refused address for its parent.
    fn daemon_with_refused_parent(cfg: NetConfig) -> NetRuntime {
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = vec![refused_addr(), l1.local_addr().unwrap()];
        NetRuntime::spawn_daemon(&tree(2), 1, cfg, 1, l1, addrs, 0)
    }

    /// Poll `ready` until it holds, for at most ten seconds.
    fn eventually(what: &str, ready: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !ready() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn spawn_and_shutdown_with_no_traffic() {
        let rt = NetRuntime::spawn(&tree(5), NetConfig::instant());
        assert_eq!(rt.node_count(), 5);
        assert_eq!(rt.object_count(), 1);
        let report = rt.shutdown();
        assert!(report.schedule().is_empty());
        assert!(report.records().is_empty());
        assert_eq!(report.stats().acquisitions, 0);
        assert_eq!(
            report.stats().connections_dialed,
            0,
            "hosted peers never dial"
        );
    }

    #[test]
    fn single_remote_acquire_crosses_real_sockets() {
        // One daemon per node: every hop of the 6 -> 2 -> 0 path and the
        // token's way back pays the wire.
        let daemons = daemon_mesh(&tree(7), NetConfig::instant(), |_, _| {});
        let h = daemons[6].handle(6);
        let req = h.acquire();
        h.release(req);
        let (reports, orders) = shutdown_mesh(daemons);
        assert_eq!(total(&reports, |s| s.acquisitions), 1);
        assert!(
            total(&reports, |s| s.queue_frames) >= 1,
            "leaf request crossed links"
        );
        assert!(
            total(&reports, |s| s.token_frames) >= 1,
            "token travelled back"
        );
        assert!(total(&reports, |s| s.bytes_sent) > 0);
        assert!(
            total(&reports, |s| s.bytes_received) > 0,
            "readers count their bytes"
        );
        assert!(total(&reports, |s| s.socket_writes) >= 1);
        assert_eq!(total(&reports, |s| s.local_frames), 0);
        assert_eq!(orders.len(), 1);
        assert_eq!(orders[0].1.len(), 1);
    }

    #[test]
    fn sequential_acquires_from_every_node_validate() {
        let rt = NetRuntime::spawn(&tree(7), NetConfig::instant());
        for v in 0..7 {
            let h = rt.handle(v);
            let req = h.acquire();
            h.release(req);
        }
        let report = rt.shutdown();
        assert_eq!(report.stats().acquisitions, 7);
        let orders = report.validated_orders().unwrap();
        assert_eq!(orders[0].1.len(), 7);
    }

    #[test]
    fn concurrent_multi_object_acquires_all_complete_and_validate() {
        let k = 3;
        let rt = Arc::new(NetRuntime::spawn_multi(&tree(7), k, NetConfig::instant()));
        let mut joins = Vec::new();
        for v in 0..7 {
            let h = rt.handle(v);
            joins.push(std::thread::spawn(move || {
                for round in 0..4 {
                    let obj = ObjectId(((v + round) % k) as u32);
                    let req = h.acquire_object(obj);
                    h.release_object(obj, req);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let rt = Arc::try_unwrap(rt).ok().unwrap();
        let report = rt.shutdown();
        assert_eq!(report.stats().acquisitions, 7 * 4);
        let orders = report.validated_orders().unwrap();
        assert_eq!(orders.len(), k);
        let total: usize = orders.iter().map(|(_, o)| o.len()).sum();
        assert_eq!(total, report.schedule().len());
    }

    #[test]
    fn pipelined_acquires_grant_in_issue_order_per_stream() {
        // The pipelining contract: consecutive acquires from one node for one
        // object are granted in issue order, so a worker can keep a window in
        // flight and reap FIFO.
        let rt = NetRuntime::spawn(&tree(7), NetConfig::instant());
        let h = rt.handle(5);
        const WINDOW: usize = 8;
        let pendings: Vec<PendingAcquire> = (0..WINDOW)
            .map(|_| h.start_acquire_object(ObjectId::DEFAULT))
            .collect();
        let mut granted = Vec::new();
        for p in pendings {
            let grant = p.wait_grant();
            let req = grant.result.expect("healthy mesh grants");
            assert_eq!(grant.node, 5);
            assert_eq!(grant.obj, ObjectId::DEFAULT);
            granted.push(req);
            h.release(req);
        }
        let report = rt.shutdown();
        assert_eq!(report.stats().acquisitions, WINDOW as u64);
        // The validated order lists exactly our stream, in issue order.
        let orders = report.validated_orders().unwrap();
        assert_eq!(orders[0].1.order(), granted.as_slice());
    }

    #[test]
    fn routed_grants_share_one_channel_across_nodes_and_objects() {
        let k = 2;
        let rt = NetRuntime::spawn_multi(&tree(7), k, NetConfig::instant());
        let (tx, rx) = channel();
        let issued = 6;
        // Interleave acquires from three nodes across two objects, all reporting
        // into one channel.
        for (v, obj) in [(1, 0u32), (4, 1), (2, 0), (6, 1), (3, 0), (5, 1)] {
            rt.handle(v).start_acquire_object_routed(ObjectId(obj), &tx);
        }
        let mut seen = 0;
        while seen < issued {
            let grant = rx.recv().unwrap();
            let req = grant.result.expect("healthy mesh grants");
            // The grant tells the reaper everything needed to release.
            rt.handle(grant.node).release_object(grant.obj, req);
            seen += 1;
        }
        let report = rt.shutdown();
        assert_eq!(report.stats().acquisitions, issued as u64);
        let orders = report.validated_orders().unwrap();
        let total: usize = orders.iter().map(|(_, o)| o.len()).sum();
        assert_eq!(total, issued);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn acquire_for_missing_object_panics() {
        let rt = NetRuntime::spawn_multi(&tree(3), 2, NetConfig::instant());
        let h = rt.handle(0);
        let _ = h.acquire_object(ObjectId(2));
    }

    /// A loopback address with nothing listening on it (bind, read the address,
    /// drop the listener — connections to it are refused from then on).
    fn refused_addr() -> std::net::SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    }

    #[test]
    fn refused_parent_address_fails_the_run_cleanly() {
        // Regression: a failed dial after the retry budget used to panic inside
        // the node thread, leaving acquirers blocked and shutdown joins hanging.
        // Now the child marks itself failed, the acquire errors out, and shutdown
        // completes with the failure reported.
        let rt = daemon_with_refused_parent(NetConfig::instant().with_dial_retries(1));
        // Node 1 dialed its (unreachable) parent at bootstrap: the acquire must
        // fail with a typed NetFailure, not block or panic.
        let failure = rt.handle(1).try_acquire().unwrap_err();
        assert_eq!(failure.node, 1);
        assert!(failure.description.contains("failed to dial peer 0"));
        // Further acquires on the failed node keep failing fast.
        assert!(rt.handle(1).try_acquire_object(ObjectId(0)).is_err());
        let report = rt.shutdown();
        assert_eq!(report.failures().len(), 1, "one node reported the failure");
        assert_eq!(report.stats().dial_failures, 1);
        assert_eq!(report.stats().acquisitions, 0);
        assert!(report.validated_orders().unwrap().is_empty());
    }

    #[test]
    fn remote_acquirer_fails_cleanly_when_its_token_grant_cannot_be_delivered() {
        // Leaf 3 of a 7-node balanced binary tree acquires; the queue() walks
        // 3 -> 1 -> 0 over the tree links the children dialed, then the root
        // must lazily dial node 3 to deliver the token — but the root's address
        // table names a refused address for node 3. The root fails cleanly: one
        // journaled failure, its own acquires refused from then on. No failure
        // notice crosses a process boundary, so node 3's bounded wait is what
        // turns the undeliverable grant into a typed error instead of a hang.
        let cfg = NetConfig::instant().with_dial_retries(1);
        let daemons = daemon_mesh(&tree(7), cfg, |v, table| {
            if v == 0 {
                table[3] = refused_addr();
            }
        });
        let failure = daemons[3]
            .handle(3)
            .try_acquire_object_timeout(ObjectId::DEFAULT, Duration::from_secs(2))
            .unwrap_err();
        assert_eq!(failure.node, 3);
        assert!(failure.description.contains("not granted within"));
        let failure = daemons[0]
            .handle(0)
            .try_acquire_object_timeout(ObjectId::DEFAULT, Duration::from_secs(10))
            .unwrap_err();
        assert_eq!(failure.node, 0, "the root observed the dial failure");
        assert!(failure.description.contains("failed to dial peer 3"));
        let reports: Vec<NetReport> = daemons.into_iter().map(NetRuntime::shutdown).collect();
        assert_eq!(reports[0].failures().len(), 1);
        assert_eq!(total(&reports, |s| s.dial_failures), 1, "the root's alone");
    }

    #[test]
    fn dial_budget_is_respected_against_a_refused_address() {
        let addr = refused_addr();
        let start = std::time::Instant::now();
        let err = mesh::dial_with_budget(addr, 3, 2).unwrap_err();
        // 2 retries × 5ms-linear backoff stays well under a second.
        assert!(start.elapsed() < std::time::Duration::from_secs(2));
        let _ = err;
    }

    #[test]
    fn quiescent_run_byte_accounting_is_symmetric() {
        // The symmetry contract on NetStatsSnapshot::bytes_sent: every frame —
        // handshakes included — flows through the reactor's send and receive
        // buffers and is counted on both sides, and with no injected latency
        // and no faults nothing is dropped. So once the mesh is quiescent the
        // two byte totals, summed over the daemons, must match exactly.
        let daemons = daemon_mesh(&tree(7), NetConfig::instant(), |_, _| {});
        for (v, d) in daemons.iter().enumerate() {
            let h = d.handle(v);
            let req = h.acquire();
            h.release(req);
        }
        let (reports, _) = shutdown_mesh(daemons);
        let sent = total(&reports, |s| s.bytes_sent);
        assert!(sent > 0, "seven acquires crossed the mesh");
        assert_eq!(
            sent,
            total(&reports, |s| s.bytes_received),
            "every written byte is read before its reader exits"
        );
    }

    #[test]
    fn report_metrics_mirror_the_snapshot_and_carry_histograms() {
        let rt = NetRuntime::spawn(&tree(7), NetConfig::instant());
        let h = rt.handle(6);
        let req = h.acquire();
        h.release(req);
        let report = rt.shutdown();
        let s = report.stats();
        let m = report.metrics();
        // One schema: the snapshot façade and the registry agree exactly.
        assert_eq!(m.get(Metric::QueueFrames), s.queue_frames);
        assert_eq!(m.get(Metric::Acquisitions), s.acquisitions);
        assert_eq!(m.get(Metric::BytesSent), s.bytes_sent);
        assert_eq!(m.get(Metric::RequestsIssued), 1);
        // The histograms only the registry carries: every flush records its
        // batch size, every delivered grant its latency.
        assert_eq!(m.hist(HistMetric::WriteBatchFrames).count, s.socket_writes);
        assert_eq!(m.hist(HistMetric::AcquireNanos).count, 1);
    }

    #[test]
    fn probed_run_records_a_complete_hop_chain() {
        // A leaf acquire across the reactor shards, with every node instrumented by a
        // wall-clock trace probe: the recorder must reconstruct the request's
        // full causal path — issue, per-hop queue frames, token flight, grant.
        let recorder = Arc::new(arrow_trace::TraceRecorder::new());
        let rt = NetRuntime::spawn_multi_probed(&tree(7), 1, NetConfig::instant(), |v| {
            recorder.wall_probe(v)
        });
        let h = rt.handle(6);
        let req = h.acquire();
        h.release(req);
        rt.shutdown();
        let events = Arc::try_unwrap(recorder)
            .expect("all probes flushed and dropped at shutdown")
            .finish();
        let traces = arrow_trace::analysis::reconstruct(&events);
        let t = traces
            .iter()
            .find(|t| t.req == req.0 && t.origin == 6)
            .expect("the acquire was traced");
        assert!(t.complete(), "issue, hops, grant all recorded: {t:?}");
        // Leaf 6 of a 7-node balanced binary tree is two tree edges from the
        // root, where the token initially rests: 6 -> 2 -> 0.
        assert_eq!(t.hops.len(), 2);
        assert_eq!(t.hops[0].from, 6);
        assert_eq!(t.hops[1].to, 0);
        assert!(t.granted_at.is_some());
    }

    #[test]
    fn daemon_mode_runtimes_interoperate_over_a_shared_address_table() {
        // Two spawn_daemon runtimes — each hosting one node of a 2-node tree,
        // exactly like two arrowd processes — handshake and exchange a real
        // acquire through the advertised address table.
        let t = tree(2);
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = vec![l0.local_addr().unwrap(), l1.local_addr().unwrap()];
        let d0 = NetRuntime::spawn_daemon(&t, 1, NetConfig::instant(), 0, l0, addrs.clone(), 0);
        let d1 = NetRuntime::spawn_daemon(&t, 1, NetConfig::instant(), 1, l1, addrs, 0);
        let req = d1.handle(1).acquire();
        d1.handle(1).release(req);
        let r1 = d1.shutdown();
        let r0 = d0.shutdown();
        // The acquirer journals its request; assembling both journals yields
        // one clean order — the cluster harness does exactly this merge.
        let mut issued: Vec<Request> = Vec::new();
        issued.extend_from_slice(r0.schedule().requests());
        issued.extend_from_slice(r1.schedule().requests());
        issued.sort_by_key(|r| (r.time, r.id));
        let schedule = RequestSchedule::from_requests(issued);
        let mut records = r0.records().to_vec();
        records.extend_from_slice(r1.records());
        let orders = arrow_core::order::per_object_orders(&records, &schedule).unwrap();
        assert_eq!(orders.len(), 1);
        assert_eq!(orders[0].1.order(), &[req]);
    }

    /// Bootstrap before publish: a daemon's node dials its tree parent before
    /// a client can reach the shard inline. An acquire issued the moment
    /// `spawn_daemon` returns stages its `queue()` on that bootstrap dial; a
    /// bootstrap started after it would replace the dial and lose the frame.
    #[test]
    fn acquire_issued_as_spawn_daemon_returns_rides_the_bootstrap_dial() {
        let t = tree(2);
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = vec![l0.local_addr().unwrap(), l1.local_addr().unwrap()];
        let cfg = NetConfig::instant();
        let d1 = NetRuntime::spawn_daemon(&t, 1, cfg, 1, l1, addrs.clone(), 0);
        let pending = d1.handle(1).start_acquire_object(ObjectId::DEFAULT);
        let d0 = NetRuntime::spawn_daemon(&t, 1, cfg, 0, l0, addrs, 0);
        let req = pending
            .wait_timeout(Duration::from_secs(10))
            .expect("the staged queue() reaches the root");
        d1.handle(1).release(req);
        let r1 = d1.shutdown();
        let r0 = d0.shutdown();
        assert_eq!(r1.stats().connections_dialed, 1, "one dial, the bootstrap");
        assert_eq!(r0.stats().acquisitions + r1.stats().acquisitions, 1);
    }

    /// The wake rule: an inline cycle that arms a timer ahead of the deadline
    /// the parked shard thread sleeps toward must wake it. With injected
    /// latency every hop waits on the shard's timer wheel, which only the
    /// shard thread pops, and an idle one-shard runtime parks with no
    /// deadline at all: each inline acquire below is granted only because
    /// its cycle woke the thread.
    #[test]
    fn inline_cycle_arming_an_earlier_timer_wakes_the_parked_shard() {
        let cfg = NetConfig::synchronous(Duration::from_millis(1)).with_shards(1);
        let rt = NetRuntime::spawn(&tree(7), cfg);
        for v in [6, 3, 6] {
            // Let the shard thread park before the next command.
            std::thread::sleep(Duration::from_millis(20));
            let h = rt.handle(v);
            let req = h
                .try_acquire_object_timeout(ObjectId::DEFAULT, Duration::from_secs(5))
                .expect("the woken shard delivers the delayed hops");
            h.release(req);
        }
        let report = rt.shutdown();
        assert!(
            report.stats().inline_cycles >= 1,
            "an idle shard runs a client's command inline"
        );
        report.validated_orders().unwrap();
    }

    /// A quiet one-shard closed loop, where no other thread competes for the
    /// shard, runs nearly every acquire and release as an inline cycle on the
    /// client's thread; the shard thread is all but never woken.
    #[test]
    fn quiet_one_shard_closed_loop_runs_its_commands_inline() {
        let rt = NetRuntime::spawn(&tree(15), NetConfig::instant().with_shards(1));
        let rounds = 200;
        for round in 0..rounds {
            let h = rt.handle(round % 15);
            let req = h
                .try_acquire_object_timeout(ObjectId::DEFAULT, Duration::from_secs(5))
                .expect("healthy mesh grants");
            h.release(req);
        }
        let s = rt.shutdown().stats();
        let commands = 2 * rounds as u64;
        assert!(
            s.inline_cycles * 10 >= commands * 9,
            "{} of {commands} commands ran inline",
            s.inline_cycles
        );
        assert!(s.inline_cycles <= commands);
    }

    #[test]
    #[should_panic(expected = "hosts only node 1")]
    fn daemon_mode_handle_refuses_non_hosted_nodes() {
        let d1 = daemon_with_refused_parent(NetConfig::instant().with_fault_tolerance());
        let _ = d1.handle(0);
    }

    #[test]
    fn daemon_seq_base_offsets_request_ids_past_a_dead_incarnation() {
        // A restarted daemon passes the supervisor's seq_base so its fresh
        // core never re-issues an id the dead incarnation already used: ids
        // are 1 + me + seq * n, so seq_base=5 on node 1 of n=2 starts at 12.
        let t = tree(2);
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = vec![l0.local_addr().unwrap(), l1.local_addr().unwrap()];
        let d0 = NetRuntime::spawn_daemon(&t, 1, NetConfig::instant(), 0, l0, addrs.clone(), 0);
        let d1 = NetRuntime::spawn_daemon(&t, 1, NetConfig::instant(), 1, l1, addrs, 5);
        let req = d1.handle(1).acquire();
        assert_eq!(req.0, 1 + 1 + 5 * 2);
        d1.handle(1).release(req);
        d1.shutdown();
        d0.shutdown();
    }

    #[test]
    fn healthy_mesh_reports_no_failures() {
        let rt = NetRuntime::spawn(&tree(5), NetConfig::instant());
        let h = rt.handle(4);
        let req = h.try_acquire().expect("healthy mesh grants");
        h.release(req);
        let report = rt.shutdown();
        assert!(report.failures().is_empty());
        assert_eq!(report.stats().dial_failures, 0);
    }

    #[test]
    fn pipelined_acquires_fail_promptly_when_the_bootstrap_parent_is_unreachable() {
        // Regression for the pipelined path: acquires issued through
        // start_acquire_object while the node's bootstrap dial is failing must
        // resolve to typed errors promptly — not block until the caller's own
        // timeout. The child fails itself once the retry budget is spent, and
        // every queued Acquire is refused at the shard.
        let rt = daemon_with_refused_parent(NetConfig::instant().with_dial_retries(1));
        let pendings: Vec<PendingAcquire> = (0..4)
            .map(|_| rt.handle(1).start_acquire_object(ObjectId::DEFAULT))
            .collect();
        let started = Instant::now();
        for p in pendings {
            let failure = p
                .wait_timeout(Duration::from_secs(10))
                .expect_err("no grant can cross a refused parent edge");
            assert_eq!(failure.node, 1);
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "pipelined acquires on a failed node must error out promptly"
        );
        rt.shutdown();
    }

    #[test]
    fn pipelined_acquires_fail_promptly_when_the_lazy_token_channel_is_refused() {
        // Regression for the pipelined path across the mesh: the root holds
        // the token while node 3's queue() reaches it over healthy tree edges,
        // and three pipelined root acquires then queue behind node 3's request.
        // Releasing hands the token to node 3 over a channel the root cannot
        // dial (its table names a refused address for node 3): the root fails,
        // and with it *all* its pipelined acquires, including the ones queued
        // behind the undeliverable head-of-line grant — promptly, not at the
        // caller's timeout.
        let cfg = NetConfig::instant().with_dial_retries(1);
        let daemons = daemon_mesh(&tree(7), cfg, |v, table| {
            if v == 0 {
                table[3] = refused_addr();
            }
        });
        // Once nodes 1 and 2 finished dialing the root, it has read their
        // Hellos: the next bytes it reads are node 3's queue().
        eventually("the root's children are connected", || {
            (1..=2).all(|v| daemons[v].stats().snapshot().connections_dialed == 1)
        });
        let root = daemons[0].handle(0);
        let held = root.acquire();
        let before = daemons[0].stats().snapshot().bytes_received;
        let _remote = daemons[3].handle(3).start_acquire_object(ObjectId::DEFAULT);
        eventually("node 3's queue() reaches the root", || {
            daemons[0].stats().snapshot().bytes_received > before
        });
        let pendings: Vec<PendingAcquire> = (0..3)
            .map(|_| root.start_acquire_object(ObjectId::DEFAULT))
            .collect();
        root.release(held);
        let started = Instant::now();
        for p in pendings {
            let failure = p
                .wait_timeout(Duration::from_secs(10))
                .expect_err("a grant whose token channel is refused must fail, not hang");
            assert!(failure.description.contains("failed to dial peer 3"));
        }
        assert!(
            started.elapsed() < Duration::from_secs(8),
            "the dial failure must fail queued pipelined acquires promptly"
        );
        let reports: Vec<NetReport> = daemons.into_iter().map(NetRuntime::shutdown).collect();
        assert_eq!(reports[0].failures().len(), 1, "only the root journals it");
        assert_eq!(total(&reports, |s| s.dial_failures), 1);
    }

    #[test]
    fn crashing_the_token_holder_regenerates_the_token_over_sockets() {
        let cfg = NetConfig::instant()
            .with_dial_retries(1)
            .with_fault_tolerance();
        let rt = NetRuntime::spawn(&tree(7), cfg);
        let fh = rt.fault_handle();
        // Leaf 5 wins the token and crashes while holding it: frames in flight
        // to or from it are lost and the token dies with its state.
        let req = rt.handle(5).try_acquire().expect("healthy mesh grants");
        assert!(!req.is_root());
        fh.apply(&FaultAction::CrashNode(5), 1);
        // After the detection bump the root holds a regenerated token; the
        // surviving leaf 6 must still be granted.
        let got = rt
            .handle(6)
            .try_acquire_object_timeout(ObjectId::DEFAULT, Duration::from_secs(10))
            .expect("regenerated token grants the surviving node");
        rt.handle(6).release_object(ObjectId::DEFAULT, got);
        fh.apply(&FaultAction::RestartNode(5), 2);
        let report = rt.shutdown();
        assert!(
            report.token_regenerations() >= 1,
            "the post-crash grant chains from the regenerated root token"
        );
        report
            .validate_churn(2)
            .expect("per-epoch order contract under churn");
        assert!(report.failures().is_empty(), "churn is not a mesh failure");
    }

    #[test]
    fn epoch_bump_reissues_a_request_lost_to_a_severed_link() {
        // Leaf 1's queue() frame is swallowed by a severed tree edge; restoring
        // the link and broadcasting the next epoch makes the leaf re-issue its
        // still-pending request (same id, new stamp), which then completes.
        let cfg = NetConfig::instant().with_fault_tolerance();
        let rt = NetRuntime::spawn(&tree(3), cfg);
        let fh = rt.fault_handle();
        fh.apply(&FaultAction::DropLink(0, 1), 1);
        let pending = rt.handle(1).start_acquire_object(ObjectId::DEFAULT);
        // Give the dropped queue() frame time to be (not) delivered.
        std::thread::sleep(Duration::from_millis(100));
        fh.apply(&FaultAction::RestoreLink(0, 1), 2);
        let req = pending
            .wait_timeout(Duration::from_secs(10))
            .expect("the re-issued request must complete after the link heals");
        rt.handle(1).release_object(ObjectId::DEFAULT, req);
        let report = rt.shutdown();
        assert!(
            report.stats().frames_dropped >= 1,
            "the severed link must have swallowed the original frame"
        );
        report
            .validate_churn(2)
            .expect("per-epoch order contract under churn");
    }

    #[test]
    fn generated_fault_schedule_churn_run_converges_over_sockets() {
        // The socket-tier analogue of the thread runtime's churn test: workers
        // acquire/release across the reactor shards while a generated fault schedule
        // (crashes, restarts, partitions) runs against the mesh. Liveness: every
        // surviving worker round is eventually granted; safety: the journaled
        // orders satisfy the per-epoch churn contract.
        let t = tree(7);
        let faults = FaultSchedule::generate(7, &t, 2);
        let final_epoch = faults.final_epoch();
        let cfg = NetConfig::instant()
            .with_dial_retries(1)
            .with_fault_tolerance();
        let rt = NetRuntime::spawn_multi(&t, 2, cfg);
        let fh = rt.fault_handle();
        let injector_done = Arc::new(AtomicBool::new(false));
        let injector = {
            let fh = fh.clone();
            let t = t.clone();
            let faults = faults.clone();
            let done = Arc::clone(&injector_done);
            std::thread::spawn(move || {
                fh.run_schedule(&faults, &t, Duration::from_millis(20));
                done.store(true, Ordering::SeqCst);
            })
        };
        let mut joins = Vec::new();
        for v in 0..7 {
            let h = rt.handle(v);
            let fh = fh.clone();
            let done = Arc::clone(&injector_done);
            joins.push(std::thread::spawn(move || {
                for round in 0..3u32 {
                    let obj = ObjectId((v as u32 + round) % 2);
                    let mut attempts = 0;
                    loop {
                        attempts += 1;
                        assert!(attempts <= 200, "node {v} round {round} never granted");
                        match h.try_acquire_object_timeout(obj, Duration::from_millis(1000)) {
                            Ok(req) => {
                                h.release_object(obj, req);
                                break;
                            }
                            Err(_) => {
                                // Crashed-node refusal or a grant lost to churn:
                                // once injection is over, a timeout doubles as
                                // fault detection — re-broadcasting the final
                                // epoch is idempotent and heals any straggler.
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
        injector.join().unwrap();
        let report = rt.shutdown();
        report
            .validate_churn(final_epoch)
            .expect("per-epoch order contract across a generated churn schedule");
        assert!(
            report.stats().acquisitions >= 7 * 3,
            "every worker round was granted"
        );
    }
}
