//! The sharded reactor core of the socket tier.
//!
//! Instead of three threads per node (accept/read/write), the runtime spawns a
//! small fixed pool of *shards*. Each shard owns a disjoint subset of the
//! nodes, runs one epoll loop over all of their listeners and connections, and
//! drives every per-node Arrow core, handshake state machine, timer, and send
//! buffer under one lock. Thread count is `O(shards)`, not `O(nodes)`, which
//! is what lets one process host ≥1024 nodes.
//!
//! Control (crash, epoch, shutdown) and frames between shards of one runtime
//! travel through each shard's [`Inbox`], woken via an eventfd; a client's
//! acquire or release does too whenever its shard is busy. A socket
//! exists only toward a node *another process* hosts.
//!
//! # Who runs a cycle
//!
//! A shard is a `Mutex<Shard>`, and a *cycle* is one pass under that lock.
//! Two kinds of thread run cycles:
//!
//! * **The shard thread** parks in `epoll_wait` *without* the lock, on the
//!   shared `netpoll::Poller`. When readiness, its eventfd or a timer wakes
//!   it, it takes the lock and runs [`Shard::cycle`]: socket events, the
//!   inbox, due timers, then quiescence, outboxes and socket flushes. Before
//!   it parks again it records the deadline it will sleep toward
//!   ([`Shard::park`]).
//! * **A client thread** whose `Acquire` or `Release` finds the lock free
//!   (`try_lock`) runs [`Shard::inline_cycle`] itself instead of queueing the
//!   command and writing the eventfd: it takes whatever the inbox already
//!   holds, handles its own command, runs to quiescence, hands the outboxes
//!   over and flushes the sockets. On one shard the grant then lands in the
//!   client's own channel without a single context switch. A client that
//!   finds the lock held queues its command as before.
//!
//! Three rules keep the two paths indistinguishable to the protocol:
//!
//! 1. **Drain first.** An inline cycle runs the inbox's commands ahead of its
//!    own, so a client whose release queued behind a busy shard and whose
//!    next acquire ran inline still has them handled in issue order.
//! 2. **Wake on an earlier deadline.** Only the shard thread pops the timer
//!    wheel. An inline cycle that arms an entry due before the deadline the
//!    parked thread sleeps toward writes the eventfd, so injected latency,
//!    dial backoff and handshake deadlines fire on time.
//! 3. **Bootstrap before publishing.** Bootstrap dials run before the shard
//!    is reachable inline ([`publish`]): a client's `Traffic` dial toward the
//!    parent then finds the `Bootstrap` dial in place and stages its frame on
//!    it, instead of having its staged frame overwritten by it.
//!
//! Everything but a client's own `Acquire` and `Release` always queues:
//! `Shutdown`, a sibling's `Frames` and `Done`, and the fault and epoch
//! commands. An inline cycle may still *handle* any of them when it drains
//! the inbox; the shard thread's next cycle sees their effect (a shutdown
//! under way, a sibling's marker counted) because it lives in the shard.
//!
//! Holding the lock across a grant's `reply.send` cannot block: every grant
//! channel is an unbounded `std::sync::mpsc` channel, so the send is a push,
//! never a wait for the receiver.
//!
//! # What a cycle pays besides the protocol
//!
//! * **Link faults are shard commands.** [`ShardCmd::Sever`] and
//!   [`ShardCmd::Restore`] reach the shards hosting either endpoint through
//!   their inboxes, as crash and restart do, and each shard keeps its few
//!   severed pairs in a plain `Vec`. A send probes that `Vec`, which is empty
//!   in a fault-free run; no lock and no hash is taken per frame.
//! * **Shard-owned counters.** Each shard writes its own metrics registry
//!   through a [`MetricsWriter`]: a relaxed load and store per count, exact
//!   because only the lock holder writes. `NetStats` sums the shards on read.
//! * **One clock read per cycle.** A cycle reads `Instant::now()` at its first
//!   use, and again only after it has taken in frames from outside the shard
//!   (an inbox [`ShardCmd::Frames`] batch, a socket read); only connection
//!   set-up and shutdown deadlines read their own. Issue times,
//!   [`Waiter`] stamps, order records' `informed_at` and [`Grant::wait`] all
//!   come from that one reading, so they are measured to cycle resolution and
//!   a successor's issue time is never later than the record that names it.
//! * **No inbox lock on an empty inbox.** The inbox keeps an atomic count of
//!   its queue, so a cycle that finds it zero skips the lock.
//!
//! # Delivery rule: sockets only at process boundaries
//!
//! [`Shard::deliver_frame`] picks the transport from one fact the spawn
//! manifest fixes ([`Siblings::shard_of`]): which shard of this runtime, if
//! any, hosts the destination node? The same entry names the node's slot in
//! that shard's node table, so a shard reaches a node's state by index and
//! hashes nothing on the per-hop path.
//!
//! * **This shard:** the frame is pushed onto the shard's in-memory FIFO
//!   (`localq`) and fed through [`Shard::on_frame`] in the same cycle.
//! * **Another shard of this runtime:** the frame is appended to that shard's
//!   outbox. After [`Shard::run_to_quiescence`] every non-empty outbox goes to
//!   its shard's inbox as one [`ShardCmd::Frames`] batch — one lock and one
//!   eventfd wake per destination shard per cycle — and the receiver feeds it
//!   through the same `on_frame`.
//! * **No shard of this runtime** (the `spawn_daemon`/`arrowd` case): the
//!   frame is staged on the link's socket, dialing it first if need be.
//!
//! `on_frame` is also where frames read off a socket land, so the
//! crashed-node drop, the `origin` bound check and the `UnexpectedFrames`
//! accounting are shared by all three paths. Everything upstream of the
//! choice in [`Shard::send_frame`] — the failed-node check, the severed-link
//! drop and the injected-latency timer wheel with its per-link FIFO — applies
//! to all of them unchanged. Both memory paths count as `LocalFrames`.
//!
//! **A pair hosted by one runtime never has a socket.** Neither a tree edge
//! nor a lazily dialed token channel is ever opened toward a hosted node (the
//! bootstrap and restart dials skip a hosted parent, and an inbound `Hello`
//! claiming a hosted id is refused), so a directed pair's frames always
//! travel one transport and per-link FIFO cannot be split: batches from one
//! shard to another enter the destination's inbox in send order and are
//! drained in order. Debug builds assert it wherever a dial starts or a link
//! is installed.
//!
//! **Crash drops incident frames.** A batch can sit in an inbox while either
//! endpoint of one of its frames crashes (and restarts). The wire lost such a
//! frame with the crashed node's sockets; the memory path keeps that rule with
//! a per-node incarnation counter ([`Siblings::incarnation`]) that the hosting
//! shard bumps on crash and again on restart. Each [`Hop`] carries both
//! endpoints' incarnations from send time, and while faults are armed a hop
//! whose stamp no longer matches is dropped and counted in `FramesDropped`.
//!
//! **Shutdown keeps `Goodbye` semantics.** A shard that begins shutdown
//! flushes its outboxes and then pushes one [`ShardCmd::Done`] marker to every
//! sibling; after that it sends siblings nothing (a frame it would send is
//! lost, as bytes staged behind a `Goodbye` are). It exits only once it holds
//! every sibling's marker and its sockets are closed, so every frame a sibling
//! sent before its marker is processed first, and no shard pushes into the
//! inbox of a shard that has exited.
//!
//! **Quiescence invariant.** Each cycle, inline or not, ends with
//! [`Shard::run_to_quiescence`], which alternates dispatching dirty nodes'
//! core actions and draining `localq` until both are empty; only then are
//! outboxes handed over, sockets flushed and the lock released. `localq` and
//! the outboxes are therefore empty whenever nobody holds the lock, and the
//! work of one cycle is bounded by (commands + inbound frames taken this
//! cycle) × tree diameter.
//!
//! Handshakes are nonblocking state machines ([`ConnState`]): a dialer drives
//! `Connecting → AwaitWelcome → Established`, an acceptor `AwaitHello →
//! Established`.
//!
//! **Links are one-way.** A node stages its `queue()` and token frames toward
//! a peer only on the connection it dialed to that peer (`NodeState::links`),
//! and reads the peer's frames on the connection it accepted; `Hello`,
//! `Welcome` and `Goodbye` are the only frames that cross the other way. Each
//! directed pair is one stream, so its FIFO is the socket's, and two nodes
//! dialing each other at once open two streams instead of competing for one.
//! A live peer holds at most one dialed connection to a node, so a `Hello`
//! from a peer that already has an established inbound connection here cuts
//! the older one: it belongs to a crashed incarnation, whose frames die with
//! it, or to a dial abandoned before `Welcome`, which carried none.

use std::collections::{vec_deque, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::mem;
use std::net::Shutdown;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use arrow_core::host::RunJournal;
use arrow_core::live::{ArrowCore, CoreAction};
use arrow_core::prelude::{ObjectId, OrderRecord, ProtoMsg, Request, RequestId};
use arrow_trace::{HistMetric, Metric, MetricsWriter, Probe, ProbeEvent};
use desim::{SimTime, SUBTICKS_PER_UNIT};
use netgraph::{NodeId, RootedTree};

use crate::mesh::{DelayPolicy, NetConfig, HANDSHAKE_TIMEOUT, RECV_BUF_INIT};
use crate::runtime::{Grant, NetFailure};
use crate::socket::{Listener, PeerAddr, Stream};
use crate::wheel::TimerWheel;
use crate::wire::{Frame, MAX_FRAME_LEN};

/// Poll token reserved for the shard's inbox eventfd waker.
const WAKER_TOKEN: u64 = u64::MAX;
/// Base backoff between dial retries (scaled by attempt number).
const DIAL_BACKOFF: Duration = Duration::from_millis(5);
/// Hard deadline for graceful shutdown before remaining sockets are cut.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);
/// Max `read(2)` calls per readiness event before yielding to other sockets.
const READS_PER_EVENT: usize = 16;

/// A command injected into a shard from outside its cycles.
pub(crate) enum ShardCmd {
    /// Issue an acquire on `node` for `obj`; the grant goes to `reply`.
    Acquire {
        node: NodeId,
        obj: ObjectId,
        reply: Sender<Grant>,
    },
    /// Release the token for `obj` held by `node` under request `req`.
    Release {
        node: NodeId,
        obj: ObjectId,
        req: RequestId,
    },
    /// Protocol frames a sibling shard addressed to this shard's nodes during
    /// one of its cycles, in send order.
    Frames(Vec<Hop>),
    /// A sibling shard has begun shutdown and sends this shard nothing more.
    Done,
    /// Fault injection: crash `node` (sever sockets, reboot core).
    Crash { node: NodeId },
    /// Fault injection: restart a crashed `node`.
    Restart { node: NodeId },
    /// Fault injection: drop every frame between `u` and `v`, both ways, that
    /// this shard's nodes send until the matching [`ShardCmd::Restore`].
    Sever { u: NodeId, v: NodeId },
    /// Fault injection: heal the link between `u` and `v`.
    Restore { u: NodeId, v: NodeId },
    /// Adopt recovery epoch `epoch` on every node of this shard.
    Epoch { epoch: u64 },
    /// Begin graceful shutdown of the shard.
    Shutdown,
}

/// The cross-thread mailbox of one shard: a locked queue plus an eventfd that
/// pulls the shard out of `epoll_wait` when a command lands.
pub(crate) struct Inbox {
    queue: Mutex<VecDeque<ShardCmd>>,
    /// `queue.len()`, stored under the queue's lock, so a cycle that reads
    /// zero skips the lock. A sender that pushes after that read has woken
    /// the shard (or, for a client's own command, runs after it), so the
    /// command is taken by the next cycle.
    len: AtomicUsize,
    waker: netpoll::Waker,
    /// Set by the shard as it exits; late senders see `send` return `false`.
    closed: AtomicBool,
}

impl Inbox {
    fn new() -> Arc<Self> {
        Arc::new(Inbox {
            queue: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
            waker: netpoll::Waker::new().expect("eventfd waker"),
            closed: AtomicBool::new(false),
        })
    }

    /// Enqueue `cmd` and wake the shard. Returns `false` if the shard has
    /// already drained its inbox for the last time and exited.
    fn send(&self, cmd: ShardCmd) -> bool {
        // The closed check happens before the push: once `closed` is set the
        // shard never locks the queue again, so a command enqueued after a
        // `true` load here may be dropped — callers treat `false` (and only
        // `false`) as "runtime has shut down".
        if self.closed.load(Ordering::Acquire) {
            return false;
        }
        let first = {
            let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
            queue.push_back(cmd);
            self.len.store(queue.len(), Ordering::Release);
            queue.len() == 1
        };
        // A non-empty queue has a wake-up pending already: the shard thread
        // drains the eventfd before it takes the queue, so whoever made the
        // queue non-empty after the last take has woken it. An inline cycle
        // takes the queue without touching the eventfd, which can only leave
        // a spurious wake-up behind, never a missing one.
        if first {
            let _ = self.waker.wake();
        }
        true
    }
}

/// What a client handle sees of its shard besides the inbox: the shard's
/// lock, to run a command on the caller's thread when nobody holds it.
trait Inline: Send + Sync {
    /// Run `cmd` in an inline cycle if the shard is idle; hand it back if
    /// another thread holds the shard. `Ok(false)` means the shard has exited.
    fn try_inline(&self, cmd: ShardCmd) -> Result<bool, ShardCmd>;

    /// Run `f` while holding the shard's lock, waiting for it if need be.
    fn locked(&self, f: &mut dyn FnMut());
}

impl<P: Probe> Inline for Mutex<Shard<P>> {
    fn try_inline(&self, cmd: ShardCmd) -> Result<bool, ShardCmd> {
        match self.try_lock() {
            Ok(mut shard) => Ok(shard.inline_cycle(cmd)),
            Err(TryLockError::Poisoned(shard)) => Ok(shard.into_inner().inline_cycle(cmd)),
            Err(TryLockError::WouldBlock) => Err(cmd),
        }
    }

    fn locked(&self, f: &mut dyn FnMut()) {
        let _shard = lock(self);
        f();
    }
}

/// A cheap cloneable handle for injecting commands into one shard.
#[derive(Clone)]
pub(crate) struct ShardInjector {
    inbox: Arc<Inbox>,
    shard: Arc<dyn Inline>,
}

impl std::fmt::Debug for ShardInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ShardInjector")
    }
}

impl ShardInjector {
    /// Queue `cmd` on the shard's inbox and wake the shard thread. Returns
    /// `false` if the shard has exited.
    pub(crate) fn send(&self, cmd: ShardCmd) -> bool {
        self.inbox.send(cmd)
    }

    /// A client command (`Acquire`, `Release`): run it on the calling thread
    /// if the shard is idle, queue it as [`send`](ShardInjector::send) does
    /// otherwise. Returns `false` if the shard has exited.
    pub(crate) fn submit(&self, cmd: ShardCmd) -> bool {
        debug_assert!(matches!(
            cmd,
            ShardCmd::Acquire { .. } | ShardCmd::Release { .. }
        ));
        match self.shard.try_inline(cmd) {
            Ok(live) => live,
            Err(cmd) => self.inbox.send(cmd),
        }
    }

    /// Run `f` under the shard's lock. Every grant is sent under that lock,
    /// so no grant lands on a channel while `f` runs.
    pub(crate) fn under_lock(&self, f: &mut dyn FnMut()) {
        self.shard.locked(f);
    }
}

/// A protocol frame from one shard of a runtime to another, stamped with both
/// endpoints' incarnations at send time ([`Siblings::stamp`]).
pub(crate) struct Hop {
    to: NodeId,
    from: NodeId,
    frame: Frame,
    stamp: u64,
}

/// What the shards of one runtime share about each other, fixed when they are
/// spawned.
pub(crate) struct Siblings {
    /// Where each node lives, from the spawn manifest: `(shard, slot)`, the
    /// shard of this runtime hosting it and its index in that shard's node
    /// table (`v / shards` under `spawn_multi`'s round-robin placement, 0 for
    /// a daemon's one node); `None` for a node another process hosts, reached
    /// over a socket.
    shard_of: Vec<Option<(usize, usize)>>,
    /// Every shard's inbox, by shard index.
    inboxes: Vec<Arc<Inbox>>,
    /// Per-node incarnation, bumped by the hosting shard when the node crashes
    /// and again when it restarts (release; read with acquire).
    incarnation: Vec<AtomicU32>,
}

impl Siblings {
    /// Index the manifest `shard_nodes` (node seeds by shard) of a directory
    /// of `n` nodes, with one fresh inbox per shard.
    fn new<P: Probe>(n: usize, shard_nodes: &[Vec<NodeSeed<P>>]) -> Arc<Self> {
        let mut shard_of = vec![None; n];
        for (s, nodes) in shard_nodes.iter().enumerate() {
            for (slot, (v, _, _)) in nodes.iter().enumerate() {
                shard_of[*v] = Some((s, slot));
            }
        }
        Arc::new(Siblings {
            shard_of,
            inboxes: shard_nodes.iter().map(|_| Inbox::new()).collect(),
            incarnation: (0..n).map(|_| AtomicU32::new(0)).collect(),
        })
    }

    /// Start node `v`'s next incarnation (it crashed, or restarted).
    fn bump_incarnation(&self, v: NodeId) {
        self.incarnation[v].fetch_add(1, Ordering::Release);
    }

    /// Both endpoints' current incarnations in one word.
    fn stamp(&self, from: NodeId, to: NodeId) -> u64 {
        let inc = |v: NodeId| u64::from(self.incarnation[v].load(Ordering::Acquire));
        (inc(from) << 32) | inc(to)
    }
}

/// One slab slot: a generation counter (folded into poll tokens so stale
/// epoll events for a reused slot are ignored) plus the event source.
struct SlabEntry {
    gen: u32,
    src: Option<Source>,
}

/// Anything a shard registers with its poller.
enum Source {
    /// A node's accept socket.
    Listener { node: NodeId, listener: Listener },
    /// A live or in-handshake connection.
    Conn(Box<Conn>),
}

/// Handshake progression of a connection.
#[derive(Clone, Copy, PartialEq)]
enum ConnState {
    /// Dialer: `connect(2)` in flight, waiting for writability.
    Connecting,
    /// Dialer: `Hello` sent, waiting for the peer's `Welcome`.
    AwaitWelcome,
    /// Acceptor: waiting for the peer's `Hello`.
    AwaitHello,
    /// Handshake complete; protocol frames flow.
    Established,
}

/// Per-connection state: socket, framing buffer, send buffer, lifecycle.
struct Conn {
    stream: Stream,
    /// The local node that owns this endpoint.
    node: NodeId,
    /// The remote node, once known (dialers know at creation, acceptors after
    /// `Hello`).
    peer: Option<NodeId>,
    /// Whether this endpoint initiated the connection: only a dialed one
    /// carries the node's protocol frames (see the module docs).
    dialed: bool,
    state: ConnState,
    /// Read buffer; frames are scanned out of `buf[start..end]`.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    out: SendBuf,
    /// Last interest registered with the poller (read, write).
    interest: (bool, bool),
    /// Peer sent `Goodbye`: no more inbound frames expected.
    peer_closed: bool,
    /// Half-close the write side once `out` fully flushes.
    close_write_after_flush: bool,
    /// Write side has been shut down.
    write_closed: bool,
    /// Already queued in the shard's flush list this cycle.
    in_flushq: bool,
}

/// A connection's pending outbound bytes, with frame accounting for the
/// write-batch histogram.
struct SendBuf {
    buf: Vec<u8>,
    written: usize,
    frames: u64,
}

impl SendBuf {
    fn new() -> Self {
        SendBuf {
            buf: Vec::new(),
            written: 0,
            frames: 0,
        }
    }

    fn stage(&mut self, frame: &Frame) {
        frame.encode_into(&mut self.buf);
        self.frames += 1;
    }
}

enum FlushOutcome {
    Done,
    Blocked,
    Dead(io::Error),
}

/// Write as much of `c.out` as the socket accepts right now.
fn flush_send_buf(c: &mut Conn, stats: &mut MetricsWriter) -> FlushOutcome {
    while c.out.written < c.out.buf.len() {
        match (&c.stream).write(&c.out.buf[c.out.written..]) {
            Ok(0) => return FlushOutcome::Dead(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                stats.inc(Metric::SocketWrites);
                stats.add(Metric::BytesSent, n as u64);
                c.out.written += n;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                stats.inc(Metric::WouldBlockRetries);
                return FlushOutcome::Blocked;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return FlushOutcome::Dead(e),
        }
    }
    if c.out.frames > 0 {
        stats.add(Metric::FramesSent, c.out.frames);
        stats.observe(HistMetric::WriteBatchFrames, c.out.frames);
    }
    c.out.buf.clear();
    c.out.written = 0;
    c.out.frames = 0;
    FlushOutcome::Done
}

/// Why a node started a dial; decides how a final dial failure is handled.
#[derive(Clone, Copy, PartialEq)]
enum DialIntent {
    /// Initial parent dial at startup: failure fails the node.
    Bootstrap,
    /// Re-dial of the parent after a restart: failure is ignored.
    Restart,
    /// Dial carrying protocol traffic: failure drops or fails per config.
    Traffic,
}

/// A dial in flight: frames staged for the link pile up here until the
/// handshake completes.
struct PendingDial {
    /// Slab index of the connecting socket, if one is currently open.
    conn: Option<usize>,
    frames: Vec<Frame>,
    attempt: u32,
    intent: DialIntent,
}

/// Injected-latency state for one directed link.
struct LinkDelay {
    policy: DelayPolicy,
    /// Running maximum of scheduled due times, enforcing per-link FIFO.
    last_due: Instant,
}

/// An acquire in flight at its node.
struct Waiter {
    obj: ObjectId,
    req: RequestId,
    reply: Sender<Grant>,
    issued: Instant,
}

impl Waiter {
    /// Fail the acquire at `node` with `failure`, at cycle time `now`.
    fn fail(self, node: NodeId, failure: NetFailure, now: Instant) {
        let _ = self.reply.send(Grant {
            node,
            obj: self.obj,
            result: Err(failure),
            wait: now.saturating_duration_since(self.issued),
        });
    }
}

/// A node's acquires in flight, awaiting their `Granted` actions. A node
/// issues request ids in increasing order, so the queue stays sorted by id
/// and a grant finds its waiter by binary search.
#[derive(Default)]
struct Waiters(VecDeque<Waiter>);

impl Waiters {
    fn push(&mut self, w: Waiter) {
        debug_assert!(
            self.0.back().is_none_or(|last| last.req < w.req),
            "request ids are issued in increasing order"
        );
        self.0.push_back(w);
    }

    fn position(&self, obj: ObjectId, req: RequestId) -> Option<usize> {
        let i = self.0.binary_search_by_key(&req, |w| w.req).ok()?;
        (self.0[i].obj == obj).then_some(i)
    }

    /// Remove and return the waiter of `(obj, req)`, if any.
    fn take(&mut self, obj: ObjectId, req: RequestId) -> Option<Waiter> {
        self.position(obj, req).and_then(|i| self.0.remove(i))
    }

    fn contains(&self, obj: ObjectId, req: RequestId) -> bool {
        self.position(obj, req).is_some()
    }

    /// Remove every waiter, oldest first.
    fn drain(&mut self) -> vec_deque::Drain<'_, Waiter> {
        self.0.drain(..)
    }
}

/// Everything one node carries inside its shard.
struct NodeState<P: Probe> {
    me: NodeId,
    core: ArrowCore<P>,
    /// Scratch buffer for core actions (reused across dispatches).
    actions: Vec<CoreAction>,
    waiting: Waiters,
    failed: Option<NetFailure>,
    crashed: bool,
    /// By peer: the established connection (slab index) this node dialed,
    /// the one it sends its protocol frames on, and its dials in flight.
    /// Only toward nodes another process hosts, so empty unless in daemon
    /// mode.
    links: HashMap<NodeId, usize>,
    pending: HashMap<NodeId, PendingDial>,
    /// Injected-latency streams by peer: empty unless latency is injected.
    delay: HashMap<NodeId, LinkDelay>,
    /// Core actions are pending dispatch (node is queued in `dirtyq`).
    dirty: bool,
}

/// A timer wheel entry.
enum TimerEntry {
    /// Injected-latency release of one frame from the node in `slot` toward
    /// `peer`.
    FlushFrame {
        slot: usize,
        peer: NodeId,
        frame: Frame,
        due: Instant,
    },
    /// Backoff expiry for a failed dial attempt.
    RetryDial { node: NodeId, peer: NodeId },
    /// Handshake deadline for the connection behind `token`.
    ConnDeadline { token: u64 },
    /// Graceful-shutdown grace period expired: cut remaining sockets.
    ShutdownDeadline,
}

/// Immutable state shared by every shard, built once by the runtime.
#[derive(Clone)]
pub(crate) struct ReactorShared {
    pub(crate) cfg: NetConfig,
    pub(crate) tree: Arc<RootedTree>,
    /// Advertised address of every node, for dialing the nodes another
    /// process hosts; empty when this runtime hosts them all.
    pub(crate) addrs: Arc<Vec<PeerAddr>>,
    /// Set once a fault handle exists: only then can a cross-shard hop carry
    /// a stale incarnation stamp, so only then is the stamp checked.
    pub(crate) faults_armed: Arc<AtomicBool>,
    /// Wall-clock origin for journal timestamps and the timer wheels.
    pub(crate) epoch0: Instant,
}

/// One node's slice of the spawn manifest: its id, protocol core, and — for a
/// node that peers in other processes dial — its bound listener.
pub(crate) type NodeSeed<P> = (NodeId, ArrowCore<P>, Option<Listener>);

/// A shard thread's join handle; joining yields the shard's journal and the
/// transport failures its nodes observed.
pub(crate) type ShardJoin = JoinHandle<(RunJournal, Vec<NetFailure>)>;

/// Spawn the shard threads. `shard_nodes[s]` lists the nodes shard `s` owns
/// and `stats[s]` is the metrics writer it owns; every node of the tree that
/// no shard lists is hosted by another process. Returns one injector per
/// shard plus the join handles (each yields the shard's journal).
pub(crate) fn spawn_shards<P: Probe>(
    shared: &ReactorShared,
    shard_nodes: Vec<Vec<NodeSeed<P>>>,
    stats: Vec<MetricsWriter>,
) -> (Vec<ShardInjector>, Vec<ShardJoin>) {
    debug_assert_eq!(shard_nodes.len(), stats.len(), "one writer per shard");
    let siblings = Siblings::new(shared.tree.node_count(), &shard_nodes);
    let mut injectors = Vec::with_capacity(shard_nodes.len());
    let mut threads = Vec::with_capacity(shard_nodes.len());
    for (s, (nodes, stats)) in shard_nodes.into_iter().zip(stats).enumerate() {
        let shard = Shard::new(shared, Arc::clone(&siblings), s, nodes, stats);
        let (cell, injector) = publish(shard);
        injectors.push(injector);
        threads.push(
            std::thread::Builder::new()
                .name(format!("arrow-net-shard-{s}"))
                .spawn(move || run(&cell))
                .expect("spawn shard thread"),
        );
    }
    (injectors, threads)
}

/// Bootstrap `shard`, then make it reachable: behind its lock, with the
/// injector client handles submit through. Bootstrap comes first because
/// once a client can run an inline cycle, a `Traffic` dial it starts toward
/// the tree parent would be overwritten by a later `Bootstrap` dial,
/// losing the frame staged on it.
fn publish<P: Probe>(mut shard: Shard<P>) -> (Arc<Mutex<Shard<P>>>, ShardInjector) {
    shard.bootstrap();
    let inbox = Arc::clone(&shard.inbox);
    let cell = Arc::new(Mutex::new(shard));
    let injector = ShardInjector {
        inbox,
        shard: Arc::clone(&cell) as Arc<dyn Inline>,
    };
    (cell, injector)
}

/// Take a shard's lock, whoever poisoned it.
fn lock<P: Probe>(cell: &Mutex<Shard<P>>) -> MutexGuard<'_, Shard<P>> {
    cell.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The shard thread: park in `epoll_wait` without the lock, then take the
/// lock for one cycle over whatever woke it. Returns [`Shard::finish`].
fn run<P: Probe>(cell: &Mutex<Shard<P>>) -> (RunJournal, Vec<NetFailure>) {
    let (poller, mut timeout) = {
        let mut shard = lock(cell);
        (Arc::clone(&shard.poller), shard.park())
    };
    let mut events = Vec::new();
    let mut due = Vec::new();
    loop {
        // `wait` leaves `events` empty on failure, so nothing stale is
        // replayed; commands and timers in the cycle still make progress.
        let waited = poller.wait(&mut events, timeout);
        let mut shard = lock(cell);
        if waited.is_err() {
            shard.stats.inc(Metric::PollErrors);
        }
        if shard.cycle(&events, &mut due) {
            return shard.finish();
        }
        timeout = shard.park();
    }
}

/// One reactor shard: the state of one event loop over a subset of nodes, run
/// one cycle at a time by whichever thread holds its lock (see the module
/// docs).
struct Shard<P: Probe> {
    cfg: NetConfig,
    tree: Arc<RootedTree>,
    addrs: Arc<Vec<PeerAddr>>,
    /// This shard's metrics registry, which only the lock holder writes.
    stats: MetricsWriter,
    /// Normalized `(min, max)` pairs of the links severed by fault injection
    /// ([`ShardCmd::Sever`]); empty in a fault-free run.
    severed: Vec<(NodeId, NodeId)>,
    faults_armed: Arc<AtomicBool>,
    epoch0: Instant,
    /// The cycle's clock reading (see the module docs): `None` until first
    /// used since the cycle began or last took in frames from outside.
    clock: Option<Instant>,
    /// Shared with the shard thread, which waits on it without the lock.
    poller: Arc<netpoll::Poller>,
    /// The deadline the shard thread last parked toward (`None`: no timer
    /// armed, so it sleeps until woken). See the wake rule in the module
    /// docs.
    parked_until: Option<Instant>,
    slab: Vec<SlabEntry>,
    free: Vec<usize>,
    /// This shard's nodes by slot ([`Siblings::shard_of`]), in node-id order.
    nodes: Vec<NodeState<P>>,
    wheel: TimerWheel<TimerEntry>,
    /// This shard's index among its siblings.
    id: usize,
    siblings: Arc<Siblings>,
    inbox: Arc<Inbox>,
    /// Connections (by token) with staged bytes to flush this cycle.
    flushq: Vec<u64>,
    /// Slots of the nodes with undispatched core actions this cycle.
    dirtyq: Vec<usize>,
    /// Frames between two nodes of this shard awaiting in-memory delivery, as
    /// `(slot of to, from, frame)`. Empty at every `epoll_wait` (see the
    /// module docs).
    localq: VecDeque<(usize, NodeId, Frame)>,
    /// Frames for each sibling shard's nodes, handed over once per cycle.
    outbox: Vec<Vec<Hop>>,
    /// Scratch for the frames scanned out of one readiness event.
    scanned: Vec<Frame>,
    /// What this shard's nodes issued and were told of, in (time, id) order
    /// as written (see the runtime's module docs), and their failures.
    journal: RunJournal,
    failures: Vec<NetFailure>,
    shutting_down: bool,
    shutdown_forced: bool,
    /// This shard has pushed its `Done` marker to every sibling.
    said_done: bool,
    /// Siblings whose `Done` marker this shard has taken.
    siblings_done: usize,
}

impl<P: Probe> Shard<P> {
    fn new(
        shared: &ReactorShared,
        siblings: Arc<Siblings>,
        id: usize,
        owned: Vec<NodeSeed<P>>,
        stats: MetricsWriter,
    ) -> Self {
        let inbox = Arc::clone(&siblings.inboxes[id]);
        let poller = Arc::new(netpoll::Poller::new().expect("epoll instance"));
        poller
            .register(inbox.waker.as_raw_fd(), WAKER_TOKEN, true, false)
            .expect("register waker");
        let mut shard = Shard {
            cfg: shared.cfg,
            tree: Arc::clone(&shared.tree),
            addrs: Arc::clone(&shared.addrs),
            stats,
            severed: Vec::new(),
            faults_armed: Arc::clone(&shared.faults_armed),
            epoch0: shared.epoch0,
            clock: None,
            poller,
            parked_until: None,
            slab: Vec::new(),
            free: Vec::new(),
            nodes: Vec::with_capacity(owned.len()),
            wheel: TimerWheel::new(shared.epoch0),
            id,
            outbox: siblings.inboxes.iter().map(|_| Vec::new()).collect(),
            siblings,
            inbox,
            flushq: Vec::new(),
            dirtyq: Vec::new(),
            localq: VecDeque::new(),
            scanned: Vec::new(),
            journal: RunJournal::default(),
            failures: Vec::new(),
            shutting_down: false,
            shutdown_forced: false,
            said_done: false,
            siblings_done: 0,
        };
        for (v, core, listener) in owned {
            if let Some(listener) = listener {
                listener
                    .set_nonblocking(true)
                    .expect("nonblocking listener");
                let fd = listener.as_raw_fd();
                let (_, tok) = shard.slab_insert(Source::Listener { node: v, listener });
                shard
                    .poller
                    .register(fd, tok, true, false)
                    .expect("register listener");
            }
            shard.nodes.push(NodeState {
                me: v,
                core,
                actions: Vec::new(),
                waiting: Waiters::default(),
                failed: None,
                crashed: false,
                links: HashMap::new(),
                pending: HashMap::new(),
                delay: HashMap::new(),
                dirty: false,
            });
        }
        shard
    }

    /// Node `v`'s slot in this shard's node table. Placement is fixed at
    /// spawn, and every command, timer, connection and frame a shard handles
    /// names a node of that shard.
    fn slot(&self, v: NodeId) -> usize {
        let (shard, slot) = self.siblings.shard_of[v].expect("hosted node");
        debug_assert_eq!(shard, self.id, "node {v} reached a shard not hosting it");
        slot
    }

    fn node_mut(&mut self, v: NodeId) -> &mut NodeState<P> {
        let slot = self.slot(v);
        &mut self.nodes[slot]
    }

    // ---- slab --------------------------------------------------------------

    /// Insert an event source, returning its slot index and poll token. The
    /// token packs `(generation << 32) | index` so a stale event for a reused
    /// slot fails to resolve instead of hitting the wrong connection.
    fn slab_insert(&mut self, src: Source) -> (usize, u64) {
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slab.push(SlabEntry { gen: 0, src: None });
                self.slab.len() - 1
            }
        };
        let entry = &mut self.slab[idx];
        entry.gen = entry.gen.wrapping_add(1);
        entry.src = Some(src);
        (idx, ((entry.gen as u64) << 32) | idx as u64)
    }

    /// Remove and return the source at `idx`, deregistering its fd.
    fn slab_remove(&mut self, idx: usize) -> Source {
        let src = self.slab[idx].src.take().expect("slab slot occupied");
        let fd = match &src {
            Source::Listener { listener, .. } => listener.as_raw_fd(),
            Source::Conn(c) => c.stream.as_raw_fd(),
        };
        let _ = self.poller.deregister(fd);
        self.free.push(idx);
        src
    }

    /// Remove the source at `idx`, cutting a connection's socket both ways.
    fn cut(&mut self, idx: usize) {
        if let Source::Conn(c) = self.slab_remove(idx) {
            let _ = c.stream.shutdown(Shutdown::Both);
        }
    }

    /// [`cut`](Shard::cut) every source `pick` selects.
    fn cut_where(&mut self, pick: impl Fn(&Source) -> bool) {
        let picked: Vec<usize> = (0..self.slab.len())
            .filter(|&i| self.slab[i].src.as_ref().is_some_and(&pick))
            .collect();
        for idx in picked {
            self.cut(idx);
        }
    }

    /// Map a poll token back to a live slab index, or `None` if stale.
    fn resolve(&self, token: u64) -> Option<usize> {
        if token == WAKER_TOKEN {
            return None;
        }
        let idx = (token & 0xFFFF_FFFF) as usize;
        let gen = (token >> 32) as u32;
        if idx < self.slab.len() && self.slab[idx].gen == gen && self.slab[idx].src.is_some() {
            Some(idx)
        } else {
            None
        }
    }

    /// The current token of an occupied slot.
    fn token_of(&self, idx: usize) -> u64 {
        ((self.slab[idx].gen as u64) << 32) | idx as u64
    }

    fn conn(&self, idx: usize) -> &Conn {
        match self.slab[idx].src.as_ref().expect("occupied") {
            Source::Conn(c) => c,
            Source::Listener { .. } => panic!("slot {idx} is a listener"),
        }
    }

    fn conn_mut(&mut self, idx: usize) -> &mut Conn {
        match self.slab[idx].src.as_mut().expect("occupied") {
            Source::Conn(c) => c,
            Source::Listener { .. } => panic!("slot {idx} is a listener"),
        }
    }

    // ---- loop --------------------------------------------------------------

    /// The cycle's clock: read at first use, then reused until the cycle
    /// takes in frames from outside (see the module docs).
    fn clock(&mut self) -> Instant {
        *self.clock.get_or_insert_with(Instant::now)
    }

    /// The cycle's clock as journal time, since the runtime's origin.
    fn journal_time(&mut self) -> SimTime {
        let since = self.clock().saturating_duration_since(self.epoch0);
        SimTime::from_subticks((since.as_secs_f64() * SUBTICKS_PER_UNIT as f64) as u64)
    }

    fn mark_dirty(&mut self, slot: usize) {
        let node = &mut self.nodes[slot];
        if !node.dirty {
            node.dirty = true;
            self.dirtyq.push(slot);
        }
    }

    /// Bootstrap: every non-root node dials its tree parent — unless this
    /// runtime hosts the parent too, in which case the edge needs no socket.
    fn bootstrap(&mut self) {
        for slot in 0..self.nodes.len() {
            let v = self.nodes[slot].me;
            if let Some(p) = self.tree.parent(v) {
                if self.siblings.shard_of[p].is_none() {
                    self.start_dial(v, p, DialIntent::Bootstrap, Vec::new());
                }
            }
        }
    }

    /// Record the deadline the shard thread is about to park toward and
    /// return its `epoll_wait` timeout.
    fn park(&mut self) -> Option<Duration> {
        debug_assert!(
            self.localq.is_empty() && self.outbox.iter().all(Vec::is_empty),
            "memory paths drained before the wait"
        );
        self.parked_until = self.wheel.next_due();
        self.parked_until
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// One cycle of the shard thread over the readiness `events` it woke
    /// with. Returns whether the shard is done and may exit.
    fn cycle(&mut self, events: &[netpoll::Event], due: &mut Vec<TimerEntry>) -> bool {
        self.clock = None;
        self.stats.inc(Metric::ReactorWakeups);
        self.stats
            .observe(HistMetric::EventsPerWakeup, events.len() as u64);
        for ev in events {
            if ev.token == WAKER_TOKEN {
                self.inbox.waker.drain();
                continue;
            }
            if ev.readable {
                if let Some(idx) = self.resolve(ev.token) {
                    self.handle_readable(idx);
                }
            }
            // Re-resolve: the readable half may have closed the conn.
            if ev.writable {
                if let Some(idx) = self.resolve(ev.token) {
                    self.handle_writable(idx);
                }
            }
        }
        self.drain_inbox();
        if !self.wheel.is_empty() {
            let now = self.clock();
            self.wheel.pop_due(now, due);
        }
        for entry in due.drain(..) {
            self.handle_timer(entry);
        }
        self.run_to_quiescence();
        self.flush_outboxes();
        self.flush_sockets();
        if !self.shutting_down {
            return false;
        }
        if self.shutdown_forced {
            self.cut_where(|src| matches!(src, Source::Conn(_)));
        }
        self.may_exit()
    }

    /// A client thread's cycle (see the module docs): whatever the inbox
    /// already holds, then the client's own command, then everything they
    /// provoke, exactly as the shard thread would run them. Returns `false`
    /// if the shard has exited.
    fn inline_cycle(&mut self, cmd: ShardCmd) -> bool {
        if self.inbox.closed.load(Ordering::Acquire) {
            return false;
        }
        self.clock = None;
        self.stats.inc(Metric::InlineCycles);
        self.drain_inbox();
        self.handle_cmd(cmd);
        self.run_to_quiescence();
        self.flush_outboxes();
        self.flush_sockets();
        // The wake rule: a timer armed ahead of the parked thread's deadline
        // would otherwise wait for an unrelated wake-up.
        if let Some(due) = self.wheel.next_due() {
            if self.parked_until.is_none_or(|parked| due < parked) {
                self.parked_until = Some(due);
                let _ = self.inbox.waker.wake();
            }
        }
        true
    }

    /// Write out every connection staged on this cycle.
    fn flush_sockets(&mut self) {
        for tok in mem::take(&mut self.flushq) {
            if let Some(idx) = self.resolve(tok) {
                self.conn_mut(idx).in_flushq = false;
                self.flush_conn(idx);
            }
        }
    }

    /// Whether a shutting-down shard is done: its sockets are closed and
    /// every sibling's `Done` marker is in, so nothing more can arrive — or
    /// the shutdown grace period has expired and whatever was left is cut.
    fn may_exit(&self) -> bool {
        let live = self
            .slab
            .iter()
            .any(|e| matches!(e.src, Some(Source::Conn(_))));
        !live && (self.shutdown_forced || self.siblings_done + 1 == self.siblings.inboxes.len())
    }

    /// Close the inbox and hand back the shard's journal and failures.
    fn finish(&mut self) -> (RunJournal, Vec<NetFailure>) {
        self.inbox.closed.store(true, Ordering::Release);
        for node in self.nodes.drain(..) {
            self.stats
                .add(Metric::StaleEpochDrops, node.core.stale_drops());
        }
        (mem::take(&mut self.journal), mem::take(&mut self.failures))
    }

    /// Take every command queued in the inbox and handle them in order.
    fn drain_inbox(&mut self) {
        if self.inbox.len.load(Ordering::Acquire) == 0 {
            return;
        }
        let cmds = {
            let mut queue = self
                .inbox
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            self.inbox.len.store(0, Ordering::Release);
            mem::take(&mut *queue)
        };
        if !cmds.is_empty() {
            self.stats
                .observe(HistMetric::ShardQueueDepth, cmds.len() as u64);
        }
        for cmd in cmds {
            self.handle_cmd(cmd);
        }
    }

    /// Hand every sibling the frames this cycle addressed to its nodes, as
    /// one inbox command per sibling.
    fn flush_outboxes(&mut self) {
        for (s, hops) in self.outbox.iter_mut().enumerate() {
            if !hops.is_empty() {
                self.siblings.inboxes[s].send(ShardCmd::Frames(mem::take(hops)));
            }
        }
    }

    /// Alternate dispatching dirty nodes' core actions and delivering the
    /// same-shard frames those actions emit until neither is left. Every
    /// round moves each in-flight frame one tree hop, so the loop ends after
    /// at most a tree diameter of rounds per input taken this cycle.
    fn run_to_quiescence(&mut self) {
        while !(self.dirtyq.is_empty() && self.localq.is_empty()) {
            let mut dirty = mem::take(&mut self.dirtyq);
            for slot in dirty.drain(..) {
                if self.nodes[slot].dirty {
                    self.apply_actions(slot);
                }
            }
            // Keep the emptied buffer's capacity for the next round.
            dirty.append(&mut self.dirtyq);
            self.dirtyq = dirty;
            while let Some((slot, from, frame)) = self.localq.pop_front() {
                self.on_frame(slot, from, frame);
            }
        }
    }

    // ---- control plane -----------------------------------------------------

    fn handle_cmd(&mut self, cmd: ShardCmd) {
        match cmd {
            ShardCmd::Acquire { node, obj, reply } => self.cmd_acquire(node, obj, reply),
            ShardCmd::Release { node, obj, req } => {
                let slot = self.slot(node);
                let state = &mut self.nodes[slot];
                if state.crashed {
                    return;
                }
                state.core.on_release(obj, req, &mut state.actions);
                self.mark_dirty(slot);
            }
            ShardCmd::Frames(hops) => {
                // Frames from outside: whatever they provoke is stamped
                // after their senders' stamps.
                self.clock = None;
                let armed = self.faults_armed.load(Ordering::Relaxed);
                for Hop {
                    to,
                    from,
                    frame,
                    stamp,
                } in hops
                {
                    // An endpoint crashed (or restarted) since the send: the
                    // frame dies with that incarnation, as on the wire.
                    if armed && stamp != self.siblings.stamp(from, to) {
                        self.stats.inc(Metric::FramesDropped);
                        continue;
                    }
                    self.on_frame(self.slot(to), from, frame);
                }
            }
            ShardCmd::Done => self.siblings_done += 1,
            ShardCmd::Crash { node } => self.cmd_crash(node),
            ShardCmd::Restart { node } => self.cmd_restart(node),
            ShardCmd::Sever { u, v } => {
                let link = (u.min(v), u.max(v));
                if !self.severed.contains(&link) {
                    self.severed.push(link);
                }
            }
            ShardCmd::Restore { u, v } => {
                let link = (u.min(v), u.max(v));
                self.severed.retain(|&l| l != link);
            }
            ShardCmd::Epoch { epoch } => {
                for slot in 0..self.nodes.len() {
                    if !self.nodes[slot].crashed {
                        self.adopt_epoch(slot, epoch);
                    }
                }
            }
            ShardCmd::Shutdown => self.begin_shutdown(),
        }
    }

    fn cmd_acquire(&mut self, v: NodeId, obj: ObjectId, reply: Sender<Grant>) {
        let issued = self.clock();
        let time = self.journal_time();
        let slot = self.slot(v);
        let state = &mut self.nodes[slot];
        let refused = match &state.failed {
            _ if state.crashed => Some(NetFailure {
                node: v,
                description: "node is crashed (fault injection)".into(),
            }),
            failed => failed.clone(),
        };
        if let Some(failure) = refused {
            let _ = reply.send(Grant {
                node: v,
                obj,
                result: Err(failure),
                wait: Duration::ZERO,
            });
            return;
        }
        self.stats.inc(Metric::RequestsIssued);
        let req = state.core.acquire(obj, &mut state.actions);
        state.waiting.push(Waiter {
            obj,
            req,
            reply,
            issued,
        });
        self.journal.note_issue(Request {
            id: req,
            node: v,
            time,
            obj,
        });
        self.mark_dirty(slot);
    }

    fn cmd_crash(&mut self, v: NodeId) {
        let slot = self.slot(v);
        if self.nodes[slot].crashed {
            return;
        }
        // Sever every socket this node owns, bypassing close_conn bookkeeping
        // — the links/pending maps are wiped wholesale below.
        self.cut_where(|src| matches!(src, Source::Conn(c) if c.node == v));
        let now = self.clock();
        let state = &mut self.nodes[slot];
        state.links.clear();
        state.pending.clear();
        state.core.reboot();
        state.actions.clear();
        for w in state.waiting.drain() {
            w.fail(
                v,
                NetFailure {
                    node: v,
                    description: "node crashed (fault injection)".into(),
                },
                now,
            );
        }
        state.crashed = true;
        self.siblings.bump_incarnation(v);
    }

    fn cmd_restart(&mut self, v: NodeId) {
        let slot = self.slot(v);
        let state = &mut self.nodes[slot];
        if !state.crashed {
            return;
        }
        state.crashed = false;
        // A frame sent toward the crashed incarnation must not reach this one.
        self.siblings.bump_incarnation(v);
        if let Some(p) = self.tree.parent(v) {
            let state = &self.nodes[slot];
            if self.siblings.shard_of[p].is_none()
                && !state.links.contains_key(&p)
                && !state.pending.contains_key(&p)
            {
                self.start_dial(v, p, DialIntent::Restart, Vec::new());
            }
        }
    }

    fn adopt_epoch(&mut self, slot: usize, epoch: u64) {
        let state = &mut self.nodes[slot];
        let before = state.core.epoch();
        state.core.on_epoch(epoch, &mut state.actions);
        if state.core.epoch() > before {
            self.stats.inc(Metric::EpochsAdopted);
        }
        self.mark_dirty(slot);
    }

    // ---- core action dispatch ----------------------------------------------

    fn apply_actions(&mut self, slot: usize) {
        let v = self.nodes[slot].me;
        loop {
            let mut orphaned: Vec<(ObjectId, RequestId)> = Vec::new();
            let state = &mut self.nodes[slot];
            let actions = mem::take(&mut state.actions);
            state.dirty = false;
            if actions.is_empty() {
                return;
            }
            for action in &actions {
                match *action {
                    CoreAction::SendQueue {
                        to,
                        obj,
                        req,
                        origin,
                        epoch,
                    } => {
                        self.stats.inc(Metric::QueueFrames);
                        self.send_frame(
                            slot,
                            to,
                            Frame::Proto(ProtoMsg::Queue {
                                req,
                                obj,
                                origin,
                                epoch,
                            }),
                        );
                    }
                    CoreAction::SendToken {
                        to,
                        obj,
                        req,
                        epoch,
                    } => {
                        self.stats.inc(Metric::TokenFrames);
                        self.send_frame(slot, to, Frame::Token { obj, req, epoch });
                    }
                    CoreAction::Granted { obj, req } => {
                        let delivered = match self.nodes[slot].waiting.take(obj, req) {
                            Some(w) => {
                                let wait = self.clock().saturating_duration_since(w.issued);
                                let grant = Grant {
                                    node: v,
                                    obj,
                                    result: Ok(req),
                                    wait,
                                };
                                let sent = w.reply.send(grant).is_ok();
                                if sent {
                                    self.stats.inc(Metric::Acquisitions);
                                    self.stats
                                        .observe(HistMetric::AcquireNanos, wait.as_nanos() as u64);
                                }
                                sent
                            }
                            None => false,
                        };
                        // Nobody holds a grant whose waiter is gone (dropped
                        // by a crash/restart cycle) or stopped waiting (a
                        // timed-out `wait_timeout` dropped its receiver): the
                        // token goes straight back into the tree.
                        if !delivered {
                            orphaned.push((obj, req));
                        }
                    }
                    CoreAction::Queued {
                        obj,
                        pred,
                        succ,
                        origin,
                        epoch,
                    } => {
                        let at = self.journal_time();
                        self.journal.note_queued(OrderRecord {
                            predecessor: pred,
                            successor: succ,
                            obj,
                            at_node: v,
                            informed_at: at,
                            epoch,
                        });
                        let _ = origin;
                    }
                }
            }
            let state = &mut self.nodes[slot];
            let mut drained = actions;
            drained.clear();
            // Give the emptied buffer's capacity back to the node; actions
            // emitted during dispatch were pushed into the fresh Vec left by
            // mem::take and are carried over for the next pass.
            drained.append(&mut state.actions);
            state.actions = drained;
            if orphaned.is_empty() {
                if state.actions.is_empty() {
                    return;
                }
                continue;
            }
            for (obj, req) in orphaned {
                self.stats.inc(Metric::OrphanReleases);
                let state = &mut self.nodes[slot];
                state.core.probe_mut().record(ProbeEvent::OrphanRelease {
                    obj: obj.0,
                    req: req.0,
                });
                state.core.on_release(obj, req, &mut state.actions);
            }
        }
    }

    // ---- outbound frames ---------------------------------------------------

    /// Entry point for protocol frames leaving the node in `slot` toward `to`:
    /// applies injected latency, then delivers (or schedules delivery of) the
    /// frame.
    fn send_frame(&mut self, slot: usize, to: NodeId, frame: Frame) {
        let state = &self.nodes[slot];
        if state.failed.is_some() {
            return;
        }
        let v = state.me;
        if state.crashed || self.severed.contains(&(v.min(to), v.max(to))) {
            self.stats.inc(Metric::FramesDropped);
            return;
        }
        if self.cfg.unit_latency.is_zero() {
            self.deliver_frame(slot, to, frame);
            return;
        }
        let now = self.clock();
        let cfg = self.cfg;
        let dist = self.tree.distance(v, to);
        let delay = self.nodes[slot]
            .delay
            .entry(to)
            .or_insert_with(|| LinkDelay {
                policy: DelayPolicy::new(&cfg, dist, v, to),
                last_due: now,
            });
        let due = delay.last_due.max(now + delay.policy.sample());
        delay.last_due = due;
        self.wheel.insert(
            due,
            TimerEntry::FlushFrame {
                slot,
                peer: to,
                frame,
                due,
            },
        );
    }

    /// Hand a frame to its transport (see the module docs): `localq` when this
    /// shard hosts `to`, the outbox of the sibling shard that hosts it, and
    /// otherwise the link toward `to`, dialing it if absent.
    fn deliver_frame(&mut self, slot: usize, to: NodeId, frame: Frame) {
        let state = &self.nodes[slot];
        if state.failed.is_some() {
            return;
        }
        if state.crashed {
            self.stats.inc(Metric::FramesDropped);
            return;
        }
        let v = state.me;
        if let Some((s, to_slot)) = self.siblings.shard_of[to] {
            debug_assert!(
                !state.links.contains_key(&to) && !state.pending.contains_key(&to),
                "pair {v}->{to} hosted by one runtime must never hold a socket"
            );
            if s == self.id {
                self.localq.push_back((to_slot, v, frame));
            } else if self.said_done {
                // Past this shard's `Done` marker: lost, as bytes staged
                // behind a `Goodbye` are.
                return;
            } else {
                let stamp = self.siblings.stamp(v, to);
                self.outbox[s].push(Hop {
                    to,
                    from: v,
                    frame,
                    stamp,
                });
            }
            self.stats.inc(Metric::LocalFrames);
            return;
        }
        if let Some(&idx) = state.links.get(&to) {
            self.stage_frame(idx, &frame);
            return;
        }
        if self.shutting_down {
            return;
        }
        if let Some(p) = self.nodes[slot].pending.get_mut(&to) {
            p.frames.push(frame);
            return;
        }
        self.start_dial(v, to, DialIntent::Traffic, vec![frame]);
    }

    /// Append `frame` to a connection's send buffer and queue it for flush.
    fn stage_frame(&mut self, idx: usize, frame: &Frame) {
        let tok = self.token_of(idx);
        let c = self.conn_mut(idx);
        debug_assert!(
            c.dialed || matches!(frame, Frame::Welcome { .. } | Frame::Goodbye),
            "node {} staged {frame:?} on a connection it accepted",
            c.node
        );
        c.out.stage(frame);
        if !c.in_flushq {
            c.in_flushq = true;
            self.flushq.push(tok);
        }
    }

    // ---- dialing -----------------------------------------------------------

    fn start_dial(&mut self, v: NodeId, to: NodeId, intent: DialIntent, frames: Vec<Frame>) {
        debug_assert!(
            self.siblings.shard_of[to].is_none(),
            "node {v} dialing peer {to}, which this runtime hosts"
        );
        self.node_mut(v).pending.insert(
            to,
            PendingDial {
                conn: None,
                frames,
                attempt: 0,
                intent,
            },
        );
        self.dial_now(v, to);
    }

    fn dial_now(&mut self, v: NodeId, to: NodeId) {
        match Stream::connect(&self.addrs[to]) {
            Ok(stream) => {
                let fd = stream.as_raw_fd();
                let (idx, tok) = self.slab_insert(Source::Conn(Box::new(Conn {
                    stream,
                    node: v,
                    peer: Some(to),
                    dialed: true,
                    state: ConnState::Connecting,
                    buf: vec![0; RECV_BUF_INIT],
                    start: 0,
                    end: 0,
                    out: SendBuf::new(),
                    interest: (false, true),
                    peer_closed: false,
                    close_write_after_flush: false,
                    write_closed: false,
                    in_flushq: false,
                })));
                if let Err(e) = self.poller.register(fd, tok, false, true) {
                    self.slab_remove(idx);
                    self.dial_failed(v, to, e);
                    return;
                }
                self.wheel.insert(
                    Instant::now() + HANDSHAKE_TIMEOUT,
                    TimerEntry::ConnDeadline { token: tok },
                );
                self.node_mut(v)
                    .pending
                    .get_mut(&to)
                    .expect("pending dial")
                    .conn = Some(idx);
            }
            Err(e) => self.dial_failed(v, to, e),
        }
    }

    fn dial_failed(&mut self, v: NodeId, to: NodeId, err: io::Error) {
        if self.shutting_down {
            self.node_mut(v).pending.remove(&to);
            return;
        }
        let dial_retries = self.cfg.dial_retries;
        let slot = self.slot(v);
        let state = &mut self.nodes[slot];
        let Some(p) = state.pending.get_mut(&to) else {
            // A crash or shutdown already dropped the pending dial.
            return;
        };
        p.conn = None;
        if p.attempt < dial_retries {
            p.attempt += 1;
            let backoff = DIAL_BACKOFF * p.attempt;
            self.wheel.insert(
                Instant::now() + backoff,
                TimerEntry::RetryDial { node: v, peer: to },
            );
            return;
        }
        let p = state.pending.remove(&to).expect("pending dial");
        match p.intent {
            DialIntent::Bootstrap => self.fail_node(v, to, &err),
            DialIntent::Restart if p.frames.is_empty() => {}
            _ => {
                if self.cfg.fault_tolerant {
                    self.stats.add(Metric::FramesDropped, p.frames.len() as u64);
                } else {
                    self.fail_node(v, to, &err);
                }
            }
        }
    }

    /// Permanently fail node `v` and its waiters. Only a node another process
    /// hosts is ever dialed, so acquirers at other nodes live in other
    /// processes and learn of the failure through their own bounded waits.
    fn fail_node(&mut self, v: NodeId, peer: NodeId, error: &io::Error) {
        let now = self.clock();
        let slot = self.slot(v);
        let state = &mut self.nodes[slot];
        if state.failed.is_some() {
            return;
        }
        let failure = NetFailure {
            node: v,
            description: format!("failed to dial peer {peer}: {error}"),
        };
        self.stats.inc(Metric::DialFailures);
        self.failures.push(failure.clone());
        // The waiting requests' queue() frames died with the failed dial: they
        // never entered the distributed queue, so they must not appear in the
        // reconstructed schedule (a scheduled request that no surviving node
        // ever queued would fail order validation as missing). Un-journal them
        // before the drain below fails their acquirers.
        self.journal
            .retract(|obj, req| state.waiting.contains(obj, req));
        for w in state.waiting.drain() {
            w.fail(v, failure.clone(), now);
        }
        state.failed = Some(failure);
    }

    // ---- inbound I/O -------------------------------------------------------

    fn handle_accept(&mut self, idx: usize) {
        // Phase 1: drain the accept queue while the listener is borrowed.
        let (owner, streams) = {
            let (node, listener) = match self.slab[idx].src.as_ref().expect("occupied") {
                Source::Listener { node, listener } => (*node, listener),
                Source::Conn(_) => panic!("accept on a connection slot"),
            };
            let mut streams = Vec::new();
            loop {
                match listener.accept() {
                    Ok(stream) => streams.push(stream),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
            (node, streams)
        };
        // Phase 2: register each accepted socket as an AwaitHello connection.
        for stream in streams {
            let refuse = self.shutting_down || self.nodes[self.slot(owner)].crashed;
            if refuse {
                drop(stream);
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay();
            let fd = stream.as_raw_fd();
            let (cidx, tok) = self.slab_insert(Source::Conn(Box::new(Conn {
                stream,
                node: owner,
                peer: None,
                dialed: false,
                state: ConnState::AwaitHello,
                buf: vec![0; RECV_BUF_INIT],
                start: 0,
                end: 0,
                out: SendBuf::new(),
                interest: (true, false),
                peer_closed: false,
                close_write_after_flush: false,
                write_closed: false,
                in_flushq: false,
            })));
            if self.poller.register(fd, tok, true, false).is_err() {
                self.slab_remove(cidx);
                continue;
            }
            self.wheel.insert(
                Instant::now() + HANDSHAKE_TIMEOUT,
                TimerEntry::ConnDeadline { token: tok },
            );
        }
    }

    fn handle_readable(&mut self, idx: usize) {
        if matches!(self.slab[idx].src, Some(Source::Listener { .. })) {
            self.handle_accept(idx);
            return;
        }
        if self.conn(idx).state == ConnState::Connecting {
            // Spurious (error-folded) readability; the writable handler owns
            // connect completion and error surfacing.
            return;
        }
        // Phase 1: pull bytes and scan frames, touching only the connection,
        // the scratch frame list, the stats and the clock (disjoint fields).
        let mut frames = mem::take(&mut self.scanned);
        let mut ended: Option<io::Error> = None;
        {
            let stats = &mut self.stats;
            let mut read_any = false;
            let c = match self.slab[idx].src.as_mut().expect("occupied") {
                Source::Conn(c) => c,
                Source::Listener { .. } => unreachable!(),
            };
            'reads: for _ in 0..READS_PER_EVENT {
                if c.start > 0 {
                    c.buf.copy_within(c.start..c.end, 0);
                    c.end -= c.start;
                    c.start = 0;
                }
                while c.buf.len() - c.end < 4 + MAX_FRAME_LEN as usize {
                    let double = c.buf.len() * 2;
                    c.buf.resize(double, 0);
                }
                let spare = c.buf.len() - c.end;
                match (&c.stream).read(&mut c.buf[c.end..]) {
                    Ok(0) => {
                        ended = Some(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "connection closed by peer",
                        ));
                        break 'reads;
                    }
                    Ok(n) => {
                        c.end += n;
                        read_any = true;
                        stats.inc(Metric::SocketReads);
                        stats.add(Metric::BytesReceived, n as u64);
                        loop {
                            match Frame::scan(&c.buf[c.start..c.end]) {
                                Ok(Some((frame, used))) => {
                                    c.start += used;
                                    let bye = matches!(frame, Frame::Goodbye);
                                    frames.push(frame);
                                    if bye {
                                        break 'reads;
                                    }
                                }
                                Ok(None) => break,
                                Err(_) => {
                                    ended = Some(io::Error::new(
                                        io::ErrorKind::InvalidData,
                                        "undecodable bytes on the wire",
                                    ));
                                    break 'reads;
                                }
                            }
                        }
                        // A short read emptied the socket: skip the read that
                        // would only return EAGAIN. Level-triggered epoll
                        // re-notifies if more (or EOF) arrives meanwhile.
                        if n < spare {
                            break 'reads;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break 'reads,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        ended = Some(e);
                        break 'reads;
                    }
                }
            }
            // Frames from outside: the cycle's clock is read afresh, once.
            if read_any {
                self.clock = Some(Instant::now());
            }
        }
        // Phase 2: run the frames through the handshake/protocol machinery.
        if !frames.is_empty() || ended.is_some() {
            self.process_inbound(idx, &mut frames, ended);
        }
        // `process_inbound` drained the list; hand its capacity back.
        self.scanned = frames;
    }

    /// Feed the frames scanned off connection `idx` (drained from `frames`)
    /// through its handshake state, then apply a read-side `ended` error.
    fn process_inbound(&mut self, idx: usize, frames: &mut Vec<Frame>, ended: Option<io::Error>) {
        let tok = self.token_of(idx);
        for frame in frames.drain(..) {
            // Processing a frame can close this connection (a handshake
            // error, a reaped `Goodbye`): stop feeding it if it died.
            if self.resolve(tok).is_none() {
                return;
            }
            let (state, v, peer) = {
                let c = self.conn(idx);
                (c.state, c.node, c.peer)
            };
            match state {
                ConnState::Connecting => {}
                ConnState::AwaitWelcome => match frame {
                    Frame::Welcome { node } if Some(node) == peer => self.promote(idx),
                    other => {
                        self.close_conn(
                            idx,
                            Some(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("expected Welcome during handshake, got {other:?}"),
                            )),
                        );
                        return;
                    }
                },
                ConnState::AwaitHello => match frame {
                    Frame::Hello { node } => {
                        // Out of range, or claiming a node this runtime
                        // hosts: hosted peers talk in memory, never dial.
                        if self.siblings.shard_of.get(node).is_none_or(Option::is_some) {
                            self.stats.inc(Metric::UnexpectedFrames);
                            self.close_conn(idx, None);
                            return;
                        }
                        // A live peer holds at most one dialed connection to
                        // this node, so an older inbound one from it is stale
                        // (see the module docs). `idx` has no peer yet and
                        // stays.
                        self.cut_where(|src| {
                            matches!(src, Source::Conn(c)
                                if c.node == v && !c.dialed && c.peer == Some(node))
                        });
                        self.conn_mut(idx).peer = Some(node);
                        self.stage_frame(idx, &Frame::Welcome { node: v });
                        self.promote(idx);
                    }
                    _ => {
                        self.close_conn(idx, None);
                        return;
                    }
                },
                ConnState::Established => {
                    if matches!(frame, Frame::Goodbye) {
                        self.on_goodbye(idx);
                    } else {
                        let from = peer.expect("established conn has a peer");
                        self.on_frame(self.slot(v), from, frame);
                    }
                }
            }
        }
        if let Some(e) = ended {
            if self.resolve(tok).is_some() {
                self.close_conn(idx, Some(e));
            }
        }
    }

    /// A handshake completed on `idx`. A dialed connection becomes the
    /// node's link toward its peer and takes the frames staged while it
    /// dialed; an accepted one carries the peer's frames in.
    fn promote(&mut self, idx: usize) {
        let (v, peer, dialed) = {
            let c = self.conn_mut(idx);
            c.state = ConnState::Established;
            (c.node, c.peer.expect("peer known at promote"), c.dialed)
        };
        debug_assert!(
            self.siblings.shard_of[peer].is_none(),
            "link {v}<->{peer} installed between nodes this runtime hosts"
        );
        if dialed {
            self.stats.inc(Metric::ConnectionsDialed);
        } else {
            self.stats.inc(Metric::ConnectionsAccepted);
        }
        let slot = self.slot(v);
        if self.nodes[slot].crashed {
            self.cut(idx);
            return;
        }
        if dialed {
            let state = &mut self.nodes[slot];
            let staged = state.pending.remove(&peer).map(|p| p.frames);
            let old = state.links.insert(peer, idx);
            debug_assert!(old.is_none(), "node {v} holds two links toward {peer}");
            for frame in staged.iter().flatten() {
                self.stage_frame(idx, frame);
            }
        }
        self.update_interest(idx);
    }

    fn on_goodbye(&mut self, idx: usize) {
        let (v, peer) = {
            let c = self.conn_mut(idx);
            c.peer_closed = true;
            (c.node, c.peer.expect("established conn has a peer"))
        };
        self.unlink(v, peer, idx);
        self.maybe_reap(idx);
    }

    /// Drop node `v`'s link toward `peer` if connection `idx` is that link.
    fn unlink(&mut self, v: NodeId, peer: NodeId, idx: usize) {
        let links = &mut self.node_mut(v).links;
        if links.get(&peer) == Some(&idx) {
            links.remove(&peer);
        }
    }

    /// Drop a connection whose peer said Goodbye once its sendbuf is flushed.
    fn maybe_reap(&mut self, idx: usize) {
        let done = {
            let c = self.conn(idx);
            c.peer_closed && c.out.buf.is_empty()
        };
        if done {
            // Link bookkeeping already happened in on_goodbye.
            self.cut(idx);
        }
    }

    /// A protocol frame arrived at the node in `slot` from `from`.
    fn on_frame(&mut self, slot: usize, from: NodeId, frame: Frame) {
        let state = &mut self.nodes[slot];
        if state.crashed {
            self.stats.inc(Metric::FramesDropped);
            return;
        }
        match frame {
            Frame::Proto(ProtoMsg::Queue {
                req,
                obj,
                origin,
                epoch,
            }) => {
                if origin >= self.siblings.shard_of.len() {
                    self.stats.inc(Metric::UnexpectedFrames);
                    return;
                }
                state
                    .core
                    .on_queue(from, obj, req, origin, epoch, &mut state.actions);
            }
            Frame::Token { obj, req, epoch } => {
                state.core.on_token(obj, req, epoch, &mut state.actions);
            }
            Frame::Proto(ProtoMsg::Epoch { epoch }) => {
                let before = state.core.epoch();
                state.core.on_epoch(epoch, &mut state.actions);
                if state.core.epoch() > before {
                    self.stats.inc(Metric::EpochsAdopted);
                }
            }
            _ => {
                self.stats.inc(Metric::UnexpectedFrames);
                return;
            }
        }
        self.mark_dirty(slot);
    }

    // ---- outbound I/O ------------------------------------------------------

    fn handle_writable(&mut self, idx: usize) {
        if self.conn(idx).state == ConnState::Connecting {
            match netpoll::take_socket_error(&self.conn(idx).stream) {
                Ok(None) => {
                    let v = {
                        let c = self.conn_mut(idx);
                        let _ = c.stream.set_nodelay();
                        c.state = ConnState::AwaitWelcome;
                        c.node
                    };
                    self.stage_frame(idx, &Frame::Hello { node: v });
                    self.update_interest(idx);
                }
                Ok(Some(e)) | Err(e) => self.close_conn(idx, Some(e)),
            }
            return;
        }
        self.flush_conn(idx);
    }

    fn flush_conn(&mut self, idx: usize) {
        let outcome = {
            let stats = &mut self.stats;
            let c = match self.slab[idx].src.as_mut().expect("occupied") {
                Source::Conn(c) => c,
                Source::Listener { .. } => unreachable!(),
            };
            if c.write_closed {
                c.out.buf.clear();
                c.out.written = 0;
                c.out.frames = 0;
                FlushOutcome::Done
            } else {
                flush_send_buf(c, stats)
            }
        };
        match outcome {
            FlushOutcome::Done => {
                let c = self.conn_mut(idx);
                if c.close_write_after_flush && !c.write_closed {
                    let _ = c.stream.shutdown(Shutdown::Write);
                    c.write_closed = true;
                }
                self.update_interest(idx);
                self.maybe_reap(idx);
            }
            FlushOutcome::Blocked => self.update_interest(idx),
            FlushOutcome::Dead(e) => self.close_conn(idx, Some(e)),
        }
    }

    /// Re-register the poller interest to match what the connection needs
    /// right now (level-triggered epoll: a stale EPOLLOUT would busy-loop).
    fn update_interest(&mut self, idx: usize) {
        let tok = self.token_of(idx);
        let (fd, want, have) = {
            let c = self.conn(idx);
            let want = if c.state == ConnState::Connecting {
                (false, true)
            } else {
                (!c.peer_closed, !c.out.buf.is_empty())
            };
            (c.stream.as_raw_fd(), want, c.interest)
        };
        if want != have && self.poller.modify(fd, tok, want.0, want.1).is_ok() {
            self.conn_mut(idx).interest = want;
        }
    }

    /// Tear down connection `idx`, propagating the failure according to its
    /// handshake state.
    fn close_conn(&mut self, idx: usize, err: Option<io::Error>) {
        let src = self.slab_remove(idx);
        let Source::Conn(c) = src else {
            panic!("close_conn on a listener slot");
        };
        let _ = c.stream.shutdown(Shutdown::Both);
        match c.state {
            ConnState::Connecting | ConnState::AwaitWelcome => {
                if !self.shutting_down {
                    if let Some(to) = c.peer {
                        let e = err.unwrap_or_else(|| {
                            io::Error::new(
                                io::ErrorKind::ConnectionAborted,
                                "connection closed during handshake",
                            )
                        });
                        self.dial_failed(c.node, to, e);
                    }
                }
            }
            // An acceptor that never identified itself needs no bookkeeping.
            ConnState::AwaitHello => {}
            ConnState::Established => {
                let peer = c.peer.expect("established conn has a peer");
                self.unlink(c.node, peer, idx);
            }
        }
    }

    // ---- timers ------------------------------------------------------------

    fn handle_timer(&mut self, entry: TimerEntry) {
        match entry {
            TimerEntry::FlushFrame {
                slot,
                peer,
                frame,
                due,
            } => {
                let dwell = self.clock().saturating_duration_since(due);
                self.stats
                    .observe(HistMetric::TimerDwellNanos, dwell.as_nanos() as u64);
                self.deliver_frame(slot, peer, frame);
            }
            TimerEntry::RetryDial { node, peer } => {
                if self.shutting_down {
                    return;
                }
                let state = self.node_mut(node);
                if state.crashed || state.failed.is_some() {
                    state.pending.remove(&peer);
                    return;
                }
                if state.pending.get(&peer).is_some_and(|p| p.conn.is_none()) {
                    self.dial_now(node, peer);
                }
            }
            TimerEntry::ConnDeadline { token } => {
                // An established connection simply outlived its deadline.
                let Some(idx) = self.resolve(token) else {
                    return;
                };
                if self.conn(idx).state != ConnState::Established {
                    self.close_conn(
                        idx,
                        Some(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "handshake timed out",
                        )),
                    );
                }
            }
            TimerEntry::ShutdownDeadline => self.shutdown_forced = true,
        }
    }

    // ---- shutdown ----------------------------------------------------------

    fn begin_shutdown(&mut self) {
        if self.shutting_down {
            return;
        }
        self.shutting_down = true;
        // 1. Deliver every latency-delayed frame immediately so the protocol
        //    quiesces with nothing stuck in the wheel.
        let mut entries = Vec::new();
        self.wheel.drain_all(&mut entries);
        debug_assert!(self.wheel.is_empty(), "drain_all empties the wheel");
        for (_, entry) in entries {
            if let TimerEntry::FlushFrame {
                slot,
                peer,
                frame,
                due,
            } = entry
            {
                let dwell = self.clock().saturating_duration_since(due);
                self.stats
                    .observe(HistMetric::TimerDwellNanos, dwell.as_nanos() as u64);
                self.deliver_frame(slot, peer, frame);
            }
        }
        // Same-shard frames among them land now, so whatever they provoke is
        // staged ahead of the Goodbyes and `localq` is empty again before the
        // next command.
        self.run_to_quiescence();
        // Everything sent to siblings so far goes out ahead of the `Done`
        // marker, the in-memory `Goodbye`.
        self.flush_outboxes();
        for (s, sibling) in self.siblings.inboxes.iter().enumerate() {
            if s != self.id {
                sibling.send(ShardCmd::Done);
            }
        }
        self.said_done = true;
        // 2. Stop accepting and abandon half-done handshakes.
        self.cut_where(|src| match src {
            Source::Listener { .. } => true,
            Source::Conn(c) => c.state != ConnState::Established,
        });
        for state in &mut self.nodes {
            state.pending.clear();
        }
        // 3. Say Goodbye on every established connection, dialed or
        //    accepted, and half-close once flushed.
        let live: Vec<usize> = (0..self.slab.len())
            .filter(|&i| matches!(self.slab[i].src, Some(Source::Conn(_))))
            .collect();
        for idx in live {
            self.stage_frame(idx, &Frame::Goodbye);
            self.conn_mut(idx).close_write_after_flush = true;
        }
        // 4. Whatever is left after the grace period gets cut.
        self.wheel.insert(
            Instant::now() + SHUTDOWN_GRACE,
            TimerEntry::ShutdownDeadline,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::NetStats;
    use arrow_trace::NoProbe;
    use netgraph::generators;

    /// A [`ReactorShared`] for a tiny hand-driven mesh.
    fn shared_for(tree: RootedTree, addrs: Vec<PeerAddr>) -> ReactorShared {
        ReactorShared {
            cfg: NetConfig::instant(),
            tree: Arc::new(tree),
            addrs: Arc::new(addrs),
            faults_armed: Arc::new(AtomicBool::new(false)),
            epoch0: Instant::now(),
        }
    }

    /// A two-node path (root 0, child 1) serving `objects` objects, with each
    /// node's seed; node 0 gets `listener` if one is given.
    fn pair(
        objects: usize,
        listener: Option<Listener>,
    ) -> (ReactorShared, NodeSeed<NoProbe>, NodeSeed<NoProbe>) {
        let tree = RootedTree::from_tree_graph(&generators::path(2), 0);
        let addrs = listener
            .iter()
            .map(|l| l.local_addr().expect("listener addr"))
            .collect();
        let shared = shared_for(tree, addrs);
        let core = |v| ArrowCore::for_tree_with_probe(v, &shared.tree, objects, NoProbe);
        let (seed0, seed1) = ((0, core(0), listener), (1, core(1), None));
        (shared, seed0, seed1)
    }

    /// Shard threads for the manifest `shard_nodes`, and their stats.
    fn spawn(
        shared: &ReactorShared,
        shard_nodes: Vec<Vec<NodeSeed<NoProbe>>>,
    ) -> (NetStats, Vec<ShardInjector>, Vec<ShardJoin>) {
        let (stats, writers) = NetStats::for_shards(shard_nodes.len());
        let (injectors, threads) = spawn_shards(shared, shard_nodes, writers);
        (stats, injectors, threads)
    }

    /// Hand-driven shards (no threads) for the manifest `shard_nodes`, and
    /// their stats.
    fn hand_driven(
        shared: &ReactorShared,
        shard_nodes: Vec<Vec<NodeSeed<NoProbe>>>,
    ) -> (NetStats, Vec<Shard<NoProbe>>) {
        let (stats, writers) = NetStats::for_shards(shard_nodes.len());
        let siblings = Siblings::new(shared.tree.node_count(), &shard_nodes);
        let shards = shard_nodes
            .into_iter()
            .zip(writers)
            .enumerate()
            .map(|(s, (nodes, w))| Shard::new(shared, Arc::clone(&siblings), s, nodes, w))
            .collect();
        (stats, shards)
    }

    /// One shard's share of a loop cycle, minus the sockets: take the inbox,
    /// run to quiescence, hand the outboxes over.
    fn cycle(shard: &mut Shard<NoProbe>) {
        shard.drain_inbox();
        shard.run_to_quiescence();
        shard.flush_outboxes();
    }

    /// Nodes 0 and 1 of a two-node path on shards 0 and 1 of one runtime.
    fn split_pair(objects: usize) -> (NetStats, Vec<Shard<NoProbe>>) {
        let (shared, seed0, seed1) = pair(objects, None);
        hand_driven(&shared, vec![vec![seed0], vec![seed1]])
    }

    /// Both listener families a daemon link runs on.
    const BINDS: [fn() -> io::Result<Listener>; 2] = [Listener::loopback, Listener::autobind];

    /// Read frames off a blocking socket until `want` have been scanned out.
    fn read_frames(mut stream: &Stream, want: usize) -> Vec<Frame> {
        let mut got = Vec::new();
        let mut buf = Vec::new();
        let mut tmp = [0u8; 1024];
        while got.len() < want {
            while let Some((frame, used)) = Frame::scan(&buf).expect("valid frame bytes") {
                buf.drain(..used);
                got.push(frame);
            }
            if got.len() >= want {
                break;
            }
            let n = stream.read(&mut tmp).expect("read within timeout");
            assert!(n > 0, "peer closed after {} of {want} frames", got.len());
            buf.extend_from_slice(&tmp[..n]);
        }
        got
    }

    /// Node 0 of a two-node path on a shard thread, listening on a
    /// listener from `bind`, with node 1 played by the test on another.
    struct RootAndFakeChild {
        stats: NetStats,
        injector: ShardInjector,
        thread: ShardJoin,
        /// Node 0's address, which the test dials as node 1.
        addr0: PeerAddr,
        /// Node 1's listener, which node 0 dials.
        fake: Listener,
    }

    impl RootAndFakeChild {
        fn spawn(bind: fn() -> io::Result<Listener>) -> Self {
            let (listener, fake) = (bind().expect("bind node 0"), bind().expect("bind node 1"));
            let addrs = vec![
                listener.local_addr().expect("node 0's address"),
                fake.local_addr().expect("node 1's address"),
            ];
            let tree = RootedTree::from_tree_graph(&generators::path(2), 0);
            let shared = shared_for(tree, addrs);
            let core = ArrowCore::for_tree_with_probe(0, &shared.tree, 1, NoProbe);
            let (stats, mut injectors, mut threads) =
                spawn(&shared, vec![vec![(0, core, Some(listener))]]);
            RootAndFakeChild {
                stats,
                injector: injectors.remove(0),
                thread: threads.remove(0),
                addr0: shared.addrs[0].clone(),
                fake,
            }
        }

        fn shutdown(self) {
            assert!(self.injector.send(ShardCmd::Shutdown));
            self.thread.join().expect("shard joins");
        }
    }

    /// Play node 1 answering node 0's dial on `fake`: take its `Hello`,
    /// send `Welcome`. Returns the connection, which carries node 0's frames.
    fn answer_root_dial(fake: &Listener) -> Stream {
        let back = fake.accept_blocking().expect("node 0 dials node 1");
        assert_eq!(read_frames(&back, 1), vec![Frame::Hello { node: 0 }]);
        (&back)
            .write_all(&Frame::Welcome { node: 1 }.encode())
            .expect("welcome");
        back
    }

    /// A `queue()` from node 1 for object 0 under request `req`.
    fn queue_from_child(req: u64) -> Frame {
        Frame::Proto(ProtoMsg::Queue {
            req: RequestId(req),
            obj: ObjectId(0),
            origin: 1,
            epoch: 0,
        })
    }

    /// Whether `frame` is object 0's token for request `req`.
    fn is_token_for(frame: &Frame, req: u64) -> bool {
        matches!(frame, Frame::Token { obj: ObjectId(0), req: RequestId(r), .. } if *r == req)
    }

    /// A frame dribbled in over several readiness events must reassemble: a
    /// fake peer splits its `Hello` across two delayed writes and then feeds a
    /// `queue()` frame one byte at a time. The shard has to buffer the partial
    /// prefixes, scan each frame exactly once it completes, and answer with
    /// `Welcome` and the token grant as if the bytes had arrived whole; the
    /// token comes over the shard's own dial to the fake peer.
    #[test]
    fn partial_frames_reassemble_across_readiness_events() {
        for bind in BINDS {
            partial_frames_reassemble_on(bind);
        }
    }

    fn partial_frames_reassemble_on(bind: fn() -> io::Result<Listener>) {
        let root = RootAndFakeChild::spawn(bind);
        let mut peer = &Stream::dial_blocking(&root.addr0).expect("dial the shard");

        // Handshake: Hello split across two kernel-visible writes.
        let hello = Frame::Hello { node: 1 }.encode();
        peer.write_all(&hello[..2]).expect("hello prefix");
        peer.flush().expect("flush prefix");
        std::thread::sleep(Duration::from_millis(40));
        peer.write_all(&hello[2..]).expect("hello suffix");
        assert_eq!(
            read_frames(peer, 1),
            vec![Frame::Welcome { node: 0 }],
            "acceptor must answer the reassembled Hello"
        );

        // A queue() for the root's token, one byte per write.
        let queue = queue_from_child(7).encode();
        for byte in &queue {
            peer.write_all(std::slice::from_ref(byte)).expect("dribble");
            peer.flush().expect("flush byte");
            std::thread::sleep(Duration::from_millis(2));
        }
        let back = answer_root_dial(&root.fake);
        let token = read_frames(&back, 1);
        assert!(
            is_token_for(&token[0], 7),
            "the dribbled queue() must win the root token, got {token:?}"
        );

        let goodbye = Frame::Goodbye.encode();
        peer.write_all(&goodbye).expect("goodbye");

        // Every dribbled byte must land before shutdown: poll the shared
        // counters until the receive side accounts for all three frames and
        // the `Welcome` that answered node 0's dial.
        let welcome = Frame::Welcome { node: 1 }.encode();
        let sent = (hello.len() + queue.len() + goodbye.len() + welcome.len()) as u64;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let snap = root.stats.snapshot();
            if snap.bytes_received == sent {
                assert_eq!(snap.unexpected_frames, 0);
                assert_eq!(snap.connections_accepted, 1);
                assert!(
                    snap.socket_reads >= 3,
                    "dribbled writes must arrive across separate readiness events, \
                     saw {} reads",
                    snap.socket_reads
                );
                break;
            }
            assert!(
                Instant::now() < deadline,
                "reactor never scanned the dribbled bytes: {snap:?}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }

        let _ = peer.shutdown(Shutdown::Both);
        let _ = back.shutdown(Shutdown::Both);
        root.shutdown();
    }

    /// One-way links: node 1 dials node 0 twice, as a restarted incarnation
    /// would. The second `Hello` cuts the first connection, which reads EOF;
    /// a `queue()` sent on the second is answered over node 0's own dial to
    /// node 1, and shutdown says `Goodbye` on both surviving connections.
    #[test]
    fn a_second_hello_from_a_peer_cuts_its_older_inbound_connection() {
        for bind in BINDS {
            second_hello_cuts_the_older_connection_on(bind);
        }
    }

    fn second_hello_cuts_the_older_connection_on(bind: fn() -> io::Result<Listener>) {
        let root = RootAndFakeChild::spawn(bind);
        let dial_as_child = || {
            let peer = Stream::dial_blocking(&root.addr0).expect("dial node 0");
            (&peer)
                .write_all(&Frame::Hello { node: 1 }.encode())
                .expect("hello");
            assert_eq!(read_frames(&peer, 1), vec![Frame::Welcome { node: 0 }]);
            peer
        };
        let older = dial_as_child();
        let newer = dial_as_child();
        let mut byte = [0u8; 1];
        assert_eq!(
            (&older)
                .read(&mut byte)
                .expect("node 0 cuts the older connection"),
            0,
            "the older connection must read EOF"
        );

        (&newer)
            .write_all(&queue_from_child(7).encode())
            .expect("queue()");
        let back = answer_root_dial(&root.fake);
        let token = read_frames(&back, 1);
        assert!(is_token_for(&token[0], 7), "got {token:?}");
        let snap = root.stats.snapshot();
        assert_eq!((snap.connections_accepted, snap.connections_dialed), (2, 1));
        assert_eq!(snap.unexpected_frames, 0);

        assert!(root.injector.send(ShardCmd::Shutdown));
        for conn in [&newer, &back] {
            assert_eq!(read_frames(conn, 1), vec![Frame::Goodbye]);
            let _ = conn.shutdown(Shutdown::Both);
        }
        root.thread.join().expect("shard joins");
    }

    /// The delivery rule and the quiescence invariant on a hand-driven shard
    /// that owns both nodes of a two-node path: commands only dirty nodes,
    /// `run_to_quiescence` then carries both objects' `queue()` frames 1→0
    /// and both tokens 0→1 through `localq` in send order, leaves `localq`
    /// and `dirtyq` empty, and never opens, dials or flushes a socket.
    #[test]
    fn co_sharded_frames_move_in_memory_in_send_order_until_quiescent() {
        let (shared, seed0, seed1) = pair(2, None);
        let (stats, mut shards) = hand_driven(&shared, vec![vec![seed0, seed1]]);
        let shard = &mut shards[0];

        let (reply, grants) = std::sync::mpsc::channel();
        for obj in [ObjectId(0), ObjectId(1)] {
            shard.handle_cmd(ShardCmd::Acquire {
                node: 1,
                obj,
                reply: reply.clone(),
            });
        }
        assert!(shard.localq.is_empty(), "commands only dirty their node");
        assert_eq!(shard.dirtyq, vec![1]);
        shard.run_to_quiescence();
        assert!(shard.localq.is_empty() && shard.dirtyq.is_empty());

        let granted: Vec<ObjectId> = grants.try_iter().map(|g| g.obj).collect();
        assert_eq!(
            granted,
            vec![ObjectId(0), ObjectId(1)],
            "frames on one directed pair must not overtake each other"
        );
        let snap = stats.snapshot();
        assert_eq!((snap.queue_frames, snap.token_frames), (2, 2));
        assert_eq!(snap.local_frames, 4, "every hop was a memory move");
        assert_eq!(snap.socket_writes, 0);
        assert!(shard.flushq.is_empty(), "nothing was staged on a socket");
        assert!(
            shard
                .nodes
                .iter()
                .all(|n| n.links.is_empty() && n.pending.is_empty()),
            "a co-sharded pair never holds a link or a pending dial"
        );
    }

    /// Drain first: an inline cycle runs what the inbox already holds before
    /// the client's own command, so a client's commands keep their order
    /// whichever path each one took. Node 1 holds the token; its release
    /// queues while the test holds the shard's lock, as a busy shard would;
    /// node 1's next acquire then finds the lock free and runs inline. It
    /// must find the token released and be granted within the same call.
    #[test]
    fn inline_cycle_drains_the_inbox_before_its_own_command() {
        let (shared, seed0, seed1) = pair(1, None);
        let (stats, mut shards) = hand_driven(&shared, vec![vec![seed0, seed1]]);
        let (cell, injector) = publish(shards.remove(0));
        let (reply, grants) = std::sync::mpsc::channel();
        let acquire = || ShardCmd::Acquire {
            node: 1,
            obj: ObjectId(0),
            reply: reply.clone(),
        };
        assert!(injector.submit(acquire()));
        let held = grants
            .try_recv()
            .expect("an idle shard grants inline, on the caller's thread")
            .result
            .expect("healthy pair grants");
        {
            let _busy = lock(&cell);
            assert!(injector.submit(ShardCmd::Release {
                node: 1,
                obj: ObjectId(0),
                req: held,
            }));
        }
        let queued = lock(&cell).inbox.queue.lock().expect("inbox lock").len();
        assert_eq!(queued, 1, "a busy shard's command waits in the inbox");
        assert!(injector.submit(acquire()));
        let grant = grants
            .try_recv()
            .expect("the queued release ran ahead of the inline acquire");
        assert!(grant.result.is_ok_and(|req| req > held));
        let snap = stats.snapshot();
        assert_eq!((snap.inline_cycles, snap.reactor_wakeups), (2, 0));
        assert_eq!(snap.acquisitions, 2);
    }

    /// Nodes one runtime hosts talk in memory and never dial each other, so a
    /// `Hello` claiming the id of such a node can only be a confused or
    /// hostile peer: the shard refuses it instead of installing a link that
    /// would split the pair across two transports.
    #[test]
    fn hello_claiming_a_co_sharded_id_is_refused() {
        let listener = Listener::loopback().expect("bind loopback");
        let (shared, seed0, seed1) = pair(1, Some(listener));
        let (stats, injectors, threads) = spawn(&shared, vec![vec![seed0, seed1]]);

        let mut peer = &Stream::dial_blocking(&shared.addrs[0]).expect("dial the shard");
        peer.write_all(&Frame::Hello { node: 1 }.encode())
            .expect("hello");
        let mut byte = [0u8; 1];
        assert_eq!(
            peer.read(&mut byte)
                .expect("the shard closes the connection"),
            0,
            "no Welcome may answer an impostor"
        );
        let snap = stats.snapshot();
        assert_eq!(snap.unexpected_frames, 1);
        assert_eq!(snap.connections_accepted, 0);

        assert!(injectors[0].send(ShardCmd::Shutdown));
        for t in threads {
            t.join().expect("shard joins");
        }
    }

    /// Crash drops incident frames on the memory path too: a `queue()` that
    /// node 1's shard stamped before the root crashed and restarted reaches
    /// the root's shard afterwards, is counted in `FramesDropped` and never
    /// fed to the restarted root. The recovery epoch's re-issued `queue()`,
    /// stamped after the restart, gets through and is granted.
    #[test]
    fn cross_shard_frame_sent_before_the_destination_crashed_is_dropped() {
        let (stats, mut shards) = split_pair(1);
        shards[0].faults_armed.store(true, Ordering::Relaxed);
        let (reply, grants) = std::sync::mpsc::channel();
        shards[1].handle_cmd(ShardCmd::Acquire {
            node: 1,
            obj: ObjectId(0),
            reply,
        });
        shards[1].run_to_quiescence();
        assert_eq!(shards[1].outbox[0].len(), 1, "queue() 1->0 is stamped");
        shards[0].handle_cmd(ShardCmd::Crash { node: 0 });
        shards[0].handle_cmd(ShardCmd::Restart { node: 0 });
        shards[1].flush_outboxes();
        cycle(&mut shards[0]);
        cycle(&mut shards[1]);
        assert_eq!(stats.snapshot().frames_dropped, 1);
        assert!(
            shards[0].journal.records().is_empty(),
            "the restarted root never saw the queue()"
        );
        assert!(grants.try_recv().is_err(), "nothing answered it");

        for shard in &mut shards {
            shard.handle_cmd(ShardCmd::Epoch { epoch: 1 });
        }
        for _ in 0..2 {
            for shard in &mut shards {
                cycle(shard);
            }
        }
        let grant = grants.try_recv().expect("the re-issued request is granted");
        assert!(grant.result.is_ok());
        assert_eq!(stats.snapshot().frames_dropped, 1);
    }

    /// Per-link FIFO across batches: four acquires at node 1, one per sender
    /// cycle, reach the root's inbox as four `Frames` commands; drained in
    /// order, they send the four tokens back in the order the acquires were
    /// issued. Every hop is counted as a socket-free delivery.
    #[test]
    fn cross_shard_batches_keep_per_link_fifo() {
        let objects = 4;
        let (stats, mut shards) = split_pair(objects);
        let (reply, grants) = std::sync::mpsc::channel();
        for obj in 0..objects as u32 {
            shards[1].handle_cmd(ShardCmd::Acquire {
                node: 1,
                obj: ObjectId(obj),
                reply: reply.clone(),
            });
            cycle(&mut shards[1]);
        }
        let queued = shards[0].inbox.queue.lock().expect("inbox lock").len();
        assert_eq!(queued, objects, "one batch per sender cycle");
        cycle(&mut shards[0]);
        cycle(&mut shards[1]);
        let granted: Vec<u32> = grants.try_iter().map(|g| g.obj.0).collect();
        assert_eq!(granted, [0, 1, 2, 3]);
        let snap = stats.snapshot();
        assert_eq!(snap.local_frames, 2 * objects as u64);
        assert_eq!(snap.local_frames, snap.queue_frames + snap.token_frames);
        assert_eq!((snap.socket_writes, snap.bytes_sent), (0, 0));
    }

    /// Shutdown keeps `Goodbye` semantics with batches in flight both ways:
    /// node 1's shard pushes its `Done` marker right behind a batch of
    /// `queue()` frames, and the root's shard answers them with tokens before
    /// pushing its own. No frame sent ahead of a marker is lost, neither shard
    /// may exit before it holds its sibling's marker, and the two shards'
    /// journals validate.
    #[test]
    fn shutdown_loses_no_cross_shard_frame_sent_before_the_done_marker() {
        let objects = 2;
        let (stats, mut shards) = split_pair(objects);
        let (reply, grants) = std::sync::mpsc::channel();
        for obj in 0..objects as u32 {
            shards[1].handle_cmd(ShardCmd::Acquire {
                node: 1,
                obj: ObjectId(obj),
                reply: reply.clone(),
            });
        }
        shards[1].handle_cmd(ShardCmd::Shutdown);
        assert!(!shards[1].may_exit(), "the root's marker is still out");
        cycle(&mut shards[0]);
        shards[0].handle_cmd(ShardCmd::Shutdown);
        assert!(shards[0].may_exit(), "the root holds node 1's marker");
        cycle(&mut shards[1]);
        assert!(shards[1].may_exit());
        let granted = grants.try_iter().filter(|g| g.result.is_ok()).count();
        assert_eq!(granted, objects, "every token sent before a marker landed");

        let (journals, failures): (Vec<_>, Vec<_>) = shards.iter_mut().map(Shard::finish).unzip();
        let report = crate::NetReport::new(
            RunJournal::merge(journals),
            failures.concat(),
            stats.metrics(),
        );
        let orders = report
            .validated_orders()
            .expect("the shards' journals validate");
        assert_eq!(orders.len(), objects);
    }

    /// EPOLLOUT backpressure: with nobody reading, staged frames must fill the
    /// kernel send buffer until `flush_send_buf` reports [`FlushOutcome::Blocked`]
    /// (counting a `WouldBlock` retry) instead of spinning or dropping bytes;
    /// once the slow reader drains, the flush resumes and every staged frame
    /// arrives intact and in order.
    #[test]
    fn backpressure_flush_blocks_then_drains_without_loss() {
        for bind in BINDS {
            backpressure_flush_blocks_then_drains_on(bind().expect("bind a listener"));
        }
    }

    fn backpressure_flush_blocks_then_drains_on(listener: Listener) {
        let addr = listener.local_addr().expect("listener addr");
        let writer = Stream::dial_blocking(&addr).expect("dial");
        writer.set_nonblocking(true).expect("nonblocking writer");
        let reader = listener.accept().expect("accept");

        let (stats, mut writers) = NetStats::for_shards(1);
        let counts = &mut writers[0];
        let mut conn = Conn {
            stream: writer,
            node: 0,
            peer: Some(1),
            dialed: true,
            state: ConnState::Established,
            buf: vec![0; RECV_BUF_INIT],
            start: 0,
            end: 0,
            out: SendBuf::new(),
            interest: (true, false),
            peer_closed: false,
            close_write_after_flush: false,
            write_closed: false,
            in_flushq: false,
        };

        let frame = Frame::Token {
            obj: ObjectId(0),
            req: RequestId(1),
            epoch: 0,
        };
        let frame_len = frame.encode().len() as u64;
        let mut staged: u64 = 0;
        let mut blocked = false;
        // Stage batches until the kernel buffer fills; 512 * 4096 frames is far
        // beyond any autotuned local send buffer.
        for _ in 0..512 {
            for _ in 0..4096 {
                conn.out.stage(&frame);
                staged += 1;
            }
            match flush_send_buf(&mut conn, counts) {
                FlushOutcome::Blocked => {
                    blocked = true;
                    break;
                }
                FlushOutcome::Done => continue,
                FlushOutcome::Dead(e) => panic!("healthy socket died: {e}"),
            }
        }
        assert!(blocked, "the unread socket never exerted backpressure");
        assert!(stats.snapshot().would_block_retries >= 1);

        // Slow reader starts draining only after the writer is already blocked.
        let drainer = std::thread::spawn(move || {
            let mut reader = &reader;
            let mut buf: Vec<u8> = Vec::new();
            let mut tmp = [0u8; 64 * 1024];
            let mut bytes: u64 = 0;
            let mut frames: u64 = 0;
            loop {
                let n = reader.read(&mut tmp).expect("drain read");
                if n == 0 {
                    break;
                }
                bytes += n as u64;
                buf.extend_from_slice(&tmp[..n]);
                let mut used_total = 0;
                while let Some((frame, used)) =
                    Frame::scan(&buf[used_total..]).expect("staged bytes stay well-framed")
                {
                    assert!(matches!(frame, Frame::Token { .. }));
                    frames += 1;
                    used_total += used;
                }
                buf.drain(..used_total);
            }
            assert!(buf.is_empty(), "trailing partial frame after EOF");
            (bytes, frames)
        });

        // Re-flush until the drained socket accepts the backlog.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match flush_send_buf(&mut conn, counts) {
                FlushOutcome::Done => break,
                FlushOutcome::Blocked => {
                    assert!(Instant::now() < deadline, "flush never completed");
                    std::thread::sleep(Duration::from_millis(1));
                }
                FlushOutcome::Dead(e) => panic!("healthy socket died: {e}"),
            }
        }
        conn.stream
            .shutdown(Shutdown::Write)
            .expect("half-close after flush");
        let (bytes, frames) = drainer.join().expect("drainer joins");

        let snap = stats.snapshot();
        assert_eq!(frames, staged, "every staged frame arrived exactly once");
        assert_eq!(bytes, staged * frame_len);
        assert_eq!(snap.bytes_sent, bytes, "sender accounting matches the wire");
        assert_eq!(snap.frames_sent, staged);
        assert!(
            snap.socket_writes >= 2,
            "a blocked flush must take more than one write syscall"
        );
    }
}
