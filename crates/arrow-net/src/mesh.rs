//! Mesh policy of the socket tier: latency law, dial budget, stats schema.
//!
//! Sockets exist only at process boundaries: two nodes hosted by one runtime
//! exchange frames in memory — inside one reactor shard or through the
//! destination shard's inbox — and never dial each other (see
//! [`NetConfig::shards`]). Toward nodes of other processes (daemon mode,
//! [`crate::NetRuntime::spawn_daemon`]) the topology is deliberately sparse: the
//! mesh materializes only the spanning-tree edges (dialed eagerly at bootstrap —
//! every non-root node dials its parent), plus *direct token channels* dialed
//! lazily the first time one node grants a token to a non-neighbour. This
//! mirrors the protocol's traffic pattern exactly: `queue()` messages travel
//! tree edges only, while token grants jump straight to the granted request's
//! origin (the socket analogue of the simulator's direct-ack sends).
//!
//! Every connection starts with a `Hello`/`Welcome` handshake so each side knows the
//! peer's node id, and ends with a `Goodbye` notice at shutdown. The handshake,
//! socket I/O, and timers all run inside the sharded reactors (the crate's
//! internal `reactor` module); this module holds the *policy* the reactors apply:
//!
//! - [`NetConfig`]: latency model, dial retry budget, churn mode, and the
//!   [`shards`](NetConfig::shards) knob sizing the reactor pool.
//! - `DelayPolicy` (internal): the per-link latency law. The delay of a frame on the
//!   link `{u, v}` is the link's tree distance scaled by
//!   [`NetConfig::unit_latency`] (and, in the asynchronous model, by a seeded
//!   per-frame factor drawn from `[lo_factor, 1.0]` — the same latency law and
//!   floor the simulator applies).
//! - [`NetStats`] / [`NetStatsSnapshot`]: the counter and histogram schema all
//!   reactor shards share.
//!
//! The runtime is handed only the spanning tree, so the tree *is* its
//! communication graph: direct token channels pay the tree distance `d_T(u, v)`.
//! That matches simulator runs on tree-only instances (`Instance::tree_only`,
//! stretch 1) exactly; on a general graph the simulator's direct sends pay the
//! graph distance `d_G`, which can be smaller than `d_T`.

use crate::wire::{Frame, WireError};
use arrow_core::prelude::{RunConfig, SyncMode};
use arrow_trace::{HistMetric, Metric, MetricsRegistry, MetricsSnapshot};
use desim::SimRng;
use netgraph::NodeId;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long a handshake partner may stall before the connection is abandoned.
pub(crate) const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Initial capacity of a connection's receive buffer. Grows on demand; a full
/// batch of coalesced arrow frames (≤ 23 bytes each) fits hundreds of frames.
pub(crate) const RECV_BUF_INIT: usize = 16 * 1024;

/// Latency configuration of the socket runtime.
///
/// The delay injected before writing a frame on the link `{u, v}` is
/// `d_T(u, v) × unit_latency × factor`, with `factor = 1` in the synchronous model
/// and `factor ~ U[lo_factor, 1]` (seeded, per frame) in the asynchronous one. With
/// [`NetConfig::instant`] no artificial delay is added and throughput reflects pure
/// serialization + kernel cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    /// Wall-clock duration of one simulated time unit (one unit of tree edge
    /// weight). `Duration::ZERO` disables latency injection entirely.
    pub unit_latency: Duration,
    /// Asynchronous jitter: `Some((lo_factor, seed))` draws each frame's latency
    /// factor uniformly from `[lo_factor, 1.0]` with a deterministic per-link stream
    /// derived from `seed`; `None` is the synchronous model (factor exactly 1).
    pub jitter: Option<(f64, u64)>,
    /// How many times a failed dial is retried (with linear backoff) before the
    /// node gives up and reports the peer unreachable. A peer that stays
    /// unreachable fails the run *cleanly*: the node marks itself failed, pending
    /// acquires on it error out, and the failure is surfaced in the shutdown
    /// report — it no longer panics a node thread.
    pub dial_retries: u32,
    /// Churn mode. With `false` (the default) an unreachable peer is fatal: the
    /// dialing node marks itself failed and every pending acquire on it errors
    /// out — correct when nodes are not *supposed* to disappear. With `true` the frame towards the unreachable
    /// peer is dropped (counted by [`arrow_trace::Metric::FramesDropped`] in
    /// the node's metrics registry) and the node
    /// stays up: under fault injection a dropped frame is recovered by the next
    /// epoch bump regenerating the token, so losing it must not condemn the run.
    pub fault_tolerant: bool,
    /// Number of reactor shards (event-loop threads) the runtime spawns. Each
    /// shard owns `n / shards` nodes (node `v` lives on shard `v % shards`)
    /// and drives all of them from one `epoll` loop, so the process's thread
    /// count is `O(shards)` rather than `O(nodes)`. `0` (the default)
    /// auto-sizes to the CPUs the process may run on
    /// ([`std::thread::available_parallelism`], which on Linux honours the
    /// affinity mask and the cgroup CPU quota): a shard thread beyond them
    /// buys no parallelism, only context switches, so a one-CPU allotment
    /// runs one shard. Either way the count is clamped to `[1, node count]`
    /// at spawn time. The shard count sizes the thread pool only: it never
    /// decides which hops pay the wire.
    ///
    /// **Delivery rule:** the transport follows from whether the runtime
    /// hosts the destination. A frame to a node of the sender's shard is
    /// queued in the shard and handed to the destination's core in the same
    /// loop cycle; a frame to a node of another shard of the runtime joins
    /// that shard's batch for the cycle, delivered as one command through its
    /// inbox. Both are counted as
    /// [`local_frames`](NetStatsSnapshot::local_frames). Only a frame to a
    /// node another process hosts — the one-node-per-process daemon mode,
    /// [`crate::NetRuntime::spawn_daemon`] — is encoded, written to a socket
    /// and read back by the peer's shard, so `spawn_multi` binds no listener
    /// and dials nothing at any shard count, and the wire is daemon mode only.
    /// **Quiescence:** a shard runs its in-memory frames (and whatever they
    /// provoke) to completion before it hands batches over, flushes sockets
    /// and re-enters `epoll_wait`, so at most a tree diameter of memory hops
    /// per input separates two waits. Fault injection and injected latency
    /// apply to every path alike, and a crash drops frames in flight to or
    /// from the crashed node on every path.
    pub shards: usize,
}

impl NetConfig {
    /// Default dial retry budget (see [`NetConfig::dial_retries`]).
    pub const DEFAULT_DIAL_RETRIES: u32 = 3;

    /// No injected latency: frames hit the socket as fast as the shards drain.
    pub fn instant() -> Self {
        NetConfig {
            unit_latency: Duration::ZERO,
            jitter: None,
            dial_retries: Self::DEFAULT_DIAL_RETRIES,
            fault_tolerant: false,
            shards: 0,
        }
    }

    /// Synchronous model: every frame on link `{u, v}` is delayed by exactly
    /// `d_T(u, v) × unit_latency`.
    pub fn synchronous(unit_latency: Duration) -> Self {
        NetConfig {
            unit_latency,
            jitter: None,
            dial_retries: Self::DEFAULT_DIAL_RETRIES,
            fault_tolerant: false,
            shards: 0,
        }
    }

    /// Asynchronous model: each frame's delay factor is drawn from
    /// `[lo_factor, 1.0]` (the async floor), seeded deterministically.
    pub fn asynchronous(unit_latency: Duration, lo_factor: f64, seed: u64) -> Self {
        NetConfig {
            unit_latency,
            jitter: Some((lo_factor, seed)),
            dial_retries: Self::DEFAULT_DIAL_RETRIES,
            fault_tolerant: false,
            shards: 0,
        }
    }

    /// Override the dial retry budget.
    pub fn with_dial_retries(mut self, retries: u32) -> Self {
        self.dial_retries = retries;
        self
    }

    /// Enable churn mode (see [`NetConfig::fault_tolerant`]): an unreachable peer
    /// costs the frame, not the run.
    pub fn with_fault_tolerance(mut self) -> Self {
        self.fault_tolerant = true;
        self
    }

    /// Override the reactor shard count (see [`NetConfig::shards`]).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// The shard count a runtime hosting `nodes` nodes actually spawns:
    /// [`NetConfig::shards`], auto-sized to the usable CPUs when 0, clamped to
    /// `[1, nodes]` (one shard per node is the most that does anything).
    pub fn effective_shards(&self, nodes: usize) -> usize {
        let requested = if self.shards == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            self.shards
        };
        requested.clamp(1, nodes.max(1))
    }

    /// Derive the socket latency model from a simulator [`RunConfig`], so socket
    /// runs stay comparable to simulator runs on tree-only instances (see the
    /// module docs for the `d_T` vs `d_G` caveat on general graphs): the synchrony
    /// mode, the async floor (`async_lo_factor`) and the seed all carry over;
    /// `unit_latency` sets the wall-clock scale of one simulated unit.
    pub fn from_run_config(config: &RunConfig, unit_latency: Duration) -> Self {
        match config.sync {
            SyncMode::Synchronous => NetConfig::synchronous(unit_latency),
            SyncMode::Asynchronous => {
                NetConfig::asynchronous(unit_latency, config.async_lo_factor, config.seed)
            }
        }
    }
}

/// Counters shared by all shards of one [`crate::NetRuntime`], backed by the
/// cross-tier [`arrow_trace::MetricsRegistry`] schema — lock-free atomics, so
/// the hot-path cost is one relaxed `fetch_add` per count. Beyond the counters
/// the registry also carries the socket tier's histograms: frames coalesced
/// per `write` ([`HistMetric::WriteBatchFrames`]), timer-wheel staging
/// lateness ([`HistMetric::TimerDwellNanos`]), acquire latency
/// ([`HistMetric::AcquireNanos`]), events per reactor wakeup
/// ([`HistMetric::EventsPerWakeup`]) and shard inbox depth
/// ([`HistMetric::ShardQueueDepth`]).
///
/// [`NetStats::snapshot`] renders the counters as the traditional
/// [`NetStatsSnapshot`] plain-number view; [`NetStats::metrics`] exposes the
/// full registry snapshot (histograms included) for cross-tier tooling.
#[derive(Debug, Default)]
pub struct NetStats {
    registry: MetricsRegistry,
}

/// A plain-number snapshot of [`NetStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetStatsSnapshot {
    /// Arrow `queue()` frames sent, over a socket or in memory.
    pub queue_frames: u64,
    /// Token grant frames sent, over a socket or in memory.
    pub token_frames: u64,
    /// Every frame written to a socket, handshake frames included: the
    /// reactors stage `Hello`/`Welcome`/`Goodbye` through the same send
    /// buffers as protocol traffic, so the count is symmetric with what the
    /// peer's reader scans out.
    pub frames_sent: u64,
    /// Total bytes written to sockets (wire encoding, length prefixes
    /// included), handshake frames included. Every byte leaves through a
    /// reactor send buffer and arrives through a reactor receive buffer, so
    /// on a quiescent fault-free mesh `bytes_sent == bytes_received` exactly —
    /// see the `quiescent_run_byte_accounting_is_symmetric` regression test.
    pub bytes_sent: u64,
    /// Total bytes read off sockets, handshake bytes included (symmetric with
    /// `bytes_sent`). Faults break the symmetry in one direction only
    /// (severed links and crashed nodes lose written bytes), so
    /// `bytes_received <= bytes_sent` always holds once the mesh is quiescent.
    pub bytes_received: u64,
    /// `write` syscalls issued by the reactor shards.
    pub socket_writes: u64,
    /// `read` syscalls that returned data to a reactor shard.
    pub socket_reads: u64,
    /// Connections dialed (handshake completed on the dialing side).
    pub connections_dialed: u64,
    /// Connections accepted (handshake completed on the accepting side).
    pub connections_accepted: u64,
    /// Acquisitions granted.
    pub acquisitions: u64,
    /// Out-of-protocol frames received.
    pub unexpected_frames: u64,
    /// Dials that exhausted their retry budget.
    pub dial_failures: u64,
    /// Frames dropped by fault injection (severed links, crashed endpoints —
    /// including frames already in flight when an endpoint crashed —
    /// unreachable peers in fault-tolerant mode).
    pub frames_dropped: u64,
    /// Stale-epoch protocol messages rejected by the recovery layer.
    pub stale_drops: u64,
    /// Times a reactor shard returned from `epoll_wait` (timer expiry or I/O).
    pub reactor_wakeups: u64,
    /// Nonblocking writes that returned `EWOULDBLOCK` (kernel send buffer
    /// full; the shard re-armed write interest and retried later).
    pub would_block_retries: u64,
    /// Simultaneous-dial races collapsed onto a single surviving link.
    pub dial_races_collapsed: u64,
    /// Protocol frames delivered without a socket: between two nodes of one
    /// reactor shard, or through the inbox of another shard of the runtime.
    /// They are counted in `queue_frames`/`token_frames` like any hop, so they
    /// explain the gap between those and `frames_sent`/`socket_writes`: equal
    /// to `queue_frames + token_frames` in a runtime that hosts every node,
    /// zero in daemon mode.
    pub local_frames: u64,
    /// Reactor cycles run on a client's own thread: an acquire or release
    /// that found its shard idle drove the shard itself rather than queue
    /// the command and wake the shard thread, so it added no
    /// `reactor_wakeups`.
    pub inline_cycles: u64,
}

impl NetStatsSnapshot {
    /// Mean frames per `write` syscall — the coalescing batch size. 0.0 before any
    /// write happened.
    pub fn frames_per_write(&self) -> f64 {
        if self.socket_writes == 0 {
            0.0
        } else {
            self.frames_sent as f64 / self.socket_writes as f64
        }
    }
}

impl NetStats {
    /// The underlying cross-tier metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Full registry snapshot: the counters of [`NetStats::snapshot`] plus the
    /// socket tier's histograms, in the schema shared with the thread tier's
    /// [`arrow_core::live::LiveReport`].
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Bump counter `m` by one (relaxed).
    pub(crate) fn inc(&self, m: Metric) {
        self.registry.inc(m);
    }

    /// Bump counter `m` by `n` (relaxed).
    pub(crate) fn add(&self, m: Metric, n: u64) {
        self.registry.add(m, n);
    }

    /// Record `v` into histogram `h`.
    pub(crate) fn observe(&self, h: HistMetric, v: u64) {
        self.registry.observe(h, v);
    }

    /// Read all counters at once (relaxed; exact once the runtime is quiescent).
    pub fn snapshot(&self) -> NetStatsSnapshot {
        NetStatsSnapshot {
            queue_frames: self.registry.get(Metric::QueueFrames),
            token_frames: self.registry.get(Metric::TokenFrames),
            frames_sent: self.registry.get(Metric::FramesSent),
            bytes_sent: self.registry.get(Metric::BytesSent),
            bytes_received: self.registry.get(Metric::BytesReceived),
            socket_writes: self.registry.get(Metric::SocketWrites),
            socket_reads: self.registry.get(Metric::SocketReads),
            connections_dialed: self.registry.get(Metric::ConnectionsDialed),
            connections_accepted: self.registry.get(Metric::ConnectionsAccepted),
            acquisitions: self.registry.get(Metric::Acquisitions),
            unexpected_frames: self.registry.get(Metric::UnexpectedFrames),
            dial_failures: self.registry.get(Metric::DialFailures),
            frames_dropped: self.registry.get(Metric::FramesDropped),
            stale_drops: self.registry.get(Metric::StaleEpochDrops),
            reactor_wakeups: self.registry.get(Metric::ReactorWakeups),
            would_block_retries: self.registry.get(Metric::WouldBlockRetries),
            dial_races_collapsed: self.registry.get(Metric::DialRacesCollapsed),
            local_frames: self.registry.get(Metric::LocalFrames),
            inline_cycles: self.registry.get(Metric::InlineCycles),
        }
    }
}

/// Per-frame latency policy of one directed link.
pub(crate) struct DelayPolicy {
    base: Duration,
    jitter: Option<(f64, SimRng)>,
}

impl DelayPolicy {
    /// Build the policy for the link `{me, peer}` with tree distance `weight`.
    pub(crate) fn new(cfg: &NetConfig, weight: f64, me: NodeId, peer: NodeId) -> Self {
        let base = cfg.unit_latency.mul_f64(weight.max(0.0));
        let jitter = cfg.jitter.map(|(lo, seed)| {
            // One deterministic stream per directed link: mix the endpoints into the
            // seed so links don't share jitter sequences.
            let mix = seed
                ^ (me as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (peer as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
            (lo, SimRng::new(mix))
        });
        DelayPolicy { base, jitter }
    }

    pub(crate) fn sample(&mut self) -> Duration {
        if self.base.is_zero() {
            return Duration::ZERO;
        }
        match &mut self.jitter {
            None => self.base,
            Some((lo, rng)) => {
                let factor = rng.uniform((*lo).clamp(0.0, 1.0), 1.0);
                self.base.mul_f64(factor)
            }
        }
    }
}

fn wire_to_io(e: WireError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// Dial a peer and run the join handshake (send `Hello{me}`, await `Welcome`),
/// retrying transient failures up to `retries` times with linear backoff before
/// reporting the peer unreachable. This is the blocking counterpart of the
/// reactors' nonblocking dial machinery, kept public so external tooling and
/// failure-injection tests can join a mesh (or exercise the retry budget
/// against a refused address) without standing up a reactor.
pub fn dial_with_budget(
    addr: SocketAddr,
    me: NodeId,
    retries: u32,
) -> io::Result<(TcpStream, NodeId)> {
    let mut attempt = 0;
    loop {
        match dial(addr, me) {
            Ok(pair) => return Ok(pair),
            Err(e) if attempt < retries => {
                attempt += 1;
                std::thread::sleep(Duration::from_millis(5 * attempt as u64));
                let _ = e;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Dial a peer and run the join handshake: send `Hello{me}`, await `Welcome`.
/// Returns the connected stream and the peer's confirmed node id.
pub(crate) fn dial(addr: SocketAddr, me: NodeId) -> io::Result<(TcpStream, NodeId)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    Frame::Hello { node: me }.write_to(&mut stream)?;
    let reply = Frame::read_from(&mut stream).map_err(wire_to_io)?;
    stream.set_read_timeout(None)?;
    match reply {
        Frame::Welcome { node } => Ok((stream, node)),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected Welcome during handshake, got {other:?}"),
        )),
    }
}

/// Accepter half of the blocking join handshake: await `Hello`, reply
/// `Welcome{me}`. Test-only — live accepts run through the reactors' state
/// machines — but kept as the reference implementation the nonblocking
/// handshake must stay wire-compatible with.
#[cfg(test)]
pub(crate) fn accept_handshake(
    mut stream: TcpStream,
    me: NodeId,
) -> io::Result<(TcpStream, NodeId)> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    let hello = Frame::read_from(&mut stream).map_err(wire_to_io)?;
    let peer = match hello {
        Frame::Hello { node } => node,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected Hello during handshake, got {other:?}"),
            ))
        }
    };
    Frame::Welcome { node: me }.write_to(&mut stream)?;
    stream.set_read_timeout(None)?;
    Ok((stream, peer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;

    #[test]
    fn handshake_exchanges_node_ids() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accepter = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            accept_handshake(stream, 7).unwrap()
        });
        let (_stream, peer) = dial(addr, 3).unwrap();
        assert_eq!(peer, 7);
        let (_stream, dialer) = accepter.join().unwrap();
        assert_eq!(dialer, 3);
    }

    #[test]
    fn garbage_handshake_is_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accepter = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            accept_handshake(stream, 0)
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&[0xFF; 16]).unwrap();
        assert!(accepter.join().unwrap().is_err());
    }

    #[test]
    fn synchronous_delay_policy_is_the_scaled_weight() {
        let cfg = NetConfig::synchronous(Duration::from_millis(10));
        let mut p = DelayPolicy::new(&cfg, 3.0, 0, 1);
        assert_eq!(p.sample(), Duration::from_millis(30));
        assert_eq!(p.sample(), Duration::from_millis(30));
    }

    #[test]
    fn asynchronous_delay_respects_the_floor() {
        let cfg = NetConfig::asynchronous(Duration::from_millis(100), 0.4, 11);
        let mut p = DelayPolicy::new(&cfg, 1.0, 2, 5);
        for _ in 0..200 {
            let d = p.sample();
            assert!(
                d >= Duration::from_millis(40),
                "{d:?} under the async floor"
            );
            assert!(
                d <= Duration::from_millis(100),
                "{d:?} over the link weight"
            );
        }
    }

    #[test]
    fn instant_config_injects_nothing() {
        let mut p = DelayPolicy::new(&NetConfig::instant(), 5.0, 0, 1);
        assert_eq!(p.sample(), Duration::ZERO);
    }

    #[test]
    fn from_run_config_carries_the_async_floor_and_seed() {
        use arrow_core::prelude::ProtocolKind;
        let sync = NetConfig::from_run_config(
            &RunConfig::analysis(ProtocolKind::Arrow),
            Duration::from_millis(2),
        );
        assert_eq!(sync, NetConfig::synchronous(Duration::from_millis(2)));
        let run = RunConfig::analysis(ProtocolKind::Arrow)
            .asynchronous(9)
            .with_async_floor(0.25);
        let net = NetConfig::from_run_config(&run, Duration::from_millis(2));
        assert_eq!(net.jitter, Some((0.25, 9)));
    }

    #[test]
    fn effective_shards_clamps_and_autosizes() {
        let cfg = NetConfig::instant().with_shards(4);
        assert_eq!(cfg.effective_shards(100), 4);
        assert_eq!(cfg.effective_shards(2), 2, "never more shards than nodes");
        assert_eq!(cfg.effective_shards(0), 1, "at least one shard");
        for n in [1, 3, 5, 64, 4096] {
            assert_eq!(
                NetConfig::instant().with_shards(n).effective_shards(4096),
                n,
                "an explicit count is honoured exactly"
            );
        }
        let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
        let auto = NetConfig::instant();
        for nodes in [0, 1, 2, 3, 64, 4096] {
            assert_eq!(
                auto.effective_shards(nodes),
                cpus.clamp(1, nodes.max(1)),
                "auto is one shard per usable CPU, clamped to [1, {nodes}]"
            );
        }
    }
}
