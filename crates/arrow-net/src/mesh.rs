//! Mesh policy of the socket tier: dial budget, churn mode, shard count,
//! stats schema.
//!
//! Sockets exist only at process boundaries: two nodes hosted by one runtime
//! exchange frames in memory — inside one reactor shard or through the
//! destination shard's inbox — and never dial each other (see
//! [`NetConfig::shards`]). Toward nodes of other processes (daemon mode,
//! [`crate::NetRuntime::spawn_daemon`]) the topology is deliberately sparse, and
//! every link is one-way: a node sends only on connections it dialed. The mesh
//! materializes the spanning-tree edges (each non-root node dials its parent
//! eagerly at bootstrap; a parent dials a child the first time it sends it a
//! frame), plus *direct token channels* dialed lazily the first time one node
//! grants a token to a non-neighbour. This mirrors the protocol's traffic
//! pattern exactly: `queue()` messages travel tree edges only, while token
//! grants jump straight to the granted request's origin (the socket analogue of
//! the simulator's direct-ack sends).
//!
//! Every connection starts with a `Hello`/`Welcome` handshake so each side knows the
//! peer's node id, and ends with a `Goodbye` notice at shutdown. The handshake,
//! socket I/O, and timers all run inside the sharded reactors (the crate's
//! internal `reactor` module); this module holds the *policy* the reactors apply:
//!
//! - [`NetConfig`]: dial retry budget, churn mode, and the
//!   [`shards`](NetConfig::shards) knob sizing the reactor pool.
//! - [`NetStats`] / [`NetStatsSnapshot`]: the counter and histogram schema,
//!   one registry per reactor shard, summed on read.
//!
//! Every link is instant: no delay is injected, so a frame costs what its
//! transport costs (a memory move, or serialization and the kernel) and
//! nothing more. The paper's two timing models — synchronous, and
//! asynchronous with a delay floor (Section 3.1) — are the simulator's
//! (`desim::SimConfig`), on virtual time.

use arrow_trace::{Metric, MetricsReader, MetricsSnapshot, MetricsWriter};
use std::time::Duration;

/// How long a handshake partner may stall before the connection is abandoned.
pub(crate) const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Initial capacity of a connection's receive buffer. Grows on demand; a full
/// batch of coalesced arrow frames (≤ 23 bytes each) fits hundreds of frames.
pub(crate) const RECV_BUF_INIT: usize = 16 * 1024;

/// Configuration of the socket runtime: how dials fail and how many reactor
/// shards run. Links are instant (see the module docs), so throughput
/// reflects pure serialization and kernel cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    /// How many times a failed dial is retried (with linear backoff) before the
    /// node gives up and reports the peer unreachable. A peer that stays
    /// unreachable fails the run *cleanly*: the node marks itself failed, pending
    /// acquires on it error out, and the failure is surfaced in the shutdown
    /// report — it no longer panics a node thread. Only daemon-mode nodes
    /// dial (`NetRuntime::spawn_daemon`); a runtime that hosts every node
    /// never reads this.
    pub dial_retries: u32,
    /// Churn mode for daemon-mode dials. With `false` (the default) an
    /// unreachable peer is fatal: the dialing node marks itself failed and
    /// every pending acquire on it errors out — correct when nodes are not
    /// *supposed* to disappear. With `true` the frame towards the unreachable
    /// peer is dropped (counted by [`arrow_trace::Metric::FramesDropped`] in
    /// the node's metrics registry) and the node stays up: under fault
    /// injection a dropped frame is recovered by the next epoch bump
    /// regenerating the token, so losing it must not condemn the run. Like
    /// [`NetConfig::dial_retries`] it acts only on a failed dial, which a
    /// runtime that hosts every node never makes.
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
    /// per input separates two waits. Fault injection applies to every path
    /// alike, and a crash drops frames in flight to or from the crashed node
    /// on every path.
    pub shards: usize,
}

impl NetConfig {
    /// Default dial retry budget (see [`NetConfig::dial_retries`]).
    pub const DEFAULT_DIAL_RETRIES: u32 = 3;

    /// The default configuration: frames hit the socket as fast as the
    /// shards drain, [`NetConfig::DEFAULT_DIAL_RETRIES`] retries, fatal dial
    /// failures, one shard per usable CPU.
    pub fn instant() -> Self {
        NetConfig {
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
}

/// Counters of one [`crate::NetRuntime`], in the cross-tier
/// [`arrow_trace::MetricsRegistry`] schema: one registry per reactor shard,
/// each written only by its shard, under the shard's lock, through the
/// shard's [`MetricsWriter`] — a relaxed load and store per count, no locked
/// instruction. Reads sum the shards, so no count is lost at any shard count.
/// Beyond the counters the registries also carry the socket tier's
/// histograms (see [`arrow_trace::HistMetric`]): frames coalesced per `write`,
/// acquire latency, events per reactor wakeup and shard inbox depth.
///
/// [`NetStats::snapshot`] renders the counters as the traditional
/// [`NetStatsSnapshot`] plain-number view; [`NetStats::metrics`] exposes the
/// full registry snapshot (histograms included) for cross-tier tooling.
#[derive(Debug)]
pub struct NetStats {
    shards: Vec<MetricsReader>,
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
    /// Acquisitions granted to a caller still waiting for them. A grant
    /// nobody receives (its caller crashed or timed out) is an orphan release
    /// instead, and the token moves on.
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
    /// The counters of the registry snapshot `m`.
    pub(crate) fn from_metrics(m: &MetricsSnapshot) -> NetStatsSnapshot {
        NetStatsSnapshot {
            queue_frames: m.get(Metric::QueueFrames),
            token_frames: m.get(Metric::TokenFrames),
            frames_sent: m.get(Metric::FramesSent),
            bytes_sent: m.get(Metric::BytesSent),
            bytes_received: m.get(Metric::BytesReceived),
            socket_writes: m.get(Metric::SocketWrites),
            socket_reads: m.get(Metric::SocketReads),
            connections_dialed: m.get(Metric::ConnectionsDialed),
            connections_accepted: m.get(Metric::ConnectionsAccepted),
            acquisitions: m.get(Metric::Acquisitions),
            unexpected_frames: m.get(Metric::UnexpectedFrames),
            dial_failures: m.get(Metric::DialFailures),
            frames_dropped: m.get(Metric::FramesDropped),
            stale_drops: m.get(Metric::StaleEpochDrops),
            reactor_wakeups: m.get(Metric::ReactorWakeups),
            would_block_retries: m.get(Metric::WouldBlockRetries),
            local_frames: m.get(Metric::LocalFrames),
            inline_cycles: m.get(Metric::InlineCycles),
        }
    }

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
    /// The stats of a runtime with `shards` reactor shards, and the writer
    /// each shard owns, by shard index.
    pub(crate) fn for_shards(shards: usize) -> (NetStats, Vec<MetricsWriter>) {
        let (writers, shards) = (0..shards).map(|_| MetricsWriter::new()).unzip();
        (NetStats { shards }, writers)
    }

    /// Full registry snapshot, summed over the shards: the counters of
    /// [`NetStats::snapshot`] plus the socket tier's histograms, in the
    /// cross-tier [`arrow_trace::MetricsRegistry`] schema the process tier's
    /// (`arrow-cluster`) reports merge.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut total = MetricsSnapshot::default();
        for shard in &self.shards {
            total.merge(&shard.snapshot());
        }
        total
    }

    /// Read all counters at once (relaxed; exact once the runtime is quiescent).
    pub fn snapshot(&self) -> NetStatsSnapshot {
        NetStatsSnapshot::from_metrics(&self.metrics())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Frame, WireError};
    use netgraph::NodeId;
    use std::io::{self, Write};
    use std::net::{SocketAddr, TcpListener, TcpStream};

    fn wire_to_io(e: WireError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }

    /// Dialer half of the blocking join handshake: send `Hello{me}`, await
    /// `Welcome`. Returns the connected stream and the peer's confirmed node
    /// id. With [`accept_handshake`], the reference the reactors' nonblocking
    /// handshake must stay wire-compatible with.
    fn dial(addr: SocketAddr, me: NodeId) -> io::Result<(TcpStream, NodeId)> {
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
    /// `Welcome{me}`.
    fn accept_handshake(mut stream: TcpStream, me: NodeId) -> io::Result<(TcpStream, NodeId)> {
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
