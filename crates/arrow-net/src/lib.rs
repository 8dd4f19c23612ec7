//! # arrow-net — the arrow directory protocol on sharded reactors and real sockets
//!
//! The live node host of the repository's execution tiers (numbered as everywhere
//! in the repository; tier 2 is retired):
//!
//! 1. **Simulator** (`arrow-core::run` on [`desim`]) — deterministic discrete-event
//!    runs, millions of requests, the measurement tool.
//! 2. *(retired: the thread-per-node runtime; this crate's multi-shard runtime
//!    is its heir — nodes on several OS threads, frames exchanged in memory.)*
//! 3. **Reactors** (this crate) — each node is a peer driven by a sharded epoll
//!    reactor. Between nodes one runtime hosts, frames are memory moves (inside
//!    a shard, or one inbox hand-off between shards); toward a node another
//!    process hosts (daemon mode, used by the `arrowd` process tier), the
//!    channel is a socket (an abstract Unix-domain one between daemons of
//!    one host, TCP toward an `ip:port` peer: [`PeerAddr`]) and each hop pays
//!    real serialization, framing, kernel round-trips — the per-message cost
//!    that the paper's Section 5 experiment runs on real processors to
//!    expose.
//! 4. **Processes** (`arrow-cluster`) — one `arrowd` OS process per node, each
//!    a daemon-mode runtime of this crate.
//!
//! Both hosts execute the same per-node state machine, the shared
//! [`arrow_core::live::ArrowCore`]: this crate drives it from real transports,
//! the simulator its queuing layer through [`arrow_core::arrow`].
//!
//! ## Architecture
//!
//! * [`wire`] — a compact hand-rolled binary codec: length-prefixed, versioned
//!   frames for every [`arrow_core::prelude::ProtoMsg`] variant plus the mesh's
//!   control frames (`Hello`/`Welcome` join handshake, `Goodbye` shutdown, `Token`
//!   grants). No serde involved; the bytes are the contract. Encoding appends into
//!   pooled buffers ([`Frame::encode_into`]); decoding scans complete frames out
//!   of a growing receive buffer ([`Frame::scan`]).
//! * [`mesh`] — mesh policy: the [`NetConfig`] knobs (dial retries, churn
//!   mode, reactor [`mesh::NetConfig::shards`]) and the [`NetStats`] counters
//!   (one registry per shard, summed on read). Every link is instant: a frame
//!   leaves as soon as its shard's cycle reaches it. The paper's timing
//!   models (synchronous, and asynchronous with a delay floor) are the
//!   simulator's (`desim::SimConfig`), on virtual time.
//! * [`socket`] — the daemon-link address, [`PeerAddr`] (`ip:port` for TCP,
//!   `@name` for an abstract Unix-domain socket), and the [`Listener`] a
//!   daemon binds; the peer's address picks the socket family, and nothing
//!   above the socket depends on which.
//! * `reactor` (internal) — the event-driven engine: nodes are partitioned
//!   across a small pool of shard threads, each running one `epoll` loop (via
//!   the `netpoll` shim) over its inbox eventfd, its timers and the
//!   nonblocking listeners and connections of its nodes. A frame between two
//!   nodes of one shard goes through the shard's memory FIFO, run to
//!   quiescence before the next `epoll_wait`; a frame to another shard of the
//!   runtime joins that shard's per-cycle batch, handed over through its inbox
//!   ([`mesh::NetConfig::shards`] states the rule). Only toward a node of
//!   another process is there a socket: handshakes are nonblocking state
//!   machines, links are one-way (a node sends protocol frames only on the
//!   connection it dialed, and reads its peer's on the one it accepted), and
//!   every flush coalesces a link's staged frames into a single `write`
//!   syscall. A shard's timers (dial backoff, handshake and shutdown
//!   deadlines) set its `epoll_wait` timeout. Thread count is
//!   O(shards), not O(nodes) — a single process hosts ≥1024 nodes, on O(shards)
//!   file descriptors.
//! * [`runtime`] — the [`NetRuntime`]: spawn/shutdown over the shard pool,
//!   application-facing [`NetHandle`]s with blocking *and* pipelined
//!   `acquire`/`release` per object ([`NetHandle::start_acquire_object`],
//!   [`Grant`] routing for open-loop drivers), and a shutdown [`NetReport`] whose
//!   per-object queuing orders validate through the same machinery as the
//!   simulator harness.
//! * [`lock`] — distributed mutual exclusion over a [`NetHandle`]: a
//!   [`DistributedLock`] with a scoped guard, and the [`CriticalSectionLog`]
//!   that tests and examples check for overlapping critical sections.
//! * [`replay`] — the one live replay client: the acquire-retry-nudge kernel
//!   ([`replay::Client::acquire`]), its worker pool, the fault injector whose
//!   nudge is the timeout-as-detection rule, and the loopback daemon mesh
//!   ([`replay::daemon_mesh`], one daemon-mode runtime per node).
//!
//! ## Quick example
//!
//! ```
//! use arrow_net::{NetConfig, NetRuntime};
//! use netgraph::{generators, RootedTree};
//!
//! let tree = RootedTree::from_tree_graph(&generators::balanced_binary_tree(7), 0);
//! let rt = NetRuntime::spawn_multi(&tree, 2, NetConfig::instant());
//! let handle = rt.handle(6);
//! let req = handle.acquire(); // queue() 6 -> 2 -> 0, token 0 -> 6, all in memory
//! handle.release(req);
//! let report = rt.shutdown();
//! assert_eq!(report.stats().acquisitions, 1);
//! assert_eq!(report.stats().socket_writes, 0); // one runtime hosts every node
//! assert!(report.validated_orders().is_ok());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod lock;
pub mod mesh;
mod reactor;
pub mod replay;
pub mod runtime;
pub mod socket;
mod timers;
pub mod wire;

pub use lock::{CriticalSectionLog, DistributedLock, LockGuard, SectionRecord};
pub use mesh::{NetConfig, NetStats, NetStatsSnapshot};
pub use runtime::{
    Grant, NetFailure, NetFaultHandle, NetHandle, NetReport, NetRuntime, PendingAcquire,
};
pub use socket::{Listener, PeerAddr, PeerAddrError};
pub use wire::{Frame, WireError, MAX_FRAME_LEN, WIRE_MAGIC, WIRE_VERSION};
