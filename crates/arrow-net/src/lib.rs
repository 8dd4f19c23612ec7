//! # arrow-net — the arrow directory protocol over real sockets
//!
//! The third and most realistic of the repository's three execution tiers:
//!
//! 1. **Simulator** (`arrow-core::run` on [`desim`]) — deterministic discrete-event
//!    runs, millions of requests, the measurement tool.
//! 2. **Threads** (`arrow-core::live`) — one OS thread per node over in-process
//!    mpsc channels, the concurrency demonstration.
//! 3. **Sockets** (this crate) — each node is a process-independent peer whose
//!    protocol channel to any node hosted elsewhere (another reactor shard,
//!    another process) is loopback TCP. Throughput here pays for real
//!    serialization, framing, kernel round-trips and (optionally) injected link
//!    latency — the per-message cost that the paper's Section 5 experiment runs on
//!    real processors to expose. Only a hop between two nodes of one shard is
//!    spared the wire; `with_shards(n)` and the `arrowd` daemon mode spare none.
//!
//! All tiers execute the same per-node state machine, the shared
//! [`arrow_core::live::ArrowCore`]: this crate and the thread runtime drive it
//! from real transports, the simulator through [`arrow_core::arrow`].
//!
//! ## Architecture
//!
//! * [`wire`] — a compact hand-rolled binary codec: length-prefixed, versioned
//!   frames for every [`arrow_core::prelude::ProtoMsg`] variant plus the mesh's
//!   control frames (`Hello`/`Welcome` join handshake, `Goodbye` shutdown, `Token`
//!   grants). No serde involved; the bytes are the contract. Encoding appends into
//!   pooled buffers ([`Frame::encode_into`]); decoding scans complete frames out
//!   of a growing receive buffer ([`Frame::scan`]).
//! * [`mesh`] — mesh policy: the [`NetConfig`] knobs (latency model, dial
//!   retries, reactor [`mesh::NetConfig::shards`]), the per-link latency law
//!   (tree distance × [`mesh::NetConfig::unit_latency`], scaled by the seeded
//!   async factor in the asynchronous model, FIFO-preserving — the same law as
//!   a simulator run), the shared [`NetStats`] counters, and the blocking dial
//!   helpers external tooling uses.
//! * `reactor` (internal) — the event-driven socket engine: nodes are
//!   partitioned across a small pool of shard threads, each running one `epoll`
//!   loop (via the `netpoll` shim) over the nonblocking listeners and
//!   connections of its nodes. Handshakes are nonblocking state machines,
//!   simultaneous-dial races collapse onto one canonical connection per peer
//!   pair, injected latency rides a per-shard timer wheel whose next deadline
//!   doubles as the `epoll_wait` timeout, and every flush coalesces a link's
//!   staged frames into a single `write` syscall. A frame between two nodes
//!   of one shard is delivered in memory instead, and the shard runs such
//!   frames to quiescence before its next `epoll_wait`
//!   ([`mesh::NetConfig::shards`] states the rule). Thread count is O(shards),
//!   not O(nodes) — a single process hosts ≥1024 nodes.
//! * [`runtime`] — the [`NetRuntime`]: spawn/shutdown over the shard pool,
//!   application-facing [`NetHandle`]s with blocking *and* pipelined
//!   `acquire`/`release` per object ([`NetHandle::start_acquire_object`],
//!   [`Grant`] routing for open-loop drivers), and a shutdown [`NetReport`] whose
//!   per-object queuing orders validate through the same machinery as the
//!   simulator harness.
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
//! let req = handle.acquire(); // queue() frames cross shards over real TCP sockets
//! handle.release(req);
//! let report = rt.shutdown();
//! assert_eq!(report.stats().acquisitions, 1);
//! assert!(report.validated_orders().is_ok());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod mesh;
mod reactor;
pub mod runtime;
mod wheel;
pub mod wire;

pub use mesh::{dial_with_budget, NetConfig, NetStats, NetStatsSnapshot};
pub use runtime::{
    Grant, NetFailure, NetFaultHandle, NetHandle, NetReport, NetRuntime, PendingAcquire,
};
pub use wire::{Frame, WireError, MAX_FRAME_LEN, WIRE_MAGIC, WIRE_VERSION};
