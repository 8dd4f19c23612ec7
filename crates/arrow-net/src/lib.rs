//! # arrow-net — the arrow directory protocol on sharded reactors and real sockets
//!
//! The third and most realistic of the repository's three execution tiers:
//!
//! 1. **Simulator** (`arrow-core::run` on [`desim`]) — deterministic discrete-event
//!    runs, millions of requests, the measurement tool.
//! 2. **Threads** (`arrow-core::live`) — one OS thread per node over in-process
//!    mpsc channels, the concurrency demonstration.
//! 3. **Sockets** (this crate) — each node is a peer driven by a sharded epoll
//!    reactor. Between nodes one runtime hosts, frames are memory moves (inside
//!    a shard, or one inbox hand-off between shards); toward a node another
//!    process hosts (daemon mode, used by the `arrowd` process tier), the
//!    channel is TCP and each hop pays real serialization, framing, kernel
//!    round-trips — the per-message cost that the paper's Section 5 experiment
//!    runs on real processors to expose. Optional injected link latency applies
//!    to every hop.
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
//! * `reactor` (internal) — the event-driven engine: nodes are partitioned
//!   across a small pool of shard threads, each running one `epoll` loop (via
//!   the `netpoll` shim) over its inbox eventfd, its timer wheel and the
//!   nonblocking listeners and connections of its nodes. A frame between two
//!   nodes of one shard goes through the shard's memory FIFO, run to
//!   quiescence before the next `epoll_wait`; a frame to another shard of the
//!   runtime joins that shard's per-cycle batch, handed over through its inbox
//!   ([`mesh::NetConfig::shards`] states the rule). Only toward a node of
//!   another process is there a socket: handshakes are nonblocking state
//!   machines, simultaneous-dial races collapse onto one canonical connection
//!   per peer pair, and every flush coalesces a link's staged frames into a
//!   single `write` syscall. Injected latency rides a per-shard timer wheel
//!   whose next deadline doubles as the `epoll_wait` timeout. Thread count is
//!   O(shards), not O(nodes) — a single process hosts ≥1024 nodes, on O(shards)
//!   file descriptors.
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
//! let req = handle.acquire(); // queue() 6 -> 2 -> 0, token 0 -> 6, all in memory
//! handle.release(req);
//! let report = rt.shutdown();
//! assert_eq!(report.stats().acquisitions, 1);
//! assert_eq!(report.stats().socket_writes, 0); // one runtime hosts every node
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
