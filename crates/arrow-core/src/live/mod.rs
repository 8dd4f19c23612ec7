//! Real-concurrency runtime: the arrow protocol over OS threads and channels.
//!
//! The discrete-event simulator ([`mod@crate::run`]) is the right tool for measurement —
//! it is deterministic and can run millions of requests. This module is the
//! complementary demonstration that the protocol is a practical building block: every
//! node is a real OS thread, messages travel over std::sync::mpsc channels (point-to-point
//! FIFO links, exactly the paper's communication model), and the queue is used the way
//! the paper's introduction motivates — to pass an exclusive token from each request
//! to its successor, i.e. distributed mutual exclusion.
//!
//! * [`queue`] — the paper's queuing automaton ([`queue::QueueCore`]): link
//!   pointers, path reversal, recovery epochs. The simulator ([`crate::arrow`])
//!   hosts it alone.
//! * [`core`] — the transport-agnostic per-node arrow state machine
//!   ([`core::ArrowCore`]): the queuing layer composed with the token ledger,
//!   shared with the socket runtime in the `arrow-net` crate and the model checker
//!   so the tiers cannot drift.
//! * [`ArrowRuntime`] — spawns one thread per node of a spanning tree and exposes a
//!   [`NodeHandle`] per node with `acquire()` / `release()` token operations.
//! * [`DistributedLock`] — a guard-style wrapper around a handle.
//! * [`CriticalSectionLog`] — a shared log used by tests and examples to verify the
//!   mutual-exclusion invariant.

pub mod core;
mod lock;
pub mod queue;
mod runtime;

pub use core::{ArrowCore, CoreAction, CoreSnapshot};
pub use lock::{CriticalSectionLog, DistributedLock, LockGuard, SectionRecord};
pub use queue::{EpochCheck, QueueCore, QueueStep};
pub use runtime::{ArrowRuntime, FaultHandle, LiveReport, NodeHandle, RuntimeStats, EVENT_BATCH};
