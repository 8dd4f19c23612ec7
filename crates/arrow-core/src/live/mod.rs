//! The per-node arrow state machine that every live host runs.
//!
//! The discrete-event simulator ([`mod@crate::run`]) is the right tool for measurement —
//! it is deterministic and can run millions of requests. The live hosts (the reactor
//! runtime in `arrow-net` and the `arrowd` process cluster on top of it) run real
//! concurrency, and use the queue the way the paper's introduction motivates: to pass
//! an exclusive token from each request to its successor, i.e. distributed mutual
//! exclusion (`arrow_net::lock` wraps that in a guard API). This module holds the
//! transport-free part they share:
//!
//! * [`queue`] — the paper's queuing automaton ([`queue::QueueCore`]): link
//!   pointers, path reversal, recovery epochs. The simulator ([`crate::arrow`])
//!   hosts it alone.
//! * [`core`] — the transport-agnostic per-node arrow state machine
//!   ([`core::ArrowCore`]): the queuing layer composed with the token ledger,
//!   shared with the reactor runtime in the `arrow-net` crate and the model checker
//!   so the tiers cannot drift.

pub mod core;
pub mod queue;

pub use core::{ArrowCore, CoreAction, CoreSnapshot};
pub use queue::{EpochCheck, QueueCore, QueueStep};
