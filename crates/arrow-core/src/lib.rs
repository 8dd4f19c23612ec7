//! # arrow-core — the arrow distributed queuing protocol
//!
//! A faithful implementation of the arrow protocol (Raymond '89; Demmer–Herlihy '98)
//! as analysed in *"Dynamic Analysis of the Arrow Distributed Protocol"* (Herlihy,
//! Kuhn, Tirthapura, Wattenhofer), together with the centralized queuing baseline the
//! paper compares against, workload generators, and a harness that measures the
//! quantities the paper reports.
//!
//! ## What distributed queuing is
//!
//! Nodes of a message-passing network asynchronously request to join a total order
//! (a distributed queue). The protocol must inform the issuer of each request of the
//! identity of its *successor*. This primitive directly supports distributed mutual
//! exclusion (pass a token down the queue), distributed directories (move the object
//! down the queue) and totally ordered multicast.
//!
//! ## How arrow works
//!
//! A spanning tree `T` of the network is fixed in advance. Every node `v` keeps a
//! pointer `link(v)` to a tree neighbour (or to itself — then `v` is the *sink*),
//! initialised so that following pointers from anywhere leads to the root. To queue a
//! request, a node sends a `queue()` message along the pointers; every node the
//! message visits flips its pointer back towards the requester (*path reversal*).
//! When the message reaches a sink, the request has found its predecessor. Concurrent
//! requests chase each other's reversed paths and are ordered without any central
//! coordination.
//!
//! ## Multi-object directories
//!
//! One tree can serve any number of mobile objects (the Demmer–Herlihy directory
//! setting): every [`ObjectId`] gets its own independent link pointers and its own
//! queue at every node, sharing only the physical links. Single-object APIs are the
//! `K = 1` special case ([`ObjectId::DEFAULT`]) and work unchanged; multi-object
//! workloads name objects per request ([`RequestSchedule::from_object_pairs`],
//! [`workload::zipf_objects`]) and [`QueuingOutcome::orders`] carries one
//! independently validated order per object.
//!
//! ## Crate layout
//!
//! * [`request`] / [`workload`] — queuing requests (with their [`ObjectId`]),
//!   schedules, workload generators (incl. Zipf object popularity and migrating
//!   per-object hotspots).
//! * [`host`] — the simulator node: one [`desim::Process`] carrying service time,
//!   the closed-loop workload and the journals, generic over the protocol it hosts.
//! * [`arrow`] — the arrow protocol on that host: glue between [`desim`] and the
//!   shared [`live::QueueCore`], the queuing layer of [`live::ArrowCore`] (one
//!   independent arrow state per object). There is no second arrow automaton.
//! * [`centralized`] — the home-based baseline protocol on the same host
//!   (per-object queue tails).
//! * [`order`] — queuing orders, successor records, per-object validation, latency
//!   accounting.
//! * [`mod@run`] — the harness: run a protocol on `(graph, tree, workload)` and collect
//!   cost/hop statistics plus the per-object orders.
//! * [`live`] — a real-concurrency runtime (one OS thread per node, std mpsc
//!   channels) whose node threads multiplex the per-object automata and exclusion
//!   tokens, plus a [`live::DistributedLock`] built on the queue. Its protocol
//!   logic is the standalone [`live::ArrowCore`] state machine — [`live::QueueCore`]
//!   plus a token ledger — the same one the socket tier (`arrow-net`) and the
//!   process tier (`arrow-cluster`) run and the model checker (`arrow-model`)
//!   explores; the simulator ([`arrow`]) runs its queuing layer, so the tiers
//!   cannot drift.
//!
//! ## Quick example
//!
//! ```
//! use arrow_core::prelude::*;
//! use desim::SimTime;
//!
//! // The paper's experimental platform: complete graph, balanced binary tree.
//! let instance = Instance::complete_uniform(8, SpanningTreeKind::BalancedBinary);
//! // All eight nodes request simultaneously.
//! let nodes: Vec<usize> = (0..8).collect();
//! let schedule = workload::one_shot_burst(&nodes, SimTime::ZERO);
//! let outcome = run(
//!     &instance,
//!     &Workload::OpenLoop(schedule),
//!     &RunConfig::analysis(ProtocolKind::Arrow),
//! );
//! assert_eq!(outcome.order.len(), 8);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod arrow;
pub mod centralized;
pub mod driver;
pub mod fault;
pub mod host;
pub mod live;
pub mod order;
pub mod protocol;
pub mod request;
pub mod run;
pub mod workload;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::driver::{Driver, SimDriver, ThreadDriver};
    pub use crate::fault::{FaultAction, FaultEvent, FaultSchedule};
    pub use crate::order::{validate_churn_records, ChurnOrderError, OrderRecord, QueuingOrder};
    pub use crate::protocol::{ProtoMsg, ProtocolKind};
    pub use crate::request::{ObjectId, Request, RequestId, RequestSchedule};
    pub use crate::run::{
        outcome_from_records, run, run_checked, run_schedule, run_schedule_checked,
        run_schedule_faulted, run_schedule_traced, ChurnOutcome, Instance, QueuingOutcome,
        RunConfig, RunError, SyncMode, FAULT_DETECTION_DELAY,
    };
    pub use crate::workload::{self, ClosedLoopSpec, Workload};
    pub use netgraph::spanning::SpanningTreeKind;
}

pub use prelude::*;
