//! # desim — deterministic discrete-event message-passing simulator
//!
//! This crate is the network substrate for the reproduction of *"Dynamic Analysis of
//! the Arrow Distributed Protocol"* (Herlihy, Kuhn, Tirthapura, Wattenhofer). It models
//! an asynchronous message-passing system of `n` nodes connected by point-to-point
//! FIFO links, with virtual time, pluggable link-latency models (the paper's
//! synchronous unit-latency model and its asynchronous bounded-delay model), per-node
//! protocol automata, statistics and tracing.
//!
//! The design goals, in order:
//!
//! 1. **Determinism** — a run is a pure function of `(processes, config, seed,
//!    scheduled inputs)`, so every experiment in the paper reproduction is replayable.
//! 2. **Fidelity to the paper's model** — unit-latency synchronous links, normalised
//!    asynchronous delays, FIFO links, free local computation, arbitrary local
//!    processing order of simultaneous arrivals (Section 3.1, 3.8).
//! 3. **Scale** — millions of events run in well under a second, so the full
//!    100,000-requests-per-processor workload of Section 5 is feasible. The
//!    [`EventQueue`] keeps one FIFO lane per event kind and a heap only for events
//!    that arrive out of order, so a synchronous run on unit-weight links never
//!    touches the heap; a reused handler [`Context`] means the event loop allocates
//!    nothing per event in steady state.
//!
//! ## Quick example
//!
//! ```
//! use desim::{Context, NodeId, Process, SimConfig, SimTime, Simulator};
//!
//! /// Each node forwards a hop-counter to the next node until it hits zero.
//! struct Relay { n: usize }
//!
//! impl Process<u32> for Relay {
//!     fn on_message(&mut self, ctx: &mut Context<u32>, _from: NodeId, hops: u32) {
//!         if hops > 0 {
//!             let next = (ctx.node() + 1) % self.n;
//!             ctx.send(next, hops - 1);
//!         }
//!     }
//! }
//!
//! let nodes = (0..4).map(|_| Relay { n: 4 }).collect();
//! let mut sim = Simulator::new(nodes, SimConfig::synchronous());
//! sim.schedule_external(SimTime::ZERO, 0, 8);
//! let outcome = sim.run();
//! assert_eq!(outcome.final_time, SimTime::from_units(8));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod event;
pub mod link;
pub mod node;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod time;
pub mod trace;

pub use event::{Event, EventKind, EventQueue};
pub use link::{LatencyModel, LinkState};
pub use node::{Context, NodeId, Process};
pub use rng::SimRng;
pub use sim::{LocalOrder, RunOutcome, SimConfig, SimFault, Simulator, StopReason};
pub use stats::{Histogram, SimStats};
pub use time::{SimDuration, SimTime, SUBTICKS_PER_UNIT};
pub use trace::{Trace, TraceEvent};
