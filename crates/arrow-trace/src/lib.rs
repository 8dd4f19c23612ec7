//! # arrow-trace — the cross-tier observability plane
//!
//! Three pieces, layered so every execution tier (simulator, reactor runtime,
//! process cluster) shares one instrumentation schema:
//!
//! * [`probe`] — the zero-cost [`Probe`] trait the protocol cores are generic
//!   over, plus the [`ProbeEvent`] vocabulary of protocol transition points
//!   (request issued, queue frame per hop, token sent/received, grant, epoch
//!   adoption, orphaned-grant self-release). The default [`NoProbe`] is a
//!   monomorphized no-op: disabled builds compile the instrumentation out.
//! * [`registry`] — a lock-free per-node [`MetricsRegistry`]: enum-indexed
//!   atomic counters and log-bucketed atomic histograms with
//!   snapshot/diff/merge, replacing the ad-hoc counter structs that used to be
//!   scattered across the tiers with one shared schema. A registry with one
//!   writer thread at a time is written through its [`MetricsWriter`], with
//!   no locked instruction.
//! * [`recorder`] + [`analysis`] + [`chrome`] — the causal trace recorder and
//!   its consumers: [`TraceRecorder`] collects timestamped probe events per
//!   node, [`analysis`] reconstructs each request's hop path and per-phase
//!   latency breakdown (transit vs queue-wait vs grant-wait) and computes
//!   per-request observed stretch against tree/graph distances, and
//!   [`chrome`] exports Chrome trace-event JSON loadable in Perfetto
//!   (one track per node, one span per hop).
//!
//! This crate is intentionally dependency-free and speaks raw ids
//! (`node: usize`, `obj: u32`, `req: u64`): it sits *below* `arrow-core`, which
//! plugs its typed ids into these events at the instrumentation sites.
//!
//! ## Example: trace a toy two-hop acquisition
//!
//! ```
//! use arrow_trace::{Probe, ProbeEvent, TraceRecorder};
//! use std::sync::Arc;
//!
//! let rec = Arc::new(TraceRecorder::new());
//! // Node 2 issues request 7 for object 0 and sends the queue() towards node 1.
//! let mut p2 = rec.sim_probe(2);
//! p2.record(ProbeEvent::Tick { units: 0.0 });
//! p2.record(ProbeEvent::RequestIssued { obj: 0, req: 7, origin: 2 });
//! p2.record(ProbeEvent::QueueSent { obj: 0, req: 7, origin: 2, to: 1 });
//! // Node 1 was the sink: request 7 queues behind the root's virtual request.
//! let mut p1 = rec.sim_probe(1);
//! p1.record(ProbeEvent::Tick { units: 1.0 });
//! p1.record(ProbeEvent::QueueReceived { obj: 0, req: 7, origin: 2, from: 2 });
//! p1.record(ProbeEvent::QueuedBehind { obj: 0, req: 7, pred: 0, origin: 2 });
//! drop((p1, p2));
//!
//! let events = Arc::try_unwrap(rec).unwrap().finish();
//! let traces = arrow_trace::analysis::reconstruct(&events);
//! assert_eq!(traces.len(), 1);
//! let hops: Vec<(usize, usize)> = traces[0].hops.iter().map(|h| (h.from, h.to)).collect();
//! assert_eq!(hops, vec![(2, 1)]);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod chrome;
pub mod probe;
pub mod recorder;
pub mod registry;

pub use analysis::{RequestTrace, TraceReport};
pub use probe::{NoProbe, Probe, ProbeEvent};
pub use recorder::{TraceProbe, TraceRecorder};
pub use registry::{
    HistMetric, Metric, MetricsReader, MetricsRegistry, MetricsSnapshot, MetricsWriter,
};
