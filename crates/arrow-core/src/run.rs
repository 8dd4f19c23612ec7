//! Harness: run a queuing protocol on a `(graph, spanning tree, workload)` instance
//! and collect the quantities the paper reports.
//!
//! Two measurement modes matter:
//!
//! * **Analysis mode** ([`RunConfig::analysis`]) — no acknowledgements, no local
//!   service time; the cost is the total latency of Definition 3.3 (for each request,
//!   the time from its issue to the moment its predecessor's node learns who its
//!   successor is). This is what the competitive-ratio experiments use.
//! * **Experiment mode** ([`RunConfig::experiment`]) — reproduces Section 5: each
//!   request is acknowledged back to the requester, nodes pay a per-message local
//!   service time, and the workload is closed-loop. The reported quantities are the
//!   makespan (Figure 10) and the average inter-processor hops per request
//!   (Figure 11).
//!
//! A simulator run's result path is linear in the number of requests `R`. Set-up
//! gives every node of the run one shared [`RunJournal`], sized from the workload
//! (`R` issues and `R` successions), so a fault-free run never regrows it. The
//! simulator dispatches events in time order, so the journal is written in time
//! order, and simultaneous issues are kept in id order as they are journaled.
//! Once the simulator is quiescent, the harvest takes the journal whole: its
//! issues are the schedule as they stand, and a fault-free run keeps of its
//! completions only the count and latency sum. Validation then assembles and
//! checks every object's order ([`crate::order::per_object_orders`]) against
//! that schedule.

use crate::arrow::ArrowSim;
use crate::centralized::CentralTail;
use crate::fault::FaultSchedule;
use crate::host::{Automaton, RunJournal, SimNode};
use crate::live::QueueCore;
use crate::order::{validate_churn_records, OrderRecord, QueuingOrder};
use crate::protocol::{ProtoMsg, ProtocolKind};
use crate::request::{ObjectId, Request, RequestId, RequestSchedule};
use crate::workload::{ClosedLoopSpec, Workload};
use arrow_trace::{NoProbe, Probe};
use desim::{LatencyModel, LocalOrder, SimConfig, SimDuration, SimTime, Simulator};
use netgraph::spanning::{build_spanning_tree, SpanningTreeKind};
use netgraph::{DistanceMatrix, Graph, NodeId, RootedTree, StretchReport};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};

/// A problem instance: the communication graph and the pre-selected spanning tree.
///
/// The all-pairs graph distances and the stretch report are computed lazily and
/// cached, so a sweep that evaluates many runs (or many workloads) on one topology
/// pays for them once instead of once per run. The caches are shared by `clone()`
/// (the distance matrix sits behind an [`Arc`]) and are thread-safe, so one
/// `Instance` can back a whole parallel sweep.
///
/// The paper's platform ([`Instance::complete_uniform`]) is held by its tree
/// alone: a run reads only the tree, plus `d_G` for acknowledgements, and the
/// complete graph's metric is closed-form ([`DistanceMatrix::uniform`]). Its
/// `K_n` is built when [`Instance::graph`] or [`Instance::stretch_report`]
/// first reads it.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The communication graph `G`, set at construction except on the complete
    /// platform, which builds it on first read. Private: the cached distance
    /// matrix and stretch report below are derived from it, so mutation after
    /// construction would make them silently stale — build a new `Instance`
    /// instead.
    graph: OnceLock<Graph>,
    /// The pre-selected rooted spanning tree `T`; its root holds the initial queue tail.
    tree: RootedTree,
    /// `Some(w)` when `G` is the complete graph whose edges all weigh `w`: its
    /// graph is built on demand and its metric is closed-form.
    complete_weight: Option<f64>,
    /// Lazily computed all-pairs distances of `graph`.
    dm: OnceLock<Arc<DistanceMatrix>>,
    /// Lazily computed stretch report of `tree` relative to `graph`.
    stretch: OnceLock<StretchReport>,
}

impl Instance {
    /// Create an instance from a graph and a rooted spanning tree over the same nodes.
    ///
    /// # Panics
    /// If the node counts differ or a tree edge is not a graph edge.
    pub fn new(graph: Graph, tree: RootedTree) -> Self {
        assert_eq!(
            graph.node_count(),
            tree.node_count(),
            "graph and tree must have the same node set"
        );
        for v in 0..tree.node_count() {
            if let Some(p) = tree.parent(v) {
                assert!(
                    graph.has_edge(v, p),
                    "tree edge ({v},{p}) is not an edge of the graph"
                );
            }
        }
        Instance::built(graph, tree)
    }

    /// The platform of the paper's experiment: a complete graph with uniform unit
    /// latency and the requested spanning tree rooted at node 0.
    ///
    /// The `BalancedBinary` and `Star` trees are built from `n` alone, in
    /// `O(n)`, and the `n(n−1)/2` edges of `K_n` only when [`Instance::graph`]
    /// or [`Instance::stretch_report`] first reads them; the other kinds search
    /// the graph, so they build it here. Either way [`Instance::distances`] is
    /// the closed-form metric (0 on the diagonal, 1 everywhere else), with no
    /// search.
    pub fn complete_uniform(n: usize, kind: SpanningTreeKind) -> Self {
        const WEIGHT: f64 = 1.0;
        let from_tree = |tree_graph: Graph| RootedTree::from_tree_graph(&tree_graph, 0);
        let (graph, tree) = match kind {
            SpanningTreeKind::BalancedBinary => (
                OnceLock::new(),
                from_tree(netgraph::generators::balanced_binary_tree(n)),
            ),
            SpanningTreeKind::Star => (OnceLock::new(), from_tree(netgraph::generators::star(n))),
            _ => {
                let graph = netgraph::generators::complete(n, WEIGHT);
                let tree = build_spanning_tree(&graph, 0, kind);
                (OnceLock::from(graph), tree)
            }
        };
        Instance {
            graph,
            tree,
            complete_weight: Some(WEIGHT),
            dm: OnceLock::new(),
            stretch: OnceLock::new(),
        }
    }

    /// An instance whose communication graph *is* the tree (`G = T`, stretch 1), as in
    /// the lower-bound construction of Theorem 4.1. Takes the graph by value — the
    /// callers own it, so no clone is needed.
    pub fn tree_only(tree_graph: Graph, root: NodeId) -> Self {
        let tree = RootedTree::from_tree_graph(&tree_graph, root);
        Instance::built(tree_graph, tree)
    }

    /// An instance over a graph already in hand, with cold caches.
    fn built(graph: Graph, tree: RootedTree) -> Self {
        Instance {
            graph: OnceLock::from(graph),
            tree,
            complete_weight: None,
            dm: OnceLock::new(),
            stretch: OnceLock::new(),
        }
    }

    /// The communication graph `G` (built on first read on the complete
    /// platform, see [`Instance::complete_uniform`]).
    pub fn graph(&self) -> &Graph {
        self.graph.get_or_init(|| {
            let weight = self
                .complete_weight
                .expect("only the complete platform builds its graph on demand");
            netgraph::generators::complete(self.node_count(), weight)
        })
    }

    /// The pre-selected rooted spanning tree `T`.
    pub fn tree(&self) -> &RootedTree {
        &self.tree
    }

    /// All-pairs shortest-path distances of the communication graph, computed on
    /// first use (closed-form on the complete platform) and shared (cheaply
    /// clonable [`Arc`]) afterwards.
    pub fn distances(&self) -> Arc<DistanceMatrix> {
        Arc::clone(self.dm.get_or_init(|| match self.complete_weight {
            Some(weight) => Arc::new(DistanceMatrix::uniform(self.node_count(), weight)),
            None => DistanceMatrix::shared(self.graph()),
        }))
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.tree.node_count()
    }

    /// Stretch/diameter report of the tree relative to the graph (computed once,
    /// cached; reuses the cached distance matrix, so the complete platform builds
    /// no graph for it).
    pub fn stretch_report(&self) -> StretchReport {
        *self
            .stretch
            .get_or_init(|| netgraph::stretch_with_distances(&self.tree, &self.distances()))
    }
}

/// Synchrony model for a run (Sections 3.1 and 3.8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SyncMode {
    /// Every message takes exactly the link weight (unit latency on unweighted graphs).
    Synchronous,
    /// Each message takes an adversarially random fraction of the link weight, with
    /// the worst case normalised to the link weight; simultaneous arrivals are
    /// processed in random order.
    Asynchronous,
}

/// Configuration of a protocol run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunConfig {
    /// Which protocol to run.
    pub protocol: ProtocolKind,
    /// Synchrony model.
    pub sync: SyncMode,
    /// PRNG seed (drives asynchronous delays and random local processing order).
    pub seed: u64,
    /// Send a `Found` acknowledgement back to each requester. Acks travel over the
    /// graph metric (`d_G(sink, requester)`, deterministic even in the asynchronous
    /// model — they are not part of the randomised protocol cost).
    pub ack_to_requester: bool,
    /// Per-message local service time in time units (0 = free local computation, the
    /// assumption of the analysis).
    pub local_service_time: f64,
    /// Lower bound on asynchronous latencies, as a fraction of the link weight
    /// (ignored in the synchronous model). Defaults to
    /// [`desim::SimConfig::DEFAULT_ASYNC_LO`].
    pub async_lo_factor: f64,
    /// How long a live-tier acquire may wait for its token before the driver fails
    /// the run with [`RunError::GrantTimeout`] (ignored by the simulator tiers,
    /// which have no wall clock). Defaults to [`RunConfig::DEFAULT_GRANT_TIMEOUT_MS`];
    /// fault sweeps lower it so a genuinely lost token fails fast.
    pub grant_timeout_ms: u64,
}

impl RunConfig {
    /// Default live-tier grant timeout: generous enough that a loaded fault-free
    /// run never trips it, short enough that a deadlocked sweep still terminates.
    pub const DEFAULT_GRANT_TIMEOUT_MS: u64 = 30_000;

    /// Analysis mode: the model of Section 3 (free local computation, no acks).
    pub fn analysis(protocol: ProtocolKind) -> Self {
        RunConfig {
            protocol,
            sync: SyncMode::Synchronous,
            seed: 0,
            ack_to_requester: false,
            local_service_time: 0.0,
            async_lo_factor: SimConfig::DEFAULT_ASYNC_LO,
            grant_timeout_ms: RunConfig::DEFAULT_GRANT_TIMEOUT_MS,
        }
    }

    /// Experiment mode: the measurement setup of Section 5 (acknowledged requests,
    /// per-message service time).
    pub fn experiment(protocol: ProtocolKind, service_time: f64) -> Self {
        RunConfig {
            protocol,
            sync: SyncMode::Synchronous,
            seed: 0,
            ack_to_requester: true,
            local_service_time: service_time,
            async_lo_factor: SimConfig::DEFAULT_ASYNC_LO,
            grant_timeout_ms: RunConfig::DEFAULT_GRANT_TIMEOUT_MS,
        }
    }

    /// Set the live-tier grant timeout (milliseconds).
    pub fn with_grant_timeout_ms(mut self, ms: u64) -> Self {
        self.grant_timeout_ms = ms;
        self
    }

    /// The live-tier grant timeout as a [`std::time::Duration`].
    pub fn grant_timeout(&self) -> std::time::Duration {
        std::time::Duration::from_millis(self.grant_timeout_ms)
    }

    /// Switch to the asynchronous model with the given seed.
    pub fn asynchronous(mut self, seed: u64) -> Self {
        self.sync = SyncMode::Asynchronous;
        self.seed = seed;
        self
    }

    /// Set the lower bound on asynchronous latencies (a fraction of the link weight
    /// in `(0, 1]`; the paper's model only requires latencies to be positive and at
    /// most the link weight).
    pub fn with_async_floor(mut self, lo_factor: f64) -> Self {
        self.async_lo_factor = lo_factor;
        self
    }
}

/// Everything measured in one protocol run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueuingOutcome {
    /// Which protocol ran.
    pub protocol: ProtocolKind,
    /// The requests that were issued (for closed-loop workloads, reconstructed from
    /// the run), across all objects.
    pub schedule: RequestSchedule,
    /// The validated total order of the default object ([`ObjectId::DEFAULT`]) —
    /// i.e. *the* order of a single-object run. Empty if the workload never touched
    /// object 0.
    pub order: QueuingOrder,
    /// The validated total order of every object, ascending by object id. Each
    /// order is validated independently against the object's sub-schedule.
    pub orders: Vec<(ObjectId, QueuingOrder)>,
    /// Total latency per Definitions 3.2/3.3, in time units, summed over objects.
    pub total_latency: f64,
    /// Virtual time at which the system became quiescent (the experiment's
    /// "total latency for N enqueues" of Figure 10).
    pub makespan: f64,
    /// All messages delivered by the network.
    pub total_messages: u64,
    /// Simulator events processed (deliveries + external inputs + timer firings) —
    /// the numerator of the events/sec throughput benchmarks.
    pub sim_events: u64,
    /// Inter-processor protocol messages: arrow `queue()` hops, or centralized
    /// enqueue/reply messages.
    pub protocol_messages: u64,
    /// `protocol_messages / |R|` — the quantity of Figure 11.
    pub hops_per_request: f64,
    /// Mean time from a request's issue to its requester learning its predecessor
    /// (only meaningful when acknowledgements are enabled).
    pub mean_completion_latency: f64,
}

impl QueuingOutcome {
    /// Number of requests handled (across all objects).
    pub fn request_count(&self) -> usize {
        self.schedule.len()
    }

    /// Number of distinct objects that saw at least one request.
    pub fn object_count(&self) -> usize {
        self.orders.len()
    }

    /// The validated queuing order of one object, if it saw any requests.
    pub fn order_for(&self, obj: ObjectId) -> Option<&QueuingOrder> {
        self.orders
            .iter()
            .find(|(o, _)| *o == obj)
            .map(|(_, order)| order)
    }
}

/// A typed failure of a protocol run.
///
/// The historical entry points ([`run`], [`run_schedule`]) abort the process on a
/// protocol bug, which is the right behaviour for experiments — a corrupted order
/// must not silently feed a figure. The conformance harness, however, needs failures
/// *as data*: a differential sweep records the failing case, shrinks it and moves on.
/// The `*_checked` entry points ([`run_checked`], [`run_schedule_checked`]) return
/// this error instead of panicking; the panicking wrappers delegate to them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RunError {
    /// The protocol produced an invalid queuing order for one object (see
    /// [`crate::order::OrderError`] for what can go wrong with a record set).
    InvalidOrder {
        /// The object whose order failed validation.
        obj: ObjectId,
        /// Why the records do not assemble into a valid total order.
        error: crate::order::OrderError,
    },
    /// A node observed a message that violates the protocol (e.g. an arrow node
    /// receiving a centralized-protocol message). The offending message is dropped
    /// and recorded rather than aborting the simulation.
    ProtocolViolation {
        /// The node that observed the violation.
        node: NodeId,
        /// Human-readable description of the violating input.
        description: String,
    },
    /// A transport-level failure made the run unable to complete (used by the
    /// live-tier drivers, e.g. a socket peer that stayed unreachable).
    Transport {
        /// The node that observed the failure.
        node: NodeId,
        /// Human-readable description of the failure.
        description: String,
    },
    /// A live-tier acquire waited longer than [`RunConfig::grant_timeout_ms`] for
    /// its token — the classic symptom of a lost token (e.g. its holder crashed
    /// and recovery failed). Distinct from [`RunError::Transport`] so sweeps can
    /// tell a deadlock from an I/O failure.
    GrantTimeout {
        /// The node whose acquire starved.
        node: NodeId,
        /// The object it was waiting for.
        obj: ObjectId,
        /// How long it waited, in milliseconds.
        waited_ms: u64,
    },
    /// A run with fault injection broke the churn contract: a surviving request
    /// was never granted (or granted twice), or the per-epoch order records are
    /// inconsistent (see [`crate::order::validate_churn_records`]).
    ChurnViolation {
        /// Human-readable description of the violated invariant.
        description: String,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::InvalidOrder { obj, error } => {
                write!(
                    f,
                    "protocol produced an invalid queuing order for {obj}: {error:?}"
                )
            }
            RunError::ProtocolViolation { node, description } => {
                write!(f, "protocol violation at node {node}: {description}")
            }
            RunError::Transport { node, description } => {
                write!(f, "transport failure at node {node}: {description}")
            }
            RunError::GrantTimeout {
                node,
                obj,
                waited_ms,
            } => {
                write!(
                    f,
                    "grant timed out at node {node} for {obj} after {waited_ms} ms \
                     (possible lost token)"
                )
            }
            RunError::ChurnViolation { description } => {
                write!(f, "churn contract violated: {description}")
            }
        }
    }
}

impl std::error::Error for RunError {}

fn sim_config(config: &RunConfig) -> SimConfig {
    let (latency, local_order) = match config.sync {
        SyncMode::Synchronous => (LatencyModel::EdgeWeight, LocalOrder::Fifo),
        SyncMode::Asynchronous => (
            LatencyModel::ScaledUniform {
                lo_factor: config.async_lo_factor,
            },
            LocalOrder::Random,
        ),
    };
    SimConfig {
        latency,
        seed: config.seed,
        local_order,
        max_events: None,
        max_time: None,
    }
}

/// Run a queuing protocol on an instance with the given workload and configuration.
///
/// # Panics
/// If the protocol produces an invalid queuing order or violates the message
/// contract (which would be a protocol bug — see [`run_checked`] for the
/// non-aborting variant), or the workload/configuration combination is
/// inconsistent (closed-loop without acknowledgements).
pub fn run(instance: &Instance, workload: &Workload, config: &RunConfig) -> QueuingOutcome {
    run_checked(instance, workload, config).unwrap_or_else(|e| panic!("{e}"))
}

/// Like [`run`], but protocol failures come back as a typed [`RunError`] instead of
/// aborting the process — the form the conformance harness needs (failures as data).
pub fn run_checked(
    instance: &Instance,
    workload: &Workload,
    config: &RunConfig,
) -> Result<QueuingOutcome, RunError> {
    let workload = match workload {
        Workload::OpenLoop(schedule) => WorkloadRef::Open(schedule),
        Workload::ClosedLoop(spec) => WorkloadRef::Closed(spec),
    };
    run_ref(instance, workload, config)
}

/// Run a queuing protocol on an open-loop schedule without wrapping it in a
/// [`Workload`] (and therefore without cloning it — schedules can hold millions of
/// requests, and sweeps call this in a tight loop).
///
/// # Panics
/// On protocol bugs, like [`run`]; use [`run_schedule_checked`] to get a typed
/// error instead.
pub fn run_schedule(
    instance: &Instance,
    schedule: &RequestSchedule,
    config: &RunConfig,
) -> QueuingOutcome {
    run_schedule_checked(instance, schedule, config).unwrap_or_else(|e| panic!("{e}"))
}

/// Like [`run_schedule`], but returns protocol failures as a typed [`RunError`]
/// (invalid queuing order, dropped protocol-violating message) instead of panicking.
pub fn run_schedule_checked(
    instance: &Instance,
    schedule: &RequestSchedule,
    config: &RunConfig,
) -> Result<QueuingOutcome, RunError> {
    run_ref(instance, WorkloadRef::Open(schedule), config)
}

/// Like [`run_schedule_checked`], but every arrow node carries a recording probe
/// built by `probe_for` (typically [`arrow_trace::TraceRecorder::sim_probe`]), so
/// the run leaves a causal event trace behind. The probes are dropped — and
/// therefore flushed to their recorder — before this returns.
///
/// The simulator advances virtual time, so use sim-mode probes: each node emits
/// a [`arrow_trace::ProbeEvent::Tick`] carrying the simulation clock before
/// every dispatch.
///
/// # Panics
/// If the config selects the centralized protocol (probes instrument the arrow
/// automaton).
pub fn run_schedule_probed<P: arrow_trace::Probe>(
    instance: &Instance,
    schedule: &RequestSchedule,
    config: &RunConfig,
    probe_for: impl FnMut(NodeId) -> P,
) -> Result<QueuingOutcome, RunError> {
    assert_eq!(
        config.protocol,
        ProtocolKind::Arrow,
        "probed runs instrument the arrow protocol only"
    );
    run_arrow_with(instance, WorkloadRef::Open(schedule), config, probe_for)
}

/// Delay, in time units, between a fault event and the detection signal that bumps
/// every surviving node to the next recovery epoch. Correctness does not depend on
/// the value (stale-epoch traffic is rejected on receipt); it only controls how long
/// the directory runs in a degraded state.
pub const FAULT_DETECTION_DELAY: f64 = 1.5;

/// Everything observed in one simulator run under fault injection.
///
/// The fault-free outcome type ([`QueuingOutcome`]) cannot describe a churn run:
/// requests may never be issued (their node was crashed), each recovery epoch
/// builds its own order chain, and completion counts — not a single total order —
/// are the liveness evidence. [`ChurnOutcome::validate`] checks the churn contract:
/// every issued request granted exactly once, every epoch fork-free, the final
/// epoch one complete chain per object.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChurnOutcome {
    /// The scheduled (input) requests.
    pub schedule: RequestSchedule,
    /// Requests actually issued by their node (sorted by id).
    pub issued: Vec<RequestId>,
    /// Scheduled requests that were never issued because their node was crashed at
    /// issue time — excused from the liveness contract (sorted by id).
    pub excused: Vec<RequestId>,
    /// Requests whose requester observed completion, first notification per
    /// request (sorted by id).
    pub granted: Vec<RequestId>,
    /// All successor records, epoch-stamped.
    pub records: Vec<OrderRecord>,
    /// The epoch the run converged to (= number of fault events).
    pub final_epoch: u64,
    /// Messages lost to crashes and severed links.
    pub messages_dropped: u64,
    /// Externals/timers silenced at crashed nodes.
    pub silenced_inputs: u64,
    /// Stale-epoch messages rejected by nodes.
    pub stale_drops: u64,
    /// Duplicate cross-epoch completion notifications suppressed (first one wins).
    pub duplicate_grants: u64,
    /// Virtual time at which the system drained.
    pub makespan: f64,
}

impl ChurnOutcome {
    /// Records proving the directory rebuilt a queue from a *regenerated* root
    /// token: successions recorded behind the virtual root request in an epoch
    /// bumped by fault recovery (> 0). At least one of these means the token was
    /// regenerated after being lost.
    pub fn token_regenerations(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.epoch > 0 && r.predecessor.is_root())
            .count() as u64
    }

    /// Check the churn liveness and order contract: every issued request granted
    /// exactly once (never-issued requests are excused), every `(object, epoch)`
    /// record group fork-free, and the final epoch forming one complete chain per
    /// object.
    pub fn validate(&self) -> Result<(), RunError> {
        for req in &self.issued {
            if self.granted.binary_search(req).is_err() {
                return Err(RunError::ChurnViolation {
                    description: format!("request {req} was issued but never granted"),
                });
            }
        }
        for req in &self.granted {
            if self.issued.binary_search(req).is_err() {
                return Err(RunError::ChurnViolation {
                    description: format!("request {req} was granted but never issued"),
                });
            }
        }
        validate_churn_records(&self.records, self.final_epoch).map_err(|e| {
            RunError::ChurnViolation {
                description: e.to_string(),
            }
        })
    }
}

/// Run the arrow protocol on an open-loop schedule while injecting the given
/// fault schedule, with epoch-based recovery: after each fault event every
/// surviving node receives a detection signal ([`ProtoMsg::Epoch`]) that resets
/// the tree orientation, regenerates the object tokens at the root and re-issues
/// still-pending requests under their original ids.
///
/// Acknowledgements are forced on (the requester must observe completion for the
/// liveness contract to be checkable). Returns the raw observations; call
/// [`ChurnOutcome::validate`] for the contract check.
///
/// # Panics
/// If the config selects the centralized protocol (fault recovery is an arrow
/// protocol extension) or a positive local service time (a crash would strand the
/// service timer).
pub fn run_schedule_faulted(
    instance: &Instance,
    schedule: &RequestSchedule,
    config: &RunConfig,
    faults: &FaultSchedule,
) -> Result<ChurnOutcome, RunError> {
    assert_eq!(
        config.protocol,
        ProtocolKind::Arrow,
        "fault injection supports the arrow protocol only"
    );
    assert_eq!(
        config.local_service_time, 0.0,
        "faulted runs require free local computation (a crash would strand the \
         service-queue timer and wedge the node)"
    );
    let n = instance.node_count();
    let tree = &instance.tree;
    faults
        .validate(tree)
        .map_err(|description| RunError::ChurnViolation { description })?;

    let mut config = config.clone();
    config.ack_to_requester = true;
    let (mut sim, journal) = arrow_sim(
        instance,
        WorkloadRef::Open(schedule),
        &config,
        Completions::Kept,
        |_| NoProbe,
    );
    // Inject the faults, and after each one a detection signal to every node
    // advancing the recovery epoch (crashed nodes miss it — silenced — and catch up
    // from the next signal or fast-forward from live traffic after restarting).
    for (t, fault) in faults.events_for_sim(tree) {
        sim.schedule_fault(t, fault);
    }
    for (i, ev) in faults.events.iter().enumerate() {
        let t = SimTime::from_units(ev.at) + SimDuration::from_units_f64(FAULT_DETECTION_DELAY);
        for v in 0..n {
            sim.schedule_external(
                t,
                v,
                ProtoMsg::Epoch {
                    epoch: i as u64 + 1,
                },
            );
        }
    }
    let outcome = sim.run();

    let Harvest {
        journal,
        duplicate_grants,
        ..
    } = harvest(&sim, &journal)?;
    let (issued, mut records, completions) = journal.into_parts();
    let mut issued: Vec<RequestId> = issued.iter().map(|r| r.id).collect();
    issued.sort_unstable();
    let mut granted: Vec<RequestId> = completions.iter().map(|done| done.req).collect();
    granted.sort_unstable();
    // Node by node, each node's in the order it journaled them.
    records.sort_by_key(|r| r.at_node);
    let excused: Vec<RequestId> = schedule
        .requests()
        .iter()
        .map(|r| r.id)
        .filter(|id| issued.binary_search(id).is_err())
        .collect();
    Ok(ChurnOutcome {
        schedule: schedule.clone(),
        issued,
        excused,
        granted,
        records,
        final_epoch: faults.final_epoch(),
        messages_dropped: sim.stats().messages_dropped,
        silenced_inputs: sim.stats().silenced_inputs,
        stale_drops: (0..n)
            .map(|v| sim.node(v).automaton().core().stale_drops())
            .sum(),
        duplicate_grants,
        makespan: outcome.final_time.as_units_f64(),
    })
}

/// Borrowed view of a workload, so harness entry points never clone schedules.
#[derive(Clone, Copy)]
enum WorkloadRef<'a> {
    Open(&'a RequestSchedule),
    Closed(&'a ClosedLoopSpec),
}

fn run_ref(
    instance: &Instance,
    workload: WorkloadRef<'_>,
    config: &RunConfig,
) -> Result<QueuingOutcome, RunError> {
    match config.protocol {
        ProtocolKind::Arrow => run_arrow_with(instance, workload, config, |_| NoProbe),
        ProtocolKind::Centralized => {
            let (mut sim, journal) = central_sim(instance, workload, config);
            run_to_outcome(ProtocolKind::Centralized, &mut sim, &journal)
        }
    }
}

/// Whether a run's journal keeps every completion (a faulted run lists the
/// requests granted) or only their count and latency sum (all a
/// [`QueuingOutcome`] reads).
#[derive(Clone, Copy)]
enum Completions {
    Kept,
    Counted,
}

/// A simulator ready to run, and the journal all its nodes append to.
type SimRun<A> = (Simulator<ProtoMsg, SimNode<A>>, Rc<RefCell<RunJournal>>);

/// The set-up every simulator run shares: one hosted node per graph node, all
/// appending to one journal, the closed loop switched on or the open-loop issues
/// queued. `node_for(v)` builds node `v`. Link weights are the caller's (they
/// differ by protocol).
fn set_up<A: Automaton>(
    instance: &Instance,
    workload: WorkloadRef<'_>,
    config: &RunConfig,
    completions: Completions,
    mut node_for: impl FnMut(NodeId) -> SimNode<A>,
) -> SimRun<A> {
    let n = instance.node_count();
    let requests = match workload {
        WorkloadRef::Open(schedule) => schedule.len(),
        WorkloadRef::Closed(spec) => spec.requests_per_node as usize * n,
    };
    // A fault-free run queues every request once. Under faults the count is a
    // hint, not a bound.
    let journal = Rc::new(RefCell::new(RunJournal::new(
        requests,
        requests,
        matches!(completions, Completions::Kept),
    )));
    let mut nodes: Vec<SimNode<A>> = (0..n).map(&mut node_for).collect();
    for node in &mut nodes {
        node.join(&journal);
        if let WorkloadRef::Closed(spec) = workload {
            node.enable_closed_loop(spec, n);
        }
    }
    let mut sim = Simulator::new(nodes, sim_config(config));
    if let WorkloadRef::Open(schedule) = workload {
        for r in schedule.requests() {
            sim.schedule_external(
                r.time,
                r.node,
                ProtoMsg::Issue {
                    req: r.id,
                    obj: r.obj,
                },
            );
        }
    }
    (sim, journal)
}

/// A simulator of arrow nodes on the instance's tree, ready to run: fault-free and
/// faulted runs start from here.
fn arrow_sim<P: Probe>(
    instance: &Instance,
    workload: WorkloadRef<'_>,
    config: &RunConfig,
    completions: Completions,
    mut probe_for: impl FnMut(NodeId) -> P,
) -> SimRun<ArrowSim<P>> {
    let n = instance.node_count();
    let tree = &instance.tree;
    // One independent arrow automaton per object, all rooted at the tree root (every
    // object's virtual request starts there). K is whatever the workload names.
    let k = match workload {
        WorkloadRef::Open(schedule) => schedule.object_id_bound(),
        WorkloadRef::Closed(_) => 1,
    };
    // Per-node arrow state is indexed by object id, so total state is n × K object
    // slots. Object ids are expected to be dense (the generators produce 0..K);
    // refuse pathologically sparse id spaces instead of allocating for them.
    assert!(
        k.saturating_mul(n) <= (1 << 26),
        "object id space too large: max object id {} on {n} nodes would allocate \
         {k} object states per node — use dense object ids starting at 0",
        k - 1
    );
    // Acknowledgements travel over the graph metric: each ack is a direct send
    // paying d_G(sink, requester), so only the tree links below need weights.
    let ack_over = config.ack_to_requester.then(|| instance.distances());
    let (mut sim, journal) = set_up(instance, workload, config, completions, |v| {
        let core = QueueCore::for_tree_with_probe(v, tree, k, probe_for(v));
        ArrowSim::node(core, ack_over.clone(), config.local_service_time)
    });
    for v in 0..n {
        if let Some(p) = tree.parent(v) {
            sim.set_link_weight(v, p, tree.parent_edge_weight(v));
        }
    }
    (sim, journal)
}

fn run_arrow_with<P: Probe>(
    instance: &Instance,
    workload: WorkloadRef<'_>,
    config: &RunConfig,
    probe_for: impl FnMut(NodeId) -> P,
) -> Result<QueuingOutcome, RunError> {
    if matches!(workload, WorkloadRef::Closed(_)) {
        assert!(
            config.ack_to_requester,
            "closed-loop workloads require acknowledgements (the requester must learn \
             about completion to issue its next request)"
        );
    }
    let (mut sim, journal) = arrow_sim(instance, workload, config, Completions::Counted, probe_for);
    run_to_outcome(ProtocolKind::Arrow, &mut sim, &journal)
}

/// A simulator of the centralized baseline on the instance's graph, ready to run.
fn central_sim(
    instance: &Instance,
    workload: WorkloadRef<'_>,
    config: &RunConfig,
) -> SimRun<CentralTail> {
    // The central node is the tree root (the initial queue tail in both protocols).
    let central = instance.tree.root();
    // It keeps a queue tail per object id: refuse a sparse id space, as arrow does.
    if let WorkloadRef::Open(schedule) = workload {
        let k = schedule.object_id_bound();
        assert!(
            k <= 1 << 26,
            "object id space too large: max object id {} would allocate {k} queue \
             tails — use dense object ids starting at 0",
            k - 1
        );
    }
    let (mut sim, journal) = set_up(instance, workload, config, Completions::Counted, |v| {
        CentralTail::node(v, central, config.local_service_time)
    });
    // Requests and replies travel directly over the graph: weight = d_G(v, central).
    let dm = instance.distances();
    for v in 0..instance.node_count() {
        if v != central {
            sim.set_link_weight(v, central, dm.dist(v, central));
        }
    }
    (sim, journal)
}

/// Run a fault-free simulator to quiescence and assemble its validated outcome.
fn run_to_outcome<A: Automaton>(
    protocol: ProtocolKind,
    sim: &mut Simulator<ProtoMsg, SimNode<A>>,
    journal: &RefCell<RunJournal>,
) -> Result<QueuingOutcome, RunError> {
    let outcome = sim.run();
    let Harvest {
        journal,
        protocol_messages,
        ..
    } = harvest(sim, journal)?;
    let mean_completion_latency = journal.mean_completion_latency();
    let (issued, records, _) = journal.into_parts();
    let totals = Totals {
        protocol_messages,
        total_messages: sim.stats().messages_delivered,
        sim_events: outcome.events,
        final_time: outcome.final_time,
        mean_completion_latency,
    };
    finish(
        protocol,
        RequestSchedule::from_requests(issued),
        records,
        totals,
    )
}

/// The journal of one run and the counters its nodes kept.
struct Harvest {
    journal: RunJournal,
    protocol_messages: u64,
    duplicate_grants: u64,
}

/// Take the run's journal and sum the nodes' counters, or return the first
/// protocol violation a node recorded.
fn harvest<A: Automaton>(
    sim: &Simulator<ProtoMsg, SimNode<A>>,
    journal: &RefCell<RunJournal>,
) -> Result<Harvest, RunError> {
    let hosts = (0..sim.node_count()).map(|v| sim.node(v).host());
    let mut harvest = Harvest {
        journal: journal.take(),
        protocol_messages: 0,
        duplicate_grants: 0,
    };
    for (node, host) in hosts.enumerate() {
        if let Some(description) = host.protocol_violation() {
            return Err(RunError::ProtocolViolation {
                node,
                description: description.to_string(),
            });
        }
        harvest.protocol_messages += host.protocol_messages();
        harvest.duplicate_grants += host.duplicate_grants();
    }
    Ok(harvest)
}

/// Assemble a validated [`QueuingOutcome`] from externally journaled requests and
/// successor records — the assembly half of the harness, exposed so the live-tier
/// drivers (the reactor runtime, in process or per `arrowd` daemon) can hold their journals to exactly the
/// same per-object validation contract the simulator output goes through. Returns
/// [`RunError::InvalidOrder`] when any object's records fail validation.
pub fn outcome_from_records(
    protocol: ProtocolKind,
    mut issued: Vec<Request>,
    records: Vec<OrderRecord>,
    protocol_messages: u64,
    total_messages: u64,
    makespan: SimTime,
) -> Result<QueuingOutcome, RunError> {
    issued.sort_by_key(|r| (r.time, r.id));
    let totals = Totals {
        protocol_messages,
        total_messages,
        sim_events: 0,
        final_time: makespan,
        mean_completion_latency: 0.0,
    };
    finish(
        protocol,
        RequestSchedule::from_requests(issued),
        records,
        totals,
    )
}

/// The counts of a run that its journal does not hold.
struct Totals {
    protocol_messages: u64,
    total_messages: u64,
    sim_events: u64,
    final_time: SimTime,
    mean_completion_latency: f64,
}

/// Validate every object's order against `schedule` and assemble the outcome.
fn finish(
    protocol: ProtocolKind,
    schedule: RequestSchedule,
    records: Vec<OrderRecord>,
    totals: Totals,
) -> Result<QueuingOutcome, RunError> {
    // Each object's queue is validated independently against the object's own
    // requests (the tier-shared contract of `order::per_object_orders`): every
    // request queued exactly once, one unbroken chain from that object's virtual
    // root request.
    let orders = crate::order::journal_orders(records, &schedule)
        .map_err(|(obj, error)| RunError::InvalidOrder { obj, error })?;
    let mut total_latency = 0.0;
    for (_, order) in &orders {
        total_latency += order.total_latency(&schedule).as_units_f64();
    }
    let order = orders
        .iter()
        .find(|(o, _)| *o == ObjectId::DEFAULT)
        .map(|(_, order)| order.clone())
        .unwrap_or_default();
    let request_count = schedule.len().max(1);
    Ok(QueuingOutcome {
        protocol,
        total_latency,
        makespan: totals.final_time.as_units_f64(),
        total_messages: totals.total_messages,
        sim_events: totals.sim_events,
        protocol_messages: totals.protocol_messages,
        hops_per_request: totals.protocol_messages as f64 / request_count as f64,
        mean_completion_latency: totals.mean_completion_latency,
        schedule,
        order,
        orders,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    fn path_instance(n: usize) -> Instance {
        Instance::tree_only(netgraph::generators::path(n), 0)
    }

    #[test]
    fn arrow_cost_equals_sum_of_tree_distances_between_consecutive_requests() {
        // Equation (2) of the paper: with unit latencies and no concurrency-induced
        // deflection ambiguity, the total latency is the sum of tree distances between
        // consecutive requests in arrow's order.
        let instance = path_instance(6);
        let schedule = workload::sequential_round_robin(&[5, 2, 4], 3, 100.0);
        let outcome = run(
            &instance,
            &Workload::OpenLoop(schedule),
            &RunConfig::analysis(ProtocolKind::Arrow),
        );
        // Order is issue order (sequential): 5 behind root(0), 2 behind 5, 4 behind 2.
        // d_T = 5 + 3 + 2 = 10.
        assert_eq!(outcome.total_latency, 10.0);
        assert_eq!(outcome.request_count(), 3);
        assert_eq!(outcome.protocol_messages, 10);
    }

    #[test]
    fn concurrent_burst_produces_valid_order_for_both_protocols() {
        let instance = Instance::complete_uniform(12, SpanningTreeKind::BalancedBinary);
        let nodes: Vec<NodeId> = (0..12).collect();
        let schedule = workload::one_shot_burst(&nodes, SimTime::ZERO);
        for protocol in [ProtocolKind::Arrow, ProtocolKind::Centralized] {
            let outcome = run(
                &instance,
                &Workload::OpenLoop(schedule.clone()),
                &RunConfig::analysis(protocol),
            );
            assert_eq!(outcome.request_count(), 12);
            assert_eq!(outcome.order.len(), 12);
            assert!(outcome.total_latency > 0.0);
        }
    }

    #[test]
    fn asynchronous_arrow_still_produces_a_valid_order() {
        let instance = Instance::complete_uniform(10, SpanningTreeKind::BalancedBinary);
        let schedule = workload::poisson(10, 1.0, 20.0, 3);
        let count = schedule.len();
        let outcome = run(
            &instance,
            &Workload::OpenLoop(schedule),
            &RunConfig::analysis(ProtocolKind::Arrow).asynchronous(11),
        );
        assert_eq!(outcome.order.len(), count);
    }

    #[test]
    fn closed_loop_experiment_runs_for_both_protocols() {
        let instance = Instance::complete_uniform(8, SpanningTreeKind::BalancedBinary);
        let spec = ClosedLoopSpec {
            requests_per_node: 20,
            local_service_time: 0.05,
        };
        let arrow = run(
            &instance,
            &Workload::ClosedLoop(spec),
            &RunConfig::experiment(ProtocolKind::Arrow, spec.local_service_time),
        );
        let central = run(
            &instance,
            &Workload::ClosedLoop(spec),
            &RunConfig::experiment(ProtocolKind::Centralized, spec.local_service_time),
        );
        assert_eq!(arrow.request_count(), 8 * 20);
        assert_eq!(central.request_count(), 8 * 20);
        assert!(arrow.makespan > 0.0);
        assert!(central.makespan > 0.0);
        // The centralized home node handles every request serially; arrow distributes
        // the load, so with this many nodes its makespan should not be worse.
        assert!(arrow.makespan <= central.makespan * 1.5);
    }

    #[test]
    fn arrow_hops_per_request_are_low_under_high_contention() {
        // Figure 11's observation: under closed-loop contention, most requests find
        // their predecessor locally or nearby, so hops/request is small (< 2 even on
        // small systems; < 1 for larger ones in the paper).
        let instance = Instance::complete_uniform(16, SpanningTreeKind::BalancedBinary);
        let spec = ClosedLoopSpec {
            requests_per_node: 50,
            local_service_time: 0.05,
        };
        let outcome = run(
            &instance,
            &Workload::ClosedLoop(spec),
            &RunConfig::experiment(ProtocolKind::Arrow, spec.local_service_time),
        );
        assert!(
            outcome.hops_per_request < 3.0,
            "hops per request {}",
            outcome.hops_per_request
        );
    }

    #[test]
    fn acks_pay_graph_distance_not_tree_edge_weight() {
        // Triangle: the tree edge {0,1} weighs 5, but the graph path 1-2-0 costs 2.
        // The queue() message must still pay the tree edge (protocol traffic follows
        // tree links), while the acknowledgement back to the requester travels over
        // the graph metric: d_G(0, 1) = 2.
        let mut graph = netgraph::Graph::new(3);
        graph.add_weighted_edge(0, 1, 5.0);
        graph.add_weighted_edge(0, 2, 1.0);
        graph.add_weighted_edge(1, 2, 1.0);
        let mut tree_graph = netgraph::Graph::new(3);
        tree_graph.add_weighted_edge(0, 1, 5.0);
        tree_graph.add_weighted_edge(0, 2, 1.0);
        let tree = RootedTree::from_tree_graph(&tree_graph, 0);
        let instance = Instance::new(graph, tree);
        let schedule = RequestSchedule::from_pairs(&[(1, SimTime::ZERO)]);
        let outcome = run_schedule(
            &instance,
            &schedule,
            &RunConfig::experiment(ProtocolKind::Arrow, 0.0),
        );
        // queue() 1 -> 0 over the tree edge: 5 units; Found 0 -> 1 over d_G: 2 units.
        assert_eq!(outcome.mean_completion_latency, 7.0);
    }

    /// Whether two graphs hold the same nodes, edges and adjacency lists.
    fn same_graph(a: &Graph, b: &Graph) -> bool {
        a.node_count() == b.node_count()
            && a.edges() == b.edges()
            && a.nodes().all(|u| a.neighbors(u) == b.neighbors(u))
    }

    #[test]
    fn complete_platform_matches_the_eagerly_built_instance() {
        let kinds = [
            SpanningTreeKind::ShortestPath,
            SpanningTreeKind::MinimumWeight,
            SpanningTreeKind::Star,
            SpanningTreeKind::BalancedBinary,
            SpanningTreeKind::MinimumCommunication,
        ];
        for n in [1, 2, 3, 7, 64, 65] {
            for kind in kinds {
                let platform = Instance::complete_uniform(n, kind);
                let graph = netgraph::generators::complete(n, 1.0);
                let tree = build_spanning_tree(&graph, 0, kind);
                let eager = Instance::new(graph, tree);
                let at = format!("n={n} {kind:?}");
                // Every field of the tree: parents, weights, children, depths,
                // root distances and the ancestor table.
                assert_eq!(
                    format!("{:?}", platform.tree()),
                    format!("{:?}", eager.tree()),
                    "{at}"
                );
                assert_eq!(platform.node_count(), eager.node_count(), "{at}");
                let (near, far) = (platform.distances(), eager.distances());
                for u in 0..n {
                    for v in 0..n {
                        assert_eq!(near.dist(u, v), far.dist(u, v), "{at} ({u},{v})");
                    }
                }
                assert_eq!(
                    format!("{:?}", platform.stretch_report()),
                    format!("{:?}", eager.stretch_report()),
                    "{at}"
                );
                assert!(same_graph(platform.graph(), eager.graph()), "{at}");
            }
        }
    }

    #[test]
    fn analysis_run_on_the_complete_platform_builds_no_graph() {
        let instance = Instance::complete_uniform(512, SpanningTreeKind::BalancedBinary);
        let schedule = workload::uniform_random(512, 2_000, 16.0, 1);
        run_schedule(
            &instance,
            &schedule,
            &RunConfig::analysis(ProtocolKind::Arrow),
        );
        assert!(instance.graph.get().is_none(), "K_512 was built");
        // Acknowledgements read the closed-form metric, not the graph either.
        run_schedule(
            &instance,
            &schedule,
            &RunConfig::experiment(ProtocolKind::Arrow, 0.0),
        );
        assert!(instance.graph.get().is_none(), "K_512 was built");
        assert_eq!(instance.graph().edge_count(), 512 * 511 / 2);
    }

    #[test]
    fn stretch_report_on_the_complete_platform_builds_no_graph() {
        let instance = Instance::complete_uniform(512, SpanningTreeKind::BalancedBinary);
        let report = instance.stretch_report();
        assert!(instance.graph.get().is_none(), "K_512 was built");
        assert_eq!(report.graph_diameter, 1.0);
        assert!(report.max_stretch >= 1.0);
    }

    #[test]
    fn multi_object_run_validates_each_object_independently() {
        let instance = Instance::complete_uniform(12, SpanningTreeKind::BalancedBinary);
        let k = 3;
        let triples: Vec<(NodeId, SimTime, ObjectId)> = (0..24)
            .map(|i| {
                (
                    i % 12,
                    SimTime::from_units((i / 6) as u64),
                    ObjectId((i % k) as u32),
                )
            })
            .collect();
        let schedule = RequestSchedule::from_object_pairs(&triples);
        let outcome = run_schedule(
            &instance,
            &schedule,
            &RunConfig::analysis(ProtocolKind::Arrow),
        );
        assert_eq!(outcome.object_count(), k);
        let mut total = 0;
        for (obj, order) in &outcome.orders {
            let sub = outcome.schedule.for_object(*obj);
            assert_eq!(order.len(), sub.len(), "object {obj}");
            total += order.len();
        }
        assert_eq!(
            total, 24,
            "every request queued in exactly one object's order"
        );
        // The top-level `order` is object 0's.
        assert_eq!(
            outcome.order.order(),
            outcome.order_for(ObjectId::DEFAULT).unwrap().order()
        );
        // The centralized baseline agrees on the multi-object contract.
        let central = run_schedule(
            &instance,
            &schedule,
            &RunConfig::analysis(ProtocolKind::Centralized),
        );
        assert_eq!(central.object_count(), k);
    }

    #[test]
    fn async_floor_is_threaded_through_run_config() {
        let instance = path_instance(5);
        let schedule = workload::poisson(5, 1.0, 10.0, 3);
        let count = schedule.len();
        let cfg = RunConfig::analysis(ProtocolKind::Arrow)
            .asynchronous(7)
            .with_async_floor(0.9);
        assert_eq!(cfg.async_lo_factor, 0.9);
        let outcome = run_schedule(&instance, &schedule, &cfg);
        assert_eq!(outcome.order.len(), count);
    }

    #[test]
    fn centralized_order_matches_arrival_order_for_sequential_requests() {
        let instance = path_instance(5);
        let schedule = workload::sequential_round_robin(&[4, 1, 3], 3, 50.0);
        let outcome = run(
            &instance,
            &Workload::OpenLoop(schedule),
            &RunConfig::analysis(ProtocolKind::Centralized),
        );
        let order_nodes: Vec<NodeId> = outcome
            .order
            .order()
            .iter()
            .map(|&id| outcome.schedule.get(id).unwrap().node)
            .collect();
        assert_eq!(order_nodes, vec![4, 1, 3]);
    }

    #[test]
    fn checked_path_reports_invalid_orders_as_data_not_aborts() {
        // Pre-fix, an invalid record set aborted the process from inside `finish`;
        // the checked assembly path must hand the same failure back as a typed
        // `RunError` the conformance harness can record and shrink.
        let schedule = RequestSchedule::from_pairs(&[
            (1, SimTime::ZERO),
            (2, SimTime::ZERO),
            (3, SimTime::ZERO),
        ]);
        let issued: Vec<Request> = schedule.requests().to_vec();
        // Drop request 3's record entirely: the chain is broken.
        let records: Vec<OrderRecord> = [(0u64, 1u64), (1, 2)]
            .iter()
            .map(|&(pred, succ)| OrderRecord {
                predecessor: crate::request::RequestId(pred),
                successor: crate::request::RequestId(succ),
                obj: ObjectId::DEFAULT,
                at_node: 0,
                informed_at: SimTime::from_units(1),
                epoch: 0,
            })
            .collect();
        let err = outcome_from_records(
            ProtocolKind::Arrow,
            issued,
            records,
            2,
            2,
            SimTime::from_units(5),
        )
        .unwrap_err();
        match &err {
            RunError::InvalidOrder { obj, error } => {
                assert_eq!(*obj, ObjectId::DEFAULT);
                assert_eq!(
                    *error,
                    crate::order::OrderError::MissingRequest(crate::request::RequestId(3))
                );
            }
            other => panic!("expected InvalidOrder, got {other:?}"),
        }
        // The panicking wrappers preserve the historical abort message.
        assert!(err.to_string().contains("invalid queuing order"));
    }

    #[test]
    fn checked_path_surfaces_protocol_violations_from_nodes() {
        // Drive the harness's own simulator setup, then inject an out-of-protocol
        // message: the run must come back as RunError::ProtocolViolation, not abort.
        let instance = path_instance(2);
        let (mut sim, journal) = arrow_sim(
            &instance,
            WorkloadRef::Open(&RequestSchedule::default()),
            &RunConfig::analysis(ProtocolKind::Arrow),
            Completions::Counted,
            |_| NoProbe,
        );
        sim.schedule_external(
            SimTime::ZERO,
            1,
            ProtoMsg::CentralEnqueue {
                req: crate::request::RequestId(1),
                obj: ObjectId::DEFAULT,
                origin: 1,
            },
        );
        sim.run();
        match harvest(&sim, &journal) {
            Err(err @ RunError::ProtocolViolation { node: 1, .. }) => {
                assert!(err.to_string().contains("protocol violation at node 1"));
                assert!(err.to_string().contains("non-arrow message"));
            }
            other => panic!("expected a violation at node 1, got {:?}", other.err()),
        }
    }

    #[test]
    fn checked_and_panicking_paths_agree_on_valid_runs() {
        let instance = Instance::complete_uniform(8, SpanningTreeKind::BalancedBinary);
        let schedule = workload::poisson(8, 1.0, 10.0, 5);
        let cfg = RunConfig::analysis(ProtocolKind::Arrow);
        let checked = run_schedule_checked(&instance, &schedule, &cfg).expect("valid run");
        let panicking = run_schedule(&instance, &schedule, &cfg);
        assert_eq!(checked.total_latency, panicking.total_latency);
        assert_eq!(checked.order.order(), panicking.order.order());
    }

    /// Set up a run with `build` twice: once as it is, run to its outcome, and
    /// once with every node journaling on its own. The outcome's schedule must be
    /// every node's issues concatenated and sorted by (time, id).
    fn schedule_is_the_sorted_concatenation<A: Automaton>(
        build: impl Fn() -> SimRun<A>,
    ) -> RequestSchedule {
        let (mut sim, journal) = build();
        let outcome = run_to_outcome(ProtocolKind::Arrow, &mut sim, &journal).expect("valid run");
        let (mut sim, _) = build();
        for v in 0..sim.node_count() {
            sim.node_mut(v).join(&Rc::default());
        }
        sim.run();
        let mut reference: Vec<Request> = (0..sim.node_count())
            .flat_map(|v| sim.node(v).host().journal().issued().to_vec())
            .collect();
        reference.sort_by_key(|r| (r.time, r.id));
        assert_eq!(outcome.schedule.requests(), reference);
        outcome.schedule
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn harvested_issues_are_in_time_then_id_order() {
        let instance = Instance::complete_uniform(24, SpanningTreeKind::BalancedBinary);
        let analysis = RunConfig::analysis(ProtocolKind::Arrow);
        let open = |schedule: &RequestSchedule, config: &RunConfig| {
            schedule_is_the_sorted_concatenation(|| {
                let workload = WorkloadRef::Open(schedule);
                arrow_sim(&instance, workload, config, Completions::Counted, |_| {
                    NoProbe
                })
            })
        };
        for seed in 0..4 {
            let schedule = workload::uniform_random(24, 300, 8.0, seed);
            open(&schedule, &analysis);
            open(&schedule, &analysis.clone().asynchronous(seed));
            open(
                &workload::zipf_objects(24, 3, 1.1, 300, 8.0, seed),
                &analysis,
            );

            // Every third request removed, as a shrunk replay has it.
            let sparse = RequestSchedule::from_requests(
                schedule
                    .requests()
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % 3 != 2)
                    .map(|(_, r)| *r)
                    .collect(),
            );
            open(&sparse, &analysis);

            // A service time delays issues behind queued messages, so the issue
            // times no longer follow the ids.
            let mut served = analysis.clone();
            served.local_service_time = 0.3;
            let issued = open(&schedule, &served);
            assert!(issued
                .requests()
                .windows(2)
                .any(|pair| pair[0].id > pair[1].id));

            // The closed loop numbers its requests node by node, and issues many
            // at one instant.
            let spec = ClosedLoopSpec {
                requests_per_node: 12,
                local_service_time: 0.05,
            };
            let mut config = RunConfig::experiment(ProtocolKind::Arrow, spec.local_service_time);
            if seed % 2 == 1 {
                config = config.asynchronous(seed);
            }
            let closed = WorkloadRef::Closed(&spec);
            let issued = schedule_is_the_sorted_concatenation(|| {
                arrow_sim(&instance, closed, &config, Completions::Counted, |_| {
                    NoProbe
                })
            });
            assert_eq!(issued.len(), 24 * 12);
            config.protocol = ProtocolKind::Centralized;
            schedule_is_the_sorted_concatenation(|| central_sim(&instance, closed, &config));
        }

        // A hand-listed schedule of `(id, node, time)`: simultaneous issues at
        // different nodes and at one node, listed against id order.
        let listed = [
            (3, 1, 1),
            (1, 2, 1),
            (2, 0, 1),
            (6, 4, 2),
            (4, 4, 2),
            (5, 9, 2),
            (7, 3, 3),
        ];
        let requests = listed.iter().map(|&(id, node, units)| Request {
            id: RequestId(id),
            node,
            time: SimTime::from_units(units),
            obj: ObjectId::DEFAULT,
        });
        let listed = RequestSchedule::from_requests(requests.collect());
        for config in [analysis.clone(), analysis.clone().asynchronous(5)] {
            let issued = open(&listed, &config);
            let ids: Vec<u64> = issued.requests().iter().map(|r| r.id.0).collect();
            assert_eq!(ids, [1, 2, 3, 4, 5, 6, 7]);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn fault_free_journals_never_outgrow_their_set_up_capacity() {
        fn holds<A: Automaton>((mut sim, journal): SimRun<A>) {
            let before = journal.borrow().capacities();
            sim.run();
            {
                let journal = journal.borrow();
                assert_eq!(journal.capacities(), before);
                // Sized exactly: every request issued and queued once.
                assert_eq!(journal.issued().len(), before[0]);
                assert_eq!(journal.records().len(), before[1]);
                assert_eq!(before[2], 0, "a fault-free run only counts completions");
            }
            harvest(&sim, &journal).expect("fault-free run");
        }
        let instance = Instance::complete_uniform(32, SpanningTreeKind::BalancedBinary);
        let analysis = RunConfig::analysis(ProtocolKind::Arrow);
        let acked = RunConfig::experiment(ProtocolKind::Arrow, 0.0);
        let single = workload::uniform_random(32, 2_000, 40.0, 3);
        let three = workload::zipf_objects(32, 3, 1.1, 2_000, 40.0, 3);
        for (schedule, config) in [(&single, &analysis), (&single, &acked), (&three, &analysis)] {
            let workload = WorkloadRef::Open(schedule);
            holds(arrow_sim(
                &instance,
                workload,
                config,
                Completions::Counted,
                |_| NoProbe,
            ));
            let mut central = config.clone();
            central.protocol = ProtocolKind::Centralized;
            holds(central_sim(&instance, workload, &central));
        }
        let spec = ClosedLoopSpec {
            requests_per_node: 60,
            local_service_time: 0.05,
        };
        let config = RunConfig::experiment(ProtocolKind::Arrow, spec.local_service_time);
        let closed = WorkloadRef::Closed(&spec);
        holds(arrow_sim(
            &instance,
            closed,
            &config,
            Completions::Counted,
            |_| NoProbe,
        ));
        holds(central_sim(&instance, closed, &config));
    }

    #[test]
    #[should_panic(expected = "require acknowledgements")]
    fn closed_loop_without_acks_panics() {
        let instance = path_instance(3);
        let spec = ClosedLoopSpec::default();
        let mut cfg = RunConfig::analysis(ProtocolKind::Arrow);
        cfg.local_service_time = 0.05;
        run(&instance, &Workload::ClosedLoop(spec), &cfg);
    }

    #[test]
    #[should_panic(expected = "not an edge of the graph")]
    fn instance_rejects_tree_not_in_graph() {
        let graph = netgraph::generators::path(4);
        let bad_tree = RootedTree::from_tree_graph(&netgraph::generators::star(4), 0);
        Instance::new(graph, bad_tree);
    }

    #[test]
    fn faulted_run_with_no_faults_matches_fault_free_liveness() {
        let instance = Instance::complete_uniform(8, SpanningTreeKind::BalancedBinary);
        let schedule = workload::poisson(8, 1.0, 10.0, 5);
        let cfg = RunConfig::analysis(ProtocolKind::Arrow);
        let outcome =
            run_schedule_faulted(&instance, &schedule, &cfg, &FaultSchedule::none()).unwrap();
        outcome.validate().expect("fault-free churn contract");
        assert_eq!(outcome.issued.len(), schedule.len());
        assert_eq!(outcome.granted.len(), schedule.len());
        assert!(outcome.excused.is_empty());
        assert_eq!(outcome.final_epoch, 0);
        assert_eq!(outcome.token_regenerations(), 0);
        assert_eq!(outcome.stale_drops, 0);
    }

    #[test]
    fn crashing_a_request_holder_regenerates_the_token() {
        // Node 3 queues first and becomes the sink; crashing it strands any state
        // it held, and the detection bump must regenerate the token at the root so
        // node 4's later request (epoch 1) queues behind the virtual root request.
        let instance = Instance::complete_uniform(7, SpanningTreeKind::BalancedBinary);
        let schedule =
            RequestSchedule::from_pairs(&[(3, SimTime::ZERO), (4, SimTime::from_units(4))]);
        let faults = FaultSchedule::new(vec![
            crate::fault::FaultEvent {
                at: 2,
                action: crate::fault::FaultAction::CrashNode(3),
            },
            crate::fault::FaultEvent {
                at: 6,
                action: crate::fault::FaultAction::RestartNode(3),
            },
        ]);
        let cfg = RunConfig::analysis(ProtocolKind::Arrow);
        let outcome = run_schedule_faulted(&instance, &schedule, &cfg, &faults).unwrap();
        outcome.validate().expect("churn contract under a crash");
        assert_eq!(outcome.final_epoch, 2);
        assert_eq!(outcome.issued.len(), 2, "both nodes were up at issue time");
        assert_eq!(outcome.granted.len(), 2, "both grants survive the crash");
        assert!(
            outcome.token_regenerations() >= 1,
            "a post-crash epoch must rebuild its queue from a regenerated root token"
        );
    }

    #[test]
    fn request_scheduled_at_a_crashed_node_is_excused() {
        let instance = Instance::complete_uniform(7, SpanningTreeKind::BalancedBinary);
        // Node 5 is down for ticks [1, 4); its request at t = 2 is never issued.
        let schedule = RequestSchedule::from_pairs(&[
            (5, SimTime::from_units(2)),
            (6, SimTime::from_units(6)),
        ]);
        let faults = FaultSchedule::new(vec![
            crate::fault::FaultEvent {
                at: 1,
                action: crate::fault::FaultAction::CrashNode(5),
            },
            crate::fault::FaultEvent {
                at: 4,
                action: crate::fault::FaultAction::RestartNode(5),
            },
        ]);
        let cfg = RunConfig::analysis(ProtocolKind::Arrow);
        let outcome = run_schedule_faulted(&instance, &schedule, &cfg, &faults).unwrap();
        outcome
            .validate()
            .expect("excused request does not break liveness");
        assert_eq!(outcome.issued.len(), 1);
        assert_eq!(outcome.excused.len(), 1);
        assert!(
            outcome.silenced_inputs >= 1,
            "the issue external was silenced"
        );
    }

    #[test]
    fn generated_fault_schedules_converge_across_seeds() {
        // A miniature of the conformance sweep: seeded generated churn over a
        // steady workload must always satisfy the liveness and per-epoch order
        // contract, whatever mix of crashes, link drops and partitions comes up.
        let instance = Instance::complete_uniform(9, SpanningTreeKind::BalancedBinary);
        let cfg = RunConfig::analysis(ProtocolKind::Arrow);
        let mut regenerations = 0u64;
        for seed in 0..12 {
            let faults = FaultSchedule::generate(seed, &instance.tree, 3);
            let schedule = workload::poisson(9, 0.8, 25.0, seed);
            let outcome = run_schedule_faulted(&instance, &schedule, &cfg, &faults)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            outcome
                .validate()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            regenerations += outcome.token_regenerations();
        }
        assert!(
            regenerations > 0,
            "across 12 seeded churn runs at least one token regeneration happens"
        );
    }

    #[test]
    #[should_panic(expected = "object id space too large")]
    fn faulted_run_refuses_a_sparse_object_id_space() {
        // One request naming object 2^31: a replay file can say that. The faulted
        // path shares the fault-free set-up and so its guard, instead of allocating
        // 2^31 object slots per node.
        let instance = path_instance(3);
        let schedule = RequestSchedule::from_object_pairs(&[(1, SimTime::ZERO, ObjectId(1 << 31))]);
        let cfg = RunConfig::analysis(ProtocolKind::Arrow);
        let _ = run_schedule_faulted(&instance, &schedule, &cfg, &FaultSchedule::none());
    }

    #[test]
    fn invalid_fault_schedule_is_a_typed_churn_violation() {
        let instance = Instance::complete_uniform(7, SpanningTreeKind::BalancedBinary);
        let schedule = workload::one_shot_burst(&[1], SimTime::ZERO);
        let faults = FaultSchedule::new(vec![crate::fault::FaultEvent {
            at: 1,
            action: crate::fault::FaultAction::CrashNode(2),
        }]);
        let cfg = RunConfig::analysis(ProtocolKind::Arrow);
        let err = run_schedule_faulted(&instance, &schedule, &cfg, &faults).unwrap_err();
        assert!(matches!(err, RunError::ChurnViolation { .. }));
        assert!(err.to_string().contains("still crashed"));
    }
}
