//! The simulator node host: one [`desim::Process`] for every queuing protocol.
//!
//! A simulated node is an engine-facing half and a protocol half, in the shape of
//! an event engine executing against separately owned state. The [`Host`] is the
//! engine-facing half and is written once: the per-message local service time
//! ([`ServiceQueue`]), the closed-loop workload of Section 5 (issue the next
//! request when the previous one completes) and the journals the harness reads
//! after the run. The protocol half is an [`Automaton`]: the arrow protocol on
//! [`crate::live::QueueCore`] ([`crate::arrow::ArrowSim`]) or the centralized
//! baseline's queue tail ([`crate::centralized::CentralTail`]). An automaton
//! writes straight through to the [`Context`] and the host's journals; nothing is
//! buffered in between.

use crate::order::OrderRecord;
use crate::protocol::{ProtoMsg, ServiceQueue, SERVICE_TIMER_TAG};
use crate::request::{ObjectId, RequestId};
use crate::workload::ClosedLoopSpec;
use desim::{Context, Process, SimTime};
use netgraph::NodeId;
use std::collections::VecDeque;

/// The protocol half of a simulator node.
pub trait Automaton {
    /// Handle one message the service queue released: `msg` from `from` (the node
    /// itself for external inputs). Sends go to `ctx`, journal entries to `host`.
    fn process(
        &mut self,
        host: &mut Host,
        ctx: &mut Context<ProtoMsg>,
        from: NodeId,
        msg: ProtoMsg,
    );
}

/// One completion of a node's own request, as its requester observed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OwnCompletion {
    /// The completed request.
    pub req: RequestId,
    /// When the node issued it.
    pub issued_at: SimTime,
    /// When the node learnt that it was queued.
    pub at: SimTime,
}

/// An own request whose completion this node has not heard of yet.
#[derive(Debug, Clone, Copy)]
struct OpenRequest {
    req: RequestId,
    obj: ObjectId,
    issued_at: SimTime,
}

/// Closed-loop workload state: the budget left and the id sequence.
#[derive(Debug)]
struct ClosedLoopState {
    /// Requests this node has not seen complete yet.
    remaining: u64,
    next_seq: u64,
    total_nodes: u64,
}

/// The engine-facing half of a simulator node: service time, closed loop, journals.
#[derive(Debug)]
pub struct Host {
    me: NodeId,
    /// Local per-message service time model (shared across objects — the CPU is one).
    service: ServiceQueue,
    closed_loop: Option<ClosedLoopState>,
    /// Whether remote requesters learn of completions (arrow acks on, or the
    /// centralized reply). Only then does anyone read completion latency or count
    /// duplicates, so only then is `open` kept: without acks the one request that
    /// completes at its own node does so in the step that issued it.
    acked: bool,
    /// Own requests still awaiting completion, oldest first (acked runs). A node
    /// has few at a time and hears of them roughly in issue order, so a scan from
    /// the front finds one faster than any keyed structure would.
    open: VecDeque<OpenRequest>,
    records: Vec<OrderRecord>,
    issued: Vec<(RequestId, ObjectId, SimTime)>,
    own_completions: Vec<OwnCompletion>,
    protocol_messages: u64,
    duplicate_grants: u64,
    violation: Option<String>,
}

impl Host {
    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Successor notifications recorded at this node (it held the predecessor).
    pub fn records(&self) -> &[OrderRecord] {
        &self.records
    }

    /// Requests issued by this node: `(request, object, issue time)`.
    pub fn issued(&self) -> &[(RequestId, ObjectId, SimTime)] {
        &self.issued
    }

    /// Completions of this node's own requests, first notification per request.
    pub fn own_completions(&self) -> &[OwnCompletion] {
        &self.own_completions
    }

    /// Protocol messages this node sent to another node: arrow `queue()` hops (the
    /// quantity of Figure 11), or centralized enqueue/reply messages.
    pub fn protocol_messages(&self) -> u64 {
        self.protocol_messages
    }

    /// Duplicate cross-epoch completion notifications suppressed (first one wins).
    pub fn duplicate_grants(&self) -> u64 {
        self.duplicate_grants
    }

    /// The first protocol violation this node observed, if any (the violating
    /// message was dropped, not processed). The harness turns this into a typed
    /// [`crate::run::RunError::ProtocolViolation`] instead of aborting.
    pub fn protocol_violation(&self) -> Option<&str> {
        self.violation.as_deref()
    }

    /// Own requests still awaiting completion, as `(object, request)` — what an
    /// epoch bump re-issues. Empty in runs without acknowledgements, where no
    /// requester ever learns of a remote completion and recovery has nothing to
    /// tell pending from done ([`crate::run::run_schedule_faulted`] switches acks on).
    pub(crate) fn open_requests(&self) -> impl Iterator<Item = (ObjectId, RequestId)> + '_ {
        self.open.iter().map(|open| (open.obj, open.req))
    }

    /// Journal that this node issues `req` for `obj` now.
    pub(crate) fn note_issue(&mut self, ctx: &Context<ProtoMsg>, req: RequestId, obj: ObjectId) {
        assert!(!req.is_root(), "cannot issue the virtual root request");
        self.issued.push((req, obj, ctx.now()));
        if self.acked {
            self.open.push_back(OpenRequest {
                req,
                obj,
                issued_at: ctx.now(),
            });
        }
    }

    /// Journal that `succ` was queued behind `pred` at this node.
    pub(crate) fn note_queued(
        &mut self,
        ctx: &Context<ProtoMsg>,
        obj: ObjectId,
        pred: RequestId,
        succ: RequestId,
        epoch: u64,
    ) {
        self.records.push(OrderRecord {
            predecessor: pred,
            successor: succ,
            obj,
            at_node: self.me,
            informed_at: ctx.now(),
            epoch,
        });
    }

    /// Count one protocol message sent to another node.
    pub(crate) fn note_message(&mut self) {
        self.protocol_messages += 1;
    }

    /// Record a protocol violation (first one wins); the offending input is dropped
    /// rather than tearing the whole process down.
    pub(crate) fn note_violation(&mut self, describe: impl FnOnce() -> String) {
        self.violation.get_or_insert_with(describe);
    }

    /// This node learnt that its own request `req` completed. A request can be
    /// notified once per epoch it was re-issued in; only the first counts and, in
    /// closed-loop mode, lets the next request out.
    pub(crate) fn complete(&mut self, ctx: &mut Context<ProtoMsg>, req: RequestId) {
        let at = ctx.now();
        let issued_at = if !self.acked {
            at
        } else if let Some(at) = self.open.iter().position(|open| open.req == req) {
            self.open
                .remove(at)
                .expect("position is in range")
                .issued_at
        } else {
            self.duplicate_grants += 1;
            return;
        };
        self.own_completions
            .push(OwnCompletion { req, issued_at, at });
        if let Some(cl) = &mut self.closed_loop {
            cl.remaining = cl.remaining.saturating_sub(1);
            self.issue_next(ctx);
        }
    }

    /// Closed loop: while the budget lasts, put the next issue on the service queue,
    /// so it pays the local service time first. Closed loops drive the default
    /// object only.
    fn issue_next(&mut self, ctx: &mut Context<ProtoMsg>) {
        let Some(cl) = self.closed_loop.as_mut().filter(|cl| cl.remaining > 0) else {
            return;
        };
        // Unique across nodes: interleave by node id. +1 keeps ids disjoint from the
        // reserved root id 0.
        let req = RequestId(1 + self.me as u64 + cl.next_seq * cl.total_nodes);
        cl.next_seq += 1;
        let issue = ProtoMsg::Issue {
            req,
            obj: ObjectId::DEFAULT,
        };
        let handed_back = self.service.offer(ctx, (self.me, issue));
        debug_assert!(
            handed_back.is_none(),
            "a closed loop runs on a buffering service queue"
        );
    }
}

/// A simulator node: the [`Host`] plus the protocol [`Automaton`] it hosts.
#[derive(Debug)]
pub struct SimNode<A> {
    host: Host,
    automaton: A,
}

impl<A: Automaton> SimNode<A> {
    /// Host `automaton` at node `me`, charging `service_time` units of local
    /// service per message (0 = free). `acked` says whether remote requesters
    /// learn of completions (see [`Host`]).
    pub fn new(me: NodeId, automaton: A, service_time: f64, acked: bool) -> Self {
        SimNode {
            host: Host {
                me,
                service: ServiceQueue::new(service_time),
                closed_loop: None,
                acked,
                open: VecDeque::new(),
                records: Vec::new(),
                issued: Vec::new(),
                own_completions: Vec::new(),
                protocol_messages: 0,
                duplicate_grants: 0,
                violation: None,
            },
            automaton,
        }
    }

    /// Enable the closed-loop workload: this node issues `spec.requests_per_node`
    /// requests, the first at time 0 and each subsequent one as soon as the
    /// previous completes (plus the local service time).
    ///
    /// # Panics
    /// If the service time is not positive at the simulator's time resolution.
    pub fn enable_closed_loop(&mut self, spec: &ClosedLoopSpec, total_nodes: usize) {
        self.host.service = ServiceQueue::new(spec.local_service_time);
        assert!(
            !self.host.service.is_passthrough(),
            "closed-loop workloads need a positive local service time \
             (otherwise a node would issue its whole budget in a single instant)"
        );
        self.host.closed_loop = Some(ClosedLoopState {
            remaining: spec.requests_per_node,
            next_seq: 0,
            total_nodes: total_nodes as u64,
        });
    }

    /// The journals and counters of this node.
    pub fn host(&self) -> &Host {
        &self.host
    }

    /// The hosted protocol automaton.
    pub fn automaton(&self) -> &A {
        &self.automaton
    }
}

impl<A: Automaton> Process<ProtoMsg> for SimNode<A> {
    fn on_start(&mut self, ctx: &mut Context<ProtoMsg>) {
        self.host.issue_next(ctx);
    }

    // External inputs take the trait's default: a message from the node itself.
    fn on_message(&mut self, ctx: &mut Context<ProtoMsg>, from: NodeId, msg: ProtoMsg) {
        if let Some((from, msg)) = self.host.service.offer(ctx, (from, msg)) {
            self.automaton.process(&mut self.host, ctx, from, msg);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<ProtoMsg>, tag: u64) {
        if tag == SERVICE_TIMER_TAG {
            if let Some((from, msg)) = self.host.service.on_timer(ctx) {
                self.automaton.process(&mut self.host, ctx, from, msg);
            }
        }
    }
}
