//! The simulator node host: one [`desim::Process`] for every queuing protocol.
//!
//! A simulated node is an engine-facing half and a protocol half, in the shape of
//! an event engine executing against separately owned state. The [`Host`] is the
//! engine-facing half and is written once: the per-message local service time
//! ([`ServiceQueue`]), the closed-loop workload of Section 5 (issue the next
//! request when the previous one completes) and the node's entries in the
//! [`RunJournal`]. The protocol half is an [`Automaton`]: the arrow protocol on
//! [`crate::live::QueueCore`] ([`crate::arrow::ArrowSim`]) or the centralized
//! baseline's queue tail ([`crate::centralized::CentralTail`]). An automaton
//! writes straight through to the [`Context`] and the journal; nothing is
//! buffered in between.
//!
//! Every host of one run appends to one shared [`RunJournal`], which the harness
//! takes whole once the simulator is quiescent. The simulator is single-threaded
//! and dispatches events in time order, so the journal is in time order as it is
//! written. The live tiers keep the same journal, one per reactor shard, and
//! [`RunJournal::merge`] joins several.

use crate::order::OrderRecord;
use crate::protocol::{ProtoMsg, ServiceQueue, SERVICE_TIMER_TAG};
use crate::request::{ObjectId, Request, RequestId};
use crate::workload::ClosedLoopSpec;
use desim::{Context, Process, SimTime};
use netgraph::NodeId;
use std::cell::{Ref, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

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

/// What the nodes of one run journal, in the order it happened: every node of a
/// simulator run, or of one live reactor shard. [`Default`] makes a count-only
/// journal, which keeps no list of completions.
#[derive(Debug, Default)]
pub struct RunJournal {
    /// Every issue, in (time, id) order.
    issued: Vec<Request>,
    /// Every succession a node was told of, in time order.
    records: Vec<OrderRecord>,
    /// The first completion notification of each request, in the order heard;
    /// `None` when the run keeps only their count and latency sum.
    completions: Option<Vec<OwnCompletion>>,
    completed: usize,
    completion_latency_sum: f64,
}

impl RunJournal {
    /// A journal with room for `issues` issues and `successions` successions,
    /// keeping every completion or only their count and latency sum.
    pub(crate) fn new(issues: usize, successions: usize, keep_completions: bool) -> Self {
        RunJournal {
            issued: Vec::with_capacity(issues),
            records: Vec::with_capacity(successions),
            completions: keep_completions.then(|| Vec::with_capacity(issues)),
            completed: 0,
            completion_latency_sum: 0.0,
        }
    }

    /// Every issue: the request, its node and its issue time, in (time, id) order.
    pub fn issued(&self) -> &[Request] {
        &self.issued
    }

    /// Every succession a node was told of (it held the predecessor), in time order.
    pub fn records(&self) -> &[OrderRecord] {
        &self.records
    }

    /// The first completion notification of each request, in the order heard.
    /// Empty when the run keeps only their count and latency sum.
    pub fn completions(&self) -> &[OwnCompletion] {
        self.completions.as_deref().unwrap_or_default()
    }

    /// Mean time from a completed request's issue to its requester hearing of it
    /// (0 if none completed).
    pub(crate) fn mean_completion_latency(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.completion_latency_sum / self.completed as f64
        }
    }

    /// A count-only journal of `issued`, in (time, id) order, and `records`.
    pub fn from_parts(issued: Vec<Request>, records: Vec<OrderRecord>) -> Self {
        debug_assert!(issued.is_sorted_by_key(|r| (r.time, r.id)));
        RunJournal {
            issued,
            records,
            ..RunJournal::default()
        }
    }

    /// Several count-only journals (the live tiers') as one, successions
    /// journal by journal. Each is in (time, id) order, so one stable sort
    /// merges their issues as runs; a lone journal comes back as it was.
    pub fn merge(journals: impl IntoIterator<Item = RunJournal>) -> Self {
        let mut journals = journals.into_iter();
        let mut merged = journals.next().unwrap_or_default();
        let lone = merged.issued.len();
        for journal in journals {
            merged.issued.extend(journal.issued);
            merged.records.extend(journal.records);
        }
        if merged.issued.len() > lone {
            merged.issued.sort_by_key(|r| (r.time, r.id));
        }
        merged
    }

    /// The issues, the successions and the completions, taken out whole.
    pub fn into_parts(self) -> (Vec<Request>, Vec<OrderRecord>, Vec<OwnCompletion>) {
        (
            self.issued,
            self.records,
            self.completions.unwrap_or_default(),
        )
    }

    /// Append `issue`. Issues arrive in time order; one that ties with the issues
    /// before it moves back past those with a larger id.
    pub fn note_issue(&mut self, issue: Request) {
        let key = (issue.time, issue.id);
        let at = self.issued.len()
            - self
                .issued
                .iter()
                .rev()
                .take_while(|r| (r.time, r.id) > key)
                .count();
        debug_assert!(
            at == self.issued.len() || self.issued[at].time == issue.time,
            "issues are journaled in time order"
        );
        self.issued.insert(at, issue);
    }

    /// Append the succession `record`.
    pub fn note_queued(&mut self, record: OrderRecord) {
        self.records.push(record);
    }

    /// Take back every issue `doomed(obj, id)` names and every succession that
    /// queued one: requests that never entered the distributed queue. Request
    /// ids are unique across nodes, so no node needs naming.
    pub fn retract(&mut self, doomed: impl Fn(ObjectId, RequestId) -> bool) {
        self.issued.retain(|r| !doomed(r.obj, r.id));
        self.records.retain(|rec| !doomed(rec.obj, rec.successor));
    }

    fn note_completion(&mut self, done: OwnCompletion) {
        self.completed += 1;
        self.completion_latency_sum += (done.at - done.issued_at).as_units_f64();
        if let Some(completions) = &mut self.completions {
            completions.push(done);
        }
    }

    /// Capacities of the issue, succession and completion lists.
    #[cfg(test)]
    pub(crate) fn capacities(&self) -> [usize; 3] {
        [
            self.issued.capacity(),
            self.records.capacity(),
            self.completions.as_ref().map_or(0, Vec::capacity),
        ]
    }
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

/// The engine-facing half of a simulator node: service time, closed loop, journal.
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
    /// The journal of the run: this node's own unless the run shares one.
    journal: Rc<RefCell<RunJournal>>,
    protocol_messages: u64,
    duplicate_grants: u64,
    violation: Option<String>,
}

impl Host {
    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The journal this node appends to: the run's, shared by all its nodes, or
    /// the node's own when it was built on its own.
    pub fn journal(&self) -> Ref<'_, RunJournal> {
        self.journal.borrow()
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
        self.journal.borrow_mut().note_issue(Request {
            id: req,
            node: self.me,
            time: ctx.now(),
            obj,
        });
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
        self.journal.borrow_mut().note_queued(OrderRecord {
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
        self.journal
            .borrow_mut()
            .note_completion(OwnCompletion { req, issued_at, at });
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
                journal: Rc::new(RefCell::new(RunJournal::new(0, 0, true))),
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

    /// Append to the run's `journal` instead of the node's own.
    pub(crate) fn join(&mut self, journal: &Rc<RefCell<RunJournal>>) {
        self.host.journal = Rc::clone(journal);
    }

    /// The journal and counters of this node.
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
