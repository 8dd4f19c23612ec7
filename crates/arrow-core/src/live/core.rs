//! The transport-agnostic per-node arrow state machine.
//!
//! The live execution tiers — the reactor runtime (`arrow-net`) and the process
//! cluster (`arrow-cluster`) built on it — and the model checker (`arrow-model`)
//! all run *this* module's [`ArrowCore`], one per node. It is a composition of two layers:
//!
//! * [`QueueCore`] ([`super::queue`]) — the paper's automaton (Section 2): per-object
//!   link pointers, the pointer flip, path reversal, "learn your successor", and
//!   the recovery epoch that resets the orientation;
//! * `TokenLedger` — this repository's Demmer–Herlihy mutual-exclusion
//!   application on top: per-(object, request) token bookkeeping at the issuing
//!   node — grant, release, hand-off to the successor, and which own requests are
//!   still pending and so re-issued after an epoch bump.
//!
//! `ArrowCore` feeds each input to the queuing layer, lets the ledger decide where
//! the token goes, and reports what the transport must do as a list of
//! [`CoreAction`]s. The transport owns everything I/O-shaped: channels or sockets,
//! the map from pending requests to application wakeups, latency, and statistics.
//!
//! Keeping the state machine in one place means the tiers cannot drift: a protocol
//! change lands here once and every tier picks it up, and the model checker
//! explores the code the live tiers run. The simulator tier measures queuing, not
//! exclusion — a request completes when its predecessor's node learns of it
//! (Definition 3.2) — so it hosts the [`QueueCore`] alone
//! ([`crate::arrow::ArrowSim`]): the same queuing code on the same inputs, with no
//! ledger to keep.
//!
//! # Invariants the transports rely on
//!
//! * [`CoreAction::SendQueue`] targets are always tree neighbours of this node
//!   (`queue()` messages travel tree edges only).
//! * [`CoreAction::SendToken`] targets are never this node — a token grant for a
//!   local request surfaces as [`CoreAction::Granted`] instead.
//! * [`CoreAction::Queued`] fires exactly once per request, at the node holding the
//!   predecessor, when that node learns the successor's identity (Definition 3.2's
//!   end point; transports can log it as an order record).
//!
//! # Batched draining
//!
//! Every input method appends to a caller-owned `Vec<CoreAction>` and never reads
//! it back, so a transport may feed **many** inputs into the *same* actions vector
//! and translate the accumulated list once — the actions of each input are
//! contiguous and in input order, which preserves per-link FIFO as long as the
//! transport emits sends in list order. The reactor runtime (`arrow-net`) drains
//! its inboxes in batches this way: it turns a burst of protocol traffic into one
//! apply pass (and, toward another process, into coalesced writes) instead of one
//! transport round-trip per message. The protocol itself does not
//! care — a node is free to receive more messages before acting on earlier ones,
//! because correctness only requires that each link delivers in FIFO order.

use super::queue::{EpochCheck, QueueCore, QueueStep};
use crate::request::{ObjectId, RequestId};
use arrow_trace::{NoProbe, Probe, ProbeEvent};
use netgraph::{NodeId, RootedTree};
use std::hash::{Hash, Hasher};

/// What a transport must do after feeding an input to [`ArrowCore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreAction {
    /// Send the arrow `queue()` message for `obj` to tree neighbour `to`.
    SendQueue {
        /// Destination (a tree neighbour of this node; never this node itself).
        to: NodeId,
        /// Object whose queue the request joins.
        obj: ObjectId,
        /// The request being queued.
        req: RequestId,
        /// Node that issued the request.
        origin: NodeId,
        /// Recovery epoch the message belongs to (stamped on the wire; receivers
        /// reject stale epochs).
        epoch: u64,
    },
    /// Send `obj`'s exclusion token to `to`, granting its request `req`.
    SendToken {
        /// Destination (the granted request's origin; never this node itself).
        to: NodeId,
        /// Object whose token moves.
        obj: ObjectId,
        /// The request being granted.
        req: RequestId,
        /// Recovery epoch the token belongs to (a stale-epoch token is a ghost
        /// from before a regeneration and is rejected on receipt).
        epoch: u64,
    },
    /// This node's own request `req` now holds `obj`'s token: wake the application.
    Granted {
        /// Object whose token arrived.
        obj: ObjectId,
        /// The local request being granted.
        req: RequestId,
    },
    /// Request `succ` (issued at `origin`) was queued directly behind `pred` in
    /// `obj`'s queue, and this node (holding `pred`) just learnt it.
    Queued {
        /// Object whose queue grew.
        obj: ObjectId,
        /// The earlier request (possibly [`RequestId::ROOT`]).
        pred: RequestId,
        /// The request queued behind it.
        succ: RequestId,
        /// Node that issued `succ`.
        origin: NodeId,
        /// Recovery epoch the succession belongs to (journaled into the order
        /// records for per-epoch validation).
        epoch: u64,
    },
}

/// Token bookkeeping for one request this node issued. The field order is the
/// [`TokenRow`] order, so a row hashes exactly as its `TokenRow` does.
#[derive(Debug, Clone, Copy, Hash)]
struct Row {
    obj: ObjectId,
    req: RequestId,
    /// The token has arrived for this request (the application holds it, or held
    /// it and released). Requests with `granted == false` are still *pending* and
    /// get re-issued after an epoch bump.
    granted: bool,
    /// The token for this request has been (or never needed to be) released.
    released: bool,
    /// The successor of this request, once known: `(request, origin node)`.
    successor: Option<(RequestId, NodeId)>,
}

impl Row {
    /// A fresh row for `(obj, req)`: pending, unreleased, no successor.
    fn new(obj: ObjectId, req: RequestId) -> Self {
        Row {
            obj,
            req,
            granted: false,
            released: false,
            successor: None,
        }
    }
}

/// What [`TokenLedger::release`] found for the released request.
enum Release {
    /// No row: the token died with an earlier epoch and must not grant anyone.
    Ghost,
    /// The successor is not known yet; it is handed the token when it queues.
    Kept,
    /// Hand the token to this successor `(request, origin node)`.
    HandOff(RequestId, NodeId),
}

/// Token bookkeeping for the requests one node issued, keyed by (object, request):
/// the mutual-exclusion half of [`ArrowCore`]. A node holds a handful of rows —
/// its own requests not yet handed on — so they live in one `Vec` sorted by key:
/// a lookup is a binary search, a clone is one copy, and every reader gets them
/// in canonical order without a sort.
#[derive(Debug, Clone, Default)]
struct TokenLedger {
    rows: Vec<Row>,
}

impl TokenLedger {
    /// Where `(obj, req)`'s row is, or would be inserted.
    fn find(&self, obj: ObjectId, req: RequestId) -> Result<usize, usize> {
        self.rows
            .binary_search_by(|r| (r.obj, r.req).cmp(&(obj, req)))
    }

    /// The index of `(obj, req)`'s row, inserted fresh if there is none.
    fn entry(&mut self, obj: ObjectId, req: RequestId) -> usize {
        self.find(obj, req).unwrap_or_else(|i| {
            self.rows.insert(i, Row::new(obj, req));
            i
        })
    }

    /// This node issued `req`: it is pending until its token arrives.
    fn open(&mut self, obj: ObjectId, req: RequestId) {
        let i = self.entry(obj, req);
        self.rows[i] = Row::new(obj, req);
    }

    /// The token arrived for own request `req`.
    fn granted(&mut self, obj: ObjectId, req: RequestId) {
        let i = self.entry(obj, req);
        self.rows[i].granted = true;
    }

    /// `succ` (from `origin`) queued behind own request `pred`. True if the token
    /// is free to go to `succ` now; otherwise it follows `pred`'s release.
    fn queued_behind(
        &mut self,
        obj: ObjectId,
        pred: RequestId,
        succ: RequestId,
        origin: NodeId,
    ) -> bool {
        if pred.is_root() {
            // The token has been sitting at the object's initial root, already free.
            return true;
        }
        let i = self.entry(obj, pred);
        if self.rows[i].released {
            self.rows.remove(i);
            true
        } else {
            self.rows[i].successor = Some((succ, origin));
            false
        }
    }

    /// The application released the token it held for `req`.
    fn release(&mut self, obj: ObjectId, req: RequestId) -> Release {
        let Ok(i) = self.find(obj, req) else {
            return Release::Ghost;
        };
        match self.rows[i].successor.take() {
            Some((succ, origin)) => {
                self.rows.remove(i);
                Release::HandOff(succ, origin)
            }
            None => {
                self.rows[i].released = true;
                Release::Kept
            }
        }
    }

    /// An epoch bump: granted tokens die with their epoch; pending requests survive
    /// with any old-epoch successor linkage cleared, and are returned, sorted, for
    /// re-issue.
    fn survivors(&mut self) -> Vec<(ObjectId, RequestId)> {
        self.rows.retain(|r| !r.granted);
        for r in &mut self.rows {
            r.released = false;
            r.successor = None;
        }
        self.pending()
    }

    /// Own requests still awaiting their token, sorted.
    fn pending(&self) -> Vec<(ObjectId, RequestId)> {
        self.rows
            .iter()
            .filter(|r| !r.granted)
            .map(|r| (r.obj, r.req))
            .collect()
    }

    /// Every row, sorted.
    fn rows(&self) -> Vec<TokenRow> {
        self.rows
            .iter()
            .map(|r| (r.obj, r.req, r.granted, r.released, r.successor))
            .collect()
    }
}

/// A deterministic, canonically ordered copy of one [`ArrowCore`]'s protocol
/// state, exposed for the `arrow-model` explicit-state model checker.
///
/// Two cores that would behave identically on every future input produce equal
/// snapshots: the token rows are kept sorted by `(object, request)`, so the
/// order inputs arrived in never leaks into the snapshot. `Hash`,
/// `Eq` and `Ord` are derived, which makes the snapshot directly usable as a
/// key in visited-state sets and as input to canonical state hashing.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreSnapshot {
    /// The node the snapshot was taken at.
    pub node: NodeId,
    /// Current recovery epoch.
    pub epoch: u64,
    /// Next value of the per-node request-id sequence (captured because two
    /// cores that differ only here still assign different future ids).
    pub next_seq: u64,
    /// Per-object `(link, last_id)` pairs, indexed by object id.
    pub objects: Vec<(NodeId, RequestId)>,
    /// Token bookkeeping rows, sorted by `(object, request)`.
    pub tokens: Vec<TokenRow>,
}

/// One row of [`CoreSnapshot::tokens`]:
/// `(object, request, granted, released, successor)`.
pub type TokenRow = (ObjectId, RequestId, bool, bool, Option<(RequestId, NodeId)>);

/// The per-node arrow automaton for `K` objects: the queuing layer
/// ([`QueueCore`]) composed with the token ledger, independent of how messages
/// actually travel.
///
/// `Clone` is derived so an explicit-state model checker can branch a system
/// state into successors; the clone is an independent automaton with identical
/// behaviour.
///
/// The `P` parameter is the observability hook ([`arrow_trace::Probe`]): every
/// protocol transition is reported to `probe.record(..)`. The default
/// [`NoProbe`] monomorphizes those calls to nothing, so existing constructors
/// ([`ArrowCore::new`], [`ArrowCore::for_tree`]) build the probe-free automaton
/// unchanged; recording cores come from [`ArrowCore::with_probe`] /
/// [`ArrowCore::for_tree_with_probe`]. The probe is *not* protocol state: it is
/// excluded from [`ArrowCore::snapshot`] and [`ArrowCore::hash_into`], so the
/// model checker's state space is identical whether or not a run is traced.
#[derive(Debug, Clone)]
pub struct ArrowCore<P: Probe = NoProbe> {
    queue: QueueCore<P>,
    ledger: TokenLedger,
}

impl ArrowCore {
    /// Arrow state for node `me` of a system of `total_nodes` nodes, serving
    /// `objects` objects whose link pointers all start at `initial_link` (the node's
    /// tree parent, or `me` itself at the root).
    ///
    /// # Panics
    /// If `objects` is zero.
    pub fn new(me: NodeId, initial_link: NodeId, objects: usize, total_nodes: usize) -> Self {
        ArrowCore::with_probe(me, initial_link, objects, total_nodes, NoProbe)
    }

    /// Arrow state for node `me` of the given rooted spanning tree: the initial link
    /// is the tree parent (or `me` itself at the root), so following pointers from
    /// anywhere leads to the root, which holds every object's initial token.
    pub fn for_tree(me: NodeId, tree: &RootedTree, objects: usize) -> Self {
        ArrowCore::for_tree_with_probe(me, tree, objects, NoProbe)
    }
}

impl<P: Probe> ArrowCore<P> {
    fn hosting(queue: QueueCore<P>) -> Self {
        ArrowCore {
            queue,
            ledger: TokenLedger::default(),
        }
    }

    /// Like [`ArrowCore::new`], with a recording probe observing every protocol
    /// transition of this node.
    ///
    /// # Panics
    /// If `objects` is zero.
    pub fn with_probe(
        me: NodeId,
        initial_link: NodeId,
        objects: usize,
        total_nodes: usize,
        probe: P,
    ) -> Self {
        ArrowCore::hosting(QueueCore::with_probe(
            me,
            initial_link,
            objects,
            total_nodes,
            probe,
        ))
    }

    /// Like [`ArrowCore::for_tree`], with a recording probe.
    pub fn for_tree_with_probe(me: NodeId, tree: &RootedTree, objects: usize, probe: P) -> Self {
        ArrowCore::hosting(QueueCore::for_tree_with_probe(me, tree, objects, probe))
    }

    /// The probe, for transports that emit runtime-level events (e.g. the
    /// orphaned-grant self-release) through the node's recording channel.
    pub fn probe_mut(&mut self) -> &mut P {
        self.queue.probe_mut()
    }

    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.queue.node()
    }

    /// Number of objects served.
    pub fn object_count(&self) -> usize {
        self.queue.object_count()
    }

    /// The recovery epoch this node has reached (0 in fault-free runs).
    pub fn epoch(&self) -> u64 {
        self.queue.epoch()
    }

    /// Stale-epoch inputs this node rejected.
    pub fn stale_drops(&self) -> u64 {
        self.queue.stale_drops()
    }

    /// The current link pointer for `obj` (a tree neighbour, or this node itself
    /// when it is the object's sink).
    ///
    /// # Panics
    /// If `obj` is out of range for this node.
    pub fn link_of(&self, obj: ObjectId) -> NodeId {
        self.queue.link_of(obj)
    }

    /// A deterministic, canonically ordered copy of this core's protocol state.
    ///
    /// Used by the `arrow-model` checker both to test state equality (dedup) and
    /// to read protocol facts — link pointers, pending requests, epochs — without
    /// reaching into private fields. The token rows are kept in canonical
    /// order, so equal protocol states always snapshot equal.
    pub fn snapshot(&self) -> CoreSnapshot {
        CoreSnapshot {
            node: self.queue.node(),
            epoch: self.queue.epoch(),
            next_seq: self.queue.next_seq(),
            objects: self.queue.objects().collect(),
            tokens: self.ledger.rows(),
        }
    }

    /// Feed this core's canonical state into a hasher (a cheaper alternative to
    /// building a full [`CoreSnapshot`] when only a state hash is needed).
    ///
    /// Deterministic across runs for the same protocol state: the token rows
    /// are folded in sorted order and the hasher sees exactly the fields a
    /// [`CoreSnapshot`] carries.
    pub fn hash_into<H: Hasher>(&self, hasher: &mut H) {
        self.queue.hash_into(hasher);
        self.ledger.rows.hash(hasher);
    }

    /// This node's own requests still awaiting their token, sorted.
    pub fn pending(&self) -> Vec<(ObjectId, RequestId)> {
        self.ledger.pending()
    }

    /// Crash-restart: volatile protocol state (link pointers, token bookkeeping,
    /// the recovery epoch) is lost and reset to the initial tree orientation. The
    /// request-id counter survives — it models a counter in stable storage — so
    /// requests issued after the restart never collide with pre-crash ids. The
    /// node re-learns the current epoch from the next detection signal or from
    /// the first newer-epoch message it receives.
    pub fn reboot(&mut self) {
        self.queue.reboot();
        self.ledger.rows.clear();
    }

    /// Restore the stable-storage request-id counter after a *process*-level
    /// restart (see [`QueueCore::advance_request_seq`]).
    pub fn advance_request_seq(&mut self, seq: u64) {
        self.queue.advance_request_seq(seq);
    }

    /// Epoch guard for in-band inputs: `false` means the input is stale and must be
    /// dropped; a newer epoch first fast-forwards this node.
    fn admit_epoch(&mut self, obj: ObjectId, epoch: u64, actions: &mut Vec<CoreAction>) -> bool {
        match self.queue.check_epoch(obj, epoch) {
            EpochCheck::Stale => false,
            EpochCheck::Current => true,
            EpochCheck::Newer => {
                self.bump_epoch(epoch, actions);
                true
            }
        }
    }

    /// Fault detection signal: advance to recovery epoch `epoch` (no-op unless it
    /// is newer than the local epoch).
    ///
    /// A bump resets every object's link pointer to the initial tree orientation
    /// — the initial root becomes every object's sink again, holding a
    /// *regenerated* token behind the virtual request `r0` — discards token state
    /// of already-granted requests (a token held across a bump is a ghost of the
    /// old epoch; its release becomes a no-op and stale-epoch sends of it are
    /// rejected by receivers), and re-issues every still-pending own request under
    /// its original request id, so transports' waiting maps stay valid.
    pub fn on_epoch(&mut self, epoch: u64, actions: &mut Vec<CoreAction>) {
        if epoch > self.queue.epoch() {
            self.bump_epoch(epoch, actions);
        }
    }

    fn bump_epoch(&mut self, epoch: u64, actions: &mut Vec<CoreAction>) {
        self.queue.adopt_epoch(epoch);
        for (obj, req) in self.ledger.survivors() {
            let step = self.queue.reissue(obj, req);
            self.apply(obj, req, self.queue.node(), step, actions);
        }
    }

    /// Issue a queuing request for `obj` on behalf of the local application.
    /// Returns the fresh request id; the transport must remember it so a later
    /// [`CoreAction::Granted`] can wake the right waiter (possibly among `actions`
    /// already).
    ///
    /// # Panics
    /// If `obj` is out of range for this node.
    pub fn acquire(&mut self, obj: ObjectId, actions: &mut Vec<CoreAction>) -> RequestId {
        let req = self.queue.fresh_request_id();
        self.issue(obj, req, actions);
        req
    }

    /// Issue the queuing request `req` for `obj`, the id chosen by the caller (see
    /// [`QueueCore::issue`]). [`ArrowCore::acquire`] is this with a fresh id. The
    /// caller keeps ids unique across the system.
    ///
    /// # Panics
    /// If `req` is the virtual root request, or `obj` is out of range for this node.
    pub fn issue(&mut self, obj: ObjectId, req: RequestId, actions: &mut Vec<CoreAction>) {
        let step = self.queue.issue(obj, req);
        self.ledger.open(obj, req);
        self.apply(obj, req, self.queue.node(), step, actions);
    }

    /// Arrow path reversal for one object: a `queue()` message for request `req`
    /// (issued at `origin`, stamped with the sender's `epoch`) arrived from tree
    /// neighbour `from`. Stale-epoch messages are dropped; newer ones fast-forward
    /// this node first.
    ///
    /// # Panics
    /// If `obj` is out of range for this node.
    pub fn on_queue(
        &mut self,
        from: NodeId,
        obj: ObjectId,
        req: RequestId,
        origin: NodeId,
        epoch: u64,
        actions: &mut Vec<CoreAction>,
    ) {
        if self.admit_epoch(obj, epoch, actions) {
            let step = self.queue.on_queue(from, obj, req, origin);
            self.apply(obj, req, origin, step, actions);
        }
    }

    /// Turn the queuing layer's step for `req` (issued at `origin`) into actions,
    /// and let the ledger decide whether the token moves with it.
    fn apply(
        &mut self,
        obj: ObjectId,
        req: RequestId,
        origin: NodeId,
        step: QueueStep,
        actions: &mut Vec<CoreAction>,
    ) {
        let epoch = self.queue.epoch();
        match step {
            QueueStep::Forward { to } => actions.push(CoreAction::SendQueue {
                to,
                obj,
                req,
                origin,
                epoch,
            }),
            QueueStep::Queued { pred } => {
                actions.push(CoreAction::Queued {
                    obj,
                    pred,
                    succ: req,
                    origin,
                    epoch,
                });
                if self.ledger.queued_behind(obj, pred, req, origin) {
                    self.grant(obj, req, origin, actions);
                }
            }
        }
    }

    /// `obj`'s exclusion token arrived for this node's own request `req`, stamped
    /// with the sender's `epoch`. A stale-epoch token is a ghost of a pre-recovery
    /// epoch and is dropped — the request it would have granted has already been
    /// re-issued under the current epoch.
    pub fn on_token(
        &mut self,
        obj: ObjectId,
        req: RequestId,
        epoch: u64,
        actions: &mut Vec<CoreAction>,
    ) {
        if !self.admit_epoch(obj, epoch, actions) {
            return;
        }
        self.probe_mut().record(ProbeEvent::TokenReceived {
            obj: obj.0,
            req: req.0,
        });
        self.token_received(obj, req, actions);
    }

    fn token_received(&mut self, obj: ObjectId, req: RequestId, actions: &mut Vec<CoreAction>) {
        self.ledger.granted(obj, req);
        // No TokenReceived event here: a local handoff (grant to self) has no
        // token flight, and the analysis reads its absence as grant_wait = 0.
        self.probe_mut().record(ProbeEvent::Granted {
            obj: obj.0,
            req: req.0,
        });
        actions.push(CoreAction::Granted { obj, req });
    }

    /// The local application released `obj`'s token it held for `req`.
    ///
    /// A release of a token granted before an epoch bump finds no bookkeeping
    /// entry (the bump discarded it) and is a no-op: that token died with its
    /// epoch and must not grant anyone.
    pub fn on_release(&mut self, obj: ObjectId, req: RequestId, actions: &mut Vec<CoreAction>) {
        let released = self.ledger.release(obj, req);
        if matches!(released, Release::Ghost) {
            return;
        }
        self.probe_mut().record(ProbeEvent::Released {
            obj: obj.0,
            req: req.0,
        });
        if let Release::HandOff(succ, origin) = released {
            self.grant(obj, succ, origin, actions);
        }
    }

    /// Hand `obj`'s token to the node that issued `req`.
    fn grant(
        &mut self,
        obj: ObjectId,
        req: RequestId,
        origin: NodeId,
        actions: &mut Vec<CoreAction>,
    ) {
        if origin == self.queue.node() {
            self.token_received(obj, req, actions);
        } else {
            self.probe_mut().record(ProbeEvent::TokenSent {
                obj: obj.0,
                req: req.0,
                to: origin,
            });
            actions.push(CoreAction::SendToken {
                to: origin,
                obj,
                req,
                epoch: self.queue.epoch(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::generators;

    fn tree(n: usize) -> RootedTree {
        RootedTree::from_tree_graph(&generators::balanced_binary_tree(n), 0)
    }

    #[test]
    fn root_acquire_is_granted_locally() {
        let mut core = ArrowCore::for_tree(0, &tree(3), 1);
        let mut out = Vec::new();
        let req = core.acquire(ObjectId::DEFAULT, &mut out);
        // The root is the sink of its own virtual request r0, already released.
        assert_eq!(
            out,
            vec![
                CoreAction::Queued {
                    obj: ObjectId::DEFAULT,
                    pred: RequestId::ROOT,
                    succ: req,
                    origin: 0,
                    epoch: 0,
                },
                CoreAction::Granted {
                    obj: ObjectId::DEFAULT,
                    req,
                },
            ]
        );
    }

    #[test]
    fn non_root_acquire_sends_queue_towards_parent() {
        let t = tree(7);
        let mut core = ArrowCore::for_tree(5, &t, 1);
        let mut out = Vec::new();
        let req = core.acquire(ObjectId::DEFAULT, &mut out);
        assert_eq!(
            out,
            vec![CoreAction::SendQueue {
                to: t.parent(5).unwrap(),
                obj: ObjectId::DEFAULT,
                req,
                origin: 5,
                epoch: 0,
            }]
        );
    }

    #[test]
    fn queue_is_forwarded_along_old_link_with_path_reversal() {
        let t = tree(7);
        // Node 1's link initially points at its parent 0; a queue() arriving from
        // child 3 must be forwarded to 0 and the link must flip to 3.
        let mut core = ArrowCore::for_tree(1, &t, 1);
        let mut out = Vec::new();
        core.on_queue(3, ObjectId::DEFAULT, RequestId(9), 3, 0, &mut out);
        assert_eq!(
            out,
            vec![CoreAction::SendQueue {
                to: 0,
                obj: ObjectId::DEFAULT,
                req: RequestId(9),
                origin: 3,
                epoch: 0,
            }]
        );
        out.clear();
        // A second queue() arriving from 0 must now chase the flipped link to 3.
        core.on_queue(0, ObjectId::DEFAULT, RequestId(10), 6, 0, &mut out);
        assert_eq!(
            out,
            vec![CoreAction::SendQueue {
                to: 3,
                obj: ObjectId::DEFAULT,
                req: RequestId(10),
                origin: 6,
                epoch: 0,
            }]
        );
    }

    #[test]
    fn token_waits_for_release_then_travels_to_successor() {
        let mut core = ArrowCore::for_tree(0, &tree(3), 1);
        let mut out = Vec::new();
        let own = core.acquire(ObjectId::DEFAULT, &mut out);
        out.clear();
        // A remote request queues behind ours before we release.
        core.on_queue(1, ObjectId::DEFAULT, RequestId(40), 2, 0, &mut out);
        assert_eq!(
            out,
            vec![CoreAction::Queued {
                obj: ObjectId::DEFAULT,
                pred: own,
                succ: RequestId(40),
                origin: 2,
                epoch: 0,
            }],
            "token is still held: no grant yet"
        );
        out.clear();
        core.on_release(ObjectId::DEFAULT, own, &mut out);
        assert_eq!(
            out,
            vec![CoreAction::SendToken {
                to: 2,
                obj: ObjectId::DEFAULT,
                req: RequestId(40),
                epoch: 0,
            }]
        );
    }

    #[test]
    fn release_before_successor_known_hands_over_immediately_later() {
        let mut core = ArrowCore::for_tree(0, &tree(3), 1);
        let mut out = Vec::new();
        let own = core.acquire(ObjectId::DEFAULT, &mut out);
        out.clear();
        core.on_release(ObjectId::DEFAULT, own, &mut out);
        assert!(out.is_empty(), "no successor yet: nothing to do");
        core.on_queue(1, ObjectId::DEFAULT, RequestId(7), 1, 0, &mut out);
        assert_eq!(
            out,
            vec![
                CoreAction::Queued {
                    obj: ObjectId::DEFAULT,
                    pred: own,
                    succ: RequestId(7),
                    origin: 1,
                    epoch: 0,
                },
                CoreAction::SendToken {
                    to: 1,
                    obj: ObjectId::DEFAULT,
                    req: RequestId(7),
                    epoch: 0,
                },
            ]
        );
    }

    #[test]
    fn objects_have_independent_links_and_ids() {
        let t = tree(7);
        let mut core = ArrowCore::for_tree(2, &t, 2);
        assert_eq!(core.object_count(), 2);
        let mut out = Vec::new();
        let a = core.acquire(ObjectId(0), &mut out);
        let b = core.acquire(ObjectId(1), &mut out);
        assert_ne!(a, b, "one shared id sequence across objects");
        // Both queues were sent towards the parent independently.
        let targets: Vec<NodeId> = out
            .iter()
            .filter_map(|act| match act {
                CoreAction::SendQueue { to, .. } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(targets, vec![t.parent(2).unwrap(), t.parent(2).unwrap()]);
    }

    #[test]
    fn request_ids_are_disjoint_across_nodes() {
        let t = tree(7);
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for v in 0..7 {
            let mut core = ArrowCore::for_tree(v, &t, 1);
            for _ in 0..5 {
                assert!(seen.insert(core.acquire(ObjectId::DEFAULT, &mut out)));
            }
        }
        assert!(!seen.contains(&RequestId::ROOT));
    }

    #[test]
    fn issue_with_the_id_acquire_would_assign_is_acquire() {
        let t = tree(7);
        for node in [0, 5] {
            let mut acquired = ArrowCore::for_tree(node, &t, 2);
            let mut issued = acquired.clone();
            let (mut out_a, mut out_i) = (Vec::new(), Vec::new());
            for obj in [ObjectId(1), ObjectId(0), ObjectId(1)] {
                let req = acquired.acquire(obj, &mut out_a);
                issued.issue(obj, req, &mut out_i);
                assert_eq!(out_a, out_i);
            }
            // `issue` leaves the id sequence alone; everything else is the same.
            let mut want = acquired.snapshot();
            want.next_seq = 0;
            assert_eq!(issued.snapshot(), want);
        }
    }

    #[test]
    #[should_panic(expected = "cannot issue the virtual root request")]
    fn issuing_the_virtual_root_request_is_refused() {
        let mut core = ArrowCore::for_tree(1, &tree(3), 1);
        core.issue(ObjectId::DEFAULT, RequestId::ROOT, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "does not serve object")]
    fn out_of_range_object_panics() {
        let mut core = ArrowCore::for_tree(0, &tree(3), 1);
        let mut out = Vec::new();
        core.acquire(ObjectId(1), &mut out);
    }

    fn hash_of(core: &ArrowCore) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        core.hash_into(&mut h);
        h.finish()
    }

    #[test]
    fn snapshots_are_canonical_and_track_state_changes() {
        let t = tree(7);
        let mut a = ArrowCore::for_tree(3, &t, 2);
        let mut b = ArrowCore::for_tree(3, &t, 2);
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(hash_of(&a), hash_of(&b));

        // Identical input sequences keep the snapshots (and hashes) equal.
        let mut out = Vec::new();
        for core in [&mut a, &mut b] {
            core.acquire(ObjectId(0), &mut out);
            core.acquire(ObjectId(1), &mut out);
            core.on_queue(
                t.parent(3).unwrap(),
                ObjectId(0),
                RequestId(99),
                0,
                0,
                &mut out,
            );
        }
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(hash_of(&a), hash_of(&b));

        // Any further input changes the snapshot.
        let before = a.snapshot();
        a.acquire(ObjectId(0), &mut out);
        assert_ne!(a.snapshot(), before);
        assert_ne!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn snapshot_exposes_links_and_clone_is_independent() {
        let t = tree(7);
        let mut core = ArrowCore::for_tree(1, &t, 1);
        assert_eq!(core.link_of(ObjectId::DEFAULT), t.parent(1).unwrap());
        let frozen = core.clone();
        let mut out = Vec::new();
        core.acquire(ObjectId::DEFAULT, &mut out);
        // The issuing node becomes the object's sink; the clone is unaffected.
        assert_eq!(core.link_of(ObjectId::DEFAULT), 1);
        assert_eq!(core.snapshot().objects[0].0, 1);
        assert_eq!(frozen.snapshot().objects[0].0, t.parent(1).unwrap());
        assert_eq!(core.snapshot().tokens.len(), 1);
        assert!(frozen.snapshot().tokens.is_empty());
    }
    /// Every kind of input once, on a two-object core at an inner tree node;
    /// returns the state identity half way (ledger rows of every shape) and at the end.
    fn recorded_sequence(core: &mut ArrowCore, out: &mut Vec<CoreAction>) -> [(String, u64); 2] {
        let identity = |core: &ArrowCore| (format!("{:?}", core.snapshot()), hash_of(core));
        let a = core.acquire(ObjectId(0), out);
        let b = core.acquire(ObjectId(1), out);
        core.on_queue(3, ObjectId(0), RequestId(50), 3, 0, out);
        core.on_token(ObjectId(0), a, 0, out);
        let c = core.acquire(ObjectId(0), out);
        core.on_queue(4, ObjectId(1), RequestId(61), 4, 0, out);
        core.on_token(ObjectId(1), b, 0, out);
        core.on_release(ObjectId(1), b, out);
        let d = core.acquire(ObjectId(1), out);
        core.on_token(ObjectId(1), d, 0, out);
        core.on_release(ObjectId(1), d, out);
        let half_way = identity(core);
        core.on_release(ObjectId(0), a, out);
        core.on_queue(0, ObjectId(1), RequestId(70), 6, 0, out);
        core.on_queue(3, ObjectId(0), RequestId(51), 3, 2, out);
        core.on_token(ObjectId(0), c, 1, out);
        core.on_epoch(3, out);
        core.advance_request_seq(9);
        core.acquire(ObjectId(1), out);
        [half_way, identity(core)]
    }

    /// The model checker's state identity is `snapshot()`/`hash_into`: the split
    /// into queuing layer and ledger must leave both exactly what the single-struct
    /// core produced. The constants were printed by this sequence on that core.
    #[test]
    fn snapshot_and_hash_are_what_the_unsplit_core_recorded() {
        let mut core = ArrowCore::for_tree(1, &tree(7), 2);
        let mut out = Vec::new();
        let [half_way, end] = recorded_sequence(&mut core, &mut out);
        assert_eq!(
            half_way.0,
            "CoreSnapshot { node: 1, epoch: 0, next_seq: 4, objects: [(1, RequestId(16)), \
             (1, RequestId(23))], tokens: [(ObjectId(0), RequestId(2), true, false, \
             Some((RequestId(50), 3))), (ObjectId(0), RequestId(16), false, false, None), \
             (ObjectId(1), RequestId(23), true, true, None)] }"
        );
        assert_eq!(half_way.1, 0xefc4_0e11_2a4c_7107);
        assert_eq!(
            end.0,
            "CoreSnapshot { node: 1, epoch: 3, next_seq: 10, objects: [(1, RequestId(16)), \
             (1, RequestId(65))], tokens: [(ObjectId(0), RequestId(16), false, false, None), \
             (ObjectId(1), RequestId(65), false, false, None)] }"
        );
        assert_eq!(end.1, 0x6cad_3c95_4a31_51e9);
        assert_eq!(core.stale_drops(), 1);
        // The action stream is part of the facade too.
        use CoreAction::{Granted, Queued, SendQueue, SendToken};
        let (o0, o1) = (ObjectId(0), ObjectId(1));
        let r = RequestId;
        #[rustfmt::skip]
        let recorded = vec![
            SendQueue { to: 0, obj: o0, req: r(2), origin: 1, epoch: 0 },
            SendQueue { to: 0, obj: o1, req: r(9), origin: 1, epoch: 0 },
            Queued { obj: o0, pred: r(2), succ: r(50), origin: 3, epoch: 0 },
            Granted { obj: o0, req: r(2) },
            SendQueue { to: 3, obj: o0, req: r(16), origin: 1, epoch: 0 },
            Queued { obj: o1, pred: r(9), succ: r(61), origin: 4, epoch: 0 },
            Granted { obj: o1, req: r(9) },
            SendToken { to: 4, obj: o1, req: r(61), epoch: 0 },
            SendQueue { to: 4, obj: o1, req: r(23), origin: 1, epoch: 0 },
            Granted { obj: o1, req: r(23) },
            SendToken { to: 3, obj: o0, req: r(50), epoch: 0 },
            Queued { obj: o1, pred: r(23), succ: r(70), origin: 6, epoch: 0 },
            SendToken { to: 6, obj: o1, req: r(70), epoch: 0 },
            SendQueue { to: 0, obj: o0, req: r(16), origin: 1, epoch: 2 },
            Queued { obj: o0, pred: r(16), succ: r(51), origin: 3, epoch: 2 },
            SendQueue { to: 0, obj: o0, req: r(16), origin: 1, epoch: 3 },
            SendQueue { to: 0, obj: o1, req: r(65), origin: 1, epoch: 3 },
        ];
        assert_eq!(out, recorded);
    }
}
