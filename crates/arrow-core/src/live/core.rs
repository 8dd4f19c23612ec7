//! The transport-agnostic per-node arrow state machine.
//!
//! Four execution tiers run the same protocol — the discrete-event simulator
//! ([`crate::arrow`]), the in-process thread runtime ([`super::ArrowRuntime`]), the
//! socket runtime (`arrow-net`) and the process cluster (`arrow-cluster`) — and all
//! four share *this* module: one [`ArrowCore`] per node holds the per-object link
//! pointers, the path-reversal logic, the recovery epochs and the per-(object,
//! request) token bookkeeping, and reports what the transport must do as a list of
//! [`CoreAction`]s. The transport owns everything I/O-shaped: simulated links,
//! channels or sockets, the map from pending requests to application wakeups,
//! latency, and statistics.
//!
//! Keeping the state machine in one place means the tiers cannot drift: a protocol
//! change lands here once and every tier picks it up, and the model checker
//! (`arrow-model`) explores the code that produces the figures.
//!
//! # How the simulator drives the token half
//!
//! The simulator measures queuing, not exclusion: a request completes when its
//! predecessor's node learns of it (Definition 3.2), and the Section 5
//! acknowledgement to the requester leaves at that instant. The core's token leaves
//! only once the predecessor was granted *and released*. So the simulator host
//! ([`crate::arrow::ArrowSim`]) never calls [`ArrowCore::on_release`] and ignores
//! [`CoreAction::SendToken`]; it acknowledges on [`CoreAction::Queued`] itself and
//! reports an acknowledgement's arrival as [`ArrowCore::on_token`], which applies
//! the stale-epoch guard and marks the request granted so a later bump does not
//! re-issue it. Releasing early instead (at issue, or when a successor queues) would
//! drop the ledger row of a request that is still pending, and an epoch bump would
//! then no longer re-issue it.
//!
//! That input sequence — `on_token` for a request whose predecessor never released
//! — is outside what `arrow-model` explores: its transitions move a token only
//! after a release. What the simulator shares with the explored state space is the
//! queuing half: the pointer flip, epoch adoption, stale-frame rejection and the
//! re-issue of pending requests are the same code on the same inputs.
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
//! transport emits sends in list order. Both the thread runtime and the socket
//! runtime drain their inboxes in batches this way: it turns a burst of protocol
//! traffic into one apply pass (and, on the socket tier, into coalesced writes)
//! instead of one transport round-trip per message. The protocol itself does not
//! care — a node is free to receive more messages before acting on earlier ones,
//! because correctness only requires that each link delivers in FIFO order.

use crate::request::{ObjectId, RequestId};
use arrow_trace::{NoProbe, Probe, ProbeEvent};
use netgraph::{NodeId, RootedTree};
use std::collections::HashMap;
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

/// Per-own-request token bookkeeping at the issuing node.
#[derive(Debug, Clone, Default)]
struct TokenState {
    /// The token has arrived for this request (the application holds it, or held
    /// it and released). Requests with `granted == false` are still *pending* and
    /// get re-issued after an epoch bump.
    granted: bool,
    /// The token for this request has been (or never needed to be) released.
    released: bool,
    /// The successor of this request, once known: `(request, origin node)`.
    successor: Option<(RequestId, NodeId)>,
}

/// Per-object arrow state at one node.
#[derive(Debug, Clone)]
struct ObjectState {
    /// `link_o(v)`: a tree neighbour, or the node itself when it is the sink.
    link: NodeId,
    /// `id_o(v)`: the last request for this object issued here. Initialised to the
    /// virtual root request at every node — see the invariant note in
    /// [`ArrowCore::new`].
    last_id: RequestId,
}

/// A deterministic, canonically ordered copy of one [`ArrowCore`]'s protocol
/// state, exposed for the `arrow-model` explicit-state model checker.
///
/// Two cores that would behave identically on every future input produce equal
/// snapshots: the token map is flattened into a sorted vector, so iteration
/// order of the underlying `HashMap` never leaks into the snapshot. `Hash`,
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

/// The per-node arrow automaton for `K` objects: link pointers, path reversal and
/// token bookkeeping, independent of how messages actually travel.
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
    me: NodeId,
    total_nodes: u64,
    next_seq: u64,
    objects: Vec<ObjectState>,
    /// Token bookkeeping for requests issued by this node, keyed by
    /// (object, request id).
    tokens: HashMap<(ObjectId, RequestId), TokenState>,
    /// Current recovery epoch (0 until a fault is detected). Stamped on outgoing
    /// messages; inputs from older epochs are rejected, newer ones fast-forward.
    epoch: u64,
    /// The initial link pointer (tree parent, or `me` at the root), kept so an
    /// epoch bump can reset every object to the initial tree orientation.
    initial_link: NodeId,
    /// Stale-epoch inputs rejected by this node.
    stale_drops: u64,
    /// The observability hook (zero-sized and inert for [`NoProbe`]).
    probe: P,
}

impl ArrowCore {
    /// Arrow state for node `me` of a system of `total_nodes` nodes, serving
    /// `objects` objects whose link pointers all start at `initial_link` (the node's
    /// tree parent, or `me` itself at the root).
    ///
    /// Every object starts with `last_id = r0`, but only the root's value is ever
    /// read before being overwritten — a non-root node can only become a sink by
    /// issuing a request (which sets `last_id` first), so its initial value is never
    /// observed.
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
        assert!(objects > 0, "a directory serves at least one object");
        ArrowCore {
            me,
            total_nodes: total_nodes as u64,
            next_seq: 0,
            objects: (0..objects)
                .map(|_| ObjectState {
                    link: initial_link,
                    last_id: RequestId::ROOT,
                })
                .collect(),
            tokens: HashMap::new(),
            epoch: 0,
            initial_link,
            stale_drops: 0,
            probe,
        }
    }

    /// Like [`ArrowCore::for_tree`], with a recording probe.
    pub fn for_tree_with_probe(me: NodeId, tree: &RootedTree, objects: usize, probe: P) -> Self {
        let link = if me == tree.root() {
            me
        } else {
            tree.parent(me).expect("non-root node has a parent")
        };
        ArrowCore::with_probe(me, link, objects, tree.node_count(), probe)
    }

    /// The probe, for transports that emit runtime-level events (e.g. the
    /// orphaned-grant self-release) through the node's recording channel.
    pub fn probe_mut(&mut self) -> &mut P {
        &mut self.probe
    }

    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.me
    }

    /// Number of objects served.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// The recovery epoch this node has reached (0 in fault-free runs).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Stale-epoch inputs this node rejected.
    pub fn stale_drops(&self) -> u64 {
        self.stale_drops
    }

    /// The current link pointer for `obj` (a tree neighbour, or this node itself
    /// when it is the object's sink).
    ///
    /// # Panics
    /// If `obj` is out of range for this node.
    pub fn link_of(&self, obj: ObjectId) -> NodeId {
        self.objects
            .get(obj.0 as usize)
            .unwrap_or_else(|| panic!("node {} does not serve object {obj}", self.me))
            .link
    }

    /// A deterministic, canonically ordered copy of this core's protocol state.
    ///
    /// Used by the `arrow-model` checker both to test state equality (dedup) and
    /// to read protocol facts — link pointers, pending requests, epochs — without
    /// reaching into private fields. The snapshot is independent of `HashMap`
    /// iteration order, so equal protocol states always snapshot equal.
    pub fn snapshot(&self) -> CoreSnapshot {
        let mut tokens: Vec<_> = self
            .tokens
            .iter()
            .map(|(&(obj, req), st)| (obj, req, st.granted, st.released, st.successor))
            .collect();
        tokens.sort();
        CoreSnapshot {
            node: self.me,
            epoch: self.epoch,
            next_seq: self.next_seq,
            objects: self
                .objects
                .iter()
                .map(|st| (st.link, st.last_id))
                .collect(),
            tokens,
        }
    }

    /// Feed this core's canonical state into a hasher (a cheaper alternative to
    /// building a full [`CoreSnapshot`] when only a state hash is needed).
    ///
    /// Deterministic across runs for the same protocol state: the token map is
    /// folded in sorted order and the hasher sees exactly the fields a
    /// [`CoreSnapshot`] carries.
    pub fn hash_into<H: Hasher>(&self, hasher: &mut H) {
        self.me.hash(hasher);
        self.epoch.hash(hasher);
        self.next_seq.hash(hasher);
        for st in &self.objects {
            st.link.hash(hasher);
            st.last_id.hash(hasher);
        }
        let mut tokens: Vec<_> = self
            .tokens
            .iter()
            .map(|(&(obj, req), st)| (obj, req, st.granted, st.released, st.successor))
            .collect();
        tokens.sort();
        tokens.hash(hasher);
    }

    /// This node's own requests still awaiting their token, sorted.
    pub fn pending(&self) -> Vec<(ObjectId, RequestId)> {
        let mut pending: Vec<_> = self
            .tokens
            .iter()
            .filter(|(_, st)| !st.granted)
            .map(|(&key, _)| key)
            .collect();
        pending.sort();
        pending
    }

    /// Crash-restart: volatile protocol state (link pointers, token bookkeeping,
    /// the recovery epoch) is lost and reset to the initial tree orientation. The
    /// request-id counter survives — it models a counter in stable storage — so
    /// requests issued after the restart never collide with pre-crash ids. The
    /// node re-learns the current epoch from the next detection signal or from
    /// the first newer-epoch message it receives.
    pub fn reboot(&mut self) {
        for state in &mut self.objects {
            state.link = self.initial_link;
            state.last_id = RequestId::ROOT;
        }
        self.tokens.clear();
        self.epoch = 0;
    }

    /// Restore the stable-storage request-id counter after a *process*-level
    /// restart: advance `next_seq` to at least `seq` (never backwards).
    ///
    /// [`ArrowCore::reboot`] models an in-process crash, where the counter
    /// genuinely survives. A killed and re-spawned process starts from a fresh
    /// core whose counter is zero; re-issuing ids the dead incarnation already
    /// used would collide with its requests still chained in surviving nodes'
    /// journals. A restart supervisor passes a safe lower bound here (e.g. an
    /// over-estimate of requests per incarnation) before the core issues
    /// anything.
    pub fn advance_request_seq(&mut self, seq: u64) {
        self.next_seq = self.next_seq.max(seq);
    }

    /// Epoch guard for in-band inputs: `false` means the input is stale and must be
    /// dropped; a newer epoch first fast-forwards this node (a restarted or
    /// partitioned-away node can miss detection signals and learns the current
    /// epoch from live traffic).
    fn admit_epoch(&mut self, obj: ObjectId, epoch: u64, actions: &mut Vec<CoreAction>) -> bool {
        if epoch < self.epoch {
            self.stale_drops += 1;
            self.probe.record(ProbeEvent::StaleDrop { obj: obj.0 });
            return false;
        }
        if epoch > self.epoch {
            self.bump_epoch(epoch, actions);
        }
        true
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
        if epoch > self.epoch {
            self.bump_epoch(epoch, actions);
        }
    }

    fn bump_epoch(&mut self, epoch: u64, actions: &mut Vec<CoreAction>) {
        self.epoch = epoch;
        self.probe.record(ProbeEvent::EpochAdopted { epoch });
        for state in &mut self.objects {
            state.link = self.initial_link;
            state.last_id = RequestId::ROOT;
        }
        // Granted tokens die with their epoch; pending requests survive and are
        // re-issued below, with any old-epoch successor linkage cleared.
        self.tokens.retain(|_, st| !st.granted);
        for st in self.tokens.values_mut() {
            st.released = false;
            st.successor = None;
        }
        let mut pending: Vec<(ObjectId, RequestId)> = self.tokens.keys().copied().collect();
        pending.sort();
        for (obj, req) in pending {
            // A re-issue, not a new request: no second RequestIssued event, but
            // the fresh hop chain is traced like any other.
            self.queue_own(obj, req, actions);
        }
    }

    fn fresh_request_id(&mut self) -> RequestId {
        // Unique across nodes (interleaved by node id) and across this node's
        // objects (one shared sequence). +1 keeps ids disjoint from the root id 0.
        let id = 1 + self.me as u64 + self.next_seq * self.total_nodes;
        self.next_seq += 1;
        RequestId(id)
    }

    fn object_mut(&mut self, obj: ObjectId) -> &mut ObjectState {
        let me = self.me;
        self.objects
            .get_mut(obj.0 as usize)
            .unwrap_or_else(|| panic!("node {me} does not serve object {obj}"))
    }

    /// Issue a queuing request for `obj` on behalf of the local application.
    /// Returns the fresh request id; the transport must remember it so a later
    /// [`CoreAction::Granted`] can wake the right waiter (possibly among `actions`
    /// already).
    ///
    /// # Panics
    /// If `obj` is out of range for this node.
    pub fn acquire(&mut self, obj: ObjectId, actions: &mut Vec<CoreAction>) -> RequestId {
        let req = self.fresh_request_id();
        self.issue(obj, req, actions);
        req
    }

    /// Issue the queuing request `req` for `obj`, the id chosen by the caller: the
    /// paper's issue step (`id_o(v) <- a`, send `queue(a, o)` to `link_o(v)`,
    /// `link_o(v) <- v`). [`ArrowCore::acquire`] is this with a fresh id; the
    /// simulator tier calls it directly, because its schedules carry their own ids.
    /// The caller keeps ids unique across the system.
    ///
    /// # Panics
    /// If `req` is the virtual root request, or `obj` is out of range for this node.
    pub fn issue(&mut self, obj: ObjectId, req: RequestId, actions: &mut Vec<CoreAction>) {
        assert!(!req.is_root(), "cannot issue the virtual root request");
        self.tokens.insert((obj, req), TokenState::default());
        self.probe.record(ProbeEvent::RequestIssued {
            obj: obj.0,
            req: req.0,
            origin: self.me,
        });
        self.queue_own(obj, req, actions);
    }

    /// The issue transition proper, shared by fresh issues and the re-issues of an
    /// epoch bump: this node's own `req` becomes `id_o(v)` and leaves along the link,
    /// or is queued right here when this node is `obj`'s sink.
    fn queue_own(&mut self, obj: ObjectId, req: RequestId, actions: &mut Vec<CoreAction>) {
        let me = self.me;
        let state = self.object_mut(obj);
        let previous = state.last_id;
        state.last_id = req;
        if state.link == me {
            // Local sink: req is queued directly behind our previous request.
            self.queuing_complete(obj, previous, req, me, actions);
        } else {
            let target = state.link;
            state.link = me;
            self.probe.record(ProbeEvent::QueueSent {
                obj: obj.0,
                req: req.0,
                origin: me,
                to: target,
            });
            actions.push(CoreAction::SendQueue {
                to: target,
                obj,
                req,
                origin: me,
                epoch: self.epoch,
            });
        }
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
        if !self.admit_epoch(obj, epoch, actions) {
            return;
        }
        self.probe.record(ProbeEvent::QueueReceived {
            obj: obj.0,
            req: req.0,
            origin,
            from,
        });
        let me = self.me;
        let current = self.epoch;
        let state = self.object_mut(obj);
        let old_link = state.link;
        state.link = from;
        if old_link == me {
            let pred = state.last_id;
            self.queuing_complete(obj, pred, req, origin, actions);
        } else {
            self.probe.record(ProbeEvent::QueueSent {
                obj: obj.0,
                req: req.0,
                origin,
                to: old_link,
            });
            actions.push(CoreAction::SendQueue {
                to: old_link,
                obj,
                req,
                origin,
                epoch: current,
            });
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
        self.probe.record(ProbeEvent::TokenReceived {
            obj: obj.0,
            req: req.0,
        });
        self.token_received(obj, req, actions);
    }

    fn token_received(&mut self, obj: ObjectId, req: RequestId, actions: &mut Vec<CoreAction>) {
        self.tokens.entry((obj, req)).or_default().granted = true;
        // No TokenReceived event here: a local handoff (grant to self) has no
        // token flight, and the analysis reads its absence as grant_wait = 0.
        self.probe.record(ProbeEvent::Granted {
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
        let Some(state) = self.tokens.get_mut(&(obj, req)) else {
            return;
        };
        self.probe.record(ProbeEvent::Released {
            obj: obj.0,
            req: req.0,
        });
        if let Some((succ, origin)) = state.successor.take() {
            self.tokens.remove(&(obj, req));
            self.grant(obj, succ, origin, actions);
        } else {
            state.released = true;
        }
    }

    /// Request `succ` (from `origin`) has been queued behind `pred` in `obj`'s queue,
    /// and `pred` lives here.
    fn queuing_complete(
        &mut self,
        obj: ObjectId,
        pred: RequestId,
        succ: RequestId,
        origin: NodeId,
        actions: &mut Vec<CoreAction>,
    ) {
        self.probe.record(ProbeEvent::QueuedBehind {
            obj: obj.0,
            req: succ.0,
            pred: pred.0,
            origin,
        });
        actions.push(CoreAction::Queued {
            obj,
            pred,
            succ,
            origin,
            epoch: self.epoch,
        });
        if pred.is_root() {
            // The token has been sitting at the object's initial root, already free.
            self.grant(obj, succ, origin, actions);
            return;
        }
        let state = self.tokens.entry((obj, pred)).or_default();
        if state.released {
            self.tokens.remove(&(obj, pred));
            self.grant(obj, succ, origin, actions);
        } else {
            state.successor = Some((succ, origin));
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
        if origin == self.me {
            self.token_received(obj, req, actions);
        } else {
            self.probe.record(ProbeEvent::TokenSent {
                obj: obj.0,
                req: req.0,
                to: origin,
            });
            actions.push(CoreAction::SendToken {
                to: origin,
                obj,
                req,
                epoch: self.epoch,
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

        // Identical input sequences keep the snapshots (and hashes) equal even
        // though the token HashMaps were populated independently.
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
}
