//! The queuing layer: the paper's arrow automaton (Section 2) and nothing else.
//!
//! [`QueueCore`] is one node's per-object link pointers, the pointer flip and path
//! reversal of `queue()` messages, "learn your successor", and the recovery epoch
//! that resets the orientation after a fault. It knows nothing of tokens, grants or
//! releases — those are [`super::core`]'s ledger, the mutual-exclusion application
//! on top — and nothing of which requests are still pending: after
//! [`QueueCore::adopt_epoch`] the host re-issues the requests *it* knows to be
//! unanswered through [`QueueCore::reissue`].
//!
//! Every input yields exactly one [`QueueStep`]: the `queue()` message moves on, or
//! its path ends here. The simulator tier hosts a `QueueCore` alone
//! ([`crate::arrow::ArrowSim`]); the live tiers and the model checker host it
//! inside [`super::ArrowCore`].

use crate::request::{ObjectId, RequestId};
use arrow_trace::{NoProbe, Probe, ProbeEvent};
use netgraph::{NodeId, RootedTree};
use std::hash::{Hash, Hasher};

/// What one input to a [`QueueCore`] asks of its host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueStep {
    /// Send the request's `queue()` message on to tree neighbour `to` (never this
    /// node), stamped with [`QueueCore::epoch`].
    Forward {
        /// The old link target.
        to: NodeId,
    },
    /// The path ended here: the request is queued directly behind `pred`, which
    /// this node issued (or the virtual root request at the initial root).
    Queued {
        /// The predecessor in the object's total order.
        pred: RequestId,
    },
}

/// Where an input's epoch stands against this node's ([`QueueCore::check_epoch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochCheck {
    /// From before the last recovery: drop the input (already counted).
    Stale,
    /// This node's epoch: process the input.
    Current,
    /// Ahead of this node, which missed a detection signal: adopt it (and re-issue)
    /// first, then process the input.
    Newer,
}

/// Per-object arrow state at one node.
#[derive(Debug, Clone)]
struct ObjectState {
    /// `link_o(v)`: a tree neighbour, or the node itself when it is the sink.
    link: NodeId,
    /// `id_o(v)`: the last request for this object issued here. Initialised to the
    /// virtual root request at every node — see the invariant note in
    /// [`QueueCore::with_probe`].
    last_id: RequestId,
}

/// The per-node arrow queuing automaton for `K` objects.
///
/// `P` is the observability hook ([`arrow_trace::Probe`]): every queuing
/// transition is reported to it, and hosts report theirs through
/// [`QueueCore::probe_mut`]. The default [`NoProbe`] compiles to nothing. The
/// probe is not protocol state and is left out of [`QueueCore::hash_into`].
#[derive(Debug, Clone)]
pub struct QueueCore<P: Probe = NoProbe> {
    me: NodeId,
    total_nodes: u64,
    next_seq: u64,
    objects: Vec<ObjectState>,
    /// Current recovery epoch (0 until a fault is detected). Stamped on outgoing
    /// messages; inputs from older epochs are rejected, newer ones fast-forward.
    epoch: u64,
    /// The initial link pointer (tree parent, or `me` at the root), kept so an
    /// epoch bump can reset every object to the initial tree orientation.
    initial_link: NodeId,
    /// Stale-epoch inputs rejected by this node.
    stale_drops: u64,
    probe: P,
}

impl<P: Probe> QueueCore<P> {
    /// Queuing state for node `me` of a system of `total_nodes` nodes, serving
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
    pub fn with_probe(
        me: NodeId,
        initial_link: NodeId,
        objects: usize,
        total_nodes: usize,
        probe: P,
    ) -> Self {
        assert!(objects > 0, "a directory serves at least one object");
        QueueCore {
            me,
            total_nodes: total_nodes as u64,
            next_seq: 0,
            objects: vec![
                ObjectState {
                    link: initial_link,
                    last_id: RequestId::ROOT,
                };
                objects
            ],
            epoch: 0,
            initial_link,
            stale_drops: 0,
            probe,
        }
    }

    /// Queuing state for node `me` of the given rooted spanning tree: the initial
    /// link is the tree parent (or `me` itself at the root), so following pointers
    /// from anywhere leads to the root, every object's initial sink.
    pub fn for_tree_with_probe(me: NodeId, tree: &RootedTree, objects: usize, probe: P) -> Self {
        let link = if me == tree.root() {
            me
        } else {
            tree.parent(me).expect("non-root node has a parent")
        };
        QueueCore::with_probe(me, link, objects, tree.node_count(), probe)
    }

    /// The probe, for hosts that report their own events through the node's
    /// recording channel.
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

    /// Next value of the per-node request-id sequence.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The current link pointer for `obj` (a tree neighbour, or this node itself
    /// when it is the object's sink).
    ///
    /// # Panics
    /// If `obj` is out of range for this node.
    pub fn link_of(&self, obj: ObjectId) -> NodeId {
        self.object(obj).link
    }

    /// `id_o(v)`: the last request for `obj` issued here (the virtual root request
    /// until there is one).
    ///
    /// # Panics
    /// If `obj` is out of range for this node.
    pub fn last_id_of(&self, obj: ObjectId) -> RequestId {
        self.object(obj).last_id
    }

    /// Per-object `(link, last_id)` pairs, indexed by object id.
    pub(crate) fn objects(&self) -> impl Iterator<Item = (NodeId, RequestId)> + '_ {
        self.objects.iter().map(|st| (st.link, st.last_id))
    }

    /// Feed the canonical queuing state into a hasher: node, epoch, id sequence and
    /// every object's `(link, last_id)`, in that order.
    pub fn hash_into<H: Hasher>(&self, hasher: &mut H) {
        self.me.hash(hasher);
        self.epoch.hash(hasher);
        self.next_seq.hash(hasher);
        for st in &self.objects {
            st.link.hash(hasher);
            st.last_id.hash(hasher);
        }
    }

    fn object(&self, obj: ObjectId) -> &ObjectState {
        self.objects
            .get(obj.0 as usize)
            .unwrap_or_else(|| panic!("node {} does not serve object {obj}", self.me))
    }

    fn object_mut(&mut self, obj: ObjectId) -> &mut ObjectState {
        let me = self.me;
        self.objects
            .get_mut(obj.0 as usize)
            .unwrap_or_else(|| panic!("node {me} does not serve object {obj}"))
    }

    fn reset_links(&mut self) {
        for state in &mut self.objects {
            state.link = self.initial_link;
            state.last_id = RequestId::ROOT;
        }
    }

    /// Crash-restart: link pointers and the recovery epoch are volatile and reset to
    /// the initial tree orientation. The request-id counter survives — it models a
    /// counter in stable storage — so requests issued after the restart never
    /// collide with pre-crash ids. The node re-learns the current epoch from the
    /// next detection signal or from the first newer-epoch message it receives.
    pub fn reboot(&mut self) {
        self.reset_links();
        self.epoch = 0;
    }

    /// Restore the stable-storage request-id counter after a *process*-level
    /// restart: advance the sequence to at least `seq` (never backwards).
    ///
    /// [`QueueCore::reboot`] models an in-process crash, where the counter
    /// genuinely survives. A killed and re-spawned process starts from a fresh
    /// core whose counter is zero; re-issuing ids the dead incarnation already
    /// used would collide with its requests still chained in surviving nodes'
    /// journals. A restart supervisor passes a safe lower bound here (e.g. an
    /// over-estimate of requests per incarnation) before the core issues
    /// anything.
    pub fn advance_request_seq(&mut self, seq: u64) {
        self.next_seq = self.next_seq.max(seq);
    }

    /// A request id no other node and no earlier call hands out: interleaved by
    /// node id, one sequence across this node's objects, never the root id 0.
    pub fn fresh_request_id(&mut self) -> RequestId {
        let id = 1 + self.me as u64 + self.next_seq * self.total_nodes;
        self.next_seq += 1;
        RequestId(id)
    }

    /// Epoch guard for in-band inputs. A [`EpochCheck::Stale`] input is counted
    /// here and must be dropped; on [`EpochCheck::Newer`] the host adopts the epoch
    /// (a restarted or partitioned-away node can miss detection signals and learns
    /// the current epoch from live traffic) and then processes the input.
    pub fn check_epoch(&mut self, obj: ObjectId, epoch: u64) -> EpochCheck {
        match epoch.cmp(&self.epoch) {
            std::cmp::Ordering::Less => {
                self.stale_drops += 1;
                self.probe.record(ProbeEvent::StaleDrop { obj: obj.0 });
                EpochCheck::Stale
            }
            std::cmp::Ordering::Equal => EpochCheck::Current,
            std::cmp::Ordering::Greater => EpochCheck::Newer,
        }
    }

    /// Advance to recovery epoch `epoch`: every object's link pointer returns to the
    /// initial tree orientation, so the initial root is every object's sink again,
    /// behind the virtual request `r0`. The host then re-issues each own request
    /// still unanswered through [`QueueCore::reissue`], in ascending
    /// `(object, request)` order.
    pub fn adopt_epoch(&mut self, epoch: u64) {
        debug_assert!(epoch > self.epoch, "epochs only advance");
        self.epoch = epoch;
        self.probe.record(ProbeEvent::EpochAdopted { epoch });
        self.reset_links();
    }

    /// Issue the queuing request `req` for `obj`: the paper's issue step
    /// (`id_o(v) <- a`, send `queue(a, o)` to `link_o(v)`, `link_o(v) <- v`). The
    /// caller keeps ids unique across the system ([`QueueCore::fresh_request_id`]
    /// does, as do the simulator's schedules).
    ///
    /// # Panics
    /// If `req` is the virtual root request, or `obj` is out of range for this node.
    pub fn issue(&mut self, obj: ObjectId, req: RequestId) -> QueueStep {
        assert!(!req.is_root(), "cannot issue the virtual root request");
        self.probe.record(ProbeEvent::RequestIssued {
            obj: obj.0,
            req: req.0,
            origin: self.me,
        });
        self.reissue(obj, req)
    }

    /// The issue transition proper, shared by fresh issues and the re-issues after
    /// an epoch bump (same id, no second `RequestIssued` event): this node's own
    /// `req` becomes `id_o(v)` and leaves along the link, or is queued right here
    /// when this node is `obj`'s sink.
    pub fn reissue(&mut self, obj: ObjectId, req: RequestId) -> QueueStep {
        let me = self.me;
        let state = self.object_mut(obj);
        let previous = std::mem::replace(&mut state.last_id, req);
        let target = std::mem::replace(&mut state.link, me);
        self.step(obj, req, me, target, previous)
    }

    /// Arrow path reversal for one object: a `queue()` message for request `req`
    /// (issued at `origin`) arrived from tree neighbour `from`, its epoch already
    /// checked ([`QueueCore::check_epoch`]).
    ///
    /// # Panics
    /// If `obj` is out of range for this node.
    pub fn on_queue(
        &mut self,
        from: NodeId,
        obj: ObjectId,
        req: RequestId,
        origin: NodeId,
    ) -> QueueStep {
        self.probe.record(ProbeEvent::QueueReceived {
            obj: obj.0,
            req: req.0,
            origin,
            from,
        });
        let state = self.object_mut(obj);
        let old_link = std::mem::replace(&mut state.link, from);
        let pred = state.last_id;
        self.step(obj, req, origin, old_link, pred)
    }

    /// `req`'s `queue()` message stood at this node with the link pointing at
    /// `old_link`: it ends here behind `pred` if that was this node, and moves on
    /// to `old_link` otherwise.
    fn step(
        &mut self,
        obj: ObjectId,
        req: RequestId,
        origin: NodeId,
        old_link: NodeId,
        pred: RequestId,
    ) -> QueueStep {
        if old_link == self.me {
            self.probe.record(ProbeEvent::QueuedBehind {
                obj: obj.0,
                req: req.0,
                pred: pred.0,
                origin,
            });
            QueueStep::Queued { pred }
        } else {
            self.probe.record(ProbeEvent::QueueSent {
                obj: obj.0,
                req: req.0,
                origin,
                to: old_link,
            });
            QueueStep::Forward { to: old_link }
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

    fn core(me: NodeId, n: usize, objects: usize) -> QueueCore {
        QueueCore::for_tree_with_probe(me, &tree(n), objects, NoProbe)
    }

    const O: ObjectId = ObjectId::DEFAULT;

    #[test]
    fn issue_flips_the_link_and_forwards_to_the_parent() {
        let mut c = core(5, 7, 1);
        assert_eq!(c.link_of(O), 2);
        assert_eq!(c.issue(O, RequestId(9)), QueueStep::Forward { to: 2 });
        // The issuer is the new sink and remembers its request.
        assert_eq!(c.link_of(O), 5);
        assert_eq!(c.last_id_of(O), RequestId(9));
        // Its next request queues behind the first on the spot.
        assert_eq!(
            c.issue(O, RequestId(10)),
            QueueStep::Queued { pred: RequestId(9) }
        );
        assert_eq!(c.last_id_of(O), RequestId(10));
    }

    #[test]
    fn the_initial_root_queues_behind_the_virtual_request() {
        let mut c = core(0, 3, 1);
        assert_eq!(
            c.issue(O, RequestId(1)),
            QueueStep::Queued {
                pred: RequestId::ROOT
            }
        );
        assert_eq!(c.link_of(O), 0);
    }

    #[test]
    fn path_reversal_chases_the_flipped_link() {
        // Node 1's link points at its parent 0; a queue() from child 3 goes on to 0
        // and flips the link to 3, so the next queue() from 0 chases it back to 3.
        let mut c = core(1, 7, 1);
        assert_eq!(
            c.on_queue(3, O, RequestId(9), 3),
            QueueStep::Forward { to: 0 }
        );
        assert_eq!(c.link_of(O), 3);
        assert_eq!(
            c.on_queue(0, O, RequestId(10), 6),
            QueueStep::Forward { to: 3 }
        );
        assert_eq!(c.link_of(O), 0);
        // A forwarding node never learns a successor: id_o(v) is untouched.
        assert_eq!(c.last_id_of(O), RequestId::ROOT);
    }

    #[test]
    fn a_queue_message_ends_at_the_sink_behind_its_last_request() {
        let mut c = core(4, 7, 2);
        c.issue(ObjectId(1), RequestId(30));
        assert_eq!(
            c.on_queue(1, ObjectId(1), RequestId(31), 6),
            QueueStep::Queued {
                pred: RequestId(30)
            }
        );
        // The sink moved on towards the new tail; the other object never stirred.
        assert_eq!(c.link_of(ObjectId(1)), 1);
        assert_eq!(c.link_of(ObjectId(0)), 1);
        assert_eq!(c.last_id_of(ObjectId(0)), RequestId::ROOT);
    }

    #[test]
    fn epochs_are_checked_counted_and_adopted_without_a_ledger() {
        let mut c = core(5, 7, 1);
        c.issue(O, RequestId(6));
        assert_eq!(c.check_epoch(O, 0), EpochCheck::Current);
        assert_eq!(c.check_epoch(O, 2), EpochCheck::Newer);
        c.adopt_epoch(2);
        assert_eq!((c.epoch(), c.stale_drops()), (2, 0));
        // Adoption restored the initial orientation and forgot id_o(v) ...
        assert_eq!((c.link_of(O), c.last_id_of(O)), (2, RequestId::ROOT));
        // ... and the host re-issues what it knows to be pending, under the old id.
        assert_eq!(c.reissue(O, RequestId(6)), QueueStep::Forward { to: 2 });
        assert_eq!((c.link_of(O), c.last_id_of(O)), (5, RequestId(6)));
        assert_eq!(c.check_epoch(O, 1), EpochCheck::Stale);
        assert_eq!(c.stale_drops(), 1);
    }

    #[test]
    fn reboot_keeps_the_id_sequence_and_forgets_the_rest() {
        let mut c = core(3, 7, 1);
        let first = c.fresh_request_id();
        c.issue(O, first);
        c.adopt_epoch(4);
        c.reboot();
        assert_eq!((c.epoch(), c.link_of(O)), (0, 1));
        assert_eq!(c.last_id_of(O), RequestId::ROOT);
        assert_ne!(c.fresh_request_id(), first);
        c.advance_request_seq(9);
        assert_eq!(c.next_seq(), 9);
        c.advance_request_seq(2);
        assert_eq!(c.next_seq(), 9, "never backwards");
    }

    #[test]
    #[should_panic(expected = "cannot issue the virtual root request")]
    fn issuing_the_virtual_root_request_is_refused() {
        core(1, 3, 1).issue(O, RequestId::ROOT);
    }

    #[test]
    #[should_panic(expected = "does not serve object")]
    fn out_of_range_object_panics() {
        core(0, 3, 1).issue(ObjectId(1), RequestId(1));
    }
}
