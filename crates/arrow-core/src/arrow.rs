//! The arrow protocol on the simulator: [`QueueCore`] behind the node [`Host`].
//!
//! The automaton itself — per-object link pointers, path reversal, recovery epochs
//! — is [`crate::live::QueueCore`], the queuing layer of the
//! [`crate::live::ArrowCore`] every live tier runs and the model checker explores.
//! [`ArrowSim`] is the glue: it feeds each [`ProtoMsg`] to the core and turns the
//! resulting [`QueueStep`] into a simulator send or a journal entry.
//!
//! **The simulator has no critical section**, so it hosts no token ledger: a
//! request completes when its predecessor's node learns of it (Definition 3.2). On
//! [`QueueStep::Queued`] the glue sends the Section 5 acknowledgement
//! ([`ProtoMsg::Found`], paying `d_G(sink, requester)`), and the ack's arrival —
//! epoch-checked like any in-band input — is the requester learning of the
//! completion. A request that was never acknowledged stays open in the [`Host`]
//! and is re-issued under its original id after every epoch bump.

use crate::host::{Automaton, Host, SimNode};
use crate::live::{EpochCheck, QueueCore, QueueStep};
use crate::protocol::ProtoMsg;
use crate::request::{ObjectId, RequestId};
use arrow_trace::{NoProbe, Probe, ProbeEvent};
use desim::{Context, SimDuration};
use netgraph::{DistanceMatrix, NodeId};
use std::sync::Arc;

/// A simulator node running the arrow protocol.
pub type ArrowSimNode<P = NoProbe> = SimNode<ArrowSim<P>>;

/// The arrow protocol half of a simulator node: the shared [`QueueCore`] plus the
/// acknowledgement policy of the experiment.
///
/// `P` is the core's observability hook ([`arrow_trace::Probe`]). A recording node
/// emits a [`ProbeEvent::Tick`] carrying the simulation clock before each dispatch,
/// so a shared sim-mode recorder timestamps events in simulation units, and a
/// [`ProbeEvent::Granted`] when a requester learns that its request completed.
#[derive(Debug)]
pub struct ArrowSim<P: Probe = NoProbe> {
    core: QueueCore<P>,
    /// `Some` = acknowledge every remote request back to its requester as a direct
    /// send paying `d_G(me, origin)` — the cost model of Section 5 — whatever single
    /// link happens to join the pair. Direct sends bypass the latency model: acks
    /// are not part of the protocol cost the analysis randomises.
    ack_over: Option<Arc<DistanceMatrix>>,
}

impl<P: Probe> ArrowSim<P> {
    /// The simulator node running `core` (see [`SimNode::new`]). With `ack_over`
    /// set, requesters are acknowledged over that graph metric — and only then do
    /// they observe the completion of a remote request.
    pub fn node(
        core: QueueCore<P>,
        ack_over: Option<Arc<DistanceMatrix>>,
        service_time: f64,
    ) -> ArrowSimNode<P> {
        let (me, acked) = (core.node(), ack_over.is_some());
        SimNode::new(me, ArrowSim { core, ack_over }, service_time, acked)
    }

    /// The queuing state machine of this node.
    pub fn core(&self) -> &QueueCore<P> {
        &self.core
    }

    /// Epoch guard for in-band inputs: `false` means stale, drop it; a newer epoch
    /// fast-forwards this node first.
    fn admit(
        &mut self,
        host: &mut Host,
        ctx: &mut Context<ProtoMsg>,
        obj: ObjectId,
        epoch: u64,
    ) -> bool {
        match self.core.check_epoch(obj, epoch) {
            EpochCheck::Stale => false,
            EpochCheck::Current => true,
            EpochCheck::Newer => {
                self.adopt(host, ctx, epoch);
                true
            }
        }
    }

    /// Move to recovery epoch `epoch` and re-issue every own request whose
    /// completion this node has not heard of, under its original id.
    fn adopt(&mut self, host: &mut Host, ctx: &mut Context<ProtoMsg>, epoch: u64) {
        self.core.adopt_epoch(epoch);
        let mut pending: Vec<(ObjectId, RequestId)> = host.open_requests().collect();
        pending.sort_unstable();
        for (obj, req) in pending {
            let step = self.core.reissue(obj, req);
            self.apply(host, ctx, obj, req, host.me(), step);
        }
    }

    /// Carry out the core's step for `req` (issued at `origin`).
    fn apply(
        &mut self,
        host: &mut Host,
        ctx: &mut Context<ProtoMsg>,
        obj: ObjectId,
        req: RequestId,
        origin: NodeId,
        step: QueueStep,
    ) {
        let epoch = self.core.epoch();
        match step {
            QueueStep::Forward { to } => {
                host.note_message();
                ctx.send(
                    to,
                    ProtoMsg::Queue {
                        req,
                        obj,
                        origin,
                        epoch,
                    },
                );
            }
            QueueStep::Queued { pred } => {
                let me = host.me();
                host.note_queued(ctx, obj, pred, req, epoch);
                if origin == me {
                    // The requester is this node: it learns of the queuing right here.
                    self.completed(host, ctx, obj, req);
                } else if let Some(dm) = &self.ack_over {
                    let found = ProtoMsg::Found {
                        req,
                        obj,
                        pred,
                        epoch,
                    };
                    let d_g = SimDuration::from_units_f64(dm.dist(me, origin));
                    ctx.send_direct(origin, found, d_g);
                }
            }
        }
    }

    /// This node learnt that its own request `req` was queued.
    fn completed(
        &mut self,
        host: &mut Host,
        ctx: &mut Context<ProtoMsg>,
        obj: ObjectId,
        req: RequestId,
    ) {
        self.core.probe_mut().record(ProbeEvent::Granted {
            obj: obj.0,
            req: req.0,
        });
        host.complete(ctx, req);
    }
}

impl<P: Probe> Automaton for ArrowSim<P> {
    fn process(
        &mut self,
        host: &mut Host,
        ctx: &mut Context<ProtoMsg>,
        from: NodeId,
        msg: ProtoMsg,
    ) {
        // Sync a sim-mode recorder to the simulation clock before any event from
        // this dispatch; compiles to nothing under `NoProbe`.
        self.core.probe_mut().record(ProbeEvent::Tick {
            units: ctx.now().as_units_f64(),
        });
        match msg {
            ProtoMsg::Issue { req, obj } => {
                host.note_issue(ctx, req, obj);
                let step = self.core.issue(obj, req);
                self.apply(host, ctx, obj, req, host.me(), step);
            }
            ProtoMsg::Queue {
                req,
                obj,
                origin,
                epoch,
            } => {
                if self.admit(host, ctx, obj, epoch) {
                    let step = self.core.on_queue(from, obj, req, origin);
                    self.apply(host, ctx, obj, req, origin, step);
                }
            }
            ProtoMsg::Found {
                req, obj, epoch, ..
            } => {
                if self.admit(host, ctx, obj, epoch) {
                    self.completed(host, ctx, obj, req);
                }
            }
            ProtoMsg::Epoch { epoch } => {
                if epoch > self.core.epoch() {
                    self.adopt(host, ctx, epoch);
                }
            }
            other => {
                host.note_violation(|| format!("arrow node received non-arrow message {other:?}"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::OrderRecord;
    use crate::workload::ClosedLoopSpec;
    use desim::{Process, SimConfig, SimTime, Simulator};
    use netgraph::generators;

    fn issue(i: u64) -> ProtoMsg {
        ProtoMsg::Issue {
            req: RequestId(i),
            obj: ObjectId::DEFAULT,
        }
    }

    /// Arrow nodes for the path 0 - 1 - ... - (n-1) rooted at `root` (all links
    /// initially point towards it), serving `k` objects; acks travel over the
    /// path's own metric.
    fn path_nodes_multi(n: usize, root: usize, k: usize, ack: bool) -> Vec<ArrowSimNode> {
        let dm = ack.then(|| DistanceMatrix::shared(&generators::path(n)));
        (0..n)
            .map(|v| {
                let link = match v.cmp(&root) {
                    std::cmp::Ordering::Equal => v,
                    std::cmp::Ordering::Greater => v - 1,
                    std::cmp::Ordering::Less => v + 1,
                };
                ArrowSim::node(
                    QueueCore::with_probe(v, link, k, n, NoProbe),
                    dm.clone(),
                    0.0,
                )
            })
            .collect()
    }

    fn path_nodes(n: usize, root: usize, ack: bool) -> Vec<ArrowSimNode> {
        path_nodes_multi(n, root, 1, ack)
    }

    fn link_for(node: &ArrowSimNode, obj: ObjectId) -> NodeId {
        node.automaton().core().link_of(obj)
    }

    fn link(node: &ArrowSimNode) -> NodeId {
        link_for(node, ObjectId::DEFAULT)
    }

    fn is_sink_for(node: &ArrowSimNode, obj: ObjectId) -> bool {
        link_for(node, obj) == node.host().me()
    }

    fn is_sink(node: &ArrowSimNode) -> bool {
        is_sink_for(node, ObjectId::DEFAULT)
    }

    /// `id(v)` of the default object.
    fn last_request(node: &ArrowSimNode) -> RequestId {
        node.automaton().core().last_id_of(ObjectId::DEFAULT)
    }

    #[test]
    fn initial_root_is_sink_with_virtual_request() {
        let nodes = path_nodes(4, 0, false);
        assert!(is_sink(&nodes[0]));
        assert_eq!(last_request(&nodes[0]), RequestId::ROOT);
        assert!(!is_sink(&nodes[1]));
        assert_eq!(link(&nodes[1]), 0);
    }

    #[test]
    fn single_remote_request_travels_to_root_and_reverses_path() {
        let mut sim = Simulator::new(path_nodes(4, 0, false), SimConfig::synchronous());
        sim.schedule_external(SimTime::ZERO, 3, issue(1));
        sim.run();
        // The request from node 3 is ordered behind the virtual root request at node 0.
        let recs = sim.node(0).host().records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].predecessor, RequestId::ROOT);
        assert_eq!(recs[0].successor, RequestId(1));
        assert_eq!(recs[0].informed_at, SimTime::from_units(3));
        // All pointers now lead to node 3 (the new tail).
        assert_eq!(link(sim.node(0)), 1);
        assert_eq!(link(sim.node(1)), 2);
        assert_eq!(link(sim.node(2)), 3);
        assert!(is_sink(sim.node(3)));
        // 3 inter-processor queue hops.
        let hops: u64 = (0..4).map(|v| sim.node(v).host().protocol_messages()).sum();
        assert_eq!(hops, 3);
    }

    #[test]
    fn local_request_at_root_completes_without_messages() {
        let mut sim = Simulator::new(path_nodes(3, 0, false), SimConfig::synchronous());
        sim.schedule_external(SimTime::ZERO, 0, issue(1));
        sim.run();
        assert_eq!(sim.stats().messages_delivered, 0);
        let recs = sim.node(0).host().records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].predecessor, RequestId::ROOT);
        // The root remains the sink and its id is now the new request.
        assert!(is_sink(sim.node(0)));
        assert_eq!(last_request(sim.node(0)), RequestId(1));
        assert_eq!(sim.node(0).host().own_completions().len(), 1);
    }

    #[test]
    fn two_sequential_requests_chain_correctly() {
        let mut sim = Simulator::new(path_nodes(4, 0, false), SimConfig::synchronous());
        sim.schedule_external(SimTime::ZERO, 3, issue(1));
        sim.schedule_external(SimTime::from_units(100), 1, issue(2));
        sim.run();
        // Request 1 behind root (recorded at node 0), request 2 behind request 1
        // (recorded at node 3, which holds request 1).
        assert_eq!(sim.node(0).host().records().len(), 1);
        let rec3 = sim.node(3).host().records();
        assert_eq!(rec3.len(), 1);
        assert_eq!(rec3[0].predecessor, RequestId(1));
        assert_eq!(rec3[0].successor, RequestId(2));
        // d_T(1, 3) = 2, issued at t=100 => informed at t=102.
        assert_eq!(rec3[0].informed_at, SimTime::from_units(102));
    }

    #[test]
    fn concurrent_requests_are_all_queued_exactly_once() {
        let n = 8;
        // Path 0-1-...-7 rooted at 0.
        let mut sim = Simulator::new(path_nodes(n, 0, false), SimConfig::synchronous());
        for v in 1..n {
            sim.schedule_external(SimTime::ZERO, v, issue(v as u64));
        }
        sim.run();
        let mut successors: Vec<RequestId> = (0..n)
            .flat_map(|v| sim.node(v).host().records().iter().map(|r| r.successor))
            .collect();
        successors.sort();
        successors.dedup();
        assert_eq!(successors.len(), n - 1, "every request queued exactly once");
        // Exactly one node is the final sink.
        let sinks = (0..n).filter(|&v| is_sink(sim.node(v))).count();
        assert_eq!(sinks, 1);
    }

    #[test]
    fn per_object_arrow_state_is_independent() {
        // Two objects on a path 0 - 1 - 2 - 3, both rooted at node 0. A request for
        // object 1 must flip only object 1's pointers.
        let mut sim = Simulator::new(path_nodes_multi(4, 0, 2, false), SimConfig::synchronous());
        sim.schedule_external(
            SimTime::ZERO,
            3,
            ProtoMsg::Issue {
                req: RequestId(1),
                obj: ObjectId(1),
            },
        );
        sim.run();
        // Object 1's pointers now lead to node 3; object 0's still lead to node 0.
        assert!(is_sink_for(sim.node(3), ObjectId(1)));
        assert!(!is_sink_for(sim.node(3), ObjectId(0)));
        assert!(is_sink_for(sim.node(0), ObjectId(0)));
        assert_eq!(link_for(sim.node(0), ObjectId(1)), 1);
        // The record belongs to object 1.
        let recs = sim.node(0).host().records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].obj, ObjectId(1));
        assert_eq!(recs[0].predecessor, RequestId::ROOT);
    }

    #[test]
    fn concurrent_requests_for_different_objects_do_not_interfere() {
        // Simultaneous requests for K distinct objects each complete against their
        // own virtual root request — no cross-object queuing.
        let k = 4;
        let n = 6;
        let mut sim = Simulator::new(path_nodes_multi(n, 0, k, false), SimConfig::synchronous());
        for o in 0..k {
            sim.schedule_external(
                SimTime::ZERO,
                n - 1 - o,
                ProtoMsg::Issue {
                    req: RequestId(1 + o as u64),
                    obj: ObjectId(o as u32),
                },
            );
        }
        sim.run();
        let recs: Vec<OrderRecord> = (0..n)
            .flat_map(|v| sim.node(v).host().records().iter().copied())
            .collect();
        assert_eq!(recs.len(), k);
        for rec in &recs {
            // Every request queues directly behind its own object's root request.
            assert_eq!(rec.predecessor, RequestId::ROOT, "record {rec:?}");
        }
        let mut objs: Vec<ObjectId> = recs.iter().map(|r| r.obj).collect();
        objs.sort();
        objs.dedup();
        assert_eq!(objs.len(), k, "one completion per object");
    }

    #[test]
    #[should_panic(expected = "does not serve object")]
    fn request_for_unknown_object_panics() {
        let mut node = path_nodes(1, 0, false).remove(0);
        let mut ctx = Context::new(0, SimTime::ZERO);
        node.on_external(
            &mut ctx,
            ProtoMsg::Issue {
                req: RequestId(1),
                obj: ObjectId(3),
            },
        );
    }

    #[test]
    fn ack_reaches_the_requester() {
        let mut sim = Simulator::new(path_nodes(4, 0, true), SimConfig::synchronous());
        sim.schedule_external(SimTime::ZERO, 2, issue(1));
        sim.run();
        let completions = sim.node(2).host().own_completions();
        assert_eq!(completions.len(), 1);
        // 2 hops to reach the root plus d_G(0, 2) = 2 for the direct ack back.
        assert_eq!(completions[0].at, SimTime::from_units(4));
        assert_eq!(completions[0].issued_at, SimTime::ZERO);
    }

    #[test]
    fn second_request_queues_locally_while_the_first_ack_is_in_flight() {
        let mut sim = Simulator::new(path_nodes(4, 0, true), SimConfig::synchronous());
        sim.schedule_external(SimTime::ZERO, 3, issue(1));
        sim.schedule_external(SimTime::ZERO, 3, issue(2));
        assert!(sim.step() && sim.step(), "both issues processed");
        // Node 3 made itself the sink with the first issue, so the second is queued
        // behind it on the spot and its requester — the same node — knows at once.
        let node = sim.node(3);
        let recs = node.host().records();
        assert_eq!(recs.len(), 1);
        assert_eq!(
            (recs[0].predecessor, recs[0].successor),
            (RequestId(1), RequestId(2))
        );
        assert_eq!(recs[0].informed_at, SimTime::ZERO);
        let done: Vec<RequestId> = node
            .host()
            .own_completions()
            .iter()
            .map(|c| c.req)
            .collect();
        assert_eq!(done, vec![RequestId(2)]);
        // The first is still on its way to the root.
        assert_eq!(
            node.host().open_requests().collect::<Vec<_>>(),
            vec![(ObjectId::DEFAULT, RequestId(1))]
        );
        sim.run();
        // 3 hops to the root, d_G = 3 back.
        let done = sim.node(3).host().own_completions();
        assert_eq!(done.len(), 2);
        assert_eq!(
            (done[1].req, done[1].at),
            (RequestId(1), SimTime::from_units(6))
        );
    }

    #[test]
    fn epoch_bump_reissues_only_the_unacknowledged_request_and_drops_the_stale_ack() {
        let mut sim = Simulator::new(path_nodes(4, 0, true), SimConfig::synchronous());
        sim.schedule_external(SimTime::ZERO, 3, issue(1));
        sim.schedule_external(SimTime::ZERO, 3, issue(2));
        // The detection signal reaches node 3 while request 1's queue() is between
        // nodes 2 and 1; everyone else learns epoch 1 from the re-issued traffic.
        sim.schedule_external(SimTime::from_units(1), 3, ProtoMsg::Epoch { epoch: 1 });
        sim.run();
        let node = sim.node(3);
        // One issue each; request 1 left twice (once per epoch), request 2 never.
        assert_eq!(node.host().issued().len(), 2);
        assert_eq!(node.host().protocol_messages(), 2);
        let all: Vec<OrderRecord> = (0..4)
            .flat_map(|v| sim.node(v).host().records().iter().copied())
            .collect();
        let epochs_of = |req: u64| -> Vec<u64> {
            let mut e: Vec<u64> = all
                .iter()
                .filter(|r| r.successor == RequestId(req))
                .map(|r| r.epoch)
                .collect();
            e.sort_unstable();
            e
        };
        assert_eq!(epochs_of(1), vec![0, 1], "queued once per epoch, same id");
        assert_eq!(epochs_of(2), vec![0], "already acknowledged: not re-issued");
        // The epoch-0 ack (root at t=3, d_G = 3) finds node 3 in epoch 1 and is
        // dropped; the epoch-1 ack (root at t=4) completes the request.
        assert_eq!(node.automaton().core().stale_drops(), 1);
        assert_eq!(node.host().duplicate_grants(), 0);
        let done: Vec<(RequestId, SimTime)> = node
            .host()
            .own_completions()
            .iter()
            .map(|c| (c.req, c.at))
            .collect();
        assert_eq!(
            done,
            vec![
                (RequestId(2), SimTime::ZERO),
                (RequestId(1), SimTime::from_units(7))
            ]
        );
        assert_eq!(node.host().open_requests().count(), 0);
    }

    #[test]
    fn closed_loop_issues_the_configured_number_of_requests() {
        let spec = ClosedLoopSpec {
            requests_per_node: 5,
            local_service_time: 0.1,
        };
        let mut nodes = path_nodes(3, 0, true);
        for node in &mut nodes {
            node.enable_closed_loop(&spec, 3);
        }
        let mut sim = Simulator::new(nodes, SimConfig::synchronous());
        sim.run();
        let total_issued: usize = (0..3).map(|v| sim.node(v).host().issued().len()).sum();
        assert_eq!(total_issued, 15);
        let total_recorded: usize = (0..3).map(|v| sim.node(v).host().records().len()).sum();
        assert_eq!(total_recorded, 15);
        // Ids are globally unique.
        let mut ids: Vec<u64> = (0..3)
            .flat_map(|v| sim.node(v).host().issued().iter().map(|(r, _, _)| r.0))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 15);
    }

    #[test]
    #[should_panic(expected = "positive local service time")]
    fn closed_loop_requires_positive_service_time() {
        let mut node = path_nodes(1, 0, true).remove(0);
        node.enable_closed_loop(
            &ClosedLoopSpec {
                requests_per_node: 10,
                local_service_time: 0.0,
            },
            1,
        );
    }

    #[test]
    fn central_message_is_recorded_as_violation_not_processed() {
        let mut node = path_nodes(1, 0, false).remove(0);
        let mut ctx = Context::new(0, SimTime::ZERO);
        assert!(node.host().protocol_violation().is_none());
        node.on_message(
            &mut ctx,
            1,
            ProtoMsg::CentralEnqueue {
                req: RequestId(1),
                obj: ObjectId::DEFAULT,
                origin: 1,
            },
        );
        let violation = node
            .host()
            .protocol_violation()
            .expect("violation recorded");
        assert!(violation.contains("non-arrow message"), "{violation}");
        // The violating message was dropped: no record, no state change.
        assert!(node.host().records().is_empty());
        assert!(is_sink(&node));
        // A second violation does not overwrite the first.
        node.on_message(
            &mut ctx,
            1,
            ProtoMsg::CentralReply {
                req: RequestId(2),
                obj: ObjectId::DEFAULT,
                pred: RequestId(1),
            },
        );
        assert!(node
            .host()
            .protocol_violation()
            .unwrap()
            .contains("CentralEnqueue"));
    }
}
