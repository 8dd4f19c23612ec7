//! The centralized (home-based) queuing protocol — the baseline of Section 5.
//!
//! "A globally known central node always stored the current tail of the total order.
//! Every queuing request was completed using only two messages, one to the central
//! node, and one back." The central node is a serial bottleneck: it must process one
//! message per request regardless of where requests originate, which is why its total
//! latency grows linearly with the number of processors in Figure 10 while the arrow
//! protocol's stays nearly flat.

use crate::host::{Automaton, Host, SimNode};
use crate::protocol::ProtoMsg;
use crate::request::{ObjectId, RequestId};
use desim::Context;
use netgraph::NodeId;

/// A simulator node running the centralized protocol.
pub type CentralizedNode = SimNode<CentralTail>;

/// The centralized protocol half of a simulator node.
///
/// Every node knows the identity of the central node; the central node additionally
/// stores the current tail of every object's queue.
#[derive(Debug)]
pub struct CentralTail {
    central: NodeId,
    /// Per-object tail of the queue, indexed by object id; only meaningful at the
    /// central node. Objects never seen before (at or past the end, or still
    /// [`RequestId::ROOT`]) have the virtual root request as their tail.
    tails: Vec<RequestId>,
}

impl CentralTail {
    /// The simulator node `me` that knows `central` as the central node (see
    /// [`SimNode::new`]). Every request is answered, so requesters always observe
    /// completion.
    pub fn node(me: NodeId, central: NodeId, service_time: f64) -> CentralizedNode {
        let automaton = CentralTail {
            central,
            tails: Vec::new(),
        };
        SimNode::new(me, automaton, service_time, true)
    }

    /// The central node appends `req` to `obj`'s queue and answers its requester.
    fn enqueue(
        &mut self,
        host: &mut Host,
        ctx: &mut Context<ProtoMsg>,
        req: RequestId,
        obj: ObjectId,
        origin: NodeId,
    ) {
        assert_eq!(
            host.me(),
            self.central,
            "only the central node enqueues requests"
        );
        let slot = obj.0 as usize;
        if slot >= self.tails.len() {
            self.tails.resize(slot + 1, RequestId::ROOT);
        }
        let pred = std::mem::replace(&mut self.tails[slot], req);
        host.note_queued(ctx, obj, pred, req, 0);
        if origin == host.me() {
            host.complete(ctx, req);
        } else {
            host.note_message();
            ctx.send(origin, ProtoMsg::CentralReply { req, obj, pred });
        }
    }
}

impl Automaton for CentralTail {
    fn process(
        &mut self,
        host: &mut Host,
        ctx: &mut Context<ProtoMsg>,
        _from: NodeId,
        msg: ProtoMsg,
    ) {
        match msg {
            ProtoMsg::Issue { req, obj } => {
                host.note_issue(ctx, req, obj);
                let origin = host.me();
                if origin == self.central {
                    // Local request: enqueue directly.
                    self.enqueue(host, ctx, req, obj, origin);
                } else {
                    host.note_message();
                    ctx.send(self.central, ProtoMsg::CentralEnqueue { req, obj, origin });
                }
            }
            ProtoMsg::CentralEnqueue { req, obj, origin } => {
                self.enqueue(host, ctx, req, obj, origin)
            }
            ProtoMsg::CentralReply { req, .. } => host.complete(ctx, req),
            other => host.note_violation(|| {
                format!("centralized node received unexpected message {other:?}")
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ClosedLoopSpec;
    use desim::{Process, SimConfig, SimTime, Simulator};

    fn nodes(n: usize, central: usize, service: f64) -> Vec<CentralizedNode> {
        (0..n)
            .map(|v| CentralTail::node(v, central, service))
            .collect()
    }

    fn issue(i: u64) -> ProtoMsg {
        ProtoMsg::Issue {
            req: RequestId(i),
            obj: ObjectId::DEFAULT,
        }
    }

    #[test]
    fn remote_request_takes_two_messages() {
        let mut sim = Simulator::new(nodes(4, 0, 0.0), SimConfig::synchronous());
        sim.schedule_external(SimTime::ZERO, 2, issue(1));
        sim.run();
        assert_eq!(sim.stats().messages_delivered, 2);
        let recs = sim.node(0).host().journal().records().to_vec();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].predecessor, RequestId::ROOT);
        // Reply received one unit after the enqueue reached the center.
        assert_eq!(
            sim.node(2).host().journal().completions()[0].at,
            SimTime::from_units(2)
        );
    }

    #[test]
    fn local_request_at_center_is_free() {
        let mut sim = Simulator::new(nodes(3, 1, 0.0), SimConfig::synchronous());
        sim.schedule_external(SimTime::ZERO, 1, issue(1));
        sim.run();
        assert_eq!(sim.stats().messages_delivered, 0);
        assert_eq!(sim.node(1).host().journal().records().len(), 1);
        assert_eq!(sim.node(1).host().journal().completions().len(), 1);
    }

    #[test]
    fn center_orders_requests_in_arrival_order() {
        let mut sim = Simulator::new(nodes(5, 0, 0.0), SimConfig::synchronous());
        for v in 1..5 {
            sim.schedule_external(SimTime::ZERO, v, issue(v as u64));
        }
        sim.run();
        let recs = sim.node(0).host().journal().records().to_vec();
        assert_eq!(recs.len(), 4);
        // First record is behind the root; the chain is total.
        assert_eq!(recs[0].predecessor, RequestId::ROOT);
        for w in recs.windows(2) {
            assert_eq!(w[1].predecessor, w[0].successor);
        }
    }

    #[test]
    fn service_time_serialises_the_center() {
        // 4 remote requests arrive simultaneously; with a service time of 1 unit the
        // center releases replies 1 unit apart.
        let mut sim = Simulator::new(nodes(5, 0, 1.0), SimConfig::synchronous());
        for v in 1..5 {
            sim.schedule_external(SimTime::ZERO, v, issue(v as u64));
        }
        let outcome = sim.run();
        // Last enqueue processed at 1 + 4 (arrival at 1, four service slots), reply +1.
        assert!(outcome.final_time >= SimTime::from_units(5));
        let recs = sim.node(0).host().journal().records().to_vec();
        assert_eq!(recs.len(), 4);
        let mut times: Vec<f64> = recs.iter().map(|r| r.informed_at.as_units_f64()).collect();
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for w in times.windows(2) {
            assert!(
                w[1] - w[0] >= 1.0 - 1e-9,
                "center served two requests within one service time"
            );
        }
    }

    #[test]
    fn center_keeps_independent_tails_per_object() {
        let mut sim = Simulator::new(nodes(3, 0, 0.0), SimConfig::synchronous());
        sim.schedule_external(
            SimTime::ZERO,
            1,
            ProtoMsg::Issue {
                req: RequestId(1),
                obj: ObjectId(0),
            },
        );
        sim.schedule_external(
            SimTime::ZERO,
            2,
            ProtoMsg::Issue {
                req: RequestId(2),
                obj: ObjectId(1),
            },
        );
        sim.run();
        let recs = sim.node(0).host().journal().records().to_vec();
        assert_eq!(recs.len(), 2);
        // Both requests queue behind their own object's virtual root request.
        for rec in &recs {
            assert_eq!(rec.predecessor, RequestId::ROOT, "record {rec:?}");
        }
        assert_ne!(recs[0].obj, recs[1].obj);
    }

    #[test]
    fn closed_loop_issues_all_requests() {
        let spec = ClosedLoopSpec {
            requests_per_node: 3,
            local_service_time: 0.2,
        };
        let mut ns = nodes(3, 0, 0.2);
        for n in &mut ns {
            n.enable_closed_loop(&spec, 3);
        }
        let mut sim = Simulator::new(ns, SimConfig::synchronous());
        sim.run();
        let total_issued: usize = (0..3)
            .map(|v| sim.node(v).host().journal().issued().len())
            .sum();
        assert_eq!(total_issued, 9);
        assert_eq!(sim.node(0).host().journal().records().len(), 9);
    }

    #[test]
    fn arrow_message_is_recorded_as_violation_not_processed() {
        let mut node = CentralTail::node(0, 0, 0.0);
        let mut ctx = Context::new(0, SimTime::ZERO);
        assert!(node.host().protocol_violation().is_none());
        node.on_message(
            &mut ctx,
            1,
            ProtoMsg::Queue {
                req: RequestId(1),
                obj: ObjectId::DEFAULT,
                origin: 1,
                epoch: 0,
            },
        );
        let violation = node
            .host()
            .protocol_violation()
            .expect("violation recorded");
        assert!(violation.contains("unexpected message"), "{violation}");
        // The violating message was dropped: nothing got enqueued.
        assert!(node.host().journal().records().is_empty());
    }
}
