//! Call-timing loops over single layers, run by traced workloads.
//!
//! Each loop calls a layer's public functions directly, with inputs shaped
//! like the workload's, and reports nanoseconds per call. They bound what an
//! optimisation of that layer alone can buy: a layer's share of an acquire is
//! its per-call cost times its calls per acquire, both measured here or in the
//! workload's window.

use arrow_core::live::{ArrowCore, CoreAction};
use arrow_core::prelude::{
    outcome_from_records, ObjectId, OrderRecord, ProtoMsg, ProtocolKind, QueuingOutcome, RequestId,
};
use arrow_net::Frame;
use arrow_trace::{HistMetric, Metric, MetricsRegistry};
use desim::{Context, EventKind, EventQueue, Process, SimConfig, SimRng, SimTime, Simulator};
use netgraph::{NodeId, RootedTree};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// Cost of one `Instant::now()` pair around nothing, in nanoseconds — what a
/// per-call timing adds to the call it wraps.
fn clock_pair_ns() -> f64 {
    const N: u32 = 200_000;
    let mut acc = 0u128;
    for _ in 0..N {
        let t0 = Instant::now();
        acc += black_box(t0.elapsed().as_nanos());
    }
    acc as f64 / N as f64
}

/// Per-step costs of the shared protocol automaton, from an in-memory replay.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoreCosts {
    pub acquire_ns: f64,
    pub on_queue_ns: f64,
    pub on_token_ns: f64,
    pub on_release_ns: f64,
    pub on_epoch_ns: f64,
    /// Calls into a core per granted acquire.
    pub steps_per_acq: f64,
    /// Whole replay (core calls plus this loop's own delivery queue) per
    /// granted acquire, untimed per step.
    pub us_per_acq: f64,
}

#[derive(Clone, Copy)]
enum Msg {
    Queue {
        from: NodeId,
        to: NodeId,
        obj: ObjectId,
        req: RequestId,
        origin: NodeId,
        epoch: u64,
    },
    Token {
        to: NodeId,
        obj: ObjectId,
        req: RequestId,
        epoch: u64,
    },
    /// A grant on its way to the client and the client's release and next
    /// acquire on their way back. It queues behind the frames already in
    /// flight, as the live driver's commands queue behind a shard's ready
    /// sockets; applied at once it would let one node re-acquire its own
    /// token forever without any frame being delivered.
    ClientTurn {
        node: NodeId,
        obj: ObjectId,
        req: RequestId,
    },
}

#[derive(Clone, Copy)]
enum Step {
    Acquire = 0,
    OnQueue = 1,
    OnToken = 2,
    OnRelease = 3,
    OnEpoch = 4,
}

/// One `ArrowCore` per tree node with this loop as the transport: frames and
/// client turns go through one FIFO; a granted client releases and re-issues
/// (the lock-step closed loop of the live workloads, minus sockets).
struct Replay {
    cores: Vec<ArrowCore>,
    wire: VecDeque<Msg>,
    /// Actions not yet applied, with the node that produced them.
    todo: VecDeque<(NodeId, CoreAction)>,
    scratch: Vec<CoreAction>,
    timed: bool,
    step_ns: [u128; 5],
    step_count: [u64; 5],
    granted: u64,
    issued: u64,
    target: u64,
    /// Every node adopts a new epoch each time this many acquisitions were
    /// granted, mid-flight: in-flight frames go stale, pending requests are
    /// re-issued.
    epoch_every: Option<u64>,
    epoch: u64,
}

impl Replay {
    fn new(
        tree: &RootedTree,
        objects: usize,
        timed: bool,
        target: u64,
        epoch_every: Option<u64>,
    ) -> Replay {
        Replay {
            cores: (0..tree.node_count())
                .map(|v| ArrowCore::for_tree(v, tree, objects))
                .collect(),
            wire: VecDeque::new(),
            todo: VecDeque::new(),
            scratch: Vec::new(),
            timed,
            step_ns: [0; 5],
            step_count: [0; 5],
            granted: 0,
            issued: 0,
            target,
            epoch_every,
            epoch: 0,
        }
    }

    fn step(
        &mut self,
        kind: Step,
        at: NodeId,
        call: impl FnOnce(&mut ArrowCore, &mut Vec<CoreAction>),
    ) {
        let mut actions = std::mem::take(&mut self.scratch);
        if self.timed {
            let t0 = Instant::now();
            call(&mut self.cores[at], &mut actions);
            self.step_ns[kind as usize] += t0.elapsed().as_nanos();
        } else {
            call(&mut self.cores[at], &mut actions);
        }
        self.step_count[kind as usize] += 1;
        self.todo.extend(actions.drain(..).map(|a| (at, a)));
        self.scratch = actions;
    }

    fn acquire(&mut self, node: NodeId, obj: ObjectId) {
        self.issued += 1;
        self.step(Step::Acquire, node, |core, actions| {
            black_box(core.acquire(obj, actions));
        });
    }

    fn run(&mut self) {
        loop {
            while let Some((me, action)) = self.todo.pop_front() {
                match action {
                    CoreAction::SendQueue {
                        to,
                        obj,
                        req,
                        origin,
                        epoch,
                    } => self.wire.push_back(Msg::Queue {
                        from: me,
                        to,
                        obj,
                        req,
                        origin,
                        epoch,
                    }),
                    CoreAction::SendToken {
                        to,
                        obj,
                        req,
                        epoch,
                    } => self.wire.push_back(Msg::Token {
                        to,
                        obj,
                        req,
                        epoch,
                    }),
                    CoreAction::Granted { obj, req } => {
                        self.granted += 1;
                        self.wire.push_back(Msg::ClientTurn { node: me, obj, req });
                        if self
                            .epoch_every
                            .is_some_and(|n| self.granted.is_multiple_of(n))
                        {
                            self.epoch += 1;
                            for v in 0..self.cores.len() {
                                let epoch = self.epoch;
                                self.step(Step::OnEpoch, v, |core, actions| {
                                    core.on_epoch(epoch, actions)
                                });
                            }
                        }
                    }
                    CoreAction::Queued { .. } => {}
                }
            }
            match self.wire.pop_front() {
                Some(Msg::Queue {
                    from,
                    to,
                    obj,
                    req,
                    origin,
                    epoch,
                }) => self.step(Step::OnQueue, to, |core, actions| {
                    core.on_queue(from, obj, req, origin, epoch, actions)
                }),
                Some(Msg::Token {
                    to,
                    obj,
                    req,
                    epoch,
                }) => self.step(Step::OnToken, to, |core, actions| {
                    core.on_token(obj, req, epoch, actions)
                }),
                Some(Msg::ClientTurn { node, obj, req }) => {
                    self.step(Step::OnRelease, node, |core, actions| {
                        core.on_release(obj, req, actions)
                    });
                    if self.issued < self.target {
                        self.acquire(node, obj);
                    }
                }
                None => break,
            }
        }
    }
}

/// Replay `acquires` lock-step acquisitions by `clients` over in-memory cores.
/// With `epoch_every = Some(n)`, every node adopts a new epoch each `n` grants
/// (the churn workload's recovery path, without the faults).
///
/// Returns `None` if the replay granted fewer acquisitions than it issued —
/// which would be a protocol bug, not a measurement.
pub fn core_replay(
    tree: &RootedTree,
    objects: usize,
    clients: &[(NodeId, ObjectId)],
    acquires: u64,
    epoch_every: Option<u64>,
) -> Option<CoreCosts> {
    let run = |timed: bool| -> Option<(Replay, f64)> {
        let mut replay = Replay::new(tree, objects, timed, acquires, epoch_every);
        let t0 = Instant::now();
        for &(node, obj) in clients {
            if replay.issued < replay.target {
                replay.acquire(node, obj);
            }
        }
        replay.run();
        let elapsed = t0.elapsed().as_nanos() as f64;
        (replay.granted == replay.issued && replay.granted > 0).then_some((replay, elapsed))
    };
    let (untimed, total_ns) = run(false)?;
    let (timed, _) = run(true)?;
    let clock = clock_pair_ns();
    let mean = |k: Step| {
        let n = timed.step_count[k as usize];
        if n == 0 {
            0.0
        } else {
            (timed.step_ns[k as usize] as f64 / n as f64 - clock).max(0.0)
        }
    };
    let steps: u64 = untimed.step_count[..4].iter().sum();
    Some(CoreCosts {
        acquire_ns: mean(Step::Acquire),
        on_queue_ns: mean(Step::OnQueue),
        on_token_ns: mean(Step::OnToken),
        on_release_ns: mean(Step::OnRelease),
        on_epoch_ns: mean(Step::OnEpoch),
        steps_per_acq: steps as f64 / untimed.granted as f64,
        us_per_acq: total_ns / 1e3 / untimed.granted as f64,
    })
}

/// Codec cost per frame over a queue:token mix.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WireCosts {
    pub encode_ns_per_frame: f64,
    pub scan_ns_per_frame: f64,
    pub bytes_per_frame: f64,
}

/// Time `Frame::encode_into` and `Frame::scan` over 1024-frame batches with
/// `queue_frames : token_frames` as measured in the workload's window.
pub fn wire_costs(queue_frames: u64, token_frames: u64, nodes: usize, objects: usize) -> WireCosts {
    const BATCH: usize = 1024;
    const ROUNDS: usize = 400;
    let total = (queue_frames + token_frames).max(1);
    let queue_share = queue_frames as f64 / total as f64;
    let mut rng = SimRng::new(0x5eed);
    let frames: Vec<Frame> = (0..BATCH)
        .map(|i| {
            let obj = ObjectId(rng.index(objects.max(1)) as u32);
            let req = RequestId(((rng.index(nodes.max(1)) as u64) << 40) | (i as u64 * 977 + 1));
            // Spread the two kinds evenly instead of in two runs, so branch
            // history looks like a mixed stream.
            if ((i + 1) as f64 * queue_share).floor() > (i as f64 * queue_share).floor() {
                Frame::Proto(ProtoMsg::Queue {
                    req,
                    obj,
                    origin: rng.index(nodes.max(1)),
                    epoch: 3,
                })
            } else {
                Frame::Token { obj, req, epoch: 3 }
            }
        })
        .collect();
    let mut buf = Vec::with_capacity(BATCH * 40);
    let mut encode_ns = 0u128;
    let mut scan_ns = 0u128;
    for _ in 0..ROUNDS {
        buf.clear();
        let t0 = Instant::now();
        for f in &frames {
            black_box(f).encode_into(&mut buf);
        }
        encode_ns += t0.elapsed().as_nanos();
        let t0 = Instant::now();
        let mut at = 0;
        let mut seen = 0usize;
        while let Ok(Some((frame, used))) = Frame::scan(black_box(&buf[at..])) {
            black_box(frame);
            at += used;
            seen += 1;
        }
        scan_ns += t0.elapsed().as_nanos();
        assert_eq!(seen, BATCH, "every encoded frame scans back out");
    }
    let n = (BATCH * ROUNDS) as f64;
    WireCosts {
        encode_ns_per_frame: encode_ns as f64 / n,
        scan_ns_per_frame: scan_ns as f64 / n,
        bytes_per_frame: buf.len() as f64 / BATCH as f64,
    }
}

/// `(inc_ns, observe_ns)`: one counter bump and one histogram observation on
/// the shared metrics registry.
pub fn registry_costs() -> (f64, f64) {
    const N: u64 = 2_000_000;
    let registry = MetricsRegistry::new();
    let t0 = Instant::now();
    for _ in 0..N {
        black_box(&registry).inc(Metric::QueueFrames);
    }
    let inc = t0.elapsed().as_nanos() as f64 / N as f64;
    let t0 = Instant::now();
    for i in 0..N {
        black_box(&registry).observe(HistMetric::AcquireNanos, 300_000 + (i & 0xffff));
    }
    let observe = t0.elapsed().as_nanos() as f64 / N as f64;
    assert_eq!(registry.get(Metric::QueueFrames), N);
    (inc, observe)
}

/// A process that forwards a hop counter around the ring: the cheapest
/// possible automaton, so `Simulator::run` time is engine time.
struct Relay {
    n: usize,
}

impl Process<u32> for Relay {
    fn on_message(&mut self, ctx: &mut Context<u32>, _from: NodeId, hops: u32) {
        if hops > 0 {
            ctx.send((ctx.node() + 1) % self.n, hops - 1);
        }
    }
}

/// Nanoseconds per event of the desim engine pushing `events` events through
/// `nodes` relay processes, `chains` messages in flight at a time.
pub fn desim_engine_ns_per_event(nodes: usize, chains: usize, events: u64) -> f64 {
    const ROUNDS: usize = 20;
    let chains = chains.max(1);
    let hops = (events / chains as u64).max(1) as u32;
    let mut total_ns = 0u128;
    let mut total_events = 0u64;
    for _ in 0..ROUNDS {
        let procs = (0..nodes).map(|_| Relay { n: nodes }).collect();
        let mut sim = Simulator::new(procs, SimConfig::synchronous());
        for c in 0..chains {
            sim.schedule_external(SimTime::ZERO, c % nodes, hops - 1);
        }
        let t0 = Instant::now();
        let outcome = sim.run();
        total_ns += t0.elapsed().as_nanos();
        total_events += outcome.events;
    }
    total_ns as f64 / total_events.max(1) as f64
}

/// Nanoseconds per hold operation (`pop` the earliest event, `schedule` a new
/// one a random delay later) of the event queue at a standing depth.
pub fn desim_queue_ns_per_op(depth: usize) -> f64 {
    const OPS: u64 = 2_000_000;
    let mut rng = SimRng::new(0xde51);
    let mut queue: EventQueue<u32> = EventQueue::new();
    for i in 0..depth.max(1) {
        queue.schedule(
            SimTime::from_subticks(rng.uniform_u64(0, 4_000_000)),
            EventKind::Timer { node: i, tag: 0 },
        );
    }
    let delays: Vec<u64> = (0..4096).map(|_| rng.uniform_u64(1, 4_000_000)).collect();
    let t0 = Instant::now();
    for i in 0..OPS {
        let ev = queue.pop().expect("standing depth is never drained");
        queue.schedule(
            SimTime::from_subticks(ev.time.subticks() + delays[(i & 4095) as usize]),
            ev.kind,
        );
    }
    let ns = t0.elapsed().as_nanos() as f64 / OPS as f64;
    black_box(queue.len());
    ns
}

/// The successor records behind a validated outcome, in per-object order.
fn records_of(outcome: &QueuingOutcome) -> Vec<OrderRecord> {
    outcome
        .orders
        .iter()
        .flat_map(|(_, order)| {
            order
                .order()
                .iter()
                .filter_map(|&req| order.record_for(req).copied())
        })
        .collect()
}

/// Nanoseconds per request of assembling and validating the per-object orders
/// of one run's records (`outcome_from_records`).
pub fn order_assemble_ns_per_request(outcome: &QueuingOutcome) -> f64 {
    const ROUNDS: usize = 10;
    let records = records_of(outcome);
    let issued = outcome.schedule.requests().to_vec();
    let mut total_ns = 0u128;
    for _ in 0..ROUNDS {
        let (issued, records) = (issued.clone(), records.clone());
        let t0 = Instant::now();
        let rebuilt = outcome_from_records(
            ProtocolKind::Arrow,
            issued,
            records,
            outcome.protocol_messages,
            outcome.total_messages,
            SimTime::ZERO,
        );
        total_ns += t0.elapsed().as_nanos();
        assert!(
            rebuilt.is_ok_and(|o| o.request_count() == outcome.request_count()),
            "a validated outcome's records re-validate"
        );
    }
    total_ns as f64 / (ROUNDS * outcome.request_count().max(1)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::generators;

    fn tree(n: usize) -> RootedTree {
        RootedTree::from_tree_graph(&generators::balanced_binary_tree(n), 0)
    }

    #[test]
    fn core_replay_grants_everything_and_crosses_the_tree() {
        let clients: Vec<(NodeId, ObjectId)> =
            [9, 12, 14].iter().map(|&v| (v, ObjectId(0))).collect();
        let costs = core_replay(&tree(15), 1, &clients, 600, None).expect("replay completes");
        // Distinct leaves: every acquire sends at least one queue frame and one
        // token, so at least acquire + on_queue + on_token + on_release.
        assert!(costs.steps_per_acq >= 4.0, "{costs:?}");
        assert!(costs.us_per_acq > 0.0);
        assert_eq!(costs.on_epoch_ns, 0.0);
    }

    #[test]
    fn core_replay_survives_epoch_bumps() {
        let clients: Vec<(NodeId, ObjectId)> = (0..4)
            .flat_map(|o| {
                [
                    (8 + o, ObjectId(o as u32)),
                    (12 + o % 3, ObjectId(o as u32)),
                ]
            })
            .collect();
        let costs = core_replay(&tree(15), 4, &clients, 800, Some(100)).expect("replay completes");
        assert!(costs.steps_per_acq >= 3.0, "{costs:?}");
    }

    #[test]
    fn wire_costs_follow_the_mix() {
        let w = wire_costs(6, 1, 64, 1);
        assert!(w.bytes_per_frame > 8.0 && w.bytes_per_frame < 64.0, "{w:?}");
        assert!(w.encode_ns_per_frame > 0.0 && w.scan_ns_per_frame > 0.0);
        // All-token and all-queue mixes encode to different sizes.
        assert_ne!(
            wire_costs(1, 0, 64, 1).bytes_per_frame,
            wire_costs(0, 1, 64, 1).bytes_per_frame
        );
    }

    #[test]
    fn desim_loops_run() {
        assert!(desim_engine_ns_per_event(16, 8, 2_000) > 0.0);
        assert!(desim_queue_ns_per_op(64) > 0.0);
        assert!(registry_costs().0 > 0.0);
    }
}
