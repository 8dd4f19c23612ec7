//! The simulation driver: owns the nodes, the event queue, the links and the clock,
//! and runs the event loop until quiescence (or a configured limit).

use crate::event::{EventKind, EventQueue};
use crate::link::{LatencyModel, LinkState};
use crate::node::{Context, NodeId, Outgoing, Process};
use crate::rng::SimRng;
use crate::stats::SimStats;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// How a node orders messages that arrive at the very same instant.
///
/// The paper (Section 3.1) notes that its analysis holds irrespective of the order in
/// which simultaneously arriving `queue()` messages are processed locally. The
/// simulator therefore supports both a deterministic FIFO order and a seeded-random
/// order, so experiments can confirm the claim empirically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LocalOrder {
    /// Simultaneous arrivals are processed in the order the sends were issued.
    Fifo,
    /// Simultaneous arrivals are processed in a pseudo-random order (implemented by a
    /// sub-micro-unit scheduling jitter; it never reorders messages on the same link).
    Random,
}

/// Configuration of a simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Link latency model.
    pub latency: LatencyModel,
    /// PRNG seed (controls random latencies, jitter and anything a process derives
    /// from the RNG the harness hands it).
    pub seed: u64,
    /// Local processing order of simultaneous arrivals.
    pub local_order: LocalOrder,
    /// Safety valve: abort after this many events (None = unlimited).
    pub max_events: Option<u64>,
    /// Safety valve: abort once virtual time exceeds this (None = unlimited).
    pub max_time: Option<SimTime>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            latency: LatencyModel::Unit,
            seed: 0,
            local_order: LocalOrder::Fifo,
            max_events: None,
            max_time: None,
        }
    }
}

impl SimConfig {
    /// Default lower bound (in time units) on asynchronous message latencies. The
    /// paper only requires latencies in `(0, 1]`; the positive floor keeps event
    /// counts finite in closed-loop experiments.
    pub const DEFAULT_ASYNC_LO: f64 = 0.05;

    /// The synchronous model of Section 3.1: unit latency, deterministic order.
    pub fn synchronous() -> Self {
        SimConfig::default()
    }

    /// The asynchronous model of Section 3.8: uniformly random latencies in
    /// `[lo, 1.0]` with `lo = `[`SimConfig::DEFAULT_ASYNC_LO`], random local
    /// processing order. Use [`SimConfig::asynchronous_with_floor`] to pick a
    /// different lower bound.
    pub fn asynchronous(seed: u64) -> Self {
        SimConfig::asynchronous_with_floor(seed, SimConfig::DEFAULT_ASYNC_LO)
    }

    /// The asynchronous model with an explicit lower latency bound: uniformly random
    /// latencies in `[lo, 1.0]` (clamped to `(0, 1]`), random local processing order.
    pub fn asynchronous_with_floor(seed: u64, lo: f64) -> Self {
        SimConfig {
            latency: LatencyModel::Uniform {
                lo: lo.clamp(f64::EPSILON, 1.0),
                hi: 1.0,
            },
            seed,
            local_order: LocalOrder::Random,
            max_events: None,
            max_time: None,
        }
    }
}

/// A scheduled fault, applied at a virtual time during the run (see
/// [`Simulator::schedule_fault`]).
///
/// Faults model churn at the network substrate level: a **crashed** node has its
/// inbox and outbox silenced — deliveries, external inputs and timer firings
/// addressed to it are dropped (counted in [`SimStats::messages_dropped`] /
/// [`SimStats::silenced_inputs`]) until a matching [`SimFault::Restart`] — and a
/// **blocked** link `{u, v}` drops every message that would be delivered over it,
/// in either direction, until unblocked. The simulator does not touch process
/// state: what a restarted node remembers (or forgets) is protocol business, which
/// is exactly where the arrow recovery layer hooks in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimFault {
    /// Silence `node`'s inbox and outbox from the fault time on.
    Crash(NodeId),
    /// Lift a previous [`SimFault::Crash`] of `node`.
    Restart(NodeId),
    /// Drop every delivery over the undirected link `{u, v}`.
    BlockLink(NodeId, NodeId),
    /// Lift a previous [`SimFault::BlockLink`] of `{u, v}`.
    UnblockLink(NodeId, NodeId),
}

/// Why the run loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopReason {
    /// The event queue drained — the system is quiescent.
    Quiescent,
    /// The configured `max_events` limit was hit.
    EventLimit,
    /// The configured `max_time` limit was hit.
    TimeLimit,
}

/// Summary of a completed run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Why the loop stopped.
    pub stop: StopReason,
    /// Number of events processed.
    pub events: u64,
    /// Virtual time of the last processed event.
    pub final_time: SimTime,
}

/// How the simulator times a link send, fixed when the run starts (link weights
/// cannot change after that).
///
/// Under a deterministic model with FIFO local order a link's latency never
/// changes and the clock never goes back, so deliveries on one directed link are
/// already in send order: only random latencies or jitter need the FIFO floor.
#[derive(Debug, Clone, Copy)]
enum LinkTiming {
    /// Every link takes this latency: a send is one addition.
    Shared(SimDuration),
    /// Each link takes its own fixed latency ([`LatencyModel::EdgeWeight`] with
    /// mixed weights): one search of the sender's row, no floor.
    PerLink,
    /// Random latencies or random local order: sample, jitter and FIFO floor
    /// ([`LinkState::delivery_time`]).
    Floored,
}

/// The discrete-event simulator.
///
/// Generic over the message type `M` and the per-node process type `P`. Heterogeneous
/// networks can use `Box<dyn Process<M>>` for `P`.
pub struct Simulator<M, P: Process<M>> {
    nodes: Vec<P>,
    queue: EventQueue<M>,
    links: LinkState,
    rng: SimRng,
    config: SimConfig,
    now: SimTime,
    started: bool,
    stats: SimStats,
    events_processed: u64,
    /// Scheduled faults, sorted by time once the run starts; `next_fault` indexes
    /// the first not-yet-applied entry.
    faults: Vec<(SimTime, SimFault)>,
    next_fault: usize,
    /// Per-node crash flags (inbox/outbox silenced while set).
    crashed: Vec<bool>,
    /// Blocked undirected links, stored once each as a `(min, max)` node pair.
    /// Empty unless a fault blocked one, and only then does a delivery probe it.
    blocked: Vec<(NodeId, NodeId)>,
    /// How link sends are timed; set when the run starts.
    timing: LinkTiming,
    /// The handler context: every handler runs on it in place, re-pointed at its
    /// node and cleared (capacity kept) first, so the steady state of the event
    /// loop allocates nothing per event.
    scratch: Context<M>,
}

impl<M, P: Process<M>> Simulator<M, P> {
    /// Create a simulator over the given per-node processes.
    pub fn new(nodes: Vec<P>, config: SimConfig) -> Self {
        let n = nodes.len();
        Simulator {
            nodes,
            queue: EventQueue::new(),
            links: LinkState::new(),
            rng: SimRng::new(config.seed),
            config,
            now: SimTime::ZERO,
            started: false,
            stats: SimStats::default(),
            events_processed: 0,
            faults: Vec::new(),
            next_fault: 0,
            crashed: vec![false; n],
            blocked: Vec::new(),
            timing: LinkTiming::Floored,
            scratch: Context::new(0, SimTime::ZERO),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Set the weight (latency in units under weighted models) of link `{u, v}`.
    ///
    /// # Panics
    /// If the run has already started: link sends are timed on the assumption
    /// that weights stay fixed for the whole run.
    pub fn set_link_weight(&mut self, u: NodeId, v: NodeId, weight: f64) {
        assert!(
            !self.started,
            "link weights must be set before the run starts"
        );
        self.links.set_weight(u, v, weight);
    }

    /// Schedule an external input for `node` at absolute virtual time `time`.
    pub fn schedule_external(&mut self, time: SimTime, node: NodeId, payload: M) {
        assert!(node < self.nodes.len(), "node {node} out of range");
        self.queue
            .schedule(time, EventKind::External { node, payload });
    }

    /// Schedule a [`SimFault`] at absolute virtual time `time`. Faults take effect
    /// just before the first event at or after `time` is processed, so a crash at
    /// `t` silences deliveries scheduled for `t` as well.
    ///
    /// # Panics
    /// If the run has already started (faults are sorted once, at start), or a
    /// fault names a node out of range.
    pub fn schedule_fault(&mut self, time: SimTime, fault: SimFault) {
        assert!(
            !self.started,
            "faults must be scheduled before the run starts"
        );
        let check = |v: NodeId| assert!(v < self.nodes.len(), "node {v} out of range");
        match fault {
            SimFault::Crash(v) | SimFault::Restart(v) => check(v),
            SimFault::BlockLink(u, v) | SimFault::UnblockLink(u, v) => {
                check(u);
                check(v);
            }
        }
        self.faults.push((time, fault));
    }

    /// True if `node` is currently crashed (silenced by an applied
    /// [`SimFault::Crash`] without a later restart). After [`Simulator::run`]
    /// returns, this reports whether the node survived the run.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed[node]
    }

    /// Apply every scheduled fault with fault time `<= now`.
    fn apply_due_faults(&mut self, now: SimTime) {
        while let Some(&(t, fault)) = self.faults.get(self.next_fault) {
            if t > now {
                break;
            }
            self.next_fault += 1;
            match fault {
                SimFault::Crash(v) => self.crashed[v] = true,
                SimFault::Restart(v) => self.crashed[v] = false,
                SimFault::BlockLink(u, v) => {
                    let link = (u.min(v), u.max(v));
                    if !self.blocked.contains(&link) {
                        self.blocked.push(link);
                    }
                }
                SimFault::UnblockLink(u, v) => {
                    let link = (u.min(v), u.max(v));
                    self.blocked.retain(|&l| l != link);
                }
            }
        }
    }

    /// Immutable access to a node's process (for post-run inspection).
    pub fn node(&self, id: NodeId) -> &P {
        &self.nodes[id]
    }

    /// Mutable access to a node's process (for pre-run setup).
    pub fn node_mut(&mut self, id: NodeId) -> &mut P {
        &mut self.nodes[id]
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// How link sends are timed under this run's configuration and weights.
    fn link_timing(&self) -> LinkTiming {
        if self.config.local_order == LocalOrder::Random {
            return LinkTiming::Floored;
        }
        match self.config.latency {
            LatencyModel::Unit => LinkTiming::Shared(SimDuration::unit()),
            LatencyModel::Fixed { units } => LinkTiming::Shared(SimDuration::from_units_f64(units)),
            LatencyModel::EdgeWeight => self
                .links
                .uniform_latency()
                .map_or(LinkTiming::PerLink, LinkTiming::Shared),
            LatencyModel::Uniform { .. } | LatencyModel::ScaledUniform { .. } => {
                LinkTiming::Floored
            }
        }
    }

    /// Run one handler of `node` on the scratch context, then schedule what it
    /// buffered.
    fn dispatch(&mut self, node: NodeId, handler: impl FnOnce(&mut P, &mut Context<M>)) {
        self.scratch.reset(node, self.now);
        handler(&mut self.nodes[node], &mut self.scratch);
        self.apply_context(node);
    }

    /// Schedule the sends and timers `node`'s handler buffered in the scratch
    /// context.
    fn apply_context(&mut self, node: NodeId) {
        let Simulator {
            queue,
            links,
            rng,
            config,
            now,
            timing,
            scratch,
            ..
        } = self;
        let now = *now;
        for out in scratch.outbox.drain(..) {
            // Jitter is folded into the FIFO floor (the floored, jittered delivery is
            // what gets recorded), so random local processing order can never reorder
            // two messages on the same directed channel.
            let jitter = match config.local_order {
                LocalOrder::Fifo => SimDuration::ZERO,
                // Sub-micro-unit jitter: at most 1e-4 of a unit, enough to randomise
                // the processing order of simultaneous arrivals without measurably
                // changing latencies.
                LocalOrder::Random => SimDuration::from_subticks(rng.uniform_u64(0, 100)),
            };
            let (to, msg, delivery) = match out {
                Outgoing::Link { to, msg } => {
                    let delivery = match *timing {
                        LinkTiming::Shared(latency) => now + latency,
                        LinkTiming::PerLink => now + links.latency(node, to),
                        LinkTiming::Floored => {
                            links.delivery_time(node, to, now, &config.latency, rng, jitter)
                        }
                    };
                    (to, msg, delivery)
                }
                Outgoing::Direct { to, msg, latency } => {
                    let delivery = links.direct_delivery_time(node, to, now, latency, jitter);
                    (to, msg, delivery)
                }
            };
            queue.schedule(
                delivery,
                EventKind::Deliver {
                    from: node,
                    to,
                    payload: msg,
                },
            );
        }
        for (delay, tag) in scratch.timers.drain(..) {
            queue.schedule(now + delay, EventKind::Timer { node, tag });
        }
    }

    fn start_nodes(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        self.timing = self.link_timing();
        self.faults.sort_by_key(|&(t, _)| t);
        for i in 0..self.nodes.len() {
            self.dispatch(i, |p, ctx| p.on_start(ctx));
        }
    }

    /// Process a single event. Returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        self.start_nodes();
        let Some(event) = self.queue.pop() else {
            return false;
        };
        self.now = self.now.max(event.time);
        self.apply_due_faults(self.now);
        self.events_processed += 1;
        match event.kind {
            EventKind::Deliver { from, to, payload } => {
                if self.crashed[to]
                    || (!self.blocked.is_empty()
                        && self.blocked.contains(&(from.min(to), from.max(to))))
                {
                    // The receiver is crashed or the link is severed: the message
                    // is lost in flight. Recovery is the protocol's business.
                    self.stats.messages_dropped += 1;
                    return true;
                }
                self.stats.messages_delivered += 1;
                self.dispatch(to, |p, ctx| p.on_message(ctx, from, payload));
            }
            EventKind::External { node, payload } => {
                if self.crashed[node] {
                    self.stats.silenced_inputs += 1;
                    return true;
                }
                self.stats.external_inputs += 1;
                self.dispatch(node, |p, ctx| p.on_external(ctx, payload));
            }
            EventKind::Timer { node, tag } => {
                if self.crashed[node] {
                    self.stats.silenced_inputs += 1;
                    return true;
                }
                self.stats.timer_firings += 1;
                self.dispatch(node, |p, ctx| p.on_timer(ctx, tag));
            }
        }
        true
    }

    /// Run until quiescence or a configured limit; returns a summary.
    pub fn run(&mut self) -> RunOutcome {
        self.start_nodes();
        loop {
            if let Some(limit) = self.config.max_events {
                if self.events_processed >= limit {
                    return RunOutcome {
                        stop: StopReason::EventLimit,
                        events: self.events_processed,
                        final_time: self.now,
                    };
                }
            }
            if let Some(limit) = self.config.max_time {
                if self.queue.peek_time().is_some_and(|next| next > limit) {
                    return RunOutcome {
                        stop: StopReason::TimeLimit,
                        events: self.events_processed,
                        final_time: self.now,
                    };
                }
            }
            if !self.step() {
                return RunOutcome {
                    stop: StopReason::Quiescent,
                    events: self.events_processed,
                    final_time: self.now,
                };
            }
        }
    }
}

impl<M> Process<M> for Box<dyn Process<M>> {
    fn on_start(&mut self, ctx: &mut Context<M>) {
        (**self).on_start(ctx)
    }
    fn on_message(&mut self, ctx: &mut Context<M>, from: NodeId, msg: M) {
        (**self).on_message(ctx, from, msg)
    }
    fn on_external(&mut self, ctx: &mut Context<M>, input: M) {
        (**self).on_external(ctx, input)
    }
    fn on_timer(&mut self, ctx: &mut Context<M>, tag: u64) {
        (**self).on_timer(ctx, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A node that forwards a counter message to the next node until it reaches zero.
    #[derive(Debug)]
    struct Relay {
        n: usize,
        received: Vec<u32>,
    }

    impl Process<u32> for Relay {
        fn on_message(&mut self, ctx: &mut Context<u32>, _from: NodeId, msg: u32) {
            self.received.push(msg);
            if msg > 0 {
                let next = (ctx.node() + 1) % self.n;
                ctx.send(next, msg - 1);
            }
        }
    }

    fn ring(n: usize, config: SimConfig) -> Simulator<u32, Relay> {
        let nodes = (0..n)
            .map(|_| Relay {
                n,
                received: vec![],
            })
            .collect();
        Simulator::new(nodes, config)
    }

    #[test]
    fn message_relay_around_ring_takes_unit_latency_each_hop() {
        let mut sim = ring(5, SimConfig::synchronous());
        sim.schedule_external(SimTime::ZERO, 0, 10);
        let outcome = sim.run();
        assert_eq!(outcome.stop, StopReason::Quiescent);
        // 10 hops, each of unit latency.
        assert_eq!(outcome.final_time, SimTime::from_units(10));
        assert_eq!(sim.stats().messages_delivered, 10);
        assert_eq!(sim.stats().external_inputs, 1);
        // 10 hops from node 0 around a 5-ring end back at node 0, which heard the
        // counter at times 0 (the external), 5 and 10.
        assert_eq!(sim.node(0).received, vec![10, 5, 0]);
        assert_eq!(sim.node(4).received, vec![6, 1]);
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let run = |seed| {
            let mut sim = ring(7, SimConfig::asynchronous(seed));
            sim.schedule_external(SimTime::ZERO, 3, 25);
            let outcome = sim.run();
            let received: Vec<Vec<u32>> = (0..7).map(|v| sim.node(v).received.clone()).collect();
            (received, outcome.events, outcome.final_time)
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100));
    }

    #[test]
    fn event_limit_stops_the_run() {
        let mut cfg = SimConfig::synchronous();
        cfg.max_events = Some(3);
        let mut sim = ring(4, cfg);
        sim.schedule_external(SimTime::ZERO, 0, 1000);
        let outcome = sim.run();
        assert_eq!(outcome.stop, StopReason::EventLimit);
        assert_eq!(outcome.events, 3);
    }

    #[test]
    fn time_limit_stops_the_run() {
        let mut cfg = SimConfig::synchronous();
        cfg.max_time = Some(SimTime::from_units(5));
        let mut sim = ring(4, cfg);
        sim.schedule_external(SimTime::ZERO, 0, 1000);
        let outcome = sim.run();
        assert_eq!(outcome.stop, StopReason::TimeLimit);
        assert!(outcome.final_time <= SimTime::from_units(5));
    }

    #[test]
    fn weighted_links_change_latency() {
        let mut cfg = SimConfig::synchronous();
        cfg.latency = LatencyModel::EdgeWeight;
        let mut sim = ring(3, cfg);
        sim.set_link_weight(0, 1, 4.0);
        sim.set_link_weight(1, 2, 2.0);
        sim.schedule_external(SimTime::ZERO, 0, 2);
        let outcome = sim.run();
        // 0 -> 1 takes 4 units, 1 -> 2 takes 2 units.
        assert_eq!(outcome.final_time, SimTime::from_units(6));
    }

    #[test]
    fn async_latencies_never_exceed_one_unit_per_hop_plus_jitter() {
        let mut sim = ring(6, SimConfig::asynchronous(5));
        sim.schedule_external(SimTime::ZERO, 0, 30);
        let outcome = sim.run();
        // 30 hops at <= ~1 unit each.
        assert!(outcome.final_time <= SimTime::from_units(31));
        assert_eq!(sim.stats().messages_delivered, 30);
    }

    #[test]
    fn random_local_order_never_reorders_a_directed_link() {
        // Regression for the jitter-after-floor bug: jitter used to be added to the
        // delivery time *after* LinkState::delivery_time had applied (and recorded)
        // the FIFO floor, so two messages sent on the same directed link within 1e-4
        // units could be delivered out of order. The fix folds jitter into the floor.
        struct Burst {
            received: Vec<u32>,
        }
        impl Process<u32> for Burst {
            fn on_external(&mut self, ctx: &mut Context<u32>, count: u32) {
                // Send `count` messages to node 1 in a single instant on one link.
                for i in 0..count {
                    ctx.send(1, i);
                }
            }
            fn on_message(&mut self, _ctx: &mut Context<u32>, _from: NodeId, msg: u32) {
                self.received.push(msg);
            }
        }
        for seed in 0..40 {
            let nodes = (0..2).map(|_| Burst { received: vec![] }).collect();
            let mut sim = Simulator::new(nodes, SimConfig::asynchronous(seed));
            sim.schedule_external(SimTime::ZERO, 0, 30);
            sim.run();
            let received = &sim.node(1).received;
            assert_eq!(received.len(), 30);
            assert!(
                received.windows(2).all(|w| w[0] < w[1]),
                "seed {seed}: FIFO link reordered under random local order: {received:?}"
            );
        }
    }

    #[test]
    fn asynchronous_floor_is_configurable() {
        let cfg = SimConfig::asynchronous_with_floor(1, 0.5);
        match cfg.latency {
            LatencyModel::Uniform { lo, hi } => {
                assert_eq!(lo, 0.5);
                assert_eq!(hi, 1.0);
            }
            other => panic!("unexpected latency model {other:?}"),
        }
        // The default keeps the documented 0.05 floor.
        match SimConfig::asynchronous(1).latency {
            LatencyModel::Uniform { lo, .. } => assert_eq!(lo, SimConfig::DEFAULT_ASYNC_LO),
            other => panic!("unexpected latency model {other:?}"),
        }
    }

    #[test]
    fn direct_sends_take_the_requested_latency() {
        struct Direct {
            got: Vec<(u32, SimTime)>,
        }
        impl Process<u32> for Direct {
            fn on_external(&mut self, ctx: &mut Context<u32>, _input: u32) {
                ctx.send_direct(1, 7, SimDuration::from_units(5));
            }
            fn on_message(&mut self, ctx: &mut Context<u32>, _from: NodeId, msg: u32) {
                self.got.push((msg, ctx.now()));
            }
        }
        let nodes = (0..2).map(|_| Direct { got: vec![] }).collect();
        let mut sim = Simulator::new(nodes, SimConfig::synchronous());
        sim.schedule_external(SimTime::ZERO, 0, 0);
        let outcome = sim.run();
        // One direct hop of 5 units, regardless of the unit link model.
        assert_eq!(outcome.final_time, SimTime::from_units(5));
        assert_eq!(sim.node(1).got, vec![(7, SimTime::from_units(5))]);
        assert_eq!(sim.stats().messages_delivered, 1);
    }

    #[test]
    fn boxed_processes_work() {
        struct Sink {
            got: u32,
        }
        impl Process<u32> for Sink {
            fn on_message(&mut self, _ctx: &mut Context<u32>, _from: NodeId, msg: u32) {
                self.got += msg;
            }
        }
        let nodes: Vec<Box<dyn Process<u32>>> =
            vec![Box::new(Sink { got: 0 }), Box::new(Sink { got: 0 })];
        let mut sim = Simulator::new(nodes, SimConfig::synchronous());
        sim.schedule_external(SimTime::ZERO, 1, 5);
        sim.run();
        assert_eq!(sim.stats().external_inputs, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn scheduling_for_missing_node_panics() {
        let mut sim = ring(2, SimConfig::synchronous());
        sim.schedule_external(SimTime::ZERO, 5, 1);
    }

    #[test]
    fn crashed_node_drops_deliveries_externals_and_timers() {
        /// Logs every timer tag and message it handles.
        struct Ticker {
            handled: Vec<u64>,
        }
        impl Process<u32> for Ticker {
            fn on_external(&mut self, ctx: &mut Context<u32>, _input: u32) {
                ctx.set_timer(SimDuration::from_units(2), 1);
                ctx.send(1, 7);
            }
            fn on_timer(&mut self, _ctx: &mut Context<u32>, tag: u64) {
                self.handled.push(tag);
            }
            fn on_message(&mut self, _ctx: &mut Context<u32>, _from: NodeId, msg: u32) {
                self.handled.push(msg as u64);
            }
        }
        let nodes = (0..2).map(|_| Ticker { handled: vec![] }).collect();
        let mut sim = Simulator::new(nodes, SimConfig::synchronous());
        sim.schedule_external(SimTime::ZERO, 0, 0);
        // A second external for node 0 after the crash, and the crash itself at t=1:
        // the pending timer (t=2), the in-flight delivery to node 1 (crashed below),
        // and the later external are all dropped.
        sim.schedule_external(SimTime::from_units(3), 0, 0);
        sim.schedule_fault(SimTime::from_units(1), SimFault::Crash(0));
        sim.schedule_fault(SimTime::from_units(0), SimFault::Crash(1));
        let outcome = sim.run();
        assert_eq!(outcome.stop, StopReason::Quiescent);
        assert!(sim.node(0).handled.is_empty() && sim.node(1).handled.is_empty());
        assert_eq!(sim.stats().external_inputs, 1); // only the one before the crash
        assert_eq!(sim.stats().timer_firings, 0);
        assert_eq!(sim.stats().messages_delivered, 0);
        assert_eq!(sim.stats().messages_dropped, 1); // send to crashed node 1
        assert_eq!(sim.stats().silenced_inputs, 2); // node 0's timer + late external
        assert!(sim.is_crashed(0));
        assert!(sim.is_crashed(1));
    }

    #[test]
    fn restart_lifts_a_crash() {
        let mut sim = ring(3, SimConfig::synchronous());
        // Crash node 1 before the relay reaches it, restart it later, then issue a
        // second relay that passes through it cleanly.
        sim.schedule_fault(SimTime::ZERO, SimFault::Crash(1));
        sim.schedule_fault(SimTime::from_units(5), SimFault::Restart(1));
        sim.schedule_external(SimTime::ZERO, 0, 2);
        sim.schedule_external(SimTime::from_units(10), 0, 2);
        let outcome = sim.run();
        assert_eq!(outcome.stop, StopReason::Quiescent);
        // First relay dies at node 1; second one completes 0 -> 1 -> 2.
        assert_eq!(sim.stats().messages_dropped, 1);
        assert_eq!(sim.node(1).received, vec![1]);
        assert_eq!(sim.node(2).received, vec![0]);
        assert!(!sim.is_crashed(1));
    }

    #[test]
    #[should_panic(expected = "before the run starts")]
    fn setting_a_link_weight_after_the_run_starts_panics() {
        let mut sim = ring(3, SimConfig::synchronous());
        sim.schedule_external(SimTime::ZERO, 0, 2);
        sim.step();
        sim.set_link_weight(0, 1, 2.0);
    }

    /// One receipt: `(time, from, to, walker state)`.
    type Receipt = (SimTime, NodeId, NodeId, u64);

    /// A random walk over tree edges: each message carries `(hops left, state)`,
    /// and the state (an LCG) picks the next edge, so the walk is a function of
    /// the message alone. An external input starts two walks at once, often on
    /// the same link.
    struct Walker {
        neighbours: Vec<NodeId>,
        log: std::rc::Rc<std::cell::RefCell<Vec<Receipt>>>,
    }

    impl Walker {
        fn step(&self, ctx: &mut Context<(u32, u64)>, hops: u32, state: u64) {
            let next = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let to = self.neighbours[(next >> 33) as usize % self.neighbours.len()];
            ctx.send(to, (hops - 1, next));
        }
    }

    impl Process<(u32, u64)> for Walker {
        fn on_message(&mut self, ctx: &mut Context<(u32, u64)>, from: NodeId, msg: (u32, u64)) {
            let (hops, state) = msg;
            self.log
                .borrow_mut()
                .push((ctx.now(), from, ctx.node(), state));
            if hops > 0 {
                self.step(ctx, hops, state);
            }
        }

        fn on_external(&mut self, ctx: &mut Context<(u32, u64)>, msg: (u32, u64)) {
            let (hops, state) = msg;
            self.step(ctx, hops, state);
            self.step(ctx, hops, state ^ 0x9e37_79b9);
        }
    }

    /// The floor-based link timing every model took before the deterministic
    /// ones skipped the floor: sample the latency from the weight, then never
    /// deliver before the link's previous delivery.
    #[derive(Default)]
    struct FlooredLinks {
        weights: std::collections::BTreeMap<(NodeId, NodeId), f64>,
        floors: std::collections::BTreeMap<(NodeId, NodeId), SimTime>,
    }

    impl FlooredLinks {
        fn delivery_time(
            &mut self,
            from: NodeId,
            to: NodeId,
            now: SimTime,
            model: &LatencyModel,
            rng: &mut SimRng,
        ) -> SimTime {
            let weight = *self.weights.get(&(from, to)).unwrap_or(&1.0);
            let floor = self.floors.entry((from, to)).or_insert(SimTime::ZERO);
            let delivery = (now + model.sample(weight, rng)).max(*floor);
            *floor = delivery;
            delivery
        }
    }

    #[test]
    fn deterministic_link_timing_matches_the_floored_reference() {
        const NODES: usize = 12;
        /// Draws one edge's weight.
        type Weights = fn(&mut SimRng) -> f64;
        // (case, model, whether one latency serves every link, edge weights)
        let cases: [(&str, LatencyModel, bool, Weights); 5] = [
            ("mixed weights", LatencyModel::EdgeWeight, false, |rng| {
                [0.5, 1.0, 1.5, 2.25, 3.0][rng.index(5)]
            }),
            ("all weights 1", LatencyModel::EdgeWeight, true, |_| 1.0),
            // Unset links still take one unit, so equal weights of 2 are per link.
            ("all weights 2", LatencyModel::EdgeWeight, false, |_| 2.0),
            ("unit", LatencyModel::Unit, true, |rng| {
                rng.uniform(0.5, 4.0)
            }),
            ("fixed", LatencyModel::Fixed { units: 0.75 }, true, |rng| {
                rng.uniform(0.5, 4.0)
            }),
        ];
        for (name, model, shared, weight_of) in cases {
            for seed in 0..20 {
                let mut rng = SimRng::new(seed);
                let mut neighbours = vec![Vec::new(); NODES];
                let mut edges = Vec::new();
                for v in 1..NODES {
                    let p = rng.index(v);
                    neighbours[v].push(p);
                    neighbours[p].push(v);
                    edges.push((v, p, weight_of(&mut rng)));
                }
                let externals: Vec<(SimTime, NodeId, (u32, u64))> = (0..40)
                    .map(|_| {
                        let at = SimTime::from_subticks(rng.uniform_u64(0, 8) * 250_000);
                        let hops = rng.uniform_u64(1, 30) as u32;
                        (at, rng.index(NODES), (hops, rng.uniform_u64(0, u64::MAX)))
                    })
                    .collect();
                let walkers = || {
                    let log = std::rc::Rc::default();
                    let nodes: Vec<Walker> = (0..NODES)
                        .map(|v| Walker {
                            neighbours: neighbours[v].clone(),
                            log: std::rc::Rc::clone(&log),
                        })
                        .collect();
                    (nodes, log)
                };

                let (nodes, got) = walkers();
                let mut config = SimConfig::synchronous();
                config.latency = model.clone();
                let mut sim = Simulator::new(nodes, config);
                for &(u, v, w) in &edges {
                    sim.set_link_weight(u, v, w);
                }
                for &(at, node, msg) in &externals {
                    sim.schedule_external(at, node, msg);
                }
                sim.run();
                let timing = match sim.timing {
                    LinkTiming::Shared(_) => true,
                    LinkTiming::PerLink => false,
                    LinkTiming::Floored => panic!("{name}: a deterministic model took the floor"),
                };
                assert_eq!(timing, shared, "{name}: timed as {:?}", sim.timing);

                // The reference: the same walkers, driven by a bare event loop
                // whose link sends all take the floor.
                let (mut nodes, want) = walkers();
                let mut links = FlooredLinks::default();
                for &(u, v, w) in &edges {
                    links.weights.insert((u, v), w);
                    links.weights.insert((v, u), w);
                }
                let mut queue = EventQueue::new();
                for &(at, node, payload) in &externals {
                    queue.schedule(at, EventKind::External { node, payload });
                }
                let mut latency_rng = SimRng::new(0);
                let mut now = SimTime::ZERO;
                while let Some(event) = queue.pop() {
                    now = now.max(event.time);
                    let (node, mut ctx) = match event.kind {
                        EventKind::Deliver { from, to, payload } => {
                            let mut ctx = Context::new(to, now);
                            nodes[to].on_message(&mut ctx, from, payload);
                            (to, ctx)
                        }
                        EventKind::External { node, payload } => {
                            let mut ctx = Context::new(node, now);
                            nodes[node].on_external(&mut ctx, payload);
                            (node, ctx)
                        }
                        EventKind::Timer { .. } => unreachable!("walkers set no timers"),
                    };
                    for out in ctx.outbox.drain(..) {
                        let Outgoing::Link { to, msg } = out else {
                            unreachable!("walkers send over links only")
                        };
                        let at = links.delivery_time(node, to, now, &model, &mut latency_rng);
                        queue.schedule(
                            at,
                            EventKind::Deliver {
                                from: node,
                                to,
                                payload: msg,
                            },
                        );
                    }
                }
                assert!(!want.borrow().is_empty());
                assert_eq!(*got.borrow(), *want.borrow(), "{name}, seed {seed}");
            }
        }
    }

    #[test]
    fn blocked_link_drops_both_directions_until_unblocked() {
        let mut sim = ring(2, SimConfig::synchronous());
        // Block {0,1}, relay 1 -> 0 is dropped; unblock, relay passes.
        sim.schedule_fault(SimTime::ZERO, SimFault::BlockLink(0, 1));
        sim.schedule_fault(SimTime::from_units(5), SimFault::UnblockLink(1, 0));
        sim.schedule_external(SimTime::ZERO, 1, 1);
        sim.schedule_external(SimTime::ZERO, 0, 1);
        sim.schedule_external(SimTime::from_units(6), 0, 1);
        let outcome = sim.run();
        assert_eq!(outcome.stop, StopReason::Quiescent);
        // The first two relays (one per direction) are dropped at the blocked link;
        // the third makes its single hop.
        assert_eq!(sim.stats().messages_dropped, 2);
        assert_eq!(sim.stats().messages_delivered, 1);
    }
}
