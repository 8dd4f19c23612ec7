//! Process (node) abstraction and the context handed to processes.
//!
//! A simulated distributed algorithm is a collection of [`Process`] implementations,
//! one per node. The simulator calls into a process when a message, external input or
//! timer arrives; the process reacts by sending messages / setting timers through the
//! [`Context`]. Processes never see global state — exactly like a real message-passing
//! algorithm.

use crate::time::{SimDuration, SimTime};

/// Identifier of a node in the simulated network (index into the node vector).
pub type NodeId = usize;

/// One buffered outgoing message: either a normal link send (latency sampled from the
/// simulator's latency model) or a direct send with an explicit latency (used for
/// out-of-band traffic such as acknowledgements routed over graph shortest paths).
#[derive(Debug, PartialEq)]
pub(crate) enum Outgoing<M> {
    /// Deliver over the link `(sender, to)` using the configured latency model.
    Link {
        /// Destination node.
        to: NodeId,
        /// Payload.
        msg: M,
    },
    /// Deliver after exactly `latency` (plus local-order jitter), bypassing the link
    /// latency model. Direct sends form their own FIFO channel per directed pair.
    Direct {
        /// Destination node.
        to: NodeId,
        /// Payload.
        msg: M,
        /// Explicit one-way latency.
        latency: SimDuration,
    },
}

/// Outgoing actions a process can request during a single handler invocation.
///
/// The context buffers them; the simulator applies them (samples latencies, schedules
/// events) after the handler returns. This keeps handler code pure
/// with respect to the event queue and keeps borrow-checking simple.
#[derive(Debug)]
pub struct Context<M> {
    node: NodeId,
    now: SimTime,
    /// Messages to send.
    pub(crate) outbox: Vec<Outgoing<M>>,
    /// Timers to set: (delay, tag).
    pub(crate) timers: Vec<(SimDuration, u64)>,
}

impl<M> Context<M> {
    /// Create a free-standing context (useful for unit-testing [`Process`]
    /// implementations outside a full simulation).
    pub fn new(node: NodeId, now: SimTime) -> Self {
        Context {
            node,
            now,
            outbox: Vec::new(),
            timers: Vec::new(),
        }
    }

    /// Re-point this context at a new handler invocation, clearing the buffered
    /// actions but keeping their allocated capacity. Used by the simulator to reuse
    /// one scratch context for every event instead of allocating two `Vec`s per
    /// handler call.
    pub(crate) fn reset(&mut self, node: NodeId, now: SimTime) {
        self.node = node;
        self.now = now;
        self.outbox.clear();
        self.timers.clear();
    }

    /// The node this handler is running on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Send `msg` to `to`. Delivery time is determined by the simulator's latency model.
    ///
    /// Sending to `self.node()` is allowed and is delivered like any other message
    /// (useful for testing), but distributed algorithms normally act locally instead.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.push(Outgoing::Link { to, msg });
    }

    /// Send `msg` to `to` with an explicit one-way `latency`, bypassing the link
    /// latency model. Intended for out-of-band traffic whose cost is defined by a
    /// metric rather than by a single link — e.g. acknowledgements that travel over
    /// the graph's shortest path, paying `d_G(from, to)` regardless of whether the
    /// pair happens to share a (possibly heavier) tree edge. Direct sends are FIFO
    /// among themselves per directed pair but do not interact with the FIFO floor of
    /// normal link traffic.
    pub fn send_direct(&mut self, to: NodeId, msg: M, latency: SimDuration) {
        self.outbox.push(Outgoing::Direct { to, msg, latency });
    }

    /// Set a timer that fires after `delay` with the given user tag.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        self.timers.push((delay, tag));
    }
}

/// A node's protocol automaton.
///
/// All handlers execute atomically with respect to simulated time: the paper's model
/// allows a node to process up to `deg(v)` messages per time step and treats local
/// processing as free (Section 3.1), which a discrete-event simulator models naturally
/// by making handlers take zero virtual time.
pub trait Process<M> {
    /// Called once at simulation start (time 0), before any message is delivered.
    fn on_start(&mut self, _ctx: &mut Context<M>) {}

    /// Called when a message from `from` is delivered to this node.
    fn on_message(&mut self, ctx: &mut Context<M>, from: NodeId, msg: M);

    /// Called when an external input (scheduled by the harness) arrives at this node.
    ///
    /// Defaults to treating the input like a message from the node itself.
    fn on_external(&mut self, ctx: &mut Context<M>, input: M) {
        let me = ctx.node();
        self.on_message(ctx, me, input);
    }

    /// Called when a timer with `tag` fires.
    fn on_timer(&mut self, _ctx: &mut Context<M>, _tag: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo {
        heard: Vec<(NodeId, u32)>,
    }

    impl Process<u32> for Echo {
        fn on_message(&mut self, ctx: &mut Context<u32>, from: NodeId, msg: u32) {
            self.heard.push((from, msg));
            ctx.send(from, msg + 1);
            ctx.set_timer(SimDuration::unit(), 7);
        }
    }

    #[test]
    fn context_buffers_actions() {
        let mut ctx = Context::new(3, SimTime::from_units(5));
        let mut p = Echo { heard: vec![] };
        p.on_message(&mut ctx, 1, 41);
        assert_eq!(ctx.node(), 3);
        assert_eq!(ctx.now(), SimTime::from_units(5));
        assert_eq!(ctx.outbox, vec![Outgoing::Link { to: 1, msg: 42 }]);
        assert_eq!(ctx.timers, vec![(SimDuration::unit(), 7)]);
        assert_eq!(p.heard, vec![(1, 41)]);
        // A reset keeps nothing of the previous handler's actions.
        ctx.reset(0, SimTime::from_units(6));
        assert!(ctx.outbox.is_empty() && ctx.timers.is_empty());
        assert_eq!((ctx.node(), ctx.now()), (0, SimTime::from_units(6)));
    }

    #[test]
    fn send_direct_buffers_with_latency() {
        let mut ctx: Context<u32> = Context::new(0, SimTime::ZERO);
        ctx.send_direct(4, 9, SimDuration::from_units(3));
        assert_eq!(
            ctx.outbox,
            vec![Outgoing::Direct {
                to: 4,
                msg: 9,
                latency: SimDuration::from_units(3)
            }]
        );
    }

    #[test]
    fn default_external_forwards_to_on_message() {
        let mut ctx = Context::new(2, SimTime::ZERO);
        let mut p = Echo { heard: vec![] };
        p.on_external(&mut ctx, 9);
        // Treated as a message from the node itself.
        assert_eq!(p.heard, vec![(2, 9)]);
    }
}
