//! The zero-cost probe trait the protocol cores are generic over.
//!
//! Instrumentation contract: the shared `ArrowCore` — the one automaton every
//! tier, the simulator included, runs — carries a `P: Probe` type parameter
//! defaulting to [`NoProbe`] and calls [`Probe::record`] at every protocol
//! transition point. Because the
//! parameter is monomorphized and `NoProbe::record` is an empty `#[inline]`
//! body, the disabled path compiles to nothing — probe-off builds are
//! bit-identical in behaviour and carry no branch, no load, no call.
//!
//! Events carry **no timestamps**: a recording probe stamps time itself
//! (wall-clock probes read a monotonic clock at `record` time; the
//! deterministic simulator instead emits [`ProbeEvent::Tick`] with its virtual
//! clock before dispatching each event, and the recorder holds the last tick as
//! the current time). This keeps the trait object-free and the instrumentation
//! sites identical across tiers that have incompatible notions of "now".

/// One protocol transition point, in raw ids (`node: usize`, `obj: u32`,
/// `req: u64`) so this crate needs no dependency on the typed id wrappers
/// living above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProbeEvent {
    /// Simulator tiers only: the virtual clock reached `units` at the emitting
    /// node. Recording probes in sim mode use the latest tick as the timestamp
    /// of every subsequent event; wall-clock probes ignore it.
    Tick {
        /// Virtual time, in simulation units.
        units: f64,
    },
    /// A queuing request entered the system at its origin node.
    RequestIssued {
        /// Object requested.
        obj: u32,
        /// The new request's id.
        req: u64,
        /// Node issuing the request (the emitting node).
        origin: usize,
    },
    /// A `queue()` frame left the emitting node towards `to` (one tree hop).
    QueueSent {
        /// Object requested.
        obj: u32,
        /// Request being queued.
        req: u64,
        /// The request's origin node.
        origin: usize,
        /// Tree neighbour the frame was sent to.
        to: usize,
    },
    /// A `queue()` frame arrived at the emitting node from tree neighbour
    /// `from` (the receive half of one hop).
    QueueReceived {
        /// Object requested.
        obj: u32,
        /// Request being queued.
        req: u64,
        /// The request's origin node.
        origin: usize,
        /// Tree neighbour the frame came from.
        from: usize,
    },
    /// The `queue()` path terminated at the emitting node: `req` is now queued
    /// directly behind `pred` (the request whose origin this node is — or the
    /// virtual root request `0`).
    QueuedBehind {
        /// Object requested.
        obj: u32,
        /// Request that just finished queuing.
        req: u64,
        /// Its predecessor in the object's total order.
        pred: u64,
        /// `req`'s origin node (where its grant will be delivered).
        origin: usize,
    },
    /// The object's exclusion token left the emitting node towards `req`'s
    /// origin `to` (a direct send, not a tree hop).
    TokenSent {
        /// Object whose token moved.
        obj: u32,
        /// Request the token was granted to.
        req: u64,
        /// Destination node (the request's origin).
        to: usize,
    },
    /// The object's exclusion token arrived at the emitting node.
    TokenReceived {
        /// Object whose token arrived.
        obj: u32,
        /// Request the token grants.
        req: u64,
    },
    /// The grant was delivered to the local application at the emitting node.
    Granted {
        /// Object granted.
        obj: u32,
        /// Request granted.
        req: u64,
    },
    /// The local application released the token it held for `req`.
    Released {
        /// Object released.
        obj: u32,
        /// Request that held it.
        req: u64,
    },
    /// The emitting node adopted recovery epoch `epoch` (resetting links and
    /// re-issuing its pending requests).
    EpochAdopted {
        /// The adopted epoch.
        epoch: u64,
    },
    /// A grant had no live local waiter (timeout or crash) and the runtime
    /// released it on the vanished waiter's behalf so the queue keeps draining.
    OrphanRelease {
        /// Object whose grant was orphaned.
        obj: u32,
        /// The orphaned request.
        req: u64,
    },
    /// A protocol input carrying a stale recovery epoch was rejected.
    StaleDrop {
        /// Object the stale input was for.
        obj: u32,
    },
}

/// The instrumentation hook the protocol cores are generic over.
///
/// Implementations must be cheap: `record` runs inside the protocol hot path,
/// once per transition. The provided default is a no-op so probe types may
/// implement only what they need.
pub trait Probe: Send + 'static {
    /// Observe one protocol transition at the carrying node.
    #[inline(always)]
    fn record(&mut self, ev: ProbeEvent) {
        let _ = ev;
    }
}

/// The default probe: does nothing, compiles to nothing.
///
/// `ArrowCore<NoProbe>` (the default instantiation every existing constructor
/// resolves to) is the probe-disabled build; its `record` calls monomorphize to
/// empty inlined bodies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoProbe;

impl Probe for NoProbe {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_probe_is_a_unit_noop() {
        let mut p = NoProbe;
        p.record(ProbeEvent::Granted { obj: 0, req: 1 });
        assert_eq!(std::mem::size_of::<NoProbe>(), 0);
    }

    #[test]
    fn custom_probe_sees_events() {
        struct Count(usize);
        impl Probe for Count {
            fn record(&mut self, _ev: ProbeEvent) {
                self.0 += 1;
            }
        }
        let mut c = Count(0);
        c.record(ProbeEvent::Tick { units: 1.0 });
        c.record(ProbeEvent::StaleDrop { obj: 3 });
        assert_eq!(c.0, 2);
    }
}
