//! The causal trace recorder: timestamped probe events, per node.
//!
//! A [`TraceRecorder`] is shared (`Arc`) across every node of a run; each node
//! carries a [`TraceProbe`] that buffers `(time, event)` pairs locally —
//! recording costs a `Vec::push`, no lock — and flushes into the recorder when
//! dropped (node teardown). Two clocks:
//!
//! * **wall probes** ([`TraceRecorder::wall_probe`]) stamp each event with the
//!   monotonic seconds since the recorder was created — the live tiers, where
//!   node threads share one `Instant` epoch;
//! * **sim probes** ([`TraceRecorder::sim_probe`]) hold the virtual clock
//!   value last announced via [`ProbeEvent::Tick`] — the deterministic
//!   simulator, which has no wall clock worth recording.
//!
//! Once every probe has flushed (all node threads joined), [`TraceRecorder::finish`]
//! returns the time-sorted event log for [`crate::analysis`] and
//! [`crate::chrome`].

use crate::probe::{Probe, ProbeEvent};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded probe event: which node emitted it, when (seconds for wall
/// probes, simulation units for sim probes), and what happened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEventRecord {
    /// Emitting node.
    pub node: usize,
    /// Timestamp in the recorder's time base.
    pub t: f64,
    /// The transition observed.
    pub ev: ProbeEvent,
}

/// The shared sink trace probes flush into.
#[derive(Debug)]
pub struct TraceRecorder {
    start: Instant,
    events: Mutex<Vec<TraceEventRecord>>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder::new()
    }
}

impl TraceRecorder {
    /// An empty recorder; wall probes measure time from this call.
    pub fn new() -> Self {
        TraceRecorder {
            start: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// A wall-clock probe for `node` (live tiers). All probes of one recorder
    /// share its creation instant as the time origin.
    pub fn wall_probe(self: &Arc<Self>, node: usize) -> TraceProbe {
        TraceProbe {
            node,
            clock: Clock::Wall(self.start),
            buf: Vec::new(),
            sink: Arc::clone(self),
        }
    }

    /// A virtual-clock probe for `node` (simulator tier): events are stamped
    /// with the latest [`ProbeEvent::Tick`] the node announced.
    pub fn sim_probe(self: &Arc<Self>, node: usize) -> TraceProbe {
        TraceProbe {
            node,
            clock: Clock::Sim { now: 0.0 },
            buf: Vec::new(),
            sink: Arc::clone(self),
        }
    }

    fn absorb(&self, node: usize, buf: &mut Vec<(f64, ProbeEvent)>) {
        let mut events = self
            .events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        events.extend(
            buf.drain(..)
                .map(|(t, ev)| TraceEventRecord { node, t, ev }),
        );
    }

    /// The time-sorted event log. Call once every probe has been dropped
    /// (all node threads joined) — events still buffered in live probes are
    /// not visible here.
    pub fn finish(self) -> Vec<TraceEventRecord> {
        let mut events = self
            .events
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        events.sort_by(|a, b| a.t.total_cmp(&b.t));
        events
    }
}

#[derive(Debug)]
enum Clock {
    Wall(Instant),
    Sim { now: f64 },
}

/// The recording [`Probe`]: buffers events locally, flushes on drop.
#[derive(Debug)]
pub struct TraceProbe {
    node: usize,
    clock: Clock,
    buf: Vec<(f64, ProbeEvent)>,
    sink: Arc<TraceRecorder>,
}

impl Probe for TraceProbe {
    fn record(&mut self, ev: ProbeEvent) {
        let t = match &mut self.clock {
            Clock::Wall(start) => {
                if let ProbeEvent::Tick { .. } = ev {
                    return; // wall probes have their own clock
                }
                start.elapsed().as_secs_f64()
            }
            Clock::Sim { now } => {
                if let ProbeEvent::Tick { units } = ev {
                    *now = units;
                    return;
                }
                *now
            }
        };
        self.buf.push((t, ev));
    }
}

impl Drop for TraceProbe {
    fn drop(&mut self) {
        self.sink.absorb(self.node, &mut self.buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_probe_stamps_with_latest_tick() {
        let rec = Arc::new(TraceRecorder::new());
        let mut p = rec.sim_probe(3);
        p.record(ProbeEvent::Tick { units: 2.5 });
        p.record(ProbeEvent::Granted { obj: 0, req: 9 });
        p.record(ProbeEvent::Tick { units: 4.0 });
        p.record(ProbeEvent::Released { obj: 0, req: 9 });
        drop(p);
        let events = Arc::try_unwrap(rec).unwrap().finish();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].t, 2.5);
        assert_eq!(events[0].node, 3);
        assert_eq!(events[1].t, 4.0);
        assert!(matches!(events[1].ev, ProbeEvent::Released { .. }));
    }

    #[test]
    fn wall_probe_timestamps_are_monotone_and_ticks_ignored() {
        let rec = Arc::new(TraceRecorder::new());
        let mut p = rec.wall_probe(0);
        p.record(ProbeEvent::Tick { units: 99.0 }); // ignored
        p.record(ProbeEvent::RequestIssued {
            obj: 0,
            req: 1,
            origin: 0,
        });
        p.record(ProbeEvent::Granted { obj: 0, req: 1 });
        drop(p);
        let events = Arc::try_unwrap(rec).unwrap().finish();
        assert_eq!(events.len(), 2);
        assert!(events[0].t <= events[1].t);
        assert!(events[0].t >= 0.0);
    }

    #[test]
    fn probes_flush_from_many_threads() {
        let rec = Arc::new(TraceRecorder::new());
        let joins: Vec<_> = (0..4)
            .map(|n| {
                let mut p = rec.wall_probe(n);
                std::thread::spawn(move || {
                    for req in 0..10 {
                        p.record(ProbeEvent::Granted { obj: 0, req });
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        let events = Arc::try_unwrap(rec).unwrap().finish();
        assert_eq!(events.len(), 40);
    }
}
