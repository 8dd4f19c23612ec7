//! The simulator's event queue.
//!
//! Events are totally ordered by `(time, sequence number)`. The sequence number is a
//! monotonically increasing counter assigned at scheduling time, which makes executions
//! deterministic: two events scheduled for the same instant are processed in the order
//! they were scheduled (unless the configured local-processing policy reorders
//! simultaneous *message deliveries* at a node — see [`crate::sim::LocalOrder`]).
//!
//! Most events reach the queue already in time order, so the queue keeps one FIFO
//! *lane* per [`EventKind`] and a binary heap only for the events that do not.
//! An event joins its kind's lane when its time is no earlier than that lane's last
//! entry; since sequence numbers only grow, every lane is sorted by `(time, seq)` by
//! construction, and `pop` takes the smallest of the three lane fronts and the heap
//! top — the same total order a single heap yields.
//!
//! The lanes are keyed on the kind because each kind has its own monotone source: a
//! harness schedules externals from a presorted schedule, a synchronous run delivers
//! every message at `now + 1` (on unit-weight links), and a node sets every service
//! timer at `now + service_time`. Merged into one lane these runs would interleave
//! out of order (a timer at `now + 0.05` lands before a delivery at `now + 1`
//! scheduled just before it) and most events would take the heap. Asynchronous
//! deliveries, deliveries over links of mixed weights and externals scheduled out
//! of order fall back to the heap.
//!
//! The heap holds compact `(time, seq, slot)` keys over a slab of payloads with a
//! free list. Heap sift operations therefore move 24-byte keys instead of whole
//! [`EventKind`] payloads (which carry the message type `M`), and a drained slot's
//! storage is reused by the next out-of-order `schedule` — the steady state of a
//! long run performs no allocation per event.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// The kinds of things that can happen inside the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind<M> {
    /// Delivery of message `payload` sent by `from` to `to`.
    Deliver {
        /// Sender node.
        from: usize,
        /// Destination node.
        to: usize,
        /// The message itself.
        payload: M,
    },
    /// An external input (e.g. a queuing request issued by the application) arriving at
    /// node `node`.
    External {
        /// Node receiving the input.
        node: usize,
        /// The input payload.
        payload: M,
    },
    /// A timer previously set by `node` with user-chosen `tag` firing.
    Timer {
        /// Node that set the timer.
        node: usize,
        /// User-chosen tag to distinguish timers.
        tag: u64,
    },
}

impl<M> EventKind<M> {
    /// The queue lane this kind of event joins when it arrives in order.
    fn lane(&self) -> usize {
        match self {
            EventKind::Deliver { .. } => 0,
            EventKind::External { .. } => 1,
            EventKind::Timer { .. } => 2,
        }
    }
}

/// A scheduled event: a time, a tie-breaking sequence number and the event kind.
#[derive(Debug, Clone)]
pub struct Event<M> {
    /// When the event fires.
    pub time: SimTime,
    /// Scheduling sequence number; breaks ties deterministically.
    pub seq: u64,
    /// What happens.
    pub kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}

impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted (latest first): `Event` keeps the seed crate's max-heap-oriented
        // ordering so it can be pushed into a `BinaryHeap` and pop earliest-first.
        // Plain `sort()` therefore yields reverse-chronological order.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Compact heap key; the payload lives in the slab at `slot`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HeapKey {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        // The slot never participates in ordering.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The source `earliest` reports for the heap; the lanes are sources `0..3`.
const HEAP: usize = 3;

/// A deterministic priority queue of simulation events.
///
/// In-order events wait in their kind's FIFO lane, out-of-order ones in a slab
/// indexed by the heap keys, so the message type `M` needs no `Clone`/`Ord` bounds
/// and is moved exactly twice: into the queue on `schedule` and out on `pop`.
#[derive(Debug)]
pub struct EventQueue<M> {
    /// One FIFO per [`EventKind`], each sorted by `(time, seq)` by construction.
    lanes: [VecDeque<Event<M>>; 3],
    heap: BinaryHeap<HeapKey>,
    slots: Vec<Option<EventKind<M>>>,
    free: Vec<u32>,
    next_seq: u64,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> EventQueue<M> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            lanes: Default::default(),
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedule an event at `time`. Returns the sequence number assigned to it.
    pub fn schedule(&mut self, time: SimTime, kind: EventKind<M>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let lane = &mut self.lanes[kind.lane()];
        if lane.back().is_none_or(|last| last.time <= time) {
            lane.push_back(Event { time, seq, kind });
            return seq;
        }
        let slot = match self.free.pop() {
            Some(s) => {
                debug_assert!(self.slots[s as usize].is_none(), "free slot occupied");
                self.slots[s as usize] = Some(kind);
                s
            }
            None => {
                let s = u32::try_from(self.slots.len()).expect("more than 2^32 pending events");
                self.slots.push(Some(kind));
                s
            }
        };
        self.heap.push(HeapKey { time, seq, slot });
        seq
    }

    /// The `(time, source)` of the earliest pending event, where the source is a
    /// lane index or [`HEAP`].
    fn earliest(&self) -> Option<(SimTime, usize)> {
        let mut best = self.heap.peek().map(|k| (k.time, k.seq, HEAP));
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(e) = lane.front() {
                if best.is_none_or(|(time, seq, _)| (e.time, e.seq) < (time, seq)) {
                    best = Some((e.time, e.seq, i));
                }
            }
        }
        best.map(|(time, _, source)| (time, source))
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<Event<M>> {
        let (_, source) = self.earliest()?;
        if source != HEAP {
            return self.lanes[source].pop_front();
        }
        let key = self.heap.pop()?;
        let kind = self.slots[key.slot as usize]
            .take()
            .expect("heap key pointed at an empty slot");
        self.free.push(key.slot);
        Some(Event {
            time: key.time,
            seq: key.seq,
            kind,
        })
    }

    /// Time of the earliest scheduled event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.earliest().map(|(time, _)| time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lanes.iter().all(VecDeque::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ext(node: usize, v: u32) -> EventKind<u32> {
        EventKind::External { node, payload: v }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_units(5), ext(0, 5));
        q.schedule(SimTime::from_units(1), ext(0, 1));
        q.schedule(SimTime::from_units(3), ext(0, 3));
        let times: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.whole_units())
            .collect();
        assert_eq!(times, vec![1, 3, 5]);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_units(2);
        q.schedule(t, ext(0, 10));
        q.schedule(t, ext(0, 11));
        q.schedule(t, ext(0, 12));
        let payloads: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::External { payload, .. } => payload,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(payloads, vec![10, 11, 12]);
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut q = EventQueue::new();
        assert!(q.peek_time().is_none());
        q.schedule(SimTime::from_units(7), ext(1, 0));
        q.schedule(SimTime::from_units(4), ext(2, 0));
        assert_eq!(q.peek_time(), Some(SimTime::from_units(4)));
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_units(7)));
    }

    #[test]
    fn slots_are_recycled() {
        let mut q = EventQueue::new();
        // A far-future external holds the back of the externals' lane, so each
        // earlier external below arrives out of order and takes a slab slot.
        q.schedule(SimTime::from_units(1_000), ext(0, 1_000));
        for round in 0..100u32 {
            q.schedule(SimTime::from_units(round as u64), ext(0, round));
            let e = q.pop().unwrap();
            assert!(matches!(e.kind, EventKind::External { payload, .. } if payload == round));
        }
        // One slot serviced all 100 out-of-order events.
        assert_eq!(q.slots.len(), 1);
        assert_eq!(q.len(), 1);
    }

    fn deliver(v: u32) -> EventKind<u32> {
        EventKind::Deliver {
            from: 0,
            to: 1,
            payload: v,
        }
    }

    fn timer(tag: u64) -> EventKind<u32> {
        EventKind::Timer { node: 0, tag }
    }

    #[test]
    fn kinds_tied_at_one_instant_pop_in_schedule_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_units(3);
        let seqs = [
            q.schedule(t, timer(0)),
            q.schedule(t, deliver(1)),
            q.schedule(t, ext(0, 2)),
            q.schedule(t, deliver(3)),
            q.schedule(t, timer(4)),
        ];
        assert!(q.heap.is_empty(), "in-order events take no heap entry");
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(popped, seqs);
    }

    #[test]
    fn out_of_order_event_of_each_kind_pops_at_its_place() {
        let mut q = EventQueue::new();
        let at = SimTime::from_units;
        for (late, early) in [(deliver(5), deliver(2)), (ext(0, 5), ext(0, 2))] {
            q.schedule(at(5), late);
            q.schedule(at(2), early);
        }
        q.schedule(at(5), timer(5));
        q.schedule(at(2), timer(2));
        // One out-of-order arrival per kind went to the heap; the rest to lanes.
        assert_eq!(q.heap.len(), 3);
        assert_eq!(q.len(), 6);
        q.schedule(at(4), ext(0, 4));
        let popped: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time.whole_units(), e.seq))
            .collect();
        assert_eq!(
            popped,
            vec![(2, 1), (2, 3), (2, 5), (4, 6), (5, 0), (5, 2), (5, 4)]
        );
    }

    /// Random interleavings of `schedule` and `pop` over all three kinds —
    /// ties, in-order runs and out-of-order arrivals per kind — pop exactly
    /// what a min-`(time, seq)` reference pops.
    #[test]
    fn merged_order_matches_a_min_time_seq_reference() {
        for seed in 0..64u64 {
            let mut rng = crate::rng::SimRng::new(seed);
            let mut q = EventQueue::new();
            let mut reference: Vec<(SimTime, u64, u32)> = Vec::new();
            let mut now = 0u64;
            let mut last = [0u64; 3];
            for step in 0..400u32 {
                if rng.chance(0.55) {
                    let lane = rng.index(3);
                    // Mostly in order for the kind (often tied), sometimes anywhere
                    // from `now` on, which may land before the kind's last event.
                    let time = if rng.chance(0.7) {
                        last[lane] + rng.uniform_u64(0, 2)
                    } else {
                        now + rng.uniform_u64(0, 6)
                    };
                    last[lane] = last[lane].max(time);
                    let kind = match lane {
                        0 => deliver(step),
                        1 => ext(0, step),
                        _ => timer(step as u64),
                    };
                    let seq = q.schedule(SimTime::from_subticks(time), kind);
                    reference.push((SimTime::from_subticks(time), seq, step));
                } else {
                    let expected = (0..reference.len())
                        .min_by_key(|&i| (reference[i].0, reference[i].1))
                        .map(|i| reference.swap_remove(i));
                    let got = q.pop().map(|e| {
                        let payload = match e.kind {
                            EventKind::Deliver { payload, .. }
                            | EventKind::External { payload, .. } => payload,
                            EventKind::Timer { tag, .. } => tag as u32,
                        };
                        (e.time, e.seq, payload)
                    });
                    assert_eq!(got, expected, "seed {seed}, step {step}");
                    if let Some((time, ..)) = got {
                        now = time.subticks();
                    }
                }
                assert_eq!(q.len(), reference.len());
                assert_eq!(
                    q.peek_time(),
                    reference.iter().map(|&(time, ..)| time).min()
                );
            }
        }
    }

    #[test]
    fn non_clone_payloads_are_supported() {
        // A message type without Clone/Ord: the slab queue must still move it through.
        #[derive(Debug, PartialEq, Eq)]
        struct Opaque(String);
        let mut q = EventQueue::new();
        q.schedule(
            SimTime::from_units(1),
            EventKind::External {
                node: 0,
                payload: Opaque("hello".into()),
            },
        );
        let e = q.pop().unwrap();
        assert!(matches!(e.kind, EventKind::External { payload, .. } if payload.0 == "hello"));
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_units(10), ext(0, 10));
        q.schedule(SimTime::from_units(2), ext(0, 2));
        assert_eq!(q.pop().unwrap().time, SimTime::from_units(2));
        q.schedule(SimTime::from_units(1), ext(0, 1));
        q.schedule(SimTime::from_units(11), ext(0, 11));
        let times: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.whole_units())
            .collect();
        assert_eq!(times, vec![1, 10, 11]);
    }
}
