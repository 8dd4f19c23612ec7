//! Communication links and their latency models.
//!
//! The paper analyses two communication models over point-to-point FIFO links:
//!
//! * the **synchronous** model, where every link has latency exactly one time unit
//!   (Section 3.1), and
//! * the **asynchronous** model, where each message is delayed by an arbitrary but
//!   finite amount, normalised so that the slowest message takes at most one unit
//!   (Section 3.8).
//!
//! [`LatencyModel`] captures both, plus weighted-link variants used when simulating
//! a network whose edges have non-uniform cost. [`LinkState`] enforces the FIFO
//! property per directed link regardless of the sampled latencies; the simulator
//! needs it only where latencies vary, since a fixed per-link latency keeps every
//! link FIFO by itself.

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// How long a message takes to traverse a link.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub enum LatencyModel {
    /// Every message takes exactly one time unit (the paper's synchronous model).
    #[default]
    Unit,
    /// Every message takes exactly `units` time units.
    Fixed {
        /// Latency in time units.
        units: f64,
    },
    /// Every message on link (u,v) takes the link's weight in time units.
    ///
    /// Weights are supplied via [`LinkState::set_weight`]; unknown links fall back to 1.
    EdgeWeight,
    /// Each message independently takes a uniformly random latency in `[lo, hi]` units
    /// (the asynchronous model; the paper normalises `hi` to 1).
    Uniform {
        /// Minimum latency in units.
        lo: f64,
        /// Maximum latency in units.
        hi: f64,
    },
    /// Each message takes the link weight scaled by a uniformly random factor in
    /// `[lo_factor, 1.0]` — an asynchronous model on a weighted network where the
    /// *worst case* per link equals the weight, matching the paper's normalisation.
    ScaledUniform {
        /// Minimum scaling factor (clamped to `(0, 1]`).
        lo_factor: f64,
    },
}

impl LatencyModel {
    /// Sample the latency of one message on the directed link `(from, to)` whose
    /// weight is `weight` time units.
    pub fn sample(&self, weight: f64, rng: &mut SimRng) -> SimDuration {
        match *self {
            LatencyModel::Unit => SimDuration::unit(),
            LatencyModel::Fixed { units } => SimDuration::from_units_f64(units),
            LatencyModel::EdgeWeight => SimDuration::from_units_f64(weight),
            LatencyModel::Uniform { lo, hi } => {
                SimDuration::from_units_f64(rng.uniform(lo, hi.max(lo)))
            }
            LatencyModel::ScaledUniform { lo_factor } => {
                let lo = lo_factor.clamp(f64::EPSILON, 1.0);
                SimDuration::from_units_f64(weight * rng.uniform(lo, 1.0))
            }
        }
    }
}

/// One directed pair's state, created the first time the pair is named.
#[derive(Debug, Clone, Copy)]
struct Slot {
    to: usize,
    weight: f64,
    /// `weight` as a duration, converted once in [`LinkState::set_weight`]: the
    /// latency of every message on the link under [`LatencyModel::EdgeWeight`].
    latency: SimDuration,
    /// FIFO floor of the link-model channel: the last delivery scheduled on it.
    link_floor: SimTime,
    /// FIFO floor of the *direct* (explicit-latency) channel, kept separate so
    /// out-of-band traffic (e.g. requester acknowledgements routed over graph
    /// shortest paths) never delays — and is never delayed by — the link-model
    /// protocol traffic on the same pair.
    direct_floor: SimTime,
}

/// Per-directed-link bookkeeping: weights and FIFO enforcement.
///
/// FIFO links are a correctness requirement of the arrow protocol (the network is
/// "a set of point-to-point FIFO communication links", Section 2). With random
/// latencies, a later message could otherwise overtake an earlier one; we prevent
/// that by never scheduling a delivery earlier than the previously scheduled
/// delivery on the same directed link.
///
/// State is one row per sender, each row holding one slot per receiver the
/// sender has named, sorted by receiver, so a floored send
/// ([`LinkState::delivery_time`]) costs one binary search of a row that, on a
/// tree, is as long as the sender's degree. Each slot keeps its link's latency
/// as a [`SimDuration`], converted once when the weight is set, and the state
/// remembers the one latency every link shares while no set weight differs
/// from the default. A fixed latency per link cannot reorder a link, so under
/// the deterministic models the simulator takes no floor: it reads one slot
/// ([`LinkState::latency`]) or, when every link shares one latency
/// ([`LinkState::uniform_latency`]), nothing at all.
#[derive(Debug)]
pub struct LinkState {
    rows: Vec<Vec<Slot>>,
    /// The latency of every link, set or not, while all set weights convert to
    /// the default's one unit; `None` once one does not.
    uniform: Option<SimDuration>,
}

impl Default for LinkState {
    fn default() -> Self {
        LinkState {
            rows: Vec::new(),
            uniform: Some(SimDuration::unit()),
        }
    }
}

impl LinkState {
    /// Create empty link state (all weights default to 1).
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot of directed pair `(from, to)`, created with weight 1 if new.
    fn slot(&mut self, from: usize, to: usize) -> &mut Slot {
        if from >= self.rows.len() {
            self.rows.resize_with(from + 1, Vec::new);
        }
        let row = &mut self.rows[from];
        let at = row
            .binary_search_by_key(&to, |slot| slot.to)
            .unwrap_or_else(|at| {
                row.insert(
                    at,
                    Slot {
                        to,
                        weight: 1.0,
                        latency: SimDuration::unit(),
                        link_floor: SimTime::ZERO,
                        direct_floor: SimTime::ZERO,
                    },
                );
                at
            });
        &mut row[at]
    }

    /// Set the weight of the undirected link `{u, v}` (both directions).
    pub fn set_weight(&mut self, u: usize, v: usize, weight: f64) {
        let latency = SimDuration::from_units_f64(weight);
        if self.uniform != Some(latency) {
            self.uniform = None;
        }
        for (from, to) in [(u, v), (v, u)] {
            let slot = self.slot(from, to);
            slot.weight = weight;
            slot.latency = latency;
        }
    }

    /// The slot of directed pair `(from, to)`, if it was ever named.
    fn find(&self, from: usize, to: usize) -> Option<&Slot> {
        let row = self.rows.get(from)?;
        let at = row.binary_search_by_key(&to, |slot| slot.to).ok()?;
        Some(&row[at])
    }

    /// Weight of directed link `(from, to)`; 1.0 if never set.
    pub fn weight(&self, from: usize, to: usize) -> f64 {
        self.find(from, to).map_or(1.0, |slot| slot.weight)
    }

    /// The latency of directed link `(from, to)` under
    /// [`LatencyModel::EdgeWeight`]: its weight as a duration, one unit if never
    /// set.
    pub fn latency(&self, from: usize, to: usize) -> SimDuration {
        self.find(from, to)
            .map_or(SimDuration::unit(), |slot| slot.latency)
    }

    /// The latency every link takes under [`LatencyModel::EdgeWeight`], if they
    /// all take the same: one unit until a weight that converts to anything
    /// else is set.
    pub fn uniform_latency(&self) -> Option<SimDuration> {
        self.uniform
    }

    /// Compute the delivery time for a message sent at `now` on `(from, to)` with the
    /// given latency model, enforcing FIFO per directed link, and record it.
    ///
    /// `jitter` is the scheduling jitter of [`crate::sim::LocalOrder::Random`]. It is
    /// folded in *before* the FIFO floor is applied and the floored result is what
    /// gets recorded, so jitter can never reorder two messages on the same directed
    /// link — the floor always reflects the actual (jittered) delivery time.
    pub fn delivery_time(
        &mut self,
        from: usize,
        to: usize,
        now: SimTime,
        model: &LatencyModel,
        rng: &mut SimRng,
        jitter: SimDuration,
    ) -> SimTime {
        let slot = self.slot(from, to);
        let latency = model.sample(slot.weight, rng);
        let delivery = (now + latency + jitter).max(slot.link_floor);
        slot.link_floor = delivery;
        delivery
    }

    /// Delivery time for a *direct* send: the message takes exactly `latency`
    /// (plus jitter), independent of the link's weight and latency model. Direct
    /// sends form their own FIFO channel per directed pair, independent of the
    /// link-model traffic on it.
    pub fn direct_delivery_time(
        &mut self,
        from: usize,
        to: usize,
        now: SimTime,
        latency: SimDuration,
        jitter: SimDuration,
    ) -> SimTime {
        let slot = self.slot(from, to);
        let delivery = (now + latency + jitter).max(slot.direct_floor);
        slot.direct_floor = delivery;
        delivery
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn unit_model_is_one_unit() {
        let mut rng = SimRng::new(1);
        let d = LatencyModel::Unit.sample(5.0, &mut rng);
        assert_eq!(d, SimDuration::unit());
    }

    #[test]
    fn edge_weight_model_uses_weight() {
        let mut rng = SimRng::new(1);
        let d = LatencyModel::EdgeWeight.sample(3.5, &mut rng);
        assert!((d.as_units_f64() - 3.5).abs() < 1e-9);
    }

    #[test]
    fn uniform_model_within_bounds() {
        let mut rng = SimRng::new(2);
        let m = LatencyModel::Uniform { lo: 0.25, hi: 1.0 };
        for _ in 0..500 {
            let d = m.sample(1.0, &mut rng).as_units_f64();
            assert!((0.25..=1.0).contains(&d), "latency {d}");
        }
    }

    #[test]
    fn scaled_uniform_bounded_by_weight() {
        let mut rng = SimRng::new(3);
        let m = LatencyModel::ScaledUniform { lo_factor: 0.1 };
        for _ in 0..500 {
            let d = m.sample(4.0, &mut rng).as_units_f64();
            assert!(d <= 4.0 + 1e-9 && d > 0.0);
        }
    }

    #[test]
    fn link_weights_are_symmetric_by_default_setter() {
        let mut ls = LinkState::new();
        ls.set_weight(1, 2, 2.5);
        assert_eq!(ls.weight(1, 2), 2.5);
        assert_eq!(ls.weight(2, 1), 2.5);
        assert_eq!(ls.weight(0, 9), 1.0);
    }

    #[test]
    fn fifo_is_enforced_under_random_latency() {
        let mut ls = LinkState::new();
        let mut rng = SimRng::new(4);
        let model = LatencyModel::Uniform { lo: 0.01, hi: 1.0 };
        let mut last = SimTime::ZERO;
        // Send a burst of messages at the same instant; deliveries must be non-decreasing.
        for _ in 0..200 {
            let d = ls.delivery_time(
                0,
                1,
                SimTime::from_units(10),
                &model,
                &mut rng,
                SimDuration::ZERO,
            );
            assert!(d >= last, "FIFO violated: {d} < {last}");
            last = d;
        }
    }

    #[test]
    fn fifo_is_enforced_with_random_jitter() {
        // Regression: jitter must be folded in *before* the FIFO floor. If it were
        // added after, a small-jitter message could undercut the floored delivery of
        // its large-jitter predecessor on the same directed link.
        let mut ls = LinkState::new();
        let mut rng = SimRng::new(6);
        let model = LatencyModel::Uniform { lo: 0.05, hi: 1.0 };
        let mut last = SimTime::ZERO;
        for _ in 0..500 {
            let jitter = SimDuration::from_subticks(rng.uniform_u64(0, 100));
            let d = ls.delivery_time(0, 1, SimTime::from_units(3), &model, &mut rng, jitter);
            assert!(d >= last, "FIFO violated: {d} < {last}");
            last = d;
        }
    }

    #[test]
    fn fifo_applies_per_directed_link_only() {
        let mut ls = LinkState::new();
        let mut rng = SimRng::new(5);
        let model = LatencyModel::Fixed { units: 1.0 };
        let d1 = ls.delivery_time(
            0,
            1,
            SimTime::from_units(100),
            &model,
            &mut rng,
            SimDuration::ZERO,
        );
        // Opposite direction is unconstrained by the first delivery.
        let d2 = ls.delivery_time(
            1,
            0,
            SimTime::from_units(0),
            &model,
            &mut rng,
            SimDuration::ZERO,
        );
        assert!(d2 < d1);
    }

    #[test]
    fn direct_channel_is_fifo_but_independent_of_link_traffic() {
        let mut ls = LinkState::new();
        let mut rng = SimRng::new(7);
        let model = LatencyModel::Fixed { units: 10.0 };
        // A slow link-model message must not delay a fast direct send on the same pair.
        let slow = ls.delivery_time(0, 1, SimTime::ZERO, &model, &mut rng, SimDuration::ZERO);
        let fast = ls.direct_delivery_time(
            0,
            1,
            SimTime::ZERO,
            SimDuration::from_units(1),
            SimDuration::ZERO,
        );
        assert!(fast < slow);
        // Direct sends among themselves are FIFO.
        let later = ls.direct_delivery_time(
            0,
            1,
            SimTime::ZERO,
            SimDuration::from_units_f64(0.25),
            SimDuration::ZERO,
        );
        assert!(later >= fast, "direct channel reordered: {later} < {fast}");
    }
    /// The keyed model the rows replaced: a map per field, one probe each.
    #[derive(Default)]
    struct MapModel {
        weights: HashMap<(usize, usize), f64>,
        link_floor: HashMap<(usize, usize), SimTime>,
        direct_floor: HashMap<(usize, usize), SimTime>,
    }

    impl MapModel {
        fn weight(&self, from: usize, to: usize) -> f64 {
            *self.weights.get(&(from, to)).unwrap_or(&1.0)
        }

        /// `(the channel's previous delivery, this one)`.
        fn deliver(
            &mut self,
            direct: bool,
            pair: (usize, usize),
            naive: SimTime,
        ) -> (SimTime, SimTime) {
            let floors = if direct {
                &mut self.direct_floor
            } else {
                &mut self.link_floor
            };
            let floor = floors.entry(pair).or_insert(SimTime::ZERO);
            let previous = std::mem::replace(floor, naive.max(*floor));
            (previous, *floor)
        }
    }

    #[test]
    fn rows_deliver_exactly_when_the_map_model_does() {
        const NODES: u64 = 9;
        for seed in 0..40 {
            // One stream drives the interleaving, two identical ones the latencies.
            let mut choose = SimRng::new(seed);
            let (mut rng_rows, mut rng_model) =
                (SimRng::new(seed ^ 0xf1f0), SimRng::new(seed ^ 0xf1f0));
            let model = match seed % 3 {
                0 => LatencyModel::EdgeWeight,
                1 => LatencyModel::Uniform { lo: 0.05, hi: 1.0 },
                _ => LatencyModel::ScaledUniform { lo_factor: 0.1 },
            };
            let (mut rows, mut maps) = (LinkState::new(), MapModel::default());
            let mut now = SimTime::ZERO;
            for _ in 0..2_000 {
                let from = choose.uniform_u64(0, NODES - 1) as usize;
                let to = choose.uniform_u64(0, NODES - 1) as usize;
                now += SimDuration::from_subticks(choose.uniform_u64(0, 300_000));
                let jitter = SimDuration::from_subticks(choose.uniform_u64(0, 100));
                match choose.uniform_u64(0, 9) {
                    0 => {
                        let w = choose.uniform(0.5, 4.0);
                        rows.set_weight(from, to, w);
                        maps.weights.insert((from, to), w);
                        maps.weights.insert((to, from), w);
                    }
                    1..=5 => {
                        let got = rows.delivery_time(from, to, now, &model, &mut rng_rows, jitter);
                        let latency = model.sample(maps.weight(from, to), &mut rng_model);
                        let (previous, want) =
                            maps.deliver(false, (from, to), now + latency + jitter);
                        assert_eq!(got, want, "seed {seed}: link send {from}->{to}");
                        assert!(got >= previous, "seed {seed}: link {from}->{to} reordered");
                    }
                    _ => {
                        let latency = SimDuration::from_subticks(choose.uniform_u64(0, 2_000_000));
                        let got = rows.direct_delivery_time(from, to, now, latency, jitter);
                        let (previous, want) =
                            maps.deliver(true, (from, to), now + latency + jitter);
                        assert_eq!(got, want, "seed {seed}: direct send {from}->{to}");
                        assert!(
                            got >= previous,
                            "seed {seed}: direct {from}->{to} reordered"
                        );
                    }
                }
            }
            for from in 0..NODES as usize + 2 {
                for to in 0..NODES as usize + 2 {
                    assert_eq!(rows.weight(from, to), maps.weight(from, to));
                    assert_eq!(rows.weight(from, to), rows.weight(to, from), "symmetric");
                }
            }
        }
    }
}
