//! Simulation statistics: the simulator's event counters and a fixed-bucket
//! histogram.
//!
//! [`SimStats`] counts what the engine does with each event — delivered, injected,
//! fired, or dropped by a fault. The paper's Figure 10/11 quantities (latency per
//! enqueue, inter-processor messages per queuing operation) are protocol facts and
//! are journaled by the protocol's node host, not here.

use serde::{Deserialize, Serialize};

/// A simple fixed-bucket histogram over non-negative `f64` samples.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    bucket_width: f64,
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Maximum number of regular buckets. Samples past the last regular bucket land
    /// in a single shared *overflow* bucket, so one huge outlier (or a `NaN`-free
    /// but absurd latency) can never make `record` allocate an unbounded counts
    /// vector. Exact `min`/`max`/`sum` are tracked separately and are unaffected;
    /// only the bucket resolution of percentiles saturates.
    pub const MAX_BUCKETS: usize = 4096;

    /// Create a histogram with the given bucket width (must be positive).
    pub fn new(bucket_width: f64) -> Self {
        assert!(bucket_width > 0.0, "bucket width must be positive");
        Histogram {
            bucket_width,
            counts: Vec::new(),
            total: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one sample (negative samples are clamped to zero; samples beyond
    /// [`Histogram::MAX_BUCKETS`] bucket widths share one overflow bucket).
    pub fn record(&mut self, sample: f64) {
        let s = sample.max(0.0);
        let bucket = ((s / self.bucket_width) as usize).min(Self::MAX_BUCKETS - 1);
        if bucket >= self.counts.len() {
            self.counts.resize(bucket + 1, 0);
        }
        self.counts[bucket] += 1;
        self.total += 1;
        self.sum += s;
        self.min = self.min.min(s);
        self.max = self.max.max(s);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True if no samples have been recorded.
    ///
    /// On an empty histogram every summary statistic is *defined* to be `0.0` —
    /// [`mean`], [`min`], [`max`], [`sum`] and [`percentile`] all return zero rather
    /// than dividing by the zero sample count or reporting the infinities the
    /// internal min/max trackers start from.
    ///
    /// [`mean`]: Histogram::mean
    /// [`min`]: Histogram::min
    /// [`max`]: Histogram::max
    /// [`sum`]: Histogram::sum
    /// [`percentile`]: Histogram::percentile
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Mean of recorded samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Minimum sample (0 if empty).
    pub fn min(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum sample (0 if empty).
    pub fn max(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Approximate p-th percentile (`p` in `[0,100]`), computed from bucket
    /// boundaries and clamped into `[min, max]` — so `percentile(100.0)` never
    /// exceeds [`Histogram::max`] and small percentiles never undercut
    /// [`Histogram::min`], even though bucket *upper* edges are the raw estimate.
    /// Returns `0.0` on an empty histogram (see [`Histogram::is_empty`] for the
    /// empty-histogram contract); `p` is clamped into `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = (p.clamp(0.0, 100.0) / 100.0 * self.total as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                if i == Self::MAX_BUCKETS - 1 {
                    // The overflow bucket has no meaningful upper edge; the exact
                    // maximum is the tightest honest answer.
                    return self.max;
                }
                let upper_edge = (i as f64 + 1.0) * self.bucket_width;
                return upper_edge.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The median (50th percentile); `0.0` if empty.
    pub fn p50(&self) -> f64 {
        self.percentile(50.0)
    }

    /// The 99th percentile; `0.0` if empty.
    pub fn p99(&self) -> f64 {
        self.percentile(99.0)
    }

    /// Fold another histogram of the **same bucket width** into this one, as if
    /// every sample recorded into `other` had been recorded here instead.
    ///
    /// Bucket counts add index-wise. In particular, `other`'s shared *overflow*
    /// bucket (index [`Histogram::MAX_BUCKETS`]` - 1`, see
    /// [`Histogram::record`]) folds into this histogram's overflow bucket:
    /// samples that saturated bucket resolution there stay saturated here —
    /// merging never re-buckets or un-saturates anything. `count`, `sum`, `min`
    /// and `max` combine exactly, so [`Histogram::mean`], [`Histogram::min`]
    /// and [`Histogram::max`] equal what single-histogram recording would have
    /// produced; [`Histogram::percentile`] keeps its usual bucket-edge
    /// resolution. Merging an empty histogram is a no-op (the sentinel
    /// infinities its min/max trackers start from never leak into `self`);
    /// merging *into* an empty one makes it equal to `other`.
    ///
    /// # Panics
    /// If the bucket widths differ: counts are only index-compatible at equal
    /// widths, and silently re-bucketing would corrupt percentiles.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.bucket_width == other.bucket_width,
            "cannot merge histograms with different bucket widths ({} vs {})",
            self.bucket_width,
            other.bucket_width
        );
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += *theirs;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Counters collected during a simulation run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SimStats {
    /// Total messages delivered (excluding external inputs and timers).
    pub messages_delivered: u64,
    /// External inputs injected.
    pub external_inputs: u64,
    /// Timer firings.
    pub timer_firings: u64,
    /// Messages lost to faults: deliveries to a crashed node or over a blocked
    /// link (see [`crate::SimFault`]).
    pub messages_dropped: u64,
    /// External inputs and timer firings silenced because their node was crashed.
    pub silenced_inputs: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_mean_min_max() {
        let mut h = Histogram::new(1.0);
        for x in [1.0, 2.0, 3.0, 4.0] {
            h.record(x);
        }
        assert_eq!(h.count(), 4);
        assert!((h.mean() - 2.5).abs() < 1e-12);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 4.0);
        assert!((h.sum() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_percentile_is_monotone() {
        let mut h = Histogram::new(0.5);
        for i in 0..100 {
            h.record(i as f64 / 10.0);
        }
        let p50 = h.percentile(50.0);
        let p90 = h.percentile(90.0);
        let p99 = h.percentile(99.0);
        assert!(p50 <= p90 && p90 <= p99);
        assert!(p99 <= h.max() + 0.5);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        // The contract documented on Histogram::is_empty: every summary statistic of
        // an empty histogram is exactly 0.0 — finite, no division by the zero count,
        // no leaked sentinel infinities from the min/max trackers.
        let h = Histogram::new(1.0);
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        for p in [0.0, 50.0, 99.0, 100.0, -3.0, 250.0] {
            let v = h.percentile(p);
            assert!(v == 0.0 && v.is_finite(), "percentile({p}) = {v}");
        }
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.p99(), 0.0);
    }

    #[test]
    fn p50_p99_conveniences_match_percentile() {
        let mut h = Histogram::new(0.5);
        for i in 0..200 {
            h.record(i as f64 / 20.0);
        }
        assert!(!h.is_empty());
        assert_eq!(h.p50(), h.percentile(50.0));
        assert_eq!(h.p99(), h.percentile(99.0));
        assert!(h.p50() <= h.p99());
        // Out-of-range percentiles clamp rather than panic or extrapolate.
        assert_eq!(h.percentile(-10.0), h.percentile(0.0));
        assert_eq!(h.percentile(1000.0), h.percentile(100.0));
    }

    #[test]
    fn percentiles_stay_within_min_and_max() {
        // Regression: the bucket *upper* edge used to leak out directly, so
        // percentile(100) exceeded max() and percentile(epsilon) exceeded min().
        let mut h = Histogram::new(1.0);
        h.record(0.2);
        h.record(0.3);
        assert_eq!(h.percentile(100.0), h.max());
        assert!(h.percentile(100.0) <= h.max());
        assert!(h.percentile(0.001) >= h.min());
        for p in [0.0, 0.001, 25.0, 50.0, 99.0, 100.0] {
            let v = h.percentile(p);
            assert!(
                (h.min()..=h.max()).contains(&v),
                "percentile({p}) = {v} outside [{}, {}]",
                h.min(),
                h.max()
            );
        }
    }

    #[test]
    fn huge_outlier_lands_in_the_overflow_bucket_without_huge_allocation() {
        // Regression: a single absurd sample used to allocate sample/width buckets.
        let mut h = Histogram::new(0.05);
        h.record(1e12);
        assert!(h.counts.len() <= Histogram::MAX_BUCKETS);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 1e12);
        // Percentiles saturate to the exact max, not the overflow bucket edge.
        assert_eq!(h.percentile(50.0), 1e12);
        // Mixing in normal samples keeps ordinary percentiles sane.
        for _ in 0..99 {
            h.record(1.0);
        }
        assert_eq!(h.count(), 100);
        assert!(h.percentile(50.0) <= 1.05 + 1e-9);
        assert_eq!(h.percentile(100.0), 1e12);
    }

    #[test]
    fn merge_equals_recording_into_one_histogram() {
        let a_samples = [0.1, 1.7, 3.2, 9.9];
        let b_samples = [0.4, 0.4, 25.0];
        let mut a = Histogram::new(0.5);
        let mut b = Histogram::new(0.5);
        let mut reference = Histogram::new(0.5);
        for &x in &a_samples {
            a.record(x);
            reference.record(x);
        }
        for &x in &b_samples {
            b.record(x);
            reference.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), reference.count());
        assert_eq!(a.sum(), reference.sum());
        assert_eq!(a.min(), reference.min());
        assert_eq!(a.max(), reference.max());
        assert_eq!(a.mean(), reference.mean());
        for p in [0.0, 25.0, 50.0, 99.0, 100.0] {
            assert_eq!(a.percentile(p), reference.percentile(p), "p = {p}");
        }
    }

    #[test]
    fn merge_with_empty_is_identity_in_both_directions() {
        let mut recorded = Histogram::new(1.0);
        recorded.record(2.5);
        recorded.record(7.0);

        // Empty into recorded: a no-op — the empty side's sentinel infinities
        // (min = +inf, max = -inf) must not leak.
        let mut a = recorded.clone();
        a.merge(&Histogram::new(1.0));
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 2.5);
        assert_eq!(a.max(), 7.0);

        // Recorded into empty: the empty side becomes the recorded one.
        let mut b = Histogram::new(1.0);
        b.merge(&recorded);
        assert_eq!(b.count(), 2);
        assert_eq!(b.min(), recorded.min());
        assert_eq!(b.max(), recorded.max());
        assert_eq!(b.p50(), recorded.p50());

        // Empty into empty stays empty and all-zeros.
        let mut c = Histogram::new(1.0);
        c.merge(&Histogram::new(1.0));
        assert!(c.is_empty());
        assert_eq!(c.min(), 0.0);
        assert_eq!(c.max(), 0.0);
    }

    #[test]
    fn merge_folds_overflow_buckets_together() {
        // Both sides hold samples saturated into the shared overflow bucket;
        // the merge adds those counts index-wise without re-bucketing, and the
        // exact maxima still combine.
        let mut a = Histogram::new(0.05);
        let mut b = Histogram::new(0.05);
        a.record(1e12);
        b.record(2e12);
        b.record(1.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!(a.counts.len() <= Histogram::MAX_BUCKETS);
        assert_eq!(a.counts[Histogram::MAX_BUCKETS - 1], 2);
        assert_eq!(a.max(), 2e12);
        // Percentiles inside the overflow bucket saturate to the exact max.
        assert_eq!(a.percentile(100.0), 2e12);
    }

    #[test]
    #[should_panic(expected = "different bucket widths")]
    fn merge_rejects_mismatched_bucket_widths() {
        let mut a = Histogram::new(0.5);
        a.merge(&Histogram::new(1.0));
    }

    #[test]
    fn negative_samples_clamp_to_zero() {
        let mut h = Histogram::new(1.0);
        h.record(-5.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.count(), 1);
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn zero_bucket_width_panics() {
        let _ = Histogram::new(0.0);
    }
}
