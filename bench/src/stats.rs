//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark prints is read off the sorted `u64`
//! nanosecond samples themselves (nearest-rank), never off a histogram, and is
//! printed with its sample count.

/// The `q`-quantile (`0 < q <= 1`) of ascending `sorted` samples by the
/// nearest-rank rule: the smallest sample such that at least `ceil(q * n)`
/// samples are less than or equal to it. `0` for an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorted samples with the percentiles the reports use.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<u64>,
}

impl Samples {
    /// Take ownership of raw samples and sort them.
    pub fn new(mut raw: Vec<u64>) -> Samples {
        raw.sort_unstable();
        Samples { sorted: raw }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank quantile, in the samples' unit.
    pub fn q(&self, q: f64) -> u64 {
        percentile(&self.sorted, q)
    }

    /// Nearest-rank quantile of nanosecond samples, in microseconds.
    pub fn q_us(&self, q: f64) -> f64 {
        self.q(q) as f64 / 1e3
    }

    /// Nearest-rank quantile of nanosecond samples, in milliseconds.
    pub fn q_ms(&self, q: f64) -> f64 {
        self.q(q) as f64 / 1e6
    }
}

/// Median of `values` (mean of the two middle values for an even count; `0.0`
/// when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimRng;

    /// The definition, spelled out: the smallest sample with at least
    /// `ceil(q * n)` samples at or below it.
    fn brute_force(samples: &[u64], q: f64) -> u64 {
        let need = ((q * samples.len() as f64).ceil() as usize).max(1);
        let mut candidates: Vec<u64> = samples.to_vec();
        candidates.sort_unstable();
        for &c in &candidates {
            if samples.iter().filter(|&&s| s <= c).count() >= need {
                return c;
            }
        }
        *candidates.last().unwrap()
    }

    #[test]
    fn percentile_matches_brute_force() {
        let mut rng = SimRng::new(7);
        for n in [1usize, 2, 3, 10, 99, 100, 101, 257] {
            let raw: Vec<u64> = (0..n).map(|_| rng.uniform_u64(0, 50)).collect();
            let samples = Samples::new(raw.clone());
            for q in [0.001, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(samples.q(q), brute_force(&raw, q), "n={n} q={q}");
            }
        }
    }

    #[test]
    fn empty_and_singleton_samples() {
        assert_eq!(Samples::new(vec![]).q(0.5), 0);
        let one = Samples::new(vec![42]);
        assert_eq!((one.q(0.01), one.q(0.5), one.q(1.0)), (42, 42, 42));
        assert_eq!(one.q_us(0.5), 0.042);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
