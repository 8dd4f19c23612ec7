//! # arrow-bench — the experiment harness
//!
//! One function per figure of the paper's evaluation (plus the theory-validation
//! sweeps), shared between the runnable binaries (`src/bin/*.rs`, which print the
//! tables) and the Criterion benchmarks (`benches/*.rs`, which time the kernels).
//!
//! | Experiment | Paper | Binary | Function |
//! |---|---|---|---|
//! | Total latency, arrow vs. centralized | Figure 10 | `fig10_latency` | [`experiments::figure_10`] |
//! | Hops per queuing operation | Figure 11 | `fig11_hops` | [`experiments::figure_11`] |
//! | Adversarial lower-bound instance | Figure 9 / Thm 4.1 | `fig9_lower_bound` | [`experiments::figure_9`] |
//! | Competitive-ratio validation | Thm 3.19 | `competitive_ratio` | [`experiments::ratio_sweep`] |
//! | Synchronous vs. asynchronous | Thm 3.21 | `async_vs_sync` | [`experiments::async_vs_sync`] |
//! | Multi-object directory throughput | directory setting (Sec. 1) | `bench_multi_object` | [`multi_object::multi_object_sweep`] |
//! //!
//! ## Quick example
//!
//! Run a miniature Theorem 3.19 validation sweep — every measured competitive
//! ratio must certify the bound (or be flagged degenerate, never silently
//! clamped):
//!
//! ```
//! use arrow_bench::ratio_sweep;
//!
//! let rows = ratio_sweep(8, 6, 1);
//! assert!(!rows.is_empty());
//! for row in &rows {
//!     assert!(
//!         row.report.within_bound(),
//!         "{}: ratio {} exceeds the Theorem 3.19 bound {}",
//!         row.label, row.report.ratio, row.report.theorem_bound
//!     );
//! }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod meta;
pub mod multi_object;
pub mod table;

pub use experiments::{
    async_vs_sync, figure_10, figure_11, figure_9, ratio_sweep, Fig10Row, Fig11Row, Fig9Row,
    RatioRow, SyncAsyncRow,
};
pub use multi_object::{
    measure_multi_object, multi_object_sweep, MultiObjectReport, MultiObjectRow,
};
pub use table::Table;

/// Map `items` through `f` on scoped threads, one contiguous chunk of items per
/// available CPU, and return the results in input order: element `i` is
/// `f(items[i])` whatever the thread count or scheduling, so a parallel sweep
/// prints exactly the rows of its serial evaluation.
pub(crate) fn par_map<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let threads = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(items.len());
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut items: Vec<Option<T>> = items.into_iter().map(Some).collect();
    let mut rows: Vec<Option<R>> = items.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        for (items, rows) in items.chunks_mut(chunk).zip(rows.chunks_mut(chunk)) {
            let f = &f;
            scope.spawn(move || {
                for (item, row) in items.iter_mut().zip(rows) {
                    *row = item.take().map(f);
                }
            });
        }
    });
    rows.into_iter()
        .map(|row| row.expect("every chunk ran to completion"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::par_map;

    #[test]
    fn preserves_input_order() {
        let v: Vec<usize> = (0..1000).collect();
        assert_eq!(
            par_map(v.clone(), |x| x * 2),
            v.iter().map(|x| x * 2).collect::<Vec<_>>()
        );
    }

    #[test]
    fn matches_serial_map_exactly() {
        let inputs: Vec<u64> = (0..257).map(|i| i * 31 + 7).collect();
        let f = |x: u64| x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (x >> 3);
        let serial: Vec<u64> = inputs.iter().copied().map(f).collect();
        assert_eq!(par_map(inputs, f), serial);
    }

    #[test]
    fn empty_and_single_item() {
        assert!(par_map(Vec::<i32>::new(), |x| x).is_empty());
        assert_eq!(par_map(vec![5], |x| x + 1), vec![6]);
    }
}
