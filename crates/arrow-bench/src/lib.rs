//! # arrow-bench — the experiment harness
//!
//! One function per figure of the paper's evaluation (plus the theory-validation
//! sweeps), behind the figure binaries in `src/bin/` that print the tables. The
//! crate's other two binaries are `conformance`, the cross-tier differential
//! sweep, and `modelcheck`, the bounded model checker.
//!
//! | Experiment | Paper | Binary | Function |
//! |---|---|---|---|
//! | Total latency, arrow vs. centralized | Figure 10 | `fig10_latency` | [`experiments::figure_10`] |
//! | Hops per queuing operation | Figure 11 | `fig11_hops` | [`experiments::figure_11`] |
//! | Adversarial lower-bound instance | Figure 9 / Thm 4.1 | `fig9_lower_bound` | [`experiments::figure_9`] |
//! | Competitive-ratio validation | Thm 3.19 | `competitive_ratio` | [`experiments::ratio_sweep`] |
//! | Synchronous vs. asynchronous | Thm 3.21 | `async_vs_sync` | [`experiments::async_vs_sync`] |
//!
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
pub mod table;

pub use experiments::{
    async_vs_sync, figure_10, figure_11, figure_9, ratio_sweep, Fig10Row, Fig11Row, Fig9Row,
    RatioRow, SyncAsyncRow,
};
pub use table::Table;
