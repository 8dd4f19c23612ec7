//! # arrow-conformance — the cross-tier conformance harness
//!
//! The repository executes the arrow protocol of the paper in three independent
//! tiers — the discrete-event simulator, the in-process thread runtime and the
//! loopback-TCP socket runtime — plus the centralized baseline. This crate is the
//! correctness backstop that keeps them honest: it generates seeded random cases
//! (topology × spanning tree × workload × object count × synchrony), runs each
//! case through every applicable tier behind the shared
//! [`arrow_core::driver::Driver`] seam, and checks one invariant suite on every
//! outcome:
//!
//! * per-object queuing-order validity (via the typed checked run paths),
//! * exactly-once queuing,
//! * token conservation (one unbroken grant chain per object, no forks),
//! * per-link FIFO delivery (simulator traces),
//! * structural message-count bounds,
//! * the Theorem 3.19 competitive-ratio bound where the analysis applies
//!   (synchronous, single object, arrow, non-degenerate lower bound).
//!
//! Every failure is turned into a **replay file** ([`case::ReplayCase`]) — a tiny
//! text artifact that pins the exact topology and request list — after automatic
//! **shrinking** ([`shrink::shrink`]) dropped every request and node not needed to
//! reproduce. `cargo run -p arrow-bench --bin conformance -- --replay <file>`
//! re-runs it as a one-command repro.
//!
//! The `conformance` binary in `arrow-bench` drives [`sweep::run_sweep`]; CI runs
//! the fixed-seed smoke profile ([`sweep::SweepOptions::smoke`]) on every change.
//!
//! ## Quick example
//!
//! Derive one seeded case, round-trip it through the replay text format, and
//! check it on the simulator tier:
//!
//! ```
//! use arrow_conformance::{derive_spec, run_case, ReplayCase, SweepOptions};
//!
//! let mut opts = SweepOptions::smoke();
//! opts.include_thread = false; // sim tier only: doctests stay fast
//! opts.include_net = false;
//!
//! let case = ReplayCase::generate(derive_spec(&opts, 0));
//! let text = case.to_replay_text();
//! assert_eq!(ReplayCase::from_replay_text(&text).unwrap(), case);
//!
//! let (tiers, violations) = run_case(&case, &opts);
//! assert!(tiers.iter().any(|t| t == "sim"));
//! assert!(violations.is_empty(), "{violations:?}");
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod case;
pub mod churn;
pub mod invariants;
pub mod net_driver;
pub mod shrink;
pub mod sweep;
pub mod trace;

pub use case::{CaseSpec, GraphKind, ReplayCase, WorkloadKind};
pub use churn::run_churn_case;
pub use invariants::{InvariantKind, Violation};
pub use net_driver::{NetDriver, NetHosting};
pub use shrink::shrink;
pub use sweep::{
    derive_spec, run_case, run_case_counted, run_replay, run_sweep, CaseResult, SweepOptions,
    SweepReport,
};
pub use trace::{check_trace_coverage, trace_case, trace_sim_case, write_case_trace};
