//! The process-isolated execution tier of the arrow directory: every node of
//! the spanning tree is its **own OS process** (`arrowd`), and this crate is
//! the harness that launches, drives, observes and tears down such clusters.
//!
//! The in-process tiers — the simulator and the reactor mesh — host every
//! node inside one process, which caps what a benchmark can
//! claim (shared fd budget, one scheduler, harness and nodes on the same
//! cores) and what a fault test can inject (simulated crashes). This tier
//! removes both caps: protocol state lives in per-process memory, crashes are
//! real `SIGKILL`ed PIDs, and the per-node costs (CPU, RSS) are separately
//! measurable from `/proc`.
//!
//! | module | role |
//! |---|---|
//! | [`control`] | harness ↔ daemon line protocol + tree wire encoding |
//! | [`harness`] | [`harness::Cluster`]: launch, workloads, churn, teardown |
//! | [`journal`] | per-daemon on-disk protocol journals |
//! | [`procstat`] | `/proc/<pid>` CPU/RSS scraping |
//! | [`driver`] | [`driver::ClusterDriver`] for the conformance harness |
//!
//! The daemon itself is the `arrowd` binary of this crate; its protocol
//! engine is [`arrow_net::NetRuntime::spawn_daemon`] — the same reactor and
//! [`arrow_core::live::ArrowCore`] state machine as the in-process socket
//! tier, so process isolation changes *where* nodes run, never *what* they
//! run.
//!
//! The tree every daemon is handed on its command line is the harness's
//! single source of topology truth, round-tripped through a compact wire
//! encoding:
//!
//! ```
//! use arrow_cluster::control::{tree_from_wire, tree_to_wire};
//! use netgraph::{generators, RootedTree};
//!
//! let tree = RootedTree::from_tree_graph(&generators::balanced_binary_tree(7), 0);
//! let wire = tree_to_wire(&tree); // "r,0,0,1,1,2,2" — entry v is v's parent
//! let back = tree_from_wire(&wire).unwrap();
//! assert_eq!(back.node_count(), 7);
//! assert_eq!(back.parent(5), Some(2));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod control;
pub mod driver;
pub mod harness;
pub mod journal;
pub mod procstat;

pub use driver::{locate_arrowd, ClusterDriver};
pub use harness::{Cluster, ClusterConfig, ClusterReport, NodeReport, WorkOutcome};
pub use procstat::ProcUsage;
