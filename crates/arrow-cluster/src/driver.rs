//! The process-tier [`Driver`]: replay a conformance schedule across real
//! `arrowd` processes, so the cross-tier agreement invariant covers process
//! isolation too — tier 4, the rung after the simulator and the in-process
//! reactor mesh.
//!
//! The replay contract matches the other live tiers exactly: each
//! `(node, object)` pair's acquires run sequentially (here on a worker thread
//! *inside that node's daemon*), distinct pairs run concurrently, and the
//! reconstructed outcome carries the same request multiset with fresh ids and
//! wall-clock times.

use crate::harness::{Cluster, ClusterConfig, WorkOutcome};
use arrow_core::driver::{acquire_sequences, Driver};
use arrow_core::prelude::*;
use netgraph::NodeId;
use std::path::PathBuf;
use std::time::Duration;

/// Locate the `arrowd` binary for harness use outside `cargo test` of this
/// crate (where `env!("CARGO_BIN_EXE_arrowd")` is the answer): the
/// `ARROWD_BIN` environment variable wins, then a sibling of the current
/// executable (how workspace binaries land in `target/<profile>/`).
pub fn locate_arrowd() -> Result<PathBuf, String> {
    if let Ok(path) = std::env::var("ARROWD_BIN") {
        let path = PathBuf::from(path);
        if path.is_file() {
            return Ok(path);
        }
        return Err(format!("ARROWD_BIN={} does not exist", path.display()));
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut dir = exe.parent().ok_or("executable has no parent directory")?;
    // Test binaries live one level down in target/<profile>/deps/.
    if dir.file_name().and_then(|n| n.to_str()) == Some("deps") {
        dir = dir.parent().ok_or("deps dir has no parent")?;
    }
    let candidate = dir.join("arrowd");
    if candidate.is_file() {
        return Ok(candidate);
    }
    Err(format!(
        "arrowd not found at {} — build it with `cargo build --release -p arrow-cluster` \
         or point ARROWD_BIN at it",
        candidate.display()
    ))
}

/// Tier 4: the process cluster (one OS process per node, journals on disk,
/// teardown over the control channel).
#[derive(Debug, Clone)]
pub struct ClusterDriver {
    /// Path to the `arrowd` binary.
    pub arrowd: PathBuf,
}

impl ClusterDriver {
    /// A driver launching the given `arrowd` binary.
    pub fn new(arrowd: impl Into<PathBuf>) -> ClusterDriver {
        ClusterDriver {
            arrowd: arrowd.into(),
        }
    }
}

impl Driver for ClusterDriver {
    fn name(&self) -> &'static str {
        "cluster"
    }

    fn supports(&self, config: &RunConfig) -> bool {
        config.protocol == ProtocolKind::Arrow
    }

    fn run(
        &self,
        instance: &Instance,
        schedule: &RequestSchedule,
        config: &RunConfig,
    ) -> Result<QueuingOutcome, RunError> {
        debug_assert!(self.supports(config));
        let work = acquire_sequences(schedule, instance.node_count())?;
        let transport =
            |node: NodeId, description: String| RunError::Transport { node, description };
        let k = schedule.object_id_bound();
        let grant_timeout = config.grant_timeout();
        let cfg = ClusterConfig::new(&self.arrowd, instance.tree().clone(), k.max(1));
        let mut cluster =
            Cluster::launch(cfg).map_err(|e| transport(0, format!("cluster launch: {e}")))?;

        // Worst case the deepest (node, object) pair's acquires all wait the
        // full grant timeout back to back; pad for process scheduling.
        let deepest = work.iter().map(|&(_, _, c)| c).max().unwrap_or(0) as u32;
        let deadline = grant_timeout * deepest.max(1) + Duration::from_secs(10);
        cluster
            .start_workload(&work, grant_timeout, 1)
            .map_err(|e| transport(0, format!("workload start: {e}")))?;
        let mut first_failure: Option<RunError> = None;
        for (node, outcome) in cluster.await_done(deadline) {
            match outcome {
                WorkOutcome::Done { failed: 0, .. } | WorkOutcome::Idle => {}
                WorkOutcome::Done {
                    first_failed_obj, ..
                } => {
                    first_failure.get_or_insert(RunError::GrantTimeout {
                        node,
                        obj: first_failed_obj.unwrap_or(ObjectId::DEFAULT),
                        waited_ms: grant_timeout.as_millis() as u64,
                    });
                }
                WorkOutcome::Dead => {
                    first_failure
                        .get_or_insert(transport(node, "daemon died during replay".to_string()));
                }
                WorkOutcome::TimedOut => {
                    first_failure.get_or_insert(RunError::GrantTimeout {
                        node,
                        obj: ObjectId::DEFAULT,
                        waited_ms: deadline.as_millis() as u64,
                    });
                }
            }
        }
        let report = cluster
            .shutdown()
            .map_err(|e| transport(0, format!("cluster shutdown: {e}")))?;
        if let Some(failure) = first_failure {
            return Err(failure);
        }
        report.into_outcome()
    }
}
