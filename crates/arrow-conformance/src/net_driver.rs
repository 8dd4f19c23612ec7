//! The socket-tier [`Driver`]: replay a schedule on [`arrow_net::NetRuntime`]s.
//!
//! Replays the live tiers' concurrency shape
//! ([`arrow_core::driver::acquire_sequences`]) — one worker per `(node, object)`
//! pair, acquires in schedule order — on the reactor runtime with instant
//! links, through the one live replay client ([`arrow_net::replay`]): one
//! attempt per acquire, bounded by the case's grant timeout. A starved
//! acquire comes back as [`RunError::GrantTimeout`] and a transport failure
//! (an unreachable peer after the dial retry budget) as
//! [`RunError::Transport`], not panics, so a conformance sweep records them as
//! ordinary failures.
//!
//! A runtime that hosts every node moves each frame in memory — inside a shard,
//! or through the destination shard's inbox — and only a node another runtime
//! hosts is reached over a socket. A sweep therefore replays every case three
//! ways ([`NET_TIERS`]): one runtime on four shards (memory across the shards'
//! threads), one runtime on one shard (memory only), and one daemon-mode
//! runtime per node in this process (every hop on loopback TCP). The first
//! names its shard count rather than taking the runtime's default, which is
//! one shard per usable CPU: on a one-CPU host the default would silently
//! repeat `net-1shard` and leave the cross-shard inbox hand-off, incarnation
//! stamps and `Done` markers unswept.

use arrow_core::driver::{acquire_sequences, Driver};
use arrow_core::prelude::*;
use arrow_net::replay::{daemon_mesh, Client};
use arrow_net::{Listener, NetConfig, NetReport, NetRuntime};
use arrow_trace::{NoProbe, Probe};
use netgraph::NodeId;

/// How a [`NetDriver`] hosts an instance's nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetHosting {
    /// One runtime hosting every node on this many reactor shards (`0`
    /// auto-sizes): every hop is a memory move.
    Shards(usize),
    /// One daemon-mode runtime per node, sharing one address table — the shape
    /// of an `arrowd` cluster inside one process: every hop crosses loopback
    /// TCP.
    DaemonPerNode,
}

/// The socket tier's sweep configurations as `(tier name, hosting)`: four
/// shards (`net`, memory hops across shard threads on any host), one shard
/// (`net-1shard`, memory hops on one thread) and one daemon per node
/// (`net-wire`, every hop on the wire).
pub const NET_TIERS: [(&str, NetHosting); 3] = [
    ("net", NetHosting::Shards(4)),
    ("net-1shard", NetHosting::Shards(1)),
    ("net-wire", NetHosting::DaemonPerNode),
];

/// Tier 3: the socket runtime (reactor shards, wire codec) with instant
/// links — conformance sweeps care about ordering contracts, not wall-clock
/// latency, and instant links keep a 32-case sweep in CI territory.
#[derive(Debug, Clone, Copy)]
pub struct NetDriver {
    /// How the nodes are hosted; the default is [`NetHosting::Shards`]`(0)`.
    pub hosting: NetHosting,
}

impl Default for NetDriver {
    fn default() -> Self {
        NetDriver::hosted(NetHosting::Shards(0))
    }
}

impl NetDriver {
    /// The driver hosting nodes as `hosting` says (see [`NET_TIERS`]).
    pub fn hosted(hosting: NetHosting) -> Self {
        NetDriver { hosting }
    }

    /// Like [`Driver::run`], with a recording probe per node (typically
    /// [`arrow_trace::TraceRecorder::wall_probe`]) so the replay leaves a causal
    /// event trace behind. [`NetRuntime::shutdown`] joins the node threads — and
    /// drops (flushes) the probes — inside this call, so the recorder holds every
    /// event once this returns. Daemon-mode runtimes carry no probes, so with
    /// [`NetHosting::DaemonPerNode`] `probe_for` is never called.
    pub fn run_probed<P: Probe>(
        &self,
        instance: &Instance,
        schedule: &RequestSchedule,
        config: &RunConfig,
        probe_for: impl FnMut(NodeId) -> P,
    ) -> Result<QueuingOutcome, RunError> {
        debug_assert!(self.supports(config));
        let work = acquire_sequences(schedule, instance.node_count())?;
        let k = schedule.object_id_bound();
        let cfg = NetConfig::instant();
        let client = Client::new(config.grant_timeout(), 1);
        let tree = instance.tree();
        let (tally, report) = match self.hosting {
            NetHosting::Shards(shards) => {
                let rt =
                    NetRuntime::spawn_multi_probed(tree, k, cfg.with_shards(shards), probe_for);
                let tally = client.spawn(work, |v| rt.handle(v)).join();
                (tally, rt.shutdown())
            }
            NetHosting::DaemonPerNode => {
                let daemons = daemon_mesh(tree, k, cfg, Listener::loopback, |_, _| {})?;
                let tally = client.spawn(work, |v| daemons[v].handle(v)).join();
                let reports = daemons.into_iter().map(NetRuntime::shutdown);
                (tally, NetReport::merge(reports))
            }
        };
        if let Some((_, failure)) = tally.failures.into_iter().next() {
            return Err(failure);
        }
        report.into_outcome()
    }
}

impl Driver for NetDriver {
    fn name(&self) -> &'static str {
        NET_TIERS
            .iter()
            .find(|(_, hosting)| *hosting == self.hosting)
            .map_or("net", |(tier, _)| tier)
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
        self.run_probed(instance, schedule, config, |_| NoProbe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::{CaseSpec, GraphKind, ReplayCase, WorkloadKind};
    use crate::churn::run_churn_case;
    use desim::SimTime;
    use netgraph::spanning::SpanningTreeKind;

    #[test]
    fn net_driver_replays_a_multi_object_schedule_over_sockets() {
        let instance = Instance::complete_uniform(6, SpanningTreeKind::BalancedBinary);
        let triples: Vec<(usize, SimTime, ObjectId)> = (0..10)
            .map(|i| {
                (
                    i % 6,
                    SimTime::from_units(i as u64),
                    ObjectId((i % 2) as u32),
                )
            })
            .collect();
        let schedule = RequestSchedule::from_object_pairs(&triples);
        let cfg = RunConfig::analysis(ProtocolKind::Arrow);
        for (tier, hosting) in NET_TIERS {
            let driver = NetDriver::hosted(hosting);
            assert_eq!(driver.name(), tier);
            assert!(!driver.supports(&RunConfig::analysis(ProtocolKind::Centralized)));
            let outcome = driver.run(&instance, &schedule, &cfg).unwrap();
            assert_eq!(outcome.request_count(), 10, "{tier}");
            assert_eq!(
                acquire_sequences(&outcome.schedule, 6),
                acquire_sequences(&schedule, 6),
                "{tier}"
            );
            let total: usize = outcome.orders.iter().map(|(_, o)| o.len()).sum();
            assert_eq!(total, 10, "{tier}");
        }
    }

    #[test]
    fn net_driver_rejects_out_of_range_nodes() {
        let instance = Instance::complete_uniform(4, SpanningTreeKind::BalancedBinary);
        let schedule = RequestSchedule::from_pairs(&[(7, SimTime::ZERO)]);
        let cfg = RunConfig::analysis(ProtocolKind::Arrow);
        let err = NetDriver::default()
            .run(&instance, &schedule, &cfg)
            .unwrap_err();
        assert!(matches!(err, RunError::Transport { node: 7, .. }));

        // The churn path refuses the same node before any tier runs.
        let mut case = ReplayCase::generate(CaseSpec {
            seed: 1,
            nodes: 4,
            graph: GraphKind::Complete,
            tree: SpanningTreeKind::BalancedBinary,
            objects: 1,
            requests: 4,
            workload: WorkloadKind::Zipf,
            sync: SyncMode::Synchronous,
            async_lo: 0.05,
        });
        case.requests.push((7, 0, 0));
        let (tiers, violations) = run_churn_case(&case, true);
        assert!(tiers.is_empty());
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].detail.contains("node 7 outside the instance"));
    }
}
