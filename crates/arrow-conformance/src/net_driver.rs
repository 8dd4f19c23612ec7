//! The socket-tier [`Driver`]: replay a schedule on [`arrow_net::NetRuntime`]s.
//!
//! Replays the live tiers' concurrency shape
//! ([`arrow_core::driver::acquire_sequences`]) — one worker per `(node, object)`
//! pair, acquires in schedule order — on the reactor runtime, with the latency law derived from the case's [`RunConfig`] via
//! [`NetConfig::from_run_config`]. Transport failures (an unreachable peer after
//! the dial retry budget) come back as [`RunError::Transport`], not panics, so a
//! conformance sweep records them as ordinary failures.
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
use arrow_net::{NetConfig, NetHandle, NetReport, NetRuntime};
use arrow_trace::{NoProbe, Probe};
use netgraph::NodeId;
use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

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

/// Tier 3: the socket runtime (reactor shards, wire codec, latency injection).
#[derive(Debug, Clone, Copy)]
pub struct NetDriver {
    /// Wall-clock duration of one simulated time unit for latency injection.
    /// [`Duration::ZERO`] (the default) disables injection — conformance sweeps
    /// care about ordering contracts, not wall-clock latency, and instant links
    /// keep a 32-case sweep in CI territory.
    pub unit_latency: Duration,
    /// How the nodes are hosted; the default is [`NetHosting::Shards`]`(0)`.
    pub hosting: NetHosting,
}

impl Default for NetDriver {
    fn default() -> Self {
        NetDriver {
            unit_latency: Duration::ZERO,
            hosting: NetHosting::Shards(0),
        }
    }
}

impl NetDriver {
    /// The instant-latency driver hosting nodes as `hosting` says (see
    /// [`NET_TIERS`]).
    pub fn hosted(hosting: NetHosting) -> Self {
        NetDriver {
            hosting,
            ..NetDriver::default()
        }
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
        if let Some(r) = schedule
            .requests()
            .iter()
            .find(|r| r.node >= instance.node_count())
        {
            return Err(RunError::Transport {
                node: r.node,
                description: format!("schedule names node {} outside the instance", r.node),
            });
        }
        let k = schedule.object_id_bound();
        let cfg = if self.unit_latency.is_zero() {
            NetConfig::instant()
        } else {
            NetConfig::from_run_config(config, self.unit_latency)
        };
        let grant_timeout = config.grant_timeout();
        let tree = instance.tree();
        let (replayed, report) = match self.hosting {
            NetHosting::Shards(shards) => {
                let rt =
                    NetRuntime::spawn_multi_probed(tree, k, cfg.with_shards(shards), probe_for);
                let replayed = replay(|v| rt.handle(v), schedule, grant_timeout);
                (replayed, rt.shutdown())
            }
            NetHosting::DaemonPerNode => {
                let daemons = spawn_daemons(instance, k, cfg)?;
                let replayed = replay(|v| daemons[v].handle(v), schedule, grant_timeout);
                let reports = daemons.into_iter().map(NetRuntime::shutdown);
                (replayed, NetReport::merge(reports))
            }
        };
        replayed?;
        report.into_outcome()
    }
}

/// One daemon-mode runtime per node of `instance`'s tree, each given the
/// address table of every node's bound loopback listener.
fn spawn_daemons(
    instance: &Instance,
    objects: usize,
    cfg: NetConfig,
) -> Result<Vec<NetRuntime>, RunError> {
    let bind_failed = |node: NodeId, e: std::io::Error| RunError::Transport {
        node,
        description: format!("binding a loopback listener: {e}"),
    };
    let mut listeners = Vec::with_capacity(instance.node_count());
    let mut addrs: Vec<SocketAddr> = Vec::with_capacity(instance.node_count());
    for v in 0..instance.node_count() {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| bind_failed(v, e))?;
        addrs.push(listener.local_addr().map_err(|e| bind_failed(v, e))?);
        listeners.push(listener);
    }
    Ok(listeners
        .into_iter()
        .enumerate()
        .map(|(v, l)| {
            NetRuntime::spawn_daemon(instance.tree(), objects, cfg, v, l, addrs.clone(), 0)
        })
        .collect())
}

/// Run every `(node, object)` acquire sequence of `schedule` on its own worker
/// thread through `handle`, and wait for all of them. The first failure comes
/// back; every worker is joined either way.
fn replay(
    handle: impl Fn(NodeId) -> NetHandle,
    schedule: &RequestSchedule,
    grant_timeout: Duration,
) -> Result<(), RunError> {
    let mut workers = Vec::new();
    for ((node, obj), count) in acquire_sequences(schedule) {
        let h = handle(node);
        workers.push(std::thread::spawn(move || -> Result<(), RunError> {
            for _ in 0..count {
                // Bounded wait: a grant that never arrives (lost token) must
                // become a recorded failure, not a hung sweep. A timeout maps
                // to the typed starvation error; a transport failure keeps
                // its own variant.
                let req = h
                    .try_acquire_object_timeout(obj, grant_timeout)
                    .map_err(|f| {
                        if f.description.contains("not granted within") {
                            RunError::GrantTimeout {
                                node: f.node,
                                obj,
                                waited_ms: grant_timeout.as_millis() as u64,
                            }
                        } else {
                            RunError::Transport {
                                node: f.node,
                                description: f.description,
                            }
                        }
                    })?;
                h.release_object(obj, req);
            }
            Ok(())
        }));
    }
    let mut first_failure: Option<RunError> = None;
    for w in workers {
        match w.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                first_failure.get_or_insert(e);
            }
            Err(_) => {
                first_failure.get_or_insert(RunError::Transport {
                    node: 0,
                    description: "a replay worker thread panicked".to_string(),
                });
            }
        }
    }
    first_failure.map_or(Ok(()), Err)
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
    use arrow_core::driver::acquire_sequences;
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
                acquire_sequences(&outcome.schedule),
                acquire_sequences(&schedule),
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
    }
}
