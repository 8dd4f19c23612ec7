//! The socket-tier [`Driver`]: replay a schedule over a real loopback-TCP mesh.
//!
//! Mirrors [`arrow_core::driver::ThreadDriver`] exactly — one worker per
//! `(node, object)` pair, acquires in schedule order — but every protocol message
//! crosses a real socket through [`arrow_net::NetRuntime`], with the latency law
//! derived from the case's [`RunConfig`] via [`NetConfig::from_run_config`].
//! Transport failures (an unreachable peer after the dial retry budget) come back
//! as [`RunError::Transport`], not panics, so a conformance sweep records them as
//! ordinary failures.
//!
//! The reactor delivers a frame in memory when one shard owns both endpoints and
//! over a socket otherwise, so a sweep replays every case at two shard counts
//! ([`NET_TIERS`]): the runtime default, which mixes the two transports, and a
//! single shard, where every hop is a memory move and no socket exists.

use arrow_core::driver::{acquire_sequences, Driver};
use arrow_core::prelude::*;
use arrow_net::{NetConfig, NetRuntime};
use arrow_trace::{NoProbe, Probe};
use desim::SimTime;
use netgraph::NodeId;
use std::time::Duration;

/// The socket tier's sweep configurations as `(tier name, reactor shard count)`:
/// the runtime default (`0`, auto-sized — cross-shard hops pay the wire,
/// same-shard hops are memory moves) and one shard (every hop a memory move).
pub const NET_TIERS: [(&str, usize); 2] = [("net", 0), ("net-1shard", 1)];

/// Tier 3: the socket runtime (loopback TCP peers, wire codec, latency injection).
#[derive(Debug, Clone, Copy)]
pub struct NetDriver {
    /// Wall-clock duration of one simulated time unit for latency injection.
    /// [`Duration::ZERO`] (the default) disables injection — conformance sweeps
    /// care about ordering contracts, not wall-clock latency, and instant links
    /// keep a 32-case sweep in CI territory.
    pub unit_latency: Duration,
    /// Reactor shard count ([`NetConfig::shards`]); `0` (the default) keeps the
    /// runtime's auto-sizing.
    pub shards: usize,
}

impl Default for NetDriver {
    fn default() -> Self {
        NetDriver {
            unit_latency: Duration::ZERO,
            shards: 0,
        }
    }
}

impl NetDriver {
    /// The instant-latency driver at reactor shard count `shards` (see
    /// [`NET_TIERS`]).
    pub fn with_shards(shards: usize) -> Self {
        NetDriver {
            shards,
            ..NetDriver::default()
        }
    }

    /// Like [`Driver::run`], with a recording probe per node (typically
    /// [`arrow_trace::TraceRecorder::wall_probe`]) so the replay leaves a causal
    /// event trace behind. [`NetRuntime::shutdown`] joins the node threads — and
    /// drops (flushes) the probes — inside this call, so the recorder holds every
    /// event once this returns.
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
        }
        .with_shards(self.shards);
        let grant_timeout = config.grant_timeout();
        let rt = NetRuntime::spawn_multi_probed(instance.tree(), k, cfg, probe_for);
        let mut workers = Vec::new();
        for ((node, obj), count) in acquire_sequences(schedule) {
            let h = rt.handle(node);
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
        let report = rt.shutdown();
        if let Some(failure) = first_failure {
            return Err(failure);
        }
        if let Some(f) = report.failures().first() {
            return Err(RunError::Transport {
                node: f.node,
                description: f.description.clone(),
            });
        }
        let stats = report.stats();
        let makespan = report
            .records()
            .iter()
            .map(|r| r.informed_at)
            .max()
            .unwrap_or(SimTime::ZERO);
        outcome_from_records(
            ProtocolKind::Arrow,
            report.schedule().requests().to_vec(),
            report.records().to_vec(),
            stats.queue_frames,
            stats.queue_frames + stats.token_frames,
            makespan,
        )
    }
}

impl Driver for NetDriver {
    fn name(&self) -> &'static str {
        NET_TIERS
            .iter()
            .find(|(_, shards)| *shards == self.shards)
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
        for (tier, shards) in NET_TIERS {
            let driver = NetDriver::with_shards(shards);
            assert_eq!(driver.name(), tier);
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
