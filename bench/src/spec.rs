//! The benchmark's catalogue: every workload and every metric by name, with
//! its unit, direction and — for end-to-end metrics — regression bound.
//!
//! `BENCHMARK.json` at the repository root is this catalogue rendered by
//! `bench --emit-benchmark-json`; a self-test holds the committed file to it.
//! `README.md` documents each entry at length.

use crate::json::Json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which the
    /// metric may worsen before a change is rejected.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

/// How long one run measures, in seconds (`run_seconds` of `BENCHMARK.json`
/// and the default of `--seconds`).
pub const RUN_SECONDS: u64 = 10;

/// `--smoke` divides every window by this.
pub const SMOKE_DIVISOR: f64 = 20.0;

/// A traced run measures windows of this share of `--seconds`; its numbers
/// are never used as end-to-end results.
pub const TRACED_WINDOW_SHARE: f64 = 1.0 / 3.0;

/// The command the driver runs from the root of a checkout.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "bench/Cargo.toml",
    "--",
];

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "sim-open-k1",
        why: "tier 1 analysis kernel: 10,000 open-loop requests on a 512-node complete graph; the desim event queue and the arrow automaton do all the work, sockets none (op = one simulated event)",
    },
    WorkloadSpec {
        name: "sim-closed-svc",
        why: "tier 1 Figure 10/11 kernel: 64 nodes x 300 closed-loop requests with service time; timers, direct acks and in-node re-issue weigh most, the event queue least (op = one simulated event)",
    },
    WorkloadSpec {
        name: "net-closed-k1",
        why: "tier 3, one object, 8 lock-step clients on 64 loopback nodes: every acquire crosses the wire, so the reactor cycle sets the pace and batching does nothing (op = one granted acquire)",
    },
    WorkloadSpec {
        name: "net-open-zipf",
        why: "tier 3, 16 Zipf objects, Poisson open loop up a 6000-16000/s ladder timed from due times: deep queues make coalescing and hand-off rate matter (op = one acquire granted within 50 ms)",
    },
    WorkloadSpec {
        name: "net-churn",
        why: "tier 3 with fault tolerance: crash/restart and link drop/restore of client-free nodes under 16 lock-step clients; epochs, re-issue and token regeneration on the hot path (op = one granted acquire)",
    },
    WorkloadSpec {
        name: "cluster-closed",
        why: "tier 4: 8 arrowd OS processes, 4 objects, Zipf-shaped closed-loop assignments; all that tier 3 pays plus control channel, journals and process scheduling (op = one granted acquire)",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the system sees. Every workload reports every one of these
/// from an untraced run; `WORKLOADS[..].why` names each workload's operation.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("cpu_us_per_op", "us", Better::Lower, 0.25),
];

/// Single-layer metrics, reported by a traced run. A workload whose path does
/// not include a layer reports that layer's metrics as 0.
pub const PER_LAYER: &[MetricSpec] = &[
    // netgraph + arrow_core::run (tier 1)
    lower("netgraph.instance_build_ms", "ms"),
    lower("run.call_ms_p50", "ms"),
    lower("run.call_ms_p99", "ms"),
    lower("run.residual_ns_per_event", "ns"),
    lower("run.sim_events", "count"),
    lower("run.total_messages", "count"),
    lower("run.total_latency", "units"),
    lower("run.makespan", "units"),
    lower("run.hops_per_request", "hops/req"),
    lower("run.events_per_request", "events/req"),
    // desim
    lower("desim.engine_ns_per_event", "ns"),
    lower("desim.queue_ns_per_op", "ns"),
    // arrow_core::order
    lower("order.assemble_ns_per_request", "ns"),
    // arrow_core::live::core (in-memory replay)
    lower("core.acquire_ns", "ns"),
    lower("core.on_queue_ns", "ns"),
    lower("core.on_token_ns", "ns"),
    lower("core.on_release_ns", "ns"),
    lower("core.on_epoch_ns", "ns"),
    lower("core.steps_per_acq", "steps/acq"),
    lower("core.us_per_acq", "us"),
    // arrow_net::wire
    lower("wire.encode_ns_per_frame", "ns"),
    lower("wire.scan_ns_per_frame", "ns"),
    lower("wire.bytes_per_frame", "B"),
    lower("wire.us_per_acq", "us"),
    // arrow_net reactor (NetStats window deltas + shard thread CPU)
    lower("reactor.queue_frames_per_acq", "frames/acq"),
    lower("reactor.token_frames_per_acq", "frames/acq"),
    lower("reactor.writes_per_acq", "calls/acq"),
    lower("reactor.reads_per_acq", "calls/acq"),
    lower("reactor.wakeups_per_acq", "wakeups/acq"),
    lower("reactor.bytes_per_acq", "B/acq"),
    higher("reactor.frames_per_write", "frames"),
    higher("reactor.events_per_wakeup_mean", "events"),
    lower("reactor.shard_queue_depth_mean", "cmds"),
    lower("reactor.would_block_retries", "count"),
    lower("reactor.connections", "count"),
    lower("reactor.shard_cpu_us_per_acq", "us"),
    lower("reactor.self_us_per_acq", "us"),
    // arrow_net::runtime (handle calls, spawn, teardown)
    lower("runtime.spawn_ms", "ms"),
    lower("runtime.mesh_ready_ms", "ms"),
    lower("runtime.issue_ns_p50", "ns"),
    lower("runtime.release_ns_p50", "ns"),
    higher("runtime.local_grant_share", "share"),
    lower("runtime.shutdown_ms", "ms"),
    lower("runtime.validate_ms", "ms"),
    // arrow_trace::registry
    lower("registry.inc_ns", "ns"),
    lower("registry.observe_ns", "ns"),
    // whole-process accounting and the decomposition
    lower("proc.user_us_per_acq", "us"),
    lower("proc.sys_us_per_acq", "us"),
    lower("proc.peak_rss_mb", "MB"),
    lower("client.driver_cpu_us_per_acq", "us"),
    lower("attr.cpu_us_per_acq", "us"),
    higher("attr.idle_share", "share"),
    lower("attr.unexplained_share", "share"),
    // the load driver's own view
    higher("client.samples", "count"),
    higher("client.acq_per_s", "1/s"),
    higher("client.slice_acq_per_s_p50", "1/s"),
    higher("client.slice_acq_per_s_p75", "1/s"),
    higher("client.slice_acq_per_s_p90", "1/s"),
    lower("client.p50_us", "us"),
    lower("client.p90_us", "us"),
    lower("client.p99_us", "us"),
    lower("client.p999_us", "us"),
    higher("client.max_rate_ok", "1/s"),
    lower("client.p50_us_r6000", "us"),
    lower("client.p50_us_r9000", "us"),
    lower("client.p50_us_r12000", "us"),
    lower("client.p50_us_r16000", "us"),
    lower("client.p99_us_r6000", "us"),
    lower("client.p99_us_r9000", "us"),
    lower("client.p99_us_r12000", "us"),
    lower("client.p99_us_r16000", "us"),
    lower("client.backlog_end_r6000", "count"),
    lower("client.backlog_end_r9000", "count"),
    lower("client.backlog_end_r12000", "count"),
    lower("client.backlog_end_r16000", "count"),
    lower("gen.lag_us_p99", "us"),
    lower("gen.max_outstanding", "count"),
    // fault injection and recovery
    higher("fault.cycles", "count"),
    higher("fault.token_regenerations", "count"),
    higher("fault.epochs_adopted", "count"),
    lower("fault.stale_epoch_drops", "count"),
    lower("fault.frames_dropped", "count"),
    lower("fault.outage_ms_p50", "ms"),
    lower("fault.outage_ms_max", "ms"),
    lower("fault.steady_gap_ms_p50", "ms"),
    // arrow_cluster harness + daemons
    lower("cluster.launch_ms", "ms"),
    lower("cluster.start_ms", "ms"),
    lower("cluster.shutdown_ms", "ms"),
    lower("cluster.merge_validate_ms", "ms"),
    lower("cluster.cpu_us_per_acq", "us"),
    lower("cluster.harness_cpu_us_per_acq", "us"),
    lower("cluster.peak_rss_kb_max", "kB"),
    lower("cluster.rss_kb_sum", "kB"),
    lower("cluster.queue_frames_per_acq", "frames/acq"),
    lower("cluster.token_frames_per_acq", "frames/acq"),
    lower("cluster.writes_per_acq", "calls/acq"),
    lower("cluster.wakeups_per_acq", "wakeups/acq"),
    higher("cluster.frames_per_write", "frames"),
    lower("cluster.acquire_p50_us_log2", "us"),
    lower("cluster.acquire_p99_us_log2", "us"),
    // arrow_trace probes + analysis::reconstruct
    lower("trace.overhead_share", "share"),
    higher("trace.complete_share", "share"),
    lower("trace.transit_us_p50", "us"),
    lower("trace.queue_wait_us_p50", "us"),
    lower("trace.grant_wait_us_p50", "us"),
    lower("trace.hops_per_request_mean", "hops/req"),
    lower("trace.stretch_max", "ratio"),
];

/// The open-loop rate ladder, in acquires per second.
pub const LADDER: [u32; 4] = [6000, 9000, 12000, 16000];

/// Look a metric up by name in either table.
pub fn metric(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    let metric = |m: &MetricSpec| {
        let mut pairs = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ];
        if let Some(b) = m.bound {
            pairs.push(("bound", Json::Num(b)));
        }
        Json::obj(pairs)
    };
    Json::obj([
        ("command", strings(COMMAND)),
        ("paths", strings(&["bench"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_are_inside_the_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = HashSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {}",
                w.name,
                w.why.len()
            );
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: {b}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = metric("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|c| c.len() <= 200));
    }

    #[test]
    fn every_ladder_step_has_its_metrics() {
        for rate in LADDER {
            for stem in ["client.p50_us_r", "client.p99_us_r", "client.backlog_end_r"] {
                assert!(metric(&format!("{stem}{rate}")).is_some(), "{stem}{rate}");
            }
        }
    }

    #[test]
    fn committed_benchmark_json_is_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let committed = crate::json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `bench --emit-benchmark-json > BENCHMARK.json`"
        );
    }
}
