//! The two tier-1 workloads: whole simulator runs, repeated.
//!
//! * `sim-open-k1` — `Instance::complete_uniform(512, BalancedBinary)`,
//!   10,000 uniform-random open-loop requests over a short horizon,
//!   `RunConfig::analysis(Arrow)`: the kernel of `BENCH_sim_throughput.json`.
//!   Thousands of requests are in flight at once, so the event queue is deep
//!   and `desim` plus the arrow automaton do all the work.
//! * `sim-closed-svc` — 64 nodes, each issuing 300 requests closed-loop with a
//!   0.05 service time, `RunConfig::experiment(Arrow, 0.05)`: the Figure 10/11
//!   kernel. The same two layers used differently: timers, direct acks and
//!   in-node re-issue — the harness glue — weigh most.
//!
//! One operation is one full run. Its exact simulated statistics must be the
//! same on every repetition, and for seed 1 equal the recorded constants: a
//! change that only makes the simulator faster cannot move them.

use super::{emit_trace, write_artefacts, SETUP_REPS};
use crate::layers;
use crate::procfs::CpuSnapshot;
use crate::report::{Report, RunArgs};
use crate::span::{self, SpanLog};
use crate::stats::{median, Samples};
use arrow_core::prelude::*;
use arrow_core::run::run_schedule_probed;
use arrow_trace::analysis::reconstruct;
use arrow_trace::TraceRecorder;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Exact simulated statistics of the two tier-1 kernels for seed 1. A change
/// that only makes the simulator faster must leave them identical; a change
/// that moves them changed the protocol or the harness, not its speed.
/// (`BENCHMARK.json` admits no extra keys, so they are recorded here.)
#[derive(Debug, Clone, Copy, PartialEq)]
struct SimExact {
    sim_events: u64,
    total_messages: u64,
    total_latency: f64,
    makespan: f64,
    requests: u64,
    protocol_messages: u64,
}

/// What a kernel runs: an open-loop schedule or a closed-loop spec.
enum Input {
    Open(RequestSchedule),
    Closed(Workload),
}

pub struct Kernel {
    pub name: &'static str,
    nodes: usize,
    build: fn(seed: u64) -> (Input, RunConfig),
    /// Mean standing depth of the event queue, for `desim.queue_ns_per_op`:
    /// not observable from outside the simulator, so stated. An open-loop
    /// schedule is queued whole at the start and drains linearly (half its
    /// requests on average); a closed loop holds a few events per node.
    queue_depth: usize,
    /// Messages the relay twin keeps in flight (`desim.engine_ns_per_event`).
    relay_chains: usize,
    /// The exact statistics for seed 1.
    expected_seed1: SimExact,
}

const OPEN_REQUESTS: usize = 10_000;
const OPEN_NODES: usize = 512;

pub const OPEN_K1: Kernel = Kernel {
    name: "sim-open-k1",
    nodes: OPEN_NODES,
    build: |seed| {
        let horizon = 4.0 * OPEN_REQUESTS as f64 / OPEN_NODES as f64;
        (
            Input::Open(workload::uniform_random(
                OPEN_NODES,
                OPEN_REQUESTS,
                horizon,
                seed,
            )),
            RunConfig::analysis(ProtocolKind::Arrow),
        )
    },
    queue_depth: OPEN_REQUESTS / 2,
    relay_chains: OPEN_NODES,
    expected_seed1: SimExact {
        sim_events: 24_406,
        total_messages: 14_406,
        total_latency: 14_406.0,
        makespan: 93.335137,
        requests: 10_000,
        protocol_messages: 14_406,
    },
};

const CLOSED_NODES: usize = 64;
const CLOSED_SERVICE: f64 = 0.05;

pub const CLOSED_SVC: Kernel = Kernel {
    name: "sim-closed-svc",
    nodes: CLOSED_NODES,
    build: |_seed| {
        // A closed loop generates its own requests: the seed has nothing to
        // drive, and every seed runs the same input.
        (
            Input::Closed(Workload::ClosedLoop(ClosedLoopSpec {
                requests_per_node: 300,
                local_service_time: CLOSED_SERVICE,
            })),
            RunConfig::experiment(ProtocolKind::Arrow, CLOSED_SERVICE),
        )
    },
    queue_depth: 2 * CLOSED_NODES,
    relay_chains: CLOSED_NODES,
    expected_seed1: SimExact {
        sim_events: 40_478,
        total_messages: 10_639,
        total_latency: 6988.8,
        makespan: 463.4,
        requests: 19_200,
        protocol_messages: 6_639,
    },
};

fn exact_of(outcome: &QueuingOutcome) -> SimExact {
    SimExact {
        sim_events: outcome.sim_events,
        total_messages: outcome.total_messages,
        total_latency: outcome.total_latency,
        makespan: outcome.makespan,
        requests: outcome.request_count() as u64,
        protocol_messages: outcome.protocol_messages,
    }
}

fn call(
    instance: &Instance,
    input: &Input,
    config: &RunConfig,
) -> Result<QueuingOutcome, RunError> {
    match input {
        Input::Open(schedule) => run_schedule_checked(instance, schedule, config),
        Input::Closed(workload) => run_checked(instance, workload, config),
    }
}

pub fn run(kernel: &Kernel, args: &RunArgs) -> Report {
    let mut report = Report::new(kernel.name, args);
    let mut spans = SpanLog::new();
    crate::affinity::pin_workload(&mut report);
    let window = Duration::from_secs_f64(args.window_s());
    let warm = window.mul_f64(0.1);
    report.note(format!(
        "runs on {} nodes repeated; warm-up {warm:?}, window {window:?}; one operation = one \
         simulated event: ops_per_s = events of one run / median wall time of a run, \
         cpu_us_per_op = process CPU over the window / events simulated in it",
        kernel.nodes
    ));

    // Set-up: build the instance and the input, and run once cold (the first
    // run computes the instance's lazily cached distance matrix).
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut build_ms = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let setup = spans.open("setup", span::NONE, 0);
        let instance = spans.scope("netgraph.build", setup, |_, _| {
            Instance::complete_uniform(kernel.nodes, SpanningTreeKind::BalancedBinary)
        });
        build_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let (input, config) =
            spans.scope("workload.generate", setup, |_, _| (kernel.build)(args.seed));
        let cold = spans.scope("run.cold", setup, |_, _| call(&instance, &input, &config));
        spans.close(setup);
        setup_s.push(t0.elapsed().as_secs_f64());
        built = Some((instance, input, config, cold));
    }
    report.put("setup_s", median(&setup_s));
    report.put("netgraph.instance_build_ms", median(&build_ms));
    let (instance, input, config, cold) = built.expect("SETUP_REPS is at least 1");
    let reference = match cold {
        Ok(outcome) => outcome,
        Err(e) => {
            report.check(false, || format!("the cold run failed: {e}"));
            return report;
        }
    };
    let exact = exact_of(&reference);
    if args.seed == 1 {
        let want = kernel.expected_seed1;
        report.check(exact == want, || {
            format!("seed 1 statistics moved: got {exact:?}, recorded {want:?}")
        });
    }

    // Warm-up, then the measured calls.
    let t0 = Instant::now();
    while t0.elapsed() < warm {
        std::hint::black_box(call(&instance, &input, &config).is_ok());
    }
    let mut call_ns = Vec::new();
    let cpu_before = CpuSnapshot::take();
    let begin = Instant::now();
    while begin.elapsed() < window || call_ns.is_empty() {
        let t0 = Instant::now();
        let outcome = call(&instance, &input, &config);
        let t1 = Instant::now();
        call_ns.push(t1.duration_since(t0).as_nanos() as u64);
        if args.traced {
            spans.record(
                "run.call",
                spans.at(t0),
                spans.at(t1),
                span::NONE,
                call_ns.len() as u64,
            );
        }
        report.attempted += exact.requests;
        match outcome {
            Ok(outcome) => {
                let got = exact_of(&outcome);
                report.check(got == exact, || {
                    format!("repetition {} differs: {got:?} vs {exact:?}", call_ns.len())
                });
            }
            Err(e) => {
                report.failed += exact.requests;
                report.check(false, || {
                    format!("repetition {} failed: {e}", call_ns.len())
                });
            }
        }
    }
    let cpu_s = CpuSnapshot::take().since(&cpu_before, None).total_s();
    let calls = Samples::new(call_ns);
    report.put(
        "cpu_us_per_op",
        cpu_s * 1e6 / (calls.len() as f64 * exact.sim_events as f64).max(1.0),
    );
    let median_call_s = calls.q(0.5) as f64 / 1e9;
    report.put(
        "ops_per_s",
        exact.sim_events as f64 / median_call_s.max(1e-12),
    );
    report.put("client.samples", calls.len() as f64);
    report.put("run.call_ms_p50", calls.q_ms(0.5));
    report.put("run.call_ms_p99", calls.q_ms(0.99));
    report.put("run.sim_events", exact.sim_events as f64);
    report.put("run.total_messages", exact.total_messages as f64);
    report.put("run.total_latency", exact.total_latency);
    report.put("run.makespan", exact.makespan);
    report.put("run.hops_per_request", reference.hops_per_request);
    report.put(
        "run.events_per_request",
        exact.sim_events as f64 / exact.requests.max(1) as f64,
    );

    if args.traced {
        let engine =
            layers::desim_engine_ns_per_event(kernel.nodes, kernel.relay_chains, exact.sim_events);
        let assemble = layers::order_assemble_ns_per_request(&reference);
        report.put("desim.engine_ns_per_event", engine);
        report.put(
            "desim.queue_ns_per_op",
            layers::desim_queue_ns_per_op(kernel.queue_depth),
        );
        report.put("order.assemble_ns_per_request", assemble);
        let call_ns_per_event = calls.q(0.5) as f64 / exact.sim_events as f64;
        let assemble_per_event = assemble * exact.requests as f64 / exact.sim_events as f64;
        report.put(
            "run.residual_ns_per_event",
            call_ns_per_event - engine - assemble_per_event,
        );
        report.put("proc.peak_rss_mb", crate::procfs::peak_rss_mb());

        // Probed twin (open-loop kernels only: the probed entry point takes a
        // schedule). Acknowledgements are switched on for it, as a requester
        // otherwise never learns of a remote grant and no causal chain would
        // close; unprobed and probed runs of that configuration alternate.
        // Probes stamp simulated time, so the phase rows stay empty.
        let traces = match &input {
            Input::Open(schedule) => {
                let mut acked = config.clone();
                acked.ack_to_requester = true;
                let (mut plain_ns, mut probed_ns) = (Vec::new(), Vec::new());
                let mut last = Vec::new();
                let begin = Instant::now();
                while begin.elapsed() < window.mul_f64(0.5) || probed_ns.is_empty() {
                    let t0 = Instant::now();
                    let plain = run_schedule_checked(&instance, schedule, &acked);
                    plain_ns.push(t0.elapsed().as_nanos() as u64);
                    let recorder = Arc::new(TraceRecorder::new());
                    let rec = Arc::clone(&recorder);
                    let t0 = Instant::now();
                    let probed =
                        run_schedule_probed(&instance, schedule, &acked, move |v| rec.sim_probe(v));
                    probed_ns.push(t0.elapsed().as_nanos() as u64);
                    report.check(
                        matches!((&plain, &probed), (Ok(a), Ok(b)) if exact_of(a) == exact_of(b)),
                        || "a probed run's statistics differ from the unprobed run's".to_string(),
                    );
                    if let Ok(recorder) = Arc::try_unwrap(recorder) {
                        last = recorder.finish();
                    }
                }
                report.put(
                    "trace.overhead_share",
                    1.0 - Samples::new(plain_ns).q(0.5) as f64
                        / (Samples::new(probed_ns).q(0.5) as f64).max(1.0),
                );
                emit_trace(&mut report, reconstruct(&last), None)
            }
            Input::Closed(_) => Vec::new(),
        };
        write_artefacts(&mut report, &spans, &traces, 1e6);
    }
    report
}
