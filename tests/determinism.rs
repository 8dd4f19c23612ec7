//! Determinism regression tests.
//!
//! The simulator's contract is that a run is a pure function of
//! `(processes, config, seed, scheduled inputs)`: the same seed must produce an
//! identical outcome and probe trace, and a repeated experiment sweep must produce
//! exactly the same rows.

use arrow_bench::experiments;
use arrow_core::prelude::*;
use desim::SimTime;

/// Same `RunConfig` seed => identical queuing order, costs and event counts across
/// two independent protocol runs, in both synchrony models. (The event order
/// itself is pinned through the probe trace by
/// `event_order_holds_its_recorded_digests` below.)
#[test]
fn same_seed_produces_identical_outcome() {
    let run_once = |sync: bool| {
        let instance = Instance::complete_uniform(12, SpanningTreeKind::BalancedBinary);
        let schedule = workload::uniform_random(12, 60, 20.0, 7);
        let mut config = RunConfig::analysis(ProtocolKind::Arrow);
        if !sync {
            config = config.asynchronous(13);
        }
        let outcome = run(&instance, &Workload::OpenLoop(schedule), &config);
        (
            format!("{:?}", outcome.order.order()),
            outcome.total_latency,
            outcome.makespan,
            outcome.sim_events,
            outcome.protocol_messages,
        )
    };
    for sync in [true, false] {
        let a = run_once(sync);
        let b = run_once(sync);
        assert_eq!(a, b, "sync={sync}: identical seeds diverged");
    }
}

/// The raw simulator (one level below the harness): same seed => identical
/// per-node delivery logs (virtual time, sender, payload); different seed =>
/// allowed (and here, expected) to differ.
#[test]
fn raw_simulator_run_is_reproducible_per_seed() {
    use desim::{Context, NodeId, Process, SimConfig, Simulator};

    struct Relay {
        n: usize,
        log: Vec<(SimTime, NodeId, u32)>,
    }
    impl Process<u32> for Relay {
        fn on_message(&mut self, ctx: &mut Context<u32>, from: NodeId, hops: u32) {
            self.log.push((ctx.now(), from, hops));
            if hops > 0 {
                let next = (ctx.node() + 1) % self.n;
                ctx.send(next, hops - 1);
            }
        }
    }

    let run = |seed: u64| {
        let nodes = (0..6).map(|_| Relay { n: 6, log: vec![] }).collect();
        let mut sim = Simulator::new(nodes, SimConfig::asynchronous(seed));
        sim.schedule_external(SimTime::ZERO, 0, 40);
        let outcome = sim.run();
        let logs: Vec<_> = (0..6).map(|v| sim.node(v).log.clone()).collect();
        (logs, outcome.events, outcome.final_time)
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42).0, run(43).0);
}

/// The simulator's event order pinned by digests: in-order events wait in per-kind
/// FIFO lanes, out-of-order ones in a heap, and these runs are where the lanes
/// and the heap interleave. The closed-loop digests were recorded while every
/// event still went through one binary heap; the open-loop ones are probe-trace
/// digests recorded on the lane queue once its message-trace digests had held.
///
/// * a synchronous open loop whose whole-unit issue times make externals tie with
///   deliveries (probe trace);
/// * an asynchronous open loop over two objects (probe trace);
/// * closed loops whose service timers tie with deliveries, synchronous and
///   asynchronous (orders, makespan, event count).
#[test]
fn event_order_holds_its_recorded_digests() {
    use arrow_trace::TraceRecorder;
    use std::hash::{Hash, Hasher};
    use std::sync::Arc;
    fn digest(value: impl Hash) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        value.hash(&mut h);
        h.finish()
    }
    let instance = Instance::complete_uniform(16, SpanningTreeKind::BalancedBinary);
    // Four requests per whole time unit, from nodes spread over the tree.
    let issues = |i: usize| ((i * 7) % 16, SimTime::from_units(i as u64 / 4));
    let traced = |schedule: &RequestSchedule, config: &RunConfig| {
        let recorder = Arc::new(TraceRecorder::new());
        let outcome = arrow_core::run::run_schedule_probed(&instance, schedule, config, |v| {
            recorder.sim_probe(v)
        })
        .expect("fault-free run");
        assert_eq!(outcome.request_count(), schedule.len());
        let events = Arc::try_unwrap(recorder)
            .expect("probes flushed when the run returned")
            .finish();
        digest(format!("{events:?}"))
    };

    let single = RequestSchedule::from_pairs(&(0..64).map(issues).collect::<Vec<_>>());
    let sync_open = traced(&single, &RunConfig::analysis(ProtocolKind::Arrow));

    let two_objects = RequestSchedule::from_object_pairs(
        &(0..64)
            .map(|i| {
                let (node, time) = issues(i);
                (node, time, ObjectId(i as u32 % 2))
            })
            .collect::<Vec<_>>(),
    );
    let async_open = traced(
        &two_objects,
        &RunConfig::analysis(ProtocolKind::Arrow).asynchronous(5),
    );

    // A service time of half a unit lands timers on the half-unit grid that
    // synchronous deliveries also occupy.
    let spec = ClosedLoopSpec {
        requests_per_node: 20,
        local_service_time: 0.5,
    };
    let closed = |config: RunConfig| {
        let o = run(&instance, &Workload::ClosedLoop(spec), &config);
        let orders: Vec<_> = o
            .orders
            .iter()
            .map(|(obj, order)| (obj, order.order()))
            .collect();
        digest((orders, o.makespan.to_bits(), o.sim_events))
    };
    let experiment = RunConfig::experiment(ProtocolKind::Arrow, spec.local_service_time);
    let sync_closed = closed(experiment.clone());
    let async_closed = closed(experiment.asynchronous(9));

    assert_eq!(
        [sync_open, async_open, sync_closed, async_closed],
        [
            0x8d53_845c_b0af_faff,
            0x11be_fbfb_a4aa_4daf,
            0x7bf8_b1bb_4459_b4ef,
            0xe19f_549d_51c1_7f74,
        ]
    );
}

/// Repeated sweeps are stable run-to-run (no hidden state between runs).
#[test]
fn parallel_sweep_rows_are_stable_across_repeated_runs() {
    let a = experiments::ratio_sweep(9, 12, 5);
    let b = experiments::ratio_sweep(9, 12, 5);
    assert_eq!(a, b);
}

/// The two tier-1 kernels of the gated benchmark (`bench --workload sim-open-k1` and
/// `sim-closed-svc`, seed 1) pinned to their exact simulated statistics, so a change
/// that moves the protocol or the harness — rather than its speed — fails `cargo
/// test` without the benchmark having to run.
#[test]
fn tier_one_benchmark_kernels_hold_their_seed_one_statistics() {
    let pinned = |o: &QueuingOutcome| {
        (
            o.sim_events,
            o.total_messages,
            o.total_latency,
            o.makespan,
            o.protocol_messages,
            o.request_count(),
        )
    };

    let open = run_schedule(
        &Instance::complete_uniform(512, SpanningTreeKind::BalancedBinary),
        &workload::uniform_random(512, 10_000, 4.0 * 10_000.0 / 512.0, 1),
        &RunConfig::analysis(ProtocolKind::Arrow),
    );
    assert_eq!(
        pinned(&open),
        (24_406, 14_406, 14_406.0, 93.335137, 14_406, 10_000)
    );

    let spec = ClosedLoopSpec {
        requests_per_node: 300,
        local_service_time: 0.05,
    };
    let closed = run(
        &Instance::complete_uniform(64, SpanningTreeKind::BalancedBinary),
        &Workload::ClosedLoop(spec),
        &RunConfig::experiment(ProtocolKind::Arrow, spec.local_service_time),
    );
    assert_eq!(
        pinned(&closed),
        (40_478, 10_639, 6988.8, 463.4, 6_639, 19_200)
    );

    // The assembled schedule and every object's queue, byte for byte: the
    // harness may change how it collects the journals, never what it hands on.
    use std::hash::{Hash, Hasher};
    let digests = |o: &QueuingOutcome| {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for r in o.schedule.requests() {
            (r.id, r.node, r.time, r.obj).hash(&mut h);
        }
        let schedule = h.finish();
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for (obj, order) in &o.orders {
            obj.hash(&mut h);
            order.order().hash(&mut h);
        }
        (schedule, h.finish())
    };
    assert_eq!(
        [digests(&open), digests(&closed)],
        [
            (0xd11e_7a52_d102_1854, 0x2cc3_8fd5_754b_9b2f),
            (0x910c_38c4_8170_9df8, 0xa340_1e4a_0076_7bf9),
        ]
    );
}

/// The multi-object path of the simulator tier — `per_object_orders` partitioning one
/// journal into 16 chains — pinned the same way: Zipf-skewed requests for 16
/// objects on 512 nodes, seed 1 (the gated benchmark has no K > 1 simulator row).
#[test]
fn multi_object_kernel_holds_its_seed_one_statistics() {
    let o = run_schedule(
        &Instance::complete_uniform(512, SpanningTreeKind::BalancedBinary),
        &workload::zipf_objects(512, 16, 1.1, 10_000, 4.0 * 10_000.0 / 512.0, 1),
        &RunConfig::analysis(ProtocolKind::Arrow),
    );
    assert_eq!(
        (
            o.sim_events,
            o.total_messages,
            o.total_latency,
            o.makespan,
            o.protocol_messages,
            o.request_count(),
            o.object_count(),
        ),
        (52_859, 42_859, 42_859.0, 93.971836, 42_859, 10_000, 16)
    );
    // The 16 queues themselves, folded into one fixed-key hash.
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for (obj, order) in &o.orders {
        obj.hash(&mut h);
        order.order().hash(&mut h);
    }
    assert_eq!(h.finish(), 0xd428_0462_2088_421b);
}

/// Sixty seeded churn runs of the simulator tier (crashes, link drops, partitions;
/// one and three objects; both synchrony models) folded into one digest recorded
/// before the simulator's pending requests moved from the token ledger to the node
/// host: the order in which an epoch bump re-issues them, and everything
/// downstream of it, must not move.
#[test]
fn faulted_runs_hold_their_recorded_digest() {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for seed in 0..60u64 {
        let n = 5 + (seed as usize % 12);
        let instance = Instance::complete_uniform(n, SpanningTreeKind::BalancedBinary);
        let faults = FaultSchedule::generate(seed, instance.tree(), 1 + (seed as usize % 4));
        let schedule = if seed % 2 == 0 {
            workload::poisson(n, 0.6, 30.0, seed)
        } else {
            workload::zipf_objects(n, 3, 1.1, 60, 30.0, seed)
        };
        let mut cfg = RunConfig::analysis(ProtocolKind::Arrow);
        if seed % 3 == 0 {
            cfg = cfg.asynchronous(seed);
        }
        let o = arrow_core::run::run_schedule_faulted(&instance, &schedule, &cfg, &faults)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        o.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        format!(
            "{:?}|{:?}|{:?}|{:?}|{}|{}|{}|{}|{}",
            o.issued,
            o.excused,
            o.granted,
            o.records,
            o.final_epoch,
            o.messages_dropped,
            o.silenced_inputs,
            o.stale_drops,
            o.duplicate_grants
        )
        .hash(&mut h);
        o.makespan.to_bits().hash(&mut h);
    }
    assert_eq!(h.finish(), 0xbb09_cd93_3a2e_a959);
}
