//! `net-open-zipf`: the socket tier under open-loop arrivals.
//!
//! 64 loopback nodes, 16 objects with Zipf(1.1) popularity, seeded Poisson
//! arrivals at uniform nodes. On one runtime: a warm-up (which dials the lazy
//! token channels, so set-up is not timed), then the rate ladder of
//! [`LADDER`], equal steps, drained between steps. Every request is timed
//! from when it was **due**, so a stall is charged to every request it
//! delays, and the generator's own lateness is reported beside the latencies.
//!
//! A step passes when the p99 of its requests is at most [`P99_LIMIT`], at
//! most [`BACKLOG_LIMIT`] of them are still outstanding when the step ends,
//! and the backlog drains within [`DRAIN_LIMIT`]; `client.max_rate_ok` is the
//! rate of the last step before the first failing one. Deep per-object queues
//! make write coalescing, inbox depth and the per-object hand-off rate do the
//! work that `net-closed-k1` bypasses.
//!
//! On the shared box this was written on, the top step sits on the cliff
//! (16000/s passes in most runs and fails in some) and one scheduling stall
//! of 60 ms fails any step, so the step verdicts are reported as layer rows
//! and the gated number is continuous instead: `ops_per_s` is the
//! on-time goodput of the whole ladder — requests granted within
//! [`P99_LIMIT`] of their due time, per second of offered load. A request
//! that is late, fails or is never granted counts as not served. All steps
//! always run, so it is defined whatever the verdicts.

use super::closed::probed_window_with;
use super::net::{self, Counters, WindowDelta, NODES};
use super::{emit_trace, write_artefacts, SETUP_REPS};
use crate::gen::{poisson_arrivals, stream_seed, Arrival, Zipf};
use crate::procfs;
use crate::report::{Report, RunArgs};
use crate::span::{self, SpanLog};
use crate::spec::LADDER;
use crate::stats::{median, Samples};
use arrow_core::prelude::ObjectId;
use arrow_net::{Grant, NetConfig, NetHandle, NetRuntime};
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

pub const OBJECTS: usize = 16;
const ZIPF_S: f64 = 1.1;
/// Warm-up length as a share of `--seconds`, at [`WARM_RATE`]: enough
/// requests to dial nearly all of the 2,016 possible token channels.
const WARM_SHARE: f64 = 0.15;
const WARM_RATE: u32 = LADDER[2];

pub const P99_LIMIT: Duration = Duration::from_millis(50);
pub const BACKLOG_LIMIT: f64 = 0.01;
pub const DRAIN_LIMIT: Duration = Duration::from_secs(2);
/// How long the final drain waits before the rest counts as never granted.
const FINAL_DRAIN: Duration = Duration::from_secs(10);

/// One request in flight: which phase issued it and when it was due.
#[derive(Clone, Copy)]
struct InFlight {
    /// Ladder step index, or `WARM` for a warm-up request.
    step: u8,
    due: Instant,
    /// The request's `client.acquire` span (traced runs).
    span: u32,
}

const WARM: u8 = u8::MAX;

/// What one ladder step measured.
#[derive(Debug, Clone, Default)]
pub struct StepStats {
    pub rate: u32,
    pub due: usize,
    /// Due-to-grant nanoseconds of the step's granted requests.
    pub samples: Vec<u64>,
    /// Requests still outstanding when the step's time was up.
    pub backlog_end: usize,
    /// Issue time minus due time, per request.
    pub lag_ns: Vec<u64>,
    pub max_outstanding: usize,
    pub drained_in_time: bool,
    pub failed: u64,
    /// How long the step's arrivals were issued for.
    pub length_s: f64,
}

impl StepStats {
    /// Requests of the step granted within [`P99_LIMIT`] of their due time.
    pub fn on_time(&self) -> usize {
        let limit = P99_LIMIT.as_nanos() as u64;
        self.samples.iter().filter(|&&ns| ns <= limit).count()
    }
}

/// The verdict on one step, from its sorted samples.
pub fn step_passes(step: &StepStats, p99_ns: u64) -> bool {
    step.due > 0
        && step.failed == 0
        && step.samples.len() == step.due
        && p99_ns <= P99_LIMIT.as_nanos() as u64
        && step.backlog_end as f64 <= BACKLOG_LIMIT * step.due as f64
        && step.drained_in_time
}

/// Highest passing rate of a ladder that stops at its first failure: the
/// rate of the last step before the first failing one (`None` if the first
/// step already fails).
pub fn max_rate_ok(verdicts: &[(u32, bool)]) -> Option<u32> {
    verdicts
        .iter()
        .take_while(|(_, passed)| *passed)
        .last()
        .map(|(rate, _)| *rate)
}

/// The open-loop driver: one thread generates arrivals at their due times and
/// reaps grants from one routed channel.
struct OpenDriver {
    handles: Vec<NetHandle>,
    /// Per `(node, object)`: its requests in issue order. Grants of one
    /// `(node, object)` stream arrive in issue order, so the front entry is
    /// the request a grant answers.
    in_flight: Vec<VecDeque<InFlight>>,
    tx: Sender<Grant>,
    rx: Receiver<Grant>,
    outstanding: usize,
    steps: Vec<StepStats>,
}

impl OpenDriver {
    fn new(rt: &NetRuntime) -> OpenDriver {
        let (tx, rx) = channel();
        OpenDriver {
            handles: (0..NODES).map(|v| rt.handle(v)).collect(),
            in_flight: vec![VecDeque::new(); NODES * OBJECTS],
            tx,
            rx,
            outstanding: 0,
            steps: Vec::new(),
        }
    }

    fn on_grant(&mut self, grant: Grant, spans: &mut Option<&mut SpanLog>) {
        let got = Instant::now();
        let key = grant.node * OBJECTS + grant.obj.0 as usize;
        let Some(entry) = self.in_flight[key].pop_front() else {
            return;
        };
        self.outstanding -= 1;
        let stats = (entry.step != WARM).then(|| &mut self.steps[entry.step as usize]);
        match grant.result {
            Ok(req) => {
                if let Some(stats) = stats {
                    stats
                        .samples
                        .push(got.saturating_duration_since(entry.due).as_nanos() as u64);
                }
                match spans.as_deref_mut().filter(|_| entry.span != span::NONE) {
                    Some(log) => {
                        let rel_start = Instant::now();
                        self.handles[grant.node].release_object(grant.obj, req);
                        let rel_end = log.now();
                        log.record(
                            "client.hold",
                            log.at(got),
                            log.at(rel_start),
                            entry.span,
                            req.0,
                        );
                        log.record(
                            "runtime.release",
                            log.at(rel_start),
                            rel_end,
                            entry.span,
                            req.0,
                        );
                        log.close_at(entry.span, rel_end);
                        log.set_req(entry.span, req.0);
                    }
                    None => self.handles[grant.node].release_object(grant.obj, req),
                }
            }
            Err(_) => {
                if let Some(stats) = stats {
                    stats.failed += 1;
                }
            }
        }
    }

    /// Issue `arrivals` at their due times for `length`, reaping grants in
    /// between; returns the backlog when the time was up.
    fn phase(
        &mut self,
        step: u8,
        arrivals: &[Arrival],
        length: Duration,
        spans: &mut Option<&mut SpanLog>,
    ) -> usize {
        let start = Instant::now();
        let end = start + length;
        let mut next = 0;
        loop {
            let now = Instant::now();
            while let Some(a) = arrivals.get(next) {
                let due = start + Duration::from_nanos(a.due_ns);
                if due > now {
                    break;
                }
                next += 1;
                let issued = Instant::now();
                let obj = ObjectId(a.obj as u32);
                self.handles[a.node as usize].start_acquire_object_routed(obj, &self.tx);
                let mut entry = InFlight {
                    step,
                    due,
                    span: span::NONE,
                };
                if let (Some(log), true) = (spans.as_deref_mut(), step != WARM) {
                    // The acquire span starts when the request was due; the
                    // part before the issue call is generator lag.
                    entry.span = log.open_at("client.acquire", log.at(due), span::NONE, 0);
                    log.record("runtime.issue", log.at(issued), log.now(), entry.span, 0);
                }
                self.in_flight[a.node as usize * OBJECTS + a.obj as usize].push_back(entry);
                self.outstanding += 1;
                if step != WARM {
                    let stats = &mut self.steps[step as usize];
                    stats
                        .lag_ns
                        .push(issued.saturating_duration_since(due).as_nanos() as u64);
                    stats.max_outstanding = stats.max_outstanding.max(self.outstanding);
                }
            }
            if now >= end && next == arrivals.len() {
                return self.outstanding;
            }
            let wake = match arrivals.get(next) {
                Some(a) => start + Duration::from_nanos(a.due_ns),
                None => end,
            };
            match self.rx.recv_timeout(wake.saturating_duration_since(now)) {
                Ok(grant) => self.on_grant(grant, spans),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return self.outstanding,
            }
        }
    }

    /// Reap grants until nothing is outstanding or `limit` has passed.
    fn drain(&mut self, limit: Duration, spans: &mut Option<&mut SpanLog>) -> bool {
        let deadline = Instant::now() + limit;
        while self.outstanding > 0 {
            match self
                .rx
                .recv_timeout(deadline.saturating_duration_since(Instant::now()))
            {
                Ok(grant) => self.on_grant(grant, spans),
                Err(_) => return false,
            }
        }
        true
    }
}

/// What the whole ladder produced.
struct LadderRun {
    steps: Vec<StepStats>,
    /// Counters over the whole ladder, drains included.
    delta: WindowDelta,
    /// Process CPU per granted acquire over the first step alone, in us.
    first_step_cpu_us_per_acq: f64,
    never_granted: u64,
}

/// Warm up, then climb the ladder on `rt`, `step_len` per step. Every step
/// runs, whatever the verdict on the one before; only a backlog that never
/// drains ends the climb early.
fn climb(
    rt: &NetRuntime,
    seed: u64,
    rates: &[u32],
    warm: Duration,
    step_len: Duration,
    mut spans: Option<&mut SpanLog>,
) -> LadderRun {
    let driver_tid = procfs::current_tid();
    let zipf = Zipf::new(OBJECTS, ZIPF_S);
    let mut d = OpenDriver::new(rt);
    let arrivals = |tag: u64, rate: u32, len: Duration| {
        poisson_arrivals(
            stream_seed(seed, tag),
            rate as f64,
            len.as_nanos() as u64,
            NODES,
            &zipf,
        )
    };
    d.phase(WARM, &arrivals(100, WARM_RATE, warm), warm, &mut None);
    d.drain(FINAL_DRAIN, &mut None);
    let before = Counters::take(rt);
    let mut first_step_cpu_us_per_acq = 0.0;
    for (i, &rate) in rates.iter().enumerate() {
        let due = arrivals(i as u64, rate, step_len);
        d.steps.push(StepStats {
            rate,
            due: due.len(),
            length_s: step_len.as_secs_f64(),
            ..StepStats::default()
        });
        let backlog = d.phase(i as u8, &due, step_len, &mut spans);
        d.steps[i].backlog_end = backlog;
        let t0 = Instant::now();
        if !d.drain(FINAL_DRAIN, &mut spans) {
            break;
        }
        d.steps[i].drained_in_time = t0.elapsed() <= DRAIN_LIMIT;
        if i == 0 {
            let cpu = Counters::take(rt).since(&before, driver_tid).cpu.total_s();
            first_step_cpu_us_per_acq = cpu * 1e6 / d.steps[0].samples.len().max(1) as f64;
        }
    }
    let after = Counters::take(rt);
    let never_granted = if d.drain(FINAL_DRAIN, &mut spans) {
        0
    } else {
        d.outstanding as u64
    };
    LadderRun {
        steps: d.steps,
        delta: after.since(&before, driver_tid),
        first_step_cpu_us_per_acq,
        never_granted,
    }
}

pub fn run(args: &RunArgs) -> Report {
    let mut report = Report::new("net-open-zipf", args);
    let mut spans = SpanLog::new();
    crate::affinity::pin_workload(&mut report);
    let step_len = Duration::from_secs_f64(args.window_s() / LADDER.len() as f64);
    // The warm-up has channels to dial, which takes requests, not time: a
    // traced run's shorter windows do not shorten it.
    let warm = Duration::from_secs_f64(args.seconds * WARM_SHARE);
    report.note(format!(
        "open loop, Poisson arrivals, Zipf({ZIPF_S}) over {OBJECTS} objects, ladder {LADDER:?}/s, \
         {step_len:?} per step after {warm:?} at {WARM_RATE}/s; a step passes at p99 <= {P99_LIMIT:?} \
         with <= {:.0}% backlog; latency from due time; NetConfig::instant(), loopback TCP",
        BACKLOG_LIMIT * 100.0
    ));

    // Set-up is the mesh coming up until a first acquire was granted at every
    // node; the lazy token channels are dialed by the warm-up, untimed.
    let everywhere: Vec<net::Client> = (0..NODES).map(|v| (v, ObjectId::DEFAULT)).collect();
    let cfg = NetConfig::instant();
    let (tree, rt, driver, setup_s) = match net::setup_mesh(
        SETUP_REPS,
        OBJECTS,
        cfg,
        &everywhere,
        &mut spans,
        &mut report,
        NetRuntime::spawn_multi,
    ) {
        Ok(up) => up,
        Err(e) => {
            report.check(false, || e);
            return report;
        }
    };
    report.put("setup_s", median(&setup_s));
    report.check(driver.finish() == 0, || {
        "set-up acquires were not all granted".to_string()
    });

    let ladder = climb(
        &rt,
        args.seed,
        &LADDER,
        warm,
        step_len,
        args.traced.then_some(&mut spans),
    );
    report.attempted = ladder.steps.iter().map(|s| s.due as u64).sum();
    report.failed = ladder.steps.iter().map(|s| s.failed).sum::<u64>() + ladder.never_granted;
    let net_report = net::teardown(rt, &mut report, &mut spans, None);
    let stats = net_report.stats();
    report.put(
        "reactor.connections",
        (stats.connections_dialed + stats.connections_accepted) as f64,
    );

    let mut verdicts = Vec::new();
    let mut all = Vec::new();
    let (mut lag_p99, mut max_outstanding) = (0.0f64, 0usize);
    for step in &ladder.steps {
        let samples = Samples::new(step.samples.clone());
        let passed = step_passes(step, samples.q(0.99));
        verdicts.push((step.rate, passed));
        report.put(&format!("client.p50_us_r{}", step.rate), samples.q_us(0.50));
        report.put(&format!("client.p99_us_r{}", step.rate), samples.q_us(0.99));
        report.put(
            &format!("client.backlog_end_r{}", step.rate),
            step.backlog_end as f64,
        );
        let lag = Samples::new(step.lag_ns.clone()).q_us(0.99);
        lag_p99 = lag_p99.max(lag);
        max_outstanding = max_outstanding.max(step.max_outstanding);
        report.note(format!(
            "step {}/s: {} due, {} granted, p50 {:.0} us, p99 {:.0} us, backlog at end {}, \
             generator lag p99 {lag:.0} us -> {}",
            step.rate,
            step.due,
            samples.len(),
            samples.q_us(0.50),
            samples.q_us(0.99),
            step.backlog_end,
            if passed { "pass" } else { "FAIL" }
        ));
        all.extend_from_slice(&step.samples);
    }
    let granted = all.len() as u64;
    report.check(ladder.steps.len() == LADDER.len(), || {
        format!(
            "the climb ended after {} of {} steps",
            ladder.steps.len(),
            LADDER.len()
        )
    });
    let on_time: usize = ladder.steps.iter().map(StepStats::on_time).sum();
    let offered_for: f64 = ladder.steps.iter().map(|s| s.length_s).sum();
    report.put("ops_per_s", on_time as f64 / offered_for.max(1e-9));
    report.put(
        "client.max_rate_ok",
        max_rate_ok(&verdicts).map_or(0.0, f64::from),
    );
    report.put("gen.lag_us_p99", lag_p99);
    report.put("gen.max_outstanding", max_outstanding as f64);
    report.put(
        "client.acq_per_s",
        granted as f64 / ladder.delta.wall_s.max(1e-9),
    );
    net::emit_client(&mut report, &Samples::new(all));
    net::emit_reactor(&mut report, &ladder.delta, granted);
    net::emit_cpu(&mut report, &ladder.delta, granted);

    if args.traced {
        // Deep queues chain grants locally, so a replay with one lock-step
        // client per node bounds the automaton's cost from above.
        let replay_clients: Vec<net::Client> = (0..NODES)
            .map(|v| (v, ObjectId((v % OBJECTS) as u32)))
            .collect();
        net::emit_layers(
            &mut report,
            &tree,
            OBJECTS,
            &replay_clients,
            &ladder.delta,
            granted,
            None,
        );
        // The probed twin runs the lowest rate only, for two steps' time. An
        // open loop's throughput is its offered rate, so the probes' cost
        // shows as CPU per acquire: the first step's, probed against unprobed.
        let unprobed_cpu = ladder.first_step_cpu_us_per_acq;
        let traces = match probed_window_with(&tree, OBJECTS, cfg, &mut report, |rt| {
            let run = climb(
                rt,
                args.seed,
                &LADDER[..1],
                warm,
                step_len.mul_f64(2.0),
                None,
            );
            (
                run.first_step_cpu_us_per_acq,
                run.never_granted + run.steps.iter().map(|s| s.failed).sum::<u64>(),
            )
        }) {
            Some((probed_cpu, traces)) => {
                report.put(
                    "trace.overhead_share",
                    if probed_cpu > 0.0 {
                        1.0 - unprobed_cpu / probed_cpu
                    } else {
                        0.0
                    },
                );
                emit_trace(&mut report, traces, Some(1e6))
            }
            None => Vec::new(),
        };
        report.put("proc.peak_rss_mb", procfs::peak_rss_mb());
        write_artefacts(&mut report, &spans, &traces, 1e6);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(due: usize, granted: usize, backlog_end: usize) -> StepStats {
        StepStats {
            rate: 6000,
            due,
            samples: vec![1_000_000; granted],
            backlog_end,
            drained_in_time: true,
            ..StepStats::default()
        }
    }

    #[test]
    fn a_step_needs_latency_backlog_drain_and_every_grant() {
        let ms = |n: u64| n * 1_000_000;
        assert!(step_passes(&step(1000, 1000, 10), ms(50)));
        assert!(
            !step_passes(&step(1000, 1000, 10), ms(50) + 1),
            "p99 over the limit"
        );
        assert!(
            !step_passes(&step(1000, 1000, 11), ms(5)),
            "backlog over 1%"
        );
        assert!(
            !step_passes(&step(1000, 999, 0), ms(5)),
            "a request never granted"
        );
        assert!(
            !step_passes(&step(0, 0, 0), 0),
            "an empty step proves nothing"
        );
        let mut slow_drain = step(1000, 1000, 0);
        slow_drain.drained_in_time = false;
        assert!(!step_passes(&slow_drain, ms(5)));
        let mut failed = step(1000, 1000, 0);
        failed.failed = 1;
        assert!(!step_passes(&failed, ms(5)));
    }

    #[test]
    fn the_ladder_stops_at_its_first_failure() {
        assert_eq!(
            max_rate_ok(&[(6000, true), (9000, true), (12000, false)]),
            Some(9000)
        );
        assert_eq!(
            max_rate_ok(&[(6000, true), (9000, true), (12000, true), (16000, true)]),
            Some(16000)
        );
        assert_eq!(max_rate_ok(&[(6000, false)]), None);
        // A later pass after a failure does not count: the ladder never ran it.
        assert_eq!(
            max_rate_ok(&[(6000, true), (9000, false), (12000, true)]),
            Some(6000)
        );
        assert_eq!(max_rate_ok(&[]), None);
    }
}
