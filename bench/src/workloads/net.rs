//! Shared machinery of the three socket-tier workloads: the 64-node loopback
//! mesh, counter windows, the lock-step closed-loop driver, teardown checks
//! and the per-layer rows derived from the runtime's public counters.
//!
//! All live workloads use `NetConfig::instant()`: no link latency is injected
//! and traffic stays on the host's loopback interface, so every latency here
//! is processor and kernel time only.

use crate::gen::{FaultKind, FaultStep};
use crate::layers::{self, CoreCosts, WireCosts};
use crate::procfs::{self, CpuDelta, CpuSnapshot};
use crate::report::Report;
use crate::span::{self, SpanLog};
use crate::stats::Samples;
use arrow_core::prelude::{ObjectId, RequestId};
use arrow_net::{Grant, NetConfig, NetFaultHandle, NetHandle, NetReport, NetRuntime};
use arrow_trace::{HistMetric, Metric, MetricsSnapshot};
use netgraph::{NodeId, RootedTree};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// Nodes of every socket-tier workload's mesh.
pub const NODES: usize = 64;

/// How long after a fault its detection is broadcast as an epoch bump.
pub const DETECTION_DELAY: Duration = Duration::from_millis(5);

/// How long a drain waits for grants that are still outstanding before they
/// count as never granted.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

/// Length of the throughput slices inside a measured window.
pub const SLICE: Duration = Duration::from_millis(100);

pub fn tree() -> RootedTree {
    super::balanced_tree(NODES)
}

/// Share of a closed loop's measured window spent warming up first.
pub const WARM_SHARE: f64 = 0.1;

/// The runtime's counters and this process's thread CPU at one instant.
pub struct Counters {
    metrics: MetricsSnapshot,
    cpu: CpuSnapshot,
    at: Instant,
}

impl Counters {
    pub fn take(rt: &NetRuntime) -> Counters {
        Counters {
            metrics: rt.stats().metrics(),
            cpu: CpuSnapshot::take(),
            at: Instant::now(),
        }
    }

    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &Counters, driver_tid: Option<u32>) -> WindowDelta {
        WindowDelta {
            metrics: self.metrics.diff(&earlier.metrics),
            cpu: self.cpu.since(&earlier.cpu, driver_tid),
            wall_s: self.at.duration_since(earlier.at).as_secs_f64(),
        }
    }
}

/// Counter and CPU deltas over one measured window.
pub struct WindowDelta {
    pub metrics: MetricsSnapshot,
    pub cpu: CpuDelta,
    pub wall_s: f64,
}

/// One logical client: it acquires `obj` at `node`, releases on grant and
/// re-issues, one acquire outstanding at a time.
pub type Client = (NodeId, ObjectId);

/// A timed injection during a closed-loop window.
#[derive(Debug, Clone, Copy)]
enum Timed {
    Fault(FaultKind),
    Epoch(u64),
}

/// What one closed-loop window measured.
#[derive(Default)]
pub struct ClosedOutcome {
    /// Issue-to-grant nanoseconds of every grant received inside the window.
    pub samples: Vec<u64>,
    pub wall_s: f64,
    /// Grants per [`SLICE`] of the window.
    pub slices: Vec<u32>,
    pub delta: Option<WindowDelta>,
    /// Nanoseconds inside `start_acquire_object_routed` / `release_object`
    /// (traced runs only).
    pub issue_ns: Vec<u64>,
    pub release_ns: Vec<u64>,
    /// Per object, when its grants arrived (ns from window start); recorded
    /// when faults are injected.
    pub grant_times: Vec<Vec<u64>>,
    /// When each fault was injected (ns from window start).
    pub fault_times: Vec<u64>,
    /// Acquires whose outcome was observed in the window or awaited at its end.
    pub attempted: u64,
    /// Grants that came back as a failure, plus acquires never granted.
    pub failed: u64,
    /// The epoch the mesh was last told to adopt.
    pub final_epoch: u64,
}

impl ClosedOutcome {
    pub fn grants(&self) -> u64 {
        self.samples.len() as u64
    }
}

/// The single load-driver thread of a closed-loop workload: every client's
/// grants are routed to one channel, so C clients need no C threads.
pub struct ClosedDriver<'a> {
    clients: &'a [Client],
    handles: Vec<NetHandle>,
    /// `(node, object)` → client index.
    slot: Vec<u32>,
    objects: usize,
    tx: Sender<Grant>,
    rx: Receiver<Grant>,
    issue_start: Vec<Instant>,
    outstanding: usize,
}

impl<'a> ClosedDriver<'a> {
    /// Issue every client's first acquire, release each as it is granted, and
    /// return once every client has been granted once: the mesh is then
    /// dialed along every path the clients use.
    pub fn start(rt: &NetRuntime, clients: &'a [Client]) -> Result<ClosedDriver<'a>, String> {
        let objects = rt.object_count();
        let mut slot = vec![u32::MAX; NODES * objects];
        for (i, &(node, obj)) in clients.iter().enumerate() {
            let s = &mut slot[node * objects + obj.0 as usize];
            assert_eq!(*s, u32::MAX, "clients need distinct (node, object) pairs");
            *s = i as u32;
        }
        let (tx, rx) = channel();
        let now = Instant::now();
        let mut d = ClosedDriver {
            clients,
            handles: clients.iter().map(|&(node, _)| rt.handle(node)).collect(),
            slot,
            objects,
            tx,
            rx,
            issue_start: vec![now; clients.len()],
            outstanding: 0,
        };
        for i in 0..clients.len() {
            d.issue(i);
        }
        while d.outstanding > 0 {
            let grant =
                d.rx.recv_timeout(DRAIN_DEADLINE)
                    .map_err(|_| format!("{} first grants never arrived", d.outstanding))?;
            let i = d.client_of(&grant);
            d.outstanding -= 1;
            let req = grant
                .result
                .map_err(|f| format!("first acquire failed: {f}"))?;
            d.release(i, req);
        }
        Ok(d)
    }

    fn client_of(&self, grant: &Grant) -> usize {
        self.slot[grant.node * self.objects + grant.obj.0 as usize] as usize
    }

    fn issue(&mut self, i: usize) {
        self.issue_start[i] = Instant::now();
        self.handles[i].start_acquire_object_routed(self.clients[i].1, &self.tx);
        self.outstanding += 1;
    }

    fn release(&mut self, i: usize, req: RequestId) {
        self.handles[i].release_object(self.clients[i].1, req);
    }

    /// Wait out every outstanding acquire, releasing each as it lands.
    /// Returns how many never arrived or failed.
    pub fn finish(mut self) -> u64 {
        let mut failed = 0;
        let deadline = Instant::now() + DRAIN_DEADLINE;
        while self.outstanding > 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(left) {
                Ok(grant) => {
                    self.outstanding -= 1;
                    let i = self.client_of(&grant);
                    match grant.result {
                        Ok(req) => self.release(i, req),
                        Err(_) => failed += 1,
                    }
                }
                Err(_) => return failed + self.outstanding as u64,
            }
        }
        failed
    }

    /// Run `warm` of unmeasured load, then `window` of measured load, then
    /// stop re-issuing and drain. `faults` are injected on the plan's schedule
    /// inside the measured window, each followed [`DETECTION_DELAY`] later by
    /// the epoch bump its detection triggers. With `spans`, every request
    /// leaves `client.acquire` ⊃ `runtime.issue`, `client.hold`,
    /// `runtime.release` spans and the handle calls are timed.
    pub fn run(
        mut self,
        rt: &NetRuntime,
        warm: Duration,
        window: Duration,
        faults: Option<(&NetFaultHandle, &[FaultStep])>,
        mut spans: Option<&mut SpanLog>,
    ) -> ClosedOutcome {
        let driver_tid = procfs::current_tid();
        let traced = spans.is_some();
        let mut out = ClosedOutcome {
            grant_times: vec![Vec::new(); if faults.is_some() { self.objects } else { 0 }],
            ..ClosedOutcome::default()
        };
        let mut timed: Vec<(Duration, Timed)> = Vec::new();
        if let Some((_, plan)) = faults {
            for (i, step) in plan.iter().enumerate() {
                let at = Duration::from_nanos(step.at_ns);
                timed.push((at, Timed::Fault(step.kind)));
                timed.push((at + DETECTION_DELAY, Timed::Epoch(i as u64 + 1)));
            }
            timed.sort_by_key(|(at, _)| *at);
        }
        let mut next_timed = 0;
        // Per-client span bookkeeping (traced runs): the open client.acquire
        // span and when the issue call returned.
        let mut acquire_span = vec![span::NONE; self.clients.len()];
        let mut issue_span = vec![span::NONE; self.clients.len()];

        let begin = Instant::now();
        let win_start = begin + warm;
        let win_end = win_start + window;
        let mut start_counters: Option<Counters> = None;
        let mut measuring = false;
        for i in 0..self.clients.len() {
            self.issue(i);
        }
        loop {
            let now = Instant::now();
            if !measuring && now >= win_start {
                measuring = true;
                start_counters = Some(Counters::take(rt));
            }
            if now >= win_end {
                break;
            }
            let mut deadline = if measuring { win_end } else { win_start };
            if measuring {
                while let Some(&(at, action)) = timed.get(next_timed) {
                    if now < win_start + at {
                        deadline = deadline.min(win_start + at);
                        break;
                    }
                    next_timed += 1;
                    let (handle, _) = faults.expect("timed actions come from a fault plan");
                    match action {
                        Timed::Fault(kind) => {
                            out.fault_times
                                .push(now.duration_since(win_start).as_nanos() as u64);
                            match kind {
                                FaultKind::Crash(v) => handle.crash(v),
                                FaultKind::Restart(v) => handle.restart(v),
                                FaultKind::DropLink(u, p) => handle.drop_link(u, p),
                                FaultKind::RestoreLink(u, p) => handle.restore_link(u, p),
                            }
                        }
                        Timed::Epoch(e) => {
                            handle.broadcast_epoch(e);
                            out.final_epoch = e;
                        }
                    }
                }
            }
            let grant = match self
                .rx
                .recv_timeout(deadline.saturating_duration_since(now))
            {
                Ok(grant) => grant,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            };
            let got = Instant::now();
            let i = self.client_of(&grant);
            self.outstanding -= 1;
            let in_window = measuring && got < win_end;
            match grant.result {
                Ok(req) => {
                    if in_window {
                        out.samples
                            .push(got.duration_since(self.issue_start[i]).as_nanos() as u64);
                        let since = got.duration_since(win_start);
                        let slice = (since.as_nanos() / SLICE.as_nanos()) as usize;
                        if out.slices.len() <= slice {
                            out.slices.resize(slice + 1, 0);
                        }
                        out.slices[slice] += 1;
                        if let Some(times) = out.grant_times.get_mut(grant.obj.0 as usize) {
                            times.push(since.as_nanos() as u64);
                        }
                    }
                    if traced {
                        let rel_start = Instant::now();
                        self.release(i, req);
                        let rel_end = Instant::now();
                        if in_window {
                            out.release_ns
                                .push(rel_end.duration_since(rel_start).as_nanos() as u64);
                        }
                        if let Some(log) = spans.as_deref_mut() {
                            let parent = acquire_span[i];
                            if parent != span::NONE {
                                log.record(
                                    "client.hold",
                                    log.at(got),
                                    log.at(rel_start),
                                    parent,
                                    req.0,
                                );
                                log.record(
                                    "runtime.release",
                                    log.at(rel_start),
                                    log.at(rel_end),
                                    parent,
                                    req.0,
                                );
                                log.close_at(parent, log.at(rel_end));
                                log.set_req(parent, req.0);
                                log.set_req(issue_span[i], req.0);
                                acquire_span[i] = span::NONE;
                            }
                        }
                    } else {
                        self.release(i, req);
                    }
                }
                Err(_) => {
                    if in_window {
                        out.failed += 1;
                    }
                }
            }
            if in_window {
                out.attempted += 1;
            }
            self.issue(i);
            if traced {
                let issue_end = Instant::now();
                if in_window {
                    out.issue_ns
                        .push(issue_end.duration_since(self.issue_start[i]).as_nanos() as u64);
                }
                if let (Some(log), true) = (spans.as_deref_mut(), in_window) {
                    let start = log.at(self.issue_start[i]);
                    let id = log.open_at("client.acquire", start, span::NONE, 0);
                    issue_span[i] = log.record("runtime.issue", start, log.at(issue_end), id, 0);
                    acquire_span[i] = id;
                }
            }
        }
        let end_counters = Counters::take(rt);
        if let Some(start) = &start_counters {
            let delta = end_counters.since(start, driver_tid);
            out.wall_s = delta.wall_s;
            out.delta = Some(delta);
        }
        // Whatever is outstanding now was attempted in the window; it either
        // lands during the drain or counts as never granted.
        out.attempted += self.outstanding as u64;
        out.failed += self.finish();
        out
    }
}

/// Shut the runtime down inside `teardown` ⊃ `runtime.shutdown`,
/// `runtime.validate` spans and hold its report to the output checks every
/// live run must pass. `churn_epoch` selects the churn contract.
pub fn teardown(
    rt: NetRuntime,
    report: &mut Report,
    spans: &mut SpanLog,
    churn_epoch: Option<u64>,
) -> NetReport {
    let teardown = spans.open("teardown", span::NONE, 0);
    let t0 = Instant::now();
    let net = spans.scope("runtime.shutdown", teardown, |_, _| rt.shutdown());
    report.put("runtime.shutdown_ms", t0.elapsed().as_secs_f64() * 1e3);
    let t0 = Instant::now();
    spans.scope("runtime.validate", teardown, |_, _| {
        check_net_report(&net, report, churn_epoch)
    });
    report.put("runtime.validate_ms", t0.elapsed().as_secs_f64() * 1e3);
    spans.close(teardown);
    net
}

/// The output checks of a live run: orders validate with one order per object
/// that saw traffic, issued = granted + failed, no stray frames, no failures.
pub fn check_net_report(net: &NetReport, report: &mut Report, churn_epoch: Option<u64>) {
    let stats = net.stats();
    let issued = net.schedule().len() as u64;
    match churn_epoch {
        None => match net.validated_orders() {
            Ok(orders) => {
                let objects_seen = net.schedule().objects().len();
                report.check(orders.len() == objects_seen, || {
                    format!(
                        "{} orders for {objects_seen} objects with traffic",
                        orders.len()
                    )
                });
                let ordered: u64 = orders.iter().map(|(_, o)| o.len() as u64).sum();
                report.check(ordered == issued, || {
                    format!("{ordered} requests in validated orders, {issued} issued")
                });
            }
            Err(e) => report.check(false, || format!("validated_orders failed: {e:?}")),
        },
        Some(epoch) => {
            if let Err(e) = net.validate_churn(epoch) {
                report.check(false, || format!("validate_churn({epoch}) failed: {e}"));
            }
            report.check(net.token_regenerations() >= 1, || {
                "no token was regenerated: the faults never hit a live token".to_string()
            });
        }
    }
    let failed = report.failed;
    report.check(issued == stats.acquisitions + failed, || {
        format!(
            "issued {issued} != granted {} + failed {failed}",
            stats.acquisitions
        )
    });
    report.check(stats.unexpected_frames == 0, || {
        format!("{} unexpected frames on the mesh", stats.unexpected_frames)
    });
    report.check(net.failures().is_empty(), || {
        format!("transport failures: {:?}", net.failures())
    });
}

/// Throughput of the window read slice by slice: quantiles of the grant rate
/// over [`SLICE`]-long slices. Interference from a neighbour only ever slows
/// a slice, so the upper quantiles say what the undisturbed system does.
pub fn emit_slices(report: &mut Report, slices: &[u32]) {
    let per_s = 1.0 / SLICE.as_secs_f64();
    let rates = Samples::new(slices.iter().map(|&c| c as u64).collect());
    report.put("client.slice_acq_per_s_p50", rates.q(0.50) as f64 * per_s);
    report.put("client.slice_acq_per_s_p75", rates.q(0.75) as f64 * per_s);
    report.put("client.slice_acq_per_s_p90", rates.q(0.90) as f64 * per_s);
}

/// Latency rows of the load driver: percentiles are exact and come with their
/// sample count.
pub fn emit_client(report: &mut Report, samples: &Samples) {
    report.put("client.samples", samples.len() as f64);
    report.put("client.p50_us", samples.q_us(0.50));
    report.put("client.p90_us", samples.q_us(0.90));
    report.put("client.p99_us", samples.q_us(0.99));
    report.put("client.p999_us", samples.q_us(0.999));
}

/// The reactor rows: the runtime's public counters as per-acquire ratios over
/// the measured window.
pub fn emit_reactor(report: &mut Report, delta: &WindowDelta, grants: u64) {
    let m = &delta.metrics;
    let per_acq = |metric: Metric| m.get(metric) as f64 / grants.max(1) as f64;
    report.put("reactor.queue_frames_per_acq", per_acq(Metric::QueueFrames));
    report.put("reactor.token_frames_per_acq", per_acq(Metric::TokenFrames));
    report.put("reactor.writes_per_acq", per_acq(Metric::SocketWrites));
    report.put("reactor.reads_per_acq", per_acq(Metric::SocketReads));
    report.put("reactor.wakeups_per_acq", per_acq(Metric::ReactorWakeups));
    report.put("reactor.bytes_per_acq", per_acq(Metric::BytesSent));
    let writes = m.get(Metric::SocketWrites).max(1) as f64;
    report.put(
        "reactor.frames_per_write",
        m.get(Metric::FramesSent) as f64 / writes,
    );
    report.put(
        "reactor.events_per_wakeup_mean",
        m.hist(HistMetric::EventsPerWakeup).mean(),
    );
    report.put(
        "reactor.shard_queue_depth_mean",
        m.hist(HistMetric::ShardQueueDepth).mean(),
    );
    report.put(
        "reactor.would_block_retries",
        m.get(Metric::WouldBlockRetries) as f64,
    );
    report.put(
        "runtime.local_grant_share",
        1.0 - (m.get(Metric::TokenFrames) as f64 / grants.max(1) as f64).min(1.0),
    );
}

/// Whole-process CPU over the window per granted acquire — the live tiers'
/// `cpu_us_per_op` — and how much of the machine stayed idle. Measured in every run: thread CPU only advances
/// while a thread runs, so it does not move with how long an idle virtual CPU
/// takes to wake, which is what makes wall-clock numbers of a latency-bound
/// loop noisy on a shared host.
pub fn emit_cpu(report: &mut Report, delta: &WindowDelta, grants: u64) {
    let us_per_acq = |seconds: f64| seconds * 1e6 / grants.max(1) as f64;
    let cpu = &delta.cpu;
    report.put("proc.user_us_per_acq", us_per_acq(cpu.user_s));
    report.put("proc.sys_us_per_acq", us_per_acq(cpu.sys_s));
    report.put("attr.cpu_us_per_acq", us_per_acq(cpu.total_s()));
    report.put("cpu_us_per_op", us_per_acq(cpu.total_s()));
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get()) as f64;
    report.put(
        "attr.idle_share",
        (1.0 - cpu.total_s() / (delta.wall_s * cores).max(1e-9)).max(0.0),
    );
}

/// The decomposition ROADMAP aim 1 asks for: CPU per acquire = core + wire +
/// reactor self + kernel + driver + unexplained. `core` and `wire` come from
/// the call-timing loops, everything else from thread CPU over the window
/// (see [`emit_cpu`] for the totals).
fn emit_attribution(
    report: &mut Report,
    delta: &WindowDelta,
    grants: u64,
    core: &CoreCosts,
    wire: &WireCosts,
) {
    let us_per_acq = |seconds: f64| seconds * 1e6 / grants.max(1) as f64;
    let cpu = &delta.cpu;
    let frames_per_acq = (delta.metrics.get(Metric::QueueFrames)
        + delta.metrics.get(Metric::TokenFrames)) as f64
        / grants.max(1) as f64;
    let wire_us = frames_per_acq * (wire.encode_ns_per_frame + wire.scan_ns_per_frame) / 1e3;
    let reactor_self = us_per_acq(cpu.shard_user_s) - core.us_per_acq - wire_us;
    let total = us_per_acq(cpu.total_s());
    let sys = us_per_acq(cpu.sys_s);
    let driver = us_per_acq(cpu.driver_user_s);
    report.put("wire.us_per_acq", wire_us);
    report.put(
        "reactor.shard_cpu_us_per_acq",
        us_per_acq(cpu.shard_user_s + cpu.shard_sys_s),
    );
    report.put("reactor.self_us_per_acq", reactor_self);
    report.put("client.driver_cpu_us_per_acq", driver);
    let explained = core.us_per_acq + wire_us + reactor_self + sys + driver;
    report.put(
        "attr.unexplained_share",
        if total > 0.0 {
            (total - explained) / total
        } else {
            0.0
        },
    );
    report.note(format!(
        "cpu/acq {total:.2} us = core {:.2} + wire {wire_us:.2} + reactor self {reactor_self:.2} \
         + sys {sys:.2} + driver {driver:.2} + unexplained {:.2}",
        core.us_per_acq,
        total - explained
    ));
}

/// The traced run's call-timing rows for a socket workload: replay the
/// clients' lock-step pattern over in-memory cores (`epoch_every` adds the
/// churn workload's epoch bumps), time the codec over the window's frame mix,
/// and close the decomposition.
pub fn emit_layers(
    report: &mut Report,
    tree: &RootedTree,
    objects: usize,
    clients: &[Client],
    delta: &WindowDelta,
    grants: u64,
    epoch_every: Option<u64>,
) {
    let replayed = grants.clamp(10_000, 400_000);
    let Some(core) = layers::core_replay(tree, objects, clients, replayed, epoch_every) else {
        report.check(false, || {
            "the in-memory core replay granted fewer acquires than it issued".to_string()
        });
        return;
    };
    let wire = layers::wire_costs(
        delta.metrics.get(Metric::QueueFrames),
        delta.metrics.get(Metric::TokenFrames),
        NODES,
        objects,
    );
    report.put("core.acquire_ns", core.acquire_ns);
    report.put("core.on_queue_ns", core.on_queue_ns);
    report.put("core.on_token_ns", core.on_token_ns);
    report.put("core.on_release_ns", core.on_release_ns);
    if epoch_every.is_some() {
        report.put("core.on_epoch_ns", core.on_epoch_ns);
    }
    report.put("core.steps_per_acq", core.steps_per_acq);
    report.put("core.us_per_acq", core.us_per_acq);
    report.put("wire.encode_ns_per_frame", wire.encode_ns_per_frame);
    report.put("wire.scan_ns_per_frame", wire.scan_ns_per_frame);
    report.put("wire.bytes_per_frame", wire.bytes_per_frame);
    emit_attribution(report, delta, grants, &core, &wire);
}

/// Spawn the mesh and bring every client to its first grant, `reps` times,
/// inside `setup` ⊃ `netgraph.build`, `runtime.spawn`, `runtime.mesh_ready`
/// spans. All but the last runtime are shut down again (untimed); the last is
/// returned idle, every client granted once. Returns the set-up samples in
/// seconds.
pub fn setup_mesh<'a>(
    reps: usize,
    objects: usize,
    cfg: NetConfig,
    clients: &'a [Client],
    spans: &mut SpanLog,
    report: &mut Report,
    mut spawn: impl FnMut(&RootedTree, usize, NetConfig) -> NetRuntime,
) -> Result<(RootedTree, NetRuntime, ClosedDriver<'a>, Vec<f64>), String> {
    let mut setup_s = Vec::with_capacity(reps);
    let (mut spawn_ms, mut ready_ms) = (Vec::new(), Vec::new());
    let mut last = None;
    for rep in 0..reps {
        let t0 = Instant::now();
        let setup = spans.open("setup", span::NONE, 0);
        let tree = spans.scope("netgraph.build", setup, |_, _| tree());
        let t_spawn = Instant::now();
        let rt = spans.scope("runtime.spawn", setup, |_, _| spawn(&tree, objects, cfg));
        let t_ready = Instant::now();
        let driver = spans.scope("runtime.mesh_ready", setup, |_, _| {
            ClosedDriver::start(&rt, clients)
        })?;
        spans.close(setup);
        setup_s.push(t0.elapsed().as_secs_f64());
        spawn_ms.push(t_ready.duration_since(t_spawn).as_secs_f64() * 1e3);
        ready_ms.push(t_ready.elapsed().as_secs_f64() * 1e3);
        if rep + 1 < reps {
            let failed = driver.finish();
            let net = rt.shutdown();
            report.check(failed == 0 && net.failures().is_empty(), || {
                format!("set-up repetition {rep} did not come up cleanly")
            });
        } else {
            last = Some((tree, rt, driver));
        }
    }
    report.put("runtime.spawn_ms", crate::stats::median(&spawn_ms));
    report.put("runtime.mesh_ready_ms", crate::stats::median(&ready_ms));
    let (tree, rt, driver) = last.expect("at least one set-up repetition");
    Ok((tree, rt, driver, setup_s))
}
