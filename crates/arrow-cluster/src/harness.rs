//! The cluster harness: spawn N `arrowd` processes, rendezvous them into one
//! directory mesh, drive workloads and recovery epochs over the control
//! channel, scrape per-process CPU/RSS, and assemble every daemon's journal
//! into one validated [`ClusterReport`] at teardown.
//!
//! ## Lifecycle
//!
//! [`Cluster::launch`] binds a control listener, spawns one `arrowd` per tree
//! node, collects their `hello` lines (each advertises its protocol listener),
//! broadcasts the completed address table, and waits for every daemon's
//! `ready`. Workloads then run via [`Cluster::start_workload`] /
//! [`Cluster::await_done`]; process-granularity churn via [`Cluster::kill`]
//! (SIGKILL — a real dead PID), [`Cluster::broadcast_epoch`] and
//! [`Cluster::restart`]. Teardown is [`Cluster::shutdown`] (control-channel
//! drain) or [`Cluster::terminate`] (SIGTERM with SIGKILL escalation); both
//! end by reading the journals daemons flushed on their way out.

use crate::control::{tree_to_wire, LineConn, HANDSHAKE_TIMEOUT};
use crate::journal::read_journal;
use crate::procstat::{scrape, ProcUsage};
use arrow_core::order::OrderError;
use arrow_core::prelude::{
    ChurnOrderError, ObjectId, OrderRecord, QueuingOrder, QueuingOutcome, RequestSchedule, RunError,
};
use arrow_net::{NetFailure, NetReport, PeerAddr};
use arrow_trace::MetricsSnapshot;
use netgraph::{NodeId, RootedTree};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Distinguishes concurrently-launched clusters' journal directories within
/// one process (tests run in parallel threads).
static LAUNCH_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The request-id counter floor handed to restarted daemons: a restarted
/// incarnation must never re-issue an id its dead predecessor already used,
/// and ids advance one per issued request, so any bound above the requests a
/// single incarnation can issue is safe. One million is five orders of
/// magnitude above the largest workload in this repository.
pub const RESTART_SEQ_BASE: u64 = 1 << 20;

/// Configuration for one cluster launch.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Path to the `arrowd` binary (tests pass `env!("CARGO_BIN_EXE_arrowd")`).
    pub arrowd: PathBuf,
    /// The spanning tree; one process per node.
    pub tree: RootedTree,
    /// Independent mobile objects served by the directory.
    pub objects: usize,
    /// Launch daemons fault-tolerant (frames towards dead peers are dropped
    /// and re-issued by the epoch machinery instead of failing the sender).
    /// Required for [`Cluster::kill`]-based churn runs.
    pub fault_tolerant: bool,
    /// Directory for per-daemon journal files (created at launch).
    pub journal_dir: PathBuf,
    /// How long [`Cluster::terminate`] waits after SIGTERM before escalating
    /// to SIGKILL.
    pub grace: Duration,
}

impl ClusterConfig {
    /// A config with a unique temp journal directory and a 10s SIGTERM grace.
    pub fn new(arrowd: impl Into<PathBuf>, tree: RootedTree, objects: usize) -> ClusterConfig {
        let unique = format!(
            "arrow-cluster-{}-{}",
            std::process::id(),
            LAUNCH_COUNTER.fetch_add(1, Ordering::Relaxed)
        );
        ClusterConfig {
            arrowd: arrowd.into(),
            tree,
            objects,
            fault_tolerant: false,
            journal_dir: std::env::temp_dir().join(unique),
            grace: Duration::from_secs(10),
        }
    }

    /// Enable fault tolerance (see [`ClusterConfig::fault_tolerant`]).
    pub fn with_fault_tolerance(mut self) -> ClusterConfig {
        self.fault_tolerant = true;
        self
    }
}

/// What one daemon reported (or failed to report) for a workload round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkOutcome {
    /// The daemon finished its assignment: `completed` acquires granted and
    /// released, `failed` given up on (retry budget exhausted), with the first
    /// failing object if any.
    Done {
        /// Acquires granted and released.
        completed: u64,
        /// Acquires that exhausted their retry budget.
        failed: u64,
        /// The first object an acquire failed on.
        first_failed_obj: Option<ObjectId>,
    },
    /// The daemon's control connection is gone (killed or crashed).
    Dead,
    /// No `done` line arrived within the caller's deadline.
    TimedOut,
    /// The daemon has no workload outstanding (e.g. it was restarted after
    /// the `go` and the fresh incarnation was never assigned work).
    Idle,
}

/// One live (or killed) daemon slot.
struct Daemon {
    child: Child,
    ctrl: Option<LineConn>,
    /// Advertised protocol listener address (stable across restarts — the
    /// restarted incarnation rebinds the same abstract name, or the same
    /// port via `SO_REUSEADDR`).
    addr: PeerAddr,
    journal: PathBuf,
    /// Last scraped usage (refreshed by [`Cluster::scrape_usage`]; final value
    /// is taken just before teardown so it reflects the whole run).
    usage: Option<ProcUsage>,
    /// True once the process was reaped (killed or exited).
    reaped: bool,
    /// True between a `go` and its `done` — [`Cluster::await_done`] only
    /// waits on daemons that actually owe a report.
    awaiting_done: bool,
    /// A `done` line that arrived while the harness was waiting for a
    /// different reply (the control channel is one stream, so a finishing
    /// workload can interleave with e.g. an epoch ack); consumed by the next
    /// [`Cluster::await_done`].
    stashed_done: Option<WorkOutcome>,
}

/// How long the harness waits on the control listener between checks that
/// the daemons it waits for are still alive.
const LIVENESS_CHECK: Duration = Duration::from_millis(20);

/// Accept the next dial on the control listener by `deadline` (`None` once it
/// passes), waiting on a poller for it rather than sleeping between tries.
/// Every [`LIVENESS_CHECK`] without a dial, `alive` may fail the wait with the
/// exit of a daemon that died instead of dialing in. The listener is left
/// blocking.
fn accept_control(
    control: &TcpListener,
    deadline: Instant,
    mut alive: impl FnMut() -> io::Result<()>,
) -> io::Result<Option<TcpStream>> {
    control.set_nonblocking(true)?;
    let mut accept = || {
        let poller = netpoll::Poller::new()?;
        poller.register(control.as_raw_fd(), 0, true, false)?;
        let mut events = Vec::new();
        loop {
            match control.accept() {
                Ok((stream, _)) => return Ok(Some(stream)),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
            alive()?;
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
            poller.wait(&mut events, Some(left.min(LIVENESS_CHECK)))?;
        }
    };
    let accepted = accept();
    control.set_nonblocking(false)?;
    accepted
}

/// A running `arrowd` cluster. See the [module docs](self) for the lifecycle.
pub struct Cluster {
    cfg: ClusterConfig,
    control: TcpListener,
    control_addr: SocketAddr,
    daemons: Vec<Daemon>,
    epoch: u64,
}

impl Cluster {
    /// Spawn one `arrowd` per tree node and rendezvous them into a mesh.
    /// Returns once every daemon reported `ready` (its reactor is running and
    /// its bootstrap dial to the tree parent is in flight).
    pub fn launch(cfg: ClusterConfig) -> io::Result<Cluster> {
        let n = cfg.tree.node_count();
        assert!(n > 0, "a cluster hosts at least one node");
        assert!(cfg.objects > 0, "a directory serves at least one object");
        std::fs::create_dir_all(&cfg.journal_dir)?;
        let control = TcpListener::bind("127.0.0.1:0")?;
        let control_addr = control.local_addr()?;
        let tree_wire = tree_to_wire(&cfg.tree);

        let mut children = Vec::with_capacity(n);
        for v in 0..n {
            let journal = cfg.journal_dir.join(format!("node-{v}.journal"));
            let mut cmd = arrowd_command(&cfg, &tree_wire, control_addr, v, &journal);
            let child = cmd.spawn().map_err(|e| {
                io::Error::new(
                    e.kind(),
                    format!("failed to spawn {}: {e}", cfg.arrowd.display()),
                )
            })?;
            children.push((v, child, journal));
        }

        // Collect hellos (daemons dial in any order), then broadcast the
        // completed address table and wait for every ready.
        let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
        let mut slots: Vec<Option<(LineConn, PeerAddr)>> = (0..n).map(|_| None).collect();
        let mut pending = n;
        while pending > 0 {
            // A daemon that died before dialing in would hang the
            // rendezvous; surface its exit instead.
            let accepted = accept_control(&control, deadline, || {
                for (v, child, _) in &mut children {
                    if slots[*v].is_none() {
                        if let Some(status) = child.try_wait()? {
                            return Err(io::Error::new(
                                io::ErrorKind::BrokenPipe,
                                format!("arrowd node {v} exited during launch: {status}"),
                            ));
                        }
                    }
                }
                Ok(())
            })?;
            let Some(stream) = accepted else {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("{pending} daemons never dialed the control channel"),
                ));
            };
            let (conn, v, addr) = read_hello(stream)?;
            if v >= n || slots[v].is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected hello from node {v}"),
                ));
            }
            slots[v] = Some((conn, addr));
            pending -= 1;
        }

        let peers = peers_line(
            slots
                .iter()
                .map(|s| &s.as_ref().expect("all slots filled").1),
        );
        // Every daemon gets the table before any `ready` is awaited, so they
        // start their reactors side by side.
        for (conn, _) in slots.iter_mut().flatten() {
            conn.send(&peers)?;
        }
        let mut daemons = Vec::with_capacity(n);
        for ((v, child, journal), slot) in children.into_iter().zip(slots) {
            let (mut conn, addr) = slot.expect("all slots filled");
            expect_line(&mut conn, "ready", v)?;
            daemons.push(Daemon {
                child,
                ctrl: Some(conn),
                addr,
                journal,
                usage: None,
                reaped: false,
                awaiting_done: false,
                stashed_done: None,
            });
        }
        Ok(Cluster {
            cfg,
            control,
            control_addr,
            daemons,
            epoch: 0,
        })
    }

    /// Number of nodes (= processes).
    pub fn node_count(&self) -> usize {
        self.daemons.len()
    }

    /// The current recovery epoch (0 until the first [`broadcast_epoch`]).
    ///
    /// [`broadcast_epoch`]: Cluster::broadcast_epoch
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The OS pid of node `v`'s daemon.
    pub fn pid(&self, v: NodeId) -> u32 {
        self.daemons[v].child.id()
    }

    /// The protocol address node `v`'s daemon advertised (kept across a
    /// [`Cluster::restart`]).
    pub fn addr(&self, v: NodeId) -> &PeerAddr {
        &self.daemons[v].addr
    }

    /// Assign and start a workload: for every `(node, obj, count)` entry the
    /// node's daemon runs `count` acquire/release cycles against `obj` on its
    /// own worker thread, each acquire bounded by `timeout` and retried up to
    /// `attempts` times (retries are how workers ride out churn). Returns as
    /// soon as every live daemon has been told `go` — collect results with
    /// [`Cluster::await_done`].
    pub fn start_workload(
        &mut self,
        work: &[(NodeId, ObjectId, usize)],
        timeout: Duration,
        attempts: u32,
    ) -> io::Result<()> {
        for &(v, obj, count) in work {
            let daemon = &mut self.daemons[v];
            if let Some(ctrl) = daemon.ctrl.as_mut() {
                ctrl.send(&format!("work {} {count}", obj.0))?;
            }
        }
        for daemon in &mut self.daemons {
            if let Some(ctrl) = daemon.ctrl.as_mut() {
                ctrl.send(&format!("go {} {attempts}", timeout.as_millis()))?;
                daemon.awaiting_done = true;
            }
        }
        Ok(())
    }

    /// Collect one `done` line per daemon, waiting at most `deadline` overall.
    /// A killed daemon reports [`WorkOutcome::Dead`] instead of failing the
    /// collection — the caller decides whether dead daemons were expected
    /// (churn) or a bug (fault-free runs).
    pub fn await_done(&mut self, deadline: Duration) -> Vec<(NodeId, WorkOutcome)> {
        let until = Instant::now() + deadline;
        let mut outcomes = Vec::with_capacity(self.daemons.len());
        for (v, daemon) in self.daemons.iter_mut().enumerate() {
            let outcome = match daemon.ctrl.as_mut() {
                _ if daemon.stashed_done.is_some() => {
                    daemon.awaiting_done = false;
                    daemon.stashed_done.take().expect("guard checked")
                }
                _ if !daemon.awaiting_done => WorkOutcome::Idle,
                None => WorkOutcome::Dead,
                Some(ctrl) => {
                    let left = until.saturating_duration_since(Instant::now());
                    match ctrl.recv_timeout(left.max(Duration::from_millis(1))) {
                        Ok(line) => match parse_done(&line) {
                            Some(outcome) => {
                                daemon.awaiting_done = false;
                                outcome
                            }
                            None => WorkOutcome::Dead,
                        },
                        Err(e)
                            if matches!(
                                e.kind(),
                                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                            ) =>
                        {
                            WorkOutcome::TimedOut
                        }
                        Err(_) => {
                            daemon.ctrl = None;
                            WorkOutcome::Dead
                        }
                    }
                }
            };
            outcomes.push((v, outcome));
        }
        outcomes
    }

    /// Broadcast a recovery epoch bump to every live daemon — the cluster
    /// harness is the failure detector of the process tier, exactly as the
    /// fault handle is for the in-process tiers. Killed daemons miss the bump
    /// (a crashed node must not learn anything) and catch up after
    /// [`Cluster::restart`].
    pub fn broadcast_epoch(&mut self, epoch: u64) -> io::Result<()> {
        self.epoch = epoch;
        for daemon in &mut self.daemons {
            if let Some(ctrl) = daemon.ctrl.as_mut() {
                ctrl.send(&format!("epoch {epoch}"))?;
            }
        }
        // Acks in a second pass: the bump reaches every live daemon promptly
        // even if one is slow to answer. A workload finishing concurrently can
        // interleave its `done` line before the ack — stash it for the next
        // await_done instead of mistaking it for a protocol error.
        for (v, daemon) in self.daemons.iter_mut().enumerate() {
            let Some(ctrl) = daemon.ctrl.as_mut() else {
                continue;
            };
            loop {
                match ctrl.recv_timeout(HANDSHAKE_TIMEOUT) {
                    Ok(line) if line == "ok" => break,
                    Ok(line) => match parse_done(&line) {
                        Some(done) => daemon.stashed_done = Some(done),
                        None => {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("node {v}: expected epoch ack, got {line:?}"),
                            ))
                        }
                    },
                    Err(_) => {
                        daemon.ctrl = None;
                        break;
                    }
                }
            }
        }
        Ok(())
    }

    /// SIGKILL node `v`'s daemon — a real dead PID, no goodbye, no journal:
    /// the process-granularity crash the in-process tiers can only simulate.
    /// Follow with [`Cluster::broadcast_epoch`] (detection) and, optionally,
    /// [`Cluster::restart`].
    pub fn kill(&mut self, v: NodeId) -> io::Result<()> {
        let daemon = &mut self.daemons[v];
        daemon.usage = scrape(daemon.child.id()).ok().or(daemon.usage);
        daemon.child.kill()?;
        daemon.child.wait()?;
        daemon.reaped = true;
        daemon.ctrl = None;
        daemon.awaiting_done = false;
        daemon.stashed_done = None;
        // A SIGKILLed incarnation leaves no journal; a stale file from an
        // earlier graceful run of the same path must not masquerade as one.
        let _ = std::fs::remove_file(&daemon.journal);
        Ok(())
    }

    /// Respawn node `v` after a [`Cluster::kill`]: the new incarnation rebinds
    /// the same advertised address (see `arrow_net::Listener::bind`),
    /// rendezvouses over the
    /// control channel, gets its request-id counter floored at
    /// [`RESTART_SEQ_BASE`] (ids from the dead incarnation are still chained
    /// in surviving journals), and is brought to the current epoch.
    pub fn restart(&mut self, v: NodeId) -> io::Result<()> {
        assert!(self.daemons[v].reaped, "restart follows kill");
        let journal = self.daemons[v].journal.clone();
        let tree_wire = tree_to_wire(&self.cfg.tree);
        let mut cmd = arrowd_command(&self.cfg, &tree_wire, self.control_addr, v, &journal);
        cmd.arg("--listen")
            .arg(self.daemons[v].addr.to_string())
            .arg("--seq-base")
            .arg(RESTART_SEQ_BASE.to_string());
        let mut child = cmd.spawn()?;

        // The restarted daemon is the only dialer, but accept with a deadline
        // and a liveness check — a daemon that fails to rebind its address exits
        // instead of dialing in, and that must not hang the harness.
        let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
        let accepted = accept_control(&self.control, deadline, || match child.try_wait()? {
            Some(status) => Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                format!("restarted arrowd node {v} exited during launch: {status}"),
            )),
            None => Ok(()),
        });
        let Some(stream) = accepted? else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("restarted arrowd node {v} never dialed the control channel"),
            ));
        };
        let (mut conn, got, addr) = read_hello(stream)?;
        if got != v {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected hello from restarted node {v}, got node {got}"),
            ));
        }
        if addr != self.daemons[v].addr {
            return Err(io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                format!(
                    "restarted node {v} rebound {addr} instead of {}",
                    self.daemons[v].addr
                ),
            ));
        }
        conn.send(&peers_line(self.daemons.iter().map(|d| &d.addr)))?;
        expect_line(&mut conn, "ready", v)?;
        if self.epoch > 0 {
            conn.send(&format!("epoch {}", self.epoch))?;
            expect_line(&mut conn, "ok", v)?;
        }
        let daemon = &mut self.daemons[v];
        daemon.child = child;
        daemon.ctrl = Some(conn);
        daemon.reaped = false;
        Ok(())
    }

    /// Scrape current CPU/RSS usage of every live daemon (also called
    /// internally just before teardown, so the report's numbers cover the
    /// whole run).
    pub fn scrape_usage(&mut self) -> Vec<(NodeId, ProcUsage)> {
        let mut out = Vec::new();
        for (v, daemon) in self.daemons.iter_mut().enumerate() {
            if !daemon.reaped {
                if let Ok(usage) = scrape(daemon.child.id()) {
                    daemon.usage = Some(usage);
                    out.push((v, usage));
                }
            }
        }
        out
    }

    /// Graceful teardown over the control channel: every live daemon drains
    /// its mesh (Goodbye handshakes), flushes its journal, answers `bye` and
    /// exits; then all journals are read and assembled. Daemons whose control
    /// channel is gone (killed, never restarted) are skipped — their missing
    /// journals are the crash semantics, not an error.
    pub fn shutdown(mut self) -> io::Result<ClusterReport> {
        self.scrape_usage();
        for daemon in &mut self.daemons {
            if let Some(ctrl) = daemon.ctrl.as_mut() {
                let _ = ctrl.send("shutdown");
            }
        }
        for daemon in &mut self.daemons {
            if let Some(ctrl) = daemon.ctrl.as_mut() {
                // Drain interleaved lines (a late `done`) until the `bye`; a
                // daemon that died instead still gets reaped below.
                loop {
                    match ctrl.recv_timeout(HANDSHAKE_TIMEOUT) {
                        Ok(line) if line == "bye" => break,
                        Ok(_) => continue,
                        Err(_) => break,
                    }
                }
            }
        }
        self.reap_all();
        self.assemble()
    }

    /// Signal-driven teardown: SIGTERM every live daemon (exercising the
    /// graceful-termination path — Goodbye drain plus journal flush — without
    /// any control traffic), wait up to the configured grace, escalate to
    /// SIGKILL for stragglers, then assemble the surviving journals.
    pub fn terminate(mut self) -> io::Result<ClusterReport> {
        self.scrape_usage();
        for daemon in &mut self.daemons {
            if !daemon.reaped {
                let _ = netpoll::kill(daemon.child.id(), netpoll::SIGTERM);
            }
        }
        self.reap_all();
        self.assemble()
    }

    /// Wait up to the configured grace for every daemon to exit, then SIGKILL
    /// the stragglers.
    fn reap_all(&mut self) {
        let deadline = Instant::now() + self.cfg.grace;
        for daemon in &mut self.daemons {
            while !daemon.reaped {
                match daemon.child.try_wait() {
                    Ok(Some(_)) => daemon.reaped = true,
                    Ok(None) if Instant::now() > deadline => {
                        let _ = daemon.child.kill();
                        let _ = daemon.child.wait();
                        daemon.reaped = true;
                    }
                    Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                    Err(_) => daemon.reaped = true,
                }
            }
        }
    }

    fn assemble(self) -> io::Result<ClusterReport> {
        let mut per_node = Vec::with_capacity(self.daemons.len());
        for (v, daemon) in self.daemons.iter().enumerate() {
            let journal = match read_journal(&daemon.journal, v) {
                Ok(report) => Some(report),
                Err(e) if e.kind() == io::ErrorKind::NotFound => None, // SIGKILLed
                Err(e) => return Err(e),
            };
            per_node.push(NodeReport {
                node: v,
                usage: daemon.usage,
                journal,
            });
        }
        let merged = NetReport::merge(per_node.iter().filter_map(|n| n.journal.as_ref()));
        Ok(ClusterReport { merged, per_node })
    }
}

impl Drop for Cluster {
    /// Leaked clusters (test panics, early returns) must not strand daemon
    /// processes: kill whatever is still running.
    fn drop(&mut self) {
        for daemon in &mut self.daemons {
            if !daemon.reaped {
                let _ = daemon.child.kill();
                let _ = daemon.child.wait();
                daemon.reaped = true;
            }
        }
    }
}

/// The `arrowd` command for node `v` of `cfg`'s cluster, its tree given as
/// `tree_wire`.
fn arrowd_command(
    cfg: &ClusterConfig,
    tree_wire: &str,
    control: SocketAddr,
    v: NodeId,
    journal: &Path,
) -> Command {
    let mut cmd = Command::new(&cfg.arrowd);
    cmd.arg("--node")
        .arg(v.to_string())
        .arg("--parents")
        .arg(tree_wire)
        .arg("--objects")
        .arg(cfg.objects.to_string())
        .arg("--control")
        .arg(control.to_string())
        .arg("--journal")
        .arg(journal)
        .stdin(Stdio::null())
        .stdout(Stdio::null());
    if cfg.fault_tolerant {
        cmd.arg("--fault-tolerant");
    }
    cmd
}

/// The control line that hands every daemon the mesh's address table.
fn peers_line<'a>(addrs: impl Iterator<Item = &'a PeerAddr>) -> String {
    let addrs: Vec<String> = addrs.map(|a| a.to_string()).collect();
    format!("peers {}", addrs.join(" "))
}

/// A daemon's `hello <node> <addr>`, read off its freshly accepted control
/// stream.
fn read_hello(stream: TcpStream) -> io::Result<(LineConn, NodeId, PeerAddr)> {
    stream.set_nonblocking(false)?;
    let mut conn = LineConn::new(stream);
    let line = conn.recv_timeout(HANDSHAKE_TIMEOUT)?;
    let bad = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
    let mut parts = line.split_ascii_whitespace();
    let (Some("hello"), Some(v), Some(addr)) = (parts.next(), parts.next(), parts.next()) else {
        return Err(bad(format!("expected hello line, got {line:?}")));
    };
    let v = v.parse().map_err(|e| bad(format!("bad hello node: {e}")))?;
    let addr = addr
        .parse::<PeerAddr>()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok((conn, v, addr))
}

fn parse_done(line: &str) -> Option<WorkOutcome> {
    let mut parts = line.split_ascii_whitespace();
    if parts.next() != Some("done") {
        return None;
    }
    let completed = parts.next()?.parse().ok()?;
    let failed = parts.next()?.parse().ok()?;
    let first_failed_obj = match parts.next()? {
        "-" => None,
        o => Some(ObjectId(o.parse().ok()?)),
    };
    Some(WorkOutcome::Done {
        completed,
        failed,
        first_failed_obj,
    })
}

fn expect_line(conn: &mut LineConn, want: &str, node: NodeId) -> io::Result<()> {
    let got = conn.recv_timeout(HANDSHAKE_TIMEOUT)?;
    if got == want {
        Ok(())
    } else {
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("node {node}: expected {want:?}, got {got:?}"),
        ))
    }
}

/// One daemon's slice of the final report.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// The node id.
    pub node: NodeId,
    /// Last scraped CPU/RSS usage (`None` if the daemon died before the first
    /// scrape).
    pub usage: Option<ProcUsage>,
    /// The daemon's report, decoded from its journal (`None` for a SIGKILLed
    /// incarnation that never restarted — its history died with it).
    pub journal: Option<NetReport>,
}

/// Everything a cluster run leaves behind: the daemons' reports merged into
/// one [`NetReport`], which every accessor but [`ClusterReport::per_node`]
/// reads, plus each daemon's own report and resource usage.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    merged: NetReport,
    per_node: Vec<NodeReport>,
}

impl ClusterReport {
    /// Every issued request across all journals, sorted by issue time.
    pub fn schedule(&self) -> &RequestSchedule {
        self.merged.schedule()
    }

    /// Every successor-notification record across all journals.
    pub fn records(&self) -> &[OrderRecord] {
        self.merged.records()
    }

    /// Transport failures daemons reported (empty on a healthy cluster).
    pub fn failures(&self) -> &[NetFailure] {
        self.merged.failures()
    }

    /// The cluster-wide metrics snapshot: every daemon's registry, merged.
    pub fn metrics(&self) -> &MetricsSnapshot {
        self.merged.metrics()
    }

    /// Per-daemon reports (usage + journal), indexed by node.
    pub fn per_node(&self) -> &[NodeReport] {
        &self.per_node
    }

    /// Every per-object queuing order, validated across process boundaries
    /// ([`NetReport::validated_orders`]).
    pub fn validated_orders(&self) -> Result<Vec<(ObjectId, QueuingOrder)>, OrderError> {
        self.merged.validated_orders()
    }

    /// The churn contract of a run with kills and restarts, where a killed
    /// daemon's journal is legitimately missing ([`NetReport::validate_churn`]).
    pub fn validate_churn(&self, final_epoch: u64) -> Result<(), ChurnOrderError> {
        self.merged.validate_churn(final_epoch)
    }

    /// Records evidencing a token regeneration
    /// ([`NetReport::token_regenerations`]).
    pub fn token_regenerations(&self) -> usize {
        self.merged.token_regenerations()
    }

    /// The run as a validated outcome ([`NetReport::into_outcome`]).
    pub fn into_outcome(self) -> Result<QueuingOutcome, RunError> {
        self.merged.into_outcome()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::send_line;
    use arrow_net::PeerAddrError;

    /// `read_hello` on a control stream whose daemon sent `line`.
    fn hello(line: &str) -> io::Result<(NodeId, PeerAddr)> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let daemon = TcpStream::connect(listener.local_addr()?)?;
        send_line(&daemon, line)?;
        let (stream, _) = listener.accept()?;
        read_hello(stream).map(|(_, v, addr)| (v, addr))
    }

    #[test]
    fn read_hello_reads_both_forms_and_refuses_malformed_addresses() {
        let unix = PeerAddr::Unix("0a1f3".to_string());
        assert_eq!(hello("hello 3 @0a1f3").unwrap(), (3, unix));
        let tcp = PeerAddr::Tcp("127.0.0.1:4000".parse().unwrap());
        assert_eq!(hello("hello 0 127.0.0.1:4000").unwrap(), (0, tcp));
        let refused = |line| {
            let err = hello(line).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{line}");
            err.into_inner()
                .and_then(|e| e.downcast::<PeerAddrError>().ok())
                .map(|e| *e)
        };
        assert_eq!(refused("hello 3 @"), Some(PeerAddrError::EmptyName));
        assert!(matches!(
            refused("hello 3 127.0.0.1:99999"),
            Some(PeerAddrError::Tcp(_))
        ));
        assert_eq!(refused("hello 3"), None, "a short line, not an address");
    }
}
