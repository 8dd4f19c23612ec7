//! `arrowd` — one process, one arrow directory node.
//!
//! The daemon hosts a single node of the spanning tree inside its own
//! [`arrow_net`] epoll reactor: protocol traffic (queue frames, token grants,
//! Hello/Welcome handshakes) crosses real TCP sockets to peer daemons, and the
//! node's protocol history is journaled to disk at shutdown for the cluster
//! harness to assemble and validate.
//!
//! Lifecycle: parse args → block SIGTERM/SIGINT into a signalfd (before any
//! thread spawns, so every thread inherits the mask) → bind the protocol
//! listener → dial the harness's control address and rendezvous (`hello` /
//! `peers` / `ready`) → serve control commands until `shutdown` or a
//! termination signal → drain the mesh (Goodbye handshakes), flush the
//! journal atomically, exit.
//!
//! Every exit path is typed ([`DaemonError`] rendered in `main`) — the process
//! never calls `std::process::exit`, so destructors (socket drains, journal
//! temp files) always run.

use arrow_cluster::control::{send_line, tree_from_wire, LineConn, HANDSHAKE_TIMEOUT};
use arrow_cluster::journal::write_journal;
use arrow_core::prelude::ObjectId;
use arrow_net::replay::Client;
use arrow_net::{NetConfig, NetHandle, NetRuntime};
use netgraph::{NodeId, RootedTree};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

const USAGE: &str = "\
arrowd — one process, one arrow directory node

USAGE:
    arrowd --node <V> --parents <P0,P1,...> --objects <K> --control <ADDR> --journal <PATH> [OPTIONS]

REQUIRED:
    --node <V>           This daemon's node id in the spanning tree
    --parents <LIST>     Comma-separated tree encoding: entry v is node v's
                         parent id, or `r` for the root (e.g. `r,0,0,1,1`)
    --objects <K>        Number of independent mobile objects served
    --control <ADDR>     The cluster harness's control listener (ip:port);
                         the daemon dials it and speaks the line protocol
    --journal <PATH>     Where to flush the protocol journal at shutdown

OPTIONS:
    --listen <ADDR>      Bind the protocol listener on this address (with
                         SO_REUSEADDR, so a restarted daemon can rebind its
                         dead predecessor's advertised port). Default: an
                         ephemeral loopback port.
    --seq-base <N>       Floor for the request-id counter; a restart
                         supervisor passes a bound above anything the dead
                         incarnation issued. Default: 0.
    --fault-tolerant     Drop frames towards dead peers (epoch recovery
                         re-issues them) instead of failing this node.
    --help               Print this help.

SIGNALS:
    SIGTERM/SIGINT trigger the same graceful shutdown as the control
    channel's `shutdown` command: mesh drain, journal flush, clean exit.";

/// Every way the daemon can fail, each with a stable exit code. `main` is the
/// only place these become a process exit status.
#[derive(Debug)]
enum DaemonError {
    /// Bad or missing command-line arguments.
    Usage(String),
    /// The protocol listener could not be bound.
    Bind(std::io::Error),
    /// The control channel failed (dial, handshake, or mid-run I/O).
    Control(String),
    /// The journal could not be written.
    Journal(std::io::Error),
    /// The termination signalfd could not be set up.
    Signals(std::io::Error),
}

impl DaemonError {
    fn code(&self) -> u8 {
        match self {
            DaemonError::Usage(_) => 2,
            DaemonError::Bind(_) => 3,
            DaemonError::Control(_) => 4,
            DaemonError::Journal(_) => 5,
            DaemonError::Signals(_) => 6,
        }
    }
}

impl std::fmt::Display for DaemonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DaemonError::Usage(m) => write!(f, "{m}\n\n{USAGE}"),
            DaemonError::Bind(e) => write!(f, "failed to bind protocol listener: {e}"),
            DaemonError::Control(m) => write!(f, "control channel: {m}"),
            DaemonError::Journal(e) => write!(f, "failed to write journal: {e}"),
            DaemonError::Signals(e) => write!(f, "failed to set up signal handling: {e}"),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("arrowd: {e}");
            ExitCode::from(e.code())
        }
    }
}

struct Args {
    node: NodeId,
    tree: RootedTree,
    objects: usize,
    control: SocketAddr,
    journal: PathBuf,
    listen: Option<SocketAddr>,
    seq_base: u64,
    fault_tolerant: bool,
}

fn parse_args(args: &[String]) -> Result<Args, DaemonError> {
    let mut node = None;
    let mut tree = None;
    let mut objects = None;
    let mut control = None;
    let mut journal = None;
    let mut listen = None;
    let mut seq_base = 0u64;
    let mut fault_tolerant = false;
    let usage = |m: String| DaemonError::Usage(m);

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--node" => node = Some(flag(arg, it.next())?),
            "--parents" => {
                let wire: String = flag(arg, it.next())?;
                let parsed = tree_from_wire(&wire).map_err(|e| usage(format!("bad {arg}: {e}")));
                tree = Some(parsed?);
            }
            "--objects" => objects = Some(flag(arg, it.next())?),
            "--control" => control = Some(flag(arg, it.next())?),
            "--journal" => journal = Some(flag(arg, it.next())?),
            "--listen" => listen = Some(flag(arg, it.next())?),
            "--seq-base" => seq_base = flag(arg, it.next())?,
            "--fault-tolerant" => fault_tolerant = true,
            other => return Err(usage(format!("unknown argument {other:?}"))),
        }
    }
    let node = node.ok_or_else(|| usage("--node is required".into()))?;
    let tree = tree.ok_or_else(|| usage("--parents is required".into()))?;
    let objects = objects.ok_or_else(|| usage("--objects is required".into()))?;
    let control = control.ok_or_else(|| usage("--control is required".into()))?;
    let journal = journal.ok_or_else(|| usage("--journal is required".into()))?;
    if node >= tree.node_count() {
        return Err(usage(format!(
            "--node {node} is outside the {}-node tree",
            tree.node_count()
        )));
    }
    if objects == 0 {
        return Err(usage("--objects must be at least 1".into()));
    }
    Ok(Args {
        node,
        tree,
        objects,
        control,
        journal,
        listen,
        seq_base,
        fault_tolerant,
    })
}

/// Flag `arg`'s `value`, parsed; a missing or bad one is a usage error.
fn flag<T: std::str::FromStr>(arg: &str, value: Option<&String>) -> Result<T, DaemonError>
where
    T::Err: std::fmt::Display,
{
    let value = value.ok_or_else(|| DaemonError::Usage(format!("{arg} needs a value")))?;
    value
        .parse()
        .map_err(|e| DaemonError::Usage(format!("bad {arg}: {e}")))
}

fn run(raw: &[String]) -> Result<(), DaemonError> {
    let args = parse_args(raw)?;

    // Block SIGTERM/SIGINT into a signalfd before spawning any thread — the
    // mask is inherited, so no thread takes the default (fatal) disposition,
    // and the watcher below turns signals into a flag the control loop polls.
    let sigfd = netpoll::SignalFd::for_termination().map_err(DaemonError::Signals)?;
    let term = Arc::new(AtomicBool::new(false));
    {
        let term = Arc::clone(&term);
        std::thread::spawn(move || {
            // Each wait returns one delivered signal; the first is enough.
            let _ = sigfd.wait();
            term.store(true, Ordering::SeqCst);
        });
    }

    // The protocol listener: an ephemeral port normally, or the advertised
    // address of a dead predecessor — which still has TIME_WAIT 4-tuples
    // against it, hence SO_REUSEADDR.
    let listener = match args.listen {
        Some(addr) => netpoll::listen_reuse(&addr).map_err(DaemonError::Bind)?,
        None => TcpListener::bind("127.0.0.1:0").map_err(DaemonError::Bind)?,
    };
    let advertised = listener.local_addr().map_err(DaemonError::Bind)?;

    // Rendezvous with the harness: advertise our listener, learn everyone's.
    let ctrl = |e: std::io::Error| DaemonError::Control(e.to_string());
    let stream = TcpStream::connect(args.control).map_err(ctrl)?;
    let mut conn = LineConn::new(stream);
    conn.send(&format!("hello {} {advertised}", args.node))
        .map_err(ctrl)?;
    let peers = conn.recv_timeout(HANDSHAKE_TIMEOUT).map_err(ctrl)?;
    let addrs = parse_peers(&peers, args.tree.node_count())?;

    let cfg = if args.fault_tolerant {
        NetConfig::instant().with_fault_tolerance()
    } else {
        NetConfig::instant()
    };
    let rt = NetRuntime::spawn_daemon(
        &args.tree,
        args.objects,
        cfg,
        args.node,
        listener,
        addrs,
        args.seq_base,
    );
    conn.send("ready").map_err(ctrl)?;
    serve(&args, rt, conn, &term)
}

fn parse_peers(line: &str, n: usize) -> Result<Vec<SocketAddr>, DaemonError> {
    let mut parts = line.split_ascii_whitespace();
    if parts.next() != Some("peers") {
        return Err(DaemonError::Control(format!(
            "expected peers line, got {line:?}"
        )));
    }
    let addrs: Vec<SocketAddr> = parts
        .map(|a| {
            a.parse()
                .map_err(|e| DaemonError::Control(format!("bad peer address {a:?}: {e}")))
        })
        .collect::<Result<_, _>>()?;
    if addrs.len() != n {
        return Err(DaemonError::Control(format!(
            "peers line has {} addresses for a {n}-node tree",
            addrs.len()
        )));
    }
    Ok(addrs)
}

/// The running workload, if any: its supervisor thread writes the `done` line
/// on a clone of the control stream when every worker has joined.
struct Workload {
    supervisor: std::thread::JoinHandle<()>,
    stopping: Arc<AtomicBool>,
}

fn serve(
    args: &Args,
    rt: NetRuntime,
    mut conn: LineConn,
    term: &AtomicBool,
) -> Result<(), DaemonError> {
    let ctrl = |e: std::io::Error| DaemonError::Control(e.to_string());
    // The supervisor thread shares the write side of the control stream.
    let writer = Arc::new(Mutex::new(conn.stream().try_clone().map_err(ctrl)?));
    let handle = rt.handle(args.node);
    let mut assignments: Vec<(ObjectId, usize)> = Vec::new();
    let mut workload: Option<Workload> = None;
    let mut acked_shutdown = false;

    conn.set_read_timeout(Some(Duration::from_millis(100)))
        .map_err(ctrl)?;
    loop {
        if term.load(Ordering::SeqCst) {
            break; // SIGTERM/SIGINT: same graceful path as `shutdown`
        }
        let line = match conn.recv() {
            Ok(line) => line,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(ctrl(e)),
        };
        let mut parts = line.split_ascii_whitespace();
        match parts.next().unwrap_or_default() {
            "work" => {
                let obj: u32 = parse_field(parts.next(), &line)?;
                let count: usize = parse_field(parts.next(), &line)?;
                assignments.push((ObjectId(obj), count));
            }
            "go" => {
                let timeout_ms: u64 = parse_field(parts.next(), &line)?;
                let attempts: u32 = parse_field(parts.next(), &line)?;
                workload = Some(start_workload(
                    std::mem::take(&mut assignments),
                    &handle,
                    Duration::from_millis(timeout_ms),
                    attempts,
                    Arc::clone(&writer),
                ));
            }
            "epoch" => {
                let epoch: u64 = parse_field(parts.next(), &line)?;
                // The harness's detection bump. Arming faults checks stamps
                // on frames between shards, and a daemon has one shard.
                rt.fault_handle().broadcast_epoch(epoch);
                send_line(&lock(&writer), "ok").map_err(ctrl)?;
            }
            "stats" => {
                let wire = rt.stats().metrics().to_wire();
                let w = lock(&writer);
                for metric_line in wire.lines() {
                    send_line(&w, metric_line).map_err(ctrl)?;
                }
                send_line(&w, ".").map_err(ctrl)?;
            }
            "shutdown" => {
                acked_shutdown = true;
                break;
            }
            other => {
                return Err(DaemonError::Control(format!(
                    "unknown control command {other:?}"
                )))
            }
        }
    }

    // Graceful shutdown: stop workers first (an in-flight acquire resolves
    // within its own timeout), then drain the mesh and flush the journal.
    if let Some(w) = workload {
        w.stopping.store(true, Ordering::SeqCst);
        let _ = w.supervisor.join();
    }
    let report = rt.shutdown();
    write_journal(&args.journal, args.node, &report).map_err(DaemonError::Journal)?;
    if acked_shutdown {
        // Only after the journal is durable — `bye` is the harness's cue that
        // the journal is complete on disk.
        send_line(&lock(&writer), "bye").map_err(ctrl)?;
    }
    Ok(())
}

/// Take the control writer's lock, whoever poisoned it: a panicked worker
/// breaks no invariant of the socket, so it must not take the channel down.
fn lock(writer: &Mutex<TcpStream>) -> MutexGuard<'_, TcpStream> {
    writer.lock().unwrap_or_else(PoisonError::into_inner)
}

fn parse_field<T: std::str::FromStr>(field: Option<&str>, line: &str) -> Result<T, DaemonError>
where
    T::Err: std::fmt::Display,
{
    field
        .ok_or_else(|| DaemonError::Control(format!("short control line {line:?}")))?
        .parse()
        .map_err(|e| DaemonError::Control(format!("bad field in {line:?}: {e}")))
}

/// Run this node's assignments on the live replay client's workers (one
/// thread per assignment), and write the `done` line from a supervisor thread
/// once all of them have joined. A worker stops at its first acquire that
/// exhausts its budget.
fn start_workload(
    assignments: Vec<(ObjectId, usize)>,
    handle: &NetHandle,
    timeout: Duration,
    attempts: u32,
    writer: Arc<Mutex<TcpStream>>,
) -> Workload {
    let stopping = Arc::new(AtomicBool::new(false));
    // Churn in flight (a peer died, an epoch bump is coming) is retried after
    // the client's backoff; the harness, not this daemon, decides on bumps.
    let client = Client::new(timeout, attempts).with_stop(Arc::clone(&stopping));
    let node = handle.node();
    let work = assignments
        .into_iter()
        .map(|(obj, count)| (node, obj, count));
    let workers = client.spawn(work, |_| handle.clone());
    let supervisor = {
        let stopping = Arc::clone(&stopping);
        std::thread::spawn(move || {
            let tally = workers.join();
            // A stopping daemon is past reporting; the harness learns the
            // outcome from the journal instead.
            if !stopping.load(Ordering::SeqCst) {
                let (completed, failed) = (tally.completed, tally.failures.len());
                let obj = tally.failures.first().map(|(obj, _)| obj.0.to_string());
                let obj = obj.unwrap_or_else(|| "-".to_string());
                let line = format!("done {completed} {failed} {obj}");
                let _ = send_line(&lock(&writer), &line);
            }
        })
    };
    Workload {
        supervisor,
        stopping,
    }
}
