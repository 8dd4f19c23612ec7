//! The harness ↔ daemon control protocol: newline-delimited text over one TCP
//! connection per daemon, dialed *by the daemon* at startup (the harness's
//! control listener address is on the `arrowd` command line, so daemons work
//! behind ephemeral ports and, later, across hosts).
//!
//! ## Conversation
//!
//! ```text
//! daemon → hello <node> <@name|ip:port>    advertise the protocol listener
//! harness → peers <a0> <a1> ... <aN-1>     full advertised address table
//! daemon → ready                            mesh handshake spawned
//! harness → work <obj> <count>              (repeatable) assign acquires
//! harness → go <timeout_ms> <attempts>      start the assigned workload
//! daemon → done <completed> <failed> <obj|->  workload finished
//! harness → epoch <e>                       recovery epoch bump → ok
//! harness → stats                           metrics scrape → wire lines + "."
//! harness → shutdown                        graceful stop → bye, then exit
//! ```
//!
//! Addresses are [`arrow_net::PeerAddr`] text: `@name` for an abstract
//! Unix-domain socket (the default for daemons of one host), `ip:port` for
//! TCP. This channel itself is always TCP; it carries no per-acquire traffic.
//!
//! Lines are ASCII, space-separated, `\n`-terminated. The framing is
//! deliberately dumb: both ends are in this workspace, and a human can drive a
//! daemon with `nc` when debugging.

use netgraph::{NodeId, RootedTree};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// How long either end waits for an expected control line before declaring the
/// peer wedged (bootstrap handshakes complete in milliseconds; workload
/// `done` waits use caller-chosen budgets instead).
pub const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// One end of a control connection: buffered line reads over a raw
/// [`TcpStream`], with the partial-line buffer preserved across read timeouts
/// so a slow sender never corrupts framing.
#[derive(Debug)]
pub struct LineConn {
    stream: TcpStream,
    pending: Vec<u8>,
}

impl LineConn {
    /// Wrap an established control stream.
    pub fn new(stream: TcpStream) -> LineConn {
        LineConn {
            stream,
            pending: Vec::new(),
        }
    }

    /// The underlying stream (for `try_clone` — a daemon's workload supervisor
    /// writes its `done` line on a clone while the control loop keeps reading).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Set the read timeout for subsequent [`recv`](LineConn::recv) calls
    /// (`None` blocks forever).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Send one line (the `\n` is appended here).
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        send_line(&self.stream, line)
    }

    /// Receive one line, stripped of its terminator. A read timeout surfaces
    /// as [`io::ErrorKind::WouldBlock`]/[`io::ErrorKind::TimedOut`] with any
    /// partial line retained for the next call; a closed peer surfaces as
    /// [`io::ErrorKind::UnexpectedEof`]. A read interrupted by a signal is
    /// retried: with a read timeout set, a stop and continue (`SIGSTOP`,
    /// `SIGCONT`) fails the blocked `recv` with `EINTR` (signal(7)) even where
    /// no handler runs.
    pub fn recv(&mut self) -> io::Result<String> {
        loop {
            if let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.pending.drain(..=pos).collect();
                line.pop();
                return String::from_utf8(line).map_err(|e| {
                    io::Error::new(io::ErrorKind::InvalidData, format!("non-UTF8 line: {e}"))
                });
            }
            let mut chunk = [0u8; 4096];
            match (&self.stream).read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "control peer closed the connection",
                    ))
                }
                Ok(n) => self.pending.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// [`recv`](LineConn::recv) with a one-shot deadline, restoring the
    /// previous blocking behaviour afterwards.
    pub fn recv_timeout(&mut self, timeout: Duration) -> io::Result<String> {
        self.set_read_timeout(Some(timeout))?;
        let got = self.recv();
        let _ = self.set_read_timeout(None);
        got
    }
}

/// Write one `\n`-terminated line to a (possibly shared) control stream.
pub fn send_line(mut stream: &TcpStream, line: &str) -> io::Result<()> {
    debug_assert!(!line.contains('\n'), "control lines are single lines");
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    stream.write_all(&buf)
}

/// Encode a rooted spanning tree for the `arrowd` command line: one
/// comma-separated entry per node, `r` for the root, the parent id otherwise
/// (all tree edges carry unit weight on the wire — the process tier measures
/// real latency instead of modeling it).
pub fn tree_to_wire(tree: &RootedTree) -> String {
    (0..tree.node_count())
        .map(|v| match tree.parent(v) {
            None => "r".to_string(),
            Some(p) => p.to_string(),
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// Decode [`tree_to_wire`]'s encoding.
pub fn tree_from_wire(wire: &str) -> Result<RootedTree, String> {
    let mut parents: Vec<Option<(NodeId, f64)>> = Vec::new();
    for (v, entry) in wire.split(',').enumerate() {
        match entry.trim() {
            "r" => parents.push(None),
            p => {
                let p: NodeId = p
                    .parse()
                    .map_err(|e| format!("node {v}: bad parent {p:?}: {e}"))?;
                parents.push(Some((p, 1.0)));
            }
        }
    }
    let roots = parents.iter().filter(|p| p.is_none()).count();
    if roots != 1 {
        return Err(format!("tree wire has {roots} roots, expected exactly 1"));
    }
    if parents.iter().flatten().any(|&(p, _)| p >= parents.len()) {
        return Err("tree wire names a parent outside the node range".to_string());
    }
    Ok(RootedTree::from_parents(&parents))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::generators;
    use std::net::TcpListener;

    #[test]
    fn tree_wire_round_trips() {
        let t = RootedTree::from_tree_graph(&generators::balanced_binary_tree(7), 0);
        let wire = tree_to_wire(&t);
        assert_eq!(wire, "r,0,0,1,1,2,2");
        let back = tree_from_wire(&wire).unwrap();
        assert_eq!(back.node_count(), 7);
        for v in 0..7 {
            assert_eq!(back.parent(v), t.parent(v));
        }
    }

    #[test]
    fn tree_wire_rejects_malformed_input() {
        assert!(tree_from_wire("r,r").is_err(), "two roots");
        assert!(tree_from_wire("0,0").is_err(), "no root");
        assert!(tree_from_wire("r,9").is_err(), "parent out of range");
        assert!(tree_from_wire("r,x").is_err(), "non-numeric parent");
    }

    #[test]
    fn line_conn_frames_across_partial_reads_and_timeouts() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let mut conn = LineConn::new(server);

        // A partial line followed by a timeout must not lose bytes.
        send_line(&client, "hello 3 127.0.0.1:9").unwrap();
        (&client).write_all(b"par").unwrap();
        assert_eq!(conn.recv().unwrap(), "hello 3 127.0.0.1:9");
        let err = conn.recv_timeout(Duration::from_millis(50)).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "timeout, got {err:?}"
        );
        (&client).write_all(b"tial line\n").unwrap();
        assert_eq!(conn.recv().unwrap(), "partial line");

        // Closing the peer is a clean EOF, not a hang.
        drop(client);
        assert_eq!(
            conn.recv().unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }
}
