//! Daemon-link sockets: one address type, and the listener and stream it
//! picks between TCP and abstract Unix-domain sockets.
//!
//! A [`PeerAddr`] is what a daemon advertises and what its peers dial. Its
//! text form is the one that crosses process boundaries (`arrowd --listen`,
//! the cluster harness's `hello`/`peers` control lines):
//!
//! * `ip:port` — TCP, for a daemon other hosts must reach;
//! * `@name` — an abstract Unix-domain socket, for daemons on one host. An
//!   abstract name lives in the kernel, not the filesystem: nothing to clean
//!   up, and the name is freed when its last descriptor closes.
//!
//! Everything above the socket — the reactor's handshakes, one-way links,
//! send buffers and fault handling — runs unchanged on either family; the
//! [`Listener`] and the crate-internal `Stream` only dispatch the syscalls.
//! On one host a Unix stream skips the IP and TCP layers (no acknowledgement
//! segments, no retransmit timers), so each message costs the kernel less.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::linux::net::SocketAddrExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::str::FromStr;

/// Where a daemon-mode node listens and is dialed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PeerAddr {
    /// A TCP socket address (`ip:port`).
    Tcp(SocketAddr),
    /// An abstract Unix-domain socket name (`@name`): one to
    /// [`netpoll::MAX_ABSTRACT_NAME`] bytes, no NUL, no whitespace.
    Unix(String),
}

/// Why a [`PeerAddr`] text was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerAddrError {
    /// `@` with no name after it.
    EmptyName,
    /// A name longer than `sun_path` holds (the byte length given).
    NameTooLong(usize),
    /// A NUL byte inside the name.
    NulInName,
    /// Whitespace inside the name, which the space-separated control lines
    /// could not carry.
    SpaceInName,
    /// Not `@name` and not a valid `ip:port` (bad address or port).
    Tcp(std::net::AddrParseError),
}

impl fmt::Display for PeerAddrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PeerAddrError::EmptyName => write!(f, "empty abstract socket name"),
            PeerAddrError::NameTooLong(len) => write!(
                f,
                "abstract socket name of {len} bytes exceeds {}",
                netpoll::MAX_ABSTRACT_NAME
            ),
            PeerAddrError::NulInName => write!(f, "NUL byte in abstract socket name"),
            PeerAddrError::SpaceInName => write!(f, "whitespace in abstract socket name"),
            PeerAddrError::Tcp(e) => write!(f, "neither @name nor ip:port: {e}"),
        }
    }
}

impl std::error::Error for PeerAddrError {}

impl PeerAddr {
    /// The abstract socket name `name`, checked as [`PeerAddr::from_str`]
    /// checks the text after `@`.
    fn unix(name: &str) -> Result<PeerAddr, PeerAddrError> {
        if name.is_empty() {
            Err(PeerAddrError::EmptyName)
        } else if name.len() > netpoll::MAX_ABSTRACT_NAME {
            Err(PeerAddrError::NameTooLong(name.len()))
        } else if name.contains('\0') {
            Err(PeerAddrError::NulInName)
        } else if name.contains(char::is_whitespace) {
            Err(PeerAddrError::SpaceInName)
        } else {
            Ok(PeerAddr::Unix(name.to_string()))
        }
    }
}

impl FromStr for PeerAddr {
    type Err = PeerAddrError;

    fn from_str(s: &str) -> Result<PeerAddr, PeerAddrError> {
        match s.strip_prefix('@') {
            Some(name) => PeerAddr::unix(name),
            None => s.parse().map(PeerAddr::Tcp).map_err(PeerAddrError::Tcp),
        }
    }
}

impl fmt::Display for PeerAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PeerAddr::Tcp(addr) => addr.fmt(f),
            PeerAddr::Unix(name) => write!(f, "@{name}"),
        }
    }
}

/// A bound, listening daemon socket of either family.
#[derive(Debug)]
pub enum Listener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// An abstract Unix-domain listener.
    Unix(UnixListener),
}

impl Listener {
    /// Listen on exactly `addr`. A TCP bind sets `SO_REUSEADDR`, so a
    /// restarted daemon rebinds its dead predecessor's advertised port past
    /// the `TIME_WAIT` connections; an abstract name is free as soon as its
    /// holder is dead. Either fails with `AddrInUse` while a live socket
    /// holds the address.
    pub fn bind(addr: &PeerAddr) -> io::Result<Listener> {
        match addr {
            PeerAddr::Tcp(addr) => netpoll::listen_reuse(addr).map(Listener::Tcp),
            PeerAddr::Unix(name) => netpoll::listen_unix(Some(name.as_bytes())).map(Listener::Unix),
        }
    }

    /// Listen on an ephemeral loopback TCP port.
    pub fn loopback() -> io::Result<Listener> {
        TcpListener::bind("127.0.0.1:0").map(Listener::Tcp)
    }

    /// Listen on an abstract Unix-domain name the kernel picks, unique on
    /// this host.
    pub fn autobind() -> io::Result<Listener> {
        netpoll::listen_unix(None).map(Listener::Unix)
    }

    /// The address peers dial to reach this listener.
    pub fn local_addr(&self) -> io::Result<PeerAddr> {
        match self {
            Listener::Tcp(l) => l.local_addr().map(PeerAddr::Tcp),
            Listener::Unix(l) => {
                let addr = l.local_addr()?;
                let name = addr.as_abstract_name().unwrap_or_default();
                let name = std::str::from_utf8(name).map_err(invalid)?;
                PeerAddr::unix(name).map_err(invalid)
            }
        }
    }

    pub(crate) fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nonblocking),
            Listener::Unix(l) => l.set_nonblocking(nonblocking),
        }
    }

    /// Accept one connection. The stream is blocking, whatever the listener.
    pub(crate) fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }
}

impl AsRawFd for Listener {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l) => l.as_raw_fd(),
        }
    }
}

fn invalid(e: impl std::error::Error + Send + Sync + 'static) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// A connected daemon-link socket of either family.
#[derive(Debug)]
pub(crate) enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    /// Begin a nonblocking connect to `addr`; completion is signalled by
    /// writability and read with [`netpoll::take_socket_error`].
    pub(crate) fn connect(addr: &PeerAddr) -> io::Result<Stream> {
        match addr {
            PeerAddr::Tcp(addr) => netpoll::connect_stream(addr).map(Stream::Tcp),
            PeerAddr::Unix(name) => netpoll::connect_unix(name.as_bytes()).map(Stream::Unix),
        }
    }

    pub(crate) fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(nonblocking),
            Stream::Unix(s) => s.set_nonblocking(nonblocking),
        }
    }

    /// Disable Nagle's algorithm on TCP; a Unix stream never delays a write.
    pub(crate) fn set_nodelay(&self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nodelay(true),
            Stream::Unix(_) => Ok(()),
        }
    }

    pub(crate) fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.shutdown(how),
            Stream::Unix(s) => s.shutdown(how),
        }
    }
}

impl AsRawFd for Stream {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Unix(s) => s.as_raw_fd(),
        }
    }
}

impl Read for &Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => (&*s).read(buf),
            Stream::Unix(s) => (&*s).read(buf),
        }
    }
}

impl Write for &Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => (&*s).write(buf),
            Stream::Unix(s) => (&*s).write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
impl Stream {
    /// A blocking connect to `addr` reading with a ten-second timeout: a
    /// test playing a peer by hand.
    pub(crate) fn dial_blocking(addr: &PeerAddr) -> io::Result<Stream> {
        let stream = match addr {
            PeerAddr::Tcp(addr) => Stream::Tcp(TcpStream::connect(addr)?),
            PeerAddr::Unix(name) => {
                let addr = std::os::unix::net::SocketAddr::from_abstract_name(name)?;
                Stream::Unix(UnixStream::connect_addr(&addr)?)
            }
        };
        stream.set_nodelay()?;
        stream.with_read_timeout()
    }

    /// This blocking stream, reading with a ten-second timeout.
    fn with_read_timeout(self) -> io::Result<Stream> {
        let timeout = Some(std::time::Duration::from_secs(10));
        match &self {
            Stream::Tcp(s) => s.set_read_timeout(timeout)?,
            Stream::Unix(s) => s.set_read_timeout(timeout)?,
        }
        Ok(self)
    }
}

#[cfg(test)]
impl Listener {
    /// Accept one connection within ten seconds, reading with a ten-second
    /// timeout: a test playing a peer that is dialed.
    pub(crate) fn accept_blocking(&self) -> io::Result<Stream> {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        self.set_nonblocking(true)?;
        loop {
            match self.accept() {
                Ok(stream) => {
                    stream.set_nonblocking(false)?;
                    return stream.with_read_timeout();
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        && std::time::Instant::now() < deadline =>
                {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peer_addr_text_round_trips() {
        for text in ["127.0.0.1:4000", "[::1]:9", "@arrowd-0", "@0a1f3"] {
            let addr: PeerAddr = text.parse().unwrap();
            assert_eq!(addr.to_string(), text);
            assert_eq!(addr.to_string().parse::<PeerAddr>(), Ok(addr));
        }
        let longest = format!("@{}", "n".repeat(netpoll::MAX_ABSTRACT_NAME));
        assert!(longest.parse::<PeerAddr>().is_ok());
        for l in [Listener::loopback(), Listener::autobind()] {
            let addr = l.unwrap().local_addr().unwrap();
            assert_eq!(addr.to_string().parse::<PeerAddr>(), Ok(addr));
        }
    }

    #[test]
    fn peer_addr_rejects_malformed_input() {
        let too_long = format!("@{}", "n".repeat(netpoll::MAX_ABSTRACT_NAME + 1));
        let named = [
            ("@", PeerAddrError::EmptyName),
            (
                &too_long,
                PeerAddrError::NameTooLong(netpoll::MAX_ABSTRACT_NAME + 1),
            ),
            ("@a\0b", PeerAddrError::NulInName),
            ("@a b", PeerAddrError::SpaceInName),
        ];
        for (text, want) in named {
            assert_eq!(text.parse::<PeerAddr>(), Err(want), "{text:?}");
        }
        for text in [
            "127.0.0.1:99999",
            "127.0.0.1:",
            "127.0.0.1",
            "",
            "localhost:80",
        ] {
            let got = text.parse::<PeerAddr>();
            assert!(
                matches!(got, Err(PeerAddrError::Tcp(_))),
                "{text:?}: {got:?}"
            );
        }
    }

    #[test]
    fn binding_a_live_address_fails_and_a_dead_one_rebinds() {
        for first in [Listener::loopback(), Listener::autobind()] {
            let first = first.unwrap();
            let addr = first.local_addr().unwrap();
            let taken = Listener::bind(&addr).unwrap_err();
            assert_eq!(taken.kind(), io::ErrorKind::AddrInUse, "{addr}");
            drop(first);
            let again = Listener::bind(&addr).unwrap();
            assert_eq!(again.local_addr().unwrap(), addr);
        }
    }
}
