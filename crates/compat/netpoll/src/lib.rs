//! Minimal readiness-polling shim over raw Linux syscalls.
//!
//! The offline container has no `libc`/`mio` crates, so the socket tier's
//! event loop talks to the kernel through this crate: `epoll_create1` /
//! `epoll_ctl` / `epoll_pwait` for readiness, `eventfd` for cross-thread
//! wakeups, and a nonblocking `connect(2)` that reports completion via
//! `EPOLLOUT` + `SO_ERROR`. Every `unsafe` block of the socket tier lives
//! here; `arrow-net` itself keeps `#![forbid(unsafe_code)]`.
//!
//! The surface is deliberately tiny and level-triggered: callers re-arm by
//! reading/writing until [`std::io::ErrorKind::WouldBlock`], exactly the
//! contract `arrow-net`'s reactor shards rely on.
//!
//! ```
//! use netpoll::{Poller, Waker};
//! use std::os::fd::AsRawFd;
//!
//! let poller = Poller::new().unwrap();
//! let waker = Waker::new().unwrap();
//! poller.register(waker.as_raw_fd(), 7, true, false).unwrap();
//! waker.wake().unwrap();
//! let mut events = Vec::new();
//! poller
//!     .wait(&mut events, Some(std::time::Duration::from_secs(1)))
//!     .unwrap();
//! assert_eq!(events[0].token, 7);
//! assert!(events[0].readable);
//! waker.drain();
//! ```
#![deny(missing_docs)]

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
compile_error!(
    "netpoll issues raw Linux syscalls and supports only x86_64/aarch64 Linux; \
     port the syscall table in sys.rs before building elsewhere"
);

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::time::Duration;

mod sys {
    //! Syscall numbers and the raw `syscall` trampoline per architecture.

    #[cfg(target_arch = "x86_64")]
    pub mod nr {
        pub const READ: usize = 0;
        pub const WRITE: usize = 1;
        pub const RT_SIGPROCMASK: usize = 14;
        pub const SOCKET: usize = 41;
        pub const CONNECT: usize = 42;
        pub const BIND: usize = 49;
        pub const LISTEN: usize = 50;
        pub const SETSOCKOPT: usize = 54;
        pub const GETSOCKOPT: usize = 55;
        pub const KILL: usize = 62;
        pub const EPOLL_CTL: usize = 233;
        pub const EPOLL_PWAIT: usize = 281;
        pub const SIGNALFD4: usize = 289;
        pub const EVENTFD2: usize = 290;
        pub const EPOLL_CREATE1: usize = 291;
    }

    #[cfg(target_arch = "aarch64")]
    pub mod nr {
        pub const READ: usize = 63;
        pub const WRITE: usize = 64;
        pub const RT_SIGPROCMASK: usize = 135;
        pub const SOCKET: usize = 198;
        pub const CONNECT: usize = 203;
        pub const BIND: usize = 200;
        pub const LISTEN: usize = 201;
        pub const SETSOCKOPT: usize = 208;
        pub const GETSOCKOPT: usize = 209;
        pub const KILL: usize = 129;
        pub const EPOLL_CREATE1: usize = 20;
        pub const EPOLL_CTL: usize = 21;
        pub const EPOLL_PWAIT: usize = 22;
        pub const SIGNALFD4: usize = 74;
        pub const EVENTFD2: usize = 19;
    }

    /// Raw 6-argument syscall. Returns the kernel's raw result: `>= 0` on
    /// success, `-errno` on failure.
    ///
    /// # Safety
    /// The caller must uphold the kernel contract for syscall `n`: pointer
    /// arguments must be valid for the access the kernel performs.
    #[cfg(target_arch = "x86_64")]
    pub unsafe fn syscall6(
        n: usize,
        a0: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
    ) -> isize {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a0,
            in("rsi") a1,
            in("rdx") a2,
            in("r10") a3,
            in("r8") a4,
            in("r9") a5,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    /// Raw 6-argument syscall (aarch64 flavour of [`syscall6`]).
    ///
    /// # Safety
    /// Same contract as the x86_64 variant.
    #[cfg(target_arch = "aarch64")]
    pub unsafe fn syscall6(
        n: usize,
        a0: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
    ) -> isize {
        let ret: isize;
        core::arch::asm!(
            "svc 0",
            in("x8") n,
            inlateout("x0") a0 => ret,
            in("x1") a1,
            in("x2") a2,
            in("x3") a3,
            in("x4") a4,
            in("x5") a5,
            options(nostack),
        );
        ret
    }
}

/// Convert a raw kernel return value into `io::Result<usize>`.
fn check(ret: isize) -> io::Result<usize> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: usize = 1;
const EPOLL_CTL_DEL: usize = 2;
const EPOLL_CTL_MOD: usize = 3;

const EPOLL_CLOEXEC: usize = 0o2000000;
const EFD_CLOEXEC: usize = 0o2000000;
const EFD_NONBLOCK: usize = 0o4000;

const AF_INET: u16 = 2;
const AF_INET6: u16 = 10;
const SOCK_STREAM: usize = 1;
const SOCK_NONBLOCK: usize = 0o4000;
const SOCK_CLOEXEC: usize = 0o2000000;
const SOL_SOCKET: usize = 1;
const SO_REUSEADDR: usize = 2;
const SO_ERROR: usize = 4;

const EINTR: i32 = 4;
const EINPROGRESS: i32 = 115;

/// `SIGINT` (terminal interrupt).
pub const SIGINT: i32 = 2;
/// `SIGTERM` (polite termination request).
pub const SIGTERM: i32 = 15;
/// `SIGCONT` (resume a stopped process).
pub const SIGCONT: i32 = 18;
/// `SIGSTOP` (stop a process; cannot be caught or blocked).
pub const SIGSTOP: i32 = 19;
const SIG_BLOCK: usize = 0;
const SFD_CLOEXEC: usize = 0o2000000;
/// Kernel sigset size in bytes (`_NSIG / 8` on Linux).
const SIGSET_LEN: usize = 8;

/// Kernel `struct epoll_event`. Packed on x86_64 (the kernel ABI there has no
/// padding between `events` and `data`), naturally aligned elsewhere.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// One readiness notification delivered by [`Poller::wait`].
///
/// `EPOLLERR`/`EPOLLHUP` conditions are folded into both `readable` and
/// `writable` so handlers discover the failure through the usual read/write
/// path (the next I/O call returns the real error).
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token supplied at [`Poller::register`] time.
    pub token: u64,
    /// Fires when the fd has data (or EOF/error) to read.
    pub readable: bool,
    /// Fires when the fd accepts writes (or has a pending error).
    pub writable: bool,
}

/// A level-triggered epoll instance.
pub struct Poller {
    epfd: OwnedFd,
}

impl Poller {
    /// Create a new epoll instance (`EPOLL_CLOEXEC`).
    pub fn new() -> io::Result<Self> {
        // SAFETY: epoll_create1 takes no pointers.
        let fd =
            check(unsafe { sys::syscall6(sys::nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })?;
        // SAFETY: the kernel just handed us ownership of this fd.
        Ok(Self {
            epfd: unsafe { OwnedFd::from_raw_fd(fd as RawFd) },
        })
    }

    fn ctl(&self, op: usize, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        let mut flags = EPOLLRDHUP;
        if read {
            flags |= EPOLLIN;
        }
        if write {
            flags |= EPOLLOUT;
        }
        let ev = EpollEvent {
            events: flags,
            data: token,
        };
        // SAFETY: `ev` is a valid epoll_event for the duration of the call;
        // EPOLL_CTL_DEL ignores the pointer but passing it is still valid.
        check(unsafe {
            sys::syscall6(
                sys::nr::EPOLL_CTL,
                self.epfd.as_raw_fd() as usize,
                op,
                fd as usize,
                &ev as *const EpollEvent as usize,
                0,
                0,
            )
        })
        .map(|_| ())
    }

    /// Start watching `fd`, delivering `token` with each event.
    pub fn register(&self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, read, write)
    }

    /// Change the interest set of an already-registered `fd`.
    pub fn modify(&self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, read, write)
    }

    /// Stop watching `fd`. The fd must still be open when this is called.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, false, false)
    }

    /// Block until at least one event is ready or `timeout` elapses
    /// (`None` = wait forever). Clears and refills `events`; returns the
    /// number of events delivered. Retries transparently on `EINTR`. On any
    /// other error `events` is left empty, so a caller that carries on never
    /// replays the previous call's events.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        const CAP: usize = 256;
        events.clear();
        let mut raw = [EpollEvent { events: 0, data: 0 }; CAP];
        let timeout_ms: isize = match timeout {
            // Round up so a 100µs timeout still sleeps rather than spins.
            Some(d) => d.as_nanos().div_ceil(1_000_000).min(isize::MAX as u128) as isize,
            None => -1,
        };
        let n = loop {
            // SAFETY: `raw` is a valid writable buffer of CAP epoll_events;
            // a null sigmask means "don't change the signal mask".
            let ret = unsafe {
                sys::syscall6(
                    sys::nr::EPOLL_PWAIT,
                    self.epfd.as_raw_fd() as usize,
                    raw.as_mut_ptr() as usize,
                    CAP,
                    timeout_ms as usize,
                    0,
                    8,
                )
            };
            if ret == -(EINTR as isize) {
                continue;
            }
            break check(ret)?;
        };
        for ev in raw.iter().take(n) {
            // Copy out of the (possibly packed) struct before inspecting.
            let bits = ev.events;
            let token = ev.data;
            let failed = bits & (EPOLLERR | EPOLLHUP) != 0;
            events.push(Event {
                token,
                readable: failed || bits & (EPOLLIN | EPOLLRDHUP) != 0,
                writable: failed || bits & EPOLLOUT != 0,
            });
        }
        Ok(n)
    }
}

/// A cross-thread wakeup handle backed by a nonblocking `eventfd`.
///
/// Register its fd with a [`Poller`] (read interest); any thread may then
/// call [`Waker::wake`] to force the poller out of `wait`. Call
/// [`Waker::drain`] after observing the event to reset it.
pub struct Waker {
    fd: OwnedFd,
}

impl Waker {
    /// Create a new eventfd-backed waker.
    pub fn new() -> io::Result<Self> {
        // SAFETY: eventfd2 takes no pointers.
        let fd = check(unsafe {
            sys::syscall6(sys::nr::EVENTFD2, 0, EFD_CLOEXEC | EFD_NONBLOCK, 0, 0, 0, 0)
        })?;
        // SAFETY: the kernel just handed us ownership of this fd.
        Ok(Self {
            fd: unsafe { OwnedFd::from_raw_fd(fd as RawFd) },
        })
    }

    /// Make the registered poller's next (or current) `wait` return.
    pub fn wake(&self) -> io::Result<()> {
        let one: u64 = 1;
        // SAFETY: writing 8 bytes from a valid u64.
        let ret = unsafe {
            sys::syscall6(
                sys::nr::WRITE,
                self.fd.as_raw_fd() as usize,
                &one as *const u64 as usize,
                8,
                0,
                0,
                0,
            )
        };
        // EAGAIN means the counter is saturated — the poller is already
        // pending a wakeup, so that is success for our purposes.
        match check(ret) {
            Ok(_) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Consume any pending wakeups so the level-triggered poller stops
    /// reporting this fd as readable.
    pub fn drain(&self) {
        let mut buf: u64 = 0;
        // SAFETY: reading 8 bytes into a valid u64.
        let _ = unsafe {
            sys::syscall6(
                sys::nr::READ,
                self.fd.as_raw_fd() as usize,
                &mut buf as *mut u64 as usize,
                8,
                0,
                0,
                0,
            )
        };
    }
}

impl AsRawFd for Waker {
    fn as_raw_fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }
}

/// Encode a `SocketAddr` as a kernel sockaddr buffer. Returns (buf, len).
fn encode_sockaddr(addr: &SocketAddr) -> ([u8; 28], usize) {
    let mut buf = [0u8; 28];
    match addr {
        SocketAddr::V4(v4) => {
            buf[0..2].copy_from_slice(&AF_INET.to_ne_bytes());
            buf[2..4].copy_from_slice(&v4.port().to_be_bytes());
            buf[4..8].copy_from_slice(&v4.ip().octets());
            (buf, 16)
        }
        SocketAddr::V6(v6) => {
            buf[0..2].copy_from_slice(&AF_INET6.to_ne_bytes());
            buf[2..4].copy_from_slice(&v6.port().to_be_bytes());
            buf[4..8].copy_from_slice(&v6.flowinfo().to_ne_bytes());
            buf[8..24].copy_from_slice(&v6.ip().octets());
            buf[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
            (buf, 28)
        }
    }
}

/// Begin a nonblocking TCP connect to `addr`.
///
/// Returns a stream that is already in nonblocking mode. The connect may
/// still be in flight: register the fd for write interest and, when
/// `EPOLLOUT` fires, call [`take_socket_error`] to learn whether the
/// handshake succeeded. (On loopback the kernel often completes the connect
/// synchronously; that case needs no special handling — the fd simply polls
/// writable immediately.)
pub fn connect_stream(addr: &SocketAddr) -> io::Result<TcpStream> {
    let family = match addr {
        SocketAddr::V4(_) => AF_INET as usize,
        SocketAddr::V6(_) => AF_INET6 as usize,
    };
    // SAFETY: socket takes no pointers.
    let fd = check(unsafe {
        sys::syscall6(
            sys::nr::SOCKET,
            family,
            SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
            0,
            0,
            0,
            0,
        )
    })? as RawFd;
    // SAFETY: the kernel just handed us ownership of this fd; wrapping it
    // immediately guarantees it is closed on every early return below.
    let stream = unsafe { TcpStream::from_raw_fd(fd) };
    let (sa, len) = encode_sockaddr(addr);
    // SAFETY: `sa` is a valid sockaddr buffer of `len` bytes.
    let ret = unsafe {
        sys::syscall6(
            sys::nr::CONNECT,
            fd as usize,
            sa.as_ptr() as usize,
            len,
            0,
            0,
            0,
        )
    };
    match check(ret) {
        Ok(_) => Ok(stream),
        Err(e) if e.raw_os_error() == Some(EINPROGRESS) => Ok(stream),
        Err(e) => Err(e),
    }
}

/// Fetch and clear the pending socket error (`SO_ERROR`).
///
/// After `EPOLLOUT` fires on an in-flight [`connect_stream`] socket, this
/// distinguishes a completed connect (`Ok(None)`) from a refused/failed one
/// (`Ok(Some(error))`).
pub fn take_socket_error(stream: &TcpStream) -> io::Result<Option<io::Error>> {
    let mut err: i32 = 0;
    let mut len: u32 = 4;
    // SAFETY: `err` and `len` are valid for the kernel to write an i32/u32.
    check(unsafe {
        sys::syscall6(
            sys::nr::GETSOCKOPT,
            stream.as_raw_fd() as usize,
            SOL_SOCKET,
            SO_ERROR,
            &mut err as *mut i32 as usize,
            &mut len as *mut u32 as usize,
            0,
        )
    })?;
    if err == 0 {
        Ok(None)
    } else {
        Ok(Some(io::Error::from_raw_os_error(err)))
    }
}

/// Bind a TCP listener on `addr` with `SO_REUSEADDR` set before the bind.
///
/// `std::net::TcpListener::bind` does not set `SO_REUSEADDR`, so rebinding a
/// port whose previous owner died with established connections (now in
/// `TIME_WAIT`) fails with `EADDRINUSE` for up to a minute. A restarting
/// daemon that must come back on its *advertised* address — its peers hold an
/// immutable address table — goes through this helper instead.
pub fn listen_reuse(addr: &SocketAddr) -> io::Result<std::net::TcpListener> {
    let family = match addr {
        SocketAddr::V4(_) => AF_INET as usize,
        SocketAddr::V6(_) => AF_INET6 as usize,
    };
    // SAFETY: socket takes no pointers.
    let fd = check(unsafe {
        sys::syscall6(
            sys::nr::SOCKET,
            family,
            SOCK_STREAM | SOCK_CLOEXEC,
            0,
            0,
            0,
            0,
        )
    })? as RawFd;
    // SAFETY: the kernel just handed us ownership of this fd; wrapping it
    // immediately guarantees it is closed on every early return below.
    let owned = unsafe { OwnedFd::from_raw_fd(fd) };
    let one: i32 = 1;
    // SAFETY: `one` is a valid i32 for the 4-byte option read.
    check(unsafe {
        sys::syscall6(
            sys::nr::SETSOCKOPT,
            fd as usize,
            SOL_SOCKET,
            SO_REUSEADDR,
            &one as *const i32 as usize,
            4,
            0,
        )
    })?;
    let (sa, len) = encode_sockaddr(addr);
    // SAFETY: `sa` is a valid sockaddr buffer of `len` bytes.
    check(unsafe {
        sys::syscall6(
            sys::nr::BIND,
            fd as usize,
            sa.as_ptr() as usize,
            len,
            0,
            0,
            0,
        )
    })?;
    // SAFETY: listen takes no pointers.
    check(unsafe { sys::syscall6(sys::nr::LISTEN, fd as usize, 128, 0, 0, 0, 0) })?;
    Ok(std::net::TcpListener::from(owned))
}

/// Send signal `sig` to process `pid` (`kill(2)`), e.g. a graceful
/// [`SIGTERM`] before escalating to the std library's `Child::kill`
/// (`SIGKILL`).
pub fn kill(pid: u32, sig: i32) -> io::Result<()> {
    // SAFETY: kill takes no pointers.
    check(unsafe { sys::syscall6(sys::nr::KILL, pid as usize, sig as usize, 0, 0, 0, 0) })
        .map(|_| ())
}

/// A `signalfd(2)` delivering [`SIGTERM`]/[`SIGINT`] as readable events.
///
/// [`SignalFd::for_termination`] blocks both signals in the calling thread's
/// mask *before* returning; call it from `main` before spawning any thread, so
/// every thread inherits the mask and the process-directed signal is only ever
/// consumed through the fd (a thread with the signal unblocked would take the
/// default handler — immediate death — instead). Typically a dedicated watcher
/// thread parks in [`SignalFd::wait`] and flips a shutdown flag.
pub struct SignalFd {
    fd: OwnedFd,
}

impl SignalFd {
    /// Block `SIGTERM` and `SIGINT` in this thread's signal mask and return a
    /// signalfd that receives them instead.
    pub fn for_termination() -> io::Result<Self> {
        let mask: u64 = (1u64 << (SIGTERM - 1)) | (1u64 << (SIGINT - 1));
        // SAFETY: `mask` is a valid 8-byte kernel sigset; the old-mask pointer
        // is null (not requested).
        check(unsafe {
            sys::syscall6(
                sys::nr::RT_SIGPROCMASK,
                SIG_BLOCK,
                &mask as *const u64 as usize,
                0,
                SIGSET_LEN,
                0,
                0,
            )
        })?;
        // SAFETY: `mask` is a valid sigset for the signalfd to subscribe to.
        let fd = check(unsafe {
            sys::syscall6(
                sys::nr::SIGNALFD4,
                usize::MAX, // -1: create a new signalfd
                &mask as *const u64 as usize,
                SIGSET_LEN,
                SFD_CLOEXEC,
                0,
                0,
            )
        })?;
        // SAFETY: the kernel just handed us ownership of this fd.
        Ok(SignalFd {
            fd: unsafe { OwnedFd::from_raw_fd(fd as RawFd) },
        })
    }

    /// Block until one of the subscribed signals is delivered; returns its
    /// number (`SIGTERM`/`SIGINT`). Retries on `EINTR`.
    pub fn wait(&self) -> io::Result<i32> {
        // struct signalfd_siginfo is 128 bytes; ssi_signo is its first u32.
        let mut info = [0u8; 128];
        loop {
            // SAFETY: `info` is a valid writable 128-byte buffer.
            let ret = unsafe {
                sys::syscall6(
                    sys::nr::READ,
                    self.fd.as_raw_fd() as usize,
                    info.as_mut_ptr() as usize,
                    info.len(),
                    0,
                    0,
                    0,
                )
            };
            if ret == -(EINTR as isize) {
                continue;
            }
            check(ret)?;
            return Ok(u32::from_ne_bytes([info[0], info[1], info[2], info[3]]) as i32);
        }
    }
}

impl AsRawFd for SignalFd {
    fn as_raw_fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use std::time::Instant;

    #[test]
    fn waker_rouses_a_blocked_wait() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.register(waker.as_raw_fd(), 42, true, false).unwrap();
        waker.wake().unwrap();
        waker.wake().unwrap(); // coalesces, still one event
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 42);
        assert!(events[0].readable);
        waker.drain();
        // Drained: the next wait times out empty.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);
    }

    /// Regression: a failing `epoll_wait` used to return before `events` was
    /// cleared, so a caller that ignored the error replayed the previous
    /// cycle's events against sockets that may since have closed. The poller
    /// here wraps a descriptor that is not an epoll instance (deterministic,
    /// unlike closing a live epoll fd under parallel tests, where the number
    /// can be reused), so the syscall fails with `EINVAL`.
    #[test]
    fn failed_wait_leaves_no_stale_events() {
        let not_epoll = std::fs::File::open("/dev/null").unwrap();
        let poller = Poller {
            epfd: OwnedFd::from(not_epoll),
        };
        let mut events = vec![
            Event {
                token: 7,
                readable: true,
                writable: true,
            };
            3
        ];
        let err = poller
            .wait(&mut events, Some(Duration::ZERO))
            .expect_err("epoll_wait on a non-epoll fd must fail");
        assert_ne!(err.kind(), io::ErrorKind::Interrupted);
        assert!(events.is_empty(), "stale events survived a failed wait");
    }

    #[test]
    fn wait_times_out_without_events() {
        let poller = Poller::new().unwrap();
        let mut events = Vec::new();
        let start = Instant::now();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(30)))
            .unwrap();
        assert_eq!(n, 0);
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn nonblocking_connect_completes_and_carries_data() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let poller = Poller::new().unwrap();
        let stream = connect_stream(&addr).unwrap();
        poller.register(stream.as_raw_fd(), 1, false, true).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.writable));
        assert!(take_socket_error(&stream).unwrap().is_none());

        let (mut peer, _) = listener.accept().unwrap();
        peer.write_all(b"ping").unwrap();
        poller.modify(stream.as_raw_fd(), 1, true, false).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable));
        let mut stream = stream;
        let mut buf = [0u8; 4];
        stream.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        poller.deregister(stream.as_raw_fd()).unwrap();
    }

    #[test]
    fn refused_connect_surfaces_through_so_error() {
        // Bind then drop to obtain a port that refuses connections.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let poller = Poller::new().unwrap();
        let stream = match connect_stream(&dead) {
            Ok(s) => s,
            // Some kernels fail the connect synchronously; that also counts.
            Err(e) => {
                assert_eq!(e.kind(), io::ErrorKind::ConnectionRefused);
                return;
            }
        };
        poller.register(stream.as_raw_fd(), 9, false, true).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 9));
        let err = take_socket_error(&stream)
            .unwrap()
            .expect("refused connect must leave SO_ERROR set");
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn listen_reuse_binds_accepts_and_rebinds() {
        // First incarnation: pick a port, carry one connection.
        let l1 = listen_reuse(&"127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = l1.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (mut srv, _) = l1.accept().unwrap();
        srv.write_all(b"hi").unwrap();
        let mut buf = [0u8; 2];
        let mut client = client;
        client.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hi");
        // Close server-side first so the (addr, port) tuples enter TIME_WAIT,
        // then rebind the same port — the case a restarting daemon hits.
        drop(srv);
        drop(l1);
        drop(client);
        let l2 = listen_reuse(&addr).unwrap();
        assert_eq!(l2.local_addr().unwrap(), addr);
    }

    #[test]
    fn kill_signal_zero_probes_own_process() {
        // Signal 0 performs permission/existence checks without delivering.
        kill(std::process::id(), 0).unwrap();
        // A pid from the far end of the space is almost surely dead.
        assert!(kill(u32::MAX - 1, 0).is_err());
    }

    #[test]
    fn sub_millisecond_timeouts_round_up_instead_of_spinning() {
        let poller = Poller::new().unwrap();
        let mut events = Vec::new();
        let start = Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_micros(100)))
            .unwrap();
        // Rounded up to 1ms, not truncated to a 0ms busy-poll.
        assert!(start.elapsed() >= Duration::from_micros(100));
    }
}
