//! Offline stand-in for a readiness-notification crate: the `poll(2)`
//! slice of libc, wrapped in a safe API and implemented without libc.
//!
//! The real dependency this replaces would be `libc::poll` (or a
//! higher-level reactor crate such as `polling`/`mio`). The container
//! this repo builds in is offline, so — following the shim-crate
//! pattern used for `rand`, `proptest`, `criterion`, … — this crate
//! provides the one syscall the transport reactor needs:
//!
//! * On `linux` + `x86_64` it issues the raw `poll` syscall (number 7)
//!   through inline assembly. No libc, no allocation, no threads.
//! * On every other target it degrades to a **timed busy-poll**: sleep
//!   a millisecond slice and report every descriptor as ready. Callers
//!   already treat readiness as a hint (all sockets are nonblocking and
//!   handle `WouldBlock`), so the fallback is correct, merely hot.
//!
//! The API is deliberately tiny and entirely safe: `unsafe` is confined
//! to the single asm statement below, so dependent crates can keep
//! `#![forbid(unsafe_code)]`.

#![warn(missing_docs)]

use std::io;

/// There is data to read.
pub const POLLIN: i16 = 0x001;
/// Writing is possible without blocking.
pub const POLLOUT: i16 = 0x004;
/// Error condition (output only).
pub const POLLERR: i16 = 0x008;
/// Hang up: the peer closed its end (output only).
pub const POLLHUP: i16 = 0x010;
/// Invalid request: fd not open (output only).
pub const POLLNVAL: i16 = 0x020;

/// One entry in a poll set, layout-compatible with `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PollFd {
    /// The file descriptor to watch (as returned by `AsRawFd::as_raw_fd`).
    pub fd: i32,
    /// Requested events (`POLLIN | POLLOUT | …`).
    pub events: i16,
    /// Returned events, filled in by [`poll`].
    pub revents: i16,
}

impl PollFd {
    /// Builds an entry watching `fd` for `events`.
    pub fn new(fd: i32, events: i16) -> Self {
        PollFd { fd, events, revents: 0 }
    }

    /// True when the last [`poll`] reported the descriptor readable
    /// (data available, or a hangup that a read will surface as EOF).
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR) != 0
    }

    /// True when the last [`poll`] reported the descriptor writable.
    pub fn writable(&self) -> bool {
        self.revents & (POLLOUT | POLLERR | POLLHUP) != 0
    }

    /// True when the descriptor is in an error / hangup / invalid state.
    pub fn failed(&self) -> bool {
        self.revents & (POLLERR | POLLHUP | POLLNVAL) != 0
    }
}

/// Waits until one of `fds` is ready or `timeout_ms` elapses.
///
/// Returns the number of entries with nonzero `revents`. A return of
/// `Ok(0)` means the timeout expired (interruptions by signals are
/// retried internally). `timeout_ms < 0` is clamped to a 10ms wait so a
/// lost wakeup can never park the caller forever.
pub fn poll(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    let timeout = if timeout_ms < 0 { 10 } else { timeout_ms };
    sys_poll(fds, timeout)
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn sys_poll(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    const SYS_POLL: i64 = 7;
    const EINTR: i64 = 4;
    loop {
        let mut ret: i64 = SYS_POLL;
        // SAFETY: the raw `poll` syscall reads and writes `nfds`
        // `struct pollfd` records starting at `rdi`. `PollFd` is
        // `#[repr(C)]` with the exact pollfd layout, the pointer and
        // length come from a live `&mut [PollFd]`, and the kernel
        // writes only within that slice. rcx/r11 are declared
        // clobbered as the syscall ABI requires.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") ret,
                in("rdi") fds.as_mut_ptr(),
                in("rsi") fds.len(),
                in("rdx") timeout_ms,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        if ret >= 0 {
            return Ok(ret as usize);
        }
        if -ret == EINTR {
            continue; // interrupted by a signal: retry with the same timeout
        }
        return Err(io::Error::from_raw_os_error((-ret) as i32));
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn sys_poll(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    // Degraded portable fallback: a bounded sleep, then report every
    // requested event as ready. Callers run nonblocking sockets and
    // treat readiness as a hint, so spurious readiness only costs a
    // `WouldBlock` per descriptor — a busy poll, not a correctness bug.
    let slice = timeout_ms.clamp(0, 1) as u64;
    if slice > 0 {
        // lint: allow(determinism) — host-transport park replacing the kernel poll wait on non-Linux targets; never reached from the sim substrate
        std::thread::sleep(std::time::Duration::from_millis(slice));
    }
    for fd in fds.iter_mut() {
        fd.revents = fd.events;
    }
    Ok(fds.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let a = TcpStream::connect(addr).expect("connect");
        let (b, _) = listener.accept().expect("accept");
        (a, b)
    }

    #[test]
    fn connected_socket_is_writable() {
        let (a, _b) = pair();
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLOUT)];
        let n = poll(&mut fds, 1000).expect("poll");
        assert_eq!(n, 1);
        assert!(fds[0].writable());
    }

    #[test]
    fn becomes_readable_after_peer_write() {
        let (a, mut b) = pair();
        b.write_all(b"ping").expect("write");
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        let n = poll(&mut fds, 1000).expect("poll");
        assert_eq!(n, 1);
        assert!(fds[0].readable());
        let mut buf = [0u8; 4];
        let mut a = a;
        a.read_exact(&mut buf).expect("read");
        assert_eq!(&buf, b"ping");
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn timeout_expires_when_idle() {
        let (a, _b) = pair();
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        let start = std::time::Instant::now();
        let n = poll(&mut fds, 30).expect("poll");
        assert_eq!(n, 0);
        assert!(start.elapsed().as_millis() >= 25, "returned too early");
        assert!(!fds[0].readable());
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn hangup_reported_readable() {
        let (a, b) = pair();
        drop(b);
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        let n = poll(&mut fds, 1000).expect("poll");
        assert_eq!(n, 1);
        assert!(fds[0].readable(), "EOF must surface as readable");
    }

    #[test]
    fn empty_set_times_out() {
        let mut fds: [PollFd; 0] = [];
        let n = poll(&mut fds, 1).expect("poll");
        assert_eq!(n, 0);
    }
}
