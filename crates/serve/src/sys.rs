//! The crate's one `unsafe` boundary: readiness waiting with `poll(2)`.
//!
//! std already links the platform C library, so `poll` is bound through
//! one `extern "C"` declaration instead of a dependency. Everything
//! outside this module stays under the crate-level `deny(unsafe_code)`
//! and sees only the safe [`Poller`].
#![allow(unsafe_code)]

use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_short, c_ulong};
use std::time::Duration;

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

/// Readable (or a listener with a connection to accept).
pub(crate) const POLLIN: i16 = 0x001;
/// Writable without blocking.
pub(crate) const POLLOUT: i16 = 0x004;

extern "C" {
    // `nfds_t` is `unsigned long` on Linux.
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// `timeout` as `poll`'s millisecond argument: `None` waits forever
/// (`-1`); a finite wait rounds *up*, so a deadline 1 µs away is never
/// turned into a zero-timeout spin, and clamps to `i32::MAX` ms.
pub(crate) fn timeout_ms(timeout: Option<Duration>) -> c_int {
    match timeout {
        None => -1,
        Some(d) => {
            let ms = d.as_nanos().div_ceil(1_000_000);
            c_int::try_from(ms).unwrap_or(c_int::MAX)
        }
    }
}

/// A reusable `poll(2)` set: register descriptors, then wait until one
/// is ready or the timeout passes.
#[derive(Default)]
pub(crate) struct Poller {
    fds: Vec<PollFd>,
}

impl Poller {
    /// Forgets every registered descriptor, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.fds.clear();
    }

    /// Registers `fd` for `events` (a mask of [`POLLIN`] / [`POLLOUT`]).
    pub(crate) fn add(&mut self, fd: &impl AsRawFd, events: i16) {
        self.fds.push(PollFd { fd: fd.as_raw_fd(), events, revents: 0 });
    }

    /// Blocks until a registered descriptor is ready or `timeout` passes
    /// (`None`: no timeout). Returns how many descriptors are ready; an
    /// interrupted wait is retried.
    ///
    /// Every descriptor registered since the last [`Poller::clear`] must
    /// still be open: the caller keeps their owners alive across the call.
    pub(crate) fn wait(&mut self, timeout: Option<Duration>) -> io::Result<usize> {
        let ms = timeout_ms(timeout);
        loop {
            // SAFETY: `fds` is a live, exclusively borrowed buffer of
            // `fds.len()` `pollfd`s laid out as `<poll.h>` declares them;
            // poll(2) reads `fd`/`events` and writes only `revents`
            // within that length, and keeps no pointer past the call.
            let n = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as c_ulong, ms) };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn timeouts_round_up_and_clamp() {
        assert_eq!(timeout_ms(None), -1);
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 0);
        assert_eq!(timeout_ms(Some(Duration::from_micros(1))), 1, "1 µs must not become 0");
        assert_eq!(timeout_ms(Some(Duration::from_millis(5))), 5);
        assert_eq!(timeout_ms(Some(Duration::from_micros(5001))), 6);
        assert_eq!(timeout_ms(Some(Duration::from_secs(1 << 40))), c_int::MAX);
        assert_eq!(timeout_ms(Some(Duration::MAX)), c_int::MAX);
    }

    #[test]
    fn a_wake_pair_write_ends_an_unbounded_wait() {
        let (rx, tx) = UnixStream::pair().unwrap();
        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            (&tx).write_all(&[1]).unwrap();
            tx
        });
        let mut poller = Poller::default();
        poller.add(&rx, POLLIN);
        assert_eq!(poller.wait(None).unwrap(), 1);
        let mut byte = [0u8; 1];
        assert_eq!((&rx).read(&mut byte).unwrap(), 1);
        drop(waker.join().unwrap());
    }

    #[test]
    fn ready_and_idle_descriptors() {
        let (rx, tx) = UnixStream::pair().unwrap();
        let mut poller = Poller::default();
        poller.add(&rx, POLLIN);
        // Nothing to read: the wait runs out its (rounded-up) timeout.
        let t = Instant::now();
        assert_eq!(poller.wait(Some(Duration::from_micros(1500))).unwrap(), 0);
        assert!(t.elapsed() >= Duration::from_millis(2), "{:?}", t.elapsed());
        // A connected socket with buffer room is writable at once.
        poller.clear();
        poller.add(&tx, POLLOUT);
        assert_eq!(poller.wait(Some(Duration::from_secs(5))).unwrap(), 1);
    }

    #[test]
    fn a_closed_peer_wakes_only_readers() {
        // After the peer closes, a TCP socket stays readable (EOF) for
        // ever. Polled for POLLIN it returns at once, every time — which
        // is why the server stops asking for POLLIN after EOF; polled
        // with no interest it stays quiet, so an idle wait really waits.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        drop(client);
        let mut poller = Poller::default();
        poller.add(&server_side, POLLIN);
        assert_eq!(poller.wait(Some(Duration::from_secs(5))).unwrap(), 1);
        poller.clear();
        poller.add(&server_side, 0);
        let t = Instant::now();
        assert_eq!(poller.wait(Some(Duration::from_millis(20))).unwrap(), 0);
        assert!(t.elapsed() >= Duration::from_millis(20), "{:?}", t.elapsed());
    }
}
