//! Cross-thread wakeups for a parked poller.
//!
//! A [`Waker`] is a self-connected nonblocking UDP socket: `wake()`
//! sends one byte to it, which makes the descriptor readable and pops
//! the owning worker out of `epoll_wait`. Wakeups **coalesce** — if the
//! socket buffer already holds undrained wake bytes, further sends may
//! fail with a full buffer, which is fine: a wakeup is already pending.
//! The worker calls [`Waker::drain`] once per loop iteration and then
//! checks its stop queue, so N rapid `wake()` calls cost at most one
//! extra loop turn, never N.

use std::io;
use std::net::UdpSocket;
use std::os::fd::{AsRawFd, RawFd};

/// Wakes a parked poller by making a registered descriptor readable.
///
/// Cheap to clone via `Arc`; `wake()` is safe from any thread.
pub struct Waker {
    socket: UdpSocket,
}

impl Waker {
    /// Binds a loopback UDP socket connected to itself.
    ///
    /// # Errors
    ///
    /// Propagates bind/connect failures (e.g. no loopback interface).
    pub fn new() -> io::Result<Waker> {
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        socket.connect(socket.local_addr()?)?;
        socket.set_nonblocking(true)?;
        Ok(Waker { socket })
    }

    /// The descriptor to register with a [`crate::Poller`].
    #[must_use]
    pub fn fd(&self) -> RawFd {
        self.socket.as_raw_fd()
    }

    /// Makes the waker readable. Send errors are deliberately ignored:
    /// a full socket buffer means wake bytes are already queued, so the
    /// sleeper is guaranteed to wake anyway.
    pub fn wake(&self) {
        let _ = self.socket.send(&[1]);
    }

    /// Consumes all pending wake bytes.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        while self.socket.recv(&mut buf).is_ok() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poll::{Event, Poller};
    use std::time::Duration;

    /// Whether a wake byte is queued on `waker`.
    fn pending(waker: &Waker) -> bool {
        waker.socket.peek(&mut [0u8; 1]).is_ok()
    }

    #[test]
    fn wake_makes_the_fd_readable_and_drain_clears_it() {
        let waker = Waker::new().expect("waker");
        let poller = Poller::new().expect("poller");
        poller.register(waker.fd(), 9).expect("register");

        waker.wake();
        let mut events: Vec<Event> = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !events.iter().any(|e| e.token == 9) && std::time::Instant::now() < deadline {
            poller.wait(&mut events, Some(Duration::from_millis(50))).expect("wait");
        }
        assert!(events.iter().any(|e| e.token == 9), "wake() must rouse the poller");
        assert!(pending(&waker), "the wake byte is queued");
        waker.drain();
        assert!(!pending(&waker), "the drain consumed it");
    }

    #[test]
    fn rapid_wakes_coalesce_into_bounded_bytes() {
        let waker = Waker::new().expect("waker");
        for _ in 0..10_000 {
            waker.wake();
        }
        // Coalescing: the socket buffer bounds the backlog (sends start
        // failing silently once it fills), and one drain clears it all.
        assert!(pending(&waker), "at least one wake byte must be pending");
        waker.drain();
        assert!(!pending(&waker));
    }
}
