//! Readiness polling: an `epoll` backend on Linux, a degraded portable
//! fallback elsewhere.
//!
//! The [`Poller`] watches a set of file descriptors for *read* readiness
//! and reports edges as [`Event`]s carrying the caller-chosen token. Two
//! properties every consumer must respect:
//!
//! * **Edge-triggered**: on Linux, readiness is reported once per edge
//!   (`EPOLLET`) — the handler must drain the descriptor to `WouldBlock`
//!   before returning, or it will never hear about the remainder.
//! * **Spurious wakeups are legal**: an [`Event`] is a *hint*, not a
//!   guarantee that a read will succeed. The fallback backend (non-Linux
//!   builds) reports every registered descriptor readable on a short
//!   cadence, so handlers built on nonblocking reads run correctly —
//!   just less efficiently — on any platform. Handlers must treat a read
//!   returning `WouldBlock` immediately as normal.
//!
//! The epoll bindings are hand-declared `extern "C"` symbols (the build
//! environment vendors no `libc` crate; std already links the C runtime
//! that provides them). All `unsafe` in this crate lives here, behind
//! this safe wrapper.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// One readiness report: the token passed to [`Poller::register`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The caller-chosen token identifying the ready descriptor.
    pub token: u64,
}

/// Caps a poll timeout at ~100ms so a waiter re-checks its stop queue on
/// a bounded cadence even if a wakeup datagram is somehow lost.
pub(crate) const MAX_WAIT: Duration = Duration::from_millis(100);

#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod sys {
    use std::io;
    use std::os::fd::RawFd;

    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLL_CLOEXEC: i32 = 0o200_0000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;
    pub const EPOLLET: u32 = 1 << 31;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// A safe owner of one epoll instance.
    pub struct Epoll {
        epfd: RawFd,
    }

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            // SAFETY: epoll_create1 takes no pointers; a negative return
            // is reported through errno.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll { epfd })
        }

        pub fn add(&self, fd: RawFd, token: u64, flags: u32) -> io::Result<()> {
            let mut event = EpollEvent { events: flags, data: token };
            // SAFETY: `event` outlives the call; the kernel copies it.
            let rc = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, fd, &mut event) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn del(&self, fd: RawFd) -> io::Result<()> {
            let mut event = EpollEvent { events: 0, data: 0 };
            // SAFETY: pre-2.6.9 kernels require a non-null event pointer
            // even for EPOLL_CTL_DEL; passing one is always valid.
            let rc = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut event) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Waits up to `timeout_ms` (`-1` blocks) and appends the ready
        /// tokens to `out`. `EINTR` is reported as an empty wakeup.
        pub fn wait(&self, out: &mut Vec<u64>, timeout_ms: i32) -> io::Result<()> {
            let mut events = [EpollEvent { events: 0, data: 0 }; 64];
            // SAFETY: the buffer pointer and capacity describe a live,
            // properly sized array for the duration of the call.
            let rc = unsafe {
                epoll_wait(self.epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms)
            };
            if rc < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for event in events.iter().take(rc as usize) {
                // Copy out of the (possibly packed) struct before use.
                let data = event.data;
                out.push(data);
            }
            Ok(())
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: epfd is a descriptor this struct owns exclusively.
            let _ = unsafe { close(self.epfd) };
        }
    }
}

/// Watches registered descriptors for read readiness.
///
/// See the module docs for the edge-triggered and spurious-wakeup
/// contracts every consumer must honour.
pub struct Poller {
    #[cfg(target_os = "linux")]
    epoll: sys::Epoll,
    /// Registered `(fd, token)` pairs — the whole readiness state of the
    /// fallback backend (unused as such on Linux, where it only backs
    /// [`Poller::deregister`] bookkeeping symmetry).
    #[cfg(not(target_os = "linux"))]
    registered: std::sync::Mutex<Vec<(RawFd, u64)>>,
}

impl Poller {
    /// Creates an empty poller.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_create1` failures (Linux); infallible elsewhere.
    pub fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            Ok(Poller { epoll: sys::Epoll::new()? })
        }
        #[cfg(not(target_os = "linux"))]
        {
            Ok(Poller { registered: std::sync::Mutex::new(Vec::new()) })
        }
    }

    /// Starts watching `fd` for read readiness, reporting it as `token`.
    /// The descriptor must already be in nonblocking mode and must stay
    /// open until [`Poller::deregister`] or the poller is dropped.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failures (e.g. registering the same fd
    /// twice).
    pub fn register(&self, fd: RawFd, token: u64) -> io::Result<()> {
        #[cfg(target_os = "linux")]
        {
            self.epoll.add(fd, token, sys::EPOLLIN | sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLET)
        }
        #[cfg(not(target_os = "linux"))]
        {
            self.registered.lock().expect("poller registry poisoned").push((fd, token));
            Ok(())
        }
    }

    /// Stops watching `fd`.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failures (e.g. an fd that was never
    /// registered).
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        #[cfg(target_os = "linux")]
        {
            self.epoll.del(fd)
        }
        #[cfg(not(target_os = "linux"))]
        {
            self.registered.lock().expect("poller registry poisoned").retain(|&(f, _)| f != fd);
            Ok(())
        }
    }

    /// Blocks until at least one descriptor is ready or `timeout`
    /// elapses, appending ready tokens to `events` (cleared first). A
    /// timeout (or `EINTR`) leaves `events` empty — never an error. A
    /// `None` timeout waits the internal 100ms ceiling: the poller
    /// never parks unboundedly, so a lost wakeup costs a beat, not a
    /// hang.
    ///
    /// # Errors
    ///
    /// Propagates fatal `epoll_wait` failures.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        let timeout = timeout.unwrap_or(MAX_WAIT).min(MAX_WAIT);
        #[cfg(target_os = "linux")]
        {
            // Round sub-millisecond timeouts up, so short timer deadlines
            // wait (and then fire) instead of spinning at timeout 0.
            let millis = timeout.as_millis().try_into().unwrap_or(i32::MAX).max(1);
            let mut tokens = Vec::with_capacity(16);
            self.epoll.wait(&mut tokens, millis)?;
            events.extend(tokens.into_iter().map(|token| Event { token }));
            Ok(())
        }
        #[cfg(not(target_os = "linux"))]
        {
            // Degraded portable backend: sleep a short beat, then report
            // every registered descriptor readable. Pure spurious-wakeup
            // pressure — correct (handlers use nonblocking reads), just
            // not efficient. Linux builds never take this path.
            std::thread::sleep(timeout.min(Duration::from_millis(2)));
            let registered = self.registered.lock().expect("poller registry poisoned");
            events.extend(registered.iter().map(|&(_, token)| Event { token }));
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::UdpSocket;
    use std::os::fd::AsRawFd;

    #[test]
    fn readiness_fires_on_datagram_arrival() {
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
        socket.set_nonblocking(true).expect("nonblocking");
        let poller = Poller::new().expect("poller");
        poller.register(socket.as_raw_fd(), 42).expect("register");

        let sender = UdpSocket::bind("127.0.0.1:0").expect("bind sender");
        sender.send_to(b"ping", socket.local_addr().expect("addr")).expect("send");

        let mut events = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while events.is_empty() && std::time::Instant::now() < deadline {
            poller.wait(&mut events, Some(Duration::from_millis(50))).expect("wait");
        }
        assert!(events.iter().any(|e| e.token == 42), "datagram arrival must wake the poller");
    }

    #[test]
    fn timeout_returns_empty_not_error() {
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
        socket.set_nonblocking(true).expect("nonblocking");
        let poller = Poller::new().expect("poller");
        poller.register(socket.as_raw_fd(), 7).expect("register");
        let mut events = vec![Event { token: 99 }];
        poller.wait(&mut events, Some(Duration::from_millis(5))).expect("wait");
        // Linux: empty (nothing readable). Fallback: may spuriously
        // report token 7 — but never an error, and never a stale token.
        assert!(events.iter().all(|e| e.token == 7));
    }

    #[test]
    fn deregistered_fds_stop_reporting() {
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
        socket.set_nonblocking(true).expect("nonblocking");
        let poller = Poller::new().expect("poller");
        poller.register(socket.as_raw_fd(), 1).expect("register");
        poller.deregister(socket.as_raw_fd()).expect("deregister");

        let sender = UdpSocket::bind("127.0.0.1:0").expect("bind sender");
        sender.send_to(b"ping", socket.local_addr().expect("addr")).expect("send");
        std::thread::sleep(Duration::from_millis(20));
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_millis(20))).expect("wait");
        assert!(events.is_empty(), "a deregistered fd must not wake the poller");
    }
}
