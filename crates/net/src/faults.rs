//! Deterministic fault injection for transport tests.
//!
//! Every transport test in this workspace used to run over clean
//! localhost sockets, which exercises none of the failure handling the
//! protocol exists for. This module makes adverse conditions *seeded and
//! reproducible*, for streams and for datagrams:
//!
//! * [`FaultyStream`] wraps any `Read + Write` and injects faults from a
//!   [`FaultPlan`]: per-byte drops, per-call delays, read fragmentation,
//!   a clean truncation (EOF) at byte `K`, and a hard disconnect (error)
//!   at byte `K`. All randomness comes from a [`SmallRng`] seeded by the
//!   plan, so a failing case replays exactly.
//! * [`FaultProxy`] puts the same plans between two real TCP endpoints: a
//!   localhost forwarder that pumps each direction of every accepted
//!   connection through a `FaultyStream`. Integration tests point a
//!   client at the proxy instead of the server and get loss, stalls and
//!   mid-transfer disconnects without touching either endpoint's code.
//! * [`FaultySocket`] is the datagram counterpart: it wraps a
//!   [`UdpSocket`] and applies a [`DatagramFaultPlan`] per *link* — per
//!   sender, on the receiving end ([`FaultySocket::set_link_plan`]):
//!   whole-datagram drops, duplicates, reordering within a bounded
//!   window, and per-datagram delays, with per-link tallies
//!   ([`FaultySocket::link_counters`]). A sender without a plan passes
//!   clean, and sends are never faulted. Every swarm node receives
//!   through one, which is how a swarm gives every overlay link its own
//!   seeded loss ([`crate::TopologyFaults`]), so the UDP gossip tests
//!   exercise exactly the lossy links the paper's redundancy and this
//!   crate's adaptive pacing exist for.
//!
//! Byte-counted stream faults (`truncate_read_at`, `disconnect_read_at`)
//! are deterministic regardless of how the OS chunks the stream, which is
//! what makes "kill the server after exactly K bytes" a stable test.
//! Datagram faults decide per *datagram* in arrival order, so a fixed
//! seed replays the same drop/duplicate/reorder pattern over the same
//! traffic. One routine makes that decision for the socket and for the
//! in-memory links of the virtual-time driver (`crate::virtual_time`);
//! neither sleeps — a delayed datagram is parked until it falls due.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ltnc_metrics::CounterFamily;
use ltnc_telemetry::{FaultKind, TraceEvent, Tracer};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A seeded description of the faults to inject on one stream direction.
///
/// The default plan (via [`FaultPlan::clean`]) forwards bytes untouched;
/// builder methods switch individual faults on. Plans are `Copy` so a
/// proxy can stamp one onto every accepted connection.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Seed for every probabilistic decision this plan makes.
    pub seed: u64,
    /// Deliver exactly this many bytes, then report clean EOF forever.
    pub truncate_read_at: Option<u64>,
    /// Deliver exactly this many bytes, then *stall*: every further read
    /// blocks briefly and returns `WouldBlock`, with the stream still
    /// open. Through a proxy this is a peer that stops making progress
    /// without dying — the case progress watermarks exist to catch.
    pub stall_read_at: Option<u64>,
    /// Deliver exactly this many bytes, then fail reads with
    /// `ConnectionReset` forever.
    pub disconnect_read_at: Option<u64>,
    /// Accept exactly this many written bytes, then fail writes with
    /// `BrokenPipe` forever.
    pub disconnect_write_at: Option<u64>,
    /// Probability in `[0, 1]` that each forwarded byte is silently
    /// dropped (stream corruption: the framing layer must error, never
    /// panic).
    pub drop_rate: f64,
    /// Sleep this long before every read call that reaches the inner
    /// stream (a slow peer).
    pub read_delay: Duration,
    /// Cap on bytes returned by a single read call, re-fragmenting the
    /// stream into small pieces (exercises incremental reassembly).
    pub max_read_chunk: Option<usize>,
}

impl FaultPlan {
    /// A plan that forwards everything untouched (the identity proxy).
    #[must_use]
    pub fn clean(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            truncate_read_at: None,
            stall_read_at: None,
            disconnect_read_at: None,
            disconnect_write_at: None,
            drop_rate: 0.0,
            read_delay: Duration::ZERO,
            max_read_chunk: None,
        }
    }

    /// Clean EOF after exactly `bytes` delivered bytes.
    #[must_use]
    pub fn truncate_read_at(mut self, bytes: u64) -> FaultPlan {
        self.truncate_read_at = Some(bytes);
        self
    }

    /// Stall (socket open, no further bytes) after exactly `bytes`
    /// delivered bytes.
    #[must_use]
    pub fn stall_read_at(mut self, bytes: u64) -> FaultPlan {
        self.stall_read_at = Some(bytes);
        self
    }

    /// Hard `ConnectionReset` after exactly `bytes` delivered bytes.
    #[must_use]
    pub fn disconnect_read_at(mut self, bytes: u64) -> FaultPlan {
        self.disconnect_read_at = Some(bytes);
        self
    }

    /// Hard `BrokenPipe` after exactly `bytes` accepted written bytes.
    #[must_use]
    pub fn disconnect_write_at(mut self, bytes: u64) -> FaultPlan {
        self.disconnect_write_at = Some(bytes);
        self
    }

    /// Drop each forwarded byte with probability `rate` (clamped to
    /// `[0, 1]`).
    #[must_use]
    pub fn drop_rate(mut self, rate: f64) -> FaultPlan {
        self.drop_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Delay every read by `delay` (a slow replica).
    #[must_use]
    pub fn delay_reads(mut self, delay: Duration) -> FaultPlan {
        self.read_delay = delay;
        self
    }

    /// Return at most `bytes` per read call.
    #[must_use]
    pub fn fragment_reads(mut self, bytes: usize) -> FaultPlan {
        self.max_read_chunk = Some(bytes.max(1));
        self
    }
}

/// A `Read + Write` wrapper executing a [`FaultPlan`].
///
/// Byte budgets count bytes *delivered to the caller* (after drops), so a
/// `truncate_read_at(K)` cut lands at the same protocol position however
/// the inner stream chunks its reads.
///
/// # Example
///
/// ```
/// use std::io::{Cursor, Read};
/// use ltnc_net::faults::{FaultPlan, FaultyStream};
///
/// // Deliver exactly 5 bytes, then a clean EOF — however the inner
/// // stream chunks its reads.
/// let plan = FaultPlan::clean(42).truncate_read_at(5);
/// let mut stream = FaultyStream::new(Cursor::new(vec![7u8; 100]), plan);
/// let mut out = Vec::new();
/// stream.read_to_end(&mut out).unwrap();
/// assert_eq!(out, vec![7u8; 5]);
/// assert_eq!(stream.read_delivered(), 5);
/// ```
#[derive(Debug)]
pub struct FaultyStream<S> {
    inner: S,
    plan: FaultPlan,
    rng: SmallRng,
    read_delivered: u64,
    write_accepted: u64,
}

impl<S> FaultyStream<S> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> FaultyStream<S> {
        FaultyStream {
            inner,
            plan,
            rng: SmallRng::seed_from_u64(plan.seed ^ 0xFA_17_5E_ED),
            read_delivered: 0,
            write_accepted: 0,
        }
    }

    /// Bytes delivered to the reader so far (after drops and cuts).
    #[must_use]
    pub fn read_delivered(&self) -> u64 {
        self.read_delivered
    }

    /// Bytes accepted from the writer so far.
    #[must_use]
    pub fn write_accepted(&self) -> u64 {
        self.write_accepted
    }

    /// Consumes the wrapper, returning the inner stream.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// How many more bytes may be delivered before a read-side cut fires.
    fn read_budget(&self) -> Option<u64> {
        let cut =
            [self.plan.truncate_read_at, self.plan.stall_read_at, self.plan.disconnect_read_at]
                .into_iter()
                .flatten()
                .min();
        cut.map(|k| k.saturating_sub(self.read_delivered))
    }
}

impl<S: Read> Read for FaultyStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        if let Some(0) = self.read_budget() {
            if let Some(k) = self.plan.truncate_read_at {
                if self.read_delivered >= k {
                    return Ok(0); // clean truncation
                }
            }
            if let Some(k) = self.plan.stall_read_at {
                if self.read_delivered >= k {
                    // The peer is alive but mute: block a beat, make no
                    // progress, keep the stream open.
                    thread::sleep(Duration::from_millis(20));
                    return Err(io::Error::new(
                        io::ErrorKind::WouldBlock,
                        "fault injection: stall_read_at reached",
                    ));
                }
            }
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "fault injection: disconnect_read_at reached",
            ));
        }
        let mut limit = buf.len();
        if let Some(chunk) = self.plan.max_read_chunk {
            limit = limit.min(chunk);
        }
        if let Some(budget) = self.read_budget() {
            limit = limit.min(budget.try_into().unwrap_or(usize::MAX)).max(1);
        }
        if !self.plan.read_delay.is_zero() {
            thread::sleep(self.plan.read_delay);
        }
        let n = self.inner.read(&mut buf[..limit])?;
        if n == 0 {
            return Ok(0);
        }
        let delivered = if self.plan.drop_rate > 0.0 {
            // Retain each byte independently; compact in place.
            let mut kept = 0;
            for i in 0..n {
                if self.rng.gen_bool(1.0 - self.plan.drop_rate) {
                    buf[kept] = buf[i];
                    kept += 1;
                }
            }
            kept
        } else {
            n
        };
        self.read_delivered += delivered as u64;
        if delivered == 0 {
            // Every byte of this chunk was dropped; the caller sees a
            // spurious-wakeup-style empty read rather than EOF.
            return Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                "fault injection: chunk dropped",
            ));
        }
        Ok(delivered)
    }
}

impl<S: Write> Write for FaultyStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if let Some(k) = self.plan.disconnect_write_at {
            if self.write_accepted >= k {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "fault injection: disconnect_write_at reached",
                ));
            }
            let budget = (k - self.write_accepted).try_into().unwrap_or(usize::MAX);
            let n = self.inner.write(&buf[..buf.len().min(budget.max(1))])?;
            self.write_accepted += n as u64;
            return Ok(n);
        }
        let n = self.inner.write(buf)?;
        self.write_accepted += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A localhost TCP forwarder injecting faults between real endpoints.
///
/// Each accepted client connection is paired with a fresh upstream
/// connection; two pump threads copy bytes in each direction, the
/// client→server direction through `client_to_server`, the
/// server→client direction through `server_to_client`. When a pump sees
/// EOF or an injected error it shuts down *both* sockets, so a
/// `disconnect_read_at` on one side looks like a dead peer to both.
///
/// # Example
///
/// ```
/// use std::io::{Read, Write};
/// use std::net::{TcpListener, TcpStream};
/// use ltnc_net::faults::{FaultPlan, FaultProxy};
///
/// // An upstream that echoes a greeting to every connection…
/// let listener = TcpListener::bind("127.0.0.1:0").unwrap();
/// let upstream = listener.local_addr().unwrap();
/// std::thread::spawn(move || {
///     for stream in listener.incoming().flatten() {
///         let mut stream = stream;
///         let _ = stream.write_all(b"hello from upstream");
///     }
/// });
///
/// // …reached through a proxy that kills the reply after 5 bytes.
/// let proxy = FaultProxy::spawn(
///     upstream,
///     FaultPlan::clean(1),
///     FaultPlan::clean(2).truncate_read_at(5),
/// )
/// .unwrap();
/// let mut client = TcpStream::connect(proxy.local_addr()).unwrap();
/// let mut got = Vec::new();
/// client.read_to_end(&mut got).unwrap();
/// assert_eq!(got, b"hello");
/// proxy.shutdown();
/// ```
pub struct FaultProxy {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl FaultProxy {
    /// Spawns a proxy on an ephemeral localhost port forwarding to
    /// `upstream`. Every accepted connection gets its own copy of the two
    /// plans (same seed: connection-for-connection reproducible).
    ///
    /// # Errors
    ///
    /// Socket errors binding the listener.
    pub fn spawn(
        upstream: SocketAddr,
        client_to_server: FaultPlan,
        server_to_client: FaultPlan,
    ) -> io::Result<FaultProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept_thread = thread::spawn(move || {
            let mut pumps: Vec<JoinHandle<()>> = Vec::new();
            while !accept_stop.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((client, _)) => {
                        match TcpStream::connect(upstream) {
                            Ok(server) => {
                                pumps.extend(pump_pair(
                                    client,
                                    server,
                                    client_to_server,
                                    server_to_client,
                                    Arc::clone(&accept_stop),
                                ));
                            }
                            Err(_) => drop(client), // upstream dead: refuse
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => {}
                }
            }
            for pump in pumps {
                let _ = pump.join();
            }
        });
        Ok(FaultProxy { local_addr, stop, accept_thread: Some(accept_thread) })
    }

    /// The address clients should connect to instead of the upstream.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting and joins the forwarding threads. Called by `Drop`
    /// as well; explicit shutdown just surfaces panics earlier.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Spawns the two directional pumps of one proxied connection.
fn pump_pair(
    client: TcpStream,
    server: TcpStream,
    client_to_server: FaultPlan,
    server_to_client: FaultPlan,
    stop: Arc<AtomicBool>,
) -> Vec<JoinHandle<()>> {
    let pair = || -> io::Result<_> {
        // Short read timeouts keep every pump responsive to `stop` (so a
        // stalled connection cannot hang proxy shutdown) and to peer EOF,
        // which should propagate promptly.
        client.set_read_timeout(Some(Duration::from_millis(20)))?;
        server.set_read_timeout(Some(Duration::from_millis(20)))?;
        let c_read = client.try_clone()?;
        let s_read = server.try_clone()?;
        Ok((c_read, s_read))
    };
    let Ok((c_read, s_read)) = pair() else {
        return Vec::new();
    };
    let up_stop = Arc::clone(&stop);
    let up = thread::spawn(move || {
        pump(FaultyStream::new(c_read, client_to_server), server, &up_stop);
    });
    let down = thread::spawn(move || {
        pump(FaultyStream::new(s_read, server_to_client), client, &stop);
    });
    vec![up, down]
}

/// Copies `from` into `to` until EOF, any error, or `stop`, then severs
/// both ends.
fn pump<S: Read>(mut from: FaultyStream<S>, mut to: TcpStream, stop: &AtomicBool) {
    let mut buf = [0u8; 4096];
    while !stop.load(Ordering::Acquire) {
        match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
    // One direction dying kills the whole proxied connection: a half-dead
    // replica should look dead, not half-alive.
    let _ = to.shutdown(Shutdown::Both);
}

/// A seeded description of the faults to inject on one *datagram* link:
/// what one sender's datagrams suffer on their way into a
/// [`FaultySocket`] (or a virtual-time node).
///
/// The default plan (via [`DatagramFaultPlan::clean`]) forwards every
/// datagram untouched; builder methods switch individual faults on. All
/// decisions are made per datagram in arrival order from a [`SmallRng`]
/// seeded by the plan, so a fixed seed replays the same fault pattern
/// over the same traffic.
#[derive(Debug, Clone, Copy)]
pub struct DatagramFaultPlan {
    /// Seed for every probabilistic decision this plan makes.
    pub seed: u64,
    /// Probability in `[0, 1]` that a datagram is silently dropped.
    pub drop_rate: f64,
    /// Probability in `[0, 1]` that a datagram is delivered twice.
    pub duplicate_rate: f64,
    /// Probability in `[0, 1]` that a datagram is held back and released
    /// out of order, displaced by at most [`reorder_window`] later
    /// datagrams.
    ///
    /// [`reorder_window`]: DatagramFaultPlan::reorder_window
    pub reorder_rate: f64,
    /// Maximum number of later datagrams that may overtake a held one.
    /// `0` disables reordering regardless of [`reorder_rate`].
    ///
    /// [`reorder_rate`]: DatagramFaultPlan::reorder_rate
    pub reorder_window: usize,
    /// Probability in `[0, 1]` that a datagram is held for [`delay`]
    /// before delivery (link jitter). Nothing waits on it: the datagram
    /// is parked, and traffic behind it passes.
    ///
    /// [`delay`]: DatagramFaultPlan::delay
    pub delay_rate: f64,
    /// How long a delayed datagram is held up.
    pub delay: Duration,
}

impl DatagramFaultPlan {
    /// A plan that forwards every datagram untouched.
    #[must_use]
    pub fn clean(seed: u64) -> DatagramFaultPlan {
        DatagramFaultPlan {
            seed,
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            reorder_rate: 0.0,
            reorder_window: 0,
            delay_rate: 0.0,
            delay: Duration::ZERO,
        }
    }

    /// Drop each datagram with probability `rate` (clamped to `[0, 1]`).
    #[must_use]
    pub fn drop_rate(mut self, rate: f64) -> DatagramFaultPlan {
        self.drop_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Deliver each datagram twice with probability `rate`.
    #[must_use]
    pub fn duplicate_rate(mut self, rate: f64) -> DatagramFaultPlan {
        self.duplicate_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Hold each datagram with probability `rate` and release it after at
    /// most `window` later datagrams have overtaken it.
    #[must_use]
    pub fn reorder(mut self, rate: f64, window: usize) -> DatagramFaultPlan {
        self.reorder_rate = rate.clamp(0.0, 1.0);
        self.reorder_window = window;
        self
    }

    /// Delay each datagram by `delay` with probability `rate`.
    #[must_use]
    pub fn delay(mut self, rate: f64, delay: Duration) -> DatagramFaultPlan {
        self.delay_rate = rate.clamp(0.0, 1.0);
        self.delay = delay;
        self
    }
}

ltnc_metrics::counter_family! {
    /// Snapshot of the faults a [`FaultySocket`] has injected so far.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct DatagramFaultCounters {
        /// Inbound datagrams silently dropped.
        pub dropped_in: u64,
        /// Always 0: faults live on the receiving end of a link, and
        /// nothing is dropped on send. Kept because the reference
        /// benchmark sums it into `faults.dropped`.
        pub dropped_out: u64,
        /// Inbound datagrams delivered twice.
        pub duplicated_in: u64,
        /// Inbound datagrams released out of order.
        pub reordered_in: u64,
        /// Inbound datagrams delayed.
        pub delayed_in: u64,
    }
}

impl DatagramFaultCounters {
    /// Total datagrams affected by any fault.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.fields().filter_map(|(_, field)| field.value()).sum()
    }
}

/// How long datagrams the reorder fault holds may wait for the traffic
/// that would overtake them: after this the link counts as idle and
/// they are released. Both drivers release on this period — the
/// reactor's release timer ([`FaultySocket::release_in`]) and the
/// virtual-time driver's release event.
pub const IDLE_RELEASE: Duration = Duration::from_millis(20);

/// A datagram held back by the reorder fault, released once `remaining`
/// later datagrams have passed it (or the link goes idle).
struct HeldDatagram {
    bytes: Vec<u8>,
    peer: SocketAddr,
    remaining: usize,
}

/// What one plan did to one datagram: the verdict of
/// [`LinkState::decide`], the one fault decision [`FaultySocket`]
/// and the virtual-time driver both carry out.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Fate {
    /// How long the delivered copies wait first, when the delay fault
    /// fired.
    pub(crate) delay: Option<Duration>,
    dropped: bool,
    /// Parked for reordering: the plan's state now holds the datagram.
    held: bool,
    duplicated: bool,
}

impl Fate {
    /// Copies of the datagram to deliver (after [`Fate::delay`]): none
    /// when it was dropped or held, two when it was duplicated.
    pub(crate) fn copies(self) -> usize {
        if self.dropped || self.held {
            0
        } else {
            1 + usize::from(self.duplicated)
        }
    }

    /// The faults as counters.
    pub(crate) fn counters(self) -> DatagramFaultCounters {
        let [delayed, dropped, reordered, duplicated] =
            [self.delay.is_some(), self.dropped, self.held, self.duplicated].map(u64::from);
        DatagramFaultCounters {
            delayed_in: delayed,
            dropped_in: dropped,
            reordered_in: reordered,
            duplicated_in: duplicated,
            ..DatagramFaultCounters::default()
        }
    }

    /// One [`TraceEvent::FaultInjected`] per fault, attributed to `peer`.
    pub(crate) fn trace(self, tracer: &Tracer, peer: SocketAddr) {
        for (fired, kind) in [
            (self.delay.is_some(), FaultKind::Delay),
            (self.dropped, FaultKind::Drop),
            (self.held, FaultKind::Reorder),
            (self.duplicated, FaultKind::Duplicate),
        ] {
            if fired {
                tracer.emit(|| TraceEvent::FaultInjected { kind, inbound: true, peer: Some(peer) });
            }
        }
    }
}

/// One link's fault state: the plan, its seeded RNG, the datagrams the
/// plan parks, and the faults it has injected.
pub(crate) struct LinkState {
    plan: DatagramFaultPlan,
    rng: SmallRng,
    /// Datagrams held by the reorder fault, oldest first.
    held: VecDeque<HeldDatagram>,
    /// Datagrams due for delivery ahead of anything new (expired holds,
    /// duplicate copies, delayed datagrams whose time came), oldest
    /// first.
    ready: VecDeque<(Vec<u8>, SocketAddr)>,
    /// The socket's delayed datagrams with the instant each falls due.
    /// One plan has one delay, so due order is arrival order.
    delayed: VecDeque<(Instant, Vec<u8>, SocketAddr)>,
    /// The faults this plan has injected.
    counters: DatagramFaultCounters,
}

impl LinkState {
    fn new(plan: DatagramFaultPlan) -> LinkState {
        LinkState {
            plan,
            rng: SmallRng::seed_from_u64(plan.seed ^ 0xDA7A_FA17),
            held: VecDeque::new(),
            ready: VecDeque::new(),
            delayed: VecDeque::new(),
            counters: DatagramFaultCounters::default(),
        }
    }

    /// Decides and tallies the fate of one datagram from `peer`, after
    /// moving the holds it overtakes past their window onto the ready
    /// queue. A datagram the reorder fault picks is copied into the
    /// holds; every other outcome is the caller's to carry out.
    fn decide(&mut self, bytes: &[u8], peer: SocketAddr) -> Fate {
        for held in &mut self.held {
            held.remaining = held.remaining.saturating_sub(1);
        }
        while self.held.front().is_some_and(|h| h.remaining == 0) {
            let held = self.held.pop_front().expect("checked non-empty");
            self.ready.push_back((held.bytes, held.peer));
        }
        let plan = self.plan;
        let mut fate = Fate::default();
        if plan.delay_rate > 0.0 && self.rng.gen_bool(plan.delay_rate) {
            fate.delay = Some(plan.delay);
        }
        if plan.drop_rate > 0.0 && self.rng.gen_bool(plan.drop_rate) {
            fate.dropped = true;
        } else if plan.reorder_window > 0
            && plan.reorder_rate > 0.0
            && self.rng.gen_bool(plan.reorder_rate)
        {
            fate.held = true;
            let remaining = self.rng.gen_range(1..=plan.reorder_window);
            self.held.push_back(HeldDatagram { bytes: bytes.to_vec(), peer, remaining });
        } else if plan.duplicate_rate > 0.0 && self.rng.gen_bool(plan.duplicate_rate) {
            fate.duplicated = true;
        }
        self.counters.merge(&fate.counters());
        fate
    }

    /// Whether anything is held for reordering or ready.
    fn holds(&self) -> bool {
        !self.held.is_empty() || !self.ready.is_empty()
    }

    /// Declares the link idle: every reorder hold becomes ready.
    fn release_held(&mut self) {
        while let Some(held) = self.held.pop_front() {
            self.ready.push_back((held.bytes, held.peer));
        }
    }

    /// Parks `copies` copies of a delayed datagram until `due`.
    fn park(&mut self, due: Instant, bytes: &[u8], peer: SocketAddr, copies: usize) {
        for _ in 0..copies {
            self.delayed.push_back((due, bytes.to_vec(), peer));
        }
    }

    /// Moves the delayed datagrams due by `now` onto the ready queue.
    fn release_due(&mut self, now: Instant) {
        while self.delayed.front().is_some_and(|&(due, ..)| due <= now) {
            let (_, bytes, peer) = self.delayed.pop_front().expect("checked non-empty");
            self.ready.push_back((bytes, peer));
        }
    }
}

/// The inbound side of one node's links: one plan per origin that has
/// one, keyed by sender address (ordered, so multi-link delivery and
/// draining are deterministic). A datagram from an origin without a
/// plan passes clean.
#[derive(Default)]
pub(crate) struct InboundState {
    links: BTreeMap<SocketAddr, LinkState>,
}

impl InboundState {
    /// Installs (or replaces) the plan for datagrams from `from`.
    pub(crate) fn set_link(&mut self, from: SocketAddr, plan: DatagramFaultPlan) {
        self.links.insert(from, LinkState::new(plan));
    }

    /// Runs one datagram from `from` through that link's plan: `None`
    /// when the link has no plan (the datagram passes clean), else the
    /// fate and the link, which parks what the fate delays.
    pub(crate) fn decide(
        &mut self,
        bytes: &[u8],
        from: SocketAddr,
    ) -> Option<(Fate, &mut LinkState)> {
        let link = self.links.get_mut(&from)?;
        Some((link.decide(bytes, from), link))
    }

    /// Pops the oldest due datagram from any ready queue (links in
    /// address order).
    pub(crate) fn pop_ready(&mut self) -> Option<(Vec<u8>, SocketAddr)> {
        self.links.values_mut().find_map(|link| link.ready.pop_front())
    }

    /// Whether any plan holds a datagram for reordering or has one ready.
    pub(crate) fn holds(&self) -> bool {
        self.links.values().any(LinkState::holds)
    }

    /// Declares every inbound link idle: all reorder holds become ready.
    pub(crate) fn release_held(&mut self) {
        self.links.values_mut().for_each(LinkState::release_held);
    }

    /// Faults injected per link plan, ordered by sender address.
    pub(crate) fn link_counters(&self) -> Vec<(SocketAddr, DatagramFaultCounters)> {
        self.links.iter().map(|(&from, link)| (from, link.counters)).collect()
    }

    /// Faults injected on every link.
    pub(crate) fn totals(&self) -> DatagramFaultCounters {
        let mut totals = DatagramFaultCounters::default();
        for link in self.links.values() {
            totals.merge(&link.counters);
        }
        totals
    }
}

/// A [`UdpSocket`] wrapper injecting seeded whole-datagram faults on the
/// receiving end of its links.
///
/// Wraps the nonblocking `try_recv_from` every swarm node runs on. Each
/// sender with a plan ([`FaultySocket::set_link_plan`]) is one link, and
/// its datagrams cross that [`DatagramFaultPlan`]: drops, duplicates,
/// reordering within a bounded window, and delays. A sender without a
/// plan passes clean, and sending is never faulted. Clones share fault
/// state (and counters), so all handles see one coherent set of plans.
///
/// Nothing here blocks. Reordered datagrams are held until enough later
/// traffic has overtaken them, and delayed ones until they fall due;
/// the owner's timer ([`FaultySocket::release_in`],
/// [`FaultySocket::release_held`]) frees them when the link goes idle,
/// so a held datagram is delayed, never lost.
///
/// # Example
///
/// ```
/// use std::net::UdpSocket;
/// use ltnc_net::faults::{DatagramFaultPlan, FaultySocket};
///
/// let socket = FaultySocket::new(UdpSocket::bind("127.0.0.1:0").unwrap());
/// socket.set_nonblocking(true).unwrap();
///
/// let sender = UdpSocket::bind("127.0.0.1:0").unwrap();
/// let link = DatagramFaultPlan::clean(7).drop_rate(1.0);
/// socket.set_link_plan(sender.local_addr().unwrap(), link);
/// sender.send_to(b"doomed", socket.local_addr().unwrap()).unwrap();
///
/// // Every datagram on that link is dropped: a drain never delivers one.
/// let mut buf = [0u8; 64];
/// while socket.fault_counters().dropped_in == 0 {
///     assert_eq!(socket.try_recv_from(&mut buf).unwrap(), None);
/// }
/// ```
pub struct FaultySocket {
    socket: UdpSocket,
    recv: Arc<Mutex<InboundState>>,
    tracer: Tracer,
}

impl FaultySocket {
    /// Wraps `socket`; every link starts clean.
    #[must_use]
    pub fn new(socket: UdpSocket) -> FaultySocket {
        FaultySocket::with_tracer(socket, Tracer::off())
    }

    /// Like [`FaultySocket::new`], but every injected fault also emits a
    /// [`TraceEvent::FaultInjected`] on `tracer` (attributed to the peer
    /// the datagram came from).
    #[must_use]
    pub fn with_tracer(socket: UdpSocket, tracer: Tracer) -> FaultySocket {
        FaultySocket { socket, recv: Arc::default(), tracer }
    }

    /// Installs (or replaces) the fault plan for datagrams arriving
    /// *from* `from` — one link, identified by its sender. Faults injected
    /// by a link plan are tallied both socket-wide
    /// ([`FaultySocket::fault_counters`]) and per link
    /// ([`FaultySocket::link_counters`]), so per-link loss stays
    /// attributable in multi-hop topology runs.
    pub fn set_link_plan(&self, from: SocketAddr, plan: DatagramFaultPlan) {
        self.recv.lock().expect("recv fault state poisoned").set_link(from, plan);
    }

    /// Faults injected per link plan so far, ordered by sender address
    /// (empty when [`FaultySocket::set_link_plan`] was never called).
    #[must_use]
    pub fn link_counters(&self) -> Vec<(SocketAddr, DatagramFaultCounters)> {
        self.recv.lock().expect("recv fault state poisoned").link_counters()
    }

    /// A second handle to the same socket sharing the same fault state.
    ///
    /// # Errors
    ///
    /// Propagates `UdpSocket::try_clone` failures.
    pub fn try_clone(&self) -> io::Result<FaultySocket> {
        Ok(FaultySocket {
            socket: self.socket.try_clone()?,
            recv: Arc::clone(&self.recv),
            tracer: self.tracer.clone(),
        })
    }

    /// The wrapped socket's local address.
    ///
    /// # Errors
    ///
    /// Propagates `UdpSocket::local_addr` failures.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Faults injected so far, summed over every link.
    #[must_use]
    pub fn fault_counters(&self) -> DatagramFaultCounters {
        self.recv.lock().expect("recv fault state poisoned").totals()
    }

    /// Receives one datagram without ever blocking, applying the plan of
    /// the link it arrived on. Requires the socket to be in nonblocking
    /// mode (see [`FaultySocket::set_nonblocking`]).
    ///
    /// Returns `Ok(Some(..))` for a delivered datagram, `Ok(None)` when
    /// the OS buffer is empty. When the fault plan consumes a datagram
    /// (drop, reorder hold, delay) the loop keeps pulling, so a consumed
    /// datagram can never mask ones still queued behind it and strand
    /// them until the next (never-coming) readiness edge.
    ///
    /// Deliberately *not* part of this call: releasing held and delayed
    /// datagrams. A nonblocking reader has no read timeout to tell it the
    /// link went idle, so it asks [`FaultySocket::release_in`] after a
    /// drain and frees them with [`FaultySocket::release_held`] on a
    /// timer.
    ///
    /// # Errors
    ///
    /// Real socket errors only; `WouldBlock`/`TimedOut` become
    /// `Ok(None)` and fault consumption is handled internally.
    pub fn try_recv_from(&self, buf: &mut [u8]) -> io::Result<Option<(usize, SocketAddr)>> {
        let mut state = self.recv.lock().expect("recv fault state poisoned");
        loop {
            if let Some((bytes, peer)) = state.pop_ready() {
                return Ok(Some(deliver(&bytes, peer, buf)));
            }
            let (len, peer) = match self.socket.recv_from(buf) {
                Ok(received) => received,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(None);
                }
                Err(e) => return Err(e),
            };
            let Some((fate, link)) = state.decide(&buf[..len], peer) else {
                return Ok(Some((len, peer)));
            };
            fate.trace(&self.tracer, peer);
            match (fate.copies(), fate.delay) {
                // Consumed: loop — something may have aged onto a ready
                // queue, and more may sit in the OS buffer behind it.
                (0, _) => {}
                (copies, Some(delay)) => {
                    link.park(Instant::now() + delay, &buf[..len], peer, copies)
                }
                (copies, None) => {
                    if copies == 2 {
                        link.ready.push_back((buf[..len].to_vec(), peer));
                    }
                    return Ok(Some((len, peer)));
                }
            }
        }
    }

    /// How long until the fault state has something for
    /// [`FaultySocket::release_held`] to free: [`IDLE_RELEASE`] while
    /// anything is held for reordering or ready, sooner if a delayed
    /// datagram falls due first, `None` when nothing is parked. A
    /// nonblocking owner asks after every drain and arms its release
    /// timer accordingly.
    #[must_use]
    pub fn release_in(&self) -> Option<Duration> {
        let recv = self.recv.lock().expect("recv fault state poisoned");
        let idle = recv.holds().then_some(IDLE_RELEASE);
        let due =
            recv.links.values().filter_map(|link| link.delayed.front().map(|&(due, ..)| due)).min();
        let due = due.map(|due| due.saturating_duration_since(Instant::now()));
        idle.into_iter().chain(due).min()
    }

    /// Declares the links idle: moves every held datagram and every
    /// delayed one now due onto its ready queue, where the next
    /// [`FaultySocket::try_recv_from`] delivers them. Reordering and
    /// delays postpone datagrams, they never strand them.
    pub fn release_held(&self) {
        let now = Instant::now();
        let mut state = self.recv.lock().expect("recv fault state poisoned");
        for link in state.links.values_mut() {
            link.release_held();
            link.release_due(now);
        }
    }

    /// Moves the wrapped socket in or out of nonblocking mode.
    ///
    /// The flag lives on the OS file description, which clones share:
    /// flipping it on any handle flips it for all of them.
    ///
    /// # Errors
    ///
    /// Propagates `UdpSocket::set_nonblocking` failures.
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        self.socket.set_nonblocking(nonblocking)
    }

    /// The wrapped socket's raw descriptor, for readiness registration.
    /// The descriptor stays owned by this socket — do not close it.
    #[must_use]
    pub fn as_raw_fd(&self) -> RawFd {
        self.socket.as_raw_fd()
    }

    /// Sends one datagram, untouched: loss is decided where it arrives.
    ///
    /// # Errors
    ///
    /// Everything `UdpSocket::send_to` can return.
    pub fn send_to(&self, bytes: &[u8], to: SocketAddr) -> io::Result<usize> {
        self.socket.send_to(bytes, to)
    }
}

/// Copies a stashed datagram out to the caller's buffer, truncating like
/// UDP does when the buffer is too small.
fn deliver(bytes: &[u8], peer: SocketAddr, buf: &mut [u8]) -> (usize, SocketAddr) {
    let len = bytes.len().min(buf.len());
    buf[..len].copy_from_slice(&bytes[..len]);
    (len, peer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn bytes(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 7 % 251) as u8).collect()
    }

    #[test]
    fn snapshot_delta_subtracts_per_field_and_saturates() {
        let earlier = DatagramFaultCounters { dropped_in: 3, delayed_in: 10, ..Default::default() };
        let later = DatagramFaultCounters {
            dropped_in: 8,
            duplicated_in: 2,
            delayed_in: 10,
            ..Default::default()
        };
        let delta = later.snapshot_delta(&earlier);
        assert_eq!(delta.dropped_in, 5);
        assert_eq!(delta.duplicated_in, 2);
        assert_eq!(delta.delayed_in, 0, "unchanged counters delta to zero");
        assert_eq!(delta.total(), 7);
        // A stale "later" snapshot (e.g. counters from a reset socket)
        // must clamp, not wrap.
        assert_eq!(earlier.snapshot_delta(&later).dropped_in, 0);
    }

    fn drain(stream: &mut FaultyStream<Cursor<Vec<u8>>>) -> (Vec<u8>, Option<io::ErrorKind>) {
        let mut out = Vec::new();
        let mut buf = [0u8; 33];
        loop {
            match stream.read(&mut buf) {
                Ok(0) => return (out, None),
                Ok(n) => out.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                Err(e) => return (out, Some(e.kind())),
            }
        }
    }

    #[test]
    fn clean_plan_is_the_identity() {
        let data = bytes(1000);
        let mut s = FaultyStream::new(Cursor::new(data.clone()), FaultPlan::clean(1));
        let (out, err) = drain(&mut s);
        assert_eq!(out, data);
        assert_eq!(err, None);
    }

    #[test]
    fn truncation_delivers_exactly_k_bytes_then_eof() {
        let data = bytes(500);
        for k in [0u64, 1, 37, 499, 500, 900] {
            let plan = FaultPlan::clean(2).truncate_read_at(k);
            let mut s = FaultyStream::new(Cursor::new(data.clone()), plan);
            let (out, err) = drain(&mut s);
            let expect = (k as usize).min(data.len());
            assert_eq!(out, data[..expect], "k = {k}");
            assert_eq!(err, None, "truncation is a clean EOF");
        }
    }

    #[test]
    fn disconnect_delivers_exactly_k_bytes_then_errors() {
        let data = bytes(500);
        let plan = FaultPlan::clean(3).disconnect_read_at(123);
        let mut s = FaultyStream::new(Cursor::new(data.clone()), plan);
        let (out, err) = drain(&mut s);
        assert_eq!(out, data[..123]);
        assert_eq!(err, Some(io::ErrorKind::ConnectionReset));
    }

    #[test]
    fn fragmentation_preserves_content() {
        let data = bytes(777);
        let plan = FaultPlan::clean(4).fragment_reads(3);
        let mut s = FaultyStream::new(Cursor::new(data.clone()), plan);
        let mut buf = [0u8; 64];
        let n = s.read(&mut buf).unwrap();
        assert!(n <= 3, "fragmented read returned {n}");
        let (rest, err) = drain(&mut s);
        assert_eq!(err, None);
        let mut out = buf[..n].to_vec();
        out.extend(rest);
        assert_eq!(out, data);
    }

    #[test]
    fn drops_are_seed_deterministic() {
        let data = bytes(2000);
        let plan = FaultPlan::clean(5).drop_rate(0.25);
        let run = || {
            let mut s = FaultyStream::new(Cursor::new(data.clone()), plan);
            drain(&mut s).0
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same surviving bytes");
        assert!(a.len() < data.len(), "some bytes must drop at rate 0.25");
        assert!(!a.is_empty(), "most bytes must survive at rate 0.25");
    }

    #[test]
    fn write_disconnect_fires_at_budget() {
        let plan = FaultPlan::clean(6).disconnect_write_at(10);
        let mut s = FaultyStream::new(Cursor::new(Vec::new()), plan);
        let mut written = 0usize;
        let err = loop {
            match s.write(&bytes(4)) {
                Ok(n) => written += n,
                Err(e) => break e,
            }
        };
        assert_eq!(written, 10, "exactly the budget is accepted");
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(s.into_inner().into_inner().len(), 10);
    }

    // ---- datagram faults ----

    /// A bound, nonblocking faulty socket plus a plain sender aimed at it,
    /// on a clean link.
    fn socket_pair() -> (FaultySocket, UdpSocket, SocketAddr) {
        let socket = FaultySocket::new(UdpSocket::bind("127.0.0.1:0").expect("bind receiver"));
        socket.set_nonblocking(true).expect("nonblocking");
        let sender = UdpSocket::bind("127.0.0.1:0").expect("bind sender");
        let to = socket.local_addr().expect("addr");
        (socket, sender, to)
    }

    /// [`socket_pair`] with `plan` on the sender's link.
    fn linked_pair(plan: DatagramFaultPlan) -> (FaultySocket, UdpSocket, SocketAddr) {
        let (socket, sender, to) = socket_pair();
        socket.set_link_plan(sender.local_addr().expect("addr"), plan);
        (socket, sender, to)
    }

    /// Drains `socket.try_recv_from` until it reports an empty buffer,
    /// returning the delivered sequence numbers in order.
    fn drain_nonblocking(socket: &FaultySocket) -> Vec<u8> {
        let mut seen = Vec::new();
        let mut buf = [0u8; 16];
        while let Some((len, _)) = socket.try_recv_from(&mut buf).expect("try_recv") {
            assert_eq!(len, 1, "unexpected datagram length");
            seen.push(buf[0]);
        }
        seen
    }

    fn send_numbered(sender: &UdpSocket, to: SocketAddr, n: u8) {
        for i in 0..n {
            sender.send_to(&[i], to).expect("send");
            thread::sleep(Duration::from_micros(300));
        }
        // Give loopback delivery a beat so one drain sees everything.
        thread::sleep(Duration::from_millis(5));
    }

    /// Sends `n` numbered datagrams and collects what the plan delivers:
    /// one drain, then — the traffic over — the idle release a node's
    /// timer would run, and a second drain.
    fn pump_datagrams(socket: &FaultySocket, sender: &UdpSocket, to: SocketAddr, n: u8) -> Vec<u8> {
        send_numbered(sender, to, n);
        let mut seen = drain_nonblocking(socket);
        socket.release_held();
        seen.extend(drain_nonblocking(socket));
        seen
    }

    #[test]
    fn clean_datagram_plan_is_the_identity() {
        let (socket, sender, to) = linked_pair(DatagramFaultPlan::clean(1));
        let seen = pump_datagrams(&socket, &sender, to, 20);
        assert_eq!(seen, (0..20).collect::<Vec<u8>>());
        assert_eq!(socket.fault_counters(), DatagramFaultCounters::default());
    }

    #[test]
    fn full_drop_rate_delivers_nothing_and_counts() {
        let (socket, sender, to) = linked_pair(DatagramFaultPlan::clean(2).drop_rate(1.0));
        let seen = pump_datagrams(&socket, &sender, to, 10);
        assert!(seen.is_empty(), "drop_rate 1.0 must drop everything, got {seen:?}");
        assert_eq!(socket.fault_counters().dropped_in, 10);
    }

    #[test]
    fn full_duplicate_rate_delivers_everything_twice() {
        let (socket, sender, to) = linked_pair(DatagramFaultPlan::clean(3).duplicate_rate(1.0));
        let seen = pump_datagrams(&socket, &sender, to, 5);
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 0, 1, 1, 2, 2, 3, 3, 4, 4], "each datagram twice: {seen:?}");
        assert_eq!(socket.fault_counters().duplicated_in, 5);
    }

    #[test]
    fn reordering_permutes_within_the_window_and_loses_nothing() {
        let (socket, sender, to) = linked_pair(DatagramFaultPlan::clean(4).reorder(0.5, 4));
        let n = 40u8;
        let seen = pump_datagrams(&socket, &sender, to, n);
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<u8>>(), "reorder must not lose datagrams");
        assert!(seen != (0..n).collect::<Vec<u8>>(), "something must be out of order");
        assert!(socket.fault_counters().reordered_in > 0);
        // Window bound: a datagram may be displaced by at most window + the
        // ready-queue backlog; with window 4 a displacement of n would mean
        // a datagram was stranded until the end.
        for (position, &seq) in seen.iter().enumerate() {
            assert!(
                (position as i64 - seq as i64).abs() <= 2 * 4,
                "seq {seq} displaced to position {position}: outside the window"
            );
        }
    }

    #[test]
    fn datagram_drops_are_seed_deterministic() {
        let run = |seed: u64| {
            let plan = DatagramFaultPlan::clean(seed).drop_rate(0.4).duplicate_rate(0.2);
            let (socket, sender, to) = linked_pair(plan);
            pump_datagrams(&socket, &sender, to, 50)
        };
        let a = run(99);
        let b = run(99);
        let c = run(100);
        assert_eq!(a, b, "same seed, same surviving datagrams");
        assert_ne!(a, c, "different seed, different pattern");
        assert!(a.len() < 60, "rate 0.4 must drop something");
        assert!(!a.is_empty(), "rate 0.4 must keep something");
    }

    #[test]
    fn delayed_datagrams_are_parked_until_due_never_slept_on() {
        let delay = Duration::from_millis(60);
        let (socket, sender, to) = linked_pair(DatagramFaultPlan::clean(27).delay(1.0, delay));
        send_numbered(&sender, to, 3);
        let started = Instant::now();
        assert!(drain_nonblocking(&socket).is_empty(), "delayed datagrams wait");
        assert!(started.elapsed() < delay, "the drain may not wait the delay out");
        let wait = socket.release_in().expect("the delayed datagrams are parked");
        assert!(wait <= delay, "the release is due when the datagrams are, not later");

        thread::sleep(delay);
        socket.release_held();
        assert_eq!(drain_nonblocking(&socket), [0, 1, 2], "due datagrams come out in order");
        assert_eq!(socket.release_in(), None, "nothing is parked any more");
        assert_eq!(socket.fault_counters().delayed_in, 3);
    }

    #[test]
    fn link_plans_shadow_the_default_per_origin() {
        // One sender gets an always-drop link plan — its datagrams die
        // (and are tallied per link); the other sender has no plan and
        // passes untouched.
        let (socket, doomed, to) = linked_pair(DatagramFaultPlan::clean(12).drop_rate(1.0));
        let fine = UdpSocket::bind("127.0.0.1:0").expect("bind second sender");

        for i in 0..6u8 {
            doomed.send_to(&[i], to).expect("send doomed");
            fine.send_to(&[0x40 + i], to).expect("send fine");
        }
        thread::sleep(Duration::from_millis(5));
        let mut seen = drain_nonblocking(&socket);
        seen.sort_unstable();
        assert_eq!(seen, (0x40..0x46).collect::<Vec<u8>>(), "only the clean link delivers");

        let links = socket.link_counters();
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].0, doomed.local_addr().expect("addr"));
        assert_eq!(links[0].1.dropped_in, 6, "link tally attributes the drops");
        assert_eq!(socket.fault_counters().dropped_in, 6, "totals include link faults");
    }

    #[test]
    fn link_reordering_releases_held_datagrams_on_idle() {
        // A link plan that holds everything: the idle-release path must
        // still hand the datagrams to the caller eventually.
        let (socket, sender, to) = linked_pair(DatagramFaultPlan::clean(14).reorder(1.0, 4));
        let seen = pump_datagrams(&socket, &sender, to, 10);
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<u8>>(), "per-link reorder must not lose");
        assert!(socket.link_counters()[0].1.reordered_in > 0);
    }

    #[test]
    fn clones_share_fault_state_and_counters() {
        let (socket, sender, to) = linked_pair(DatagramFaultPlan::clean(6).drop_rate(1.0));
        let clone = socket.try_clone().expect("clone");
        sender.send_to(&[1], to).expect("send");
        thread::sleep(Duration::from_millis(5));
        let mut buf = [0u8; 16];
        assert!(clone.try_recv_from(&mut buf).expect("try_recv").is_none(), "clone drops too");
        assert_eq!(socket.fault_counters().dropped_in, 1, "counters are shared");
    }

    // ---- nonblocking / edge-triggered API ----

    #[test]
    fn try_recv_skips_past_consumed_datagrams_in_one_drain() {
        // Regression for the edge-triggered hazard: a caller treating a
        // datagram the plan ate as "buffer empty" would stop draining and
        // strand everything queued behind the drop until the next
        // readiness edge — which never comes. The drain must keep pulling.
        let (socket, sender, to) = linked_pair(DatagramFaultPlan::clean(21).drop_rate(0.4));
        send_numbered(&sender, to, 30);
        let seen = drain_nonblocking(&socket);
        let dropped = socket.fault_counters().dropped_in as usize;
        assert!(dropped > 0, "rate 0.4 over 30 datagrams must drop some");
        assert_eq!(seen.len(), 30 - dropped, "one drain must deliver every survivor");
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "survivors stay in order");
    }

    #[test]
    fn idle_release_under_edge_triggered_polling() {
        // Reorder-held datagrams have no read-timeout path to escape on
        // a nonblocking socket: the caller must see them via
        // release_in() and free them with release_held().
        let (socket, sender, to) = linked_pair(DatagramFaultPlan::clean(23).reorder(1.0, 8));
        assert_eq!(socket.release_in(), None, "nothing held before traffic");

        send_numbered(&sender, to, 4);
        let seen = drain_nonblocking(&socket);
        assert!(seen.is_empty(), "an always-hold window of 8 parks all 4 datagrams");
        assert!(socket.release_in().is_some(), "the drain must leave the holds visible");

        socket.release_held();
        let mut released = drain_nonblocking(&socket);
        released.sort_unstable();
        assert_eq!(released, (0..4).collect::<Vec<u8>>(), "release frees every held datagram");
        assert_eq!(socket.release_in(), None);
    }

    #[test]
    fn nonblocking_flag_is_shared_across_clones() {
        // The O_NONBLOCK flag lives on the shared file description:
        // flipping it via one handle must flip the clone too, which is
        // why a poll-driven socket must never be mixed with blocking
        // readers. (The read timeout only bounds a failing run.)
        let inner = UdpSocket::bind("127.0.0.1:0").expect("bind");
        inner.set_read_timeout(Some(Duration::from_millis(40))).expect("timeout");
        let socket = FaultySocket::new(inner);
        let clone = socket.try_clone().expect("clone");
        socket.set_nonblocking(true).expect("nonblocking");
        let mut buf = [0u8; 16];
        let start = Instant::now();
        assert!(clone.try_recv_from(&mut buf).expect("try_recv").is_none());
        assert!(
            start.elapsed() < Duration::from_millis(30),
            "the clone must return instantly, not wait out the read timeout"
        );
    }

    #[test]
    fn try_recv_matches_blocking_delivery_for_a_clean_plan() {
        // What a blocking reader would have seen: everything, in order.
        let (socket, sender, to) = socket_pair();
        send_numbered(&sender, to, 12);
        assert_eq!(drain_nonblocking(&socket), (0..12).collect::<Vec<u8>>());
        assert_eq!(socket.fault_counters(), DatagramFaultCounters::default());
    }
}
