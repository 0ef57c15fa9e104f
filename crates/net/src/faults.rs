//! Deterministic fault injection for transport tests.
//!
//! Every transport test in this workspace used to run over clean
//! localhost sockets, which exercises none of the failure handling the
//! protocol exists for. This module makes adverse conditions *seeded and
//! reproducible*, for streams and for datagrams:
//!
//! * [`FaultyStream`] wraps any `Read` and injects faults from a
//!   [`FaultPlan`]: per-byte drops, per-call delays, read fragmentation,
//!   a clean truncation (EOF) at byte `K`, a stall at byte `K`, and a
//!   hard disconnect (error) at byte `K`. All randomness comes from a
//!   [`SmallRng`] seeded by the plan, so a failing case replays exactly.
//! * [`FaultProxy`] puts the same plans between two real TCP endpoints: a
//!   localhost forwarder that pumps each direction of every accepted
//!   connection through a `FaultyStream`. Integration tests point a
//!   client at the proxy instead of the server and get loss, stalls and
//!   mid-transfer disconnects without touching either endpoint's code.
//! * [`DatagramFaultPlan`] is the datagram counterpart: one plan per
//!   *link* — per sender, on the receiving end — of whole-datagram
//!   drops, duplicates, reordering within a bounded window, and
//!   per-datagram delays, with per-link tallies
//!   ([`DatagramFaultCounters`]). A swarm gives every overlay link its
//!   own seeded plan ([`crate::TopologyFaults`]), so the UDP gossip tests
//!   exercise exactly the lossy links the paper's redundancy and this
//!   crate's adaptive pacing exist for. A sender without a plan passes
//!   clean, and sends are never faulted.
//!
//! Byte-counted stream faults (`truncate_read_at`, `disconnect_read_at`)
//! are deterministic regardless of how the OS chunks the stream, which is
//! what makes "kill the server after exactly K bytes" a stable test.
//! Datagram faults decide per *datagram* in arrival order, so a fixed
//! seed replays the same drop/duplicate/reorder pattern over the same
//! traffic. One state machine carries those decisions out for both swarm
//! drivers, on the node's microsecond clock: each node's inbound side,
//! inside the endpoint (`crate::endpoint`) both drivers run. Nothing
//! sleeps — a delayed datagram is parked until it falls due.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use ltnc_metrics::CounterFamily;
use ltnc_telemetry::{FaultKind, TraceEvent, Tracer};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::peer::micros;

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

/// A `Read` wrapper executing a [`FaultPlan`].
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
}

impl<S> FaultyStream<S> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> FaultyStream<S> {
        FaultyStream {
            inner,
            plan,
            rng: SmallRng::seed_from_u64(plan.seed ^ 0xFA_17_5E_ED),
            read_delivered: 0,
        }
    }

    /// Bytes delivered to the reader so far (after drops and cuts).
    #[must_use]
    pub fn read_delivered(&self) -> u64 {
        self.read_delivered
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
/// what one sender's datagrams suffer on their way into a swarm node.
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
    /// Snapshot of the faults the link plans into one node have injected
    /// so far.
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
/// that would overtake them: this long after the first hold, the links
/// count as idle and everything held is released.
pub(crate) const IDLE_RELEASE: Duration = Duration::from_millis(20);

/// What one plan did to one datagram.
#[derive(Clone, Copy, Default)]
struct Fate {
    delayed: bool,
    dropped: bool,
    /// Parked for reordering: the link now holds the datagram.
    held: bool,
    duplicated: bool,
}

impl Fate {
    /// Copies of the datagram to hand over, now or once its delay is
    /// up: none when it was dropped or held, two when it was duplicated.
    fn copies(self) -> usize {
        if self.dropped || self.held {
            0
        } else {
            1 + usize::from(self.duplicated)
        }
    }

    /// The faults as counters.
    fn counters(self) -> DatagramFaultCounters {
        let [delayed, dropped, reordered, duplicated] =
            [self.delayed, self.dropped, self.held, self.duplicated].map(u64::from);
        DatagramFaultCounters {
            delayed_in: delayed,
            dropped_in: dropped,
            reordered_in: reordered,
            duplicated_in: duplicated,
            ..DatagramFaultCounters::default()
        }
    }

    /// One [`TraceEvent::FaultInjected`] per fault, attributed to `peer`
    /// and stamped `now`.
    fn trace(self, now: u64, tracer: &Tracer, peer: SocketAddr) {
        for (fired, kind) in [
            (self.delayed, FaultKind::Delay),
            (self.dropped, FaultKind::Drop),
            (self.held, FaultKind::Reorder),
            (self.duplicated, FaultKind::Duplicate),
        ] {
            if fired {
                tracer.emit(now, || TraceEvent::FaultInjected { kind, peer: Some(peer) });
            }
        }
    }
}

/// A datagram held back by the reorder fault, released once `remaining`
/// later datagrams have passed it (or the links go idle).
struct HeldDatagram {
    bytes: Vec<u8>,
    remaining: usize,
}

/// One link's fault state: the plan, its seeded RNG, the datagrams the
/// plan parks, and the faults it has injected.
struct LinkState {
    plan: DatagramFaultPlan,
    rng: SmallRng,
    /// Datagrams held by the reorder fault, oldest first.
    held: VecDeque<HeldDatagram>,
    /// Delayed datagrams with the time each falls due on the node's
    /// clock. One plan has one delay, so due order is arrival order.
    delayed: VecDeque<(u64, Vec<u8>)>,
    /// Datagrams due now (holds overtaken or released, delays that came
    /// due), oldest first.
    ready: VecDeque<Vec<u8>>,
    /// The faults this plan has injected.
    counters: DatagramFaultCounters,
}

impl LinkState {
    fn new(plan: DatagramFaultPlan) -> LinkState {
        LinkState {
            plan,
            rng: SmallRng::seed_from_u64(plan.seed ^ 0xDA7A_FA17),
            held: VecDeque::new(),
            delayed: VecDeque::new(),
            ready: VecDeque::new(),
            counters: DatagramFaultCounters::default(),
        }
    }

    /// Decides, tallies and traces the fate of one datagram from `from`
    /// arriving at `now`, after moving the holds it overtakes past their
    /// window onto the ready queue, and parks what the fate holds or
    /// delays. Returns how many copies to hand over now.
    fn arrive(&mut self, now: u64, from: SocketAddr, bytes: &[u8], tracer: &Tracer) -> usize {
        for held in &mut self.held {
            held.remaining = held.remaining.saturating_sub(1);
        }
        while self.held.front().is_some_and(|h| h.remaining == 0) {
            let held = self.held.pop_front().expect("checked non-empty");
            self.ready.push_back(held.bytes);
        }
        let plan = self.plan;
        let delayed = plan.delay_rate > 0.0 && self.rng.gen_bool(plan.delay_rate);
        let mut fate = Fate { delayed, ..Fate::default() };
        if plan.drop_rate > 0.0 && self.rng.gen_bool(plan.drop_rate) {
            fate.dropped = true;
        } else if plan.reorder_window > 0
            && plan.reorder_rate > 0.0
            && self.rng.gen_bool(plan.reorder_rate)
        {
            fate.held = true;
            let remaining = self.rng.gen_range(1..=plan.reorder_window);
            self.held.push_back(HeldDatagram { bytes: bytes.to_vec(), remaining });
        } else if plan.duplicate_rate > 0.0 && self.rng.gen_bool(plan.duplicate_rate) {
            fate.duplicated = true;
        }
        self.counters.merge(&fate.counters());
        fate.trace(now, tracer, from);
        if !fate.delayed {
            return fate.copies();
        }
        let due = now.saturating_add(micros(plan.delay));
        self.delayed.extend(std::iter::repeat_with(|| (due, bytes.to_vec())).take(fate.copies()));
        0
    }
}

/// The inbound side of one node's links, on the node's microsecond
/// clock: one plan per origin that has one, keyed by sender address
/// (ordered, so releases are deterministic). A datagram from an origin
/// without a plan passes clean.
///
/// Nothing here waits. Reordered datagrams are held until enough later
/// traffic has overtaken them or [`IDLE_RELEASE`] has passed, delayed
/// ones until they fall due; [`InboundState::next_release`] says when
/// [`InboundState::release`] next frees something, so a parked datagram
/// is late, never lost.
#[derive(Default)]
pub(crate) struct InboundState {
    links: BTreeMap<SocketAddr, LinkState>,
    /// When the links count as idle and every reorder hold is released:
    /// [`IDLE_RELEASE`] after the first hold since the last release.
    idle_at: Option<u64>,
}

impl InboundState {
    /// Installs (or replaces) the plan for datagrams from `from`.
    pub(crate) fn set_link(&mut self, from: SocketAddr, plan: DatagramFaultPlan) {
        self.links.insert(from, LinkState::new(plan));
    }

    /// Runs one datagram from `from`, arriving at `now`, through that
    /// link's plan, tracing each fault on `tracer`, and returns how many
    /// copies to hand over now: one when the link has no plan, none when
    /// the plan drops, holds or delays it, two when it duplicates it.
    /// The holds it overtook are then ready ([`InboundState::pop_ready`]).
    pub(crate) fn arrive(
        &mut self,
        now: u64,
        from: SocketAddr,
        bytes: &[u8],
        tracer: &Tracer,
    ) -> usize {
        let Some(link) = self.links.get_mut(&from) else { return 1 };
        let copies = link.arrive(now, from, bytes, tracer);
        if self.idle_at.is_none() && !link.held.is_empty() {
            self.idle_at = Some(now + micros(IDLE_RELEASE));
        }
        copies
    }

    /// Makes ready what is due by `now`: every delayed datagram that
    /// fell due and, once the links have gone idle, every reorder hold.
    pub(crate) fn release(&mut self, now: u64) {
        let idle = self.idle_at.is_some_and(|at| at <= now);
        if idle {
            self.idle_at = None;
        }
        for link in self.links.values_mut() {
            if idle {
                link.ready.extend(link.held.drain(..).map(|held| held.bytes));
            }
            while link.delayed.front().is_some_and(|&(due, _)| due <= now) {
                let (_, bytes) = link.delayed.pop_front().expect("checked non-empty");
                link.ready.push_back(bytes);
            }
        }
    }

    /// When [`InboundState::release`] next frees something; `None` while
    /// nothing is parked.
    pub(crate) fn next_release(&self) -> Option<u64> {
        let delays = self.links.values().filter_map(|link| link.delayed.front().map(|d| d.0));
        delays.chain(self.idle_at).min()
    }

    /// Pops the oldest ready datagram of the first link, in address
    /// order, that has one.
    pub(crate) fn pop_ready(&mut self) -> Option<(Vec<u8>, SocketAddr)> {
        self.links.iter_mut().find_map(|(&from, link)| Some((link.ready.pop_front()?, from)))
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

    // ---- datagram faults ----

    /// The sender every test link is keyed by.
    fn sender() -> SocketAddr {
        SocketAddr::from(([10, 0, 0, 1], 7))
    }

    /// One node's inbound side with `plan` on the link from [`sender`].
    fn linked(plan: DatagramFaultPlan) -> InboundState {
        let mut inbound = InboundState::default();
        inbound.set_link(sender(), plan);
        inbound
    }

    /// Hands over what `inbound` holds ready, in order, into `seen`.
    fn take_ready(inbound: &mut InboundState, seen: &mut Vec<u8>) {
        while let Some((bytes, from)) = inbound.pop_ready() {
            assert_eq!(bytes.len(), 1, "unexpected datagram length");
            seen.push(bytes[0]);
            assert_eq!(from, sender());
        }
    }

    /// Numbered datagram `i` arrives from [`sender`] at `now`: what is
    /// handed over at once, the datagram's copies first.
    fn arrive(inbound: &mut InboundState, now: u64, i: u8) -> Vec<u8> {
        let copies = inbound.arrive(now, sender(), &[i], &Tracer::off());
        let mut seen = vec![i; copies];
        take_ready(inbound, &mut seen);
        seen
    }

    /// Datagrams `0..n` arrive one every 100 µs; then, the traffic over,
    /// every release runs when [`InboundState::next_release`] says. What
    /// the link hands over, in order.
    fn pump_datagrams(inbound: &mut InboundState, n: u8) -> Vec<u8> {
        let mut seen: Vec<u8> =
            (0..n).flat_map(|i| arrive(inbound, u64::from(i) * 100, i)).collect();
        while let Some(at) = inbound.next_release() {
            inbound.release(at);
            take_ready(inbound, &mut seen);
        }
        seen
    }

    #[test]
    fn clean_datagram_plan_is_the_identity() {
        let mut inbound = linked(DatagramFaultPlan::clean(1));
        assert_eq!(pump_datagrams(&mut inbound, 20), (0..20).collect::<Vec<u8>>());
        assert_eq!(inbound.totals(), DatagramFaultCounters::default());
    }

    #[test]
    fn full_drop_rate_delivers_nothing_and_counts() {
        let mut inbound = linked(DatagramFaultPlan::clean(2).drop_rate(1.0));
        let seen = pump_datagrams(&mut inbound, 10);
        assert!(seen.is_empty(), "drop_rate 1.0 must drop everything, got {seen:?}");
        assert_eq!(inbound.totals().dropped_in, 10);
    }

    #[test]
    fn full_duplicate_rate_delivers_everything_twice() {
        let mut inbound = linked(DatagramFaultPlan::clean(3).duplicate_rate(1.0));
        let seen = pump_datagrams(&mut inbound, 5);
        assert_eq!(seen, [0, 0, 1, 1, 2, 2, 3, 3, 4, 4], "both copies at once, in order");
        assert_eq!(inbound.totals().duplicated_in, 5);
    }

    #[test]
    fn reordering_permutes_within_the_window_and_loses_nothing() {
        let mut inbound = linked(DatagramFaultPlan::clean(4).reorder(0.5, 4));
        let n = 40u8;
        let seen = pump_datagrams(&mut inbound, n);
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<u8>>(), "reorder must not lose datagrams");
        assert!(seen != (0..n).collect::<Vec<u8>>(), "something must be out of order");
        assert!(inbound.totals().reordered_in > 0);
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
            pump_datagrams(&mut linked(plan), 50)
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
        let plan = DatagramFaultPlan::clean(27).delay(1.0, Duration::from_millis(60));
        let mut inbound = linked(plan);
        for i in 0..3 {
            assert!(
                arrive(&mut inbound, u64::from(i) * 100, i).is_empty(),
                "delayed datagrams wait"
            );
        }
        assert_eq!(inbound.next_release(), Some(60_000), "due exactly its delay after arrival");
        let mut seen = Vec::new();
        inbound.release(59_999);
        take_ready(&mut inbound, &mut seen);
        assert!(seen.is_empty(), "nothing is released early");
        for (at, i) in [(60_000, 0), (60_100, 1), (60_200, 2)] {
            assert_eq!(inbound.next_release(), Some(at));
            inbound.release(at);
            take_ready(&mut inbound, &mut seen);
            assert_eq!(seen.pop(), Some(i), "each datagram falls due on its own");
        }
        assert_eq!(inbound.next_release(), None, "nothing is parked any more");
        assert_eq!(inbound.totals().delayed_in, 3);
    }

    #[test]
    fn link_plans_shadow_the_default_per_origin() {
        // One sender gets an always-drop link plan — its datagrams die
        // (and are tallied per link); the other sender has no plan and
        // passes untouched.
        let mut inbound = linked(DatagramFaultPlan::clean(12).drop_rate(1.0));
        let fine = SocketAddr::from(([10, 0, 0, 2], 7));
        for i in 0..6u8 {
            assert_eq!(inbound.arrive(u64::from(i), sender(), &[i], &Tracer::off()), 0);
            assert_eq!(inbound.arrive(u64::from(i), fine, &[0x40 + i], &Tracer::off()), 1);
        }
        assert_eq!(inbound.next_release(), None, "a drop parks nothing");

        let links = inbound.link_counters();
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].0, sender());
        assert_eq!(links[0].1.dropped_in, 6, "link tally attributes the drops");
        assert_eq!(inbound.totals().dropped_in, 6, "totals include link faults");
    }

    #[test]
    fn link_reordering_releases_held_datagrams_on_idle() {
        // A link plan that holds everything: the idle release must still
        // hand the datagrams over eventually.
        let mut inbound = linked(DatagramFaultPlan::clean(14).reorder(1.0, 4));
        let seen = pump_datagrams(&mut inbound, 10);
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<u8>>(), "per-link reorder must not lose");
        assert!(inbound.link_counters()[0].1.reordered_in > 0);
    }

    #[test]
    fn a_drop_never_holds_up_the_survivors_behind_it() {
        // A datagram the plan eats must not hold up the ones behind it:
        // every survivor is handed over the moment it arrives, in order.
        let mut inbound = linked(DatagramFaultPlan::clean(21).drop_rate(0.4));
        let seen: Vec<u8> = (0..30).flat_map(|i| arrive(&mut inbound, u64::from(i), i)).collect();
        let dropped = inbound.totals().dropped_in as usize;
        assert!(dropped > 0, "rate 0.4 over 30 datagrams must drop some");
        assert_eq!(seen.len(), 30 - dropped, "every survivor at once");
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "survivors stay in order");
        assert_eq!(inbound.next_release(), None);
    }

    #[test]
    fn idle_release_falls_due_exactly_idle_release_after_the_first_hold() {
        // Nothing but the idle release frees an always-hold window's
        // datagrams, so it must fall due IDLE_RELEASE after the first
        // hold, and not a microsecond sooner.
        let mut inbound = linked(DatagramFaultPlan::clean(23).reorder(1.0, 8));
        assert_eq!(inbound.next_release(), None, "nothing held before traffic");
        for i in 0..4 {
            assert!(arrive(&mut inbound, 1_000 + u64::from(i) * 100, i).is_empty());
        }
        let due = 1_000 + micros(IDLE_RELEASE);
        assert_eq!(inbound.next_release(), Some(due), "the first hold starts the idle clock");

        let mut released = Vec::new();
        inbound.release(due - 1);
        take_ready(&mut inbound, &mut released);
        assert!(released.is_empty(), "the links are not idle yet");
        inbound.release(due);
        take_ready(&mut inbound, &mut released);
        released.sort_unstable();
        assert_eq!(released, (0..4).collect::<Vec<u8>>(), "release frees every held datagram");
        assert_eq!(inbound.next_release(), None);
    }
}
