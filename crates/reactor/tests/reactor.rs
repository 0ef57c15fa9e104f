//! Integration tests driving real UDP sockets through the sharded
//! reactor: cross-worker datagram exchange, output order across the
//! round-robin partition, graceful shutdown draining, and
//! spurious/zero-length readiness tolerance.

use std::net::{SocketAddr, UdpSocket};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ltnc_reactor::{Cx, Driven, Reactor};

/// A minimal driven node: drains its socket and optionally sends a
/// beacon to one peer on a periodic timer.
struct TestNode {
    /// Names the node in its [`Summary`].
    id: usize,
    socket: UdpSocket,
    peer: Option<SocketAddr>,
    tick_every: Option<Duration>,
    /// Live mirror of the datagram count, observable mid-run.
    received: Arc<AtomicUsize>,
    /// Set by `finish`, observable after the node itself is gone.
    finished: Arc<AtomicBool>,
    datagrams: usize,
    bytes: usize,
    ticks: usize,
}

impl TestNode {
    fn bind(tick_every: Option<Duration>) -> TestNode {
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
        socket.set_nonblocking(true).expect("nonblocking");
        TestNode {
            id: 0,
            socket,
            peer: None,
            tick_every,
            received: Arc::new(AtomicUsize::new(0)),
            finished: Arc::new(AtomicBool::new(false)),
            datagrams: 0,
            bytes: 0,
            ticks: 0,
        }
    }

    fn addr(&self) -> SocketAddr {
        self.socket.local_addr().expect("local addr")
    }

    fn drain(&mut self, cx: &mut Cx) {
        loop {
            let buf = cx.scratch();
            match self.socket.recv_from(buf) {
                Ok((n, _from)) => {
                    self.datagrams += 1;
                    self.bytes += n;
                    self.received.fetch_add(1, Ordering::SeqCst);
                }
                Err(_) => break,
            }
        }
    }
}

#[derive(Debug)]
struct Summary {
    id: usize,
    datagrams: usize,
    bytes: usize,
    ticks: usize,
}

impl Driven for TestNode {
    type Output = Summary;

    fn fd(&self) -> RawFd {
        self.socket.as_raw_fd()
    }

    fn on_start(&mut self, cx: &mut Cx) {
        if let Some(every) = self.tick_every {
            cx.arm(every, 0);
        }
        self.drain(cx);
    }

    fn on_readable(&mut self, cx: &mut Cx) {
        self.drain(cx);
    }

    fn on_timer(&mut self, _tag: u64, cx: &mut Cx) {
        self.ticks += 1;
        if let Some(peer) = self.peer {
            let _ = self.socket.send_to(b"beacon", peer);
        }
        if let Some(every) = self.tick_every {
            cx.arm(every, 0);
        }
    }

    fn finish(&mut self) -> Summary {
        self.finished.store(true, Ordering::SeqCst);
        Summary { id: self.id, datagrams: self.datagrams, bytes: self.bytes, ticks: self.ticks }
    }
}

fn wait_until(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
    let until = Instant::now() + deadline;
    while Instant::now() < until {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    done()
}

#[test]
fn ring_of_nodes_exchanges_datagrams_across_two_workers() {
    let mut nodes: Vec<TestNode> =
        (0..4).map(|_| TestNode::bind(Some(Duration::from_millis(5)))).collect();
    let addrs: Vec<SocketAddr> = nodes.iter().map(TestNode::addr).collect();
    for (i, node) in nodes.iter_mut().enumerate() {
        node.peer = Some(addrs[(i + 1) % addrs.len()]);
    }
    let counters: Vec<Arc<AtomicUsize>> = nodes.iter().map(|n| Arc::clone(&n.received)).collect();

    let reactor = Reactor::start(nodes, 2).expect("start");
    let all_heard = wait_until(Duration::from_secs(10), || {
        counters.iter().all(|c| c.load(Ordering::SeqCst) >= 3)
    });
    let outputs = reactor.shutdown();

    assert!(all_heard, "every node must receive beacons from its ring predecessor");
    assert_eq!(outputs.len(), 4);
    for (i, out) in outputs.iter().enumerate() {
        assert!(out.datagrams >= 3, "node {i} heard only {} datagrams", out.datagrams);
        assert!(out.ticks >= 3, "node {i} ticked only {} times", out.ticks);
        assert_eq!(out.bytes, out.datagrams * b"beacon".len());
    }
}

#[test]
fn shutdown_returns_five_nodes_on_three_workers_in_original_order() {
    // 5 nodes over 3 workers: workers hold 2, 2 and 1 nodes, so putting
    // the outputs back needs the round-robin local-index arithmetic.
    let nodes: Vec<TestNode> = (0..5).map(|id| TestNode { id, ..TestNode::bind(None) }).collect();
    let outputs = Reactor::start(nodes, 3).expect("start").shutdown();
    let ids: Vec<usize> = outputs.iter().map(|out| out.id).collect();
    assert_eq!(ids, [0, 1, 2, 3, 4]);
}

#[test]
fn shutdown_sweep_drains_a_datagram_sent_moments_before() {
    let node = TestNode::bind(None);
    let addr = node.addr();
    let reactor = Reactor::start(vec![node], 1).expect("start");

    // Land a datagram and shut down immediately, without giving the
    // poll loop time to report readiness: the graceful sweep must still
    // deliver it to the state machine before finish().
    let sender = UdpSocket::bind("127.0.0.1:0").expect("bind sender");
    sender.send_to(b"last words", addr).expect("send");
    let outputs = reactor.shutdown();
    assert_eq!(outputs[0].datagrams, 1, "the in-flight datagram must be drained at shutdown");
    assert_eq!(outputs[0].bytes, b"last words".len());
}

#[test]
fn a_dropped_reactor_stops_its_workers() {
    // No shutdown(): an early `?` or a panicking test drops the handle.
    // The workers must notice, sweep and finish — not tick on forever.
    let nodes: Vec<TestNode> =
        (0..3).map(|_| TestNode::bind(Some(Duration::from_millis(5)))).collect();
    let finished: Vec<Arc<AtomicBool>> = nodes.iter().map(|n| Arc::clone(&n.finished)).collect();
    let idle = TestNode::bind(None); // no timer: parked in the longest poll wait
    let idle_finished = Arc::clone(&idle.finished);

    drop(Reactor::start(nodes, 2).expect("start"));
    drop(Reactor::start(vec![idle], 1).expect("start"));
    assert!(
        wait_until(Duration::from_secs(1), || {
            finished.iter().chain([&idle_finished]).all(|f| f.load(Ordering::SeqCst))
        }),
        "every node of a dropped reactor must be finished within a second"
    );
}

#[test]
fn zero_length_datagrams_and_spurious_readiness_are_tolerated() {
    let node = TestNode::bind(None);
    let addr = node.addr();
    let counter = Arc::clone(&node.received);
    let reactor = Reactor::start(vec![node], 1).expect("start");

    let sender = UdpSocket::bind("127.0.0.1:0").expect("bind sender");
    sender.send_to(&[], addr).expect("send empty");
    assert!(
        wait_until(Duration::from_secs(10), || counter.load(Ordering::SeqCst) >= 1),
        "a zero-length datagram still counts as readiness"
    );
    let outputs = reactor.shutdown();
    assert_eq!(outputs[0].datagrams, 1);
    assert_eq!(outputs[0].bytes, 0);
}

#[test]
fn an_empty_reactor_starts_and_shuts_down_cleanly() {
    let reactor: Reactor<TestNode> = Reactor::start(Vec::new(), 2).expect("start");
    assert_eq!(reactor.node_count(), 0);
    assert!(reactor.shutdown().is_empty());
}

/// Arms two timers at start and cancels the second; reports the tags
/// that fired.
struct CancellingNode {
    socket: UdpSocket,
    fired: Arc<AtomicUsize>,
    tags: Vec<u64>,
}

impl Driven for CancellingNode {
    type Output = Vec<u64>;

    fn fd(&self) -> RawFd {
        self.socket.as_raw_fd()
    }

    fn on_start(&mut self, cx: &mut Cx) {
        cx.arm(Duration::from_millis(20), 1);
        let cancelled = cx.arm(Duration::from_millis(10), 2);
        cx.cancel(cancelled);
    }

    fn on_readable(&mut self, _cx: &mut Cx) {}

    fn on_timer(&mut self, tag: u64, _cx: &mut Cx) {
        self.tags.push(tag);
        self.fired.fetch_add(1, Ordering::SeqCst);
    }

    fn finish(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.tags)
    }
}

#[test]
fn a_cancelled_timer_never_fires() {
    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
    socket.set_nonblocking(true).expect("nonblocking");
    let fired = Arc::new(AtomicUsize::new(0));
    let node = CancellingNode { socket, fired: Arc::clone(&fired), tags: Vec::new() };
    let reactor = Reactor::start(vec![node], 1).expect("start");
    // The cancelled timer was due first; the other one firing proves the
    // wheel has passed both deadlines.
    assert!(wait_until(Duration::from_secs(10), || fired.load(Ordering::SeqCst) >= 1));
    assert_eq!(reactor.shutdown(), vec![vec![1]]);
}
