//! Integration tests driving real UDP sockets through the sharded
//! reactor: cross-worker datagram exchange, control routing, graceful
//! shutdown draining, and spurious/zero-length readiness tolerance.

use std::net::{SocketAddr, UdpSocket};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ltnc_reactor::{Cx, Driven, Reactor};

/// A minimal driven node: drains its socket, optionally sends a beacon
/// to one peer on a periodic timer, and records control tags.
struct TestNode {
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
    tags: Vec<u64>,
}

impl TestNode {
    fn bind(tick_every: Option<Duration>) -> TestNode {
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
        socket.set_nonblocking(true).expect("nonblocking");
        TestNode {
            socket,
            peer: None,
            tick_every,
            received: Arc::new(AtomicUsize::new(0)),
            finished: Arc::new(AtomicBool::new(false)),
            datagrams: 0,
            bytes: 0,
            ticks: 0,
            tags: Vec::new(),
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

enum Ctl {
    Tag(u64),
}

#[derive(Debug)]
struct Summary {
    datagrams: usize,
    bytes: usize,
    ticks: usize,
    tags: Vec<u64>,
}

impl Driven for TestNode {
    type Control = Ctl;
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

    fn on_control(&mut self, msg: Ctl, _cx: &mut Cx) {
        match msg {
            Ctl::Tag(tag) => self.tags.push(tag),
        }
    }

    fn finish(&mut self) -> Summary {
        self.finished.store(true, Ordering::SeqCst);
        Summary {
            datagrams: self.datagrams,
            bytes: self.bytes,
            ticks: self.ticks,
            tags: std::mem::take(&mut self.tags),
        }
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
fn control_messages_route_to_the_node_they_were_addressed_to() {
    // 5 nodes over 3 workers exercises the round-robin local-index math.
    let nodes: Vec<TestNode> = (0..5).map(|_| TestNode::bind(None)).collect();
    let reactor = Reactor::start(nodes, 3).expect("start");
    for i in 0..5 {
        reactor.send(i, Ctl::Tag(i as u64 * 10));
    }
    // Per-worker channels are FIFO, so the tags land before Stop does.
    let outputs = reactor.shutdown();
    for (i, out) in outputs.iter().enumerate() {
        assert_eq!(out.tags, vec![i as u64 * 10], "node {i} got the wrong control tags");
    }
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
