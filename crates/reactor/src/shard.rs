//! The sharded scheduler: M node state machines per worker thread.
//!
//! A [`Reactor`] partitions its nodes round-robin across worker threads
//! (node `i` lands on worker `i % workers`). Each worker owns one
//! [`crate::Poller`], one [`crate::TimerWheel`] and one [`crate::Waker`],
//! and runs a readiness loop: check for a stop request, wait for
//! ready descriptors or the next timer deadline, dispatch
//! [`Driven::on_readable`] / [`Driven::on_watched`] / [`Driven::on_timer`]
//! callbacks. Nodes never migrate between workers, so a node's callbacks
//! are totally ordered — a state machine needs no internal locking.
//!
//! A node owns one descriptor ([`Driven::fd`]) and may watch more under
//! keys of its choosing ([`Cx::watch`]): a server's connections.
//!
//! Shutdown is graceful: each worker performs one final
//! readiness-independent [`Driven::on_readable`] sweep over its nodes
//! (catching datagrams that arrived after the last poll; what a node
//! watches it drains in `finish`) before collecting every node's
//! [`Driven::finish`] output. A [`Reactor`]
//! dropped without [`Reactor::shutdown`] stops the same way — its
//! workers notice the closed stop queue within one poll wait
//! (≤ 100 ms), sweep, finish and exit; only the outputs are lost.

use std::collections::HashMap;
use std::io;
use std::os::fd::RawFd;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::observe::{Dispatch, ShardObserver};
use crate::poll::{Event, Poller, MAX_WAIT};
use crate::timer::{TimerId, TimerWheel};
use crate::wake::Waker;

/// Token reserved for the per-worker waker descriptor; node tokens are
/// their local indices, which stay far below this. A descriptor a node
/// watches carries its key plus one in the token's high half.
const WAKER_TOKEN: u64 = u64::MAX;

/// Timer granularity of each worker's wheel: fine enough for the 2ms
/// protocol tick, coarse enough to keep slot sweeps cheap.
const WHEEL_GRANULARITY: Duration = Duration::from_millis(1);

/// Slots per wheel — a 512ms horizon before timers need extra rounds.
const WHEEL_SLOTS: usize = 512;

/// Per-worker scratch buffer size: one max-size UDP datagram.
const SCRATCH_LEN: usize = 64 * 1024;

/// A node state machine drivable by a [`Reactor`] worker.
///
/// All callbacks for one node run on the same worker thread, in a total
/// order; implementations need no synchronisation of their own state.
/// The descriptor returned by [`Driven::fd`] is registered
/// edge-triggered: `on_readable` must drain it to `WouldBlock` (spurious
/// calls with nothing readable are legal and must be tolerated).
pub trait Driven: Send + 'static {
    /// Value produced when the node is torn down.
    type Output: Send;

    /// The (nonblocking) descriptor to watch for read readiness. Must
    /// stay stable and open for the node's lifetime.
    fn fd(&self) -> RawFd;

    /// Called once on the owning worker before the first poll — the
    /// place to arm initial timers and drain anything that arrived
    /// before registration.
    fn on_start(&mut self, cx: &mut Cx);

    /// The node's descriptor looks readable (possibly spuriously).
    fn on_readable(&mut self, cx: &mut Cx);

    /// A descriptor watched via [`Cx::watch`] under `key` looks readable
    /// or writable (possibly spuriously). The edge-triggered contract
    /// holds for both: drain reads to `WouldBlock`, and write until the
    /// data is gone or the write would block.
    fn on_watched(&mut self, _key: u32, _cx: &mut Cx) {}

    /// A timer armed via [`Cx::arm`] with this `tag` fired.
    fn on_timer(&mut self, tag: u64, cx: &mut Cx);

    /// Tears the node down and extracts its output. Called exactly once
    /// per node, after the final shutdown sweep.
    fn finish(&mut self) -> Self::Output;
}

/// Per-dispatch context handed to every [`Driven`] callback: timers and
/// watched descriptors for the node being dispatched, and a shared
/// scratch buffer for reads.
pub struct Cx<'a> {
    /// The instant captured at the top of the current loop iteration —
    /// cheap, and consistent across every dispatch in the iteration.
    now: Instant,
    node: usize,
    poller: &'a Poller,
    wheel: &'a mut TimerWheel,
    routes: &'a mut HashMap<TimerId, (usize, u64)>,
    scratch: &'a mut Vec<u8>,
}

impl Cx<'_> {
    /// Arms a timer that fires `after` from the start of the current
    /// loop iteration, delivering `tag` to this node's
    /// [`Driven::on_timer`]. Timers never fire early; they may fire up to
    /// a wheel granularity (~1ms) late. The id is for [`Cx::cancel`].
    pub fn arm(&mut self, after: Duration, tag: u64) -> TimerId {
        let id = self.wheel.schedule_at(self.now + after);
        self.routes.insert(id, (self.node, tag));
        id
    }

    /// Cancels a timer this node armed; one that already fired, or was
    /// already cancelled, is left alone.
    pub fn cancel(&mut self, id: TimerId) {
        self.wheel.cancel(id);
        self.routes.remove(&id);
    }

    /// Watches `fd`, a nonblocking descriptor the node owns besides its
    /// own, for read and write readiness, edge-triggered: each edge calls
    /// [`Driven::on_watched`] with `key` (any value below `u32::MAX`).
    /// [`Cx::unwatch`] it before closing it.
    ///
    /// # Errors
    ///
    /// Propagates the poller's registration failure.
    pub fn watch(&mut self, fd: RawFd, key: u32) -> io::Result<()> {
        debug_assert!(key < u32::MAX, "watch keys stop below u32::MAX");
        self.poller.register_writable(fd, (u64::from(key) + 1) << 32 | self.node as u64)
    }

    /// Stops watching `fd`; one that was never watched is ignored.
    pub fn unwatch(&mut self, fd: RawFd) {
        let _ = self.poller.deregister(fd);
    }

    /// A worker-shared 64 KiB scratch buffer for reads. The
    /// contents are only valid until the borrow ends — copy out what
    /// must survive the dispatch.
    pub fn scratch(&mut self) -> &mut [u8] {
        self.scratch.as_mut_slice()
    }
}

/// The one message a worker's queue carries.
struct Stop;

struct WorkerHandle<D: Driven> {
    tx: mpsc::Sender<Stop>,
    waker: Arc<Waker>,
    join: JoinHandle<Vec<D::Output>>,
}

/// Runs a fleet of [`Driven`] node state machines across worker threads.
pub struct Reactor<D: Driven> {
    workers: Vec<WorkerHandle<D>>,
    node_count: usize,
}

impl<D: Driven> Reactor<D> {
    /// Partitions `nodes` round-robin across `workers` threads,
    /// registers every descriptor, and starts the readiness loops.
    /// `on_start` runs for each node (in local order) before its worker
    /// polls. An empty node list is fine — workers idle until
    /// [`Reactor::shutdown`].
    ///
    /// # Errors
    ///
    /// Propagates poller/waker creation and descriptor registration
    /// failures; no threads are left running on error.
    ///
    /// # Panics
    ///
    /// Panics when `workers` is zero.
    pub fn start(nodes: Vec<D>, workers: usize) -> io::Result<Reactor<D>> {
        Reactor::start_observed(nodes, workers, None)
    }

    /// [`Reactor::start`] with an instrumentation observer installed:
    /// every worker reports its scheduler-level events (poll waits,
    /// dispatch latencies, timer lag, turns) to `observer`, which
    /// is shared by all shards and called with the worker index. Passing
    /// `None` is exactly [`Reactor::start`] — the loop takes no extra
    /// clock readings when nobody listens.
    ///
    /// # Errors
    ///
    /// Propagates poller/waker creation and descriptor registration
    /// failures; no threads are left running on error.
    ///
    /// # Panics
    ///
    /// Panics when `workers` is zero.
    pub fn start_observed(
        nodes: Vec<D>,
        workers: usize,
        observer: Option<Arc<dyn ShardObserver>>,
    ) -> io::Result<Reactor<D>> {
        assert!(workers > 0, "a reactor needs at least one worker");

        // Partition round-robin: global index g -> worker g % workers,
        // local index g / workers (so global = worker + local * workers).
        let node_count = nodes.len();
        let mut shards: Vec<Vec<D>> = (0..workers).map(|_| Vec::new()).collect();
        for (global, node) in nodes.into_iter().enumerate() {
            shards[global % workers].push(node);
        }

        // Create pollers and register descriptors *before* spawning, so
        // setup failures surface as io::Error instead of thread panics.
        let mut prepared = Vec::with_capacity(workers);
        for shard in shards {
            let poller = Poller::new()?;
            let waker = Arc::new(Waker::new()?);
            poller.register(waker.fd(), WAKER_TOKEN)?;
            for (local, node) in shard.iter().enumerate() {
                poller.register(node.fd(), local as u64)?;
            }
            prepared.push((poller, waker, shard));
        }

        let mut handles = Vec::with_capacity(workers);
        for (index, (poller, waker, shard)) in prepared.into_iter().enumerate() {
            let (tx, rx) = mpsc::channel::<Stop>();
            let worker_waker = Arc::clone(&waker);
            let worker_observer = observer.clone();
            let join = std::thread::Builder::new()
                .name(format!("ltnc-reactor-{index}"))
                .spawn(move || {
                    worker_loop(poller, worker_waker, shard, &rx, index, worker_observer)
                })
                .expect("spawn reactor worker");
            handles.push(WorkerHandle { tx, waker, join });
        }
        Ok(Reactor { workers: handles, node_count })
    }

    /// Number of node state machines this reactor runs.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Stops every worker, runs the graceful shutdown sweep, and
    /// returns each node's [`Driven::finish`] output in the order the
    /// nodes were originally passed to [`Reactor::start`].
    ///
    /// # Panics
    ///
    /// Re-raises a worker thread's panic, if any.
    #[must_use]
    pub fn shutdown(self) -> Vec<D::Output> {
        for worker in &self.workers {
            // A worker that already panicked has dropped its receiver;
            // the failed send is fine — join below surfaces the panic.
            let _ = worker.tx.send(Stop);
            worker.waker.wake();
        }
        let worker_count = self.workers.len();
        let mut outputs: Vec<Option<D::Output>> = Vec::new();
        outputs.resize_with(self.node_count, || None);
        for (w, worker) in self.workers.into_iter().enumerate() {
            let locals = match worker.join.join() {
                Ok(locals) => locals,
                Err(panic) => std::panic::resume_unwind(panic),
            };
            for (local, output) in locals.into_iter().enumerate() {
                outputs[w + local * worker_count] = Some(output);
            }
        }
        outputs.into_iter().map(|slot| slot.expect("worker returned every node")).collect()
    }
}

/// What a worker's callbacks share: its poller, timers and scratch.
struct Worker {
    poller: Poller,
    wheel: TimerWheel,
    routes: HashMap<TimerId, (usize, u64)>,
    scratch: Vec<u8>,
}

impl Worker {
    fn cx(&mut self, now: Instant, node: usize) -> Cx<'_> {
        let (poller, wheel, routes) = (&self.poller, &mut self.wheel, &mut self.routes);
        Cx { now, node, poller, wheel, routes, scratch: &mut self.scratch }
    }
}

/// One worker's readiness loop; returns the finish outputs of its shard
/// in local order. `shard` is the worker index reported to `observer`;
/// with no observer installed the loop takes no instrumentation clock
/// readings at all.
fn worker_loop<D: Driven>(
    poller: Poller,
    waker: Arc<Waker>,
    mut nodes: Vec<D>,
    stop: &mpsc::Receiver<Stop>,
    shard: usize,
    observer: Option<Arc<dyn ShardObserver>>,
) -> Vec<D::Output> {
    let wheel = TimerWheel::new(WHEEL_GRANULARITY, WHEEL_SLOTS, Instant::now());
    let mut worker =
        Worker { poller, wheel, routes: HashMap::new(), scratch: vec![0u8; SCRATCH_LEN] };
    let mut events: Vec<Event> = Vec::new();

    let mut start_now = Instant::now();
    for (local, node) in nodes.iter_mut().enumerate() {
        node.on_start(&mut worker.cx(start_now, local));
        start_now = Instant::now();
    }

    // Checked every iteration — not only after a waker event — so a stop
    // racing a timer-bound wait is never delayed by a full poll cycle. A
    // dropped `Reactor` (no `shutdown()`: an early `?`, a panicking test)
    // disconnects the queue — stop, rather than tick on for the life of
    // the process.
    while let Err(mpsc::TryRecvError::Empty) = stop.try_recv() {
        let timeout = worker
            .wheel
            .next_deadline()
            .map_or(MAX_WAIT, |at| at.saturating_duration_since(Instant::now()));
        let poll_started = observer.as_ref().map(|_| Instant::now());
        worker.poller.wait(&mut events, Some(timeout)).expect("reactor poll failed");

        let now = Instant::now();
        if let (Some(obs), Some(started)) = (&observer, poll_started) {
            obs.poll_completed(shard, now.saturating_duration_since(started), events.len());
        }
        for event in &events {
            if event.token == WAKER_TOKEN {
                waker.drain();
                continue;
            }
            let local = (event.token & u64::from(u32::MAX)) as usize;
            let Some(node) = nodes.get_mut(local) else { continue };
            let cx = &mut worker.cx(now, local);
            let timed = observer.as_ref().map(|_| Instant::now());
            match (event.token >> 32).checked_sub(1) {
                None => node.on_readable(cx),
                Some(key) => node.on_watched(key as u32, cx),
            }
            if let (Some(obs), Some(started)) = (&observer, timed) {
                obs.dispatched(shard, Dispatch::Readable, started.elapsed());
            }
        }

        for (id, deadline) in worker.wheel.poll_expired(now) {
            let Some((local, tag)) = worker.routes.remove(&id) else { continue };
            if let Some(obs) = &observer {
                obs.timer_lag(shard, now.saturating_duration_since(deadline));
            }
            let timed = observer.as_ref().map(|_| Instant::now());
            nodes[local].on_timer(tag, &mut worker.cx(now, local));
            if let (Some(obs), Some(started)) = (&observer, timed) {
                obs.dispatched(shard, Dispatch::Timer, started.elapsed());
            }
        }
        if let Some(obs) = &observer {
            obs.turn_completed(shard, worker.wheel.len());
        }
    }

    // Graceful drain: one readiness-independent sweep so datagrams that
    // landed after the last poll still reach their state machines.
    let now = Instant::now();
    for (local, node) in nodes.iter_mut().enumerate() {
        node.on_readable(&mut worker.cx(now, local));
    }
    nodes.iter_mut().map(Driven::finish).collect()
}
