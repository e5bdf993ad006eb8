//! The std-only TCP server: an event-driven readiness loop over a
//! [`ShardRouter`], with admission control.
//!
//! ## One request path
//!
//! Every server routes against a [`ShardRouter`] of N shards × V views:
//! [`NetServer::bind`] and [`NetServer::bind_registry`] wrap their one
//! scheduler handle in [`ShardRouter::single`], [`NetServer::bind_sharded`]
//! takes the caller's router. A request is a fan-out of scheduler
//! tickets over the shards (and, for `Flush`, the views) it touches; a
//! single-view, single-shard server is the 1 × 1 case of the same
//! code, not a separate arm. What the router reports — `shards()`,
//! `views()`, whether it has a subscription hub or a WAL tail — is the
//! only thing that varies: with one shard a batch is not hashed, a read
//! is not merged, and a stale read is one `Arc` clone of the published
//! snapshot.
//!
//! ## Architecture
//!
//! One accept thread plus a fixed pool of worker threads
//! ([`NetServerConfig::workers`]), each running its own epoll instance
//! ([`crate::poller`]). Connections are dispatched round-robin; a
//! worker multiplexes its share of non-blocking sockets, so 10k+ open
//! connections cost 10k socket buffers — not 10k stacks. Each
//! connection is a small state machine:
//!
//! * a [`FrameBuffer`] accumulates whatever bytes `read` returns at
//!   readiness and yields complete, checksum-validated frames in place;
//! * requests are decoded **zero-copy** ([`crate::decode_request_ref`])
//!   straight out of that read buffer — a Submit batch allocates
//!   nothing until its rows are materialized for ingest;
//! * responses are appended to a write buffer and flushed on write
//!   readiness, never blocking the worker.
//!
//! Reads that must consult the scheduler (`Fresh`, `Flush`, `Metrics`)
//! do not park the worker either: the request becomes a *pending
//! ticket fan-out* ([`ServeHandle::begin_read`]) polled on the worker's
//! tick, and further frames from that connection wait (pipelining
//! stays ordered) while other connections keep being served.
//!
//! ## Admission control
//!
//! Three rejection points, all *before* any side effect:
//!
//! 1. **Connection cap** — past [`NetServerConfig::max_connections`]
//!    open connections, the handshake answers
//!    [`HandshakeStatus::Overloaded`] and closes. No frame is ever left
//!    half-written.
//! 2. **Queue high water** — a `Submit` arriving while a target
//!    shard's ingest queue sits at or above
//!    [`NetServerConfig::submit_high_water`] outstanding events is
//!    answered with [`ErrorCode::Overloaded`] without ingesting *any*
//!    of its batch, which is what makes client-side submit retries
//!    safe. Below the mark (or with the mark disabled), submits ride
//!    the event-weighted bounded queue; one that finds the queue at
//!    hard capacity is *parked* on its connection and re-offered each
//!    poll tick — the event-loop equivalent of blocking backpressure —
//!    until admitted or its deadline expires, in which case it too is
//!    answered `Overloaded`, still before any side effect.
//! 3. **Deadlines** — a pending read whose budget expires while queued
//!    behind a backlog is answered [`ErrorCode::DeadlineExceeded`]
//!    (typed, not torn).
//!
//! A corrupt inbound frame is answered with a best-effort
//! [`ErrorCode::BadRequest`] and the connection is closed — a byte
//! stream cannot be resynchronised past garbage, exactly like the WAL's
//! hard-corruption rule.
//!
//! ## Shutdown and drain
//!
//! [`NetServer::shutdown`] (and equivalently dropping the server —
//! `Drop` runs the identical sequence, so no thread is ever leaked)
//! proceeds in order:
//!
//! 1. the accept thread observes the stop flag within
//!    [`NetServerConfig::poll_interval`], stops accepting, and wakes
//!    every worker;
//! 2. workers stop parsing *new* frames, resolve every in-flight
//!    pending reply, and flush every write buffer — bounded by a
//!    [`DRAIN_GRACE`] grace period after which stragglers are closed;
//! 3. `shutdown` joins the workers, then the accept thread, before
//!    returning — so no reply is abandoned mid-write and every
//!    `ServeHandle` clone is dropped (a subsequent
//!    `ServeServer::shutdown` cannot hang on this server's handles).

use crate::frame::{
    decode_request_ref, put_response, ErrorCode, FrameBuffer, FrameError, HandshakeStatus,
    NetMetrics, RequestRef, Response, ShardMetricsRow, SubmitRef, ViewMetricsRow, WireReadResult,
    NET_MAGIC, NET_VERSION,
};
use crate::poller::{Event, Interest, Poller};
use aivm_engine::codec::put_frame;
use aivm_engine::{rows_checksum, Modification};
use aivm_serve::{
    ApplyTicket, FetchOutcome, MetricsTicket, MultiMetricsSnapshot, ReadMode, ReadResult,
    ReadTicket, RegistryHandle, ServeHandle, Ticket, TrySendError,
};
use aivm_shard::{merge_metrics, ShardRouter};
use std::collections::VecDeque;
use std::io::{ErrorKind, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of the TCP server.
#[derive(Clone, Debug)]
pub struct NetServerConfig {
    /// Hard cap on concurrently open connections; the cap'th + 1 client
    /// is rejected at the handshake with [`HandshakeStatus::Overloaded`].
    pub max_connections: usize,
    /// Reject `Submit` requests while the scheduler queue holds at
    /// least this many outstanding *events* (the queue charges capacity
    /// per modification, not per message). `None` disables the check;
    /// submits that find the queue at hard capacity are then parked on
    /// the connection and retried each poll tick until admitted or
    /// their deadline expires.
    pub submit_high_water: Option<usize>,
    /// Deadline applied to requests that carry none (`deadline_ms` 0).
    pub default_deadline: Duration,
    /// The tick at which workers poll pending scheduler replies, check
    /// deadlines, and (with the accept thread) observe shutdown.
    pub poll_interval: Duration,
    /// Event-loop worker threads. `0` sizes the pool from the machine's
    /// available parallelism (clamped to [2, 8]).
    pub workers: usize,
    /// Acknowledge a `Submit` only after the scheduler has *applied*
    /// the batch (and appended it to the WAL, when one is attached),
    /// instead of at enqueue. Slower — every submit takes a scheduler
    /// round-trip — but an acknowledged write then survives a leader
    /// crash, which is what the failover chaos experiments assert.
    pub durable_acks: bool,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            max_connections: 4096,
            submit_high_water: None,
            default_deadline: Duration::from_secs(5),
            poll_interval: Duration::from_millis(1),
            workers: 0,
            durable_acks: false,
        }
    }
}

impl NetServerConfig {
    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(2, 8)
    }
}

/// Network-layer counters, shared across workers.
#[derive(Default)]
struct NetStats {
    connections_active: AtomicU64,
    connections_total: AtomicU64,
    connections_rejected: AtomicU64,
    requests: AtomicU64,
    submitted_events: AtomicU64,
    overload_rejections: AtomicU64,
    deadline_rejections: AtomicU64,
}

/// Immutable context shared by the accept thread and every worker.
struct Shared {
    cfg: NetServerConfig,
    stop: Arc<AtomicBool>,
    stats: Arc<NetStats>,
    /// Admitted (cap-counted) connections currently open.
    open: AtomicUsize,
}

/// How long a drain may keep resolving in-flight replies and flushing
/// write buffers before stragglers are force-closed.
const DRAIN_GRACE: Duration = Duration::from_secs(1);

/// Pause reading a connection whose write buffer backs up past this
/// (the peer is not draining replies); resume below it.
const WBUF_HIGH: usize = 256 * 1024;

/// Delta batches pushed per subscription per worker tick, bounding one
/// pump pass's frame burst (the rest follow next tick).
const MAX_PUSH_BATCHES: usize = 16;

/// How long an over-cap connection may dawdle before its handshake
/// arrives; past this it is closed without the courtesy reply.
const REJECT_HELLO_CUTOFF: Duration = Duration::from_millis(250);

/// A running TCP server. [`NetServer::shutdown`] stops and drains it;
/// dropping it without calling `shutdown` performs the *same* full
/// drain (no thread outlives the value).
pub struct NetServer {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept_join: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) over one single-view
    /// scheduler and starts accepting. A single view is a registry of
    /// one, so everything [`NetServer::bind_registry`] serves is served
    /// here for view 0, push subscriptions included.
    ///
    /// `n_tables` is the view's base-table count, used to reject
    /// out-of-range `Submit.table` values as [`ErrorCode::BadRequest`]
    /// before they reach the scheduler.
    pub fn bind(
        addr: impl ToSocketAddrs,
        handle: ServeHandle,
        n_tables: usize,
        cfg: NetServerConfig,
    ) -> std::io::Result<NetServer> {
        NetServer::bind_sharded(addr, ShardRouter::single(handle, n_tables), cfg)
    }

    /// Binds a *multi-view registry* server: submits target the
    /// registry's global base-table axis, reads and subscriptions name
    /// a view id, metrics carry per-view rows, and workers push
    /// seq-tagged delta batches to subscribed connections at every
    /// flush boundary (see [`Request::Subscribe`]).
    ///
    /// [`Request::Subscribe`]: crate::Request::Subscribe
    pub fn bind_registry(
        addr: impl ToSocketAddrs,
        handle: RegistryHandle,
        cfg: NetServerConfig,
    ) -> std::io::Result<NetServer> {
        let n_tables = handle.tables();
        NetServer::bind_sharded(addr, ShardRouter::single(handle, n_tables), cfg)
    }

    /// Binds a server over the caller's router: submits hash to their
    /// owning shard, stale reads scatter-gather the per-shard
    /// snapshots, fresh reads and flushes fan out, and metrics
    /// aggregate across shards. The router carries the partitioner,
    /// merge plan and per-shard handles; the caller typically also
    /// spawns an [`aivm_shard::Coordinator`] over a clone of the same
    /// router so budget rebalancing and serving observe the same shard
    /// liveness.
    pub fn bind_sharded(
        addr: impl ToSocketAddrs,
        router: ShardRouter,
        cfg: NetServerConfig,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            cfg,
            stop: Arc::clone(&stop),
            stats: Arc::new(NetStats::default()),
            open: AtomicUsize::new(0),
        });
        let accept_join = std::thread::Builder::new()
            .name("aivm-net-accept".into())
            .spawn(move || accept_loop(listener, router, shared))?;
        Ok(NetServer {
            addr: local,
            stop,
            accept_join: Some(accept_join),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stops accepting, drains every open connection (pending replies
    /// resolved, write buffers flushed, bounded by [`DRAIN_GRACE`]),
    /// and joins every thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(j) = self.accept_join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// A connection freshly accepted, on its way to a worker.
struct NewConn {
    stream: TcpStream,
    /// Counted against the connection cap. Non-admitted connections get
    /// a handshake-level `Overloaded` reply and are closed.
    admitted: bool,
}

/// The accept thread's view of one worker.
struct WorkerHandle {
    inbox: Arc<Mutex<VecDeque<NewConn>>>,
    /// Writing a byte wakes the worker's poller.
    wake_tx: UnixStream,
    join: JoinHandle<()>,
}

fn wake(handle: &WorkerHandle) {
    // Best-effort: a full pipe already guarantees a pending wakeup.
    let _ = (&handle.wake_tx).write(&[1]);
}

fn accept_loop(listener: TcpListener, router: ShardRouter, shared: Arc<Shared>) {
    let n_workers = shared.cfg.effective_workers();
    let mut workers = Vec::with_capacity(n_workers);
    for i in 0..n_workers {
        match spawn_worker(i, router.clone(), Arc::clone(&shared)) {
            Ok(w) => workers.push(w),
            Err(_) if !workers.is_empty() => break, // run with fewer
            Err(_) => return,                       // cannot serve at all
        }
    }
    drop(router);

    let poller = match Poller::new() {
        Ok(p) => p,
        Err(_) => return,
    };
    let _ = poller.add(listener.as_raw_fd(), 0, Interest::READ);
    let tick = shared.cfg.poll_interval.max(Duration::from_millis(1));
    let mut events = Vec::new();
    let mut rr = 0usize;
    while !shared.stop.load(Ordering::SeqCst) {
        let _ = poller.wait(&mut events, Some(tick));
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    shared
                        .stats
                        .connections_total
                        .fetch_add(1, Ordering::Relaxed);
                    let cap = shared.cfg.max_connections.max(1);
                    // Reserve a cap slot optimistically; workers release
                    // it when the connection closes.
                    let admitted = shared.open.fetch_add(1, Ordering::SeqCst) < cap;
                    if !admitted {
                        shared.open.fetch_sub(1, Ordering::SeqCst);
                        shared
                            .stats
                            .connections_rejected
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    let w = &workers[rr % workers.len()];
                    rr = rr.wrapping_add(1);
                    w.inbox
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push_back(NewConn { stream, admitted });
                    wake(w);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }
    drop(listener);
    for w in &workers {
        wake(w);
    }
    for w in workers {
        let _ = w.join.join();
    }
}

fn spawn_worker(
    index: usize,
    router: ShardRouter,
    shared: Arc<Shared>,
) -> std::io::Result<WorkerHandle> {
    let inbox: Arc<Mutex<VecDeque<NewConn>>> = Arc::new(Mutex::new(VecDeque::new()));
    let (wake_tx, wake_rx) = UnixStream::pair()?;
    wake_tx.set_nonblocking(true)?;
    wake_rx.set_nonblocking(true)?;
    let poller = Poller::new()?;
    poller.add(wake_rx.as_raw_fd(), WAKE_TOKEN, Interest::READ)?;
    let worker_inbox = Arc::clone(&inbox);
    let join = std::thread::Builder::new()
        .name(format!("aivm-net-worker-{index}"))
        .spawn(move || {
            Worker {
                shared,
                router,
                poller,
                wake_rx,
                inbox: worker_inbox,
                conns: Vec::new(),
                free: Vec::new(),
            }
            .run()
        })?;
    Ok(WorkerHandle {
        inbox,
        wake_tx,
        join,
    })
}

const WAKE_TOKEN: u64 = 0;

fn token_of(slot: usize) -> u64 {
    slot as u64 + 1
}

fn slot_of(token: u64) -> usize {
    (token - 1) as usize
}

/// Where a connection is in its lifecycle.
#[derive(PartialEq, Eq)]
enum Phase {
    /// Waiting for the fixed-size client hello.
    Hello,
    /// Handshake done; frames flow.
    Active,
}

/// A scheduler round-trip in flight for one connection: a fan-out of
/// tickets over the shards (and views) the request touches. While one
/// is pending the connection's later frames stay buffered (pipelining
/// order), but every *other* connection keeps being served.
enum Pending {
    Submit(SubmitState),
    /// A read of one view: per-shard results gather here as tickets
    /// resolve; the reply merges them once the last one lands. A shard
    /// dying mid-flight is skipped and flags the merged result degraded
    /// rather than failing the read.
    Read {
        /// Outstanding `(shard, ticket)` pairs.
        tickets: Vec<(usize, ReadTicket)>,
        /// Results gathered so far.
        results: Vec<ReadResult>,
        degraded: bool,
        fresh: bool,
        want_rows: bool,
        started: Instant,
        deadline: Duration,
    },
    /// One fresh read per (shard × view), reduced to a single
    /// `FlushOk`. Within a shard the costs add up (views of one sharing
    /// group drain together: the first member pays, the rest see zero
    /// pending); across shards the flushes run in parallel, each under
    /// its own budget, so the reply carries the dearest shard.
    Flush {
        tickets: Vec<(usize, ReadTicket)>,
        /// `(shard, flush cost)` of every read that answered.
        costs: Vec<(usize, f64)>,
        violated: bool,
        started: Instant,
        deadline: Duration,
    },
    /// Metrics fanned out across shards; merged once every live shard
    /// answered (dead ones are skipped).
    Metrics {
        tickets: Vec<(usize, MetricsTicket)>,
        snaps: Vec<(usize, MultiMetricsSnapshot)>,
        per_shard: bool,
        per_view: bool,
        started: Instant,
        deadline: Duration,
    },
}

/// A submit in flight. Sub-batches the ingest queues had no room for
/// park here — the event-loop equivalent of blocking backpressure — and
/// re-attempt admission every tick, replying `SubmitOk` the moment
/// capacity frees: the client waits on its reply instead of sleeping
/// through a retry backoff. While nothing is enqueued, expiring the
/// deadline into an `Overloaded` rejection stays side-effect free and
/// retry-safe. Once *any* sub-batch is admitted the request has had a
/// side effect; from then on a failure resolves to `Internal` (not
/// retry-safe) instead of the pre-admission
/// `Overloaded`/`ShardUnavailable`/`StaleEpoch` rejections.
struct SubmitState {
    table: usize,
    /// The fencing epoch the submit was stamped with (0 skips the
    /// check). Re-verified on every parked re-attempt: a failover
    /// while the submit waits on a full queue must still fence it.
    epoch: u64,
    /// Per-shard sub-batches still awaiting admission.
    parts: Vec<(usize, Vec<Modification>)>,
    /// Events admitted so far (across already-admitted sub-batches).
    accepted: u64,
    /// Sub-batch count at split time, for error messages.
    total: usize,
    /// With [`NetServerConfig::durable_acks`]: apply tickets of the
    /// sub-batches already admitted; the reply waits for every one —
    /// for the schedulers to apply (and WAL-append) the batch, not just
    /// enqueue it.
    tickets: Vec<(usize, ApplyTicket)>,
    started: Instant,
    deadline: Duration,
}

/// One live push subscription held by a connection: the next delta seq
/// this subscriber expects for its view.
struct SubState {
    view: u32,
    next_seq: u64,
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    rbuf: FrameBuffer,
    wbuf: Vec<u8>,
    /// Bytes of `wbuf` already written to the socket.
    wpos: usize,
    phase: Phase,
    admitted: bool,
    opened: Instant,
    /// Finish flushing `wbuf`, then close (handshake rejections,
    /// post-corrupt error replies, drain).
    close_after_flush: bool,
    pending: Option<Pending>,
    /// Live push subscriptions (routers with a hub only). The worker's
    /// tick pumps hub deltas into `wbuf` for each entry, bounded by
    /// [`WBUF_HIGH`].
    subs: Vec<SubState>,
    /// Interest currently registered with the poller.
    registered: Interest,
    /// Marked for removal at the end of the current dispatch.
    dead: bool,
}

impl Conn {
    fn wbuf_len(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// The interest this connection should be registered for right now:
    /// read while it may parse (no pending reply, no backed-up write
    /// buffer), write while bytes wait to flush.
    fn desired_interest(&self) -> Interest {
        Interest {
            readable: self.pending.is_none()
                && !self.close_after_flush
                && self.wbuf_len() < WBUF_HIGH,
            writable: self.wbuf_len() > 0,
        }
    }
}

struct Worker {
    shared: Arc<Shared>,
    router: ShardRouter,
    poller: Poller,
    wake_rx: UnixStream,
    inbox: Arc<Mutex<VecDeque<NewConn>>>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
}

impl Worker {
    fn run(mut self) {
        let tick = self.shared.cfg.poll_interval.max(Duration::from_millis(1));
        // A parked submit is waiting for the scheduler to drain the
        // ingest queue, which happens on the scheduler's own
        // (sub-)millisecond cadence — retrying it on the full tick
        // would make the retry tick the ingest ceiling for small client
        // counts. Reads park on scheduler *replies* that take a tick to
        // produce anyway, so they keep the coarser cadence.
        let submit_tick = tick.min(Duration::from_micros(500));
        let mut events: Vec<Event> = Vec::new();
        let mut drain_started: Option<Instant> = None;
        loop {
            let stopping = self.shared.stop.load(Ordering::SeqCst);
            if stopping && drain_started.is_none() {
                drain_started = Some(Instant::now());
                self.begin_drain();
            }
            let timeout = if self.has_parked_submit() {
                submit_tick
            } else if stopping || self.needs_tick() {
                tick
            } else {
                Duration::from_millis(200)
            };
            let _ = self.poller.wait(&mut events, Some(timeout));
            for &ev in &events {
                if ev.token == WAKE_TOKEN {
                    self.drain_wake();
                } else {
                    self.dispatch(slot_of(ev.token), ev);
                }
            }
            self.admit_new(stopping || drain_started.is_some());
            self.poll_pendings();
            self.pump_subscriptions();
            self.sweep_reject_cutoffs();
            if let Some(t0) = drain_started {
                let force = t0.elapsed() >= DRAIN_GRACE;
                self.drain_step(force);
                if self.conns.iter().all(Option::is_none) {
                    break;
                }
            }
        }
    }

    /// True when some connection needs timer-driven progress (pending
    /// scheduler replies, live subscriptions to pump, over-cap
    /// handshake cutoffs).
    fn needs_tick(&self) -> bool {
        self.conns.iter().flatten().any(|c| {
            c.pending.is_some() || !c.subs.is_empty() || (!c.admitted && c.phase == Phase::Hello)
        })
    }

    /// True when some connection holds a submit parked on a full ingest
    /// queue — the one pending kind whose progress is gated purely on
    /// this worker re-offering it.
    fn has_parked_submit(&self) -> bool {
        self.conns
            .iter()
            .flatten()
            .any(|c| matches!(c.pending, Some(Pending::Submit(_))))
    }

    fn drain_wake(&mut self) {
        let mut sink = [0u8; 64];
        while matches!(std::io::Read::read(&mut &self.wake_rx, &mut sink), Ok(n) if n > 0) {}
    }

    /// Moves freshly dispatched connections from the inbox into slots.
    /// During a drain new connections are closed unserved.
    fn admit_new(&mut self, draining: bool) {
        loop {
            let new = self
                .inbox
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop_front();
            let Some(new) = new else { break };
            if draining {
                if new.admitted {
                    self.shared.open.fetch_sub(1, Ordering::SeqCst);
                }
                continue; // stream drops → closed
            }
            let _ = new.stream.set_nonblocking(true);
            let _ = new.stream.set_nodelay(true);
            let slot = self.free.pop().unwrap_or_else(|| {
                self.conns.push(None);
                self.conns.len() - 1
            });
            let registered = Interest::READ;
            if self
                .poller
                .add(new.stream.as_raw_fd(), token_of(slot), registered)
                .is_err()
            {
                if new.admitted {
                    self.shared.open.fetch_sub(1, Ordering::SeqCst);
                }
                self.free.push(slot);
                continue;
            }
            if new.admitted {
                self.shared
                    .stats
                    .connections_active
                    .fetch_add(1, Ordering::Relaxed);
            }
            self.conns[slot] = Some(Conn {
                stream: new.stream,
                rbuf: FrameBuffer::new(),
                wbuf: Vec::new(),
                wpos: 0,
                phase: Phase::Hello,
                admitted: new.admitted,
                opened: Instant::now(),
                close_after_flush: false,
                pending: None,
                subs: Vec::new(),
                registered,
                dead: false,
            });
            // The hello may already be buffered in the kernel; the
            // level-triggered poller would tell us, but serving it now
            // saves a tick.
            self.dispatch(
                slot,
                Event {
                    token: token_of(slot),
                    readable: true,
                    writable: false,
                    closed: false,
                },
            );
        }
    }

    /// Handles one readiness event for one connection.
    fn dispatch(&mut self, slot: usize, ev: Event) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if ev.readable {
            handle_readable(&self.shared, &self.router, conn);
        }
        if ev.writable {
            flush_wbuf(conn);
        }
        if ev.closed && !ev.readable {
            conn.dead = true;
        }
        self.finish_dispatch(slot);
    }

    /// Applies the outcome of any mutation pass: close dead connections,
    /// re-register interest for live ones.
    fn finish_dispatch(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.dead {
            self.close(slot);
            return;
        }
        let desired = conn.desired_interest();
        if desired != conn.registered
            && self
                .poller
                .modify(conn.stream.as_raw_fd(), token_of(slot), desired)
                .is_ok()
        {
            conn.registered = desired;
        }
    }

    /// Polls every in-flight scheduler ticket; a resolved one queues its
    /// response and lets the connection resume parsing buffered frames.
    fn poll_pendings(&mut self) {
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            if conn.pending.is_none() {
                continue;
            }
            if poll_pending(&self.shared, &self.router, conn) {
                // Resolved: frames that queued up behind the pending
                // reply parse now, without waiting for new readability.
                process(&self.shared, &self.router, conn);
                flush_wbuf(conn);
                self.finish_dispatch(slot);
            }
        }
    }

    /// Pushes new hub delta batches to every subscribed connection
    /// (routers with a hub only). The per-subscriber buffer is the
    /// connection's write buffer, bounded by [`WBUF_HIGH`]: a peer that
    /// stops draining its socket stops receiving pushes, the hub's
    /// bounded ring absorbs the backlog, and once the position falls
    /// off the ring the subscriber is resynced from the snapshot — the
    /// flush path never waits on a slow subscriber.
    fn pump_subscriptions(&mut self) {
        let Some(hub) = self.router.hub().cloned() else {
            return;
        };
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            if conn.subs.is_empty() || conn.dead || conn.close_after_flush {
                continue;
            }
            let mut queued = false;
            for i in 0..conn.subs.len() {
                if conn.wbuf_len() >= WBUF_HIGH {
                    break;
                }
                let (sub_view, mut next_seq) = (conn.subs[i].view, conn.subs[i].next_seq);
                let view = sub_view as usize;
                let head = hub.head_seq(view);
                if head >= next_seq {
                    hub.note_lag(view, head - next_seq + 1);
                }
                match hub.fetch(view, next_seq, MAX_PUSH_BATCHES) {
                    FetchOutcome::AtHead => {}
                    FetchOutcome::Deltas(batches) => {
                        for b in batches {
                            queue_response(
                                conn,
                                &Response::ViewDelta {
                                    view: b.view,
                                    seq: b.seq,
                                    checksum: b.checksum,
                                    staleness: b.staleness,
                                    rows: b.rows.clone(),
                                },
                            );
                            next_seq = b.seq + 1;
                            queued = true;
                        }
                    }
                    FetchOutcome::Resync(snap) => {
                        queue_response(
                            conn,
                            &Response::SubscribeOk {
                                view: sub_view,
                                seq: snap.seq,
                                resync: true,
                                checksum: snap.checksum,
                                rows: snap.rows.clone(),
                            },
                        );
                        next_seq = snap.seq + 1;
                        queued = true;
                    }
                }
                conn.subs[i].next_seq = next_seq;
            }
            if queued {
                flush_wbuf(conn);
                self.finish_dispatch(slot);
            }
        }
    }

    /// Closes over-cap connections whose hello never arrived.
    fn sweep_reject_cutoffs(&mut self) {
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            if !conn.admitted
                && conn.phase == Phase::Hello
                && conn.opened.elapsed() >= REJECT_HELLO_CUTOFF
            {
                conn.dead = true;
                self.finish_dispatch(slot);
            }
        }
    }

    /// Entering shutdown: no new frames are parsed; in-flight pendings
    /// and unflushed replies get the grace period.
    fn begin_drain(&mut self) {
        for slot in 0..self.conns.len() {
            if let Some(conn) = self.conns[slot].as_mut() {
                conn.close_after_flush = true;
                self.finish_dispatch(slot);
            }
        }
    }

    /// One drain iteration: flush what can flush, close what is done —
    /// or everything, once the grace period lapsed.
    fn drain_step(&mut self, force: bool) {
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            flush_wbuf(conn);
            if force || (conn.pending.is_none() && conn.wbuf_len() == 0) {
                conn.dead = true;
            }
            self.finish_dispatch(slot);
        }
    }

    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            if let Some(hub) = self.router.hub() {
                for s in &conn.subs {
                    hub.subscriber_closed(s.view as usize);
                }
            }
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            if conn.admitted {
                self.shared.open.fetch_sub(1, Ordering::SeqCst);
                self.shared
                    .stats
                    .connections_active
                    .fetch_sub(1, Ordering::Relaxed);
            }
            self.free.push(slot);
        }
    }
}

/// Reads until `WouldBlock`/EOF, parsing as bytes land. Bounded passes
/// per event so one firehose connection cannot starve its worker.
fn handle_readable(shared: &Shared, router: &ShardRouter, conn: &mut Conn) {
    for _ in 0..8 {
        if conn.dead
            || conn.pending.is_some()
            || conn.close_after_flush
            || conn.wbuf_len() >= WBUF_HIGH
        {
            break;
        }
        match conn.rbuf.fill_from(&mut conn.stream) {
            // EOF. Clean at a frame boundary, torn mid-frame — either
            // way the peer is gone and no reply can land: close.
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(_) => process(shared, router, conn),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    flush_wbuf(conn);
}

/// Parses everything currently buffered: the handshake, then frames
/// until the buffer runs dry, a scheduler round-trip starts, or the
/// stream turns corrupt.
fn process(shared: &Shared, router: &ShardRouter, conn: &mut Conn) {
    if conn.phase == Phase::Hello && !handle_hello(conn) {
        return;
    }
    while conn.phase == Phase::Active
        && !conn.dead
        && conn.pending.is_none()
        && !conn.close_after_flush
        && conn.wbuf_len() < WBUF_HIGH
    {
        match conn.rbuf.next_frame() {
            Ok(None) => break,
            Ok(Some(range)) => {
                shared.stats.requests.fetch_add(1, Ordering::Relaxed);
                let outcome = {
                    let payload = conn.rbuf.payload(range);
                    handle_frame(shared, router, payload)
                };
                match outcome {
                    FrameOutcome::Reply(resp) => queue_response(conn, &resp),
                    FrameOutcome::Wait(p) => conn.pending = Some(p),
                    FrameOutcome::Subscribe {
                        view,
                        next_seq,
                        reply,
                    } => {
                        match conn.subs.iter_mut().find(|s| s.view == view) {
                            // Re-subscribing an already-subscribed view
                            // repositions it (no double bookkeeping).
                            Some(s) => s.next_seq = next_seq,
                            None => {
                                conn.subs.push(SubState { view, next_seq });
                                if let Some(hub) = router.hub() {
                                    hub.subscriber_opened(view as usize);
                                }
                            }
                        }
                        queue_response(conn, &reply);
                    }
                    FrameOutcome::Unsubscribe { view, reply } => {
                        if let Some(pos) = conn.subs.iter().position(|s| s.view == view) {
                            conn.subs.swap_remove(pos);
                            if let Some(hub) = router.hub() {
                                hub.subscriber_closed(view as usize);
                            }
                        }
                        queue_response(conn, &reply);
                    }
                    FrameOutcome::Corrupt(err) => {
                        corrupt_teardown(conn, &err);
                        return;
                    }
                }
            }
            Err(FrameError::Corrupt(err)) => {
                corrupt_teardown(conn, &err);
                return;
            }
            // next_frame never yields Closed/Io; treat defensively.
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

/// A corrupt stream cannot be resynchronised: answer with a typed
/// error (best-effort) and close once it flushes.
fn corrupt_teardown(conn: &mut Conn, err: &aivm_engine::EngineError) {
    queue_response(
        conn,
        &Response::Error {
            code: ErrorCode::BadRequest,
            message: format!("undecodable request: {err}"),
        },
    );
    conn.close_after_flush = true;
}

/// Consumes the 6-byte hello once buffered. Returns true when the
/// connection moved to `Active`.
fn handle_hello(conn: &mut Conn) -> bool {
    let Some(hello) = conn.rbuf.take(6) else {
        return false;
    };
    let mut fixed = [0u8; 6];
    fixed.copy_from_slice(hello);
    if &fixed[..4] != NET_MAGIC {
        // Not our protocol: close silently (same as the blocking
        // server's failed read_hello).
        conn.dead = true;
        return false;
    }
    let version = u16::from_le_bytes([fixed[4], fixed[5]]);
    let status = if !conn.admitted {
        HandshakeStatus::Overloaded
    } else if version == NET_VERSION {
        HandshakeStatus::Ok
    } else {
        HandshakeStatus::VersionMismatch
    };
    conn.wbuf.extend_from_slice(NET_MAGIC);
    conn.wbuf.extend_from_slice(&NET_VERSION.to_le_bytes());
    conn.wbuf.push(match status {
        HandshakeStatus::Ok => 0,
        HandshakeStatus::Overloaded => 1,
        HandshakeStatus::VersionMismatch => 2,
    });
    if status == HandshakeStatus::Ok {
        conn.phase = Phase::Active;
        true
    } else {
        conn.close_after_flush = true;
        false
    }
}

/// What one decoded frame turns into.
enum FrameOutcome {
    /// Answer immediately.
    Reply(Response),
    /// A scheduler round-trip started; poll the tickets.
    Wait(Pending),
    /// Register a push subscription on the connection (the position is
    /// already resolved), then answer.
    Subscribe {
        view: u32,
        next_seq: u64,
        reply: Response,
    },
    /// Drop a push subscription from the connection, then answer.
    Unsubscribe { view: u32, reply: Response },
    /// Undecodable payload below the frame checksum: drop the
    /// connection after a best-effort error reply.
    Corrupt(aivm_engine::EngineError),
}

/// The request's remaining deadline budget (`deadline_ms` 0 falls back
/// to the configured default).
fn deadline_of(deadline_ms: u32, cfg: &NetServerConfig) -> Duration {
    if deadline_ms == 0 {
        cfg.default_deadline
    } else {
        Duration::from_millis(u64::from(deadline_ms))
    }
}

fn handle_frame(shared: &Shared, router: &ShardRouter, payload: &[u8]) -> FrameOutcome {
    let frame = match decode_request_ref(payload) {
        Ok(f) => f,
        Err(err) => return FrameOutcome::Corrupt(err),
    };
    let deadline = deadline_of(frame.deadline_ms, &shared.cfg);
    match frame.request {
        RequestRef::Ping => FrameOutcome::Reply(Response::Pong),
        RequestRef::Submit(s) => submit(shared, router, s, deadline),
        RequestRef::Read {
            view,
            fresh,
            want_rows,
        } => begin_read(router, view, fresh, want_rows, deadline),
        RequestRef::Flush => begin_flush(router, deadline),
        RequestRef::Metrics {
            per_shard,
            per_view,
        } => {
            let tickets = fan_out(router, |h| h.begin_metrics().map(|t| vec![t]));
            if tickets.is_empty() {
                return FrameOutcome::Reply(unavailable(router));
            }
            FrameOutcome::Wait(Pending::Metrics {
                tickets,
                snaps: Vec::new(),
                per_shard,
                per_view,
                started: Instant::now(),
                deadline,
            })
        }
        RequestRef::ReplicaSubscribe { shard, from_record } => {
            FrameOutcome::Reply(replica_subscribe(router, shard, from_record))
        }
        RequestRef::Subscribe { view, from_seq } => subscribe(router, view, from_seq),
        RequestRef::Unsubscribe { view } => {
            if router.hub().is_none() {
                return FrameOutcome::Reply(no_subscriptions());
            }
            if (view as usize) >= router.views() {
                return FrameOutcome::Reply(bad_view(view, router.views()));
            }
            // The ack is a plain Pong: by the time it is queued, no
            // further ViewDelta for this view follows it on the wire.
            FrameOutcome::Unsubscribe {
                view,
                reply: Response::Pong,
            }
        }
    }
}

/// Starts one scheduler request per live shard (`begin` may start
/// several, e.g. one per view) and returns the `(shard, ticket)` pairs
/// to poll. A shard that refuses a ticket is marked dead; dead shards
/// contribute nothing, so an empty result means no shard can answer.
fn fan_out<T>(
    router: &ShardRouter,
    begin: impl Fn(&ServeHandle) -> Option<Vec<Ticket<T>>>,
) -> Vec<(usize, Ticket<T>)> {
    let mut tickets = Vec::new();
    for shard in 0..router.shards() {
        match router.with_handle(shard, &begin) {
            Some(Some(started)) => tickets.extend(started.into_iter().map(|t| (shard, t))),
            Some(None) => router.mark_dead(shard),
            None => {}
        }
    }
    tickets
}

/// Polls every outstanding ticket of a fan-out once. A reply retires
/// its ticket and is handed to `on(shard, Some(reply))`; a shard whose
/// scheduler died mid-flight is marked dead, *all* its tickets are
/// retired, and `on(shard, None)` tells the caller to forget what that
/// shard had contributed.
fn poll_fan_out<T>(
    router: &ShardRouter,
    tickets: &mut Vec<(usize, Ticket<T>)>,
    mut on: impl FnMut(usize, Option<T>),
) {
    let mut i = 0;
    while i < tickets.len() {
        let shard = tickets[i].0;
        match tickets[i].1.try_take() {
            Ok(Some(reply)) => {
                tickets.swap_remove(i);
                on(shard, Some(reply));
            }
            Ok(None) => i += 1,
            Err(_) => {
                router.mark_dead(shard);
                tickets.retain(|(s, _)| *s != shard);
                on(shard, None);
                // Positions shifted; re-polling a ticket that was not
                // ready a moment ago is harmless.
                i = 0;
            }
        }
    }
}

/// The rejection for view-targeted requests naming a view the router
/// does not have (a single-view server only has view 0).
fn bad_view(view: u32, views: usize) -> Response {
    Response::Error {
        code: ErrorCode::BadRequest,
        message: format!("view {view} out of range ({views} views)"),
    }
}

/// The rejection for `Subscribe`/`Unsubscribe` on a router without a
/// subscription hub (several shards, or a runtime without an engine).
fn no_subscriptions() -> Response {
    Response::Error {
        code: ErrorCode::BadRequest,
        message: "push subscriptions require a single-shard server with an engine".into(),
    }
}

/// Starts a read of one view on every shard.
///
/// A stale read takes each shard's published flush-boundary snapshot —
/// no scheduler round-trip, wait-free with respect to maintenance — and
/// goes through a scheduler only where none is published (model
/// backends). A fresh read is one ticket per shard.
fn begin_read(
    router: &ShardRouter,
    view: u32,
    fresh: bool,
    want_rows: bool,
    deadline: Duration,
) -> FrameOutcome {
    let v = view as usize;
    if v >= router.views() {
        return FrameOutcome::Reply(bad_view(view, router.views()));
    }
    if !fresh && router.shards() == 1 {
        // One shard: its snapshot *is* the answer. One `Arc` clone, the
        // checksum is precomputed, and rows are cloned only when the
        // client asked for them.
        let snap = router.with_handle(0, |h| h.snapshot_view_for_read(v));
        if let Some(snap) = snap.flatten() {
            return FrameOutcome::Reply(Response::ReadOk(WireReadResult {
                fresh: false,
                lag: snap.lag(),
                flush_cost: 0.0,
                violated: false,
                degraded: false,
                checksum: snap.checksum,
                rows: want_rows.then(|| snap.rows.clone()),
            }));
        }
    }
    enum Leg {
        Done(ReadResult),
        Wait(ReadTicket),
        Gone,
    }
    let mode = if fresh {
        ReadMode::Fresh
    } else {
        ReadMode::Stale
    };
    let mut tickets = Vec::new();
    let mut results = Vec::new();
    let mut degraded = false;
    for shard in 0..router.shards() {
        let leg = router.with_handle(shard, |h| {
            if let Some(snap) = (!fresh).then(|| h.snapshot_view_for_read(v)).flatten() {
                return Leg::Done(ReadResult {
                    rows: Some(snap.rows.clone()),
                    lag: snap.lag(),
                    flush_cost: 0.0,
                    violated: false,
                });
            }
            h.begin_read(v, mode).map_or(Leg::Gone, Leg::Wait)
        });
        match leg {
            Some(Leg::Done(r)) => results.push(r),
            Some(Leg::Wait(t)) => tickets.push((shard, t)),
            Some(Leg::Gone) => {
                router.mark_dead(shard);
                degraded = true;
            }
            None => degraded = true,
        }
    }
    if tickets.is_empty() {
        return FrameOutcome::Reply(finish_read(router, results, degraded, fresh, want_rows));
    }
    FrameOutcome::Wait(Pending::Read {
        tickets,
        results,
        degraded,
        fresh,
        want_rows,
        started: Instant::now(),
        deadline,
    })
}

/// Turns the gathered per-shard results into the read reply. With one
/// shard its result is the reply as it stands; with several, rows are
/// re-aggregated by the router's merge plan, lags add up, and the
/// dearest per-shard flush is reported (each is individually bounded by
/// that shard's budget).
fn finish_read(
    router: &ShardRouter,
    mut results: Vec<ReadResult>,
    degraded: bool,
    fresh: bool,
    want_rows: bool,
) -> Response {
    if results.is_empty() {
        return unavailable(router);
    }
    if router.shards() == 1 {
        let r = results.swap_remove(0);
        return Response::ReadOk(WireReadResult {
            fresh,
            lag: r.lag,
            flush_cost: r.flush_cost,
            violated: r.violated,
            degraded: false,
            checksum: r.rows.as_deref().map(rows_checksum).unwrap_or(0),
            rows: if want_rows { r.rows } else { None },
        });
    }
    match router.merge_reads(&results) {
        Ok(m) => Response::ReadOk(WireReadResult {
            fresh,
            lag: m.lag,
            flush_cost: m.flush_cost,
            violated: m.violated,
            degraded,
            checksum: m.checksum,
            rows: want_rows.then_some(m.rows),
        }),
        Err(err) => Response::Error {
            code: ErrorCode::Internal,
            message: format!("shard merge failed: {err}"),
        },
    }
}

/// Starts a flush: one fresh read per (shard × view).
fn begin_flush(router: &ShardRouter, deadline: Duration) -> FrameOutcome {
    let tickets = fan_out(router, |h| {
        (0..router.views())
            .map(|v| h.begin_read(v, ReadMode::Fresh))
            .collect()
    });
    if tickets.is_empty() {
        return FrameOutcome::Reply(unavailable(router));
    }
    FrameOutcome::Wait(Pending::Flush {
        tickets,
        costs: Vec::new(),
        violated: false,
        started: Instant::now(),
        deadline,
    })
}

/// Resolves a `Subscribe` request to its starting position and reply.
///
/// * `from_seq == u64::MAX` — start from the current snapshot: the
///   reply is a resync carrying the full materialized rows.
/// * `from_seq` still on the hub's delta ring — a resume-ack: the
///   reply carries no rows and the pump pushes `ViewDelta` frames from
///   exactly `from_seq` (no gap, no duplicate).
/// * `from_seq` off the ring — the subscriber is too far behind (or
///   from a previous incarnation): degrade to a snapshot resync
///   instead of an error.
fn subscribe(router: &ShardRouter, view: u32, from_seq: u64) -> FrameOutcome {
    let Some(hub) = router.hub() else {
        return FrameOutcome::Reply(no_subscriptions());
    };
    let v = view as usize;
    if v >= router.views() {
        return FrameOutcome::Reply(bad_view(view, router.views()));
    }
    let resync = |snap: &aivm_engine::ViewSnapshot| FrameOutcome::Subscribe {
        view,
        next_seq: snap.seq + 1,
        reply: Response::SubscribeOk {
            view,
            seq: snap.seq,
            resync: true,
            checksum: snap.checksum,
            rows: snap.rows.clone(),
        },
    };
    if from_seq == u64::MAX {
        return resync(&hub.snapshot(v));
    }
    match hub.fetch(v, from_seq, 1) {
        FetchOutcome::AtHead | FetchOutcome::Deltas(_) => FrameOutcome::Subscribe {
            view,
            next_seq: from_seq,
            reply: Response::SubscribeOk {
                view,
                seq: from_seq.saturating_sub(1),
                resync: false,
                // The subscriber verified this state when it folded the
                // delta producing it; the ack doesn't recompute it.
                checksum: 0,
                rows: Vec::new(),
            },
        },
        FetchOutcome::Resync(snap) => resync(&snap),
    }
}

/// How many WAL bytes one `WalSegment` reply may carry. A follower far
/// behind pages through the log in bounded chunks instead of receiving
/// one unbounded frame.
const WAL_SEGMENT_MAX_BYTES: usize = 256 * 1024;

/// Serves one page of a shard leader's WAL tail to a tailing follower,
/// piggybacking the shard's current fencing epoch.
fn replica_subscribe(router: &ShardRouter, shard: u32, from_record: u64) -> Response {
    let i = shard as usize;
    if i >= router.shards() {
        return Response::Error {
            code: ErrorCode::BadRequest,
            message: format!("shard {i} out of range ({} shards)", router.shards()),
        };
    }
    let Some(tail) = router.wal_tail(i) else {
        return Response::Error {
            code: ErrorCode::ShardUnavailable,
            message: format!("shard {i} has no replication tail attached"),
        };
    };
    match tail.segment(from_record, WAL_SEGMENT_MAX_BYTES) {
        Ok(seg) => Response::WalSegment {
            epoch: router.epoch_of(i),
            from_record: seg.from_record,
            leader_records: seg.leader_records,
            bytes: seg.bytes,
        },
        Err(err) => Response::Error {
            code: ErrorCode::Internal,
            message: format!("wal tail read failed: {err}"),
        },
    }
}

/// The submit entry point. The whole batch is split by owning shard and
/// admission-checked against *every* target shard before the first
/// sub-batch is enqueued, so pre-admission rejections (`BadRequest`,
/// `StaleEpoch`, `Overloaded`, `ShardUnavailable`) are retry-safe: no
/// shard has seen any part of the batch.
fn submit(
    shared: &Shared,
    router: &ShardRouter,
    s: SubmitRef<'_>,
    deadline: Duration,
) -> FrameOutcome {
    let n_tables = router.partitioner().key_cols().len();
    let table = s.table as usize;
    if table >= n_tables {
        return FrameOutcome::Reply(Response::Error {
            code: ErrorCode::BadRequest,
            message: format!("table {table} out of range ({n_tables} tables)"),
        });
    }
    // With one shard the target is known without looking at a row, so
    // an overloaded server sheds the frame before materializing it.
    let one_shard = router.shards() == 1;
    if one_shard {
        if let Some(rejection) = precheck(shared, router, s.epoch, 0..1) {
            return FrameOutcome::Reply(rejection);
        }
    }
    // The only allocations on the submit path: materializing the rows
    // the engine will keep. The frame itself was decoded zero-copy.
    let mut mods: Vec<Modification> = Vec::new();
    if let Err(err) = s.decode_mods_into(&mut mods) {
        // Unreachable in practice (decode_request_ref validated), but
        // typed rather than trusted.
        return FrameOutcome::Reply(Response::Error {
            code: ErrorCode::BadRequest,
            message: format!("undecodable request: {err}"),
        });
    }
    // Routing errors (repartitioning update, arity too short for the
    // partition column) are the client's fault — typed, before any
    // side effect.
    let parts = match router.split_batch(table, mods) {
        Ok(p) => p,
        Err(err) => {
            return FrameOutcome::Reply(Response::Error {
                code: ErrorCode::BadRequest,
                message: format!("unroutable batch: {err}"),
            })
        }
    };
    if parts.is_empty() {
        return FrameOutcome::Reply(Response::SubmitOk { accepted: 0 });
    }
    if !one_shard {
        if let Some(rejection) = precheck(shared, router, s.epoch, parts.iter().map(|p| p.0)) {
            return FrameOutcome::Reply(rejection);
        }
    }
    let mut st = SubmitState {
        table,
        epoch: s.epoch,
        total: parts.len(),
        parts,
        accepted: 0,
        tickets: Vec::new(),
        started: Instant::now(),
        deadline,
    };
    match try_submit(shared, router, &mut st) {
        Some(resp) => FrameOutcome::Reply(resp),
        None => FrameOutcome::Wait(Pending::Submit(st)),
    }
}

/// The whole-batch admission check over every target shard: epoch
/// fence, then liveness, then high water. Failing here — before the
/// first enqueue — is what keeps retries safe even when the batch spans
/// shards.
fn precheck(
    shared: &Shared,
    router: &ShardRouter,
    epoch: u64,
    targets: impl Iterator<Item = usize>,
) -> Option<Response> {
    let high_water = shared.cfg.submit_high_water;
    for shard in targets {
        let current = router.epoch_of(shard);
        if epoch != 0 && epoch < current {
            return Some(stale_epoch(shard, current, epoch));
        }
        let Some(depth) = router.with_handle(shard, |h| high_water.map(|_| h.queue_depth())) else {
            return Some(shard_unavailable(shard));
        };
        if let (Some(depth), Some(hw)) = (depth, high_water) {
            if depth >= hw {
                shared
                    .stats
                    .overload_rejections
                    .fetch_add(1, Ordering::Relaxed);
                return Some(Response::Error {
                    code: ErrorCode::Overloaded,
                    message: format!("shard {shard} ingest queue at {depth} (high water {hw})"),
                });
            }
        }
    }
    None
}

/// One admission round over the remaining sub-batches. `None` parks the
/// submit (some queue is full, or — with durable acks — admitted
/// sub-batches are still waiting on their apply tickets); a response
/// ends the request — `SubmitOk` once every sub-batch is in (and, with
/// durable acks, applied), `ShardUnavailable` (retry-safe) when a
/// target died before anything was admitted, `Internal` when a target
/// died *after* part of the batch was admitted (the client must
/// reconcile, not blindly retry).
fn try_submit(shared: &Shared, router: &ShardRouter, st: &mut SubmitState) -> Option<Response> {
    // Re-run the epoch fence on every admission round, not just the
    // initial pre-check: a submit parked on a full queue can outlive a
    // failover, and admitting it afterwards would feed the promoted
    // follower a batch whose prefix may already have been drained from
    // the dead leader's log — the double-apply the fence exists to
    // reject. Rejection is only retry-safe while nothing has been
    // admitted; past that point the partial-submit paths below own the
    // error semantics.
    if st.epoch != 0 && st.accepted == 0 {
        for (shard, _) in &st.parts {
            let current = router.epoch_of(*shard);
            if st.epoch < current {
                return Some(stale_epoch(*shard, current, st.epoch));
            }
        }
    }
    let durable = shared.cfg.durable_acks;
    let mut i = 0;
    while i < st.parts.len() {
        let (shard, mods) = &st.parts[i];
        let shard = *shard;
        let events = mods.len() as u64;
        // The clone is cheap (rows are `Arc`s) and keeps the sub-batch
        // owned by the connection until its admission actually succeeds.
        let step = router.with_handle(shard, |h| {
            if durable {
                h.try_ingest_batch_tracked(st.table, mods.clone()).map(Some)
            } else {
                h.try_ingest_batch(st.table, mods.clone()).map(|()| None)
            }
        });
        match step {
            Some(Ok(ticket)) => {
                st.tickets.extend(ticket.map(|t| (shard, t)));
                st.accepted += events;
                shared
                    .stats
                    .submitted_events
                    .fetch_add(events, Ordering::Relaxed);
                st.parts.swap_remove(i);
            }
            Some(Err(TrySendError::Full)) => i += 1,
            gone => {
                if gone.is_some() {
                    router.mark_dead(shard);
                }
                if st.accepted == 0 {
                    return Some(shard_unavailable(shard));
                }
                return Some(Response::Error {
                    code: ErrorCode::Internal,
                    message: format!(
                        "partial submit: shard {shard} died after {} events \
                         ({} of {} sub-batches) were admitted",
                        st.accepted,
                        st.total - st.parts.len(),
                        st.total
                    ),
                });
            }
        }
    }
    (st.parts.is_empty() && st.tickets.is_empty()).then_some(Response::SubmitOk {
        accepted: st.accepted,
    })
}

/// The retry-safe rejection for a submit stamped with a pre-failover
/// epoch: nothing was enqueued anywhere.
fn stale_epoch(shard: usize, current: u64, stamped: u64) -> Response {
    Response::Error {
        code: ErrorCode::StaleEpoch,
        message: format!(
            "shard {shard} is at epoch {current}, submit stamped epoch {stamped}; \
             refresh the epoch and retry (nothing was enqueued)"
        ),
    }
}

/// The retry-safe rejection for a submit whose owning shard is dead:
/// nothing was enqueued anywhere.
fn shard_unavailable(shard: usize) -> Response {
    Response::Error {
        code: ErrorCode::ShardUnavailable,
        message: format!("shard {shard} unavailable; batch rejected before any side effect"),
    }
}

/// The rejection for a request no shard is left to answer, carrying
/// the scheduler error that explains why (when one was recorded — a
/// crash is silent).
fn unavailable(router: &ShardRouter) -> Response {
    Response::Error {
        code: ErrorCode::Unavailable,
        message: match router.last_error() {
            Some(e) => format!("scheduler stopped: {e}"),
            None => "scheduler stopped".into(),
        },
    }
}

/// Advances a pending submit: another admission round for the parked
/// sub-batches, then — once all are in — the apply tickets of a
/// durable-ack submit.
fn poll_submit(shared: &Shared, router: &ShardRouter, st: &mut SubmitState) -> Option<Response> {
    if let Some(resp) = try_submit(shared, router, st) {
        return Some(resp);
    }
    let expired = st.started.elapsed() >= st.deadline;
    if !st.parts.is_empty() {
        if !expired {
            return None;
        }
        shared
            .stats
            .overload_rejections
            .fetch_add(1, Ordering::Relaxed);
        return Some(if st.accepted == 0 {
            // Nothing enqueued on any shard, so the rejection is
            // retry-safe — Overloaded, not DeadlineExceeded.
            Response::Error {
                code: ErrorCode::Overloaded,
                message: format!("ingest queue stayed at capacity for {:?}", st.deadline),
            }
        } else {
            // Part of the batch is in; an Overloaded reply would invite
            // a double-applying retry. Be honest instead.
            Response::Error {
                code: ErrorCode::Internal,
                message: format!(
                    "partial submit: {} events admitted, {} of {} sub-batches still \
                     queued at deadline",
                    st.accepted,
                    st.parts.len(),
                    st.total
                ),
            }
        });
    }
    // Every sub-batch is admitted; only the apply outcomes are
    // outstanding. Every failure past this point is `Internal` /
    // `DeadlineExceeded`, never retry-safe: the batch is already in a
    // scheduler queue, and its durability is indeterminate at best.
    let mut failed: Option<String> = None;
    poll_fan_out(router, &mut st.tickets, |_, applied| match applied {
        Some(Ok(())) => {}
        Some(Err(err)) => failed = Some(format!("apply failed after admission: {err}")),
        None => {
            failed =
                Some("scheduler stopped after admission; write durability indeterminate".into())
        }
    });
    if let Some(message) = failed {
        return Some(Response::Error {
            code: ErrorCode::Internal,
            message,
        });
    }
    if st.tickets.is_empty() {
        return Some(Response::SubmitOk {
            accepted: st.accepted,
        });
    }
    if expired {
        shared
            .stats
            .deadline_rejections
            .fetch_add(1, Ordering::Relaxed);
        return Some(Response::Error {
            code: ErrorCode::DeadlineExceeded,
            message: format!(
                "batch admitted but not applied within {:?}; durability indeterminate",
                st.deadline
            ),
        });
    }
    None
}

/// Polls one pending ticket fan-out. Returns true when it resolved (a
/// response was queued and `conn.pending` cleared).
fn poll_pending(shared: &Shared, router: &ShardRouter, conn: &mut Conn) -> bool {
    let Some(pending) = conn.pending.as_mut() else {
        return false;
    };
    let engine_error = |err: aivm_engine::EngineError| Response::Error {
        code: ErrorCode::Internal,
        message: err.to_string(),
    };
    let resolved: Option<Response> = match pending {
        Pending::Submit(st) => poll_submit(shared, router, st),
        Pending::Read {
            tickets,
            results,
            degraded,
            fresh,
            want_rows,
            started,
            deadline,
        } => {
            let mut failed = None;
            poll_fan_out(router, tickets, |_, reply| match reply {
                Some(Ok(r)) => results.push(r),
                Some(Err(err)) => failed = Some(engine_error(err)),
                // The shard died mid-read: skip it, serve the
                // survivors, flag the merge degraded.
                None => *degraded = true,
            });
            if failed.is_some() {
                failed
            } else if !tickets.is_empty() {
                deadline_check(shared, *started, *deadline)
            } else {
                let results = std::mem::take(results);
                Some(finish_read(router, results, *degraded, *fresh, *want_rows))
            }
        }
        Pending::Flush {
            tickets,
            costs,
            violated,
            started,
            deadline,
        } => {
            let mut failed = None;
            poll_fan_out(router, tickets, |shard, reply| match reply {
                Some(Ok(r)) => {
                    costs.push((shard, r.flush_cost));
                    *violated |= r.violated;
                }
                Some(Err(err)) => failed = Some(engine_error(err)),
                None => costs.retain(|(s, _)| *s != shard),
            });
            if failed.is_some() {
                failed
            } else if !tickets.is_empty() {
                deadline_check(shared, *started, *deadline)
            } else if costs.is_empty() {
                Some(unavailable(router))
            } else {
                let mut per_shard = vec![0.0f64; router.shards()];
                for (shard, cost) in costs.iter() {
                    per_shard[*shard] += cost;
                }
                Some(Response::FlushOk {
                    flush_cost: per_shard.into_iter().fold(0.0, f64::max),
                    violated: *violated,
                })
            }
        }
        Pending::Metrics {
            tickets,
            snaps,
            per_shard,
            per_view,
            started,
            deadline,
        } => {
            poll_fan_out(router, tickets, |shard, reply| {
                snaps.extend(reply.map(|snap| (shard, snap)))
            });
            if !tickets.is_empty() {
                deadline_check(shared, *started, *deadline)
            } else if snaps.is_empty() {
                Some(unavailable(router))
            } else {
                let nm = wire_metrics(shared, router, snaps, *per_shard, *per_view);
                Some(Response::MetricsOk(Box::new(nm)))
            }
        }
    };
    match resolved {
        Some(resp) => {
            conn.pending = None;
            queue_response(conn, &resp);
            true
        }
        None => false,
    }
}

/// `None` = keep waiting; a response once the budget is spent.
fn deadline_check(shared: &Shared, started: Instant, deadline: Duration) -> Option<Response> {
    if started.elapsed() < deadline {
        return None;
    }
    shared
        .stats
        .deadline_rejections
        .fetch_add(1, Ordering::Relaxed);
    Some(Response::Error {
        code: ErrorCode::DeadlineExceeded,
        message: format!(
            "read missed its {deadline:?} deadline after {:?} queued",
            started.elapsed()
        ),
    })
}

fn queue_response(conn: &mut Conn, resp: &Response) {
    put_frame(&mut conn.wbuf, |b| put_response(b, resp));
}

/// Writes buffered response bytes until the socket would block.
fn flush_wbuf(conn: &mut Conn) {
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    if conn.wpos == conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
        if conn.close_after_flush {
            conn.dead = true;
        }
    } else if conn.wpos > WBUF_HIGH {
        // Keep the buffer from holding a long-dead prefix.
        conn.wbuf.drain(..conn.wpos);
        conn.wpos = 0;
    }
}

/// Folds the gathered per-shard snapshots and the net-layer counters
/// into the wire metrics: counters sum across shards, staleness takes
/// the worst (shard × view), per-view rows fold across shards, and the
/// optional per-shard breakdown includes dead slots with `live: false`.
fn wire_metrics(
    shared: &Shared,
    router: &ShardRouter,
    snaps: &[(usize, MultiMetricsSnapshot)],
    per_shard: bool,
    per_view: bool,
) -> NetMetrics {
    let merged;
    let snap = if router.shards() == 1 {
        // One shard's counters are the totals as they stand.
        &snaps[0].1.global
    } else {
        let globals: Vec<_> = snaps.iter().map(|(_, m)| m.global.clone()).collect();
        merged = merge_metrics(&globals);
        &merged
    };
    // A shard is as stale as its stalest view's last published
    // snapshot — read through the *uncounted* accessor: a Metrics
    // request is not a served read.
    let staleness_of = |i: usize| -> u64 {
        let worst = |h: &ServeHandle| {
            (0..router.views())
                .filter_map(|v| h.snapshot_view(v))
                .map(|s| s.lag())
                .max()
        };
        router.with_handle(i, worst).flatten().unwrap_or(0)
    };
    let replica_lag_of =
        |i: usize| -> u64 { router.replica_status(i).map(|r| r.lag()).unwrap_or(0) };
    let view_rows = || snaps.iter().flat_map(|(_, m)| m.views.iter());
    let stats = &shared.stats;
    let mut nm = NetMetrics {
        events_ingested: snap.events_ingested,
        ticks: snap.ticks,
        flush_count: snap.flush_count,
        total_flush_cost: snap.total_flush_cost,
        fresh_reads: snap.fresh_reads,
        stale_reads: snap.stale_reads,
        snapshot_reads: snap.snapshot_reads,
        constraint_violations: snap.constraint_violations,
        policy_demotions: snap.policy_demotions,
        recalibrations: snap.recalibrations,
        degraded: snap.degraded,
        queue_depth: snap.queue_depth as u64,
        max_queue_depth: snap.max_queue_depth as u64,
        shed_events: snap.shed_events,
        ingest_errors: snap.ingest_errors,
        wal_records: snap.wal_records,
        wal_fsync_lag: snap.wal_fsync_lag,
        wal_sync_every: snap.wal_sync_every,
        connections_active: stats.connections_active.load(Ordering::Relaxed),
        connections_total: stats.connections_total.load(Ordering::Relaxed),
        connections_rejected: stats.connections_rejected.load(Ordering::Relaxed),
        requests: stats.requests.load(Ordering::Relaxed),
        submitted_events: stats.submitted_events.load(Ordering::Relaxed),
        overload_rejections: stats.overload_rejections.load(Ordering::Relaxed),
        deadline_rejections: stats.deadline_rejections.load(Ordering::Relaxed),
        shards: router.shards() as u64,
        shards_live: snaps.len() as u64,
        staleness_max: (0..router.shards()).map(staleness_of).max().unwrap_or(0),
        budget: snap.budget,
        budget_rebalances: snap.budget_rebalances,
        failovers: router.failovers(),
        cluster_epoch: router.cluster_epoch(),
        replica_lag_max: (0..router.shards()).map(replica_lag_of).max().unwrap_or(0),
        views: router.views() as u64,
        subscribers: view_rows().map(|v| v.subscribers).sum(),
        deltas_pushed: view_rows().map(|v| v.deltas_pushed).sum(),
        sub_lag_max: view_rows().map(|v| v.sub_lag_max).max().unwrap_or(0),
        per_shard: None,
        per_view: None,
        last_error: snap.last_error.clone(),
    };
    if per_shard {
        let rows = (0..router.shards())
            .map(|i| {
                let m = snaps.iter().find(|(s, _)| *s == i).map(|(_, m)| &m.global);
                ShardMetricsRow {
                    shard: i as u32,
                    live: m.is_some(),
                    events_ingested: m.map_or(0, |m| m.events_ingested),
                    queue_depth: m.map_or(0, |m| m.queue_depth as u64),
                    flush_count: m.map_or(0, |m| m.flush_count),
                    total_flush_cost: m.map_or(0.0, |m| m.total_flush_cost),
                    budget: m.map_or(0.0, |m| m.budget),
                    staleness: m.map_or(0, |_| staleness_of(i)),
                    epoch: router.epoch_of(i),
                    replica_lag: replica_lag_of(i),
                    health: shard_health(router, i, m.is_some()),
                }
            })
            .collect();
        nm.per_shard = Some(rows);
    }
    if per_view && view_rows().next().is_some() {
        // One row per view: counters sum across shards, the subscriber
        // lag is the worst shard's.
        let mut rows: Vec<ViewMetricsRow> = Vec::with_capacity(router.views());
        for v in view_rows() {
            let Some(row) = rows.iter_mut().find(|r| r.view == v.view) else {
                rows.push(ViewMetricsRow {
                    view: v.view,
                    group: v.group,
                    flushes: v.flushes,
                    pending: v.pending,
                    violations: v.violations,
                    deltas_pushed: v.deltas_pushed,
                    subscribers: v.subscribers,
                    sub_lag_max: v.sub_lag_max,
                });
                continue;
            };
            row.flushes += v.flushes;
            row.pending += v.pending;
            row.violations += v.violations;
            row.deltas_pushed += v.deltas_pushed;
            row.subscribers += v.subscribers;
            row.sub_lag_max = row.sub_lag_max.max(v.sub_lag_max);
        }
        nm.per_view = Some(rows);
    }
    nm
}

/// The per-shard health code surfaced in metrics rows: 0 = leader dead,
/// 1 = leader live with no (healthy) follower tailing, 2 = leader live
/// with a healthy follower.
fn shard_health(router: &ShardRouter, i: usize, live: bool) -> u8 {
    if !live {
        return 0;
    }
    match router.replica_status(i) {
        Some(r) if r.healthy() => 2,
        _ => 1,
    }
}
