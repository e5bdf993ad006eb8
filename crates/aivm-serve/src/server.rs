//! The threaded serving layer: bounded-MPSC ingest in front of a
//! scheduler thread.
//!
//! [`Server::spawn`] moves a [`MaintenanceRuntime`] — or its
//! [`RegistryRuntime`] name, converted in and back out at shutdown —
//! onto a scheduler thread and returns a cloneable [`Handle`].
//! Producers push DML through the bounded [`queue`](crate::queue) — a
//! full queue blocks the producer (backpressure) rather than growing
//! without bound, and with a configured high-water mark overload sheds
//! the oldest *sheddable* (ingest) messages instead, counted in metrics.
//! The scheduler loop alternates between draining a bounded batch of
//! queued events and running one runtime tick, so ticks keep firing at
//! `tick_interval` even when the stream goes quiet (ONLINE's rate
//! estimator sees the silence) and batches stay small enough that reads
//! queued behind a burst are served promptly.
//!
//! Reads and metrics requests travel on the same queue as DML (marked
//! unsheddable — a reply channel must never be dropped), each carrying
//! a rendezvous channel for the reply; fresh-read latency is measured
//! from enqueue to reply, so it includes queue wait. Stale reads never
//! reach the scheduler at all once a view has a published snapshot:
//! after every tick and every fresh read the scheduler stores each
//! view's latest flush-boundary [`ViewSnapshot`] in a per-view slot the
//! handles read directly.
//!
//! ## Failure behaviour
//!
//! The scheduler thread never panics on runtime errors. A failed ingest
//! (bad DML) is counted and recorded, then serving continues — nothing
//! was mutated. A failed tick (a hard engine flush error, a WAL append
//! failure, or a strict-mode constraint violation) is *poisonous*: the
//! error lands in a shared last-error slot, the scheduler stops
//! maintaining, and every subsequent client call observes the
//! disconnect (`false`/`None`) while [`Handle::last_error`] explains
//! why. An injected kill from a [`FaultPlan`] stops the scheduler
//! silently mid-stream — the simulated crash the recovery path and
//! `repro chaos` are built around.
//!
//! [`Server::shutdown`] returns the runtime (and therefore its metrics
//! and recorded trace) once the scheduler drains; all producer handles
//! must be dropped first, or the scheduler keeps waiting for more
//! events.

use crate::fault::FaultPlan;
use crate::metrics::{MetricsSnapshot, MultiMetricsSnapshot};
use crate::multi::{RegistryRuntime, SubscriptionHub};
use crate::queue::{channel, Receiver, RecvError, Sender, TrySendError};
use crate::runtime::{MaintenanceRuntime, ReadMode, ReadResult};
use aivm_engine::{EngineError, Modification, ViewSnapshot};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of the threaded server.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Capacity of the bounded ingest queue; producers block when full.
    pub queue_capacity: usize,
    /// Overload shedding: past this many queued messages, ingest sends
    /// drop the oldest queued ingest message (counted in metrics)
    /// instead of blocking. `None` disables shedding (pure
    /// backpressure).
    pub shed_high_water: Option<usize>,
    /// How long the scheduler waits for an event before running an idle
    /// tick anyway.
    pub tick_interval: Duration,
    /// Maximum events drained per tick (bounds tick latency).
    pub max_batch: usize,
    /// Injected faults (kills are honoured here; the rest are forwarded
    /// to the runtime at spawn).
    pub faults: FaultPlan,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_capacity: 1024,
            shed_high_water: None,
            tick_interval: Duration::from_millis(1),
            max_batch: 256,
            faults: FaultPlan::none(),
        }
    }
}

/// A structured scheduler-loop failure: what the scheduler was doing,
/// at which tick, and the underlying engine error.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeError {
    /// Scheduler ticks completed when the error struck.
    pub ticks: u64,
    /// The operation that failed (`"tick"`, `"ingest"`).
    pub during: &'static str,
    /// The underlying engine error.
    pub source: EngineError,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scheduler {} failed after {} ticks: {}",
            self.during, self.ticks, self.source
        )
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

enum Msg {
    Count {
        table: usize,
        k: u64,
    },
    /// A batch of modifications as one queue message: one lock
    /// acquisition and one wakeup per wire frame instead of one per
    /// modification (a lone modification is a batch of one). With
    /// `done` set, the scheduler reports apply+WAL-append completion
    /// through it — the durable-ack path.
    Dml {
        table: usize,
        mods: Vec<Modification>,
        done: Option<SyncSender<Result<(), EngineError>>>,
    },
    Read {
        view: usize,
        mode: ReadMode,
        enqueued: Instant,
        reply: SyncSender<Result<ReadResult, EngineError>>,
    },
    Metrics {
        reply: SyncSender<MultiMetricsSnapshot>,
    },
    /// A coordinator-initiated refresh-budget change (fire-and-forget:
    /// the coordinator observes the effect through the next metrics
    /// snapshot, never blocking on the scheduler).
    SetBudget {
        budget: f64,
    },
    /// A no-op control message: its only effect is forcing the
    /// scheduler through a loop iteration, where a pending fence flag
    /// is observed and acknowledged.
    FenceProbe,
}

/// Why a deadline-bounded request produced no result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeadlineError {
    /// The reply did not arrive within the deadline. The scheduler may
    /// still execute the request later; its reply is dropped
    /// best-effort, never blocking the scheduler.
    TimedOut,
    /// The server is gone (check [`Handle::last_error`] for why).
    Disconnected,
}

/// State shared by every handle clone and the scheduler thread.
struct Shared {
    /// One slot per view: the scheduler stores the view's latest
    /// flush-boundary [`ViewSnapshot`] here; handles serve stale reads
    /// from it without a scheduler round-trip. A lock is held only for
    /// the `Arc` store/clone — never across row evaluation — so readers
    /// and the publisher exchange a pointer, not data.
    snapshots: Vec<RwLock<Option<Arc<ViewSnapshot>>>>,
    /// Stale reads served from `snapshots`; they never pass through
    /// the scheduler, so this is the only place they are counted.
    snapshot_reads: AtomicU64,
    last_error: Mutex<Option<ServeError>>,
    fenced: AtomicBool,
    fence_seen: AtomicBool,
    tables: usize,
    hub: Option<Arc<SubscriptionHub>>,
}

impl Shared {
    fn last_error(&self) -> Option<ServeError> {
        self.last_error
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    fn snapshot(&self, view: usize) -> Option<Arc<ViewSnapshot>> {
        self.snapshots
            .get(view)?
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

/// A cloneable producer/client handle to a running [`Server`].
#[derive(Clone)]
pub struct Handle {
    tx: Sender<Msg>,
    shared: Arc<Shared>,
}

/// The handle of a [`ServeServer`].
pub type ServeHandle = Handle;
/// The handle of a [`RegistryServer`].
pub type RegistryHandle = Handle;

impl Handle {
    /// Number of views the runtime maintains.
    pub fn views(&self) -> usize {
        self.shared.snapshots.len()
    }

    /// Number of base tables on the ingest axis.
    pub fn tables(&self) -> usize {
        self.shared.tables
    }

    /// The subscription hub, when the runtime publishes delta batches
    /// (network workers pull them without scheduler round-trips).
    pub fn hub(&self) -> Option<&Arc<SubscriptionHub>> {
        self.shared.hub.as_ref()
    }

    /// The latest published flush-boundary snapshot of `view` (`None`
    /// on the model backend, before the first publication, or for a
    /// view out of range). Wait-free with respect to maintenance: no
    /// scheduler round-trip, and the returned snapshot stays valid even
    /// while further flushes publish newer ones.
    pub fn snapshot_view(&self, view: usize) -> Option<Arc<ViewSnapshot>> {
        self.shared.snapshot(view)
    }

    /// [`Handle::snapshot_view`], counted as a served snapshot read in
    /// [`MetricsSnapshot::snapshot_reads`]. Frontends (e.g. the TCP
    /// server) that answer stale reads directly from the snapshot call
    /// this so the serve metrics still see every read.
    pub fn snapshot_view_for_read(&self, view: usize) -> Option<Arc<ViewSnapshot>> {
        let snap = self.snapshot_view(view)?;
        self.shared.snapshot_reads.fetch_add(1, Ordering::Relaxed);
        Some(snap)
    }

    /// [`Handle::snapshot_view`] of view 0.
    pub fn snapshot(&self) -> Option<Arc<ViewSnapshot>> {
        self.snapshot_view(0)
    }

    /// [`Handle::snapshot_view_for_read`] of view 0.
    pub fn snapshot_for_read(&self) -> Option<Arc<ViewSnapshot>> {
        self.snapshot_view_for_read(0)
    }

    /// Serves a stale read from the published snapshot when one exists.
    fn snapshot_read(&self, view: usize) -> Option<ReadResult> {
        let snap = self.snapshot_view_for_read(view)?;
        Some(ReadResult {
            lag: snap.lag(),
            rows: Some(snap.rows.clone()),
            flush_cost: 0.0,
            violated: false,
        })
    }

    /// Fences this server: every subsequent ingest (through *any* clone
    /// of the handle) is rejected, the scheduler stops ticking and
    /// WAL-appending, and only reads and metrics keep being served.
    ///
    /// This is the stale-leader barrier of shard failover: the router
    /// fences the suspect leader *before* sealing its log and promoting
    /// the follower, so no record can be appended after the seal point
    /// and no write is double-applied. Fencing is idempotent and
    /// irreversible — a fenced leader rejoins by recovering from its
    /// log as a fresh server, never by un-fencing.
    pub fn fence(&self) {
        self.shared.fenced.store(true, Ordering::SeqCst);
    }

    /// Whether [`Handle::fence`] has been called on this server.
    pub fn is_fenced(&self) -> bool {
        self.shared.fenced.load(Ordering::SeqCst)
    }

    /// Whether the fence is *effective*: the scheduler has observed the
    /// fence flag (so no further apply/append can race it), or it is
    /// gone entirely. Promotion spins briefly on this before sealing
    /// the leader's log.
    pub fn fence_acknowledged(&self) -> bool {
        if self.shared.fence_seen.load(Ordering::SeqCst) {
            return true;
        }
        // A dead scheduler can never apply anything again: the fence is
        // vacuously effective. Probing with a control send is safe — a
        // live scheduler just runs one extra loop iteration.
        self.tx.send_control(Msg::FenceProbe).is_err()
    }

    /// Ingests `k` anonymous events for `table` (model backend).
    /// Blocks while the queue is full (unless shedding is on); returns
    /// `false` if the server is gone or fenced.
    pub fn ingest_count(&self, table: usize, k: u64) -> bool {
        !self.is_fenced() && self.tx.send(Msg::Count { table, k }, true).is_ok()
    }

    /// Ingests one DML event for `table` (engine backend). Blocks while
    /// the queue is full (unless shedding is on); returns `false` if
    /// the server is gone or fenced.
    pub fn ingest_dml(&self, table: usize, m: Modification) -> bool {
        if self.is_fenced() {
            return false;
        }
        let msg = Msg::Dml {
            table,
            mods: vec![m],
            done: None,
        };
        self.tx.send(msg, true).is_ok()
    }

    /// Ingests a whole DML batch as **one** queue message, without
    /// blocking: a full queue is a typed [`TrySendError::Full`] the
    /// caller can turn into an `Overloaded` rejection (nothing was
    /// enqueued, so a retry is side-effect free). The batch is applied
    /// in order by the scheduler; this is the event-loop server's
    /// ingest path — one lock acquisition and one scheduler wakeup per
    /// wire frame instead of one per modification.
    ///
    /// The batch charges one capacity unit *per modification*, so the
    /// admission bound is on outstanding events regardless of how they
    /// are batched on the wire. That keeps the maintenance backlog —
    /// and with it the cost of any single flush or forced refresh —
    /// as bounded as the modification-at-a-time path keeps it.
    pub fn try_ingest_batch(
        &self,
        table: usize,
        mods: Vec<Modification>,
    ) -> Result<(), TrySendError> {
        self.try_send_batch(table, mods, None)
    }

    /// [`Handle::try_ingest_batch`] with an apply acknowledgement: the
    /// returned [`ApplyTicket`] completes once the scheduler has
    /// applied the whole batch **and** WAL-logged it (each record is
    /// appended after its modification applies). Frontends that promise
    /// "an acknowledged write survives leader failover" reply to the
    /// client only after the ticket completes: acknowledged ⟹ in the
    /// log ⟹ replayed by the promoted follower. A ticket that reports
    /// the scheduler gone means the batch outcome is *indeterminate*
    /// (it may or may not have been applied before the crash) — exactly
    /// the cases the chaos harness treats as unacknowledged.
    pub fn try_ingest_batch_tracked(
        &self,
        table: usize,
        mods: Vec<Modification>,
    ) -> Result<ApplyTicket, TrySendError> {
        let (done, rx) = sync_channel(1);
        self.try_send_batch(table, mods, Some(done))?;
        Ok(Ticket { rx })
    }

    fn try_send_batch(
        &self,
        table: usize,
        mods: Vec<Modification>,
        done: Option<SyncSender<Result<(), EngineError>>>,
    ) -> Result<(), TrySendError> {
        if self.is_fenced() {
            return Err(TrySendError::Disconnected);
        }
        let weight = mods.len();
        self.tx
            .try_send_weighted(Msg::Dml { table, mods, done }, true, weight)
    }

    /// Sends a request/reply control message (charges no event weight,
    /// is never shed, never blocks) and returns the reply's ticket.
    fn request<T>(&self, msg: impl FnOnce(SyncSender<T>) -> Msg) -> Option<Ticket<T>> {
        let (reply, rx) = sync_channel(1);
        self.tx.send_control(msg(reply)).ok()?;
        Some(Ticket { rx })
    }

    /// Serves a read of `view`. Stale reads are answered wait-free from
    /// the published [`ViewSnapshot`] when one exists (engine backends)
    /// — no scheduler round-trip, no queue wait, and they keep working
    /// even while the scheduler is busy flushing. The reported lag is
    /// as of the snapshot's publication. Fresh reads (and stale reads
    /// on the model backend) travel through the scheduler queue;
    /// `None` if the server is gone (check [`Handle::last_error`] for
    /// why).
    pub fn read_view(
        &self,
        view: usize,
        mode: ReadMode,
    ) -> Option<Result<ReadResult, EngineError>> {
        if mode == ReadMode::Stale {
            if let Some(r) = self.snapshot_read(view) {
                return Some(Ok(r));
            }
        }
        self.begin_read(view, mode)?.wait()
    }

    /// [`Handle::read_view`] of view 0.
    pub fn read(&self, mode: ReadMode) -> Option<Result<ReadResult, EngineError>> {
        self.read_view(0, mode)
    }

    /// [`Handle::read`] bounded by a deadline: gives up (but does not
    /// cancel the read) once `timeout` elapses without a reply. Queue
    /// wait counts against the deadline, which is what makes a
    /// per-request deadline meaningful under backlog.
    pub fn read_deadline(
        &self,
        mode: ReadMode,
        timeout: Duration,
    ) -> Result<Result<ReadResult, EngineError>, DeadlineError> {
        if mode == ReadMode::Stale {
            if let Some(r) = self.snapshot_read(0) {
                return Ok(Ok(r));
            }
        }
        self.begin_read(0, mode)
            .ok_or(DeadlineError::Disconnected)?
            .wait_timeout(timeout)
    }

    /// Starts a read of `view` without waiting for the reply: the
    /// scheduler executes it in queue order and the returned
    /// [`ReadTicket`] is polled with [`Ticket::try_take`]. Built for
    /// event-loop frontends that must never park a thread per in-flight
    /// read. Stale reads are still best served via
    /// [`Handle::snapshot_view_for_read`] first — this path always
    /// takes the scheduler round trip. `None` if the server is gone.
    pub fn begin_read(&self, view: usize, mode: ReadMode) -> Option<ReadTicket> {
        let enqueued = Instant::now();
        self.request(|reply| Msg::Read {
            view,
            mode,
            enqueued,
            reply,
        })
    }

    /// Starts a metrics fetch without waiting; poll the returned
    /// [`MetricsTicket`]. `None` if the server is gone.
    pub fn begin_metrics(&self) -> Option<MetricsTicket> {
        self.request(|reply| Msg::Metrics { reply })
    }

    /// Fetches the scheduler-global counters (including live queue
    /// depths, shed counts and the last scheduler error). `None` if the
    /// server is gone.
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        self.metrics_by_view().map(|m| m.global)
    }

    /// [`Handle::metrics`] with the per-view rows a multi-view runtime
    /// reports attached.
    pub fn metrics_by_view(&self) -> Option<MultiMetricsSnapshot> {
        self.begin_metrics()?.wait()
    }

    /// Requests a refresh-budget change, applied by the scheduler in
    /// queue order (control message: charges no event weight and is
    /// never shed). Returns `false` if the server is gone. The shard
    /// coordinator calls this each rebalance epoch; the new budget is
    /// WAL-logged by the runtime so recovery replays the same flush
    /// schedule.
    pub fn set_budget(&self, budget: f64) -> bool {
        self.tx.send_control(Msg::SetBudget { budget }).is_ok()
    }

    /// Current ingest-queue depth (approximate).
    pub fn queue_depth(&self) -> usize {
        self.tx.len()
    }

    /// The error that stopped (or is poisoning) the scheduler, if any.
    pub fn last_error(&self) -> Option<ServeError> {
        self.shared.last_error()
    }
}

/// An in-flight scheduler request. Dropping the ticket abandons the
/// reply (the scheduler may still execute the request; its reply is
/// discarded best-effort, never blocking the scheduler) — the same
/// give-up semantics as [`Handle::read_deadline`] timing out.
pub struct Ticket<T> {
    rx: std::sync::mpsc::Receiver<T>,
}

/// A read started with [`Handle::begin_read`].
pub type ReadTicket = Ticket<Result<ReadResult, EngineError>>;
/// A durable-ack batch started with [`Handle::try_ingest_batch_tracked`];
/// completes after the batch has applied and been WAL-logged.
pub type ApplyTicket = Ticket<Result<(), EngineError>>;
/// A metrics fetch started with [`Handle::begin_metrics`].
pub type MetricsTicket = Ticket<MultiMetricsSnapshot>;

impl<T> Ticket<T> {
    /// Polls for the reply without blocking. `Ok(None)` means "not
    /// yet"; `Err` means the scheduler is gone (for an [`ApplyTicket`]:
    /// died with the batch outcome indeterminate).
    pub fn try_take(&self) -> Result<Option<T>, DeadlineError> {
        match self.rx.try_recv() {
            Ok(r) => Ok(Some(r)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(DeadlineError::Disconnected),
        }
    }

    fn wait(self) -> Option<T> {
        self.rx.recv().ok()
    }

    fn wait_timeout(self, timeout: Duration) -> Result<T, DeadlineError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => DeadlineError::TimedOut,
            RecvTimeoutError::Disconnected => DeadlineError::Disconnected,
        })
    }
}

/// A scheduler thread driving a [`MaintenanceRuntime`].
pub struct Server<R> {
    handle: Handle,
    join: JoinHandle<R>,
}

/// The server of a runtime built with one view.
pub type ServeServer = Server<MaintenanceRuntime>;
/// The server of a runtime built over a registry.
pub type RegistryServer = Server<RegistryRuntime>;

impl<R> Server<R>
where
    R: Into<MaintenanceRuntime> + From<MaintenanceRuntime> + Send + 'static,
{
    /// Spawns the scheduler thread.
    pub fn spawn(runtime: R, cfg: ServerConfig) -> Self {
        let capacity = cfg.queue_capacity.max(1);
        let high_water = cfg.shed_high_water.map(|h| h.clamp(1, capacity));
        let (tx, rx) = channel::<Msg>(capacity, high_water);
        let mut rt: MaintenanceRuntime = runtime.into();
        // Publish the initial snapshots before the first client can
        // read, so stale reads are wait-free from the very start.
        let shared = Arc::new(Shared {
            snapshots: (0..rt.views())
                .map(|v| RwLock::new(rt.snapshot(v)))
                .collect(),
            snapshot_reads: AtomicU64::new(0),
            last_error: Mutex::new(None),
            fenced: AtomicBool::new(false),
            fence_seen: AtomicBool::new(false),
            tables: rt.tables(),
            hub: rt.hub().cloned(),
        });
        let handle = Handle {
            tx,
            shared: Arc::clone(&shared),
        };
        rt.set_faults(cfg.faults.clone());
        let join = std::thread::spawn(move || R::from(scheduler_loop(rt, rx, shared, cfg)));
        Server { handle, join }
    }

    /// A new producer/client handle.
    pub fn handle(&self) -> Handle {
        self.handle.clone()
    }

    /// The error that stopped (or is poisoning) the scheduler, if any.
    pub fn last_error(&self) -> Option<ServeError> {
        self.handle.last_error()
    }

    /// Drops this server's own handle and waits for the scheduler to
    /// drain and exit, returning the runtime with its final metrics and
    /// trace. Any handles cloned from this server must be dropped first.
    pub fn shutdown(self) -> R {
        let Server { handle, join } = self;
        drop(handle);
        join.join().expect("scheduler thread panicked")
    }
}

struct SchedulerState {
    ingest_errors: u64,
    max_depth: usize,
    shared: Arc<Shared>,
}

impl SchedulerState {
    fn poison(&self, runtime: &MaintenanceRuntime, during: &'static str, source: EngineError) {
        let err = ServeError {
            ticks: runtime.metrics().ticks,
            during,
            source,
        };
        *self
            .shared
            .last_error
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(err);
    }

    fn fenced(&self) -> bool {
        self.shared.fenced.load(Ordering::SeqCst)
    }

    /// Re-publishes the snapshot of every view that flushed (a view's
    /// snapshot `Arc` changes identity at every flush boundary and
    /// nowhere else), keeping idle ticks free of write-lock traffic.
    fn publish(&self, runtime: &MaintenanceRuntime) {
        for (view, slot) in self.shared.snapshots.iter().enumerate() {
            let current = runtime.snapshot(view);
            let unchanged = match (&*slot.read().unwrap_or_else(|e| e.into_inner()), &current) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                (None, None) => true,
                _ => false,
            };
            if !unchanged {
                *slot.write().unwrap_or_else(|e| e.into_inner()) = current;
            }
        }
    }
}

/// The error a fenced server returns for mutating requests.
fn fenced_error() -> EngineError {
    EngineError::Maintenance {
        message: "server is fenced (superseded by a promoted replica)".into(),
    }
}

fn scheduler_loop(
    mut runtime: MaintenanceRuntime,
    rx: Receiver<Msg>,
    shared: Arc<Shared>,
    cfg: ServerConfig,
) -> MaintenanceRuntime {
    let mut st = SchedulerState {
        ingest_errors: 0,
        max_depth: 0,
        shared,
    };
    loop {
        match rx.recv_timeout(cfg.tick_interval) {
            Ok(msg) => {
                // +1 counts the message being consumed, so a lone
                // quickly-drained message still registers as depth 1.
                st.max_depth = st.max_depth.max(rx.len() + 1);
                // Drain up to `max_batch` *events* before ticking: the
                // weight each message returns (its modification count)
                // is what the next flush must pay for, and compensation
                // cost grows superlinearly in that backlog. Counting
                // messages here would let batched ingest smuggle in
                // batch-size times more backlog per tick than the
                // single-mod path the budget was calibrated for.
                let mut drained = handle_msg(&mut runtime, msg, &rx, &mut st).max(1);
                while drained < cfg.max_batch.max(1) {
                    match rx.try_recv() {
                        Ok(msg) => {
                            st.max_depth = st.max_depth.max(rx.len() + 1);
                            drained += handle_msg(&mut runtime, msg, &rx, &mut st).max(1);
                        }
                        Err(_) => break,
                    }
                }
            }
            Err(RecvError::Timeout) => {}
            // One scheduler tick per drain window — including idle
            // windows, so policies observe quiet periods — but none
            // after disconnect: shutdown must not mutate state past the
            // last client interaction, or recorded traces would grow a
            // tail no client observed.
            Err(RecvError::Disconnected) => break,
        }
        if st.fenced() {
            // A fenced leader must not append another log record: no
            // ticks, no kills to honour — just keep answering reads and
            // metrics until every handle is dropped. Acknowledging the
            // fence here (after the drain above rejected any ingest)
            // gives promotion a happens-before edge: once acknowledged,
            // the sealed log can no longer grow.
            st.shared.fence_seen.store(true, Ordering::SeqCst);
            continue;
        }
        if let Err(source) = runtime.tick() {
            // A failed tick poisons the server: the flush (or its WAL
            // record) may be half-applied, so maintaining further would
            // compound the damage. Clients observe the disconnect.
            st.poison(&runtime, "tick", source);
            return runtime;
        }
        st.publish(&runtime);
        if cfg.faults.should_kill(runtime.wal_records()) {
            // Simulated crash: vanish without draining or replying.
            return runtime;
        }
    }
    runtime
}

/// Applies one queue message and returns its *event weight* — how many
/// pending-delta events it added. The drain loop charges this weight
/// (not a per-message unit) against [`ServerConfig::max_batch`], so the
/// backlog a tick can accumulate before flushing is bounded in events
/// however ingest is framed: 256 single-mod messages and four 64-mod
/// batches cost the same drain budget. Control messages (reads,
/// metrics) add no flush work and return 0; the drain loop still
/// charges every message a minimum of 1 so it always terminates.
fn handle_msg(
    runtime: &mut MaintenanceRuntime,
    msg: Msg,
    rx: &Receiver<Msg>,
    st: &mut SchedulerState,
) -> usize {
    match msg {
        Msg::Count { table, k } => {
            if st.fenced() {
                st.ingest_errors += 1;
            } else if let Err(source) = runtime.try_ingest_count(table, k) {
                st.ingest_errors += 1;
                st.poison(runtime, "ingest", source);
            }
            1
        }
        Msg::Dml { table, mods, done } => {
            let weight = mods.len();
            let outcome = if st.fenced() {
                // Ingests racing the fence are dropped unapplied (and
                // therefore unlogged): the sealed log cannot grow.
                st.ingest_errors += weight as u64;
                Err(fenced_error())
            } else {
                // A rejected modification mutated nothing: it is counted
                // and recorded, the rest of the batch still applies, and
                // the scheduler keeps serving.
                let mut first_err = None;
                for m in mods {
                    if let Err(source) = runtime.ingest_dml(table, m) {
                        st.ingest_errors += 1;
                        first_err.get_or_insert_with(|| source.clone());
                        st.poison(runtime, "ingest", source);
                    }
                }
                first_err.map_or(Ok(()), Err)
            };
            if let Some(done) = done {
                // Every applied modification is WAL-logged by the time
                // we get here (ingest logs after applying), so this
                // acknowledgement really is a durability acknowledgement.
                let _ = done.try_send(outcome);
            }
            weight
        }
        Msg::Read {
            view,
            mode,
            enqueued,
            reply,
        } => {
            let result = if st.fenced() && mode == ReadMode::Fresh {
                // A fresh read flushes (and logs); a fenced server must
                // not. Stale reads keep serving the sealed state.
                Err(fenced_error())
            } else {
                runtime.read_view_at(view, mode, enqueued)
            };
            if mode == ReadMode::Fresh {
                // The forced flush moved the view: a stale read issued
                // after this reply must not observe an older state.
                st.publish(runtime);
            }
            // `try_send` never blocks the scheduler on a requester that
            // gave up (the rendezvous slot holds one reply).
            let _ = reply.try_send(result);
            0
        }
        Msg::Metrics { reply } => {
            let mut snap = runtime.metrics_by_view();
            snap.global.queue_depth = rx.len();
            snap.global.max_queue_depth = st.max_depth;
            snap.global.shed_events = rx.shed_count();
            snap.global.ingest_errors = st.ingest_errors;
            snap.global.snapshot_reads = st.shared.snapshot_reads.load(Ordering::Relaxed);
            snap.global.last_error = st.shared.last_error().map(|e| e.to_string());
            let _ = reply.try_send(snap);
            0
        }
        Msg::SetBudget { budget } => {
            // A budget change is WAL-logged; the sealed log of a fenced
            // leader must not grow. Dropped silently — the coordinator
            // rebalances against the promoted replica. Otherwise an
            // invalid budget (or a WAL append failure) poisons the
            // server like a failed ingest would: the flush schedule can
            // no longer be reproduced from the log.
            if !st.fenced() {
                if let Err(source) = runtime.set_budget(budget) {
                    st.poison(runtime, "set-budget", source);
                }
            }
            0
        }
        Msg::FenceProbe => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::ServeConfig;
    use crate::OnlineFlush;
    use aivm_core::CostModel;

    fn model_runtime() -> MaintenanceRuntime {
        let cfg = ServeConfig::new(
            vec![CostModel::linear(0.05, 0.2), CostModel::linear(0.02, 3.0)],
            6.0,
        );
        MaintenanceRuntime::model(cfg, Box::new(OnlineFlush::new()))
    }

    fn spawn_model_server() -> ServeServer {
        ServeServer::spawn(model_runtime(), ServerConfig::default())
    }

    #[test]
    fn concurrent_producers_and_reader_stay_consistent() {
        let server = spawn_model_server();
        let mut producers = Vec::new();
        for table in 0..2usize {
            let h = server.handle();
            producers.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    assert!(h.ingest_count(table, 1));
                }
            }));
        }
        let reader = {
            let h = server.handle();
            std::thread::spawn(move || {
                let mut fresh = 0u64;
                for i in 0..20 {
                    let mode = if i % 2 == 0 {
                        ReadMode::Fresh
                    } else {
                        ReadMode::Stale
                    };
                    let r = h.read(mode).expect("server alive").expect("read ok");
                    assert!(!r.violated);
                    if matches!(mode, ReadMode::Fresh) {
                        assert_eq!(r.lag, 0);
                        fresh += 1;
                    }
                }
                fresh
            })
        };
        for p in producers {
            p.join().unwrap();
        }
        let fresh = reader.join().unwrap();
        let m = server.handle().metrics().expect("server alive");
        assert_eq!(m.events_ingested, 1000);
        assert!(m.fresh_reads >= fresh);
        assert_eq!(m.constraint_violations, 0);
        assert_eq!(m.shed_events, 0);
        assert_eq!(m.last_error, None);
        let runtime = server.shutdown();
        // Final flush accounting: everything ingested is either still
        // pending or was flushed.
        let final_metrics = runtime.metrics();
        let flushed: u64 = final_metrics.mods_flushed_per_table.iter().sum();
        let pending = runtime.pending().total();
        assert_eq!(flushed + pending, 1000);
    }

    #[test]
    fn engine_stale_reads_are_snapshot_served_and_counted() {
        use aivm_engine::{
            row, DataType, Database, MaterializedView, MinStrategy, Schema, ViewDef,
        };
        let mut db = Database::new();
        let t = db
            .create_table("t", Schema::new(vec![("id", DataType::Int)]))
            .unwrap();
        db.set_key_column(t, 0);
        let view = MaterializedView::new(
            &db,
            ViewDef {
                name: "v".into(),
                tables: vec!["t".into()],
                join_preds: vec![],
                filters: vec![None],
                residual: None,
                projection: None,
                aggregate: None,
                distinct: false,
            },
            MinStrategy::Multiset,
        )
        .unwrap();
        let cfg = ServeConfig::new(vec![CostModel::linear(0.5, 0.1)], 50.0);
        let rt =
            MaintenanceRuntime::engine(cfg, Box::new(crate::NaiveFlush::new()), db, view).unwrap();
        let server = ServeServer::spawn(rt, ServerConfig::default());
        let h = server.handle();
        // The initial (empty-view) snapshot is published at spawn:
        // stale reads are wait-free from the first client call.
        let snap0 = h.snapshot().expect("engine snapshot published at spawn");
        assert_eq!(snap0.rows.len(), 0);
        for i in 0..20i64 {
            assert!(h.ingest_dml(0, aivm_engine::Modification::Insert(row![i])));
        }
        // NaiveFlush only flushes a *full* state, and f(20) is far below
        // C here — force the catch-up with a Fresh read (FIFO: it queues
        // behind every DML, and its forced flush drains the remainder),
        // then wait for the published snapshot to reflect all 20 rows.
        h.read(ReadMode::Fresh).expect("alive").expect("fresh read");
        let deadline = Instant::now() + Duration::from_secs(5);
        let snap = loop {
            let s = h.snapshot().unwrap();
            if s.rows.len() == 20 {
                break s;
            }
            assert!(Instant::now() < deadline, "snapshot never caught up");
            std::thread::sleep(Duration::from_millis(2));
        };
        assert_eq!(snap.lag(), 0);
        // Stale reads serve that snapshot without a scheduler
        // round-trip and are counted separately from scheduler reads.
        let r = h.read(ReadMode::Stale).expect("alive").expect("read ok");
        assert_eq!(r.rows.as_ref().unwrap().len(), 20);
        assert_eq!(r.flush_cost, 0.0);
        let m = h.metrics().expect("alive");
        assert!(m.snapshot_reads >= 1, "got {}", m.snapshot_reads);
        assert_eq!(m.stale_reads, 0, "no stale read should reach the scheduler");
        drop(h);
        server.shutdown();
    }

    #[test]
    fn shutdown_returns_trace_of_everything_processed() {
        let server = spawn_model_server();
        let h = server.handle();
        for _ in 0..50 {
            assert!(h.ingest_count(0, 1));
        }
        h.read(ReadMode::Fresh).unwrap().unwrap();
        drop(h);
        let runtime = server.shutdown();
        let trace = runtime.trace().expect("tracing on");
        let ingested: u64 = trace.steps.iter().map(|s| s.arrivals.total()).sum();
        assert_eq!(ingested, 50);
        assert!(trace.steps.iter().any(|s| s.forced));
    }

    #[test]
    fn metrics_include_queue_depths() {
        let server = spawn_model_server();
        let h = server.handle();
        h.ingest_count(0, 1);
        let m = h.metrics().expect("alive");
        assert!(m.max_queue_depth >= 1);
        drop(h);
        server.shutdown();
    }

    #[test]
    fn deadline_read_times_out_behind_backlog_and_succeeds_when_generous() {
        let server = spawn_model_server();
        let h = server.handle();
        for _ in 0..2_000 {
            assert!(h.ingest_count(0, 1));
        }
        // 2000 queued events sit ahead of this read; a zero deadline
        // cannot be met.
        let err = h
            .read_deadline(ReadMode::Stale, Duration::ZERO)
            .expect_err("zero deadline behind a backlog must time out");
        assert_eq!(err, DeadlineError::TimedOut);
        // A generous deadline is served normally.
        let r = h
            .read_deadline(ReadMode::Fresh, Duration::from_secs(10))
            .expect("within deadline")
            .expect("read ok");
        assert!(!r.violated);
        assert_eq!(r.lag, 0);
        drop(h);
        server.shutdown();
    }

    #[test]
    fn bad_ingest_is_counted_not_fatal() {
        let server = spawn_model_server();
        let h = server.handle();
        // Table 7 does not exist; the scheduler must survive.
        assert!(h.ingest_count(7, 3));
        assert!(h.ingest_count(0, 2));
        let m = h.metrics().expect("scheduler alive after bad ingest");
        assert_eq!(m.ingest_errors, 1);
        assert_eq!(m.events_ingested, 2);
        drop(h);
        server.shutdown();
    }

    #[test]
    fn injected_policy_panic_degrades_without_violations() {
        let rt = model_runtime();
        let cfg = ServerConfig {
            faults: FaultPlan {
                policy_panic_at: Some(2),
                ..FaultPlan::none()
            },
            ..ServerConfig::default()
        };
        let server = ServeServer::spawn(rt, cfg);
        let h = server.handle();
        for _ in 0..200 {
            assert!(h.ingest_count(0, 1));
            assert!(h.ingest_count(1, 1));
        }
        // Let idle ticks pass t = 2 so the injected panic fires on a
        // policy tick (a Fresh read right now could swallow t = 2 with
        // its forced, policy-free flush).
        std::thread::sleep(Duration::from_millis(50));
        // Fresh reads keep satisfying the budget after the demotion.
        let r = h.read(ReadMode::Fresh).expect("alive").expect("read ok");
        assert!(!r.violated);
        let m = h.metrics().expect("alive");
        assert_eq!(m.policy_demotions, 1);
        assert_eq!(m.constraint_violations, 0);
        drop(h);
        let runtime = server.shutdown();
        assert!(runtime.demoted());
    }

    #[test]
    fn kill_fault_stops_scheduler_and_unblocks_clients() {
        use crate::wal::{MemWal, WalWriter};
        let mem = MemWal::new();
        let mut rt = model_runtime();
        rt.attach_wal(WalWriter::create(Box::new(mem.clone()), 4).unwrap());
        let cfg = ServerConfig {
            faults: FaultPlan {
                kill_at_record: Some(10),
                ..FaultPlan::none()
            },
            tick_interval: Duration::from_micros(100),
            ..ServerConfig::default()
        };
        let server = ServeServer::spawn(rt, cfg);
        let h = server.handle();
        // Keep feeding until the scheduler dies; sends start failing.
        let mut died = false;
        for _ in 0..10_000 {
            if !h.ingest_count(0, 1) {
                died = true;
                break;
            }
        }
        assert!(died, "kill fault never fired");
        assert!(h.read(ReadMode::Stale).is_none());
        assert!(h.last_error().is_none(), "a crash is silent");
        drop(h);
        let runtime = server.shutdown();
        assert!(runtime.wal_records() >= 10);
    }

    #[test]
    fn tracked_batch_acknowledges_after_apply_and_wal_append() {
        use crate::wal::{read_wal, MemWal, WalWriter};
        use aivm_engine::{
            row, DataType, Database, MaterializedView, MinStrategy, Schema, ViewDef,
        };
        let mem = MemWal::new();
        let mut db = Database::new();
        let t = db
            .create_table("t", Schema::new(vec![("id", DataType::Int)]))
            .unwrap();
        db.set_key_column(t, 0);
        let view = MaterializedView::new(
            &db,
            ViewDef {
                name: "v".into(),
                tables: vec!["t".into()],
                join_preds: vec![],
                filters: vec![None],
                residual: None,
                projection: None,
                aggregate: None,
                distinct: false,
            },
            MinStrategy::Multiset,
        )
        .unwrap();
        let cfg = ServeConfig::new(vec![CostModel::linear(0.5, 0.1)], 50.0);
        let mut rt =
            MaintenanceRuntime::engine(cfg, Box::new(crate::NaiveFlush::new()), db, view).unwrap();
        rt.attach_wal(WalWriter::create(Box::new(mem.clone()), 1).unwrap());
        let server = ServeServer::spawn(rt, ServerConfig::default());
        let h = server.handle();
        let mods: Vec<aivm_engine::Modification> = (0..5i64)
            .map(|i| aivm_engine::Modification::Insert(row![i]))
            .collect();
        let ticket = h.try_ingest_batch_tracked(0, mods).expect("enqueued");
        let deadline = Instant::now() + Duration::from_secs(5);
        let outcome = loop {
            match ticket.try_take().expect("scheduler alive") {
                Some(r) => break r,
                None => {
                    assert!(Instant::now() < deadline, "ack never arrived");
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        };
        outcome.expect("batch applied");
        // The acknowledgement implies durability: all 5 DML records are
        // already in the log.
        let dml = read_wal(&mem.bytes())
            .unwrap()
            .records
            .iter()
            .filter(|r| matches!(r, crate::wal::WalRecord::Dml { .. }))
            .count();
        assert_eq!(dml, 5);
        drop(h);
        server.shutdown();
    }

    #[test]
    fn fenced_server_rejects_ingest_and_stops_logging() {
        use crate::wal::{MemWal, WalWriter};
        let mem = MemWal::new();
        let mut rt = model_runtime();
        rt.attach_wal(WalWriter::create(Box::new(mem.clone()), 1).unwrap());
        let server = ServeServer::spawn(rt, ServerConfig::default());
        let h = server.handle();
        assert!(h.ingest_count(0, 1));
        h.fence();
        let deadline = Instant::now() + Duration::from_secs(5);
        while !h.fence_acknowledged() {
            assert!(Instant::now() < deadline, "fence never acknowledged");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Every ingest path rejects without touching the scheduler.
        assert!(!h.ingest_count(0, 1));
        assert!(!h.ingest_dml(
            0,
            aivm_engine::Modification::Insert(aivm_engine::row![1i64])
        ));
        assert!(matches!(
            h.try_ingest_batch(0, vec![]),
            Err(TrySendError::Disconnected)
        ));
        // Fresh reads (which would flush and log) error; metrics and
        // stale state stay available.
        let r = h.read(ReadMode::Fresh).expect("scheduler still replies");
        assert!(r.is_err(), "fresh read on a fenced server must fail");
        assert!(h.metrics().is_some());
        // The sealed log stops growing: no ticks are appended while
        // fenced.
        let frozen = mem.bytes().len();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(mem.bytes().len(), frozen, "fenced leader appended to WAL");
        drop(h);
        server.shutdown();
    }

    #[test]
    fn overload_sheds_oldest_ingest_and_counts_it() {
        let rt = model_runtime();
        let cfg = ServerConfig {
            queue_capacity: 1024,
            shed_high_water: Some(8),
            // Slow ticks so the queue actually fills.
            tick_interval: Duration::from_millis(20),
            ..ServerConfig::default()
        };
        let server = ServeServer::spawn(rt, cfg);
        let h = server.handle();
        for _ in 0..200 {
            assert!(h.ingest_count(0, 1));
        }
        let m = h.metrics().expect("alive");
        let runtime = {
            drop(h);
            server.shutdown()
        };
        let final_shed = m.shed_events;
        assert!(final_shed > 0, "high-water mark never triggered shedding");
        // Shed + ingested accounts for every send.
        assert_eq!(runtime.metrics().events_ingested + final_shed, 200);
    }
}
