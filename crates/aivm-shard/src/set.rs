//! The threaded serving layer: a [`ShardRouter`] fronting N
//! [`ServeServer`] handles, plus the [`Coordinator`] thread that
//! rebalances the global refresh budget across shards each epoch.
//!
//! # Failure semantics
//!
//! A shard whose scheduler has died (crashed, or killed by a chaos
//! plan) is detected on first use: its queue senders report
//! `Disconnected`, after which the router marks the slot dead.
//! Operations that *require* the dead shard (a submit routed to it)
//! fail fast — the caller sees "shard unavailable", which is
//! retry-safe because the rejection happens before any side effect.
//! Operations that can proceed without it (stale scatter-gather reads,
//! metrics) skip the dead shard and flag the merged result as
//! *degraded*. A recovered server can [`ShardRouter::rejoin`] the slot
//! at any time.
//!
//! # Budget-rebalance epoch protocol
//!
//! Every epoch the coordinator samples each live shard's
//! [`MetricsSnapshot`] and computes a per-shard *pressure* weight:
//!
//! ```text
//! w_i = Δ flush_cost_i + queue_depth_i · (Δ flush_cost_i / max(Δ events_i, 1)) + ε
//! ```
//!
//! i.e. the observed flush work this epoch plus the backlog priced at
//! the shard's own observed per-event cost — hot shards under a skewed
//! stream report large `w_i`. The global budget `C` is then divided:
//!
//! - [`RebalancePolicy::Uniform`]: `C_i = C / N` (the baseline; never
//!   moves).
//! - [`RebalancePolicy::CostProportional`]: `C_i = C · w_i / Σ w_j`,
//!   clamped below by `min_share · C / N` so a cold shard can always
//!   afford at least a small flush (and re-normalised to sum to `C`).
//!
//! New budgets are pushed with [`ServeHandle::set_budget`], which the
//! runtime WAL-logs (`WalRecord::SetBudget`) so crash recovery replays
//! the exact same flush schedule. Dead shards are excluded and their
//! budget share is redistributed over the live ones.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use aivm_engine::{EngineError, Modification, ViewDef};
use aivm_serve::{
    DeadlineError, MetricsSnapshot, ReadResult, ServeError, ServeHandle, SubscriptionHub, WalTail,
};

use crate::error::ShardError;
use crate::merge::MergeSpec;
use crate::partition::Partitioner;
use crate::runtime::{merge_reads, MergedRead};

/// Live replication state for one shard's follower, shared between the
/// replica thread (writer) and the router/metrics path (readers).
/// Cloning shares the same atomics.
#[derive(Clone, Debug, Default)]
pub struct ReplicaStatus {
    inner: Arc<ReplicaStatusInner>,
}

#[derive(Debug, Default)]
struct ReplicaStatusInner {
    applied: AtomicU64,
    leader_records: AtomicU64,
    epoch: AtomicU64,
    staleness: AtomicU64,
    healthy: AtomicBool,
}

impl ReplicaStatus {
    /// A fresh status (nothing applied, unhealthy until the first
    /// successful poll).
    pub fn new() -> ReplicaStatus {
        ReplicaStatus::default()
    }

    /// WAL records the follower has applied.
    pub fn applied(&self) -> u64 {
        self.inner.applied.load(Ordering::SeqCst)
    }

    /// Updates the applied-record count.
    pub fn set_applied(&self, v: u64) {
        self.inner.applied.store(v, Ordering::SeqCst);
    }

    /// Total records in the leader's WAL at the last poll.
    pub fn leader_records(&self) -> u64 {
        self.inner.leader_records.load(Ordering::SeqCst)
    }

    /// Updates the leader's record count.
    pub fn set_leader_records(&self, v: u64) {
        self.inner.leader_records.store(v, Ordering::SeqCst);
    }

    /// Replication lag: leader records not yet applied here.
    pub fn lag(&self) -> u64 {
        self.leader_records().saturating_sub(self.applied())
    }

    /// The leader epoch observed at the last poll.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::SeqCst)
    }

    /// Updates the observed leader epoch.
    pub fn set_epoch(&self, v: u64) {
        self.inner.epoch.store(v, Ordering::SeqCst);
    }

    /// The follower view's own staleness (pending modifications not
    /// yet flushed into its materialized view).
    pub fn staleness(&self) -> u64 {
        self.inner.staleness.load(Ordering::SeqCst)
    }

    /// Updates the follower staleness gauge.
    pub fn set_staleness(&self, v: u64) {
        self.inner.staleness.store(v, Ordering::SeqCst);
    }

    /// Whether the last poll cycle succeeded.
    pub fn healthy(&self) -> bool {
        self.inner.healthy.load(Ordering::SeqCst)
    }

    /// Marks the replica healthy/unhealthy.
    pub fn set_healthy(&self, v: bool) {
        self.inner.healthy.store(v, Ordering::SeqCst);
    }
}

/// One shard's place in the router.
enum Slot {
    Live(ServeHandle),
    /// Marked dead; keeps what the scheduler's last-error slot said at
    /// that moment, so a rejection long after the death still names
    /// the cause.
    Dead(Option<ServeError>),
}

/// Cloneable façade over the per-shard [`ServeHandle`]s.
#[derive(Clone)]
pub struct ShardRouter {
    inner: Arc<RouterInner>,
}

struct RouterInner {
    slots: Vec<RwLock<Slot>>,
    /// Views every shard maintains (shards are replicas of one schema).
    views: usize,
    /// The push-subscription hub: a delta stream is per scheduler, so
    /// only a one-shard router has one to offer.
    hub: Option<Arc<SubscriptionHub>>,
    part: Partitioner,
    merge: MergeSpec,
    /// The global refresh budget `C` the coordinator divides.
    global_budget: f64,
    /// Per-shard fencing epochs. Start at 1 (0 on the wire means
    /// "skip the check") and bump on every promotion, so a submit
    /// stamped with a pre-failover epoch is rejected pre-admission.
    epochs: Vec<AtomicU64>,
    /// Leader WAL tails registered for replication (one per shard).
    tails: Vec<RwLock<Option<WalTail>>>,
    /// Follower replication status (one per shard, when a replica is
    /// attached).
    replicas: Vec<RwLock<Option<ReplicaStatus>>>,
    /// Follower promotions executed over the router's lifetime.
    failovers: AtomicU64,
}

impl ShardRouter {
    /// Builds a router over per-shard handles. Validates the
    /// co-location invariant against `def` and derives the merge plan.
    /// `global_budget` is the total refresh budget the coordinator may
    /// redistribute (each shard should already be configured with its
    /// uniform share `C / N`).
    pub fn new(
        handles: Vec<ServeHandle>,
        part: Partitioner,
        def: &ViewDef,
        global_budget: f64,
    ) -> Result<Self, EngineError> {
        if handles.len() != part.shards() {
            return Err(ShardError::ShardCountMismatch {
                what: "handles",
                got: handles.len(),
                want: part.shards(),
            }
            .into());
        }
        part.validate(def)?;
        let merge = MergeSpec::from_def(def)?;
        Ok(Self::assemble(handles, part, merge, global_budget))
    }

    /// The N = 1 of the cluster: one scheduler behind the routing
    /// façade, with nothing to hash, nothing to merge and no budget to
    /// divide. This is what an unsharded server routes against, so
    /// sharded and unsharded serving share one request path.
    pub fn single(handle: ServeHandle, n_tables: usize) -> Self {
        let part = Partitioner::single(n_tables);
        Self::assemble(vec![handle], part, MergeSpec::bag(), 0.0)
    }

    fn assemble(
        handles: Vec<ServeHandle>,
        part: Partitioner,
        merge: MergeSpec,
        global_budget: f64,
    ) -> Self {
        let n = handles.len();
        ShardRouter {
            inner: Arc::new(RouterInner {
                views: handles[0].views(),
                hub: (n == 1).then(|| handles[0].hub().cloned()).flatten(),
                slots: handles
                    .into_iter()
                    .map(|h| RwLock::new(Slot::Live(h)))
                    .collect(),
                part,
                merge,
                global_budget,
                epochs: (0..n).map(|_| AtomicU64::new(1)).collect(),
                tails: (0..n).map(|_| RwLock::new(None)).collect(),
                replicas: (0..n).map(|_| RwLock::new(None)).collect(),
                failovers: AtomicU64::new(0),
            }),
        }
    }

    /// Number of shard slots (dead or alive).
    pub fn shards(&self) -> usize {
        self.inner.slots.len()
    }

    /// The partitioner.
    pub fn partitioner(&self) -> &Partitioner {
        &self.inner.part
    }

    /// The merge plan.
    pub fn merge_spec(&self) -> &MergeSpec {
        &self.inner.merge
    }

    /// The global budget the coordinator divides.
    pub fn global_budget(&self) -> f64 {
        self.inner.global_budget
    }

    /// Views every shard maintains.
    pub fn views(&self) -> usize {
        self.inner.views
    }

    /// The push-subscription hub, if this router fronts exactly one
    /// scheduler that publishes delta batches.
    pub fn hub(&self) -> Option<&Arc<SubscriptionHub>> {
        self.inner.hub.as_ref()
    }

    /// Runs `f` against shard `i`'s handle without cloning it (a handle
    /// clone takes the shard's queue lock twice); `None` when the slot
    /// is dead. `f` runs under the slot's read lock, so it must neither
    /// block nor call back into [`ShardRouter::mark_dead`].
    pub fn with_handle<T>(&self, i: usize, f: impl FnOnce(&ServeHandle) -> T) -> Option<T> {
        match &*self.inner.slots[i].read().unwrap() {
            Slot::Live(h) => Some(f(h)),
            Slot::Dead(_) => None,
        }
    }

    /// A clone of shard `i`'s handle, or `None` when the slot is dead.
    pub fn handle(&self, i: usize) -> Option<ServeHandle> {
        self.with_handle(i, ServeHandle::clone)
    }

    /// Marks shard `i` dead, dropping its handle. Idempotent.
    pub fn mark_dead(&self, i: usize) {
        let mut slot = self.inner.slots[i].write().unwrap();
        if let Slot::Live(h) = &*slot {
            *slot = Slot::Dead(h.last_error());
        }
    }

    /// Rejoins a recovered shard at slot `i`.
    pub fn rejoin(&self, i: usize, handle: ServeHandle) {
        *self.inner.slots[i].write().unwrap() = Slot::Live(handle);
    }

    /// The first scheduler error any shard has recorded, dead slots
    /// included — why the router cannot serve, when it cannot.
    pub fn last_error(&self) -> Option<ServeError> {
        self.inner
            .slots
            .iter()
            .find_map(|slot| match &*slot.read().unwrap() {
                Slot::Live(h) => h.last_error(),
                Slot::Dead(cause) => cause.clone(),
            })
    }

    /// Shard `i`'s current fencing epoch (starts at 1, bumped by every
    /// promotion).
    pub fn epoch_of(&self, i: usize) -> u64 {
        self.inner.epochs[i].load(Ordering::SeqCst)
    }

    /// Sum of per-shard epochs — a monotonic cluster-config version
    /// that advances exactly when any shard fails over.
    pub fn cluster_epoch(&self) -> u64 {
        self.inner
            .epochs
            .iter()
            .map(|e| e.load(Ordering::SeqCst))
            .sum()
    }

    /// Follower promotions executed over the router's lifetime.
    pub fn failovers(&self) -> u64 {
        self.inner.failovers.load(Ordering::SeqCst)
    }

    /// Registers shard `i`'s leader WAL tail so the network layer can
    /// serve `ReplicaSubscribe` requests against it.
    pub fn attach_wal_tail(&self, i: usize, tail: WalTail) {
        *self.inner.tails[i].write().unwrap() = Some(tail);
    }

    /// Shard `i`'s registered WAL tail, if any.
    pub fn wal_tail(&self, i: usize) -> Option<WalTail> {
        self.inner.tails[i].read().unwrap().clone()
    }

    /// Registers shard `i`'s follower status for metrics and staleness
    /// accounting.
    pub fn attach_replica(&self, i: usize, status: ReplicaStatus) {
        *self.inner.replicas[i].write().unwrap() = Some(status);
    }

    /// Shard `i`'s follower status, if a replica is attached.
    pub fn replica_status(&self, i: usize) -> Option<ReplicaStatus> {
        self.inner.replicas[i].read().unwrap().clone()
    }

    /// Installs a promoted follower as shard `i`'s new leader: fences
    /// whatever handle still occupies the slot (idempotent — the caller
    /// normally fenced and sealed it already), bumps the fencing epoch
    /// so in-flight submits stamped with the old one are rejected,
    /// swaps in `handle`, detaches the consumed replica status, and
    /// registers the new leader's WAL tail (the follower re-logged
    /// every applied record, so it is itself replicable). Returns the
    /// new epoch.
    pub fn promote(&self, i: usize, handle: ServeHandle, tail: Option<WalTail>) -> u64 {
        self.with_handle(i, ServeHandle::fence);
        // Bump the epoch *before* the new leader becomes reachable:
        // any submit that can route to the promoted follower is then
        // guaranteed to observe the post-failover epoch at the fence
        // check. (The other order leaves a window where a stale-epoch
        // submit passes the pre-check and is enqueued into the new
        // leader — the double-apply the fence exists to reject.) A
        // fresh-epoch submit racing the swap just sees an empty slot
        // and gets the retry-safe ShardUnavailable.
        let epoch = self.inner.epochs[i].fetch_add(1, Ordering::SeqCst) + 1;
        self.rejoin(i, handle);
        *self.inner.replicas[i].write().unwrap() = None;
        *self.inner.tails[i].write().unwrap() = tail;
        self.inner.failovers.fetch_add(1, Ordering::SeqCst);
        epoch
    }

    /// Splits a batch by owning shard (see [`Partitioner::split_batch`]).
    pub fn split_batch(
        &self,
        table: usize,
        mods: Vec<Modification>,
    ) -> Result<Vec<(usize, Vec<Modification>)>, EngineError> {
        self.inner.part.split_batch(table, mods)
    }

    /// Merges fan-out fresh-read results gathered by the caller (the
    /// network server collects per-shard tickets asynchronously).
    pub fn merge_reads(&self, results: &[ReadResult]) -> Result<MergedRead, EngineError> {
        merge_reads(&self.inner.merge, results)
    }

    /// Samples every live shard's metrics. Returns `(index, snapshot)`
    /// pairs; shards that fail to answer are marked dead and skipped.
    pub fn sample_metrics(&self) -> Vec<(usize, MetricsSnapshot)> {
        let mut out = Vec::with_capacity(self.shards());
        for i in 0..self.shards() {
            let Some(handle) = self.handle(i) else {
                continue;
            };
            match handle.metrics() {
                Some(m) => out.push((i, m)),
                None => self.mark_dead(i),
            }
        }
        out
    }
}

/// Aggregates per-shard metrics into one set-wide snapshot: counters
/// sum, gauges (queue depth, staleness, max cost) take the max,
/// `degraded` ORs, and the first shard error is surfaced. Histograms
/// merge bucket-wise upstream; here the pre-snapshotted summaries keep
/// the worst shard's tail (max of p99/max, count-weighted mean).
pub fn merge_metrics(shards: &[MetricsSnapshot]) -> MetricsSnapshot {
    let mut out = MetricsSnapshot::default();
    for m in shards {
        out.events_ingested += m.events_ingested;
        out.ticks += m.ticks;
        if out.flushes_per_table.len() < m.flushes_per_table.len() {
            out.flushes_per_table.resize(m.flushes_per_table.len(), 0);
            out.mods_flushed_per_table
                .resize(m.mods_flushed_per_table.len(), 0);
        }
        for (i, v) in m.flushes_per_table.iter().enumerate() {
            out.flushes_per_table[i] += v;
        }
        for (i, v) in m.mods_flushed_per_table.iter().enumerate() {
            out.mods_flushed_per_table[i] += v;
        }
        out.flush_count += m.flush_count;
        out.total_flush_cost += m.total_flush_cost;
        out.max_flush_cost = out.max_flush_cost.max(m.max_flush_cost);
        out.fresh_reads += m.fresh_reads;
        out.stale_reads += m.stale_reads;
        out.snapshot_reads += m.snapshot_reads;
        out.queue_depth += m.queue_depth;
        out.max_queue_depth = out.max_queue_depth.max(m.max_queue_depth);
        out.constraint_violations += m.constraint_violations;
        out.policy_demotions += m.policy_demotions;
        out.flush_errors += m.flush_errors;
        out.cost_overruns += m.cost_overruns;
        out.recalibrations += m.recalibrations;
        out.recoveries += m.recoveries;
        out.wal_records += m.wal_records;
        out.wal_fsync_lag = out.wal_fsync_lag.max(m.wal_fsync_lag);
        out.wal_sync_every = out.wal_sync_every.max(m.wal_sync_every);
        out.degraded |= m.degraded;
        out.shed_events += m.shed_events;
        out.ingest_errors += m.ingest_errors;
        if out.last_error.is_none() {
            out.last_error = m.last_error.clone();
        }
        out.budget += m.budget;
        out.budget_rebalances += m.budget_rebalances;

        // Histogram summaries: keep the worst tail, count-weighted mean.
        for (acc, part) in [
            (&mut out.flush_cost_millis, &m.flush_cost_millis),
            (&mut out.refresh_latency_ns, &m.refresh_latency_ns),
        ] {
            let combined = acc.count + part.count;
            if combined > 0 {
                acc.mean =
                    (acc.mean * acc.count as f64 + part.mean * part.count as f64) / combined as f64;
            }
            acc.count = combined;
            acc.p50 = acc.p50.max(part.p50);
            acc.p90 = acc.p90.max(part.p90);
            acc.p99 = acc.p99.max(part.p99);
            acc.max = acc.max.max(part.max);
        }
    }
    out
}

/// How the coordinator divides the global budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RebalancePolicy {
    /// `C / N` per shard, never moves. The baseline.
    Uniform,
    /// Proportional to observed per-shard flush pressure, floored at
    /// `min_share · C / N` (see module docs).
    CostProportional,
}

impl RebalancePolicy {
    /// Parses a policy name (`uniform` | `cost`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "uniform" => Some(RebalancePolicy::Uniform),
            "cost" | "cost-proportional" => Some(RebalancePolicy::CostProportional),
            _ => None,
        }
    }

    /// The canonical name.
    pub fn name(self) -> &'static str {
        match self {
            RebalancePolicy::Uniform => "uniform",
            RebalancePolicy::CostProportional => "cost",
        }
    }
}

/// Coordinator configuration.
#[derive(Clone, Debug)]
pub struct CoordinatorConfig {
    /// Sampling / rebalancing period.
    pub epoch: Duration,
    /// The division policy.
    pub policy: RebalancePolicy,
    /// Lower bound on a shard's share, as a fraction of the uniform
    /// share `C / N` (cost-proportional only).
    pub min_share: f64,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            epoch: Duration::from_millis(100),
            policy: RebalancePolicy::CostProportional,
            min_share: 0.25,
        }
    }
}

/// Summary of the coordinator's activity, for reporting.
#[derive(Clone, Debug, Default)]
pub struct CoordinatorStats {
    /// Epochs that completed (metrics sampled).
    pub epochs: u64,
    /// Budget pushes actually issued (no-op epochs are skipped).
    pub rebalances: u64,
    /// The last computed per-shard budgets.
    pub last_budgets: Vec<f64>,
}

/// The budget-rebalancing thread. Spawn with [`Coordinator::spawn`],
/// stop with [`Coordinator::stop`].
pub struct Coordinator {
    stop: Arc<AtomicBool>,
    stats: Arc<Mutex<CoordinatorStats>>,
    join: Option<thread::JoinHandle<()>>,
}

impl Coordinator {
    /// Spawns the epoch loop over `router`.
    pub fn spawn(router: ShardRouter, cfg: CoordinatorConfig) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(Mutex::new(CoordinatorStats::default()));
        let stop2 = Arc::clone(&stop);
        let stats2 = Arc::clone(&stats);
        let join = thread::Builder::new()
            .name("aivm-shard-coordinator".into())
            .spawn(move || epoch_loop(router, cfg, stop2, stats2))
            .expect("spawn coordinator thread");
        Coordinator {
            stop,
            stats,
            join: Some(join),
        }
    }

    /// Stops the loop and returns the activity summary.
    pub fn stop(mut self) -> CoordinatorStats {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
        let stats = self.stats.lock().unwrap().clone();
        stats
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

fn epoch_loop(
    router: ShardRouter,
    cfg: CoordinatorConfig,
    stop: Arc<AtomicBool>,
    stats: Arc<Mutex<CoordinatorStats>>,
) {
    let n = router.shards();
    let c = router.global_budget();
    // Last observed cumulative (flush cost, events) per shard, for deltas.
    let mut last: Vec<(f64, u64)> = vec![(0.0, 0); n];
    let mut current: Vec<f64> = vec![f64::NAN; n];
    while !stop.load(Ordering::SeqCst) {
        thread::sleep(cfg.epoch);
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let samples = router.sample_metrics();
        if samples.is_empty() {
            continue;
        }
        // Pressure: flush cost since the last epoch, plus the queued
        // backlog priced at this epoch's per-event cost.
        let pressure: Vec<(usize, f64)> = samples
            .iter()
            .map(|(i, m)| {
                let (lc, le) = last[*i];
                let dcost = (m.total_flush_cost - lc).max(0.0);
                let devents = m.events_ingested.saturating_sub(le);
                let per_event = dcost / (devents.max(1) as f64);
                (*i, dcost + m.queue_depth as f64 * per_event)
            })
            .collect();
        let targets = split_budget(&cfg, c, n, &pressure);
        for (i, m) in &samples {
            last[*i] = (m.total_flush_cost, m.events_ingested);
        }
        let mut pushed = 0u64;
        for (i, b) in &targets {
            // Skip sub-0.1% moves: avoids WAL churn from jitter.
            let prev = current[*i];
            if prev.is_finite() && (b - prev).abs() <= 1e-3 * prev {
                continue;
            }
            if let Some(handle) = router.handle(*i) {
                if handle.set_budget(*b) {
                    current[*i] = *b;
                    pushed += 1;
                } else {
                    router.mark_dead(*i);
                }
            }
        }
        let mut st = stats.lock().unwrap();
        st.epochs += 1;
        st.rebalances += pushed;
        st.last_budgets = current.clone();
    }
}

/// One epoch's division of the global budget `c` over the live shards
/// in `pressure` (`n` slots in all). Uniform gives every live shard
/// `c / live`; cost-proportional splits `c` by pressure, floors each
/// share at `min_share · c / n`, and re-normalises so the shares sum to
/// `c`.
fn split_budget(
    cfg: &CoordinatorConfig,
    c: f64,
    n: usize,
    pressure: &[(usize, f64)],
) -> Vec<(usize, f64)> {
    let live = pressure.len() as f64;
    match cfg.policy {
        // Redistributes only on membership change (shard death).
        RebalancePolicy::Uniform => pressure.iter().map(|(i, _)| (*i, c / live)).collect(),
        RebalancePolicy::CostProportional => {
            let weight = |p: f64| p + 1e-9;
            let total: f64 = pressure.iter().map(|(_, p)| weight(*p)).sum();
            let floor = cfg.min_share * c / n as f64;
            let mut t: Vec<(usize, f64)> = pressure
                .iter()
                .map(|(i, p)| (*i, (c * weight(*p) / total).max(floor)))
                .collect();
            let sum: f64 = t.iter().map(|(_, b)| b).sum();
            for (_, b) in t.iter_mut() {
                *b *= c / sum;
            }
            t
        }
    }
}

/// Failure-detection configuration for the [`FailoverMonitor`].
#[derive(Clone, Debug)]
pub struct FailoverConfig {
    /// Probe period.
    pub probe_interval: Duration,
    /// How long one probe may wait for the shard's scheduler to answer
    /// before it counts as a failure.
    pub ping_deadline: Duration,
    /// Consecutive probe failures before the shard is declared dead
    /// and its promoter runs (a single missed deadline on a loaded
    /// 1-core box is not a death sentence).
    pub fail_threshold: u32,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        FailoverConfig {
            probe_interval: Duration::from_millis(10),
            ping_deadline: Duration::from_millis(150),
            fail_threshold: 3,
        }
    }
}

/// A one-shot promotion action for a shard: runs on the monitor thread
/// after the shard is declared dead, with the router and the dead slot
/// index. Expected to seal the old leader's log, catch the follower up,
/// and call [`ShardRouter::promote`].
pub type Promoter = Box<dyn FnOnce(&ShardRouter, usize) + Send>;

/// Summary of the failover monitor's activity.
#[derive(Clone, Debug, Default)]
pub struct FailoverStats {
    /// Probe rounds completed.
    pub probes: u64,
    /// Shards declared dead (promoter invoked or slot left dead).
    pub failovers: u64,
}

/// The health-check/promotion thread: probes every live shard's
/// scheduler each `probe_interval` via a metrics ticket; a shard that
/// misses `ping_deadline` `fail_threshold` times in a row is marked
/// dead and its [`Promoter`] (if any) runs to install the follower.
pub struct FailoverMonitor {
    stop: Arc<AtomicBool>,
    stats: Arc<Mutex<FailoverStats>>,
    join: Option<thread::JoinHandle<()>>,
}

impl FailoverMonitor {
    /// Spawns the probe loop. `promoters[i]` (when present) runs at
    /// most once, after shard `i` is declared dead.
    pub fn spawn(
        router: ShardRouter,
        cfg: FailoverConfig,
        promoters: Vec<Option<Promoter>>,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(Mutex::new(FailoverStats::default()));
        let stop2 = Arc::clone(&stop);
        let stats2 = Arc::clone(&stats);
        let join = thread::Builder::new()
            .name("aivm-shard-failover".into())
            .spawn(move || probe_loop(router, cfg, promoters, stop2, stats2))
            .expect("spawn failover monitor thread");
        FailoverMonitor {
            stop,
            stats,
            join: Some(join),
        }
    }

    /// Stops the loop and returns the activity summary.
    pub fn stop(mut self) -> FailoverStats {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
        let stats = self.stats.lock().unwrap().clone();
        stats
    }
}

impl Drop for FailoverMonitor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// One liveness probe: enqueue a metrics request and poll its ticket
/// until `deadline`. Queue-full is *not* a failure (the scheduler is
/// alive, just busy); a dead sender, a disconnected ticket, or deadline
/// expiry is.
fn probe_shard(handle: &ServeHandle, deadline: Duration) -> bool {
    let Some(ticket) = handle.begin_metrics() else {
        // Control sends bypass capacity; None means a dead scheduler.
        return false;
    };
    let due = Instant::now() + deadline;
    loop {
        match ticket.try_take() {
            Ok(Some(_)) => return true,
            Ok(None) => {
                if Instant::now() >= due {
                    return false;
                }
                thread::sleep(Duration::from_micros(200));
            }
            Err(DeadlineError::Disconnected) => return false,
            Err(DeadlineError::TimedOut) => return false,
        }
    }
}

fn probe_loop(
    router: ShardRouter,
    cfg: FailoverConfig,
    promoters: Vec<Option<Promoter>>,
    stop: Arc<AtomicBool>,
    stats: Arc<Mutex<FailoverStats>>,
) {
    let n = router.shards();
    let mut strikes = vec![0u32; n];
    let mut promoters: Vec<Option<Promoter>> = {
        let mut p = promoters;
        p.resize_with(n, || None);
        p
    };
    while !stop.load(Ordering::SeqCst) {
        thread::sleep(cfg.probe_interval);
        if stop.load(Ordering::SeqCst) {
            break;
        }
        for i in 0..n {
            let Some(handle) = router.handle(i) else {
                // Another path (a routed submit, a read) already marked
                // the slot dead; run the pending promoter now instead
                // of waiting for probe strikes that can never clear.
                if let Some(promote) = promoters[i].take() {
                    promote(&router, i);
                    stats.lock().unwrap().failovers += 1;
                }
                continue;
            };
            if probe_shard(&handle, cfg.ping_deadline) {
                strikes[i] = 0;
                continue;
            }
            strikes[i] += 1;
            if strikes[i] < cfg.fail_threshold {
                continue;
            }
            strikes[i] = 0;
            // Fence the suspect *before* dropping its handle and
            // running the promoter. A declared-dead leader can be
            // merely slow (`fail_threshold` anticipates exactly that);
            // unfenced it would keep acking and WAL-appending after
            // the promoter's drain snapshot — acknowledged-write loss
            // plus split-brain. Spinning on the acknowledgement makes
            // the seal point a real happens-before edge: once the
            // scheduler has observed the fence (or is gone, which
            // acknowledges vacuously) its log can no longer grow.
            handle.fence();
            while !handle.fence_acknowledged() {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                thread::sleep(Duration::from_micros(200));
            }
            drop(handle);
            router.mark_dead(i);
            if let Some(promote) = promoters[i].take() {
                promote(&router, i);
            }
            stats.lock().unwrap().failovers += 1;
        }
        stats.lock().unwrap().probes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivm_core::CostModel;
    use aivm_serve::{MaintenanceRuntime, NaiveFlush, ServeConfig, ServeServer, ServerConfig};

    #[test]
    fn budget_splits_sum_to_c_and_follow_pressure() {
        let c = 12.0;
        let pressure = [(0, 30.0), (1, 10.0), (2, 0.0)];
        let split = |policy, live: &[(usize, f64)]| {
            let cfg = CoordinatorConfig {
                policy,
                ..CoordinatorConfig::default()
            };
            let shares = split_budget(&cfg, c, 3, live);
            let sum: f64 = shares.iter().map(|(_, b)| b).sum();
            assert!((sum - c).abs() < 1e-9, "{policy:?} {shares:?}");
            shares.into_iter().map(|(_, b)| b).collect::<Vec<f64>>()
        };
        assert_eq!(split(RebalancePolicy::Uniform, &pressure), vec![4.0; 3]);
        // A dead shard's share goes to the live ones.
        assert_eq!(
            split(RebalancePolicy::Uniform, &pressure[..2]),
            vec![6.0; 2]
        );
        let cost = split(RebalancePolicy::CostProportional, &pressure);
        assert!(cost[0] > cost[1] && cost[1] > cost[2], "{cost:?}");
        assert!(cost[0] > c / 3.0, "the costliest shard gains: {cost:?}");
        assert!(cost[2] > 0.0, "an idle shard keeps its floor: {cost:?}");
    }

    /// The deployed loop: two counts-only shards, all traffic on shard 0.
    /// The pushed budgets move toward shard 0 and keep summing to `C` (up
    /// to the loop's skipped sub-0.1% moves).
    #[test]
    fn coordinator_pushes_budget_toward_the_loaded_shard() {
        let c = 40.0;
        let servers: Vec<ServeServer> = (0..2)
            .map(|_| {
                let cfg = ServeConfig::new(vec![CostModel::linear(0.5, 1.0)], c / 2.0);
                let rt = MaintenanceRuntime::model(cfg, Box::new(NaiveFlush::new()));
                ServeServer::spawn(rt, ServerConfig::default())
            })
            .collect();
        let def = ViewDef {
            name: "v".into(),
            tables: vec!["t".into()],
            join_preds: vec![],
            filters: vec![None],
            residual: None,
            projection: None,
            aggregate: None,
            distinct: false,
        };
        let handles = servers.iter().map(ServeServer::handle).collect();
        let part = Partitioner::new(2, vec![Some(0)]).unwrap();
        let router = ShardRouter::new(handles, part, &def, c).unwrap();
        let cfg = CoordinatorConfig {
            epoch: Duration::from_millis(5),
            ..CoordinatorConfig::default()
        };
        let coordinator = Coordinator::spawn(router.clone(), cfg);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            assert!(servers[0].handle().ingest_count(0, 8));
            let budgets: Vec<f64> = router
                .sample_metrics()
                .iter()
                .map(|(_, m)| m.budget)
                .collect();
            if budgets[0] > budgets[1] {
                break;
            }
            assert!(Instant::now() < deadline, "budget never moved: {budgets:?}");
            thread::sleep(Duration::from_millis(1));
        }
        let stats = coordinator.stop();
        assert!(stats.rebalances > 0);
        let sum: f64 = stats.last_budgets.iter().sum();
        assert!((sum - c).abs() <= 1e-3 * c, "{:?}", stats.last_budgets);
        drop(router);
        for s in servers {
            s.shutdown();
        }
    }

    #[test]
    fn rebalance_policy_parses() {
        assert_eq!(
            RebalancePolicy::parse("uniform"),
            Some(RebalancePolicy::Uniform)
        );
        assert_eq!(
            RebalancePolicy::parse("cost"),
            Some(RebalancePolicy::CostProportional)
        );
        assert_eq!(RebalancePolicy::parse("nope"), None);
        assert_eq!(RebalancePolicy::CostProportional.name(), "cost");
    }

    #[test]
    fn merge_metrics_sums_counters_and_maxes_gauges() {
        let a = MetricsSnapshot {
            events_ingested: 10,
            queue_depth: 3,
            max_flush_cost: 5.0,
            budget: 8.0,
            ..Default::default()
        };
        let b = MetricsSnapshot {
            events_ingested: 7,
            queue_depth: 9,
            max_flush_cost: 2.0,
            budget: 8.0,
            degraded: true,
            ..Default::default()
        };
        let m = merge_metrics(&[a, b]);
        assert_eq!(m.events_ingested, 17);
        assert_eq!(m.queue_depth, 12);
        assert_eq!(m.max_flush_cost, 5.0);
        assert_eq!(m.budget, 16.0);
        assert!(m.degraded);
    }
}
