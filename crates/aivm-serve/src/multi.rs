//! Multi-view serving: one scheduler over a [`ViewRegistry`], with
//! seq-tagged delta publication for push subscriptions.
//!
//! [`RegistryRuntime`] generalizes [`MaintenanceRuntime`] from one view
//! to a registry of N views over shared base tables. The paper's
//! knapsack stays intact — only the axis changes: instead of one cost
//! function per base table, the policy sees one per *(sharing group ×
//! table)* **cell** of the registry's flattened scheduling axis, so a
//! single asymmetric budget `C` drives "which view × which table to
//! flush". A cell's cost function is the per-table model scaled by
//! `1 + APPLY_SHARE·(m − 1)` for a group of `m` views: propagation runs
//! once per group (the sharing win), but every member still pays its
//! own apply/projection share.
//!
//! ## Delta publication
//!
//! Every flush boundary publishes, per touched view, a [`DeltaBatch`]:
//! the signed row difference between consecutive snapshots, tagged with
//! the snapshot's `seq` and content checksum. Batches land in the
//! [`SubscriptionHub`] — a bounded per-view ring the network layer
//! reads when pushing `ViewDelta` frames to subscribers. Because view
//! snapshot `seq`s increment by exactly one per flush, a subscriber
//! holding `seq = s` resumes with no gap and no duplicate by asking for
//! `s + 1`; when the ring has already evicted that seq (a slow or
//! long-disconnected subscriber), [`SubscriptionHub::fetch`] degrades
//! to a snapshot resync instead of stalling the flush path or queueing
//! without bound.
//!
//! ## Durability
//!
//! The WAL story is the single-view one with a view axis: `Dml` records
//! carry the *registry-global* table index, `Tick` records replay the
//! (deterministic) policy, and per-view fresh reads log
//! [`WalRecord::ForcedView`]. Recovery is a single deterministic replay
//! from the genesis registry — registry checkpoints are future work, so
//! [`RegistryRuntime::recover`] replays the whole log (bounded in tests
//! and benches; production-scale logs would add a checkpoint exactly
//! like the single-view runtime's).
//!
//! The threaded layer is the generic [`Server`](crate::server::Server):
//! [`RegistryRuntime`] implements [`Runtime`] and is driven by the same
//! scheduler loop, queue, tickets, fence and snapshot slots as the
//! single-view runtime.

use crate::fault::FaultPlan;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::policy::{FlushPolicy, NaiveFlush};
use crate::runtime::{ReadMode, ReadResult};
use crate::server::Runtime;
use crate::wal::{read_wal, WalRecord, WalWriter};
use aivm_core::{fits, total_cost, CostModel, Counts};
use aivm_engine::exec::consolidate;
use aivm_engine::{EngineError, Modification, ViewRegistry, ViewSnapshot, WRow};
use aivm_solver::PolicyContext;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Fraction of a table's propagation cost charged per *additional*
/// group member: propagation runs once per group, but each member pays
/// its own apply/projection work on the shared join delta.
pub const APPLY_SHARE: f64 = 0.1;

/// Capacity of each view's delta ring in the [`SubscriptionHub`]. A
/// subscriber more than this many flushes behind is resynced from the
/// snapshot instead of replayed delta-by-delta.
pub const DELTA_RING_CAP: usize = 64;

/// One seq-tagged delta batch published at a flush boundary.
#[derive(Clone, Debug)]
pub struct DeltaBatch {
    /// The registry view this batch belongs to.
    pub view: u32,
    /// The snapshot seq this batch *produces*: folding it into the
    /// state at `seq - 1` yields the state at `seq`.
    pub seq: u64,
    /// Signed row difference (consolidated; weight > 0 added, < 0
    /// removed). Empty when the flush left the view unchanged.
    pub rows: Vec<WRow>,
    /// Content checksum of the post-fold state (the snapshot's
    /// checksum) — subscribers verify their folded state against it.
    pub checksum: u64,
    /// Total pending modifications not yet reflected at publication
    /// (the view's staleness at this flush boundary).
    pub staleness: u64,
}

/// What [`SubscriptionHub::fetch`] found for a subscriber's position.
pub enum FetchOutcome {
    /// The subscriber is at the head: nothing new to push.
    AtHead,
    /// In-ring delta batches starting exactly at the requested seq.
    Deltas(Vec<Arc<DeltaBatch>>),
    /// The requested seq fell off the ring (or is from a different
    /// incarnation): the subscriber must restart from this snapshot.
    Resync(Arc<ViewSnapshot>),
}

struct ViewChannel {
    /// Seq of `batches[0]`; `batches[i].seq == base_seq + i`.
    base_seq: u64,
    batches: VecDeque<Arc<DeltaBatch>>,
    /// The latest published snapshot (resync source).
    snapshot: Arc<ViewSnapshot>,
    /// Delta batches published over this view's lifetime.
    deltas_pushed: u64,
}

/// The handoff point between the scheduler (publisher) and network
/// workers (subscribers): per-view bounded delta rings plus the latest
/// snapshot. All methods are short critical sections — the flush path
/// never blocks on a slow subscriber, and a subscriber that outruns the
/// ring is degraded to a snapshot resync by construction.
pub struct SubscriptionHub {
    channels: Vec<Mutex<ViewChannel>>,
    subscribers: Vec<AtomicU64>,
    sub_lag_max: Vec<AtomicU64>,
}

impl SubscriptionHub {
    fn new(snapshots: Vec<Arc<ViewSnapshot>>) -> Self {
        let n = snapshots.len();
        SubscriptionHub {
            channels: snapshots
                .into_iter()
                .map(|snapshot| {
                    Mutex::new(ViewChannel {
                        base_seq: snapshot.seq + 1,
                        batches: VecDeque::new(),
                        snapshot,
                        deltas_pushed: 0,
                    })
                })
                .collect(),
            subscribers: (0..n).map(|_| AtomicU64::new(0)).collect(),
            sub_lag_max: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of views the hub carries.
    pub fn views(&self) -> usize {
        self.channels.len()
    }

    fn lock(&self, view: usize) -> std::sync::MutexGuard<'_, ViewChannel> {
        self.channels[view]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Publishes one flush boundary (scheduler thread only).
    fn publish(&self, view: usize, batch: DeltaBatch, snapshot: Arc<ViewSnapshot>) {
        let mut ch = self.lock(view);
        let head = ch.base_seq + ch.batches.len() as u64;
        if batch.seq != head {
            // A seq discontinuity (recovery restart): the ring's
            // history no longer chains to this batch. Drop it — every
            // subscriber resyncs.
            ch.batches.clear();
            ch.base_seq = batch.seq;
        }
        ch.batches.push_back(Arc::new(batch));
        while ch.batches.len() > DELTA_RING_CAP {
            ch.batches.pop_front();
            ch.base_seq += 1;
        }
        ch.snapshot = snapshot;
        ch.deltas_pushed += 1;
    }

    /// The latest published snapshot of a view (O(1) `Arc` clone).
    pub fn snapshot(&self, view: usize) -> Arc<ViewSnapshot> {
        Arc::clone(&self.lock(view).snapshot)
    }

    /// The seq of the latest published batch (the head a subscriber
    /// lags behind); equals the latest snapshot's seq.
    pub fn head_seq(&self, view: usize) -> u64 {
        self.lock(view).snapshot.seq
    }

    /// Collects everything a subscriber at `from_seq` should receive
    /// next (at most `max` batches per call, bounding one push's frame
    /// burst). `from_seq` is the *next* seq the subscriber expects.
    pub fn fetch(&self, view: usize, from_seq: u64, max: usize) -> FetchOutcome {
        let ch = self.lock(view);
        let head = ch.base_seq + ch.batches.len() as u64;
        if from_seq == head {
            return FetchOutcome::AtHead;
        }
        if from_seq < ch.base_seq || from_seq > head {
            // Fell off the ring (slow subscriber) or from a different
            // incarnation (seq ahead of everything we published).
            return FetchOutcome::Resync(Arc::clone(&ch.snapshot));
        }
        let start = (from_seq - ch.base_seq) as usize;
        let end = ch.batches.len().min(start + max.max(1));
        FetchOutcome::Deltas(ch.batches.range(start..end).cloned().collect())
    }

    /// Registers a connected subscriber (network layer bookkeeping).
    pub fn subscriber_opened(&self, view: usize) {
        self.subscribers[view].fetch_add(1, Ordering::Relaxed);
    }

    /// Unregisters a disconnected subscriber.
    pub fn subscriber_closed(&self, view: usize) {
        let prev = self.subscribers[view].fetch_sub(1, Ordering::Relaxed);
        debug_assert!(prev > 0, "subscriber count underflow for view {view}");
    }

    /// Live subscriber count for a view.
    pub fn subscriber_count(&self, view: usize) -> u64 {
        self.subscribers[view].load(Ordering::Relaxed)
    }

    /// Records an observed subscriber lag (seqs behind head); the
    /// per-view maximum is surfaced in metrics.
    pub fn note_lag(&self, view: usize, lag: u64) {
        self.sub_lag_max[view].fetch_max(lag, Ordering::Relaxed);
    }

    /// The largest subscriber lag observed for a view.
    pub fn sub_lag_max(&self, view: usize) -> u64 {
        self.sub_lag_max[view].load(Ordering::Relaxed)
    }

    /// Delta batches published for a view over its lifetime.
    pub fn deltas_pushed(&self, view: usize) -> u64 {
        self.lock(view).deltas_pushed
    }
}

/// Folds a delta batch into a subscriber's local state (consolidated
/// weighted rows). The inverse of the publisher's snapshot diff:
/// `fold(state@seq-1, batch@seq) = state@seq`. Subscribers verify the
/// result against [`DeltaBatch::checksum`] with
/// [`aivm_engine::rows_checksum`].
pub fn fold_delta(state: Vec<WRow>, batch: &DeltaBatch) -> Vec<WRow> {
    if batch.rows.is_empty() {
        return state;
    }
    let mut rows = state;
    rows.extend(batch.rows.iter().cloned());
    consolidate(rows)
}

/// Per-view counters in a [`MultiMetricsSnapshot`].
#[derive(Clone, Debug, Default)]
pub struct ViewMetricsSnapshot {
    /// Registry view id.
    pub view: u32,
    /// Sharing-group index.
    pub group: u32,
    /// Flushes this view has closed (its snapshot seq head).
    pub flushes: u64,
    /// Pending modifications per base table of the view — the per-view
    /// staleness vector.
    pub staleness: Vec<u64>,
    /// Total pending modifications (sum of `staleness`).
    pub pending: u64,
    /// Ticks after which refreshing this view's group would have
    /// exceeded the budget `C` (must stay 0 for a correct policy).
    pub violations: u64,
    /// Delta batches published for this view.
    pub deltas_pushed: u64,
    /// Live push subscribers.
    pub subscribers: u64,
    /// Largest observed subscriber lag (seqs behind head).
    pub sub_lag_max: u64,
}

/// A [`MetricsSnapshot`] with the view axis attached.
#[derive(Clone, Debug, Default)]
pub struct MultiMetricsSnapshot {
    /// Scheduler-global counters. Per-table vectors run over the
    /// registry's flattened (group × table) cell axis.
    pub global: MetricsSnapshot,
    /// Per-view rows, indexed by view id.
    pub views: Vec<ViewMetricsSnapshot>,
    /// Sharing groups in the registry.
    pub groups: u64,
    /// Join propagations actually executed.
    pub propagations: u64,
    /// Propagations saved by sharing (each would have been paid by an
    /// independent runtime).
    pub shared_propagations: u64,
}

/// Configuration of a [`RegistryRuntime`].
#[derive(Clone, Debug)]
pub struct MultiConfig {
    /// Per-base-table cost functions over the runtime's *global* table
    /// axis (distinct tables across all registered views, in first-
    /// appearance order — see [`RegistryRuntime::table_names`]). Cell
    /// costs are derived from these by fan-out scaling.
    pub table_costs: Vec<CostModel>,
    /// The refresh response-time budget `C` (shared across all views).
    pub budget: f64,
    /// Return typed errors on constraint violations instead of only
    /// counting them.
    pub strict: bool,
    /// Worker threads for delta propagation inside flushes.
    pub flush_threads: usize,
}

impl MultiConfig {
    /// A config with strict mode off and serial flushes.
    pub fn new(table_costs: Vec<CostModel>, budget: f64) -> Self {
        MultiConfig {
            table_costs,
            budget,
            strict: false,
            flush_threads: 1,
        }
    }
}

/// The synchronous multi-view maintenance core. See the module docs.
pub struct RegistryRuntime {
    registry: ViewRegistry,
    /// Global ingest axis: distinct table names across all views, in
    /// first-appearance order. `Dml` WAL records and the wire `Submit`
    /// frame address tables by index into this axis.
    table_names: Vec<String>,
    /// Engine table id per global table index.
    table_ids: Vec<aivm_engine::TableId>,
    /// Cells fed by each global table index.
    cell_routes: Vec<Vec<usize>>,
    ctx: PolicyContext,
    policy: Box<dyn FlushPolicy>,
    /// Pending counts over the cell axis (the paper's `s`, view-major).
    pending: Counts,
    window: Counts,
    t: usize,
    strict: bool,
    metrics: Metrics,
    wal: Option<WalWriter>,
    hub: Arc<SubscriptionHub>,
    /// Last snapshot pushed to the hub, per view (diff base).
    published: Vec<Arc<ViewSnapshot>>,
    view_violations: Vec<u64>,
    faults: FaultPlan,
    demoted: bool,
    rebalances: u64,
    recoveries: u64,
}

impl RegistryRuntime {
    /// Wraps a registry (register all views first — the scheduling axis
    /// is fixed at construction). `cfg.table_costs` must have one entry
    /// per distinct base table across the registered views.
    pub fn new(
        cfg: MultiConfig,
        mut policy: Box<dyn FlushPolicy>,
        mut registry: ViewRegistry,
    ) -> Result<Self, EngineError> {
        if registry.view_count() == 0 {
            return Err(EngineError::Maintenance {
                message: "registry runtime needs at least one registered view".into(),
            });
        }
        registry.set_flush_threads(cfg.flush_threads.max(1));
        // Global table axis: first-appearance order across views.
        let mut table_names: Vec<String> = Vec::new();
        for v in 0..registry.view_count() {
            for name in &registry.view(v).def().tables {
                if !table_names.iter().any(|t| t == name) {
                    table_names.push(name.clone());
                }
            }
        }
        if cfg.table_costs.len() != table_names.len() {
            return Err(EngineError::Maintenance {
                message: format!(
                    "cost vector arity {} != {} distinct base tables",
                    cfg.table_costs.len(),
                    table_names.len()
                ),
            });
        }
        let table_ids = table_names
            .iter()
            .map(|t| registry.db().table_id(t))
            .collect::<Result<Vec<_>, _>>()?;
        // Cell axis: costs scaled by fan-out, routes from global tables.
        let cells = registry.cells().to_vec();
        let fanout = registry.cell_fanout();
        let mut cell_costs = Vec::with_capacity(cells.len());
        let mut cell_routes = vec![Vec::new(); table_names.len()];
        for (c, cell) in cells.iter().enumerate() {
            let leader = registry.group_members(cell.group)[0];
            let name = &registry.view(leader).def().tables[cell.table];
            let g = table_names
                .iter()
                .position(|t| t == name)
                .expect("cell table is on the global axis");
            cell_routes[g].push(c);
            let share = 1.0 + APPLY_SHARE * (fanout[c] as f64 - 1.0);
            cell_costs.push(cfg.table_costs[g].scaled(share));
        }
        let ctx = PolicyContext {
            costs: cell_costs,
            budget: cfg.budget,
        };
        policy.reset(&ctx);
        let pending = Counts::from_slice(&registry.cell_counts());
        let n_cells = cells.len();
        let n_views = registry.view_count();
        let snapshots: Vec<Arc<ViewSnapshot>> =
            (0..n_views).map(|v| registry.snapshot(v)).collect();
        Ok(RegistryRuntime {
            hub: Arc::new(SubscriptionHub::new(snapshots.clone())),
            published: snapshots,
            registry,
            table_names,
            table_ids,
            cell_routes,
            ctx,
            policy,
            window: Counts::zero(n_cells),
            pending,
            t: 0,
            strict: cfg.strict,
            metrics: Metrics::new(n_cells),
            wal: None,
            view_violations: vec![0; n_views],
            faults: FaultPlan::none(),
            demoted: false,
            rebalances: 0,
            recoveries: 0,
        })
    }

    /// Rebuilds a registry runtime from a WAL image: constructs the
    /// genesis registry via `make_registry` and deterministically
    /// replays every record. The returned runtime has no WAL attached;
    /// call [`RegistryRuntime::attach_wal`] to resume logging.
    pub fn recover(
        cfg: MultiConfig,
        policy: Box<dyn FlushPolicy>,
        wal_bytes: &[u8],
        make_registry: &dyn Fn() -> Result<ViewRegistry, EngineError>,
    ) -> Result<Self, EngineError> {
        let outcome = read_wal(wal_bytes)?;
        let mut rt = Self::new(cfg, policy, make_registry()?)?;
        for rec in &outcome.records {
            match rec {
                WalRecord::Dml { table, m } => rt.ingest_dml(*table, m.clone())?,
                WalRecord::Tick => {
                    rt.tick()?;
                }
                WalRecord::ForcedView { view } => {
                    rt.forced_refresh_view(*view as usize)?;
                }
                WalRecord::SetBudget { budget } => rt.set_budget(*budget)?,
                WalRecord::Forced | WalRecord::Count { .. } => {
                    return Err(EngineError::Corrupt {
                        context: "wal".into(),
                        offset: 0,
                        message: "single-view record in a registry log".into(),
                    })
                }
            }
        }
        rt.recoveries += 1;
        Ok(rt)
    }

    /// Attaches a write-ahead log; every subsequent state-changing
    /// event is appended to it.
    pub fn attach_wal(&mut self, wal: WalWriter) {
        self.wal = Some(wal);
    }

    /// Installs a fault-injection plan. The policy-level triggers
    /// (`policy_panic_at`, `flush_error_at`) demote to [`NaiveFlush`]
    /// exactly as on the single-view runtime; `cost_overrun` is inert
    /// here because this runtime does not recalibrate its cost models.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// The wrapped registry (read access for harnesses and benches).
    pub fn registry(&self) -> &ViewRegistry {
        &self.registry
    }

    /// The subscription hub shared with network workers.
    pub fn hub(&self) -> Arc<SubscriptionHub> {
        Arc::clone(&self.hub)
    }

    /// The global ingest axis: distinct base-table names in
    /// first-appearance order. `ingest_dml` indexes into this.
    pub fn table_names(&self) -> &[String] {
        &self.table_names
    }

    /// Number of registered views.
    pub fn view_count(&self) -> usize {
        self.registry.view_count()
    }

    /// Number of cells on the scheduling axis.
    pub fn cell_count(&self) -> usize {
        self.ctx.n()
    }

    /// The current pending-counts state over the cell axis.
    pub fn pending(&self) -> &Counts {
        &self.pending
    }

    /// The refresh budget `C` currently in force.
    pub fn budget(&self) -> f64 {
        self.ctx.budget
    }

    /// The active policy's name (`"naive"` after a demotion).
    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    /// Whether the original policy was demoted to [`NaiveFlush`].
    pub fn demoted(&self) -> bool {
        self.demoted
    }

    /// Records appended to the attached WAL (0 when none is attached).
    pub fn wal_records(&self) -> u64 {
        self.wal.as_ref().map(|w| w.records()).unwrap_or(0)
    }

    /// Forces durability of the attached WAL (no-op when none).
    pub fn sync_wal(&mut self) -> Result<(), EngineError> {
        match &mut self.wal {
            Some(w) => w.sync(),
            None => Ok(()),
        }
    }

    /// Content checksum of one view.
    pub fn view_checksum(&self, view: usize) -> u64 {
        self.registry.view(view).result_checksum()
    }

    /// Changes the refresh budget `C` mid-run (WAL-logged; bitwise-same
    /// is a no-op) — same semantics as the single-view runtime.
    pub fn set_budget(&mut self, budget: f64) -> Result<(), EngineError> {
        if budget.to_bits() == self.ctx.budget.to_bits() {
            return Ok(());
        }
        if !(budget.is_finite() && budget > 0.0) {
            return Err(EngineError::Maintenance {
                message: format!("refresh budget must be finite and positive, got {budget}"),
            });
        }
        self.ctx.budget = budget;
        self.policy.reset(&self.ctx);
        self.rebalances += 1;
        self.wal_log(WalRecord::SetBudget { budget })?;
        Ok(())
    }

    /// Ingests one DML event for the `table`-th *global* base table:
    /// applies it to the shared database once and enqueues it into
    /// every dependent view's delta table (each dependent cell's
    /// pending count grows by one — the event's maintenance debt is per
    /// group, which is exactly what the cell cost models charge for).
    pub fn ingest_dml(&mut self, table: usize, m: Modification) -> Result<(), EngineError> {
        if table >= self.table_ids.len() {
            return Err(EngineError::Maintenance {
                message: format!(
                    "table index {table} out of range for {} base tables",
                    self.table_ids.len()
                ),
            });
        }
        self.registry.ingest(self.table_ids[table], m.clone())?;
        for &c in &self.cell_routes[table] {
            self.pending[c] += 1;
            self.window[c] += 1;
        }
        self.metrics.events_ingested += 1;
        self.wal_log(WalRecord::Dml { table, m })?;
        Ok(())
    }

    /// Closes the arrival window and runs one scheduler step over the
    /// cell axis: policy decision (guarded — a panicking or overdrawing
    /// policy is demoted to [`NaiveFlush`]), shared flush, validity
    /// check, per-view violation accounting, delta publication.
    pub fn tick(&mut self) -> Result<crate::runtime::TickReport, EngineError> {
        let t = self.t;
        self.window = Counts::zero(self.ctx.n());
        let mut action = self.decide_guarded(t);
        if self.faults.flush_fails(t) {
            // Injected pre-write flush failure: a no-op flush, and the
            // policy that asked for it is demoted.
            self.faults.flush_error_at = None;
            self.metrics.flush_errors += 1;
            self.demote();
            action = Counts::zero(self.ctx.n());
        }
        let cost = self.execute_flush(&action)?;
        let violated = self.ctx.is_full(&self.pending);
        self.metrics.ticks += 1;
        self.note_view_violations();
        self.finish_step(&action, cost, violated, t)?;
        self.wal_log(WalRecord::Tick)?;
        Ok(crate::runtime::TickReport {
            t,
            action,
            cost,
            violated,
        })
    }

    /// Serves a per-view read. Stale returns the view's current
    /// maintained rows with its group's lag; Fresh runs one policy tick
    /// then force-flushes the view's group (cost ≤ `C` for any valid
    /// policy — the per-view freshness guarantee).
    pub fn read_view_at(
        &mut self,
        view: usize,
        mode: ReadMode,
        enqueued: Instant,
    ) -> Result<ReadResult, EngineError> {
        if view >= self.registry.view_count() {
            return Err(EngineError::Maintenance {
                message: format!(
                    "view {view} out of range for {} views",
                    self.registry.view_count()
                ),
            });
        }
        match mode {
            ReadMode::Stale => {
                self.metrics.stale_reads += 1;
                Ok(ReadResult {
                    rows: Some(self.registry.result(view)),
                    lag: self.registry.pending_counts(view).iter().sum(),
                    flush_cost: 0.0,
                    violated: false,
                })
            }
            ReadMode::Fresh => {
                self.tick()?;
                let (cost, violated) = self.forced_refresh_view(view)?;
                self.metrics
                    .refresh_latency_ns
                    .record(enqueued.elapsed().as_nanos() as u64);
                Ok(ReadResult {
                    rows: Some(self.registry.result(view)),
                    lag: 0,
                    flush_cost: cost,
                    violated,
                })
            }
        }
    }

    /// [`RegistryRuntime::read_view_at`] measured from now.
    pub fn read_view(&mut self, view: usize, mode: ReadMode) -> Result<ReadResult, EngineError> {
        self.read_view_at(view, mode, Instant::now())
    }

    /// A snapshot of the runtime's counters with the view axis.
    pub fn metrics(&self) -> MultiMetricsSnapshot {
        let mut global = self.metrics.snapshot();
        if let Some(w) = &self.wal {
            global.wal_records = w.records();
            global.wal_fsync_lag = w.unsynced();
            global.wal_sync_every = w.sync_every();
        }
        global.degraded = self.demoted;
        global.budget = self.ctx.budget;
        global.budget_rebalances = self.rebalances;
        global.recoveries = self.recoveries;
        let stats = self.registry.stats();
        let views = (0..self.registry.view_count())
            .map(|v| {
                let staleness = self.registry.pending_counts(v);
                ViewMetricsSnapshot {
                    view: v as u32,
                    group: self.registry.group_of(v) as u32,
                    flushes: self.registry.view(v).stats.flushes,
                    pending: staleness.iter().sum(),
                    staleness,
                    violations: self.view_violations[v],
                    deltas_pushed: self.hub.deltas_pushed(v),
                    subscribers: self.hub.subscriber_count(v),
                    sub_lag_max: self.hub.sub_lag_max(v),
                }
            })
            .collect();
        MultiMetricsSnapshot {
            global,
            views,
            groups: self.registry.group_count() as u64,
            propagations: stats.propagations,
            shared_propagations: stats.shared_propagations,
        }
    }

    /// The forced flush completing a per-view fresh read (and replaying
    /// `ForcedView` records): empties the view's group at refresh cost,
    /// bypassing the policy. Other groups are untouched.
    fn forced_refresh_view(&mut self, view: usize) -> Result<(f64, bool), EngineError> {
        let t = self.t;
        let mut action = Counts::zero(self.ctx.n());
        for c in self.registry.cells_of_view(view) {
            action[c] = self.pending[c];
        }
        let cost = self.ctx.refresh_cost(&action);
        // The per-view freshness guarantee: any valid policy leaves the
        // *whole* post-action state non-full, so refreshing one group
        // (a subset of it) fits C a fortiori.
        let violated = !fits(cost, self.ctx.budget);
        self.execute_flush(&action)?;
        self.metrics.fresh_reads += 1;
        self.finish_step(&action, cost, violated, t)?;
        if violated {
            self.view_violations[view] += 1;
        }
        self.wal_log(WalRecord::ForcedView { view: view as u32 })?;
        Ok((cost, violated))
    }

    /// Runs the policy under `catch_unwind`; a panic (real or injected)
    /// or overdraw permanently demotes to [`NaiveFlush`].
    fn decide_guarded(&mut self, t: usize) -> Counts {
        let inject = self.faults.policy_panics(t);
        if inject {
            self.faults.policy_panic_at = None;
        }
        let pending = &self.pending;
        let policy = &mut self.policy;
        let decided = catch_unwind(AssertUnwindSafe(|| {
            if inject {
                panic!("injected policy fault at t = {t}");
            }
            policy.decide(t, pending)
        }));
        match decided {
            Ok(a) if a.len() == self.ctx.n() && a.dominated_by(&self.pending) => return a,
            Ok(_) | Err(_) => {}
        }
        self.demote();
        let fallback = self.policy.decide(t, &self.pending);
        if fallback.len() == self.ctx.n() && fallback.dominated_by(&self.pending) {
            fallback
        } else {
            Counts::zero(self.ctx.n())
        }
    }

    fn demote(&mut self) {
        if self.demoted {
            return;
        }
        self.demoted = true;
        self.metrics.policy_demotions += 1;
        let mut naive: Box<dyn FlushPolicy> = Box::new(NaiveFlush::new());
        naive.reset(&self.ctx);
        self.policy = naive;
    }

    /// Executes a flush action over the cell axis, publishing a delta
    /// batch for every touched view, and returns its model cost.
    fn execute_flush(&mut self, action: &Counts) -> Result<f64, EngineError> {
        let cost = total_cost(&self.ctx.costs, action);
        if !action.is_zero() {
            let counts: Vec<u64> = action.iter().collect();
            let report = self.registry.flush_cells(&counts)?;
            self.pending = self
                .pending
                .checked_sub(action)
                .expect("flush ≤ pending by policy contract");
            self.publish_deltas(&report.touched);
        }
        Ok(cost)
    }

    /// Publishes one [`DeltaBatch`] per touched view: the signed row
    /// difference between the previously published snapshot and the
    /// new one. O(|old| + |new|) per touched view — the price of push
    /// semantics, paid only for views a flush actually advanced.
    fn publish_deltas(&mut self, touched: &[usize]) {
        for &v in touched {
            let snap = self.registry.snapshot(v);
            if Arc::ptr_eq(&snap, &self.published[v]) {
                continue;
            }
            let mut rows: Vec<WRow> =
                Vec::with_capacity(snap.rows.len() + self.published[v].rows.len());
            rows.extend(snap.rows.iter().cloned());
            rows.extend(self.published[v].rows.iter().map(|(r, w)| (r.clone(), -w)));
            let batch = DeltaBatch {
                view: v as u32,
                seq: snap.seq,
                rows: consolidate(rows),
                checksum: snap.checksum,
                staleness: snap.lag(),
            };
            self.hub.publish(v, batch, Arc::clone(&snap));
            self.published[v] = snap;
        }
    }

    /// Counts, per view, ticks whose post-state would break the
    /// per-view freshness guarantee (group refresh cost > C). A valid
    /// policy never lets any cell subset exceed the budget the whole
    /// state fits in, so these stay 0 exactly when global violations
    /// do — but they are *attributed* to views, which is what the
    /// loadgen's per-view staleness gate asserts on.
    fn note_view_violations(&mut self) {
        for g in 0..self.registry.group_count() {
            let leader = self.registry.group_members(g)[0];
            let mut action = Counts::zero(self.ctx.n());
            for c in self.registry.cells_of_view(leader) {
                action[c] = self.pending[c];
            }
            if fits(self.ctx.refresh_cost(&action), self.ctx.budget) {
                continue;
            }
            for &v in self.registry.group_members(g) {
                self.view_violations[v] += 1;
            }
        }
    }

    fn finish_step(
        &mut self,
        action: &Counts,
        cost: f64,
        violated: bool,
        t: usize,
    ) -> Result<(), EngineError> {
        self.metrics.record_flush(action, cost);
        self.t = t + 1;
        if violated {
            self.metrics.constraint_violations += 1;
            if self.strict {
                return Err(EngineError::Maintenance {
                    message: format!(
                        "constraint violation at t = {t}: refresh cost exceeds budget {}",
                        self.ctx.budget
                    ),
                });
            }
        }
        Ok(())
    }

    fn wal_log(&mut self, rec: WalRecord) -> Result<(), EngineError> {
        match &mut self.wal {
            Some(w) => w.append(&rec),
            None => Ok(()),
        }
    }
}

impl Runtime for RegistryRuntime {
    fn views(&self) -> usize {
        self.view_count()
    }

    fn tables(&self) -> usize {
        self.table_names.len()
    }

    fn hub(&self) -> Option<Arc<SubscriptionHub>> {
        Some(Arc::clone(&self.hub))
    }

    fn set_faults(&mut self, plan: FaultPlan) {
        RegistryRuntime::set_faults(self, plan)
    }

    fn ingest_count(&mut self, _table: usize, _k: u64) -> Result<(), EngineError> {
        Err(EngineError::Maintenance {
            message: "registry runtimes ingest modifications, not bare counts".into(),
        })
    }

    fn ingest_dml(&mut self, table: usize, m: Modification) -> Result<(), EngineError> {
        RegistryRuntime::ingest_dml(self, table, m)
    }

    fn tick(&mut self) -> Result<(), EngineError> {
        RegistryRuntime::tick(self).map(|_| ())
    }

    fn read_at(
        &mut self,
        view: usize,
        mode: ReadMode,
        enqueued: Instant,
    ) -> Result<ReadResult, EngineError> {
        self.read_view_at(view, mode, enqueued)
    }

    fn set_budget(&mut self, budget: f64) -> Result<(), EngineError> {
        RegistryRuntime::set_budget(self, budget)
    }

    fn wal_records(&self) -> u64 {
        RegistryRuntime::wal_records(self)
    }

    fn snapshot(&self, view: usize) -> Option<Arc<ViewSnapshot>> {
        (view < self.view_count()).then(|| self.registry.snapshot(view))
    }

    fn metrics(&self) -> MultiMetricsSnapshot {
        RegistryRuntime::metrics(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::OnlineFlush;
    use crate::queue::TrySendError;
    use crate::server::{RegistryServer, ServerConfig};
    use crate::wal::{MemWal, WalWriter};
    use aivm_engine::logical::AggFunc;
    use aivm_engine::{
        row, rows_checksum, AggSpec, DataType, Database, Expr, JoinPred, MinStrategy, Schema,
        ViewDef,
    };
    use std::time::Duration;

    fn base() -> Database {
        let mut db = Database::new();
        db.create_table(
            "r",
            Schema::new(vec![("k", DataType::Int), ("x", DataType::Float)]),
        )
        .unwrap();
        db.create_table(
            "s",
            Schema::new(vec![("k", DataType::Int), ("y", DataType::Int)]),
        )
        .unwrap();
        db
    }

    fn join_def(name: &str) -> ViewDef {
        ViewDef {
            name: name.into(),
            tables: vec!["r".into(), "s".into()],
            join_preds: vec![JoinPred {
                left: (0, 0),
                right: (1, 0),
            }],
            filters: vec![None, None],
            residual: None,
            projection: None,
            aggregate: None,
            distinct: false,
        }
    }

    fn sum_def(name: &str) -> ViewDef {
        ViewDef {
            aggregate: Some(AggSpec {
                group_by: vec![0],
                aggs: vec![(AggFunc::Sum, Expr::col(3), "s".into())],
            }),
            ..join_def(name)
        }
    }

    /// `n` views sharing one SPJ core (plain join, then n−1 SUMs).
    fn registry_of(n: usize) -> ViewRegistry {
        let mut reg = ViewRegistry::new(base());
        reg.register_view(join_def("v0"), MinStrategy::Multiset)
            .unwrap();
        for i in 1..n {
            reg.register_view(sum_def(&format!("v{i}")), MinStrategy::Multiset)
                .unwrap();
        }
        reg
    }

    fn config(budget: f64) -> MultiConfig {
        MultiConfig::new(
            vec![CostModel::linear(0.05, 0.2), CostModel::linear(0.02, 0.5)],
            budget,
        )
    }

    fn feed(rt: &mut RegistryRuntime, i: i64) {
        rt.ingest_dml(0, Modification::Insert(row![i % 7, (i as f64) * 0.5]))
            .unwrap();
        rt.ingest_dml(1, Modification::Insert(row![i % 7, i - 20]))
            .unwrap();
        if i % 5 == 4 {
            rt.ingest_dml(1, Modification::Delete(row![(i - 1) % 7, i - 21]))
                .unwrap();
        }
    }

    #[test]
    fn shared_scheduling_keeps_every_view_valid() {
        let mut rt =
            RegistryRuntime::new(config(40.0), Box::new(OnlineFlush::new()), registry_of(4))
                .unwrap();
        assert_eq!(rt.cell_count(), 2, "one group ⇒ one cell per table");
        for i in 0..120i64 {
            feed(&mut rt, i);
            if i % 3 == 0 {
                let rep = rt.tick().unwrap();
                assert!(!rep.violated);
            }
        }
        // Drain whatever the policy deferred; the forced refresh
        // propagates once for the whole group.
        rt.read_view(0, ReadMode::Fresh).unwrap();
        let m = rt.metrics();
        assert_eq!(m.global.constraint_violations, 0);
        assert_eq!(m.groups, 1);
        assert!(m.shared_propagations > 0, "sharing must have kicked in");
        for v in &m.views {
            assert_eq!(v.violations, 0, "view {} violated", v.view);
            assert_eq!(v.staleness.len(), 2);
        }
    }

    #[test]
    fn fresh_read_refreshes_one_group_and_fits_budget() {
        let mut reg = registry_of(2);
        // A second group with a different core (filtered).
        reg.register_view(
            ViewDef {
                filters: vec![
                    None,
                    Some(Expr::Cmp(
                        aivm_engine::CmpOp::Gt,
                        Box::new(Expr::col(1)),
                        Box::new(Expr::lit(0i64)),
                    )),
                ],
                ..join_def("other")
            },
            MinStrategy::Multiset,
        )
        .unwrap();
        let cfg = MultiConfig::new(
            vec![CostModel::linear(0.05, 0.2), CostModel::linear(0.02, 0.5)],
            40.0,
        );
        let mut rt = RegistryRuntime::new(cfg, Box::new(OnlineFlush::new()), reg).unwrap();
        assert_eq!(rt.cell_count(), 4);
        for i in 0..30i64 {
            feed(&mut rt, i);
        }
        let r = rt.read_view(0, ReadMode::Fresh).unwrap();
        assert!(!r.violated);
        assert_eq!(r.lag, 0);
        assert!(r.flush_cost <= 40.0 + 1e-9);
        // Views 0 and 1 share a group: both fresh. View 2 keeps its
        // backlog (the tick may have flushed some of it, but the fresh
        // read's forced flush only drained group 0).
        assert_eq!(rt.registry().pending_counts(0), vec![0, 0]);
        assert_eq!(rt.registry().pending_counts(1), vec![0, 0]);
        let stale = rt.read_view(2, ReadMode::Stale).unwrap();
        assert!(stale.rows.is_some());
        let m = rt.metrics();
        assert_eq!(m.global.fresh_reads, 1);
        assert_eq!(m.global.stale_reads, 1);
    }

    #[test]
    fn delta_batches_chain_seqs_and_checksums() {
        let mut rt =
            RegistryRuntime::new(config(40.0), Box::new(OnlineFlush::new()), registry_of(3))
                .unwrap();
        let hub = rt.hub();
        // State as a subscriber would hold it: start from the initial
        // snapshot, fold every published batch.
        let snap0 = hub.snapshot(1);
        let mut state = snap0.rows.clone();
        let mut next_seq = snap0.seq + 1;
        for i in 0..200i64 {
            feed(&mut rt, i);
            if i % 4 == 0 {
                rt.tick().unwrap();
            }
            loop {
                match hub.fetch(1, next_seq, 8) {
                    FetchOutcome::AtHead => break,
                    FetchOutcome::Deltas(batches) => {
                        for b in batches {
                            assert_eq!(b.seq, next_seq, "gap or duplicate");
                            state = fold_delta(state, &b);
                            assert_eq!(
                                rows_checksum(&state),
                                b.checksum,
                                "fold diverged at seq {next_seq}"
                            );
                            next_seq += 1;
                        }
                    }
                    FetchOutcome::Resync(_) => {
                        panic!("an up-to-date subscriber must never be resynced")
                    }
                }
            }
        }
        rt.read_view(1, ReadMode::Fresh).unwrap();
        // Drain the final flushes, then the folded state must equal a
        // direct read of the view.
        loop {
            match hub.fetch(1, next_seq, 64) {
                FetchOutcome::AtHead => break,
                FetchOutcome::Deltas(batches) => {
                    for b in batches {
                        state = fold_delta(state, &b);
                        next_seq += 1;
                    }
                }
                FetchOutcome::Resync(_) => panic!("no resync expected"),
            }
        }
        assert_eq!(rows_checksum(&state), rt.view_checksum(1));
        assert!(hub.deltas_pushed(1) > 0);
    }

    #[test]
    fn slow_subscriber_is_resynced_not_queued_unboundedly() {
        let mut rt =
            RegistryRuntime::new(config(40.0), Box::new(OnlineFlush::new()), registry_of(2))
                .unwrap();
        let hub = rt.hub();
        let stale_pos = hub.snapshot(0).seq + 1;
        // Push far more flush boundaries than the ring holds.
        for i in 0..((DELTA_RING_CAP as i64 + 20) * 3) {
            feed(&mut rt, i);
            rt.read_view(0, ReadMode::Fresh).unwrap();
        }
        assert!(hub.head_seq(0) > DELTA_RING_CAP as u64 + stale_pos);
        match hub.fetch(0, stale_pos, 8) {
            FetchOutcome::Resync(snap) => {
                assert_eq!(rows_checksum(&snap.rows), snap.checksum);
                // Resuming from the resync snapshot works delta-by-delta.
                match hub.fetch(0, snap.seq + 1, 8) {
                    FetchOutcome::AtHead | FetchOutcome::Deltas(_) => {}
                    FetchOutcome::Resync(_) => panic!("fresh resync point fell off"),
                }
            }
            _ => panic!("an evicted seq must force a resync"),
        }
    }

    #[test]
    fn wal_replay_reproduces_every_view() {
        let mem = MemWal::new();
        let make = || Ok(registry_of(4));
        let mut rt =
            RegistryRuntime::new(config(40.0), Box::new(OnlineFlush::new()), make().unwrap())
                .unwrap();
        rt.attach_wal(WalWriter::create(Box::new(mem.clone()), 4).unwrap());
        for i in 0..90i64 {
            feed(&mut rt, i);
            if i % 3 == 0 {
                rt.tick().unwrap();
            }
            if i % 25 == 24 {
                rt.read_view((i % 4) as usize, ReadMode::Fresh).unwrap();
            }
            if i == 40 {
                rt.set_budget(25.0).unwrap();
            }
        }
        let expect: Vec<u64> = (0..4).map(|v| rt.view_checksum(v)).collect();
        let expect_pending = rt.pending().clone();
        let expect_heads: Vec<u64> = (0..4).map(|v| rt.hub().head_seq(v)).collect();
        drop(rt);
        let recovered = RegistryRuntime::recover(
            config(40.0),
            Box::new(OnlineFlush::new()),
            &mem.bytes(),
            &make,
        )
        .unwrap();
        let got: Vec<u64> = (0..4).map(|v| recovered.view_checksum(v)).collect();
        assert_eq!(got, expect);
        assert_eq!(recovered.pending(), &expect_pending);
        assert_eq!(recovered.budget(), 25.0);
        assert_eq!(recovered.metrics().global.recoveries, 1);
        let heads: Vec<u64> = (0..4).map(|v| recovered.hub().head_seq(v)).collect();
        assert_eq!(heads, expect_heads, "snapshot seqs must replay exactly");
    }

    #[test]
    fn mismatched_cost_arity_is_rejected() {
        let cfg = MultiConfig::new(vec![CostModel::linear(0.05, 0.2)], 40.0);
        let err = RegistryRuntime::new(cfg, Box::new(OnlineFlush::new()), registry_of(2))
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, EngineError::Maintenance { .. }));
    }

    /// A policy that overdraws on its first decision.
    struct Overdraw;
    impl FlushPolicy for Overdraw {
        fn reset(&mut self, _ctx: &PolicyContext) {}
        fn decide(&mut self, _t: usize, pending: &Counts) -> Counts {
            let mut a = pending.clone();
            a[0] += 100;
            a
        }
        fn name(&self) -> &str {
            "overdraw"
        }
    }

    #[test]
    fn misbehaving_policy_demotes_to_naive() {
        let mut rt =
            RegistryRuntime::new(config(40.0), Box::new(Overdraw), registry_of(2)).unwrap();
        feed(&mut rt, 0);
        rt.tick().unwrap();
        assert!(rt.demoted());
        assert_eq!(rt.policy_name(), "naive");
        assert_eq!(rt.metrics().global.policy_demotions, 1);
    }

    #[test]
    fn threaded_server_serves_reads_and_per_view_metrics() {
        let rt = RegistryRuntime::new(config(40.0), Box::new(OnlineFlush::new()), registry_of(3))
            .unwrap();
        let server = RegistryServer::spawn(rt, ServerConfig::default());
        let h = server.handle();
        assert_eq!(h.views(), 3);
        assert_eq!(h.tables(), 2);
        let mut producers = Vec::new();
        for p in 0..2 {
            let h = server.handle();
            producers.push(std::thread::spawn(move || {
                for i in 0..200i64 {
                    let m = Modification::Insert(row![i % 7, (p * 200 + i) as f64]);
                    assert!(h.ingest_dml(0, m));
                    assert!(h.ingest_dml(1, Modification::Insert(row![i % 7, i])));
                }
            }));
        }
        for p in producers {
            p.join().unwrap();
        }
        for v in 0..3 {
            let r = h
                .read_view(v, ReadMode::Fresh)
                .expect("alive")
                .expect("read ok");
            assert!(!r.violated);
            assert_eq!(r.lag, 0);
            let stale = h.read_view(v, ReadMode::Stale).expect("alive").unwrap();
            assert!(stale.rows.is_some());
        }
        let m = h.metrics_by_view().expect("alive");
        assert_eq!(m.global.events_ingested, 800);
        assert_eq!(m.global.constraint_violations, 0);
        assert_eq!(m.views.len(), 3);
        assert!(m.global.snapshot_reads >= 3);
        for v in &m.views {
            assert_eq!(v.violations, 0);
        }
        drop(h);
        let rt = server.shutdown();
        // Accounting over the cell axis: ingested events fan out to one
        // pending unit per (group, table) cell they route to; here one
        // group ⇒ 800 events = 800 cell units.
        let flushed: u64 = rt.metrics().global.mods_flushed_per_table.iter().sum();
        assert_eq!(flushed + rt.pending().total(), 800);
    }

    #[test]
    fn batch_ingest_acknowledges_after_wal_append() {
        let mem = MemWal::new();
        let mut rt =
            RegistryRuntime::new(config(40.0), Box::new(OnlineFlush::new()), registry_of(2))
                .unwrap();
        rt.attach_wal(WalWriter::create(Box::new(mem.clone()), 1).unwrap());
        let server = RegistryServer::spawn(rt, ServerConfig::default());
        let h = server.handle();
        let mods: Vec<Modification> = (0..5i64)
            .map(|i| Modification::Insert(row![i, i as f64]))
            .collect();
        let ticket = h.try_ingest_batch_tracked(0, mods).expect("enqueued");
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match ticket.try_take().expect("scheduler alive") {
                Some(r) => {
                    r.expect("batch applied");
                    break;
                }
                None => {
                    assert!(Instant::now() < deadline, "ack never arrived");
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
        let dml = crate::wal::read_wal(&mem.bytes())
            .unwrap()
            .records
            .iter()
            .filter(|r| matches!(r, WalRecord::Dml { .. }))
            .count();
        assert_eq!(dml, 5);
        drop(h);
        server.shutdown();
    }

    #[test]
    fn fenced_registry_server_rejects_ingest_and_stops_logging() {
        let mem = MemWal::new();
        let mut rt =
            RegistryRuntime::new(config(40.0), Box::new(OnlineFlush::new()), registry_of(2))
                .unwrap();
        rt.attach_wal(WalWriter::create(Box::new(mem.clone()), 1).unwrap());
        let server = RegistryServer::spawn(rt, ServerConfig::default());
        let h = server.handle();
        assert!(h.ingest_dml(0, Modification::Insert(row![1i64, 1.0f64])));
        h.fence();
        let deadline = Instant::now() + Duration::from_secs(5);
        while !h.fence_acknowledged() {
            assert!(Instant::now() < deadline, "fence never acknowledged");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Every ingest path rejects without touching the scheduler.
        assert!(!h.ingest_dml(0, Modification::Insert(row![2i64, 2.0f64])));
        assert!(matches!(
            h.try_ingest_batch(0, vec![]),
            Err(TrySendError::Disconnected)
        ));
        assert!(h.try_ingest_batch_tracked(0, vec![]).is_err());
        // Fresh reads (which would flush and log) error on every view;
        // stale reads and metrics stay available.
        for v in 0..2 {
            let r = h.read_view(v, ReadMode::Fresh).expect("scheduler replies");
            assert!(r.is_err(), "fresh read of view {v} on a fenced server");
            let stale = h.read_view(v, ReadMode::Stale).expect("alive").unwrap();
            assert!(stale.rows.is_some());
        }
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
    fn injected_policy_panic_demotes_the_registry_policy() {
        let mut rt =
            RegistryRuntime::new(config(40.0), Box::new(OnlineFlush::new()), registry_of(2))
                .unwrap();
        rt.set_faults(FaultPlan {
            policy_panic_at: Some(1),
            ..FaultPlan::none()
        });
        for i in 0..3 {
            feed(&mut rt, i);
            assert!(!rt.tick().unwrap().violated);
        }
        assert!(rt.demoted());
        assert_eq!(rt.metrics().global.policy_demotions, 1);
    }

    #[test]
    fn bad_table_index_poisons_without_crashing() {
        let rt = RegistryRuntime::new(config(40.0), Box::new(OnlineFlush::new()), registry_of(2))
            .unwrap();
        let server = RegistryServer::spawn(rt, ServerConfig::default());
        let h = server.handle();
        assert!(h.ingest_dml(9, Modification::Insert(row![1i64, 1.0f64])));
        let deadline = Instant::now() + Duration::from_secs(5);
        while h.last_error().is_none() {
            assert!(Instant::now() < deadline, "error never surfaced");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(h.last_error().unwrap().during, "ingest");
        drop(h);
        server.shutdown();
    }
}
