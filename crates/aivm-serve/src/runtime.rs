//! The synchronous maintenance core.
//!
//! [`MaintenanceRuntime`] is single-threaded and deterministic: ingest
//! events, close arrival windows with [`MaintenanceRuntime::tick`], and
//! serve reads. The threaded [`server`](crate::server) drives one of
//! these from its scheduler loop; tests and benchmarks drive it
//! directly, which is what makes live behaviour reproducible offline.
//!
//! The paper schedules one knapsack — a cost function per table, one
//! budget `C` — and so does the runtime, over a [`ViewRegistry`]'s
//! *(sharing group × table)* **cell** axis: one asymmetric budget
//! decides "which view × which table to flush". A cell costs its
//! table's model scaled by `1 + APPLY_SHARE·(m − 1)` for a group of `m`
//! views: propagation runs once per group (the sharing win), but every
//! member still pays its own apply/projection share. The special cases
//! are the N = 1 of that one path, not paths of their own: one view
//! ([`MaintenanceRuntime::engine`]) is a registry of one, and
//! counts-only mode ([`MaintenanceRuntime::model`]) is the runtime with
//! no engine — cells = tables, flushes charge the cost functions but
//! touch no data (policy tests, benchmarks, and recovery's shadow
//! replay). Unqualified methods (`read`, `view_checksum`,
//! `maintenance_stats`) mean view 0, as
//! [`Handle::read`](crate::Handle::read) does; every flush boundary
//! publishes the views it advanced to the runtime's [`SubscriptionHub`].
//!
//! With a [`WalWriter`] attached, every state-changing event is logged
//! *after* it applied; because scheduling is a deterministic function
//! of the event sequence, [`MaintenanceRuntime::recover_registry`]
//! rebuilds the exact state of an uncrashed run. A misbehaving policy
//! never crashes the runtime: decisions run under `catch_unwind`, and a
//! panicking, overdrawing or (injected) flush-failing policy is demoted
//! to [`NaiveFlush`], the one policy valid by construction, while a
//! *real* engine flush error propagates, because the view state can no
//! longer be trusted. Sustained flush-cost overruns beyond
//! [`DRIFT_RATIO`] recalibrate the cost model after [`RECALIBRATE_AFTER`]
//! consecutive overruns; strict mode turns constraint violations into
//! typed [`EngineError::Maintenance`] errors instead of counts.

use crate::fault::FaultPlan;
use crate::metrics::{Metrics, MetricsSnapshot, MultiMetricsSnapshot, ViewMetricsSnapshot};
use crate::multi::SubscriptionHub;
use crate::trace::Trace;
use crate::wal::{read_wal, Checkpoint, EngineCheckpoint, WalRecord, WalWriter};
use crate::{FlushPolicy, NaiveFlush};
use aivm_core::{fits, total_cost, CostModel, Counts};
use aivm_engine::{
    Database, EngineError, MaterializedView, Modification, TableId, ViewRegistry, ViewSnapshot,
    WRow,
};
use aivm_solver::{Choice, Ledger, PolicyContext, Step};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Measured-vs-estimated flush cost ratio beyond which a tick counts as
/// a cost overrun.
pub const DRIFT_RATIO: f64 = 1.5;

/// Consecutive overruns that trigger a cost-model recalibration.
pub const RECALIBRATE_AFTER: u32 = 3;

/// Fraction of a table's propagation cost charged per *additional*
/// group member: propagation runs once per group, but each member pays
/// its own apply/projection work on the shared join delta.
pub const APPLY_SHARE: f64 = 0.1;

/// Configuration of a [`MaintenanceRuntime`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Per-base-table cost functions over the ingest axis (see
    /// [`MaintenanceRuntime::table_names`]: one view's tables in view
    /// order, a registry's distinct tables in first-appearance order).
    /// Cell costs scale these by fan-out.
    pub costs: Vec<CostModel>,
    /// The refresh response-time budget `C` (shared across all views).
    pub budget: f64,
    /// Record every step into a replayable [`Trace`].
    pub record_trace: bool,
    /// Return a typed error from `tick` on a constraint violation
    /// instead of only counting it (useful in tests; the CI smoke gate
    /// checks the counter).
    pub strict: bool,
    /// Worker threads for delta propagation inside engine flushes
    /// (see [`MaterializedView::set_flush_threads`]). `1` = serial.
    pub flush_threads: usize,
}

impl ServeConfig {
    /// A config with tracing on, strict mode off, serial flushes.
    pub fn new(costs: Vec<CostModel>, budget: f64) -> Self {
        ServeConfig {
            costs,
            budget,
            record_trace: true,
            strict: false,
            flush_threads: 1,
        }
    }

    /// Sets the flush propagation thread count (builder style).
    pub fn with_flush_threads(mut self, threads: usize) -> Self {
        self.flush_threads = threads.max(1);
        self
    }
}

/// How a view read trades freshness for cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadMode {
    /// Return the current materialized `V` without flushing. Free, but
    /// pending modifications are not reflected.
    Stale,
    /// Flush everything pending for the view, then read. By the paper's
    /// validity invariant the flush always costs ≤ `C`.
    Fresh,
}

/// Outcome of a read.
#[derive(Clone, Debug)]
pub struct ReadResult {
    /// Materialized rows (`None` without an engine).
    pub rows: Option<Vec<WRow>>,
    /// Pending modifications *not* reflected in `rows` (0 for fresh).
    pub lag: u64,
    /// Model cost of the flush performed to serve this read (0 for
    /// stale).
    pub flush_cost: f64,
    /// Whether this read broke the `≤ C` guarantee (a fresh read served
    /// from a full state a policy should never have left behind).
    pub violated: bool,
}

/// Outcome of one scheduler tick: the ledger's step.
pub type TickReport = Step;

/// One sharing group on the scheduling axis.
#[derive(Clone, Debug)]
struct Group {
    /// The group's cells, in table order.
    cells: Vec<usize>,
    /// Member views; a fresh read of any of them refreshes all.
    views: Vec<usize>,
}

/// The scheduling axis: which cells a table's arrivals land in, and
/// which cells and views each sharing group spans.
#[derive(Clone, Debug)]
struct Axis {
    /// Cells fed by each table of the ingest axis.
    routes: Vec<Vec<usize>>,
    groups: Vec<Group>,
    /// View → its group.
    group_of: Vec<usize>,
}

/// The data half of a runtime: the registry whose cells the axis
/// schedules, and the hub its flushes publish to.
struct Engine {
    registry: ViewRegistry,
    /// Ingest axis: distinct table names across all views, in
    /// first-appearance order. `Dml` WAL records and the wire `Submit`
    /// frame address tables by index into this axis.
    table_names: Vec<String>,
    /// Engine table id per ingest-axis table.
    table_ids: Vec<TableId>,
    hub: Arc<SubscriptionHub>,
}

/// The synchronous maintenance core. See the module docs.
pub struct MaintenanceRuntime {
    /// The paper's step over the cell axis: the pending counts `s`, the
    /// policy context, `t`, the total cost and the violation count.
    ledger: Ledger,
    /// The cell costs as configured, before any recalibration — the
    /// stand-in for "true" flush costs when simulating drift.
    original_costs: Vec<CostModel>,
    policy: Box<dyn FlushPolicy>,
    axis: Axis,
    /// `None` in counts-only mode, and while recovery shadow-replays.
    engine: Option<Engine>,
    /// Arrivals since the last step, per cell (the trace records them).
    window: Counts,
    strict: bool,
    metrics: Metrics,
    trace: Option<Trace>,
    wal: Option<WalWriter>,
    faults: FaultPlan,
    overrun_streak: u32,
    /// Flush boundaries each view has closed — its snapshot seq —
    /// counted here too, so a shadow replay can restore them.
    view_flushes: Vec<u64>,
    /// Per view: ticks whose post-state would break its freshness
    /// guarantee, plus fresh reads that did.
    view_violations: Vec<u64>,
}

impl MaintenanceRuntime {
    /// Creates a counts-only runtime: no engine, a cell per table.
    pub fn model(cfg: ServeConfig, policy: Box<dyn FlushPolicy>) -> Self {
        let n = cfg.costs.len();
        let axis = Axis {
            routes: (0..n).map(|i| vec![i]).collect(),
            groups: vec![Group {
                cells: (0..n).collect(),
                views: vec![0],
            }],
            group_of: vec![0],
        };
        let costs = cfg.costs.clone();
        Self::build(cfg, policy, axis, costs, None)
    }

    /// Creates a runtime owning `db` and one `view` built over it — a
    /// registry of one. The cost vector must have one entry per base
    /// table of the view, in view order.
    pub fn engine(
        cfg: ServeConfig,
        policy: Box<dyn FlushPolicy>,
        db: Database,
        view: MaterializedView,
    ) -> Result<Self, EngineError> {
        Self::new(cfg, policy, ViewRegistry::adopt(db, view)?)
    }

    /// Creates a runtime over a registry (register all views first — the
    /// scheduling axis is fixed at construction). `cfg.costs` must have
    /// one entry per distinct base table across the registered views.
    pub fn new(
        cfg: ServeConfig,
        policy: Box<dyn FlushPolicy>,
        mut registry: ViewRegistry,
    ) -> Result<Self, EngineError> {
        let views = registry.view_count();
        if views == 0 {
            return Err(EngineError::Maintenance {
                message: "a maintenance runtime needs at least one registered view".into(),
            });
        }
        registry.set_flush_threads(cfg.flush_threads);
        let mut table_names: Vec<String> = Vec::new();
        for v in 0..views {
            for name in &registry.view(v).def().tables {
                if !table_names.contains(name) {
                    table_names.push(name.clone());
                }
            }
        }
        if cfg.costs.len() != table_names.len() {
            return Err(EngineError::Maintenance {
                message: format!(
                    "cost vector arity {} != {} distinct base tables",
                    cfg.costs.len(),
                    table_names.len()
                ),
            });
        }
        let table_ids = (table_names.iter())
            .map(|t| registry.db().table_id(t))
            .collect::<Result<Vec<_>, _>>()?;
        let mut axis = Axis {
            routes: vec![Vec::new(); table_names.len()],
            groups: (0..registry.group_count())
                .map(|g| Group {
                    cells: Vec::new(),
                    views: registry.group_members(g).to_vec(),
                })
                .collect(),
            group_of: (0..views).map(|v| registry.group_of(v)).collect(),
        };
        let fanout = registry.cell_fanout();
        let mut costs = Vec::with_capacity(fanout.len());
        for (c, cell) in registry.cells().iter().enumerate() {
            let first = registry.group_members(cell.group)[0];
            let name = &registry.view(first).def().tables[cell.table];
            let table = (table_names.iter().position(|t| t == name))
                .expect("cell table is on the ingest axis");
            axis.routes[table].push(c);
            axis.groups[cell.group].cells.push(c);
            let share = 1.0 + APPLY_SHARE * (fanout[c] as f64 - 1.0);
            costs.push(cfg.costs[table].scaled(share));
        }
        let engine = Engine {
            hub: SubscriptionHub::of(&registry),
            registry,
            table_names,
            table_ids,
        };
        Ok(Self::build(cfg, policy, axis, costs, Some(engine)))
    }

    fn build(
        cfg: ServeConfig,
        mut policy: Box<dyn FlushPolicy>,
        axis: Axis,
        costs: Vec<CostModel>,
        engine: Option<Engine>,
    ) -> Self {
        let n = costs.len();
        let views = axis.group_of.len();
        let mut ledger = Ledger::counting(PolicyContext {
            costs,
            budget: cfg.budget,
        });
        policy.reset(ledger.ctx());
        let view_flushes = match &engine {
            Some(e) => {
                // Modifications a registry already holds are pending.
                ledger.arrive(&Counts::from_slice(&e.registry.cell_counts()));
                (0..views)
                    .map(|v| e.registry.view(v).stats.flushes)
                    .collect()
            }
            None => vec![0; views],
        };
        let costs = &ledger.ctx().costs;
        MaintenanceRuntime {
            trace: (cfg.record_trace).then(|| Trace::new(costs.clone(), cfg.budget)),
            original_costs: costs.clone(),
            ledger,
            policy,
            axis,
            engine,
            window: Counts::zero(n),
            strict: cfg.strict,
            metrics: Metrics::new(n),
            wal: None,
            faults: FaultPlan::none(),
            overrun_streak: 0,
            view_flushes,
            view_violations: vec![0; views],
        }
    }

    /// [`MaintenanceRuntime::recover_registry`] for a single view, which
    /// `make_view` rebuilds over the restored database.
    pub fn recover(
        cfg: ServeConfig,
        policy: Box<dyn FlushPolicy>,
        wal_bytes: &[u8],
        checkpoint: Option<&Checkpoint>,
        genesis_db: Database,
        make_view: &dyn Fn(&Database) -> Result<MaterializedView, EngineError>,
    ) -> Result<Self, EngineError> {
        let make_registry = |db: Database| {
            let view = make_view(&db)?;
            ViewRegistry::adopt(db, view)
        };
        Self::recover_registry(
            cfg,
            policy,
            wal_bytes,
            checkpoint,
            genesis_db,
            &make_registry,
        )
    }

    /// Rebuilds a runtime from a WAL image.
    ///
    /// Three phases:
    ///
    /// 1. **State restore** — the database comes from the checkpoint
    ///    (its snapshot already reflects *every* logged DML up to the
    ///    checkpoint, because arrivals apply immediately under §2
    ///    semantics) or, without one, is `genesis_db` — the database as
    ///    it was when the WAL was created. `make_registry` registers
    ///    the views over it (the codec does not serialize definitions).
    /// 2. **Shadow replay** — the log prefix covered by `checkpoint`
    ///    re-runs with the engine detached: every tick consults the
    ///    (fresh) policy exactly as the original run did, rebuilding
    ///    policy state, metrics, trace, accumulated cost and view flush
    ///    seqs without touching data. The resulting pending counts must
    ///    match the checkpoint (else the artifacts disagree and recovery
    ///    fails as [`EngineError::Corrupt`]); the checkpoint's per-cell
    ///    pending deltas and the replayed seqs are then installed.
    /// 3. **Engine replay** — the log tail past the checkpoint replays
    ///    for real: DML applies to base tables, ticks flush.
    ///
    /// Determinism makes this exact: a recovered runtime reproduces the
    /// uncrashed run's view checksums, pending cells, hub head seqs,
    /// trace and cost bit-for-bit, which `repro chaos` asserts at every
    /// kill index. The returned runtime has no WAL attached; call
    /// [`MaintenanceRuntime::attach_wal`] to resume logging.
    pub fn recover_registry(
        cfg: ServeConfig,
        policy: Box<dyn FlushPolicy>,
        wal_bytes: &[u8],
        checkpoint: Option<&Checkpoint>,
        genesis_db: Database,
        make_registry: &dyn Fn(Database) -> Result<ViewRegistry, EngineError>,
    ) -> Result<Self, EngineError> {
        let corrupt = |message: String| EngineError::Corrupt {
            context: "recovery".into(),
            offset: 0,
            message,
        };
        let records = read_wal(wal_bytes)?.records;
        let prefix = checkpoint.map_or(0, |ck| ck.wal_records as usize);
        if prefix > records.len() {
            return Err(corrupt(format!(
                "checkpoint covers {prefix} wal records but only {} are readable",
                records.len()
            )));
        }
        let payload = (checkpoint.map(|ck| ck.engine.as_ref()))
            .map(|e| e.ok_or_else(|| corrupt("checkpoint has no engine payload".into())))
            .transpose()?;
        let db = match payload {
            Some(e) => aivm_engine::restore(&e.db)?,
            None => genesis_db,
        };
        let mut rt = Self::new(cfg, policy, make_registry(db)?)?;
        let mut engine = rt.engine.take().expect("built with an engine");
        for rec in &records[..prefix] {
            rt.apply_record(rec)?;
        }
        if let (Some(ck), Some(e)) = (checkpoint, payload) {
            let pending: Vec<u64> = rt.pending().iter().collect();
            let t = rt.ledger.t();
            if t as u64 != ck.t || pending != ck.pending {
                return Err(corrupt(format!(
                    "shadow replay reached t = {t}, pending {pending:?}; checkpoint says \
                     t = {}, pending {:?}",
                    ck.t, ck.pending
                )));
            }
            engine
                .registry
                .restore_pending(e.pending_mods.clone(), &rt.view_flushes)?;
            engine.hub = SubscriptionHub::of(&engine.registry);
        }
        rt.engine = Some(engine);
        for rec in &records[prefix..] {
            rt.apply_record(rec)?;
        }
        rt.metrics.recoveries += 1;
        Ok(rt)
    }

    /// Applies one log record — the replay step of recovery, and the
    /// follower path of WAL tail-streaming, where a follower applies
    /// records as segments arrive instead of replaying a whole image at
    /// once. With a WAL of its own attached, each applied record is
    /// re-logged (ingest, tick and forced flush log after applying), so
    /// the follower's log mirrors the leader's and the follower is
    /// itself recoverable and promotable. Without an engine a
    /// modification is just an arrival: the counts-only shadow of the
    /// log.
    pub fn apply_record(&mut self, rec: &WalRecord) -> Result<(), EngineError> {
        match rec {
            WalRecord::Dml { table, m } if self.engine.is_some() => {
                self.ingest_dml(*table, m.clone())
            }
            WalRecord::Dml { table, .. } => self.try_ingest_count(*table, 1),
            WalRecord::Count { table, k } => self.try_ingest_count(*table, *k),
            WalRecord::Tick => self.tick().map(drop),
            WalRecord::ForcedView { view } => self.forced_refresh(*view as usize).map(drop),
            WalRecord::SetBudget { budget } => self.set_budget(*budget),
        }
    }

    /// Attaches a write-ahead log; every subsequent state-changing
    /// event is appended to it.
    pub fn attach_wal(&mut self, wal: WalWriter) {
        self.wal = Some(wal);
    }

    /// The refresh budget `C` currently in force.
    pub fn budget(&self) -> f64 {
        self.ledger.ctx().budget
    }

    /// Changes the refresh budget `C` mid-run — the shard coordinator's
    /// rebalancing hook. The policy is re-armed with the new context,
    /// so its internal rate/amortization estimates restart from this
    /// tick (the same semantics as recovery hand-off). The change is
    /// WAL-logged: `Tick` records carry no action, so replay must see
    /// the same budget at every tick to reproduce the live flush
    /// schedule. A bitwise-unchanged budget is a no-op, keeping the log
    /// free of idle coordinator epochs.
    pub fn set_budget(&mut self, budget: f64) -> Result<(), EngineError> {
        if budget.to_bits() == self.budget().to_bits() {
            return Ok(());
        }
        if !(budget.is_finite() && budget > 0.0) {
            return Err(EngineError::Maintenance {
                message: format!("refresh budget must be finite and positive, got {budget}"),
            });
        }
        self.ledger.ctx_mut().budget = budget;
        self.policy.reset(self.ledger.ctx());
        self.metrics.budget_rebalances += 1;
        self.wal_log(WalRecord::SetBudget { budget })
    }

    /// Installs a fault-injection plan (see [`FaultPlan`]).
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.faults = plan;
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

    /// Captures the database and the pending counts and deltas per cell,
    /// tagged with the current WAL position. Meaningful at event
    /// boundaries (between ingests/ticks), the only place the scheduler
    /// takes them.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            wal_records: self.wal_records(),
            t: self.ledger.t() as u64,
            pending: self.pending().iter().collect(),
            engine: self.engine.as_ref().map(|e| EngineCheckpoint {
                db: aivm_engine::snapshot(e.registry.db()),
                pending_mods: e.registry.pending_snapshot(),
            }),
        }
    }

    /// The view registry (`None` without an engine).
    pub fn registry(&self) -> Option<&ViewRegistry> {
        self.engine.as_ref().map(|e| &e.registry)
    }

    /// The subscription hub every flush boundary publishes to (`None`
    /// without an engine, which materializes no rows).
    pub fn hub(&self) -> Option<&Arc<SubscriptionHub>> {
        self.engine.as_ref().map(|e| &e.hub)
    }

    /// Content checksum of view 0 (`None` without an engine).
    pub fn view_checksum(&self) -> Option<u64> {
        Some(self.registry()?.result_checksum(0))
    }

    /// The immutable flush-boundary snapshot of `view` (`None` without an
    /// engine): an `Arc` other threads serve stale reads from without
    /// coming back here.
    pub fn snapshot(&self, view: usize) -> Option<Arc<ViewSnapshot>> {
        Some(self.registry()?.snapshot(view))
    }

    /// View 0's cumulative maintenance counters (`None` without an
    /// engine). `exec.scan_fallbacks` must stay 0 on auto-indexed
    /// views — the TPC-R repro gates on it.
    pub fn maintenance_stats(&self) -> Option<&aivm_engine::MaintenanceStats> {
        Some(&self.registry()?.view(0).stats)
    }

    /// Content checksum of the database (`None` without an engine).
    pub fn db_checksum(&self) -> Option<u64> {
        Some(self.database()?.content_checksum())
    }

    /// The live database (`None` without an engine). Equivalence and
    /// chaos harnesses use it to evaluate view definitions directly
    /// over the base tables and compare against the maintained results.
    pub fn database(&self) -> Option<&Database> {
        Some(self.registry()?.db())
    }

    /// The ingest axis by name: distinct base tables in first-appearance
    /// order across views (empty without an engine). `ingest_dml`
    /// indexes into this.
    pub fn table_names(&self) -> &[String] {
        self.engine.as_ref().map_or(&[], |e| &e.table_names)
    }

    /// Number of cells on the scheduling axis (tables, for one view or
    /// without an engine).
    pub fn n(&self) -> usize {
        self.ledger.ctx().n()
    }

    /// Views maintained; reads name one by index (`0..views()`).
    pub fn views(&self) -> usize {
        self.axis.group_of.len()
    }

    /// Base tables on the ingest axis (`0..tables()`).
    pub fn tables(&self) -> usize {
        self.axis.routes.len()
    }

    /// The current pending-counts state `s` over the cell axis.
    pub fn pending(&self) -> &Counts {
        self.ledger.state()
    }

    /// The active policy's name (`"naive"` after a demotion).
    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    /// Whether the original policy was demoted to [`NaiveFlush`].
    pub fn demoted(&self) -> bool {
        self.metrics.policy_demotions > 0
    }

    /// Counts `k` arrivals for `table` into every cell it feeds.
    fn arrive(&mut self, table: usize, k: u64) {
        for &c in &self.axis.routes[table] {
            self.ledger.arrive_at(c, k);
            self.window[c] += k;
        }
        self.metrics.events_ingested += k;
    }

    /// Ingests `k` anonymous modification events for `table` on a
    /// counts-only runtime (an engine needs the actual rows); panics
    /// where [`MaintenanceRuntime::try_ingest_count`] errs.
    pub fn ingest_count(&mut self, table: usize, k: u64) {
        self.try_ingest_count(table, k)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// [`MaintenanceRuntime::ingest_count`] as a typed error instead of
    /// a panic (the scheduler thread's path).
    pub fn try_ingest_count(&mut self, table: usize, k: u64) -> Result<(), EngineError> {
        if self.engine.is_some() || table >= self.tables() {
            return Err(self.bad_ingest(table, "a counts-only runtime"));
        }
        self.arrive(table, k);
        self.wal_log(WalRecord::Count { table, k })
    }

    /// Ingests one DML event for the `table`-th base table of the
    /// ingest axis: applies it to the shared database once and enqueues
    /// it into every dependent view's delta table (each dependent cell's
    /// pending count grows by one — the event's maintenance debt is per
    /// group, which is exactly what the cell cost models charge for).
    /// On success the event is WAL-logged; a failed apply changes
    /// nothing and is safe to retry or drop.
    pub fn ingest_dml(&mut self, table: usize, m: Modification) -> Result<(), EngineError> {
        let tables = self.tables();
        let Some(e) = self.engine.as_mut().filter(|_| table < tables) else {
            return Err(self.bad_ingest(table, "an engine"));
        };
        e.registry.ingest(e.table_ids[table], m.clone())?;
        self.arrive(table, 1);
        self.wal_log(WalRecord::Dml { table, m })
    }

    /// The typed rejection of an ingest this runtime cannot apply.
    fn bad_ingest(&self, table: usize, needs: &str) -> EngineError {
        EngineError::Maintenance {
            message: format!(
                "cannot ingest into table {table}: needs {needs} and a table index below {}",
                self.tables()
            ),
        }
    }

    /// Closes the current arrival window and runs one scheduler step:
    /// consults the policy (under `catch_unwind`, demoting it on a
    /// panic or overdraw), executes its flush, steps the ledger — which
    /// judges the post-action state against the budget — counts per-view
    /// violations, and tracks cost drift.
    pub fn tick(&mut self) -> Result<TickReport, EngineError> {
        let t = self.ledger.t();
        let zero = Counts::zero(self.n());
        let arrivals = std::mem::replace(&mut self.window, zero);
        let mut action = self.decide_guarded(t);
        if self.faults.flush_fails(t) {
            // Injected flush failure: models a transient error surfaced
            // *before* any state mutation. The tick degrades to a
            // no-op flush and the policy is demoted — its next decision
            // will be made by NaiveFlush against the grown backlog.
            self.faults.flush_error_at = None;
            self.metrics.flush_errors += 1;
            self.demote();
            action = Counts::zero(self.n());
        }
        self.flush_engine(&action)?;
        let step =
            (self.ledger.act(Choice::Recorded(action))).expect("a guarded action never overdraws");
        self.track_drift(t, &step.action, step.cost);
        self.metrics.ticks += 1;
        self.note_view_violations();
        self.finish_step(arrivals, &step, false)?;
        self.wal_log(WalRecord::Tick)?;
        Ok(step)
    }

    /// Runs the policy under `catch_unwind`. A panic (real or injected)
    /// or an overdrawing action permanently demotes to [`NaiveFlush`]
    /// and the naive decision is used instead.
    fn decide_guarded(&mut self, t: usize) -> Counts {
        let inject = self.faults.policy_panics(t);
        if inject {
            self.faults.policy_panic_at = None;
        }
        let pending = self.ledger.state();
        let policy = &mut self.policy;
        let decided = catch_unwind(AssertUnwindSafe(|| {
            if inject {
                panic!("injected policy fault at t = {t}");
            }
            policy.act(t, pending)
        }));
        match decided {
            Ok(a) if a.len() == self.n() && a.dominated_by(self.pending()) => return a,
            Ok(_) | Err(_) => {}
        }
        // The policy panicked mid-decision (its internal state can no
        // longer be trusted) or overdrew. Demote and re-decide.
        self.demote();
        let fallback = self.policy.act(t, self.ledger.state());
        if fallback.len() == self.n() && fallback.dominated_by(self.pending()) {
            fallback
        } else {
            Counts::zero(self.n())
        }
    }

    /// Permanently replaces the policy with a freshly reset
    /// [`NaiveFlush`] (idempotent; counted once).
    fn demote(&mut self) {
        if self.demoted() {
            return;
        }
        self.metrics.policy_demotions += 1;
        let mut naive: Box<dyn FlushPolicy> = Box::new(NaiveFlush::new());
        naive.reset(self.ledger.ctx());
        self.policy = naive;
    }

    /// Compares the tick's "measured" flush cost (the original cost
    /// model, times any injected overrun factor) against the estimate
    /// the scheduler charged. A sustained drift beyond [`DRIFT_RATIO`]
    /// recalibrates the cost model in place: every cell's cost function
    /// is scaled by the observed ratio and the policy is reset against
    /// the updated context.
    fn track_drift(&mut self, t: usize, action: &Counts, estimated: f64) {
        if action.is_zero() || estimated <= 0.0 {
            return;
        }
        let measured = total_cost(&self.original_costs, action) * self.faults.overrun_factor(t);
        if measured > estimated * DRIFT_RATIO {
            self.metrics.cost_overruns += 1;
            self.overrun_streak += 1;
            if self.overrun_streak >= RECALIBRATE_AFTER {
                let factor = measured / estimated;
                let ctx = self.ledger.ctx_mut();
                ctx.costs = ctx.costs.iter().map(|c| c.scaled(factor)).collect();
                self.policy.reset(self.ledger.ctx());
                self.metrics.recalibrations += 1;
                self.overrun_streak = 0;
            }
        } else {
            self.overrun_streak = 0;
        }
    }

    /// Counts, per view, ticks whose post-state would break its
    /// freshness guarantee: its group's refresh cost — what a fresh read
    /// of any member pays — exceeds C. A valid policy never lets any cell
    /// subset exceed the budget the whole state fits in, so these stay 0
    /// exactly when global violations do — but they are *attributed* to
    /// views, which is what the per-view metrics rows report and the
    /// registry tests assert on.
    fn note_view_violations(&mut self) {
        let ctx = self.ledger.ctx();
        for g in 0..self.axis.groups.len() {
            if !fits(ctx.refresh_cost(&self.group_refresh(g)), ctx.budget) {
                for &v in &self.axis.groups[g].views {
                    self.view_violations[v] += 1;
                }
            }
        }
    }

    /// The action refreshing sharing group `g`: every pending
    /// modification of its cells.
    fn group_refresh(&self, g: usize) -> Counts {
        let mut action = Counts::zero(self.n());
        for &c in &self.axis.groups[g].cells {
            action[c] = self.pending()[c];
        }
        action
    }

    /// `view`'s sharing group, or a typed error for a view out of range.
    fn group_of(&self, view: usize) -> Result<usize, EngineError> {
        (self.axis.group_of.get(view).copied()).ok_or_else(|| EngineError::Maintenance {
            message: format!("view {view} out of range for {} views", self.views()),
        })
    }

    /// The forced flush completing a fresh read of `view` (and replaying
    /// `ForcedView` records): empties the view's sharing group at
    /// refresh cost, bypassing the policy. Other groups are untouched.
    /// The ledger counts it as a violation if it costs more than `C`,
    /// which no valid policy allows: it leaves the *whole* post-action
    /// state non-full, so one group of it fits a fortiori.
    fn forced_refresh(&mut self, view: usize) -> Result<(f64, bool), EngineError> {
        let action = self.group_refresh(self.group_of(view)?);
        self.flush_engine(&action)?;
        let step =
            (self.ledger.act(Choice::Forced(action))).expect("a group refresh never overdraws");
        self.metrics.fresh_reads += 1;
        if step.violated {
            self.view_violations[view] += 1;
        }
        self.finish_step(Counts::zero(self.n()), &step, true)?;
        self.wal_log(WalRecord::ForcedView { view: view as u32 })?;
        Ok((step.cost, step.violated))
    }

    /// Serves a read of `view`, measuring end-to-end latency from
    /// `enqueued`.
    ///
    /// A fresh read first runs one normal policy tick (the paper's model
    /// adds the step's arrivals *before* the action at `t`, so the
    /// policy gets to see everything that arrived since the last tick)
    /// and then force-flushes the post-action remainder of the view's
    /// group — a *forced* step recorded in the trace but never shown to
    /// the policy. The forced flush is the refresh the constraint `C`
    /// governs: any correct policy leaves the post-action state
    /// non-full, so it always costs ≤ `C`. A stale read reports the
    /// group's pending total as its lag.
    pub fn read_view_at(
        &mut self,
        view: usize,
        mode: ReadMode,
        enqueued: Instant,
    ) -> Result<ReadResult, EngineError> {
        let g = self.group_of(view)?;
        let (flush_cost, violated) = match mode {
            ReadMode::Stale => {
                self.metrics.stale_reads += 1;
                (0.0, false)
            }
            ReadMode::Fresh => {
                self.tick()?;
                let done = self.forced_refresh(view)?;
                self.metrics
                    .refresh_latency_ns
                    .record(enqueued.elapsed().as_nanos() as u64);
                done
            }
        };
        Ok(ReadResult {
            rows: self.registry().map(|r| r.result(view)),
            lag: self.group_refresh(g).total(),
            flush_cost,
            violated,
        })
    }

    /// [`MaintenanceRuntime::read_view_at`] measured from now.
    pub fn read_view(&mut self, view: usize, mode: ReadMode) -> Result<ReadResult, EngineError> {
        self.read_view_at(view, mode, Instant::now())
    }

    /// [`MaintenanceRuntime::read_view`] of view 0.
    pub fn read(&mut self, mode: ReadMode) -> Result<ReadResult, EngineError> {
        self.read_view_at(0, mode, Instant::now())
    }

    /// A snapshot of the runtime-global counters. Per-table vectors run
    /// over the cell axis.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        if let Some(w) = &self.wal {
            snap.wal_records = w.records();
            snap.wal_fsync_lag = w.unsynced();
            snap.wal_sync_every = w.sync_every();
        }
        snap.budget = self.budget();
        snap.total_flush_cost = self.ledger.total_cost();
        snap.constraint_violations = self.ledger.violations();
        snap
    }

    /// [`MaintenanceRuntime::metrics`] with the view axis attached.
    pub fn metrics_by_view(&self) -> MultiMetricsSnapshot {
        let hub = self.hub();
        let views = (0..self.views())
            .map(|v| {
                let g = self.axis.group_of[v];
                ViewMetricsSnapshot {
                    view: v as u32,
                    group: g as u32,
                    flushes: self.view_flushes[v],
                    pending: self.group_refresh(g).total(),
                    violations: self.view_violations[v],
                    deltas_pushed: hub.map_or(0, |h| h.deltas_pushed(v)),
                    subscribers: hub.map_or(0, |h| h.subscriber_count(v)),
                    sub_lag_max: hub.map_or(0, |h| h.sub_lag_max(v)),
                }
            })
            .collect();
        let stats = self.registry().map(|r| r.stats()).unwrap_or_default();
        MultiMetricsSnapshot {
            global: self.metrics(),
            views,
            groups: self.axis.groups.len() as u64,
            propagations: stats.propagations,
            shared_propagations: stats.shared_propagations,
        }
    }

    /// The recorded trace so far, if tracing is enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Consumes the runtime, returning the recorded trace.
    pub fn into_trace(self) -> Option<Trace> {
        self.trace
    }

    /// Appends a record to the attached WAL, if any.
    fn wal_log(&mut self, rec: WalRecord) -> Result<(), EngineError> {
        match &mut self.wal {
            Some(w) => w.append(&rec),
            None => Ok(()),
        }
    }

    /// Executes a flush action over the cell axis through the engine,
    /// publishing a delta batch for every view it advanced, and counts
    /// each advanced view's flush boundary. Its cost and the pending
    /// counts are the ledger's.
    fn flush_engine(&mut self, action: &Counts) -> Result<(), EngineError> {
        if action.is_zero() {
            return Ok(());
        }
        if let Some(e) = &mut self.engine {
            let counts: Vec<u64> = action.iter().collect();
            for v in e.registry.flush_cells(&counts)?.touched {
                e.hub.publish(v, e.registry.snapshot(v));
            }
        }
        for group in &self.axis.groups {
            if group.cells.iter().any(|&c| action[c] > 0) {
                for &v in &group.views {
                    self.view_flushes[v] += 1;
                }
            }
        }
        Ok(())
    }

    /// Records a step the ledger took: metrics, the trace, and — in
    /// strict mode — a violation as a typed error.
    fn finish_step(
        &mut self,
        arrivals: Counts,
        step: &Step,
        forced: bool,
    ) -> Result<(), EngineError> {
        self.metrics.record_flush(&step.action, step.cost);
        if let Some(trace) = &mut self.trace {
            trace.push(arrivals, step.action.clone(), forced);
        }
        if step.violated && self.strict {
            return Err(EngineError::Maintenance {
                message: format!(
                    "constraint violation at t = {}: refresh cost exceeds budget {}",
                    step.t,
                    self.budget()
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::wal::MemWal;
    use crate::OnlineFlush;
    use aivm_core::CostModel;
    use aivm_engine::logical::AggFunc;
    use aivm_engine::{
        row, AggSpec, DataType, Expr, JoinPred, MinStrategy, Schema, Value, ViewDef,
    };

    fn model_runtime(policy: Box<dyn FlushPolicy>) -> MaintenanceRuntime {
        let cfg = ServeConfig::new(
            vec![CostModel::linear(0.05, 0.2), CostModel::linear(0.02, 3.0)],
            6.0,
        );
        MaintenanceRuntime::model(cfg, policy)
    }

    /// Base tables `r(k, x)` and `s(k, y)` of the registry fixtures.
    pub(crate) fn base() -> Database {
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

    pub(crate) fn join_def(name: &str) -> ViewDef {
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

    pub(crate) fn sum_def(name: &str) -> ViewDef {
        ViewDef {
            aggregate: Some(AggSpec {
                group_by: vec![0],
                aggs: vec![(AggFunc::Sum, Expr::col(3), "s".into())],
            }),
            ..join_def(name)
        }
    }

    /// [`join_def`] with `s.y > 0`: a different SPJ core, so a group of
    /// its own.
    pub(crate) fn filtered_def(name: &str) -> ViewDef {
        ViewDef {
            filters: vec![
                None,
                Some(Expr::Cmp(
                    aivm_engine::CmpOp::Gt,
                    Box::new(Expr::col(1)),
                    Box::new(Expr::lit(0i64)),
                )),
            ],
            ..join_def(name)
        }
    }

    /// The given views registered over `db`.
    pub(crate) fn registry_over(db: Database, defs: &[ViewDef]) -> ViewRegistry {
        let mut reg = ViewRegistry::new(db);
        for def in defs {
            reg.register_view(def.clone(), MinStrategy::Multiset)
                .unwrap();
        }
        reg
    }

    /// `n` views sharing one SPJ core (plain join, then n−1 SUMs).
    pub(crate) fn registry_of(n: usize) -> ViewRegistry {
        let defs: Vec<ViewDef> = (0..n)
            .map(|i| match i {
                0 => join_def("v0"),
                _ => sum_def(&format!("v{i}")),
            })
            .collect();
        registry_over(base(), &defs)
    }

    pub(crate) fn registry_config(budget: f64) -> ServeConfig {
        ServeConfig::new(
            vec![CostModel::linear(0.05, 0.2), CostModel::linear(0.02, 0.5)],
            budget,
        )
    }

    /// Arrivals `i` of the registry fixtures: one row per table, and a
    /// delete every fifth step.
    pub(crate) fn feed(rt: &mut MaintenanceRuntime, i: i64) {
        rt.ingest_dml(0, Modification::Insert(row![i % 7, (i as f64) * 0.5]))
            .unwrap();
        rt.ingest_dml(1, Modification::Insert(row![i % 7, i - 20]))
            .unwrap();
        if i % 5 == 4 {
            rt.ingest_dml(1, Modification::Delete(row![(i - 1) % 7, i - 21]))
                .unwrap();
        }
    }

    /// A policy that never flushes (violates the contract on purpose).
    struct Lazy;
    impl FlushPolicy for Lazy {
        fn reset(&mut self, _ctx: &PolicyContext) {}
        fn act(&mut self, _t: usize, pending: &Counts) -> Counts {
            Counts::zero(pending.len())
        }
        fn name(&self) -> &str {
            "lazy"
        }
    }

    #[test]
    fn naive_keeps_state_under_budget() {
        let mut rt = model_runtime(Box::new(NaiveFlush::new()));
        for _ in 0..200 {
            rt.ingest_count(0, 2);
            rt.ingest_count(1, 1);
            let report = rt.tick().unwrap();
            assert!(!report.violated);
        }
        let m = rt.metrics();
        assert_eq!(m.constraint_violations, 0);
        assert_eq!(m.events_ingested, 600);
        assert!(m.flush_count > 0);
    }

    #[test]
    fn fresh_read_empties_pending_and_fits_budget() {
        let mut rt = model_runtime(Box::new(OnlineFlush::new()));
        for i in 0..50 {
            rt.ingest_count(0, 1);
            rt.ingest_count(1, 1);
            rt.tick().unwrap();
            if i % 7 == 0 {
                let r = rt.read(ReadMode::Fresh).unwrap();
                assert!(!r.violated);
                assert!(r.flush_cost <= 6.0 + 1e-9);
                assert_eq!(r.lag, 0);
                assert!(rt.pending().is_zero());
            }
        }
        let m = rt.metrics();
        assert_eq!(m.constraint_violations, 0);
        assert_eq!(m.fresh_reads, 8);
        assert_eq!(m.refresh_latency_ns.count, 8);
    }

    #[test]
    fn stale_read_reports_lag_without_flushing() {
        let mut rt = model_runtime(Box::new(NaiveFlush::new()));
        rt.ingest_count(0, 3);
        let r = rt.read(ReadMode::Stale).unwrap();
        assert_eq!(r.lag, 3);
        assert_eq!(r.flush_cost, 0.0);
        assert_eq!(rt.pending().total(), 3);
    }

    #[test]
    fn trace_records_every_step_with_forced_flags() {
        let mut rt = model_runtime(Box::new(NaiveFlush::new()));
        rt.ingest_count(0, 1);
        rt.tick().unwrap();
        rt.ingest_count(1, 2);
        rt.read(ReadMode::Fresh).unwrap();
        // Steps: first tick, then the fresh read's embedded policy tick,
        // then its forced full flush.
        let trace = rt.into_trace().expect("tracing on");
        assert_eq!(trace.steps.len(), 3);
        assert!(!trace.steps[0].forced);
        assert!(!trace.steps[1].forced);
        assert_eq!(trace.steps[1].arrivals, Counts::from_slice(&[0, 2]));
        assert!(trace.steps[2].forced);
        assert!(trace.steps[2].arrivals.is_zero());
        assert_eq!(trace.steps[2].action.total(), 3);
    }

    #[test]
    fn strict_mode_returns_typed_error_when_policy_leaves_state_full() {
        let mut cfg = ServeConfig::new(vec![CostModel::linear(1.0, 0.0)], 2.0);
        cfg.strict = true;
        let mut rt = MaintenanceRuntime::model(cfg, Box::new(Lazy));
        rt.ingest_count(0, 10);
        let err = rt.tick().unwrap_err();
        assert!(
            matches!(&err, EngineError::Maintenance { message }
                if message.contains("constraint violation")),
            "got {err:?}"
        );
        // The violation is still counted and the step still recorded.
        assert_eq!(rt.metrics().constraint_violations, 1);
        assert_eq!(rt.trace().unwrap().steps.len(), 1);
    }

    #[test]
    fn non_strict_mode_counts_violations_without_erroring() {
        let cfg = ServeConfig::new(vec![CostModel::linear(1.0, 0.0)], 2.0);
        let mut rt = MaintenanceRuntime::model(cfg, Box::new(Lazy));
        rt.ingest_count(0, 10);
        let report = rt.tick().unwrap();
        assert!(report.violated);
        assert_eq!(rt.metrics().constraint_violations, 1);
    }

    /// A policy that panics at a fixed tick, then would behave naively.
    struct PanicAt(usize);
    impl FlushPolicy for PanicAt {
        fn reset(&mut self, _ctx: &PolicyContext) {}
        fn act(&mut self, t: usize, pending: &Counts) -> Counts {
            assert!(t != self.0, "scripted policy bug at t = {t}");
            pending.clone()
        }
        fn name(&self) -> &str {
            "panic-at"
        }
    }

    #[test]
    fn panicking_policy_demotes_to_naive_and_keeps_serving() {
        let mut rt = model_runtime(Box::new(PanicAt(3)));
        for _ in 0..20 {
            rt.ingest_count(0, 2);
            rt.ingest_count(1, 1);
            rt.tick().unwrap();
        }
        assert!(rt.demoted());
        assert_eq!(rt.policy_name(), "naive");
        let m = rt.metrics();
        assert_eq!(m.policy_demotions, 1);
        // After the demotion NaiveFlush maintains validity: fresh reads
        // still fit the budget.
        let r = rt.read(ReadMode::Fresh).unwrap();
        assert!(!r.violated);
        assert!(r.flush_cost <= 6.0 + 1e-9);
    }

    /// A policy that overdraws (returns more than pending).
    struct Overdraw;
    impl FlushPolicy for Overdraw {
        fn reset(&mut self, _ctx: &PolicyContext) {}
        fn act(&mut self, _t: usize, pending: &Counts) -> Counts {
            let mut a = pending.clone();
            a[0] += 100;
            a
        }
        fn name(&self) -> &str {
            "overdraw"
        }
    }

    #[test]
    fn overdrawing_policy_demotes_instead_of_panicking() {
        let mut rt = model_runtime(Box::new(Overdraw));
        rt.ingest_count(0, 5);
        let report = rt.tick().unwrap();
        assert!(rt.demoted());
        assert_eq!(rt.metrics().policy_demotions, 1);
        // The naive fallback's decision was used (never an overdraw).
        assert!(report.action.dominated_by(&Counts::from_slice(&[5, 0])));
    }

    #[test]
    fn injected_policy_panic_via_fault_plan() {
        let mut rt = model_runtime(Box::new(NaiveFlush::new()));
        rt.set_faults(FaultPlan {
            policy_panic_at: Some(2),
            ..FaultPlan::none()
        });
        for _ in 0..6 {
            rt.ingest_count(0, 1);
            rt.tick().unwrap();
        }
        assert_eq!(rt.metrics().policy_demotions, 1);
        assert_eq!(rt.metrics().constraint_violations, 0);
    }

    #[test]
    fn injected_flush_error_demotes_and_degrades_to_noop() {
        let mut rt = model_runtime(Box::new(OnlineFlush::new()));
        rt.set_faults(FaultPlan {
            flush_error_at: Some(1),
            ..FaultPlan::none()
        });
        for _ in 0..10 {
            rt.ingest_count(0, 2);
            rt.ingest_count(1, 1);
            rt.tick().unwrap();
        }
        let m = rt.metrics();
        assert_eq!(m.flush_errors, 1);
        assert_eq!(m.policy_demotions, 1);
        // NaiveFlush catches up after the dropped flush; no violations
        // beyond (possibly) the faulted tick itself.
        let r = rt.read(ReadMode::Fresh).unwrap();
        assert!(!r.violated);
    }

    #[test]
    fn sustained_cost_overrun_triggers_recalibration() {
        // Counts-only, and a two-view registry (one sharing group): the
        // same drift tracking runs over either cell axis.
        let registry = MaintenanceRuntime::new(
            ServeConfig::new(
                vec![CostModel::linear(0.05, 0.2), CostModel::linear(0.02, 3.0)],
                6.0,
            ),
            Box::new(NaiveFlush::new()),
            registry_of(2),
        )
        .unwrap();
        for mut rt in [model_runtime(Box::new(NaiveFlush::new())), registry] {
            let ingest = |rt: &mut MaintenanceRuntime, table: usize, k: u64| {
                if rt.registry().is_none() {
                    return rt.ingest_count(table, k);
                }
                for i in 0..k as i64 {
                    let m = match table {
                        0 => row![i % 7, i as f64],
                        _ => row![i % 7, i],
                    };
                    rt.ingest_dml(table, Modification::Insert(m)).unwrap();
                }
            };
            rt.set_faults(FaultPlan {
                cost_overrun: Some(crate::fault::CostOverrun {
                    from_t: 0,
                    factor: 2.0,
                }),
                ..FaultPlan::none()
            });
            for _ in 0..20 {
                ingest(&mut rt, 0, 30);
                ingest(&mut rt, 1, 10);
                rt.tick().unwrap();
            }
            let m = rt.metrics();
            assert!(m.cost_overruns >= RECALIBRATE_AFTER as u64);
            assert_eq!(
                m.recalibrations, 1,
                "one recalibration absorbs the 2x drift"
            );
            // After recalibration estimates match "measured" costs; the
            // overrun streak stops growing.
            let overruns_at_recal = m.cost_overruns;
            for _ in 0..10 {
                ingest(&mut rt, 0, 30);
                rt.tick().unwrap();
            }
            assert_eq!(rt.metrics().cost_overruns, overruns_at_recal);
        }
    }

    /// A one-table engine runtime over a trivial SELECT * view.
    fn tiny_engine(
        policy: Box<dyn FlushPolicy>,
        strict_budget: f64,
    ) -> (MaintenanceRuntime, Database) {
        let mut db = Database::new();
        let t = db
            .create_table("t", Schema::new(vec![("id", DataType::Int)]))
            .unwrap();
        db.set_key_column(t, 0);
        let genesis = db.clone();
        let view = make_tiny_view(&db).unwrap();
        let cfg = ServeConfig::new(vec![CostModel::linear(0.5, 0.1)], strict_budget);
        let rt = MaintenanceRuntime::engine(cfg, policy, db, view).unwrap();
        (rt, genesis)
    }

    fn make_tiny_view(db: &Database) -> Result<MaterializedView, EngineError> {
        MaterializedView::new(
            db,
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
    }

    #[test]
    fn crash_recovery_reproduces_view_and_pending_exactly() {
        let mem = MemWal::new();
        let (mut rt, genesis) = tiny_engine(Box::new(NaiveFlush::new()), 5.0);
        rt.attach_wal(WalWriter::create(Box::new(mem.clone()), 4).unwrap());
        let mut checkpoint = None;
        for i in 0..30i64 {
            rt.ingest_dml(0, Modification::Insert(row![i])).unwrap();
            if i % 3 == 0 {
                rt.tick().unwrap();
            }
            if i == 17 {
                checkpoint = Some(rt.checkpoint());
            }
        }
        let expect_view = rt.view_checksum().unwrap();
        let expect_db = rt.db_checksum().unwrap();
        let expect_pending = rt.pending().clone();
        let expect_t = rt.ledger.t();
        let expect_steps = rt.trace().unwrap().steps.clone();

        // "Crash": drop the runtime; recover from WAL + checkpoint.
        drop(rt);
        let cfg = ServeConfig::new(vec![CostModel::linear(0.5, 0.1)], 5.0);
        let recovered = MaintenanceRuntime::recover(
            cfg.clone(),
            Box::new(NaiveFlush::new()),
            &mem.bytes(),
            checkpoint.as_ref(),
            genesis.clone(),
            &make_tiny_view,
        )
        .unwrap();
        assert_eq!(recovered.view_checksum().unwrap(), expect_view);
        assert_eq!(recovered.db_checksum().unwrap(), expect_db);
        assert_eq!(recovered.pending(), &expect_pending);
        assert_eq!(recovered.ledger.t(), expect_t);
        assert_eq!(recovered.trace().unwrap().steps, expect_steps);
        assert_eq!(recovered.metrics().recoveries, 1);

        // Recovery without the checkpoint (full replay from genesis)
        // lands in the same state.
        let from_genesis = MaintenanceRuntime::recover(
            cfg,
            Box::new(NaiveFlush::new()),
            &mem.bytes(),
            None,
            genesis,
            &make_tiny_view,
        )
        .unwrap();
        assert_eq!(from_genesis.view_checksum().unwrap(), expect_view);
        assert_eq!(from_genesis.pending(), &expect_pending);
    }

    #[test]
    fn budget_rebalance_is_wal_logged_and_replayed() {
        let mem = MemWal::new();
        let (mut rt, genesis) = tiny_engine(Box::new(NaiveFlush::new()), 5.0);
        rt.attach_wal(WalWriter::create(Box::new(mem.clone()), 1).unwrap());
        let mut checkpoint = None;
        for i in 0..30i64 {
            rt.ingest_dml(0, Modification::Insert(row![i])).unwrap();
            if i % 3 == 0 {
                rt.tick().unwrap();
            }
            if i == 10 {
                // A coordinator epoch shrinks the budget; the policy now
                // flushes on a different schedule than the original C.
                rt.set_budget(2.5).unwrap();
            }
            if i == 17 {
                // Checkpoint *after* the rebalance: shadow replay must
                // apply the SetBudget record to agree with it.
                checkpoint = Some(rt.checkpoint());
            }
        }
        // A bitwise-identical budget is a no-op and adds no record.
        let records_before = rt.wal_records();
        rt.set_budget(2.5).unwrap();
        assert_eq!(rt.wal_records(), records_before);
        assert_eq!(rt.metrics().budget_rebalances, 1);
        assert_eq!(rt.budget(), 2.5);
        let expect_view = rt.view_checksum().unwrap();
        let expect_pending = rt.pending().clone();
        drop(rt);
        let cfg = ServeConfig::new(vec![CostModel::linear(0.5, 0.1)], 5.0);
        for ck in [checkpoint.as_ref(), None] {
            let recovered = MaintenanceRuntime::recover(
                cfg.clone(),
                Box::new(NaiveFlush::new()),
                &mem.bytes(),
                ck,
                genesis.clone(),
                &make_tiny_view,
            )
            .unwrap();
            assert_eq!(recovered.view_checksum().unwrap(), expect_view);
            assert_eq!(recovered.pending(), &expect_pending);
            assert_eq!(
                recovered.budget(),
                2.5,
                "replay must land on the live budget"
            );
        }
    }

    #[test]
    fn recovery_rejects_mismatched_checkpoint() {
        let mem = MemWal::new();
        let (mut rt, genesis) = tiny_engine(Box::new(NaiveFlush::new()), 5.0);
        rt.attach_wal(WalWriter::create(Box::new(mem.clone()), 1).unwrap());
        for i in 0..10i64 {
            rt.ingest_dml(0, Modification::Insert(row![i])).unwrap();
        }
        rt.tick().unwrap();
        let mut ck = rt.checkpoint();
        ck.pending[0] += 1; // tampered state vector
        let cfg = ServeConfig::new(vec![CostModel::linear(0.5, 0.1)], 5.0);
        let err = MaintenanceRuntime::recover(
            cfg,
            Box::new(NaiveFlush::new()),
            &mem.bytes(),
            Some(&ck),
            genesis,
            &make_tiny_view,
        )
        .map(|_| ())
        .unwrap_err();
        assert!(matches!(err, EngineError::Corrupt { .. }), "got {err:?}");
    }

    #[test]
    fn engine_reads_reflect_recovered_rows() {
        let mem = MemWal::new();
        let (mut rt, genesis) = tiny_engine(Box::new(NaiveFlush::new()), 5.0);
        rt.attach_wal(WalWriter::create(Box::new(mem.clone()), 1).unwrap());
        for i in 0..5i64 {
            rt.ingest_dml(0, Modification::Insert(row![i])).unwrap();
        }
        rt.read(ReadMode::Fresh).unwrap();
        rt.ingest_dml(0, Modification::Delete(row![2i64])).unwrap();
        drop(rt);
        let cfg = ServeConfig::new(vec![CostModel::linear(0.5, 0.1)], 5.0);
        let mut recovered = MaintenanceRuntime::recover(
            cfg,
            Box::new(NaiveFlush::new()),
            &mem.bytes(),
            None,
            genesis,
            &make_tiny_view,
        )
        .unwrap();
        let r = recovered.read(ReadMode::Fresh).unwrap();
        let mut ids: Vec<i64> = r
            .rows
            .unwrap()
            .into_iter()
            .map(|(row, _)| match row.get(0) {
                Value::Int(i) => *i,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 3, 4]);
    }
}
