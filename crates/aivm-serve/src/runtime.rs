//! The synchronous maintenance core.
//!
//! [`MaintenanceRuntime`] is single-threaded and deterministic: ingest
//! events, close arrival windows with [`MaintenanceRuntime::tick`], and
//! serve reads. The threaded [`server`](crate::server) drives one of
//! these from its scheduler loop; tests and benchmarks drive it
//! directly, which is what makes live behaviour reproducible offline.
//!
//! Two backends share the same scheduling logic:
//!
//! * **Model** — counts-only; flushes charge the configured cost
//!   functions but touch no data. For policy tests and throughput
//!   benchmarks.
//! * **Engine** — owns a [`Database`] and a [`MaterializedView`]; DML
//!   ingest applies each modification to the base table and enqueues it
//!   in the view's delta table (arrival-time semantics, §2), and flushes
//!   propagate deltas for real.
//!
//! ## Durability
//!
//! With a [`WalWriter`] attached, every state-changing event — ingest,
//! tick, forced flush — is appended to the log *after* it applied.
//! Because scheduling is a deterministic function of the event
//! sequence, [`MaintenanceRuntime::recover`] rebuilds the exact state
//! of an uncrashed run: it restores data from the latest
//! [`Checkpoint`] (or the genesis database), *shadow-replays* the
//! checkpointed log prefix in counts-only mode to rebuild policy
//! state, metrics and trace, then replays the log tail against the
//! engine for real.
//!
//! ## Graceful degradation
//!
//! The runtime never `panic!`s on a misbehaving policy. Decisions run
//! under `catch_unwind`; a panicking or overdrawing policy is
//! permanently demoted to [`NaiveFlush`] (the one policy that is valid
//! by construction), counted in metrics. An injected flush failure
//! (which models a transient pre-write error) demotes the same way and
//! skips the flush; a *real* engine flush error propagates, because
//! the view state can no longer be trusted. Sustained flush-cost
//! overruns beyond [`DRIFT_RATIO`] trigger a cost-model recalibration
//! after [`RECALIBRATE_AFTER`] consecutive overruns. Strict mode turns
//! constraint violations into typed [`EngineError::Maintenance`]
//! errors instead of panics.

use crate::fault::FaultPlan;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::policy::{FlushPolicy, NaiveFlush};
use crate::trace::Trace;
use crate::wal::{read_wal, Checkpoint, EngineCheckpoint, WalRecord, WalWriter};
use aivm_core::{fits, total_cost, CostModel, Counts};
use aivm_engine::{Database, EngineError, MaterializedView, Modification, ViewSnapshot, WRow};
use aivm_solver::PolicyContext;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Measured-vs-estimated flush cost ratio beyond which a tick counts as
/// a cost overrun.
pub const DRIFT_RATIO: f64 = 1.5;

/// Consecutive overruns that trigger a cost-model recalibration.
pub const RECALIBRATE_AFTER: u32 = 3;

/// Configuration of a [`MaintenanceRuntime`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Per-table cost functions (the model the scheduler reasons with).
    pub costs: Vec<CostModel>,
    /// The refresh response-time budget `C`.
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
    /// Flush everything pending, then read. By the paper's validity
    /// invariant the flush always costs ≤ `C`.
    Fresh,
}

/// Outcome of a read.
#[derive(Clone, Debug)]
pub struct ReadResult {
    /// Materialized rows (engine backend; `None` on the model backend).
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

/// Outcome of one scheduler tick.
#[derive(Clone, Debug)]
pub struct TickReport {
    /// The tick index (policy time `t`).
    pub t: usize,
    /// The action the policy chose (may be zero).
    pub action: Counts,
    /// Model cost charged for the action.
    pub cost: f64,
    /// Whether the post-action state was left full.
    pub violated: bool,
}

enum Backend {
    Model,
    Engine(Box<EngineState>),
}

struct EngineState {
    db: Database,
    view: MaterializedView,
}

/// The synchronous maintenance core. See the module docs.
pub struct MaintenanceRuntime {
    ctx: PolicyContext,
    /// The cost functions as configured, before any recalibration —
    /// the stand-in for "true" flush costs when simulating drift.
    original_costs: Vec<CostModel>,
    policy: Box<dyn FlushPolicy>,
    backend: Backend,
    pending: Counts,
    window: Counts,
    t: usize,
    strict: bool,
    metrics: Metrics,
    trace: Option<Trace>,
    wal: Option<WalWriter>,
    faults: FaultPlan,
    demoted: bool,
    overrun_streak: u32,
    rebalances: u64,
}

impl MaintenanceRuntime {
    /// Creates a counts-only (model-backed) runtime.
    pub fn model(cfg: ServeConfig, mut policy: Box<dyn FlushPolicy>) -> Self {
        let n = cfg.costs.len();
        let ctx = PolicyContext {
            costs: cfg.costs.clone(),
            budget: cfg.budget,
        };
        policy.reset(&ctx);
        MaintenanceRuntime {
            trace: cfg
                .record_trace
                .then(|| Trace::new(cfg.costs.clone(), cfg.budget)),
            original_costs: cfg.costs,
            ctx,
            policy,
            backend: Backend::Model,
            pending: Counts::zero(n),
            window: Counts::zero(n),
            t: 0,
            strict: cfg.strict,
            metrics: Metrics::new(n),
            wal: None,
            faults: FaultPlan::none(),
            demoted: false,
            overrun_streak: 0,
            rebalances: 0,
        }
    }

    /// Creates an engine-backed runtime owning `db` and `view`. The
    /// cost vector must have one entry per base table of the view, in
    /// view order.
    pub fn engine(
        cfg: ServeConfig,
        policy: Box<dyn FlushPolicy>,
        db: Database,
        mut view: MaterializedView,
    ) -> Result<Self, EngineError> {
        if cfg.costs.len() != view.n() {
            return Err(EngineError::Maintenance {
                message: format!(
                    "cost vector arity {} != view tables {}",
                    cfg.costs.len(),
                    view.n()
                ),
            });
        }
        view.set_flush_threads(cfg.flush_threads);
        // The serving stack reads Stale from flush-boundary snapshots,
        // so publication must be on however the view was constructed.
        view.set_snapshot_publishing(true);
        let mut rt = Self::model(cfg, policy);
        rt.backend = Backend::Engine(Box::new(EngineState { db, view }));
        Ok(rt)
    }

    /// Rebuilds an engine-backed runtime from a WAL image.
    ///
    /// Three phases:
    ///
    /// 1. **Shadow replay** — the log prefix covered by `checkpoint`
    ///    re-runs in counts-only mode: every tick consults the (fresh)
    ///    policy exactly as the original run did, rebuilding policy
    ///    state, metrics, trace and accumulated cost without touching
    ///    data. The resulting pending counts must match the checkpoint
    ///    (else the artifacts disagree and recovery fails as
    ///    [`EngineError::Corrupt`]).
    /// 2. **State restore** — database and pending delta tables come
    ///    from the checkpoint (the database snapshot already reflects
    ///    *every* logged DML up to the checkpoint, because arrivals
    ///    apply immediately under §2 semantics); `make_view`
    ///    reconstructs the view definition, which the codec does not
    ///    serialize. With no checkpoint, `genesis_db` — the database as
    ///    it was when the WAL was created — seeds phase 3 instead.
    /// 3. **Engine replay** — the log tail past the checkpoint replays
    ///    for real: DML applies to base tables, ticks flush.
    ///
    /// Determinism makes this exact: a recovered runtime reproduces the
    /// uncrashed run's view checksum, pending counts, trace and cost
    /// bit-for-bit, which `repro chaos` asserts at every kill index.
    /// The returned runtime has no WAL attached; call
    /// [`MaintenanceRuntime::attach_wal`] to resume logging.
    pub fn recover(
        cfg: ServeConfig,
        policy: Box<dyn FlushPolicy>,
        wal_bytes: &[u8],
        checkpoint: Option<&Checkpoint>,
        genesis_db: Database,
        make_view: &dyn Fn(&Database) -> Result<MaterializedView, EngineError>,
    ) -> Result<Self, EngineError> {
        let corrupt = |message: String| EngineError::Corrupt {
            context: "recovery".into(),
            offset: 0,
            message,
        };
        let outcome = read_wal(wal_bytes)?;
        let records = outcome.records;
        let prefix = match checkpoint {
            Some(ck) => {
                let covered = ck.wal_records as usize;
                if covered > records.len() {
                    return Err(corrupt(format!(
                        "checkpoint covers {covered} wal records but only {} are readable",
                        records.len()
                    )));
                }
                covered
            }
            None => 0,
        };
        let flush_threads = cfg.flush_threads;
        let mut rt = MaintenanceRuntime::model(cfg, policy);
        for rec in &records[..prefix] {
            rt.replay_shadow(rec)?;
        }
        // Install the data state at the checkpoint position.
        let state = match checkpoint {
            Some(ck) => {
                if rt.t as u64 != ck.t {
                    return Err(corrupt(format!(
                        "shadow replay reached t = {} but checkpoint says t = {}",
                        rt.t, ck.t
                    )));
                }
                if ck.pending.len() != rt.n()
                    || ck
                        .pending
                        .iter()
                        .enumerate()
                        .any(|(i, &p)| rt.pending[i] != p)
                {
                    return Err(corrupt(format!(
                        "shadow replay pending {:?} disagrees with checkpoint {:?}",
                        rt.pending, ck.pending
                    )));
                }
                let EngineCheckpoint { db, pending_mods } = ck
                    .engine
                    .as_ref()
                    .ok_or_else(|| corrupt("checkpoint has no engine payload".into()))?;
                let db = aivm_engine::restore(bytes::Bytes::from(db.as_slice()))?;
                let mut view = make_view(&db)?;
                view.set_flush_threads(flush_threads);
                view.set_snapshot_publishing(true);
                view.restore_pending(&db, pending_mods.clone())?;
                EngineState { db, view }
            }
            None => {
                let mut view = make_view(&genesis_db)?;
                view.set_flush_threads(flush_threads);
                view.set_snapshot_publishing(true);
                EngineState {
                    db: genesis_db,
                    view,
                }
            }
        };
        if state.view.n() != rt.n() {
            return Err(corrupt(format!(
                "recovered view has {} tables, config has {}",
                state.view.n(),
                rt.n()
            )));
        }
        rt.backend = Backend::Engine(Box::new(state));
        // Replay the tail for real.
        for rec in &records[prefix..] {
            rt.replay_engine(rec)?;
        }
        rt.metrics.recoveries += 1;
        Ok(rt)
    }

    /// Applies one log record in counts-only (shadow) mode.
    fn replay_shadow(&mut self, rec: &WalRecord) -> Result<(), EngineError> {
        let bounds = |table: usize, n: usize| {
            if table >= n {
                Err(EngineError::Corrupt {
                    context: "wal".into(),
                    offset: 0,
                    message: format!("record table {table} out of range for {n} tables"),
                })
            } else {
                Ok(())
            }
        };
        match rec {
            WalRecord::Dml { table, .. } => {
                bounds(*table, self.n())?;
                self.pending[*table] += 1;
                self.window[*table] += 1;
                self.metrics.events_ingested += 1;
            }
            WalRecord::Count { table, k } => {
                bounds(*table, self.n())?;
                self.pending[*table] += k;
                self.window[*table] += k;
                self.metrics.events_ingested += k;
            }
            WalRecord::Tick => {
                self.tick()?;
            }
            WalRecord::Forced => {
                self.forced_refresh()?;
            }
            WalRecord::SetBudget { budget } => {
                self.set_budget(*budget)?;
            }
            WalRecord::ForcedView { .. } => {
                return Err(EngineError::Corrupt {
                    context: "wal".into(),
                    offset: 0,
                    message: "registry record in a single-view log".into(),
                })
            }
        }
        Ok(())
    }

    /// Applies one log record against the engine backend.
    fn replay_engine(&mut self, rec: &WalRecord) -> Result<(), EngineError> {
        match rec {
            WalRecord::Dml { table, m } => self.ingest_dml(*table, m.clone()),
            WalRecord::Count { .. } => Err(EngineError::Corrupt {
                context: "wal".into(),
                offset: 0,
                message: "counts-only record in an engine-backed log".into(),
            }),
            WalRecord::Tick => self.tick().map(|_| ()),
            WalRecord::Forced => self.forced_refresh().map(|_| ()),
            WalRecord::SetBudget { budget } => self.set_budget(*budget),
            WalRecord::ForcedView { .. } => Err(EngineError::Corrupt {
                context: "wal".into(),
                offset: 0,
                message: "registry record in a single-view log".into(),
            }),
        }
    }

    /// Applies one replicated log record to this (engine-backed)
    /// runtime — the follower path of WAL tail-streaming.
    ///
    /// Semantically identical to the engine-replay phase of
    /// [`MaintenanceRuntime::recover`], but incremental: a follower
    /// applies records as segments arrive instead of replaying a whole
    /// image at once. With a WAL of its own attached, each applied
    /// record is re-logged (`ingest_dml`/`tick`/`forced_refresh` log
    /// after applying), so the follower's log mirrors the leader's and
    /// the follower is itself recoverable and promotable.
    pub fn apply_record(&mut self, rec: &WalRecord) -> Result<(), EngineError> {
        self.replay_engine(rec)
    }

    /// Attaches a write-ahead log; every subsequent state-changing
    /// event is appended to it.
    pub fn attach_wal(&mut self, wal: WalWriter) {
        self.wal = Some(wal);
    }

    /// The refresh budget `C` currently in force.
    pub fn budget(&self) -> f64 {
        self.ctx.budget
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

    /// Captures a checkpoint of the current state, tagged with the
    /// current WAL position. Meaningful at event boundaries (between
    /// ingests/ticks), which is the only place the scheduler takes
    /// them.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            wal_records: self.wal_records(),
            t: self.t as u64,
            pending: self.pending.iter().collect(),
            engine: match &self.backend {
                Backend::Model => None,
                Backend::Engine(e) => Some(EngineCheckpoint {
                    db: aivm_engine::snapshot(&e.db).to_vec(),
                    pending_mods: e.view.pending_snapshot(),
                }),
            },
        }
    }

    /// Content checksum of the materialized view (engine backend only).
    pub fn view_checksum(&self) -> Option<u64> {
        match &self.backend {
            Backend::Model => None,
            Backend::Engine(e) => Some(e.view.result_checksum()),
        }
    }

    /// The view's current immutable flush-boundary snapshot (engine
    /// backend only). Cloning the `Arc` is cheap; the snapshot never
    /// mutates, so the caller can hand it to other threads and serve
    /// stale reads from it without coming back here.
    pub fn view_snapshot(&self) -> Option<Arc<ViewSnapshot>> {
        match &self.backend {
            Backend::Model => None,
            Backend::Engine(e) => Some(e.view.snapshot()),
        }
    }

    /// The view's cumulative maintenance counters (engine backend
    /// only). `exec.scan_fallbacks` must stay 0 on auto-indexed views —
    /// the TPC-R repro gates on it.
    pub fn maintenance_stats(&self) -> Option<&aivm_engine::MaintenanceStats> {
        match &self.backend {
            Backend::Model => None,
            Backend::Engine(e) => Some(&e.view.stats),
        }
    }

    /// Content checksum of the database (engine backend only).
    pub fn db_checksum(&self) -> Option<u64> {
        match &self.backend {
            Backend::Model => None,
            Backend::Engine(e) => Some(e.db.content_checksum()),
        }
    }

    /// The live database (engine backend only). Equivalence and chaos
    /// harnesses use it to evaluate the view definition directly over
    /// the base tables and compare against the maintained result.
    pub fn database(&self) -> Option<&aivm_engine::Database> {
        match &self.backend {
            Backend::Model => None,
            Backend::Engine(e) => Some(&e.db),
        }
    }

    /// Number of base tables.
    pub fn n(&self) -> usize {
        self.ctx.n()
    }

    /// The current pending-counts state `s`.
    pub fn pending(&self) -> &Counts {
        &self.pending
    }

    /// The active policy's name (`"naive"` after a demotion).
    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    /// Whether the original policy was demoted to [`NaiveFlush`].
    pub fn demoted(&self) -> bool {
        self.demoted
    }

    /// Position of a base table within the view, by name (engine
    /// backend only; `None` on the model backend or unknown names).
    pub fn table_position(&self, name: &str) -> Option<usize> {
        match &self.backend {
            Backend::Model => None,
            Backend::Engine(e) => e.view.table_position(name),
        }
    }

    /// Ingests `k` anonymous modification events for `table` (model
    /// backend only — the engine backend needs the actual rows).
    ///
    /// # Panics
    ///
    /// On an engine-backed runtime, or when `table` is out of range.
    pub fn ingest_count(&mut self, table: usize, k: u64) {
        assert!(
            matches!(self.backend, Backend::Model),
            "engine-backed runtimes ingest modifications, not bare counts"
        );
        self.pending[table] += k;
        self.window[table] += k;
        self.metrics.events_ingested += k;
        if let Some(w) = &mut self.wal {
            // Counts-only runtimes are test/bench vehicles; a WAL
            // failure here still surfaces, via the metrics error count.
            if w.append(&WalRecord::Count { table, k }).is_err() {
                self.metrics.wal_errors += 1;
            }
        }
    }

    /// Ingests one DML event for the `table`-th base table: applies it
    /// to the base table and enqueues it in the view's delta table
    /// (engine backend only). On success the event is WAL-logged; a
    /// failed apply changes nothing and is safe to retry or drop.
    pub fn ingest_dml(&mut self, table: usize, m: Modification) -> Result<(), EngineError> {
        let e = match &mut self.backend {
            Backend::Model => {
                return Err(EngineError::Maintenance {
                    message: "model-backed runtimes ingest counts, not modifications".into(),
                })
            }
            Backend::Engine(e) => e,
        };
        e.view.apply_and_enqueue(&mut e.db, table, m.clone())?;
        self.pending[table] += 1;
        self.window[table] += 1;
        self.metrics.events_ingested += 1;
        self.wal_log(WalRecord::Dml { table, m })?;
        Ok(())
    }

    /// Closes the current arrival window and runs one scheduler step:
    /// consults the policy (under `catch_unwind`, demoting it on a
    /// panic or overdraw), executes its flush, checks the post-action
    /// state against the budget, and tracks cost drift.
    pub fn tick(&mut self) -> Result<TickReport, EngineError> {
        let t = self.t;
        let zero = Counts::zero(self.n());
        let arrivals = std::mem::replace(&mut self.window, zero);
        let mut action = self.decide_guarded(t);
        let cost;
        if self.faults.flush_fails(t) {
            self.faults.flush_error_at = None;
            // Injected flush failure: models a transient error surfaced
            // *before* any state mutation. The tick degrades to a
            // no-op flush and the policy is demoted — its next decision
            // will be made by NaiveFlush against the grown backlog.
            self.metrics.flush_errors += 1;
            self.demote(t);
            action = Counts::zero(self.n());
            cost = 0.0;
        } else {
            cost = self.execute_flush(&action)?;
        }
        self.track_drift(t, &action, cost);
        let violated = self.ctx.is_full(&self.pending);
        self.metrics.ticks += 1;
        self.finish_step(arrivals, action.clone(), false, cost, violated, t)?;
        self.wal_log(WalRecord::Tick)?;
        Ok(TickReport {
            t,
            action,
            cost,
            violated,
        })
    }

    /// Runs the policy under `catch_unwind`. A panic (real or injected)
    /// or an overdrawing action permanently demotes to [`NaiveFlush`]
    /// and the naive decision is used instead.
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
            Ok(a) if a.len() == self.n() && a.dominated_by(&self.pending) => return a,
            Ok(_) | Err(_) => {}
        }
        // The policy panicked mid-decision (its internal state can no
        // longer be trusted) or overdrew. Demote and re-decide.
        self.demote(t);
        let fallback = self.policy.decide(t, &self.pending);
        if fallback.len() == self.n() && fallback.dominated_by(&self.pending) {
            fallback
        } else {
            Counts::zero(self.n())
        }
    }

    /// Permanently replaces the policy with a freshly reset
    /// [`NaiveFlush`] (idempotent; counted once).
    fn demote(&mut self, _t: usize) {
        if self.demoted {
            return;
        }
        self.demoted = true;
        self.metrics.policy_demotions += 1;
        let mut naive: Box<dyn FlushPolicy> = Box::new(NaiveFlush::new());
        naive.reset(&self.ctx);
        self.policy = naive;
    }

    /// Compares the tick's "measured" flush cost (the original cost
    /// model, times any injected overrun factor) against the estimate
    /// the scheduler charged. A sustained drift beyond [`DRIFT_RATIO`]
    /// recalibrates the cost model in place: every cost function is
    /// scaled by the observed ratio and the policy is reset against the
    /// updated context.
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
                self.ctx.costs = self.ctx.costs.iter().map(|c| c.scaled(factor)).collect();
                self.policy.reset(&self.ctx);
                self.metrics.recalibrations += 1;
                self.overrun_streak = 0;
            }
        } else {
            self.overrun_streak = 0;
        }
    }

    /// The forced full flush that completes a fresh read (and replays
    /// `Forced` log records): empties pending at refresh cost, bypassing
    /// the policy.
    fn forced_refresh(&mut self) -> Result<(f64, bool), EngineError> {
        let t = self.t;
        let action = self.pending.clone();
        let cost = self.ctx.refresh_cost(&action);
        // The validity invariant: the post-action state is never full,
        // so the refresh that empties it fits C.
        let violated = !fits(cost, self.ctx.budget);
        let flush_cost = self.execute_flush(&action)?;
        debug_assert!((flush_cost - cost).abs() < 1e-9);
        self.metrics.fresh_reads += 1;
        self.finish_step(Counts::zero(self.n()), action, true, cost, violated, t)?;
        self.wal_log(WalRecord::Forced)?;
        Ok((cost, violated))
    }

    /// Serves a read, measuring end-to-end latency from `enqueued`.
    ///
    /// A fresh read first runs one normal policy tick (the paper's model
    /// adds the step's arrivals *before* the action at `t`, so the
    /// policy gets to see everything that arrived since the last tick)
    /// and then force-flushes the post-action remainder — a *forced*
    /// step recorded in the trace but never shown to the policy. The
    /// forced flush is the refresh the constraint `C` governs: any
    /// correct policy leaves the post-action state non-full, so it
    /// always costs ≤ `C`.
    pub fn read_at(
        &mut self,
        mode: ReadMode,
        enqueued: Instant,
    ) -> Result<ReadResult, EngineError> {
        match mode {
            ReadMode::Stale => {
                self.metrics.stale_reads += 1;
                Ok(ReadResult {
                    rows: self.current_rows(),
                    lag: self.pending.total(),
                    flush_cost: 0.0,
                    violated: false,
                })
            }
            ReadMode::Fresh => {
                self.tick()?;
                let (cost, violated) = self.forced_refresh()?;
                self.metrics
                    .refresh_latency_ns
                    .record(enqueued.elapsed().as_nanos() as u64);
                Ok(ReadResult {
                    rows: self.current_rows(),
                    lag: 0,
                    flush_cost: cost,
                    violated,
                })
            }
        }
    }

    /// [`MaintenanceRuntime::read_at`] measured from now.
    pub fn read(&mut self, mode: ReadMode) -> Result<ReadResult, EngineError> {
        self.read_at(mode, Instant::now())
    }

    /// A snapshot of the runtime's counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        if let Some(w) = &self.wal {
            snap.wal_records = w.records();
            snap.wal_fsync_lag = w.unsynced();
            snap.wal_sync_every = w.sync_every();
        }
        snap.degraded = self.demoted;
        snap.budget = self.ctx.budget;
        snap.budget_rebalances = self.rebalances;
        if let Some(ms) = self.maintenance_stats() {
            snap.heavy_keys = ms.heavy.heavy_keys;
            snap.heavy_reclassifications = ms.heavy.reclassifications();
            snap.heavy_hits = ms.exec.heavy_hits;
            snap.light_hits = ms.exec.light_hits;
        }
        snap
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

    /// Executes a flush action against the backend, returning its model
    /// cost.
    fn execute_flush(&mut self, action: &Counts) -> Result<f64, EngineError> {
        let cost = total_cost(&self.ctx.costs, action);
        if let Backend::Engine(e) = &mut self.backend {
            if !action.is_zero() {
                let counts: Vec<u64> = action.iter().collect();
                e.view.flush(&e.db, &counts)?;
            }
        }
        self.pending = self
            .pending
            .checked_sub(action)
            .expect("flush ≤ pending checked above");
        Ok(cost)
    }

    fn finish_step(
        &mut self,
        arrivals: Counts,
        action: Counts,
        forced: bool,
        cost: f64,
        violated: bool,
        t: usize,
    ) -> Result<(), EngineError> {
        self.metrics.record_flush(&action, cost);
        if let Some(trace) = &mut self.trace {
            trace.push(arrivals, action, forced);
        }
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

    fn current_rows(&self) -> Option<Vec<WRow>> {
        match &self.backend {
            Backend::Model => None,
            Backend::Engine(e) => Some(e.view.result()),
        }
    }
}

impl crate::server::Runtime for MaintenanceRuntime {
    fn views(&self) -> usize {
        1
    }

    fn tables(&self) -> usize {
        self.n()
    }

    fn set_faults(&mut self, plan: FaultPlan) {
        MaintenanceRuntime::set_faults(self, plan)
    }

    fn ingest_count(&mut self, table: usize, k: u64) -> Result<(), EngineError> {
        if !matches!(self.backend, Backend::Model) || table >= self.n() {
            return Err(EngineError::Maintenance {
                message: format!(
                    "cannot ingest a bare count for table {table}: needs a model-backed \
                     runtime and a table index below {}",
                    self.n()
                ),
            });
        }
        MaintenanceRuntime::ingest_count(self, table, k);
        Ok(())
    }

    fn ingest_dml(&mut self, table: usize, m: Modification) -> Result<(), EngineError> {
        MaintenanceRuntime::ingest_dml(self, table, m)
    }

    fn tick(&mut self) -> Result<(), EngineError> {
        MaintenanceRuntime::tick(self).map(|_| ())
    }

    fn read_at(
        &mut self,
        view: usize,
        mode: ReadMode,
        enqueued: Instant,
    ) -> Result<ReadResult, EngineError> {
        if view != 0 {
            return Err(EngineError::Maintenance {
                message: format!("view {view} out of range for 1 view"),
            });
        }
        MaintenanceRuntime::read_at(self, mode, enqueued)
    }

    fn set_budget(&mut self, budget: f64) -> Result<(), EngineError> {
        MaintenanceRuntime::set_budget(self, budget)
    }

    fn wal_records(&self) -> u64 {
        MaintenanceRuntime::wal_records(self)
    }

    fn snapshot(&self, view: usize) -> Option<Arc<ViewSnapshot>> {
        (view == 0).then(|| self.view_snapshot()).flatten()
    }

    fn metrics(&self) -> crate::multi::MultiMetricsSnapshot {
        crate::multi::MultiMetricsSnapshot {
            global: MaintenanceRuntime::metrics(self),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{NaiveFlush, OnlineFlush};
    use crate::wal::MemWal;
    use aivm_core::CostModel;
    use aivm_engine::{row, DataType, MinStrategy, Schema, Value, ViewDef};

    fn model_runtime(policy: Box<dyn FlushPolicy>) -> MaintenanceRuntime {
        let cfg = ServeConfig::new(
            vec![CostModel::linear(0.05, 0.2), CostModel::linear(0.02, 3.0)],
            6.0,
        );
        MaintenanceRuntime::model(cfg, policy)
    }

    /// A policy that never flushes (violates the contract on purpose).
    struct Lazy;
    impl FlushPolicy for Lazy {
        fn reset(&mut self, _ctx: &PolicyContext) {}
        fn decide(&mut self, _t: usize, pending: &Counts) -> Counts {
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
        fn decide(&mut self, t: usize, pending: &Counts) -> Counts {
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
        let mut rt = model_runtime(Box::new(NaiveFlush::new()));
        rt.set_faults(FaultPlan {
            cost_overrun: Some(crate::fault::CostOverrun {
                from_t: 0,
                factor: 2.0,
            }),
            ..FaultPlan::none()
        });
        for _ in 0..20 {
            rt.ingest_count(0, 30);
            rt.ingest_count(1, 10);
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
        let mut rt2 = rt;
        for _ in 0..10 {
            rt2.ingest_count(0, 30);
            rt2.tick().unwrap();
        }
        assert_eq!(rt2.metrics().cost_overruns, overruns_at_recal);
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
        let expect_t = rt.t;
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
        assert_eq!(recovered.t, expect_t);
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
