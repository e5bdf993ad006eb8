//! Shared driver for the live serving experiments.
//!
//! `repro serve`, `repro chaos` and the serving tests share one setup:
//! a TPC-R database with the paper's view installed, measured
//! cost functions for its base tables, a pre-generated deterministic
//! update stream per updated table, and a precomputed LGM schedule for
//! the `planned` policy. [`ServeExperiment`] builds all of that once and
//! spawns threaded runs against fresh database clones, so every policy
//! sees an identical workload.

use aivm_core::{CostFn, CostModel, Instance};
use aivm_engine::{
    estimate_cost_functions, CostConstants, Database, EngineError, MaterializedView, MinStrategy,
    Modification, TableId, ViewDef,
};
use aivm_serve::{
    AsSolverPolicy, FaultPlan, FileWal, FlushPolicy, MaintenanceRuntime, MetricsSnapshot,
    NaiveFlush, OnlineFlush, PlannedFlush, ReadMode, ServeConfig, ServeServer, ServerConfig, Trace,
    WalSyncPolicy, WalWriter,
};
use aivm_shard::{partition_database, Partitioner};
use aivm_sim::replay::{replay_policy, ReplayStep};
use aivm_solver::AdaptSchedule;
use aivm_tpcr::{generate, install_paper_view, pregenerate_streams_skewed, TpcrConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The three pluggable flush policies a serving run can use.
pub const SERVE_POLICIES: [&str; 3] = ["naive", "online", "planned"];

/// Options of a serving experiment.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Updates pre-generated per updated table.
    pub events_each: usize,
    /// Refresh budget `C`; derived from the measured cost functions with
    /// headroom over `f_i(1)` when `None`.
    pub budget: Option<f64>,
    /// Wall-clock cap on the producer phase (streams are finite, so this
    /// only matters on very slow machines or very long streams).
    pub duration: Option<Duration>,
    /// Use the small TPC-R scale and a short planning horizon.
    pub quick: bool,
    /// Seed of the generated database and update streams.
    pub seed: u64,
    /// Faults injected into the threaded run's scheduler and runtime.
    pub fault: FaultPlan,
    /// Attach a [`FileWal`] (temp file, removed after the run) with this
    /// fsync policy, so the durability/throughput tradeoff shows up in
    /// the measured numbers.
    pub wal_sync: Option<WalSyncPolicy>,
    /// Worker threads for delta propagation inside engine flushes
    /// (`1` = serial); see `MaterializedView::set_flush_threads`.
    pub flush_threads: usize,
    /// Zipf exponent for the update streams' key choice; `None` is the
    /// paper's uniform stream. Under hash sharding a skewed stream
    /// concentrates flush work on the shards owning the hot keys.
    pub skew: Option<f64>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            events_each: 1500,
            budget: None,
            duration: None,
            quick: false,
            seed: 2005,
            fault: FaultPlan::none(),
            wal_sync: None,
            flush_threads: 1,
            skew: None,
        }
    }
}

/// Prebuilt inputs of a serving run: pristine database, measured cost
/// functions, budget, per-table update streams, and the `planned`
/// policy's schedule.
pub struct ServeExperiment {
    data: aivm_tpcr::TpcrDatabase,
    /// The paper view's definition (base-table order, join predicates),
    /// needed by the shard router's co-location validation and merge
    /// plan.
    view_def: ViewDef,
    /// Measured cost function per view base table.
    pub costs: Vec<CostModel>,
    /// The refresh budget `C` in effect.
    pub budget: f64,
    /// Precomputed LGM schedule the `planned` policy follows.
    pub schedule: AdaptSchedule,
    /// Position of `partsupp` among the view's base tables.
    pub ps_pos: usize,
    /// Position of `supplier` among the view's base tables.
    pub supp_pos: usize,
    /// Pre-generated `supplycost` updates, in application order.
    pub ps_stream: Vec<Modification>,
    /// Pre-generated `nationkey` updates, in application order.
    pub supp_stream: Vec<Modification>,
    opts: ServeOptions,
}

/// Summary of one threaded serving run.
pub struct ServeRunSummary {
    /// The policy that ran.
    pub policy: String,
    /// Wall-clock time of the producer + reader phase.
    pub elapsed: Duration,
    /// Final runtime counters (queue depths merged from the live
    /// handle's last snapshot).
    pub metrics: MetricsSnapshot,
    /// The recorded trace.
    pub trace: Option<Trace>,
    /// Events actually sent by the producers (≤ 2 × `events_each` when a
    /// duration cap cut the streams short).
    pub events_sent: u64,
    /// Join steps that degraded to a full scan during propagation. The
    /// paper view is auto-indexed on every join column at registration,
    /// so this must be 0; `repro serve` exits nonzero otherwise.
    pub scan_fallbacks: u64,
}

impl ServeRunSummary {
    /// Sustained ingest throughput in events per second.
    pub fn events_per_sec(&self) -> f64 {
        self.metrics.events_ingested as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

impl ServeExperiment {
    /// Generates the database, measures cost functions, derives the
    /// budget, pre-generates the update streams, and precomputes the
    /// planned schedule.
    pub fn build(opts: ServeOptions) -> Result<Self, EngineError> {
        let scale = if opts.quick {
            TpcrConfig::small()
        } else {
            TpcrConfig::default()
        };
        let mut data = generate(&scale, opts.seed);
        let view = install_paper_view(&mut data.db, MinStrategy::Multiset)?;
        let costs = estimate_cost_functions(&data.db, view.def(), &CostConstants::default())?;
        let ps_pos = view
            .table_position("partsupp")
            .expect("paper view joins partsupp");
        let supp_pos = view
            .table_position("supplier")
            .expect("paper view joins supplier");
        // Headroom over a producer-batch refresh of the updated tables:
        // the budget must admit flushing one arrival batch per tick, and
        // 3× leaves room for batching to pay off. Calibrating against a
        // batch rather than a single event matters now that the paper
        // view auto-indexes its join columns — the measured f_i(1) is a
        // few index probes, and a budget derived from it would force the
        // policies into per-event flush storms where fixed per-flush
        // overheads (trace, WAL, compensation setup) dominate.
        const BUDGET_BATCH: u64 = 64;
        let budget = opts.budget.unwrap_or_else(|| {
            3.0 * costs[ps_pos]
                .eval(BUDGET_BATCH)
                .max(costs[supp_pos].eval(BUDGET_BATCH))
        });
        // Estimation instance for the planned schedule: one update per
        // updated table per tick, a horizon long enough to expose the
        // periodic structure. Live arrivals will differ — that is what
        // the ONLINE fallback is for.
        let mut per_tick = vec![0u64; costs.len()];
        per_tick[ps_pos] = 1;
        per_tick[supp_pos] = 1;
        let horizon = if opts.quick { 30 } else { 60 };
        let est = Instance::new(
            costs.clone(),
            aivm_core::Arrivals::uniform(aivm_core::Counts::from_slice(&per_tick), horizon),
            budget,
        );
        let schedule = AdaptSchedule::precompute(&est);
        let (ps_stream, supp_stream) =
            pregenerate_streams_skewed(&data, opts.events_each, opts.seed ^ 1, opts.skew);
        Ok(ServeExperiment {
            view_def: view.def().clone(),
            data,
            costs,
            budget,
            schedule,
            ps_pos,
            supp_pos,
            ps_stream,
            supp_stream,
            opts,
        })
    }

    /// A fresh policy instance by name (`naive` / `online` / `planned`).
    pub fn policy(&self, name: &str) -> Option<Box<dyn FlushPolicy>> {
        match name {
            "naive" => Some(Box::new(NaiveFlush::new())),
            "online" => Some(Box::new(OnlineFlush::new())),
            "planned" => Some(Box::new(PlannedFlush::new(self.schedule.clone()))),
            _ => None,
        }
    }

    /// An engine-backed runtime over a fresh clone of the pristine
    /// database, so consecutive policy runs see identical data.
    pub fn runtime(&self, policy: Box<dyn FlushPolicy>) -> Result<MaintenanceRuntime, EngineError> {
        let db = self.genesis_db();
        let view = self.make_view(&db)?;
        let cfg = self.config();
        MaintenanceRuntime::engine(cfg, policy, db, view)
    }

    /// The runtime configuration every run of this experiment uses.
    pub fn config(&self) -> ServeConfig {
        ServeConfig::new(self.costs.clone(), self.budget)
            .with_flush_threads(self.opts.flush_threads)
    }

    /// A fresh clone of the pristine generated database — the state a
    /// WAL created before any ingest starts from (the recovery path's
    /// `genesis_db`).
    pub fn genesis_db(&self) -> Database {
        self.data.db.clone()
    }

    /// Installs the paper view over `db` — the view-definition factory
    /// recovery needs, since checkpoints do not serialize view
    /// definitions. `db` is a checkpoint restore or a clone of the
    /// pristine database, either of which already carries the join
    /// indexes `build` created.
    pub fn make_view(&self, db: &Database) -> Result<MaterializedView, EngineError> {
        aivm_tpcr::paper_view(db, MinStrategy::Multiset)
    }

    /// The paper view's definition.
    pub fn view_def(&self) -> &ViewDef {
        &self.view_def
    }

    /// The hash partitioner for an `shards`-way split of the paper
    /// view: `partsupp` partitions on `suppkey` (column 2) and
    /// `supplier` on `suppkey` (column 0) — the PartSupp⋈Supplier join
    /// key, so joined rows co-locate and no cross-shard compensation is
    /// ever needed ([`Partitioner::validate`] asserts this against the
    /// view's join predicates). `nation` and `region` are replicated.
    pub fn partitioner(&self, shards: usize) -> Result<Partitioner, EngineError> {
        let mut key_cols = vec![None; self.costs.len()];
        key_cols[self.ps_pos] = Some(2); // partsupp.suppkey
        key_cols[self.supp_pos] = Some(0); // supplier.suppkey
        let part = Partitioner::new(shards, key_cols)?;
        part.validate(&self.view_def)?;
        Ok(part)
    }

    /// [`TableId`]s of the view's base tables, in view-canonical order
    /// (the order `costs` / the partitioner's `key_cols` use).
    pub fn view_table_ids(&self) -> Vec<TableId> {
        self.view_def
            .tables
            .iter()
            .map(|name| {
                self.data
                    .db
                    .table_id(name)
                    .expect("view base table exists in the generated database")
            })
            .collect()
    }

    /// Per-shard runtime configuration: the same measured costs with
    /// the uniform budget share `C / N` (the coordinator rebalances
    /// from there).
    pub fn shard_config(&self, shards: usize) -> ServeConfig {
        ServeConfig::new(self.costs.clone(), self.budget / shards as f64)
            .with_flush_threads(self.opts.flush_threads)
    }

    /// Key-partitions a fresh clone of the pristine database — shard
    /// `i`'s genesis state for WAL recovery.
    pub fn partition_genesis(&self, part: &Partitioner) -> Result<Vec<Database>, EngineError> {
        partition_database(&self.data.db, &self.view_table_ids(), part)
    }

    /// Builds `shards` independent engine-backed runtimes over a key
    /// partition of the pristine database, each with its own paper view
    /// and the uniform budget share `C / N`.
    pub fn sharded_runtimes(
        &self,
        policy_name: &str,
        shards: usize,
    ) -> Result<(Vec<MaintenanceRuntime>, Partitioner), EngineError> {
        let part = self.partitioner(shards)?;
        let dbs = self.partition_genesis(&part)?;
        let mut runtimes = Vec::with_capacity(shards);
        for db in dbs {
            let view = self.make_view(&db)?;
            let policy = self
                .policy(policy_name)
                .unwrap_or_else(|| panic!("unknown policy {policy_name:?}"));
            runtimes.push(MaintenanceRuntime::engine(
                self.shard_config(shards),
                policy,
                db,
                view,
            )?);
        }
        Ok((runtimes, part))
    }

    /// Runs the full threaded experiment for one policy: a scheduler
    /// thread, one producer per updated table feeding its pre-generated
    /// stream, and a reader thread alternating fresh and stale reads
    /// until the producers finish.
    pub fn run_threaded(&self, policy_name: &str) -> Result<ServeRunSummary, EngineError> {
        let policy = self
            .policy(policy_name)
            .unwrap_or_else(|| panic!("unknown policy {policy_name:?}"));
        let mut runtime = self.runtime(policy)?;
        let wal_path = match &self.opts.wal_sync {
            Some(p) => {
                let path = std::env::temp_dir().join(format!(
                    "aivm_serve_wal_{}_{policy_name}_{}.log",
                    std::process::id(),
                    self.opts.seed
                ));
                let _ = std::fs::remove_file(&path);
                runtime.attach_wal(WalWriter::create(
                    Box::new(FileWal::create(&path)?),
                    p.sync_every(),
                )?);
                Some(path)
            }
            None => None,
        };
        let server = ServeServer::spawn(
            runtime,
            ServerConfig {
                faults: self.opts.fault.clone(),
                ..ServerConfig::default()
            },
        );
        let deadline = self.opts.duration.map(|d| Instant::now() + d);
        let started = Instant::now();
        let sent = Arc::new(AtomicU64::new(0));
        let done = Arc::new(AtomicBool::new(false));
        let mut producers = Vec::new();
        for (pos, stream) in [
            (self.ps_pos, self.ps_stream.clone()),
            (self.supp_pos, self.supp_stream.clone()),
        ] {
            let h = server.handle();
            let sent = Arc::clone(&sent);
            producers.push(std::thread::spawn(move || {
                for m in stream {
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        break;
                    }
                    if !h.ingest_dml(pos, m) {
                        break;
                    }
                    sent.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        let reader = {
            let h = server.handle();
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut i = 0u64;
                let mut violations = 0u64;
                // Check `done` only after a read: even a producer phase
                // that finishes instantly gets one fresh read.
                loop {
                    let mode = if i.is_multiple_of(2) {
                        ReadMode::Fresh
                    } else {
                        ReadMode::Stale
                    };
                    match h.read(mode) {
                        Some(Ok(r)) => {
                            if r.violated {
                                violations += 1;
                            }
                        }
                        Some(Err(_)) | None => break,
                    }
                    i += 1;
                    if done.load(Ordering::Relaxed) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                violations
            })
        };
        for p in producers {
            p.join().expect("producer thread");
        }
        // An injected policy panic fires at the first decision at or
        // after its tick; a fast producer phase can end before the
        // scheduler gets there. Let idle ticks run until the demotion
        // lands (bounded, in case the trigger is past any reachable t).
        if self.opts.fault.policy_panic_at.is_some() {
            let wait_until = Instant::now() + Duration::from_millis(500);
            while Instant::now() < wait_until {
                match server.handle().metrics() {
                    Some(m) if m.policy_demotions == 0 => {
                        std::thread::sleep(Duration::from_millis(5))
                    }
                    _ => break,
                }
            }
        }
        done.store(true, Ordering::Relaxed);
        let read_violations = reader.join().expect("reader thread");
        let elapsed = started.elapsed();
        let live = server.handle().metrics().expect("server alive");
        let runtime = server.shutdown();
        if let Some(p) = wal_path {
            let _ = std::fs::remove_file(p);
        }
        let mut metrics = runtime.metrics();
        metrics.queue_depth = live.queue_depth;
        metrics.max_queue_depth = live.max_queue_depth;
        debug_assert!(read_violations <= metrics.constraint_violations);
        let scan_fallbacks = runtime
            .maintenance_stats()
            .map(|s| s.exec.scan_fallbacks)
            .unwrap_or(0);
        Ok(ServeRunSummary {
            policy: policy_name.to_string(),
            elapsed,
            metrics,
            trace: runtime.into_trace(),
            events_sent: sent.load(Ordering::Relaxed),
            scan_fallbacks,
        })
    }

    /// Replays a recorded `planned` trace through a fresh
    /// [`PlannedFlush`] driven by `aivm-sim`'s replay machinery and
    /// checks that it reproduces the live run's flush schedule and total
    /// cost exactly. Returns a description of the first mismatch.
    pub fn verify_planned_replay(&self, trace: &Trace) -> Result<(), String> {
        let steps: Vec<ReplayStep> = trace
            .steps
            .iter()
            .map(|s| ReplayStep {
                arrivals: s.arrivals.clone(),
                forced: s.forced,
            })
            .collect();
        let mut policy = AsSolverPolicy(PlannedFlush::new(self.schedule.clone()));
        let outcome = replay_policy(&trace.costs, trace.budget, &steps, &mut policy);
        let live_actions = trace.actions();
        if outcome.actions != live_actions {
            let t = (0..live_actions.len())
                .find(|&i| outcome.actions[i] != live_actions[i])
                .unwrap_or(0);
            return Err(format!(
                "replay diverges from live trace at step {t}: live {:?}, replay {:?}",
                live_actions[t], outcome.actions[t]
            ));
        }
        let live_cost = trace.total_cost();
        if (outcome.total_cost - live_cost).abs() > 1e-6 {
            return Err(format!(
                "replay cost {} != live cost {live_cost}",
                outcome.total_cost
            ));
        }
        Ok(())
    }
}

/// Renders a metrics snapshot into the columns the `repro serve` table
/// and the CI gate share.
pub fn summary_row(s: &ServeRunSummary) -> Vec<String> {
    let m = &s.metrics;
    vec![
        s.policy.clone(),
        m.events_ingested.to_string(),
        m.ticks.to_string(),
        m.flush_count.to_string(),
        format!("{:.1}", m.total_flush_cost),
        format!("{:.1}", m.max_flush_cost),
        format!("{:.2}", m.refresh_latency_ns.p99 as f64 / 1e6),
        m.constraint_violations.to_string(),
        m.max_queue_depth.to_string(),
        s.scan_fallbacks.to_string(),
        format!("{:.0}", s.events_per_sec()),
    ]
}

/// Column headers matching [`summary_row`].
pub const SUMMARY_COLUMNS: [&str; 11] = [
    "policy",
    "events",
    "ticks",
    "flushes",
    "total_cost",
    "max_flush",
    "p99_fresh_ms",
    "viol",
    "q_max",
    "scans",
    "events/s",
];

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> ServeOptions {
        ServeOptions {
            events_each: 120,
            quick: true,
            ..Default::default()
        }
    }

    #[test]
    fn experiment_builds_and_budget_has_headroom() {
        let exp = ServeExperiment::build(quick_opts()).expect("build");
        assert_eq!(exp.costs.len(), 4, "four base tables in the paper view");
        assert!(exp.budget >= exp.costs[exp.ps_pos].eval(1));
        assert!(exp.budget >= exp.costs[exp.supp_pos].eval(1));
        assert_eq!(exp.ps_stream.len(), 120);
        assert_eq!(exp.supp_stream.len(), 120);
    }

    #[test]
    fn threaded_run_ingests_everything_and_planned_replays() {
        let exp = ServeExperiment::build(quick_opts()).expect("build");
        let s = exp.run_threaded("planned").expect("run");
        assert_eq!(s.metrics.events_ingested, 240);
        assert_eq!(s.metrics.constraint_violations, 0);
        assert!(s.metrics.fresh_reads > 0, "reader issued fresh reads");
        let trace = s.trace.as_ref().expect("tracing on");
        exp.verify_planned_replay(trace).expect("replay matches");
    }
}
