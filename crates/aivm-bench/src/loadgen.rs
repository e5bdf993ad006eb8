//! Closed-loop network load generator for the `aivm-net` serving stack.
//!
//! [`run_loadgen`] stands up the full pipeline in one process — an
//! engine-backed [`aivm_serve`] scheduler, the `aivm-net` TCP server on
//! a loopback port, and N closed-loop client threads speaking the wire
//! protocol through `aivm-client` — then drives a seeded submit/read
//! mix against it and reports client-observed latencies next to the
//! server's own counters.
//!
//! ## Stream ordering
//!
//! The pre-generated TPC-R update streams are strict `Update{old, new}`
//! sequences: each modification's `old` row is the state its
//! predecessors left behind, so a stream must be replayed **in order
//! per table** (streams only commute *across* tables). Every table's
//! cursor lives behind a mutex that a submitting worker holds across
//! the whole wire round trip — batches from different threads can
//! interleave across tables but never reorder within one. An
//! `Overloaded` rejection leaves the cursor where it was: the server
//! guarantees the rejected batch had no side effect, so the next holder
//! resubmits the same prefix.
//!
//! ## What the summary proves
//!
//! Every fresh read crossing the wire carries the runtime's `violated`
//! bit (flush cost > C); the report fails if any was set, if the final
//! runtime counters show a violation, or if any client saw a protocol
//! error. That makes `repro loadgen` a one-command end-to-end check of
//! the paper's validity invariant under real socket concurrency.

use crate::serve::ServeExperiment;
use aivm_client::{Client, ClientConfig, ClientError, RetryStats, SubscriptionEvent};
use aivm_engine::{rows_checksum, EngineError, Modification, WRow};
use aivm_net::{NetMetrics, NetServer, NetServerConfig, Replica, ReplicaConfig};
use aivm_serve::{
    fold_delta, read_wal, DeltaBatch, FaultPlan, FileWal, LatencyHistogram, MaintenanceRuntime,
    MemWal, MetricsSnapshot, RegistryServer, ServeServer, ServerConfig, WalSyncPolicy, WalTail,
    WalWriter,
};
use aivm_shard::{
    merge_metrics, Coordinator, CoordinatorConfig, FailoverConfig, FailoverMonitor, Promoter,
    RebalancePolicy, ReplicaStatus, ShardRouter,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How loadgen read operations choose freshness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LoadgenReadMode {
    /// Every `fresh_every`-th read is Fresh, the rest Stale.
    #[default]
    Mixed,
    /// All reads Stale: served wait-free from the published snapshot,
    /// never entering the scheduler queue.
    Stale,
    /// All reads Fresh: every read pays the tick-then-forced-flush
    /// round trip (and proves its `<= C` budget on the wire).
    Fresh,
}

impl std::str::FromStr for LoadgenReadMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "mixed" => Ok(LoadgenReadMode::Mixed),
            "stale" => Ok(LoadgenReadMode::Stale),
            "fresh" => Ok(LoadgenReadMode::Fresh),
            other => Err(format!("unknown read mode {other:?} (stale|fresh|mixed)")),
        }
    }
}

/// Options of a load-generation run.
#[derive(Clone, Debug)]
pub struct LoadgenOptions {
    /// Closed-loop client threads.
    pub clients: usize,
    /// Relative weight of submit operations in the mix.
    pub submit_weight: u32,
    /// Relative weight of read operations in the mix.
    pub read_weight: u32,
    /// Freshness of read operations ([`LoadgenReadMode::Mixed`] defers
    /// to `fresh_every`).
    pub read_mode: LoadgenReadMode,
    /// Every `fresh_every`-th read a worker issues is Fresh; the rest
    /// are Stale. Only consulted in [`LoadgenReadMode::Mixed`].
    pub fresh_every: u64,
    /// Modifications per submit request.
    pub batch: usize,
    /// Wall-clock cap; the run also ends when both update streams are
    /// exhausted.
    pub duration: Duration,
    /// Updates pre-generated per updated table.
    pub events_each: usize,
    /// Flush policy driving the runtime (`naive`/`online`/`planned`).
    pub policy: String,
    /// Refresh budget `C` (derived from measured costs when `None`).
    pub budget: Option<f64>,
    /// Use the small TPC-R scale.
    pub quick: bool,
    /// Seed of the database, the streams, and every worker's op mix.
    pub seed: u64,
    /// Attach a [`FileWal`] with this fsync policy (temp file, removed
    /// after the run).
    pub wal_sync: Option<WalSyncPolicy>,
    /// Server-side submit admission mark in outstanding *events*
    /// (`None` = pure backpressure). The ingest queue charges capacity
    /// per modification, so the queue capacity itself already bounds
    /// the backlog; an explicit mark below it trades parked-submit
    /// latency for eager `Overloaded` rejections.
    pub submit_high_water: Option<usize>,
    /// Server connection cap (`None` = clients + 8). The event-loop
    /// server multiplexes connections over a fixed worker pool, so caps
    /// in the thousands cost socket buffers, not threads.
    pub max_conns: Option<usize>,
    /// Key-partitioned shards behind the server. `1` runs the classic
    /// single-runtime stack; `> 1` spawns one independent scheduler per
    /// shard behind a [`ShardRouter`] plus the budget-rebalancing
    /// coordinator.
    pub shards: usize,
    /// How the coordinator divides the global budget across shards
    /// (only consulted at `shards > 1`).
    pub rebalance: RebalancePolicy,
    /// Attach a live follower to every shard (sharded stack only):
    /// each leader logs to an in-memory WAL that its replica tails
    /// over the wire, submit acks turn durable (sent only after
    /// apply + WAL append), and the failover monitor health-checks
    /// every leader. Incompatible with `wal_sync`.
    pub replicas: bool,
    /// Kill shard 0's leader at a WAL record boundary mid-run and let
    /// the monitor promote its follower while traffic keeps flowing.
    /// Requires `replicas` and `shards > 1`. Submit errors during the
    /// failover window are retried from an unmoved stream cursor, so
    /// the batch whose ack died with the leader may be applied twice
    /// — acceptable for this smoke (no checksum is asserted), and
    /// exactly the ambiguity `chaos::run_leader_kill` pins down.
    pub kill_leader: bool,
    /// Registered views (> 1 runs the multi-view registry stack: one
    /// scheduler maintaining `views` paper-view variants that share
    /// one SPJ core, submits targeting the registry's global table
    /// axis). Incompatible with `shards > 1`.
    pub views: usize,
    /// Live push subscribers (registry stack only): each rides its own
    /// connection, folds every pushed [`DeltaBatch`] into local state
    /// and verifies the post-fold checksum — an end-to-end proof that
    /// the push path ships exactly the maintained state.
    pub subscribers: usize,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        LoadgenOptions {
            clients: 4,
            submit_weight: 4,
            read_weight: 1,
            read_mode: LoadgenReadMode::Mixed,
            fresh_every: 8,
            batch: 64,
            duration: Duration::from_secs(5),
            events_each: 20_000,
            policy: "online".into(),
            budget: None,
            quick: false,
            seed: 2005,
            wal_sync: None,
            submit_high_water: None,
            max_conns: None,
            shards: 1,
            rebalance: RebalancePolicy::CostProportional,
            replicas: false,
            kill_leader: false,
            views: 1,
            subscribers: 0,
        }
    }
}

/// The shard width picked when `--shards` is omitted: one scheduler
/// per available hardware thread.
pub fn auto_shards() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One table's in-order replay cursor, locked across each submit round
/// trip.
struct TableStream {
    table: usize,
    stream: Arc<Vec<Modification>>,
    pos: usize,
    /// Set on a hard (non-overload) submit failure: a partial ingest
    /// may have happened, so the stream's order can no longer be
    /// trusted and no more of it is submitted.
    dead: bool,
}

/// Per-worker tallies, merged into the report after join.
#[derive(Default)]
struct WorkerStats {
    submits: u64,
    events_submitted: u64,
    reads_stale: u64,
    reads_fresh: u64,
    submit_lat: LatencyHistogram,
    stale_lat: LatencyHistogram,
    fresh_lat: LatencyHistogram,
    /// Requests that exhausted their bounded retries on `Overloaded`.
    overload_failures: u64,
    /// Events whose submit raced a leader kill: the ack died with the
    /// leader, so the outcome is unknown. The batch is abandoned, not
    /// resubmitted (a blind resubmit would double-apply any prefix the
    /// dead leader had durably logged).
    ambiguous_events: u64,
    /// Hard failures: unexpected rejections, transport or codec errors.
    protocol_errors: u64,
    /// Fresh reads whose `violated` bit was set (flush cost > C).
    violations: u64,
    last_error: Option<String>,
    last_submit: Option<Instant>,
    retries: RetryStats,
}

impl WorkerStats {
    fn merge(&mut self, o: WorkerStats) {
        self.submits += o.submits;
        self.events_submitted += o.events_submitted;
        self.reads_stale += o.reads_stale;
        self.reads_fresh += o.reads_fresh;
        self.submit_lat.merge(&o.submit_lat);
        self.stale_lat.merge(&o.stale_lat);
        self.fresh_lat.merge(&o.fresh_lat);
        self.overload_failures += o.overload_failures;
        self.ambiguous_events += o.ambiguous_events;
        self.protocol_errors += o.protocol_errors;
        self.violations += o.violations;
        if self.last_error.is_none() {
            self.last_error = o.last_error;
        }
        self.last_submit = match (self.last_submit, o.last_submit) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        self.retries.overload_retries += o.retries.overload_retries;
        self.retries.transport_retries += o.retries.transport_retries;
    }
}

/// Everything a load-generation run measured.
pub struct LoadgenReport {
    /// Wall-clock from first submit to the last successful one (the
    /// throughput window; excludes the read-only drain tail).
    pub submit_window: Duration,
    /// Full run wall-clock.
    pub elapsed: Duration,
    /// Events accepted over the wire (client-confirmed).
    pub events_submitted: u64,
    /// Submit requests completed.
    pub submits: u64,
    /// Stale reads served.
    pub reads_stale: u64,
    /// Fresh reads served.
    pub reads_fresh: u64,
    /// Client-observed submit round-trip latencies.
    pub submit_lat: LatencyHistogram,
    /// Client-observed Stale read latencies.
    pub stale_lat: LatencyHistogram,
    /// Client-observed Fresh read latencies.
    pub fresh_lat: LatencyHistogram,
    /// Requests that exhausted retries on `Overloaded`.
    pub overload_failures: u64,
    /// Events abandoned because their submit raced a leader kill and
    /// the ack was lost (`--kill-leader` only; see the durable-ack
    /// contract — an unacked write carries no durability promise, and
    /// resubmitting it blind could double-apply a logged prefix).
    pub ambiguous_events: u64,
    /// Hard client-side failures (must be 0 for a passing run).
    pub protocol_errors: u64,
    /// Fresh reads that reported a budget violation (must be 0).
    pub client_violations: u64,
    /// Client retry counters summed over all workers.
    pub retries: RetryStats,
    /// First hard error observed, if any.
    pub last_error: Option<String>,
    /// The server's final wire-level metrics frame.
    pub net: NetMetrics,
    /// The runtime's final counters after a draining shutdown.
    pub runtime: MetricsSnapshot,
    /// Join steps that degraded to a full scan inside the engine. The
    /// paper view is auto-indexed on every join column, so any nonzero
    /// value is a physical-design regression and fails the run.
    pub scan_fallbacks: u64,
    /// Shards behind the server (1 = unsharded stack).
    pub shards: usize,
    /// Budget pushes the coordinator issued (0 when unsharded).
    pub rebalances: u64,
    /// Views served (1 = single-view stack).
    pub views: usize,
    /// Push subscribers that ran (0 outside the registry stack).
    pub subscribers: usize,
    /// Delta batches subscribers received and folded.
    pub sub_deltas: u64,
    /// Snapshot (re)syncs subscribers received — the initial one each,
    /// plus any slow-consumer resync.
    pub sub_snapshots: u64,
    /// Folded states whose checksum did not match the batch's (must
    /// be 0: the push path ships exactly the maintained state).
    pub sub_checksum_errors: u64,
}

impl LoadgenReport {
    /// Sustained wire throughput in events per second over the submit
    /// window.
    pub fn events_per_sec(&self) -> f64 {
        self.events_submitted as f64 / self.submit_window.as_secs_f64().max(1e-9)
    }

    /// Client-observed reads per second (Stale + Fresh) over the whole
    /// run.
    pub fn reads_per_sec(&self) -> f64 {
        (self.reads_stale + self.reads_fresh) as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// True when the run upheld every invariant: no budget violation
    /// observed by any client, by the runtime, or attributed to any
    /// view; no protocol errors; no subscriber checksum mismatch; no
    /// index-less scan fallback inside the engine; and the scheduler
    /// never stopped on an error.
    pub fn ok(&self) -> bool {
        self.client_violations == 0
            && self.runtime.constraint_violations == 0
            && self.protocol_errors == 0
            && self.scan_fallbacks == 0
            && self.sub_checksum_errors == 0
            && self
                .net
                .per_view
                .as_ref()
                .is_none_or(|rows| rows.iter().all(|r| r.violations == 0))
            && self.net.last_error.is_none()
    }
}

fn client_config(opts: &LoadgenOptions, worker: u64) -> ClientConfig {
    ClientConfig {
        deadline: Duration::from_secs(10),
        retries: 16,
        backoff: Duration::from_micros(200),
        max_backoff: Duration::from_millis(20),
        pool: 1,
        seed: opts.seed ^ (worker.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        breaker_threshold: 0,
        breaker_cooldown: Duration::from_millis(100),
    }
}

fn worker_loop(
    addr: std::net::SocketAddr,
    opts: &LoadgenOptions,
    worker: u64,
    cursors: &[Mutex<TableStream>],
    stop: &AtomicBool,
) -> WorkerStats {
    let mut stats = WorkerStats::default();
    let client = match Client::new(addr, client_config(opts, worker)) {
        Ok(c) => c,
        Err(e) => {
            stats.protocol_errors += 1;
            stats.last_error = Some(format!("client setup: {e}"));
            return stats;
        }
    };
    let mut rng = StdRng::seed_from_u64(opts.seed.wrapping_add(worker));
    let total_weight = (opts.submit_weight + opts.read_weight).max(1);
    let mut reads = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let want_submit = rng.gen_range(0..total_weight) < opts.submit_weight;
        let submitted = want_submit && submit_next(&client, opts, &mut rng, cursors, &mut stats);
        if stats.last_error.is_some() {
            break;
        }
        if !submitted {
            // Either the mix said read, or every stream is drained:
            // keep the closed loop busy with reads.
            if opts.read_weight == 0 && streams_done(cursors) {
                break;
            }
            reads += 1;
            let fresh = match opts.read_mode {
                LoadgenReadMode::Stale => false,
                LoadgenReadMode::Fresh => true,
                LoadgenReadMode::Mixed => {
                    opts.fresh_every > 0 && reads.is_multiple_of(opts.fresh_every)
                }
            };
            let t0 = Instant::now();
            match client.read(fresh, false) {
                Ok(r) => {
                    let ns = t0.elapsed().as_nanos() as u64;
                    if fresh {
                        stats.reads_fresh += 1;
                        stats.fresh_lat.record(ns);
                    } else {
                        stats.reads_stale += 1;
                        stats.stale_lat.record(ns);
                    }
                    if r.violated {
                        stats.violations += 1;
                    }
                }
                Err(e) if e.is_overload() => stats.overload_failures += 1,
                Err(ClientError::DeadlineExceeded) => stats.overload_failures += 1,
                Err(e) => {
                    stats.protocol_errors += 1;
                    stats.last_error = Some(format!("read: {e}"));
                    break;
                }
            }
        }
    }
    stats.retries = client.retry_stats();
    stats
}

/// Takes the next batch of whichever stream has work and submits it,
/// holding that table's cursor lock across the round trip. Returns
/// false when every stream is drained (or the mix chose a table with
/// nothing left and the other is also done).
fn submit_next(
    client: &Client,
    opts: &LoadgenOptions,
    rng: &mut StdRng,
    cursors: &[Mutex<TableStream>],
    stats: &mut WorkerStats,
) -> bool {
    let first = rng.gen_range(0..cursors.len());
    for k in 0..cursors.len() {
        let mut cur = cursors[(first + k) % cursors.len()]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if cur.dead || cur.pos >= cur.stream.len() {
            continue;
        }
        let end = (cur.pos + opts.batch.max(1)).min(cur.stream.len());
        let mods = cur.stream[cur.pos..end].to_vec();
        let n = mods.len() as u64;
        let t0 = Instant::now();
        match client.submit(cur.table as u32, mods) {
            Ok(accepted) => {
                cur.pos = end;
                stats.submits += 1;
                stats.events_submitted += accepted;
                stats.submit_lat.record(t0.elapsed().as_nanos() as u64);
                stats.last_submit = Some(Instant::now());
                debug_assert_eq!(accepted, n);
            }
            // Retries exhausted while the server stayed saturated; the
            // cursor is untouched (rejections precede side effects) so
            // a later holder resubmits the same prefix.
            Err(e) if e.is_overload() => stats.overload_failures += 1,
            Err(e) => {
                if opts.kill_leader {
                    // Failover window: the ack may have died with the
                    // leader, so success is ambiguous — the dead
                    // leader may have durably logged (and replicated)
                    // any prefix of the batch. Resubmitting would
                    // double-apply that prefix into the promoted
                    // follower, so the batch is abandoned and counted;
                    // an unacked write carries no durability promise.
                    cur.pos = end;
                    stats.ambiguous_events += n;
                } else {
                    // A hard mid-batch failure may have half-applied
                    // the batch: poison this stream, don't desync it.
                    cur.dead = true;
                    stats.protocol_errors += 1;
                    stats.last_error = Some(format!("submit: {e}"));
                }
            }
        }
        return true;
    }
    false
}

fn streams_done(cursors: &[Mutex<TableStream>]) -> bool {
    cursors.iter().all(|c| {
        let c = c.lock().unwrap_or_else(|e| e.into_inner());
        c.dead || c.pos >= c.stream.len()
    })
}

/// What the shared closed-loop drive phase measured, before the server
/// stack's own teardown counters are folded in.
struct DriveOutcome {
    merged: WorkerStats,
    elapsed: Duration,
    submit_window: Duration,
    net: NetMetrics,
}

/// Spawns the closed-loop workers against `addr`, waits out the
/// duration cap (or both streams draining), then issues the final
/// control round trip on a fresh client: one fresh read — the validity
/// invariant must hold at quiescence too — and the closing metrics
/// frame with the net-layer counters. Identical for the single-runtime
/// and sharded stacks; the wire protocol hides the difference.
fn drive_workers(
    addr: std::net::SocketAddr,
    exp: &ServeExperiment,
    opts: &LoadgenOptions,
) -> Result<DriveOutcome, EngineError> {
    let cursors: Arc<Vec<Mutex<TableStream>>> = Arc::new(vec![
        Mutex::new(TableStream {
            table: exp.ps_pos,
            stream: Arc::new(exp.ps_stream.clone()),
            pos: 0,
            dead: false,
        }),
        Mutex::new(TableStream {
            table: exp.supp_pos,
            stream: Arc::new(exp.supp_stream.clone()),
            pos: 0,
            dead: false,
        }),
    ]);
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let workers: Vec<_> = (0..opts.clients.max(1) as u64)
        .map(|w| {
            let (opts, cursors, stop) = (opts.clone(), Arc::clone(&cursors), Arc::clone(&stop));
            // Closed-loop workers block on round trips and hold almost
            // nothing on the stack; a small stack keeps thousand-client
            // runs (the server side is event-driven) cheap on memory.
            std::thread::Builder::new()
                .stack_size(256 * 1024)
                .name(format!("loadgen-{w}"))
                .spawn(move || worker_loop(addr, &opts, w, &cursors, &stop))
                .expect("spawn loadgen worker")
        })
        .collect();

    // End at the duration cap or as soon as the finite streams drain,
    // whichever comes first.
    let deadline = started + opts.duration;
    while Instant::now() < deadline && !streams_done(&cursors) {
        std::thread::sleep(Duration::from_millis(2));
    }
    stop.store(true, Ordering::Relaxed);
    let mut merged = WorkerStats::default();
    for w in workers {
        merged.merge(w.join().expect("worker thread"));
    }
    let elapsed = started.elapsed();
    let submit_window = merged
        .last_submit
        .map(|t| t.duration_since(started))
        .unwrap_or(elapsed);

    let control = Client::new(addr, client_config(opts, u64::MAX))
        .map_err(|e| EngineError::io("loadgen control client", e))?;
    let final_read = control
        .read(true, false)
        .map_err(|e| EngineError::Maintenance {
            message: format!("loadgen final fresh read failed: {e}"),
        })?;
    merged.reads_fresh += 1;
    if final_read.violated {
        merged.violations += 1;
    }
    let net = control
        .metrics_detailed(true)
        .map_err(|e| EngineError::Maintenance {
            message: format!("loadgen final metrics failed: {e}"),
        })?;
    Ok(DriveOutcome {
        merged,
        elapsed,
        submit_window,
        net,
    })
}

fn report_of(
    outcome: DriveOutcome,
    runtime: MetricsSnapshot,
    scan_fallbacks: u64,
    shards: usize,
    rebalances: u64,
) -> LoadgenReport {
    let DriveOutcome {
        merged,
        elapsed,
        submit_window,
        net,
    } = outcome;
    LoadgenReport {
        submit_window,
        elapsed,
        events_submitted: merged.events_submitted,
        submits: merged.submits,
        reads_stale: merged.reads_stale,
        reads_fresh: merged.reads_fresh,
        submit_lat: merged.submit_lat,
        stale_lat: merged.stale_lat,
        fresh_lat: merged.fresh_lat,
        overload_failures: merged.overload_failures,
        ambiguous_events: merged.ambiguous_events,
        protocol_errors: merged.protocol_errors,
        client_violations: merged.violations,
        retries: merged.retries,
        last_error: merged.last_error,
        net,
        runtime,
        scan_fallbacks,
        shards,
        rebalances,
        views: 1,
        subscribers: 0,
        sub_deltas: 0,
        sub_snapshots: 0,
        sub_checksum_errors: 0,
    }
}

fn net_config(opts: &LoadgenOptions) -> NetServerConfig {
    // Each follower tails its leader's WAL through the same server, so
    // the replicated stack needs one extra connection slot per shard;
    // each push subscriber needs its dedicated subscription connection
    // plus its client's pooled one.
    let replica_conns = if opts.replicas { opts.shards } else { 0 };
    let sub_conns = 2 * opts.subscribers;
    NetServerConfig {
        max_connections: opts.max_conns.unwrap_or(opts.clients + 8) + replica_conns + sub_conns,
        submit_high_water: opts.submit_high_water,
        durable_acks: opts.replicas,
        ..NetServerConfig::default()
    }
}

fn loadgen_wal_path(opts: &LoadgenOptions, shard: Option<usize>) -> std::path::PathBuf {
    let suffix = shard.map(|i| format!("_s{i}")).unwrap_or_default();
    std::env::temp_dir().join(format!(
        "aivm_loadgen_wal_{}_{}{suffix}.log",
        std::process::id(),
        opts.seed
    ))
}

/// Runs the closed-loop load generator against a freshly spawned
/// serve + net stack on a loopback port. `opts.shards > 1` stands up
/// the sharded stack: N independent schedulers behind a
/// [`ShardRouter`]-backed server plus the budget coordinator.
pub fn run_loadgen(
    exp: &ServeExperiment,
    opts: &LoadgenOptions,
) -> Result<LoadgenReport, EngineError> {
    if opts.replicas && opts.shards < 2 {
        return Err(EngineError::Maintenance {
            message: "replicas need the sharded stack (--shards >= 2)".into(),
        });
    }
    if opts.kill_leader && !opts.replicas {
        return Err(EngineError::Maintenance {
            message: "--kill-leader needs --replicas (nobody to promote otherwise)".into(),
        });
    }
    if opts.views > 1 || opts.subscribers > 0 {
        if opts.shards > 1 || opts.replicas {
            return Err(EngineError::Maintenance {
                message:
                    "the multi-view registry stack is single-sharded (drop --shards/--replicas)"
                        .into(),
            });
        }
        return run_loadgen_registry(exp, opts);
    }
    if opts.shards > 1 {
        return run_loadgen_sharded(exp, opts);
    }
    let policy = exp
        .policy(&opts.policy)
        .unwrap_or_else(|| panic!("unknown policy {:?}", opts.policy));
    let mut runtime = exp.runtime(policy)?;
    let wal_path = match &opts.wal_sync {
        Some(p) => {
            let path = loadgen_wal_path(opts, None);
            let _ = std::fs::remove_file(&path);
            runtime.attach_wal(WalWriter::create(
                Box::new(FileWal::create(&path)?),
                p.sync_every(),
            )?);
            Some(path)
        }
        None => None,
    };
    let serve = ServeServer::spawn(runtime, ServerConfig::default());
    let net = NetServer::bind(
        "127.0.0.1:0",
        serve.handle(),
        exp.costs.len(),
        net_config(opts),
    )
    .map_err(|e| EngineError::io("loadgen bind", e))?;
    let outcome = drive_workers(net.local_addr(), exp, opts)?;
    net.shutdown();
    let runtime = serve.shutdown();
    let scan_fallbacks = runtime
        .maintenance_stats()
        .map(|s| s.exec.scan_fallbacks)
        .unwrap_or(0);
    let runtime_metrics = runtime.metrics();
    if let Some(p) = wal_path {
        let _ = std::fs::remove_file(p);
    }
    Ok(report_of(outcome, runtime_metrics, scan_fallbacks, 1, 0))
}

/// Per-subscriber tallies, merged into the report after join.
#[derive(Default)]
struct SubscriberStats {
    deltas: u64,
    snapshots: u64,
    checksum_errors: u64,
    protocol_errors: u64,
    last_error: Option<String>,
}

impl SubscriberStats {
    fn merge(&mut self, o: SubscriberStats) {
        self.deltas += o.deltas;
        self.snapshots += o.snapshots;
        self.checksum_errors += o.checksum_errors;
        self.protocol_errors += o.protocol_errors;
        if self.last_error.is_none() {
            self.last_error = o.last_error;
        }
    }
}

/// Folds every pushed event into local state and verifies each
/// post-fold checksum — the subscriber-side half of the push
/// contract. Runs until the server closes the stream or the main
/// thread fires the subscription's stopper.
fn subscriber_fold_loop(sub: aivm_client::Subscription, idx: u64) -> SubscriberStats {
    let mut stats = SubscriberStats::default();
    let mut state: Vec<WRow> = Vec::new();
    for ev in sub {
        match ev {
            Ok(SubscriptionEvent::Snapshot { rows, checksum, .. }) => {
                stats.snapshots += 1;
                state = rows;
                if rows_checksum(&state) != checksum {
                    stats.checksum_errors += 1;
                }
            }
            Ok(SubscriptionEvent::Delta {
                view,
                seq,
                checksum,
                staleness,
                rows,
            }) => {
                stats.deltas += 1;
                state = fold_delta(
                    state,
                    &DeltaBatch {
                        view,
                        seq,
                        rows,
                        checksum,
                        staleness,
                    },
                );
                if rows_checksum(&state) != checksum {
                    stats.checksum_errors += 1;
                }
            }
            Err(e) => {
                stats.protocol_errors += 1;
                stats.last_error = Some(format!("subscriber {idx}: {e}"));
                break;
            }
        }
    }
    stats
}

/// The multi-view registry stack: one scheduler maintaining
/// `opts.views` paper-view variants (a single sharing group, so every
/// base-delta batch is propagated once and fanned out), fronted by a
/// registry-backend [`NetServer`]. Push subscribers fold live delta
/// batches concurrently with the closed-loop submit/read workers; the
/// closing metrics frame carries the per-view breakdown.
fn run_loadgen_registry(
    exp: &ServeExperiment,
    opts: &LoadgenOptions,
) -> Result<LoadgenReport, EngineError> {
    let views = opts.views.max(1);
    let mut runtime = exp.registry_runtime(&opts.policy, views)?;
    let wal_path = match &opts.wal_sync {
        Some(p) => {
            let path = loadgen_wal_path(opts, None);
            let _ = std::fs::remove_file(&path);
            runtime.attach_wal(WalWriter::create(
                Box::new(FileWal::create(&path)?),
                p.sync_every(),
            )?);
            Some(path)
        }
        None => None,
    };
    let server = RegistryServer::spawn(runtime, ServerConfig::default());
    let net = NetServer::bind_registry("127.0.0.1:0", server.handle(), net_config(opts))
        .map_err(|e| EngineError::io("loadgen registry bind", e))?;
    let addr = net.local_addr();

    // Subscriptions are opened on the main thread (so every stopper is
    // in hand before the load starts) and handed to fold threads; they
    // watch the whole run from the initial snapshot on.
    let mut stoppers = Vec::with_capacity(opts.subscribers);
    let mut subs = Vec::with_capacity(opts.subscribers);
    for s in 0..opts.subscribers {
        let view = (s % views) as u32;
        let client = Client::new(addr, client_config(opts, (1u64 << 40) + s as u64))
            .map_err(|e| EngineError::io("loadgen subscriber client", e))?;
        let sub = client
            .subscribe_head(view)
            .map_err(|e| EngineError::Maintenance {
                message: format!("subscriber {s} failed to subscribe to view {view}: {e}"),
            })?;
        stoppers.push(
            sub.stopper()
                .map_err(|e| EngineError::io("subscription stopper", e))?,
        );
        subs.push(
            std::thread::Builder::new()
                .stack_size(512 * 1024)
                .name(format!("loadgen-sub-{s}"))
                .spawn(move || subscriber_fold_loop(sub, s as u64))
                .expect("spawn subscriber"),
        );
    }

    let outcome = drive_workers(addr, exp, opts);
    // The shared closing frame only asks per-shard; the view axis
    // rides a dedicated control frame while subscribers still count.
    let per_view_net = outcome.is_ok().then(|| {
        Client::new(addr, client_config(opts, u64::MAX - 1))
            .map_err(|e| EngineError::io("loadgen registry control", e))
            .and_then(|c| {
                c.metrics_full(false, true)
                    .map_err(|e| EngineError::Maintenance {
                        message: format!("loadgen per-view metrics failed: {e}"),
                    })
            })
    });
    // End the blocking fold loops, then reap them.
    for st in &stoppers {
        st.stop();
    }
    let mut sub_merged = SubscriberStats::default();
    for s in subs {
        sub_merged.merge(s.join().expect("subscriber thread"));
    }
    let mut outcome = outcome?;
    if let Some(nm) = per_view_net {
        outcome.net = nm?;
    }
    net.shutdown();
    let runtime = server.shutdown();
    let mm = runtime.metrics();
    let scan_fallbacks = (0..runtime.views())
        .map(|v| runtime.registry().view(v).stats.exec.scan_fallbacks)
        .sum();
    if let Some(p) = wal_path {
        let _ = std::fs::remove_file(p);
    }
    let mut report = report_of(outcome, mm.global.clone(), scan_fallbacks, 1, 0);
    report.views = views;
    report.subscribers = opts.subscribers;
    report.sub_deltas = sub_merged.deltas;
    report.sub_snapshots = sub_merged.snapshots;
    report.sub_checksum_errors = sub_merged.checksum_errors;
    report.protocol_errors += sub_merged.protocol_errors;
    if report.last_error.is_none() {
        report.last_error = sub_merged.last_error;
    }
    Ok(report)
}

/// A per-shard slot the failover promoter parks the follower's new
/// leader server in (shared with the teardown/metrics path).
type PromotedSlot = Arc<Mutex<Option<ServeServer>>>;

/// Follower-side state of the replicated stack: one tailing replica
/// per shard (held in a slot its promoter can steal), the slots
/// promotions park new leaders in, and the promoter-armed failover
/// monitor.
struct ReplicationSet {
    holders: Vec<Arc<Mutex<Option<Replica>>>>,
    promoted: Vec<PromotedSlot>,
    failures: Arc<Mutex<Vec<String>>>,
    monitor: FailoverMonitor,
}

impl ReplicationSet {
    /// Stops the monitor and every still-running replica, returning
    /// the promoted-leader slots and any promotion failures (each one
    /// fails the run).
    fn teardown(self) -> (Vec<PromotedSlot>, Vec<String>) {
        self.monitor.stop();
        for holder in &self.holders {
            if let Some(rep) = holder.lock().unwrap().take() {
                let _ = rep.stop();
            }
        }
        let failures = std::mem::take(&mut *self.failures.lock().unwrap());
        (self.promoted, failures)
    }
}

/// Spawns a follower per shard — a standby runtime on the shard's
/// genesis partition, re-logging to its own in-memory WAL, tailing the
/// leader's log over `addr` — and arms the [`FailoverMonitor`] with
/// promoters that seal + drain a dead leader's log into its follower
/// and swap it in.
fn spawn_replication(
    exp: &ServeExperiment,
    genesis: Vec<aivm_engine::Database>,
    opts: &LoadgenOptions,
    router: &ShardRouter,
    addr: std::net::SocketAddr,
    leader_wals: &[MemWal],
) -> Result<ReplicationSet, EngineError> {
    let net_err = |e: std::io::Error| EngineError::io("loadgen replica setup", e);
    let mut holders = Vec::with_capacity(opts.shards);
    let mut follower_wals = Vec::with_capacity(opts.shards);
    for (i, db) in genesis.into_iter().enumerate() {
        let view = exp.make_view(&db)?;
        let policy = exp
            .policy(&opts.policy)
            .unwrap_or_else(|| panic!("unknown policy {:?}", opts.policy));
        let mut standby =
            MaintenanceRuntime::engine(exp.shard_config(opts.shards), policy, db, view)?;
        let fwal = MemWal::new();
        standby.attach_wal(WalWriter::create(Box::new(fwal.clone()), 4)?);
        let status = ReplicaStatus::new();
        let rep = Replica::spawn(
            addr,
            i as u32,
            standby,
            status.clone(),
            ReplicaConfig::default(),
        )
        .map_err(net_err)?;
        router.attach_replica(i, status);
        holders.push(Arc::new(Mutex::new(Some(rep))));
        follower_wals.push(fwal);
    }
    let promoted: Vec<PromotedSlot> = (0..opts.shards)
        .map(|_| Arc::new(Mutex::new(None)))
        .collect();
    let failures: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let promoters: Vec<Option<Promoter>> = (0..opts.shards)
        .map(|i| {
            let holder = Arc::clone(&holders[i]);
            let lwal = leader_wals[i].clone();
            let fwal = follower_wals[i].clone();
            let slot = Arc::clone(&promoted[i]);
            let fails = Arc::clone(&failures);
            let promoter: Promoter = Box::new(move |router: &ShardRouter, idx: usize| {
                let Some(replica) = holder.lock().unwrap().take() else {
                    fails
                        .lock()
                        .unwrap()
                        .push(format!("shard {idx}: no replica to promote"));
                    return;
                };
                let status = replica.status();
                let mut rt = replica.stop();
                // The dead leader's log is sealed; drain the durable
                // records the follower had not applied yet.
                match read_wal(&lwal.bytes()) {
                    Ok(o) => {
                        for rec in o.records.iter().skip(status.applied() as usize) {
                            if let Err(e) = rt.apply_record(rec) {
                                fails
                                    .lock()
                                    .unwrap()
                                    .push(format!("shard {idx}: drain apply failed: {e}"));
                                break;
                            }
                        }
                    }
                    Err(e) => fails
                        .lock()
                        .unwrap()
                        .push(format!("shard {idx}: sealed log unreadable: {e}")),
                }
                let server = ServeServer::spawn(rt, ServerConfig::default());
                router.promote(
                    idx,
                    server.handle(),
                    Some(WalTail::new(Box::new(fwal.clone()))),
                );
                *slot.lock().unwrap() = Some(server);
            });
            Some(promoter)
        })
        .collect();
    // Gentler probing than the chaos suite's: a metrics probe parked
    // behind a saturated closed-loop ingest queue must not read as
    // death, so the deadline spans several debug-build flushes.
    let monitor = FailoverMonitor::spawn(
        router.clone(),
        FailoverConfig {
            probe_interval: Duration::from_millis(25),
            ping_deadline: Duration::from_millis(400),
            fail_threshold: 4,
        },
        promoters,
    );
    Ok(ReplicationSet {
        holders,
        promoted,
        failures,
        monitor,
    })
}

/// The sharded stack: key-partitions the pristine database, spawns one
/// [`ServeServer`] per shard (each with its own scheduler, queues,
/// snapshot slot, and — when a WAL policy is set — its own WAL file),
/// fronts them with a [`ShardRouter`]-backed [`NetServer`], and runs
/// the budget-rebalancing [`Coordinator`] for the whole window. With
/// `replicas` every shard also gets a live follower tailing its WAL
/// over the wire, and with `kill_leader` shard 0's leader dies mid-run
/// and the monitor promotes its follower under live traffic.
fn run_loadgen_sharded(
    exp: &ServeExperiment,
    opts: &LoadgenOptions,
) -> Result<LoadgenReport, EngineError> {
    if opts.replicas && opts.wal_sync.is_some() {
        return Err(EngineError::Maintenance {
            message: "replicated loadgen logs to per-shard in-memory WALs; drop --wal-sync".into(),
        });
    }
    let (runtimes, part) = exp.sharded_runtimes(&opts.policy, opts.shards)?;
    let genesis = if opts.replicas {
        Some(exp.partition_genesis(&part)?)
    } else {
        None
    };
    // The kill (if any) fires once shard 0's leader has durably logged
    // about a quarter of one table's events — a mid-run WAL record
    // boundary, comfortably before its stream drains.
    let kill_after = (opts.events_each as u64 / 4).max(32);
    let mut serves: Vec<Option<ServeServer>> = Vec::with_capacity(opts.shards);
    let mut leader_wals: Vec<MemWal> = Vec::new();
    let mut wal_paths = Vec::new();
    for (i, mut runtime) in runtimes.into_iter().enumerate() {
        if opts.replicas {
            let wal = MemWal::new();
            runtime.attach_wal(WalWriter::create(Box::new(wal.clone()), 4)?);
            leader_wals.push(wal);
        } else if let Some(p) = &opts.wal_sync {
            let path = loadgen_wal_path(opts, Some(i));
            let _ = std::fs::remove_file(&path);
            runtime.attach_wal(WalWriter::create(
                Box::new(FileWal::create(&path)?),
                p.sync_every(),
            )?);
            wal_paths.push(path);
        }
        let cfg = if opts.kill_leader && i == 0 {
            ServerConfig {
                faults: FaultPlan {
                    kill_at_record: Some(kill_after),
                    ..FaultPlan::none()
                },
                ..ServerConfig::default()
            }
        } else {
            ServerConfig::default()
        };
        serves.push(Some(ServeServer::spawn(runtime, cfg)));
    }
    let handles = serves
        .iter()
        .map(|s| s.as_ref().expect("just spawned").handle())
        .collect();
    let router = ShardRouter::new(handles, part, exp.view_def(), exp.budget)?;
    if opts.replicas {
        for (i, wal) in leader_wals.iter().enumerate() {
            router.attach_wal_tail(i, WalTail::new(Box::new(wal.clone())));
        }
    }
    let coordinator = Coordinator::spawn(
        router.clone(),
        CoordinatorConfig {
            policy: opts.rebalance,
            ..CoordinatorConfig::default()
        },
    );
    let net = NetServer::bind_sharded("127.0.0.1:0", router.clone(), net_config(opts))
        .map_err(|e| EngineError::io("loadgen sharded bind", e))?;
    let replication = match genesis {
        Some(g) => Some(spawn_replication(
            exp,
            g,
            opts,
            &router,
            net.local_addr(),
            &leader_wals,
        )?),
        None => None,
    };
    let outcome = drive_workers(net.local_addr(), exp, opts)?;
    let coord_stats = coordinator.stop();
    let (promoted, promo_failures) = match replication {
        Some(r) => r.teardown(),
        None => (Vec::new(), Vec::new()),
    };
    net.shutdown();
    drop(router);
    let mut scan_fallbacks = 0u64;
    let mut shard_metrics = Vec::with_capacity(opts.shards);
    for (i, serve) in serves.into_iter().enumerate() {
        // A promoted follower supersedes its dead leader: its runtime
        // holds the shard's authoritative post-failover state. Reap
        // the dead scheduler but keep its scan-fallback count (those
        // were real engine regressions too).
        let serve = match promoted.get(i).and_then(|s| s.lock().unwrap().take()) {
            Some(new_leader) => {
                if let Some(dead) = serve {
                    let dead_rt = dead.shutdown();
                    scan_fallbacks += dead_rt
                        .maintenance_stats()
                        .map(|s| s.exec.scan_fallbacks)
                        .unwrap_or(0);
                }
                new_leader
            }
            None => serve.expect("spawned above"),
        };
        let runtime = serve.shutdown();
        scan_fallbacks += runtime
            .maintenance_stats()
            .map(|s| s.exec.scan_fallbacks)
            .unwrap_or(0);
        shard_metrics.push(runtime.metrics());
    }
    for p in wal_paths {
        let _ = std::fs::remove_file(p);
    }
    let mut report = report_of(
        outcome,
        merge_metrics(&shard_metrics),
        scan_fallbacks,
        opts.shards,
        coord_stats.rebalances,
    );
    for f in promo_failures {
        report.protocol_errors += 1;
        report.last_error.get_or_insert(format!("promotion: {f}"));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::ServeOptions;

    #[test]
    fn quick_loadgen_run_is_clean_and_ordered() {
        let exp = ServeExperiment::build(ServeOptions {
            events_each: 600,
            quick: true,
            ..Default::default()
        })
        .expect("build");
        let opts = LoadgenOptions {
            clients: 3,
            events_each: 600,
            batch: 32,
            duration: Duration::from_secs(30),
            quick: true,
            ..Default::default()
        };
        let r = run_loadgen(&exp, &opts).expect("loadgen");
        assert!(r.ok(), "violations or errors: {:?}", r.last_error);
        // Finite streams drained completely: strict per-table order
        // makes partial progress impossible without a poisoned stream.
        assert_eq!(r.events_submitted, 1200);
        assert_eq!(r.runtime.events_ingested, 1200);
        assert!(r.reads_fresh >= 1);
        assert_eq!(r.net.submitted_events, 1200);
        assert_eq!(r.net.connections_rejected, 0);
    }

    #[test]
    fn quick_registry_loadgen_pushes_verified_deltas() {
        let exp = ServeExperiment::build(ServeOptions {
            events_each: 400,
            quick: true,
            ..Default::default()
        })
        .expect("build");
        let opts = LoadgenOptions {
            clients: 2,
            events_each: 400,
            batch: 32,
            duration: Duration::from_secs(30),
            quick: true,
            views: 3,
            subscribers: 4,
            ..Default::default()
        };
        let r = run_loadgen(&exp, &opts).expect("registry loadgen");
        assert!(r.ok(), "violations or errors: {:?}", r.last_error);
        assert_eq!(r.events_submitted, 800);
        assert_eq!(r.runtime.events_ingested, 800);
        assert_eq!(r.views, 3);
        assert_eq!(r.net.views, 3);
        assert_eq!(r.net.subscribers, 4, "all subscribers still attached");
        // Every subscriber opens at the head (snapshot first), then
        // folds pushed deltas whose post-fold checksums must all match.
        assert!(
            r.sub_snapshots >= 4,
            "missing head snapshots: {}",
            r.sub_snapshots
        );
        assert!(r.sub_deltas > 0, "no deltas pushed");
        assert_eq!(r.sub_checksum_errors, 0);
        let rows = r.net.per_view.as_ref().expect("per-view metrics");
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|v| v.violations == 0));
        assert!(rows.iter().any(|v| v.deltas_pushed > 0));
    }

    #[test]
    fn quick_sharded_loadgen_run_is_clean_and_complete() {
        let exp = ServeExperiment::build(ServeOptions {
            events_each: 400,
            quick: true,
            ..Default::default()
        })
        .expect("build");
        let opts = LoadgenOptions {
            clients: 3,
            events_each: 400,
            batch: 32,
            duration: Duration::from_secs(30),
            quick: true,
            shards: 4,
            ..Default::default()
        };
        let r = run_loadgen(&exp, &opts).expect("sharded loadgen");
        assert!(r.ok(), "violations or errors: {:?}", r.last_error);
        // Every update routes to exactly one shard (updates never move
        // a row's partition key), so the merged ingest count equals the
        // stream total — nothing duplicated, nothing lost.
        assert_eq!(r.events_submitted, 800);
        assert_eq!(r.runtime.events_ingested, 800);
        assert_eq!(r.shards, 4);
        assert_eq!(r.net.shards, 4);
        assert_eq!(r.net.shards_live, 4);
        assert!(r.reads_fresh >= 1);
        assert!(
            r.runtime.budget_rebalances > 0 || r.rebalances == 0,
            "runtime rebalance counter and coordinator stats disagree"
        );
    }

    #[test]
    fn replicated_loadgen_reports_healthy_followers() {
        let exp = ServeExperiment::build(ServeOptions {
            events_each: 300,
            quick: true,
            ..Default::default()
        })
        .expect("build");
        let opts = LoadgenOptions {
            clients: 2,
            events_each: 300,
            batch: 16,
            duration: Duration::from_secs(30),
            quick: true,
            shards: 2,
            replicas: true,
            ..Default::default()
        };
        let r = run_loadgen(&exp, &opts).expect("replicated loadgen");
        assert!(r.ok(), "violations or errors: {:?}", r.last_error);
        // Durable acks: every confirmed event was applied and logged.
        assert_eq!(r.events_submitted, 600);
        assert_eq!(r.runtime.events_ingested, 600);
        assert_eq!(r.net.failovers, 0, "spurious failover under clean load");
        let rows = r.net.per_shard.as_ref().expect("per-shard metrics");
        assert_eq!(rows.len(), 2);
        for row in rows {
            assert_eq!(row.epoch, 1);
            assert_eq!(row.health, 2, "follower not tailing shard {}", row.shard);
        }
    }

    #[test]
    fn kill_leader_loadgen_fails_over_under_load() {
        let exp = ServeExperiment::build(ServeOptions {
            events_each: 400,
            quick: true,
            ..Default::default()
        })
        .expect("build");
        let opts = LoadgenOptions {
            clients: 2,
            events_each: 400,
            batch: 16,
            duration: Duration::from_secs(60),
            quick: true,
            shards: 2,
            replicas: true,
            kill_leader: true,
            ..Default::default()
        };
        let r = run_loadgen(&exp, &opts).expect("kill-leader loadgen");
        assert!(r.ok(), "violations or errors: {:?}", r.last_error);
        // The closed loop rode out the failover: both finite streams
        // drained. Batches whose ack died with the leader are counted
        // ambiguous, never resubmitted (a blind resubmit could
        // double-apply a logged prefix into the promoted follower).
        assert_eq!(
            r.events_submitted + r.ambiguous_events,
            800,
            "streams did not drain (submitted {} + ambiguous {})",
            r.events_submitted,
            r.ambiguous_events
        );
        assert!(r.net.failovers >= 1, "leader never failed over");
        assert_eq!(r.net.shards_live, 2, "a shard is still dead");
        let rows = r.net.per_shard.as_ref().expect("per-shard metrics");
        assert!(
            rows.iter().any(|s| s.epoch >= 2),
            "no shard shows a promotion epoch: {rows:?}"
        );
    }
}
