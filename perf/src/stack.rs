//! Brings the three serving stacks up on a loopback port and tears
//! them down again, checking on the way out that what was maintained
//! equals a fresh materialisation over the final database.
//!
//! One constructor per `Backend` arm of `aivm-net`'s server: single
//! (`NetServer::bind`), registry (`bind_registry`) and sharded
//! (`bind_sharded`, optionally with replicas and durable acks).

use crate::inputs::Inputs;
use crate::json::Json;
use aivm_engine::{rows_checksum, EngineError, Value, WRow};
use aivm_net::{NetServer, NetServerConfig, Replica, ReplicaConfig};
use aivm_serve::{
    MaintenanceRuntime, MemWal, MetricsSnapshot, ReadMode, RegistryServer, ServeServer,
    ServerConfig, WalTail, WalWriter,
};
use aivm_shard::{
    merge_metrics, merge_reads, Coordinator, CoordinatorConfig, MergeSpec, ReplicaStatus,
    ShardRouter,
};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Records appended between leader WAL syncs; `MemWal` syncs are free,
/// the value only has to be the one the seed's replicated stack uses.
const WAL_SYNC_EVERY: u64 = 4;

/// Connections the load generator may open: its clients, one control
/// client, a subscriber's two, and one replica per shard, with slack.
const MAX_CONNECTIONS: usize = 32;

/// One verified property of a run's outputs.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// The output checks of one run; any failure makes the run incorrect.
#[derive(Default)]
pub struct Checks(pub Vec<Check>);

impl Checks {
    pub fn eq<T: PartialEq + std::fmt::Debug>(&mut self, name: &str, got: T, want: T) {
        self.0.push(Check {
            name: name.to_string(),
            ok: got == want,
            detail: format!("got {got:?}, want {want:?}"),
        });
    }

    pub fn is_true(&mut self, name: &str, ok: bool, detail: String) {
        self.0.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    pub fn all_ok(&self) -> bool {
        self.0.iter().all(|c| c.ok)
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.0
                .iter()
                .map(|c| {
                    Json::obj()
                        .with("name", c.name.as_str())
                        .with("ok", c.ok)
                        .with("detail", c.detail.as_str())
                })
                .collect(),
        )
    }
}

pub fn net_config(durable_acks: bool) -> NetServerConfig {
    NetServerConfig {
        max_connections: MAX_CONNECTIONS,
        durable_acks,
        ..NetServerConfig::default()
    }
}

pub fn net_config_json(cfg: &NetServerConfig) -> Json {
    Json::obj()
        .with("max_connections", cfg.max_connections)
        .with("submit_high_water", cfg.submit_high_water)
        .with(
            "default_deadline_ms",
            cfg.default_deadline.as_millis() as u64,
        )
        .with("poll_interval_us", cfg.poll_interval.as_micros() as u64)
        .with("workers", cfg.workers)
        .with("durable_acks", cfg.durable_acks)
}

pub fn server_config_json(cfg: &ServerConfig) -> Json {
    Json::obj()
        .with("queue_capacity", cfg.queue_capacity)
        .with("shed_high_water", cfg.shed_high_water)
        .with("tick_interval_us", cfg.tick_interval.as_micros() as u64)
        .with("max_batch", cfg.max_batch)
}

/// What a stack's scheduler(s) counted, read after shutdown.
pub struct StackFinal {
    /// Runtime counters, merged across shards.
    pub metrics: MetricsSnapshot,
    pub scan_fallbacks: u64,
    /// `events_ingested` per shard (one entry when unsharded).
    pub shard_events: Vec<u64>,
    /// Leader WAL size, summed over shards (0 without a WAL).
    pub wal_bytes: u64,
    pub budget_rebalances: u64,
}

/// The single-runtime stack: `ServeServer` + `NetServer::bind`, no WAL.
pub struct SingleStack {
    serve: ServeServer,
    net: NetServer,
    heavy_light: bool,
}

impl SingleStack {
    pub fn up(inputs: &Inputs, heavy_light: bool) -> Result<SingleStack, EngineError> {
        let db = inputs.data.db.clone();
        let view = inputs.make_view(&db, heavy_light)?;
        let runtime = MaintenanceRuntime::engine(inputs.serve_config(), inputs.policy(), db, view)?;
        let serve = ServeServer::spawn(runtime, ServerConfig::default());
        let n_tables = inputs.costs.len();
        let net = NetServer::bind("127.0.0.1:0", serve.handle(), n_tables, net_config(false))
            .map_err(|e| EngineError::io("bind single stack", e))?;
        Ok(SingleStack {
            serve,
            net,
            heavy_light,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.net.local_addr()
    }

    pub fn down(self, inputs: &Inputs, checks: &mut Checks) -> Result<StackFinal, EngineError> {
        self.net.shutdown();
        checks.eq(
            "scheduler last_error empty",
            self.serve.last_error().map(|e| e.to_string()),
            None,
        );
        let mut runtime = self.serve.shutdown();
        verify_runtime(&mut runtime, inputs, self.heavy_light, "view", checks)?;
        let metrics = runtime.metrics();
        Ok(StackFinal {
            scan_fallbacks: scan_fallbacks(&runtime),
            shard_events: vec![metrics.events_ingested],
            wal_bytes: 0,
            budget_rebalances: metrics.budget_rebalances,
            metrics,
        })
    }
}

fn scan_fallbacks(rt: &MaintenanceRuntime) -> u64 {
    rt.maintenance_stats().map_or(0, |s| s.exec.scan_fallbacks)
}

/// Flushes what is pending and checks the maintained view against a
/// fresh `paper_view` over the runtime's final database.
fn verify_runtime(
    rt: &mut MaintenanceRuntime,
    inputs: &Inputs,
    heavy_light: bool,
    what: &str,
    checks: &mut Checks,
) -> Result<(), EngineError> {
    let read = rt.read(ReadMode::Fresh)?;
    checks.eq(
        &format!("{what}: quiesce read within budget"),
        read.violated,
        false,
    );
    let maintained = rt.view_checksum().expect("engine backend");
    let db = rt.database().expect("engine backend");
    let fresh = inputs.make_view(db, heavy_light)?.result_checksum();
    checks.eq(
        &format!("{what}: maintained checksum == fresh materialisation"),
        maintained,
        fresh,
    );
    Ok(())
}

/// Relative tolerance for float cells of incrementally maintained
/// SUM/AVG views: adding and retracting terms rounds differently from
/// summing the final rows once, so those views cannot match a fresh
/// materialisation bit for bit. MIN/MAX views (and everything that is
/// not a float) must.
const FLOAT_TOLERANCE: f64 = 1e-9;

/// Compares a maintained result with a fresh materialisation: equal
/// checksums, or the same rows with float cells within
/// [`FLOAT_TOLERANCE`].
fn rows_agree(maintained: &[WRow], fresh: &[WRow]) -> (bool, String) {
    if rows_checksum(maintained) == rows_checksum(fresh) {
        return (true, "bit-identical".into());
    }
    let sorted = |rows: &[WRow]| {
        let mut r = rows.to_vec();
        r.sort();
        r
    };
    let (a, b) = (sorted(maintained), sorted(fresh));
    let close = a.len() == b.len()
        && a.iter().zip(&b).all(|((ra, wa), (rb, wb))| {
            wa == wb
                && ra.len() == rb.len()
                && ra
                    .values()
                    .iter()
                    .zip(rb.values())
                    .all(|(x, y)| match (x, y) {
                        (Value::Float(x), Value::Float(y)) => {
                            (x - y).abs() <= FLOAT_TOLERANCE * x.abs().max(y.abs())
                        }
                        _ => x == y,
                    })
        });
    let detail = if close {
        format!("floats within {FLOAT_TOLERANCE:e} (incremental SUM/AVG rounding)")
    } else {
        format!("maintained {a:?} != fresh {b:?}")
    };
    (close, detail)
}

/// The multi-view stack: `RegistryServer` + `NetServer::bind_registry`
/// over `views` paper-view variants in one sharing group.
pub struct RegistryStack {
    server: RegistryServer,
    net: NetServer,
    views: usize,
}

impl RegistryStack {
    pub fn up(inputs: &Inputs, views: usize) -> Result<RegistryStack, EngineError> {
        let registry = inputs.registry_over(inputs.data.db.clone(), views)?;
        let runtime = aivm_serve::RegistryRuntime::new(
            inputs.registry_config(views),
            inputs.policy(),
            registry,
        )?;
        let server = RegistryServer::spawn(runtime, ServerConfig::default());
        let net = NetServer::bind_registry("127.0.0.1:0", server.handle(), net_config(false))
            .map_err(|e| EngineError::io("bind registry stack", e))?;
        Ok(RegistryStack { server, net, views })
    }

    pub fn addr(&self) -> SocketAddr {
        self.net.local_addr()
    }

    /// Ingest-queue depth right now (the open loop samples it to see
    /// whether a backlog is growing).
    pub fn queue_depth(&self) -> usize {
        self.server.handle().queue_depth()
    }

    pub fn down(self, inputs: &Inputs, checks: &mut Checks) -> Result<StackFinal, EngineError> {
        self.net.shutdown();
        checks.eq(
            "scheduler last_error empty",
            self.server.last_error().map(|e| e.to_string()),
            None,
        );
        let mut runtime = self.server.shutdown();
        let mut scan_fallbacks = 0;
        for v in 0..self.views {
            let read = runtime.read_view(v, ReadMode::Fresh)?;
            checks.eq(
                &format!("view {v}: quiesce read within budget"),
                read.violated,
                false,
            );
            scan_fallbacks += runtime.registry().view(v).stats.exec.scan_fallbacks;
        }
        let oracle = inputs.registry_over(runtime.registry().db().clone(), self.views)?;
        for v in 0..self.views {
            let (ok, detail) = rows_agree(&runtime.registry().result(v), &oracle.result(v));
            checks.is_true(
                &format!("view {v}: maintained rows == fresh materialisation"),
                ok,
                detail,
            );
        }
        let mm = runtime.metrics();
        checks.is_true(
            "no per-view budget violation",
            mm.views.iter().all(|v| v.violations == 0),
            format!(
                "{:?}",
                mm.views.iter().map(|v| v.violations).collect::<Vec<_>>()
            ),
        );
        Ok(StackFinal {
            scan_fallbacks,
            shard_events: vec![mm.global.events_ingested],
            wal_bytes: 0,
            budget_rebalances: mm.global.budget_rebalances,
            metrics: mm.global,
        })
    }
}

/// One shard's follower: the tailing replica and the status it shares
/// with the router.
struct Follower {
    replica: Replica,
    status: ReplicaStatus,
}

/// The sharded stack: one `ServeServer` per shard behind a
/// `ShardRouter`, the budget coordinator, and `bind_sharded`. With
/// `durable`, every leader logs to a `MemWal` that a `Replica` tails
/// over the wire, and submits are acknowledged only after apply + WAL
/// append. No failover monitor: no workload kills a leader.
pub struct ShardedStack {
    serves: Vec<ServeServer>,
    router: ShardRouter,
    coordinator: Option<Coordinator>,
    net: NetServer,
    leader_wals: Vec<MemWal>,
    followers: Vec<Follower>,
    heavy_light: bool,
}

impl ShardedStack {
    pub fn up(
        inputs: &Inputs,
        shards: usize,
        durable: bool,
        heavy_light: bool,
    ) -> Result<ShardedStack, EngineError> {
        let part = inputs.partitioner(shards)?;
        let genesis = inputs.partition_genesis(&part)?;
        let mut serves = Vec::with_capacity(shards);
        let mut leader_wals = Vec::new();
        for db in &genesis {
            let db = db.clone();
            let view = inputs.make_view(&db, heavy_light)?;
            let mut runtime =
                MaintenanceRuntime::engine(inputs.shard_config(shards), inputs.policy(), db, view)?;
            if durable {
                let wal = MemWal::new();
                runtime.attach_wal(WalWriter::create(Box::new(wal.clone()), WAL_SYNC_EVERY)?);
                leader_wals.push(wal);
            }
            serves.push(ServeServer::spawn(runtime, ServerConfig::default()));
        }
        let handles = serves.iter().map(ServeServer::handle).collect();
        let router = ShardRouter::new(handles, part, &inputs.view_def, inputs.budget)?;
        for (i, wal) in leader_wals.iter().enumerate() {
            router.attach_wal_tail(i, WalTail::new(Box::new(wal.clone())));
        }
        let coordinator = Coordinator::spawn(router.clone(), CoordinatorConfig::default());
        let net = NetServer::bind_sharded("127.0.0.1:0", router.clone(), net_config(durable))
            .map_err(|e| EngineError::io("bind sharded stack", e))?;
        let mut followers = Vec::new();
        if durable {
            for (i, db) in genesis.into_iter().enumerate() {
                let view = inputs.make_view(&db, heavy_light)?;
                let mut standby = MaintenanceRuntime::engine(
                    inputs.shard_config(shards),
                    inputs.policy(),
                    db,
                    view,
                )?;
                standby.attach_wal(WalWriter::create(Box::new(MemWal::new()), WAL_SYNC_EVERY)?);
                let status = ReplicaStatus::new();
                let replica = Replica::spawn(
                    net.local_addr(),
                    i as u32,
                    standby,
                    status.clone(),
                    ReplicaConfig::default(),
                )
                .map_err(|e| EngineError::io("spawn replica", e))?;
                router.attach_replica(i, status.clone());
                // Wait for the follower's first successful poll before
                // spawning the next one, so the followers' connections
                // — and after them the load generator's — reach the
                // server in a fixed order.
                let deadline = Instant::now() + Duration::from_secs(5);
                while !status.healthy() && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
                followers.push(Follower { replica, status });
            }
        }
        Ok(ShardedStack {
            serves,
            router,
            coordinator: Some(coordinator),
            net,
            leader_wals,
            followers,
            heavy_light,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.net.local_addr()
    }

    /// Largest follower lag (leader records not yet applied) right now.
    pub fn replica_lag_max(&self) -> u64 {
        self.followers
            .iter()
            .map(|f| f.status.lag())
            .max()
            .unwrap_or(0)
    }

    /// Stops the coordinator, samples every leader's WAL length, and
    /// waits until each follower has applied at least that much. (An
    /// idle leader still logs a `Tick` record per millisecond, so the
    /// two counters never rest on the same value; what must hold is
    /// that nothing logged by quiesce time is missing downstream.)
    /// Returns `(budget pushes, seconds the catch-up took)`; a second
    /// call is a no-op.
    pub fn quiesce(&mut self, checks: &mut Checks) -> (u64, f64) {
        let Some(coordinator) = self.coordinator.take() else {
            return (0, 0.0);
        };
        let rebalances = coordinator.stop().rebalances;
        let t0 = Instant::now();
        if self.followers.is_empty() {
            return (rebalances, 0.0);
        }
        let mut want = vec![0; self.serves.len()];
        for (i, m) in self.router.sample_metrics() {
            want[i] = m.wal_records;
        }
        let deadline = t0 + Duration::from_secs(10);
        loop {
            let got: Vec<u64> = self.followers.iter().map(|f| f.status.applied()).collect();
            let caught_up = got.iter().zip(&want).all(|(g, w)| g >= w);
            if caught_up || Instant::now() >= deadline {
                checks.is_true(
                    "follower applied >= leader wal_records sampled at quiesce",
                    caught_up,
                    format!("applied {got:?}, leader {want:?}"),
                );
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        (rebalances, t0.elapsed().as_secs_f64())
    }

    pub fn down(mut self, inputs: &Inputs, checks: &mut Checks) -> Result<StackFinal, EngineError> {
        let (budget_rebalances, _) = self.quiesce(checks);
        for f in self.followers.drain(..) {
            let mut standby = f.replica.stop();
            verify_runtime(&mut standby, inputs, self.heavy_light, "follower", checks)?;
        }
        self.net.shutdown();
        drop(self.router);
        let merge = MergeSpec::from_def(&inputs.view_def)?;
        let mut shard_metrics = Vec::new();
        let mut maintained = Vec::new();
        let mut oracle = Vec::new();
        let mut scan = 0;
        for (i, serve) in self.serves.into_iter().enumerate() {
            checks.eq(
                &format!("shard {i}: scheduler last_error empty"),
                serve.last_error().map(|e| e.to_string()),
                None,
            );
            let mut rt = serve.shutdown();
            let read = rt.read(ReadMode::Fresh)?;
            checks.eq(
                &format!("shard {i}: quiesce read within budget"),
                read.violated,
                false,
            );
            let db = rt.database().expect("engine backend");
            oracle.push(inputs.make_view(db, self.heavy_light)?.result());
            maintained.push(read);
            scan += scan_fallbacks(&rt);
            shard_metrics.push(rt.metrics());
        }
        checks.eq(
            "merged maintained checksum == merged fresh materialisation",
            merge_reads(&merge, &maintained)?.checksum,
            rows_checksum(&merge.merge(&oracle)?),
        );
        Ok(StackFinal {
            scan_fallbacks: scan,
            shard_events: shard_metrics.iter().map(|m| m.events_ingested).collect(),
            wal_bytes: self
                .leader_wals
                .iter()
                .map(|w| w.bytes().len() as u64)
                .sum(),
            budget_rebalances,
            metrics: merge_metrics(&shard_metrics),
        })
    }
}
