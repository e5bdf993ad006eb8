//! Wire conformance: one request script, every constructor.
//!
//! `NetServer::bind`, `bind_registry` and `bind_sharded` all route
//! against a `ShardRouter`; the first two wrap their one scheduler in
//! `ShardRouter::single`. This test runs the same scripts against all
//! of them (`bind_sharded` at one, two and four shards) and asserts the
//! responses are identical — except where what the router *reports*
//! differs, which is the declared list:
//!
//! * **shards** (1, 1, 1, 2, 4): `shards`/`shards_live`/per-shard rows
//!   in metrics; a stale read serves one published snapshot per shard,
//!   so `snapshot_reads` grows by `shards` per read; only a multi-shard
//!   router can admit a batch *partially*. The merged `ingested` count
//!   is the script's total at every width.
//! * **views** (1, 2, 1, 1, 1): `views` in metrics, the out-of-range bound
//!   and the number of per-view metrics rows (every runtime has a view
//!   axis — a single view is a registry of one — and rows fold across
//!   shards).
//! * **hub** (every single-shard router: `bind`, `bind_registry`,
//!   `bind_sharded` at one shard): every runtime publishes deltas to a
//!   hub, so `Subscribe`/`Unsubscribe` are served wherever one
//!   scheduler stands behind the router, and are `BadRequest` on more
//!   shards (a multi-shard router has no hub).
//! * **failover** (only `bind_sharded`, whose caller keeps the router):
//!   a fencing epoch can only advance — and a stamped epoch go stale —
//!   where someone can `promote`.
//!
//! Error *messages* are not compared (they name shards and causes);
//! codes and their retry-safety are.

use aivm_core::{CostModel, Counts};
use aivm_engine::{
    parse_query, row, rows_checksum, DataType, Database, MaterializedView, MinStrategy,
    Modification, Schema, ViewDef, ViewRegistry, WRow,
};
use aivm_net::{
    read_hello_reply, recv_response, send_request, write_hello, ErrorCode, HandshakeStatus,
    NetServer, NetServerConfig, Request, RequestFrame, Response,
};
use aivm_serve::{
    read_wal, FlushPolicy, MaintenanceRuntime, MemWal, MultiConfig, NaiveFlush, RegistryRuntime,
    RegistryServer, ServeConfig, ServeServer, ServerConfig, WalRecord, WalWriter,
};
use aivm_shard::{Partitioner, ShardRouter};
use aivm_solver::PolicyContext;
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Bind,
    BindRegistry,
    Sharded1,
    Sharded2,
    Sharded4,
}

const KINDS: [Kind; 5] = [
    Kind::Bind,
    Kind::BindRegistry,
    Kind::Sharded1,
    Kind::Sharded2,
    Kind::Sharded4,
];

impl Kind {
    fn shards(self) -> usize {
        match self {
            Kind::Sharded2 => 2,
            Kind::Sharded4 => 4,
            _ => 1,
        }
    }

    fn views(self) -> usize {
        if self == Kind::BindRegistry {
            2
        } else {
            1
        }
    }

    fn has_hub(self) -> bool {
        self.shards() == 1
    }

    /// Whether the test (like any `bind_sharded` caller) holds the
    /// router and can therefore fail a shard over.
    fn can_fail_over(self) -> bool {
        matches!(self, Kind::Sharded1 | Kind::Sharded2 | Kind::Sharded4)
    }
}

/// A test-controlled stall inside the scheduler: the policy's `decide`
/// announces its arrival, then waits for a permit (or for the gate to
/// be opened for good). While a scheduler sits here its ingest queue is
/// not drained and its replies are not sent — the deterministic stand-in
/// for "busy flushing".
#[derive(Clone, Default)]
struct Gate(Arc<(Mutex<GateState>, Condvar)>);

#[derive(Default)]
struct GateState {
    arrivals: u64,
    permits: u64,
    open: bool,
}

impl Gate {
    fn pass(&self) {
        let (lock, cv) = &*self.0;
        let mut st = lock.lock().unwrap();
        st.arrivals += 1;
        cv.notify_all();
        while !st.open && st.permits == 0 {
            st = cv.wait(st).unwrap();
        }
        if !st.open {
            st.permits -= 1;
        }
    }

    /// Blocks until the scheduler has entered `decide` `n` times.
    fn wait_arrivals(&self, n: u64) {
        let (lock, cv) = &*self.0;
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut st = lock.lock().unwrap();
        while st.arrivals < n {
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(!left.is_zero(), "scheduler never reached decide #{n}");
            st = cv.wait_timeout(st, left).unwrap().0;
        }
    }

    fn permit(&self) {
        let (lock, cv) = &*self.0;
        lock.lock().unwrap().permits += 1;
        cv.notify_all();
    }

    fn open(&self) {
        let (lock, cv) = &*self.0;
        lock.lock().unwrap().open = true;
        cv.notify_all();
    }
}

/// NAIVE behind an optional gate; `lazy` never flushes (so a strict
/// runtime with a small budget fails its tick once the state is full).
struct Scripted {
    gate: Option<Gate>,
    lazy: bool,
    naive: NaiveFlush,
}

impl FlushPolicy for Scripted {
    fn reset(&mut self, ctx: &PolicyContext) {
        self.naive.reset(ctx);
    }

    fn decide(&mut self, t: usize, pending: &Counts) -> Counts {
        if let Some(gate) = &self.gate {
            gate.pass();
        }
        if self.lazy {
            Counts::zero(pending.len())
        } else {
            self.naive.decide(t, pending)
        }
    }

    fn name(&self) -> &str {
        "scripted"
    }
}

#[derive(Clone)]
struct RigOpts {
    serve: ServerConfig,
    net: NetServerConfig,
    gated: bool,
    /// Lazy policy + strict mode: the first tick over a full state
    /// poisons the scheduler with a constraint-violation error.
    poisonous: bool,
    budget: f64,
    wal: bool,
}

impl Default for RigOpts {
    fn default() -> Self {
        RigOpts {
            serve: ServerConfig::default(),
            net: NetServerConfig::default(),
            gated: false,
            poisonous: false,
            budget: 50.0,
            wal: false,
        }
    }
}

fn table_db() -> Database {
    let mut db = Database::new();
    let t = db
        .create_table("t", Schema::new(vec![("id", DataType::Int)]))
        .unwrap();
    db.set_key_column(t, 0);
    db
}

fn view_def(name: &str) -> ViewDef {
    ViewDef {
        name: name.into(),
        tables: vec!["t".into()],
        join_preds: vec![],
        filters: vec![None],
        residual: None,
        projection: None,
        aggregate: None,
        distinct: false,
    }
}

fn costs() -> Vec<CostModel> {
    vec![CostModel::linear(0.5, 0.1)]
}

fn spawn_single(
    opts: &RigOpts,
    policy: Box<dyn FlushPolicy>,
    wal: Option<WalWriter>,
) -> ServeServer {
    let db = table_db();
    let view = MaterializedView::new(&db, view_def("v"), MinStrategy::Multiset).unwrap();
    let mut cfg = ServeConfig::new(costs(), opts.budget);
    cfg.strict = opts.poisonous;
    let mut rt = MaintenanceRuntime::engine(cfg, policy, db, view).unwrap();
    if let Some(w) = wal {
        rt.attach_wal(w);
    }
    ServeServer::spawn(rt, opts.serve.clone())
}

/// One constructor's full stack. Dropping it opens every gate, drains
/// the net server and joins every scheduler.
struct Rig {
    kind: Kind,
    net: Option<NetServer>,
    singles: Vec<ServeServer>,
    registry: Option<RegistryServer>,
    router: Option<ShardRouter>,
    /// One gate per scheduler (empty unless `gated`).
    gates: Vec<Gate>,
    /// One log per scheduler (empty unless `wal`).
    wals: Vec<MemWal>,
}

impl Rig {
    fn new(kind: Kind, opts: &RigOpts) -> Rig {
        let mut gates = Vec::new();
        let mut wals = Vec::new();
        let mut policy = || -> Box<dyn FlushPolicy> {
            let gate = opts.gated.then(Gate::default);
            gates.extend(gate.clone());
            Box::new(Scripted {
                gate,
                lazy: opts.poisonous,
                naive: NaiveFlush::new(),
            })
        };
        let mut wal = || {
            opts.wal.then(|| {
                let mem = MemWal::new();
                wals.push(mem.clone());
                WalWriter::create(Box::new(mem), 1).unwrap()
            })
        };
        let mut rig = Rig {
            kind,
            net: None,
            singles: Vec::new(),
            registry: None,
            router: None,
            gates: Vec::new(),
            wals: Vec::new(),
        };
        let addr = "127.0.0.1:0";
        let net = match kind {
            Kind::Bind => {
                rig.singles.push(spawn_single(opts, policy(), wal()));
                NetServer::bind(addr, rig.singles[0].handle(), 1, opts.net.clone())
            }
            Kind::BindRegistry => {
                let mut reg = ViewRegistry::new(table_db());
                for v in 0..kind.views() {
                    reg.register_view(view_def(&format!("v{v}")), MinStrategy::Multiset)
                        .unwrap();
                }
                let mut cfg = MultiConfig::new(costs(), opts.budget);
                cfg.strict = opts.poisonous;
                let mut rt = RegistryRuntime::new(cfg, policy(), reg).unwrap();
                if let Some(w) = wal() {
                    rt.attach_wal(w);
                }
                let server = RegistryServer::spawn(rt, opts.serve.clone());
                let net = NetServer::bind_registry(addr, server.handle(), opts.net.clone());
                rig.registry = Some(server);
                net
            }
            Kind::Sharded1 | Kind::Sharded2 | Kind::Sharded4 => {
                for _ in 0..kind.shards() {
                    rig.singles.push(spawn_single(opts, policy(), wal()));
                }
                let handles = rig.singles.iter().map(ServeServer::handle).collect();
                let part = Partitioner::new(kind.shards(), vec![Some(0)]).unwrap();
                let router = ShardRouter::new(handles, part, &view_def("v"), opts.budget).unwrap();
                rig.router = Some(router.clone());
                NetServer::bind_sharded(addr, router, opts.net.clone())
            }
        };
        rig.net = Some(net.unwrap());
        rig.gates = gates;
        rig.wals = wals;
        rig
    }

    fn connect(&self) -> TcpStream {
        let mut s = TcpStream::connect(self.net.as_ref().unwrap().local_addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        write_hello(&mut s).unwrap();
        assert_eq!(read_hello_reply(&mut s).unwrap(), HandshakeStatus::Ok);
        s
    }

    /// Waits until every scheduler sits in its `n`-th `decide`.
    fn wait_stalled(&self, n: u64) {
        for g in &self.gates {
            g.wait_arrivals(n);
        }
    }

    fn permit_all(&self) {
        for g in &self.gates {
            g.permit();
        }
    }

    fn open_all(&self) {
        for g in &self.gates {
            g.open();
        }
    }

    /// DML records across every scheduler's log.
    fn logged_dml(&self) -> usize {
        self.wals
            .iter()
            .map(|w| {
                let records = read_wal(&w.bytes()).unwrap().records;
                let is_dml = |r: &&WalRecord| matches!(r, WalRecord::Dml { .. });
                records.iter().filter(is_dml).count()
            })
            .sum()
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.open_all();
        if let Some(net) = self.net.take() {
            net.shutdown();
        }
        // The router's slots hold scheduler handles; release them so
        // each scheduler sees the disconnect and `shutdown` returns.
        self.router = None;
        for s in self.singles.drain(..) {
            s.shutdown();
        }
        if let Some(r) = self.registry.take() {
            r.shutdown();
        }
    }
}

fn send(s: &mut TcpStream, request: Request, deadline_ms: u32) {
    let frame = RequestFrame {
        deadline_ms,
        request,
    };
    send_request(s, &frame).unwrap();
}

fn ask_within(s: &mut TcpStream, request: Request, deadline_ms: u32) -> Response {
    send(s, request, deadline_ms);
    recv_response(s).unwrap()
}

fn ask(s: &mut TcpStream, request: Request) -> Response {
    ask_within(s, request, 5_000)
}

fn inserts(ids: std::ops::Range<i64>) -> Vec<Modification> {
    ids.map(|i| Modification::Insert(row![i])).collect()
}

fn submit(ids: std::ops::Range<i64>, epoch: u64) -> Request {
    Request::Submit {
        epoch,
        table: 0,
        mods: inserts(ids),
    }
}

fn read(view: u32, fresh: bool, want_rows: bool) -> Request {
    Request::Read {
        view,
        fresh,
        want_rows,
    }
}

const ALL_METRICS: Request = Request::Metrics {
    per_shard: true,
    per_view: true,
};

/// Direct evaluation of the view's query over a database that applied
/// the same inserts.
fn expected_rows(ids: std::ops::Range<i64>) -> Vec<WRow> {
    let mut db = table_db();
    let t = db.table_id("t").unwrap();
    for m in inserts(ids) {
        db.apply(t, &m).unwrap();
    }
    let query = parse_query(&db, "SELECT id FROM t").unwrap();
    query.execute(&db).unwrap()
}

fn sorted_ids(rows: &[WRow]) -> String {
    let mut ids: Vec<String> = rows.iter().map(|(r, w)| format!("{r:?}x{w}")).collect();
    ids.sort();
    ids.join(",")
}

/// The compared form of a response: everything but error messages and
/// flush costs (a cost depends on how a batch split across shards).
fn obs(resp: Response) -> String {
    match resp {
        Response::Pong => "Pong".into(),
        Response::SubmitOk { accepted } => format!("SubmitOk({accepted})"),
        Response::ReadOk(r) => format!(
            "ReadOk(fresh={} lag={} violated={} degraded={} checksum={:016x} rows={})",
            r.fresh,
            r.lag,
            r.violated,
            r.degraded,
            r.checksum,
            r.rows.as_deref().map_or("-".into(), sorted_ids)
        ),
        Response::FlushOk { violated, .. } => format!("FlushOk(violated={violated})"),
        Response::Error { code, .. } => error(code),
        Response::SubscribeOk {
            view,
            resync,
            checksum,
            rows,
            ..
        } => format!(
            "SubscribeOk(view={view} resync={resync} checksum={checksum:016x} rows={})",
            sorted_ids(&rows)
        ),
        Response::MetricsOk(m) => format!(
            "MetricsOk(conns={} requests={} ingested={} submitted={} violations={} degraded={} \
             shards={}/{} views={} snapshot_reads={} epoch={} shard_rows={} view_rows={} \
             last_error={:?})",
            m.connections_active,
            m.requests,
            m.events_ingested,
            m.submitted_events,
            m.constraint_violations,
            m.degraded,
            m.shards_live,
            m.shards,
            m.views,
            m.snapshot_reads,
            m.cluster_epoch,
            m.per_shard.map_or("-".into(), |rows| format!(
                "{}live",
                rows.iter().filter(|r| r.live).count()
            )),
            m.per_view.map_or("-".into(), |rows| rows.len().to_string()),
            m.last_error
        ),
        other => format!("{other:?}"),
    }
}

fn error(code: ErrorCode) -> String {
    format!("Error({code:?} retry_safe={})", code.is_retry_safe())
}

fn read_ok(fresh: bool, ids: std::ops::Range<i64>, with_rows: bool) -> String {
    read_ok_rows(fresh, expected_rows(ids), with_rows)
}

fn read_ok_rows(fresh: bool, rows: Vec<WRow>, with_rows: bool) -> String {
    obs(Response::ReadOk(aivm_net::WireReadResult {
        fresh,
        lag: 0,
        flush_cost: 0.0,
        violated: false,
        degraded: false,
        checksum: rows_checksum(&rows),
        rows: with_rows.then_some(rows),
    }))
}

/// Runs `scenario` against every constructor.
fn on_every_constructor(opts: &RigOpts, scenario: impl Fn(&Rig, &mut TcpStream)) {
    for kind in KINDS {
        let rig = Rig::new(kind, opts);
        let mut s = rig.connect();
        scenario(&rig, &mut s);
    }
}

/// One step of the main script: the request, and the response every
/// constructor must give as a function of what its router reports.
struct Step {
    name: &'static str,
    request: Request,
    expect: fn(Kind) -> String,
}

#[test]
fn the_same_script_gets_the_same_responses_from_every_constructor() {
    let script = [
        Step {
            name: "ping",
            request: Request::Ping,
            expect: |_| "Pong".into(),
        },
        Step {
            name: "submit",
            request: submit(0..12, 0),
            expect: |_| "SubmitOk(12)".into(),
        },
        Step {
            name: "out-of-range table is a typed rejection",
            request: Request::Submit {
                epoch: 0,
                table: 9,
                mods: inserts(0..1),
            },
            expect: |_| error(ErrorCode::BadRequest),
        },
        Step {
            name: "the connection and the scheduler survive a bad request",
            request: Request::Ping,
            expect: |_| "Pong".into(),
        },
        Step {
            name: "out-of-range view",
            request: read(7, true, false),
            expect: |_| error(ErrorCode::BadRequest),
        },
        Step {
            name: "fresh read with rows equals direct evaluation",
            request: read(0, true, true),
            expect: |_| read_ok(true, 0..12, true),
        },
        // A fresh read publishes its flush before replying, so the
        // stale reads that follow are already current.
        Step {
            name: "stale read with rows",
            request: read(0, false, true),
            expect: |_| read_ok(false, 0..12, true),
        },
        Step {
            name: "stale read without rows",
            request: read(0, false, false),
            expect: |_| read_ok(false, 0..12, false),
        },
        Step {
            name: "flush",
            request: Request::Flush,
            expect: |_| "FlushOk(violated=false)".into(),
        },
        Step {
            name: "submit stamped with the current epoch",
            request: submit(12..14, 1),
            expect: |_| "SubmitOk(2)".into(),
        },
        Step {
            name: "metrics with both breakdowns",
            request: ALL_METRICS,
            expect: |k| {
                format!(
                    "MetricsOk(conns=1 requests=11 ingested=14 submitted=14 violations=0 \
                     degraded=false shards={s}/{s} views={} snapshot_reads={} epoch={s} \
                     shard_rows={s}live view_rows={} last_error=None)",
                    k.views(),
                    // Two stale reads, one snapshot served per shard.
                    2 * k.shards(),
                    k.views(),
                    s = k.shards(),
                )
            },
        },
        Step {
            name: "subscribe needs a hub",
            request: Request::Subscribe {
                view: 0,
                from_seq: u64::MAX,
            },
            expect: |k| {
                if !k.has_hub() {
                    return error(ErrorCode::BadRequest);
                }
                // Rows 12 and 13 arrived after the flush: still pending,
                // not yet in any published snapshot.
                let rows = expected_rows(0..12);
                format!(
                    "SubscribeOk(view=0 resync=true checksum={:016x} rows={})",
                    rows_checksum(&rows),
                    sorted_ids(&rows)
                )
            },
        },
        Step {
            name: "unsubscribe needs a hub",
            request: Request::Unsubscribe { view: 0 },
            expect: |k| {
                if k.has_hub() {
                    "Pong".into()
                } else {
                    error(ErrorCode::BadRequest)
                }
            },
        },
        Step {
            name: "replica subscribe without a tail attached",
            request: Request::ReplicaSubscribe {
                shard: 0,
                from_record: 0,
            },
            expect: |_| error(ErrorCode::ShardUnavailable),
        },
        Step {
            name: "replica subscribe to a shard that does not exist",
            request: Request::ReplicaSubscribe {
                shard: 9,
                from_record: 0,
            },
            expect: |_| error(ErrorCode::BadRequest),
        },
    ];
    on_every_constructor(&RigOpts::default(), |rig, s| {
        for step in &script {
            let got = obs(ask(s, step.request.clone()));
            assert_eq!(
                got,
                (step.expect)(rig.kind),
                "{:?}: {}",
                rig.kind,
                step.name
            );
        }
    });
}

#[test]
fn a_metrics_request_is_not_a_served_read() {
    on_every_constructor(&RigOpts::default(), |rig, s| {
        let mut last = None;
        for _ in 0..5 {
            match ask(s, ALL_METRICS) {
                Response::MetricsOk(m) => last = Some(m),
                other => panic!("{:?}: {other:?}", rig.kind),
            }
        }
        let m = last.unwrap();
        assert_eq!(m.snapshot_reads, 0, "{:?}", rig.kind);
        assert_eq!(m.stale_reads + m.fresh_reads, 0, "{:?}", rig.kind);
    });
}

#[test]
fn a_stamped_epoch_goes_stale_only_where_the_router_can_fail_over() {
    on_every_constructor(&RigOpts::default(), |rig, s| {
        if !rig.kind.can_fail_over() {
            // Declared difference: nobody holds this server's router,
            // so its epoch stays 1 for life (asserted by the script's
            // "current epoch" step) and no stamp can be older.
            return;
        }
        let router = rig.router.as_ref().unwrap();
        assert_eq!(obs(ask(s, submit(0..16, 1))), "SubmitOk(16)");
        // Fail shard 0 over to a fresh leader: its epoch becomes 2.
        let naive = Box::new(NaiveFlush::new());
        let promoted = spawn_single(&RigOpts::default(), naive, None);
        assert_eq!(router.promote(0, promoted.handle(), None), 2);
        // Sixteen rows reach every shard of every router, so shard 0's
        // fence rejects the batch — before anything is enqueued
        // anywhere, which is what makes the rejection retry-safe.
        assert_eq!(
            obs(ask(s, submit(100..116, 1))),
            error(ErrorCode::StaleEpoch),
            "{:?}",
            rig.kind
        );
        assert!(ErrorCode::StaleEpoch.is_retry_safe());
        match ask(s, ALL_METRICS) {
            Response::MetricsOk(m) => {
                let survivors = rig.kind.shards() as u64 - 1;
                assert!(m.submitted_events == 16, "{:?}: {m:?}", rig.kind);
                assert_eq!(m.failovers, 1);
                assert_eq!(m.cluster_epoch, 2 + survivors);
            }
            other => panic!("{other:?}"),
        }
        // Re-stamped (or unstamped) the same batch is admitted.
        assert_eq!(obs(ask(s, submit(100..116, 2))), "SubmitOk(16)");
        assert_eq!(obs(ask(s, submit(200..216, 0))), "SubmitOk(16)");
        // Take the promoted leader's handle back out of the router so
        // its scheduler can be joined.
        router.mark_dead(0);
        promoted.shutdown();
    });
}

/// Options for a rig whose scheduler(s) the test can stall, with an
/// ingest queue of four events and a coarse worker tick — so a parked
/// submit that resolves quickly was re-offered on the fine
/// parked-submit cadence, not the coarse one.
fn parking_opts() -> RigOpts {
    RigOpts {
        gated: true,
        serve: ServerConfig {
            queue_capacity: 4,
            ..ServerConfig::default()
        },
        net: NetServerConfig {
            poll_interval: Duration::from_millis(400),
            ..NetServerConfig::default()
        },
        ..RigOpts::default()
    }
}

/// Stalls every scheduler and fills every ingest queue: a batch larger
/// than the queue is admitted into an empty one and then occupies all
/// of it, and 32 keys fill every shard of the multi-shard routers.
fn fill_queues(rig: &Rig, s: &mut TcpStream) {
    rig.wait_stalled(1);
    assert_eq!(
        obs(ask(s, submit(0..32, 0))),
        "SubmitOk(32)",
        "{:?}",
        rig.kind
    );
}

#[test]
fn a_parked_submit_is_admitted_as_soon_as_the_scheduler_drains() {
    on_every_constructor(&parking_opts(), |rig, s| {
        fill_queues(rig, s);
        send(s, submit(100..104, 0), 5_000);
        // Parked: no reply while the queues stay full.
        s.set_read_timeout(Some(Duration::from_millis(60))).unwrap();
        assert!(recv_response(s).is_err(), "{:?}: replied early", rig.kind);
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let released = Instant::now();
        rig.open_all();
        assert_eq!(
            obs(recv_response(s).unwrap()),
            "SubmitOk(4)",
            "{:?}",
            rig.kind
        );
        assert!(
            released.elapsed() < Duration::from_millis(200),
            "{:?}: parked submit waited {:?} for the coarse tick",
            rig.kind,
            released.elapsed()
        );
        let mut both = expected_rows(0..32);
        both.extend(expected_rows(100..104));
        let got = obs(ask(s, read(0, true, false)));
        assert_eq!(got, read_ok_rows(true, both, false), "{:?}", rig.kind);
    });
}

#[test]
fn a_parked_submit_that_expires_is_overloaded_and_enqueued_nothing() {
    on_every_constructor(&parking_opts(), |rig, s| {
        fill_queues(rig, s);
        // Nothing was admitted, so the rejection is the retry-safe
        // Overloaded — never DeadlineExceeded.
        assert_eq!(
            obs(ask_within(s, submit(100..104, 0), 80)),
            error(ErrorCode::Overloaded),
            "{:?}",
            rig.kind
        );
        assert!(ErrorCode::Overloaded.is_retry_safe());
        rig.open_all();
        let got = obs(ask(s, read(0, true, false)));
        assert_eq!(got, read_ok(true, 0..32, false), "{:?}", rig.kind);
    });
}

#[test]
fn a_batch_admitted_on_one_shard_only_fails_internal_not_overloaded() {
    // Declared difference: only a multi-shard router can admit a batch
    // partially.
    let rig = Rig::new(Kind::Sharded2, &parking_opts());
    let mut s = rig.connect();
    fill_queues(&rig, &mut s);
    // Shard 1 drains; shard 0 stays stalled with a full queue.
    rig.gates[1].open();
    let deadline = Instant::now() + Duration::from_secs(10);
    while rig.singles[1].handle().queue_depth() > 0 {
        assert!(Instant::now() < deadline, "shard 1 never drained");
        std::thread::sleep(Duration::from_millis(1));
    }
    let got = obs(ask_within(&mut s, submit(100..132, 0), 80));
    assert_eq!(got, error(ErrorCode::Internal));
    assert!(!ErrorCode::Internal.is_retry_safe());
}

#[test]
fn a_durable_ack_means_applied_and_logged() {
    let opts = RigOpts {
        wal: true,
        net: NetServerConfig {
            durable_acks: true,
            ..NetServerConfig::default()
        },
        ..RigOpts::default()
    };
    on_every_constructor(&opts, |rig, s| {
        assert_eq!(
            obs(ask(s, submit(0..24, 0))),
            "SubmitOk(24)",
            "{:?}",
            rig.kind
        );
        assert_eq!(rig.logged_dml(), 24, "{:?}: acked before logged", rig.kind);
    });
}

#[test]
fn a_durable_ack_that_times_out_after_admission_is_not_retry_safe() {
    let opts = RigOpts {
        gated: true,
        net: NetServerConfig {
            durable_acks: true,
            ..NetServerConfig::default()
        },
        ..RigOpts::default()
    };
    on_every_constructor(&opts, |rig, s| {
        rig.wait_stalled(1);
        // The queues have room, so the batch is admitted — but no
        // stalled scheduler applies it within the deadline.
        assert_eq!(
            obs(ask_within(s, submit(0..24, 0), 80)),
            error(ErrorCode::DeadlineExceeded),
            "{:?}",
            rig.kind
        );
        assert!(!ErrorCode::DeadlineExceeded.is_retry_safe());
        // And rightly not: the batch does apply once the schedulers run.
        rig.open_all();
        let got = obs(ask(s, read(0, true, false)));
        assert_eq!(got, read_ok(true, 0..24, false), "{:?}", rig.kind);
    });
}

#[test]
fn a_scheduler_that_dies_mid_read_is_unavailable_with_its_cause() {
    // Lazy policy, strict mode, budget 1: f(k) = 0.5k + 0.1 > 1 from
    // two pending rows on, so the first tick after the batch applies
    // fails and poisons the scheduler.
    let opts = RigOpts {
        gated: true,
        poisonous: true,
        budget: 1.0,
        ..RigOpts::default()
    };
    let with_cause = |resp: Response, code: ErrorCode, kind: Kind| match resp {
        Response::Error { code: got, message } => {
            assert_eq!(got, code, "{kind:?}: {message}");
            assert!(
                message.contains("constraint violation"),
                "{kind:?}: the rejection lost the scheduler's last error: {message}"
            );
        }
        other => panic!("{kind:?}: {other:?}"),
    };
    on_every_constructor(&opts, |rig, s| {
        let kind = rig.kind;
        rig.wait_stalled(1);
        assert_eq!(obs(ask(s, submit(0..32, 0))), "SubmitOk(32)", "{kind:?}");
        // Tick 1 passes over an empty state; each scheduler applies its
        // share of the batch and stalls in tick 2.
        rig.permit_all();
        rig.wait_stalled(2);
        // The read queues behind the doomed tick on every shard…
        send(s, read(0, true, false), 5_000);
        // (Only makes "mid-read" the likely interleaving: a read that
        // finds the scheduler already gone must get the same answer.)
        std::thread::sleep(Duration::from_millis(20));
        // …which now fails, taking every scheduler down mid-read.
        rig.permit_all();
        let in_flight = recv_response(s).unwrap();
        with_cause(in_flight, ErrorCode::Unavailable, kind);
        // Later requests name the cause too, whatever their kind.
        with_cause(ask(s, read(0, true, false)), ErrorCode::Unavailable, kind);
        with_cause(ask(s, read(0, false, false)), ErrorCode::Unavailable, kind);
        with_cause(ask(s, Request::Flush), ErrorCode::Unavailable, kind);
        with_cause(ask(s, ALL_METRICS), ErrorCode::Unavailable, kind);
        // A submit is refused before any side effect, hence retry-safe.
        let refused = obs(ask(s, submit(100..104, 0)));
        assert_eq!(refused, error(ErrorCode::ShardUnavailable), "{kind:?}");
        assert_eq!(obs(ask(s, Request::Ping)), "Pong", "{kind:?}");
    });
}
