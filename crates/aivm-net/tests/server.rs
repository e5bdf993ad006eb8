//! TCP server integration tests over localhost, speaking raw frames
//! (the `aivm-client` crate layers retries/pooling on top; these tests
//! pin the protocol itself). What a request is answered with — on every
//! constructor — is `tests/conformance.rs`; this file keeps what is
//! about the connection rather than the request: the cap, a thousand
//! concurrent connections, corrupt frames and stale modifications,
//! drain, and the replica tail session.

use aivm_core::CostModel;
use aivm_engine::{
    row, AggFunc, AggSpec, DataType, Database, Expr, MaterializedView, MinStrategy, Modification,
    Schema, ViewDef,
};
use aivm_net::{
    read_hello_reply, recv_response, send_request, write_hello, ErrorCode, HandshakeStatus,
    NetServer, NetServerConfig, Request, RequestFrame, Response,
};
use aivm_serve::{MaintenanceRuntime, NaiveFlush, ServeConfig, ServeServer, ServerConfig};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn tiny_view_def() -> ViewDef {
    ViewDef {
        name: "v".into(),
        tables: vec!["t".into()],
        join_preds: vec![],
        filters: vec![None],
        residual: None,
        projection: None,
        aggregate: None,
        distinct: false,
    }
}

fn tiny_engine_runtime() -> (MaintenanceRuntime, Database) {
    let mut db = Database::new();
    let t = db
        .create_table("t", Schema::new(vec![("id", DataType::Int)]))
        .unwrap();
    db.set_key_column(t, 0);
    let genesis = db.clone();
    let view = MaterializedView::new(&db, tiny_view_def(), MinStrategy::Multiset).unwrap();
    let cfg = ServeConfig::new(vec![CostModel::linear(0.5, 0.1)], 50.0);
    let rt = MaintenanceRuntime::engine(cfg, Box::new(NaiveFlush::new()), db, view).unwrap();
    (rt, genesis)
}

struct TestRig {
    serve: ServeServer,
    net: NetServer,
}

fn spawn_rig(net_cfg: NetServerConfig) -> TestRig {
    let (rt, _genesis) = tiny_engine_runtime();
    let serve = ServeServer::spawn(rt, ServerConfig::default());
    let net = NetServer::bind("127.0.0.1:0", serve.handle(), 1, net_cfg).unwrap();
    TestRig { serve, net }
}

fn connect(net: &NetServer) -> TcpStream {
    connect_to(net.local_addr())
}

fn connect_to(addr: SocketAddr) -> TcpStream {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write_hello(&mut s).unwrap();
    assert_eq!(read_hello_reply(&mut s).unwrap(), HandshakeStatus::Ok);
    s
}

fn send(s: &mut TcpStream, request: Request) {
    let frame = RequestFrame {
        deadline_ms: 5_000,
        request,
    };
    send_request(s, &frame).unwrap();
}

fn roundtrip(s: &mut TcpStream, request: Request) -> Response {
    send(s, request);
    recv_response(s).unwrap()
}

fn submit(mods: Vec<Modification>) -> Request {
    Request::Submit {
        epoch: 0,
        table: 0,
        mods,
    }
}

fn fresh_read(s: &mut TcpStream) -> aivm_net::WireReadResult {
    let read = Request::Read {
        view: 0,
        fresh: true,
        want_rows: false,
    };
    match roundtrip(s, read) {
        Response::ReadOk(r) if !r.violated => r,
        other => panic!("fresh read: {other:?}"),
    }
}

#[test]
fn connection_cap_rejects_with_typed_handshake() {
    let rig = spawn_rig(NetServerConfig {
        max_connections: 1,
        ..NetServerConfig::default()
    });
    let _first = connect(&rig.net);
    // Give the accept loop time to register the first connection.
    std::thread::sleep(Duration::from_millis(50));
    let mut second = TcpStream::connect(rig.net.local_addr()).unwrap();
    second
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write_hello(&mut second).unwrap();
    assert_eq!(
        read_hello_reply(&mut second).unwrap(),
        HandshakeStatus::Overloaded
    );
    drop(second);
    drop(_first);
    rig.net.shutdown();
    rig.serve.shutdown();
}

/// A thousand connections open at once, driven from four threads with
/// every driver's requests in flight together: the event loop
/// multiplexes them over its fixed worker pool. Every connection
/// submits and reads, none is turned away, and the final view equals
/// direct evaluation of every insert.
#[test]
fn a_thousand_open_connections_each_submit_and_read() {
    const DRIVERS: usize = 4;
    const PER_DRIVER: usize = 250;
    let (rt, mut direct) = tiny_engine_runtime();
    let serve = ServeServer::spawn(rt, ServerConfig::default());
    let net =
        NetServer::bind("127.0.0.1:0", serve.handle(), 1, NetServerConfig::default()).unwrap();
    let addr = net.local_addr();
    // Two inserts per connection, distinct ids everywhere.
    let inserts = |conn: usize| -> Vec<Modification> {
        (0..2)
            .map(|k| Modification::Insert(row![(2 * conn + k) as i64]))
            .collect()
    };
    // Phases: all connected; all submitted and read; metrics checked.
    let phase = Arc::new(Barrier::new(DRIVERS + 1));
    let drivers: Vec<_> = (0..DRIVERS)
        .map(|d| {
            let phase = Arc::clone(&phase);
            std::thread::spawn(move || {
                let ids = d * PER_DRIVER..(d + 1) * PER_DRIVER;
                let mut conns: Vec<TcpStream> = ids.clone().map(|_| connect_to(addr)).collect();
                phase.wait();
                for (conn, s) in ids.clone().zip(&mut conns) {
                    send(s, submit(inserts(conn)));
                }
                for s in &mut conns {
                    let got = recv_response(s).unwrap();
                    assert_eq!(got, Response::SubmitOk { accepted: 2 });
                }
                for (conn, s) in ids.zip(&mut conns) {
                    let fresh = conn % 50 == 0;
                    send(
                        s,
                        Request::Read {
                            view: 0,
                            fresh,
                            want_rows: false,
                        },
                    );
                }
                for s in &mut conns {
                    match recv_response(s).unwrap() {
                        Response::ReadOk(r) => assert!(!r.violated),
                        other => panic!("read: {other:?}"),
                    }
                }
                phase.wait();
                // Held open until the metrics below have seen them.
                phase.wait();
            })
        })
        .collect();
    phase.wait();
    phase.wait();
    let mut ctl = connect(&net);
    let m = match roundtrip(
        &mut ctl,
        Request::Metrics {
            per_shard: false,
            per_view: false,
        },
    ) {
        Response::MetricsOk(m) => m,
        other => panic!("metrics: {other:?}"),
    };
    let conns = (DRIVERS * PER_DRIVER) as u64;
    assert_eq!(m.connections_active, conns + 1);
    assert_eq!(m.connections_rejected, 0);
    assert_eq!(m.submitted_events, 2 * conns);
    assert_eq!((m.overload_rejections, m.deadline_rejections), (0, 0));
    let t = direct.table_id("t").unwrap();
    for conn in 0..DRIVERS * PER_DRIVER {
        for m in inserts(conn) {
            direct.apply(t, &m).unwrap();
        }
    }
    let expected = MaterializedView::new(&direct, tiny_view_def(), MinStrategy::Multiset).unwrap();
    assert_eq!(fresh_read(&mut ctl).checksum, expected.result_checksum());
    phase.wait();
    for d in drivers {
        d.join().unwrap();
    }
    drop(ctl);
    net.shutdown();
    serve.shutdown();
}

/// A replayed `Update` names an old row its key no longer maps to. The
/// scheduler rejects it before touching anything and keeps serving;
/// applied, it would hand the MIN view a delete of a value it no longer
/// holds, and the next flush would fail and take the scheduler down.
#[test]
fn a_stale_update_is_rejected_and_the_scheduler_keeps_serving() {
    let mut db = Database::new();
    let t = db
        .create_table(
            "t",
            Schema::new(vec![("id", DataType::Int), ("x", DataType::Int)]),
        )
        .unwrap();
    db.set_key_column(t, 0);
    let def = ViewDef {
        aggregate: Some(AggSpec {
            group_by: vec![],
            aggs: vec![(AggFunc::Min, Expr::col(1), "m".into())],
        }),
        ..tiny_view_def()
    };
    let view = MaterializedView::new(&db, def.clone(), MinStrategy::Multiset).unwrap();
    let cfg = ServeConfig::new(vec![CostModel::linear(0.5, 0.1)], 50.0);
    let rt =
        MaintenanceRuntime::engine(cfg, Box::new(NaiveFlush::new()), db.clone(), view).unwrap();
    let serve = ServeServer::spawn(rt, ServerConfig::default());
    // Durable acks: a submit's reply reports whether it was applied.
    let net_cfg = NetServerConfig {
        durable_acks: true,
        ..NetServerConfig::default()
    };
    let net = NetServer::bind("127.0.0.1:0", serve.handle(), 1, net_cfg).unwrap();
    let mut s = connect(&net);
    let update = Modification::Update {
        old: row![1i64, 10i64],
        new: row![1i64, 5i64],
    };
    let valid = vec![
        Modification::Insert(row![1i64, 10i64]),
        Modification::Insert(row![2i64, 20i64]),
        update.clone(),
    ];
    let got = roundtrip(&mut s, submit(valid.clone()));
    assert_eq!(got, Response::SubmitOk { accepted: 3 });
    fresh_read(&mut s);
    match roundtrip(&mut s, submit(vec![update])) {
        Response::Error { message, .. } => {
            assert!(message.contains("stale modification"), "{message}")
        }
        other => panic!("a replayed update was accepted: {other:?}"),
    }
    for m in &valid {
        db.apply(t, m).unwrap();
    }
    let direct = MaterializedView::new(&db, def, MinStrategy::Multiset).unwrap();
    assert_eq!(fresh_read(&mut s).checksum, direct.result_checksum());
    match roundtrip(
        &mut s,
        Request::Metrics {
            per_shard: false,
            per_view: false,
        },
    ) {
        Response::MetricsOk(m) => {
            assert_eq!((m.ingest_errors, m.constraint_violations), (1, 0));
            assert_eq!(m.events_ingested, 3);
        }
        other => panic!("metrics: {other:?}"),
    }
    drop(s);
    net.shutdown();
    serve.shutdown();
}

#[test]
fn corrupt_frame_gets_typed_error_then_close() {
    let rig = spawn_rig(NetServerConfig::default());
    let mut s = connect(&rig.net);
    // A frame whose payload passes the checksum but decodes to garbage.
    let garbage = vec![0xFFu8; 16];
    aivm_net::write_frame(&mut s, &garbage).unwrap();
    s.flush().unwrap();
    match recv_response(&mut s).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    // The server closed the connection (a byte stream past garbage
    // cannot be trusted): the next read observes EOF.
    assert!(matches!(
        recv_response(&mut s),
        Err(aivm_net::FrameError::Closed) | Err(aivm_net::FrameError::Io(_))
    ));
    rig.net.shutdown();
    rig.serve.shutdown();
}

#[test]
fn shutdown_drains_open_connections() {
    let rig = spawn_rig(NetServerConfig::default());
    let mut s = connect(&rig.net);
    assert_eq!(roundtrip(&mut s, Request::Ping), Response::Pong);
    // Shut the net server down while the connection is still open; the
    // drain must complete without hanging (the connection thread sees
    // the stop flag at its next request boundary).
    rig.net.shutdown();
    rig.serve.shutdown();
}

#[test]
fn diverged_replica_goes_unhealthy_instead_of_polling_forever() {
    use aivm_net::{Replica, ReplicaConfig};
    use aivm_serve::{MemWal, WalTail, WalWriter};
    use aivm_shard::{Partitioner, ReplicaStatus, ShardRouter};
    use std::time::Instant;

    // One-shard rig whose leader WAL is tailed by the router.
    let (mut rt, _genesis) = tiny_engine_runtime();
    let mem = MemWal::new();
    rt.attach_wal(WalWriter::create(Box::new(mem.clone()), 1).unwrap());
    let serve = ServeServer::spawn(rt, ServerConfig::default());
    let part = Partitioner::single(1);
    let router = ShardRouter::new(vec![serve.handle()], part, &tiny_view_def(), 50.0).unwrap();
    router.attach_wal_tail(0, WalTail::new(Box::new(mem.clone())));
    let net =
        NetServer::bind_sharded("127.0.0.1:0", router.clone(), NetServerConfig::default()).unwrap();
    assert!(serve
        .handle()
        .ingest_dml(0, Modification::Insert(row![1i64])));

    // Control: a fresh standby catches up and turns healthy, proving
    // the tail-stream path itself works in this rig.
    let (standby, _) = tiny_engine_runtime();
    let status = ReplicaStatus::new();
    let rep = Replica::spawn(
        net.local_addr(),
        0,
        standby,
        status.clone(),
        ReplicaConfig::default(),
    )
    .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !(status.healthy() && status.applied() >= 1) {
        assert!(Instant::now() < deadline, "control replica never caught up");
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(rep);

    // Divergence: a follower whose applied cursor lies beyond the
    // leader's entire log (the log was truncated/rebuilt under it — the
    // tail clamps from_record to its end, so only the record count
    // betrays it) must flag itself unhealthy and stop, not sleep-poll
    // forever reporting healthy while applying nothing.
    let (standby, _) = tiny_engine_runtime();
    let status = ReplicaStatus::new();
    status.set_applied(1_000);
    status.set_healthy(true);
    let rep = Replica::spawn(
        net.local_addr(),
        0,
        standby,
        status.clone(),
        ReplicaConfig::default(),
    )
    .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while status.healthy() {
        assert!(
            Instant::now() < deadline,
            "diverged replica kept reporting healthy"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // And it must not fabricate progress past the leader's log.
    assert_eq!(status.applied(), 1_000);
    drop(rep);
    net.shutdown();
    // The router's slot still holds a scheduler handle; release it so
    // the scheduler sees disconnect and `shutdown`'s join returns.
    drop(router);
    serve.shutdown();
}
