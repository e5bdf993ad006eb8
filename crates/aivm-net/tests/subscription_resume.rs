//! Push-subscription resume properties over real sockets: a subscriber
//! killed and reconnected at *any* seq folds every flushed batch
//! exactly once in seq order (no gap, no duplicate) and its folded
//! state checksum-matches a direct fresh read; a subscriber that fell
//! off the delta ring — or never drained at all — is resynced from the
//! snapshot instead of stalling the flush path; and many subscribers
//! across many views, folding while writers run, all land on direct
//! evaluation.

use aivm_core::CostModel;
use aivm_engine::{
    row, rows_checksum, AggFunc, AggSpec, DataType, Database, Expr, JoinPred, MaterializedView,
    MinStrategy, Modification, Schema, ViewDef, ViewRegistry, WRow,
};
use aivm_net::{
    read_hello_reply, recv_response, send_request, write_hello, HandshakeStatus, NetServer,
    NetServerConfig, Request, RequestFrame, Response,
};
use aivm_serve::{
    fold_delta, DeltaBatch, MultiConfig, NaiveFlush, RegistryRuntime, RegistryServer, ServerConfig,
};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

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

/// View `i`: the join itself, a per-key SUM or a global MIN over it —
/// one shared SPJ core.
fn variant(i: usize) -> ViewDef {
    let agg = |func, group_by, col, out: &str| AggSpec {
        group_by,
        aggs: vec![(func, Expr::col(col), out.into())],
    };
    let aggregate = match i % 3 {
        0 => None,
        1 => Some(agg(AggFunc::Sum, vec![0], 3, "s")),
        _ => Some(agg(AggFunc::Min, vec![], 1, "m")),
    };
    ViewDef {
        aggregate,
        ..join_def(&format!("v{i}"))
    }
}

fn rig() -> (RegistryServer, NetServer) {
    rig_of(2)
}

fn rig_of(views: usize) -> (RegistryServer, NetServer) {
    let mut reg = ViewRegistry::new(base());
    for i in 0..views {
        reg.register_view(variant(i), MinStrategy::Multiset)
            .unwrap();
    }
    let rt = RegistryRuntime::new(
        MultiConfig::new(
            vec![CostModel::linear(0.5, 0.1), CostModel::linear(0.7, 0.2)],
            1e6,
        ),
        Box::new(NaiveFlush::new()),
        reg,
    )
    .unwrap();
    let server = RegistryServer::spawn(rt, ServerConfig::default());
    let net = NetServer::bind_registry("127.0.0.1:0", server.handle(), NetServerConfig::default())
        .unwrap();
    (server, net)
}

fn connect(net: &NetServer) -> TcpStream {
    connect_to(net.local_addr())
}

fn connect_to(addr: SocketAddr) -> TcpStream {
    let mut s = TcpStream::connect(addr).unwrap();
    // Frames go out as header + payload writes; without this, Nagle
    // holds each payload for the peer's delayed ACK.
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write_hello(&mut s).unwrap();
    assert_eq!(read_hello_reply(&mut s).unwrap(), HandshakeStatus::Ok);
    s
}

fn roundtrip(s: &mut TcpStream, request: Request) -> Response {
    send_request(
        s,
        &RequestFrame {
            deadline_ms: 10_000,
            request,
        },
    )
    .unwrap();
    recv_response(s).unwrap()
}

/// One subscriber-side fold state machine over a raw socket.
struct Sub {
    stream: TcpStream,
    view: u32,
    state: Vec<WRow>,
    /// Seq of the last snapshot or folded delta.
    last_seq: u64,
    deltas: u64,
    resyncs: u64,
}

impl Sub {
    /// Opens a subscription and applies the `SubscribeOk` reply: a
    /// resync replaces the folded state, a resume-ack confirms the
    /// requested position without rows.
    fn open(net: &NetServer, view: u32, from_seq: u64, prev: Option<Sub>) -> Sub {
        let mut stream = connect(net);
        let reply = roundtrip(&mut stream, Request::Subscribe { view, from_seq });
        let (mut state, mut last_seq, mut resyncs, deltas) = match prev {
            Some(p) => (p.state, p.last_seq, p.resyncs, p.deltas),
            None => (Vec::new(), 0, 0, 0),
        };
        match reply {
            Response::SubscribeOk {
                view: v,
                seq,
                resync,
                checksum,
                rows,
            } => {
                assert_eq!(v, view);
                if resync {
                    assert_eq!(
                        rows_checksum(&rows),
                        checksum,
                        "resync snapshot fails its own checksum"
                    );
                    state = rows;
                    last_seq = seq;
                    resyncs += 1;
                } else {
                    assert_eq!(seq, from_seq.saturating_sub(1), "resume-ack seq");
                    assert!(rows.is_empty(), "resume-ack carries no rows");
                }
            }
            other => panic!("subscribe: {other:?}"),
        }
        Sub {
            stream,
            view,
            state,
            last_seq,
            deltas,
            resyncs,
        }
    }

    /// Receives one pushed frame and folds it.
    fn recv_fold(&mut self) {
        let frame = recv_response(&mut self.stream).expect("push frame");
        self.fold(frame);
    }

    /// Folds the next pushed frame if one arrives within the socket's
    /// read timeout.
    fn poll_fold(&mut self) {
        match recv_response(&mut self.stream) {
            Ok(frame) => self.fold(frame),
            Err(e) if e.is_timeout() => {}
            Err(e) => panic!("push frame: {e}"),
        }
    }

    /// Folds one pushed frame. Deltas must arrive in strictly
    /// consecutive seq order; a pushed resync may jump ahead.
    fn fold(&mut self, frame: Response) {
        match frame {
            Response::ViewDelta {
                view,
                seq,
                checksum,
                staleness,
                rows,
            } => {
                assert_eq!(view, self.view);
                assert_eq!(
                    seq,
                    self.last_seq + 1,
                    "delta seq gap or duplicate (last {})",
                    self.last_seq
                );
                let state = std::mem::take(&mut self.state);
                self.state = fold_delta(
                    state,
                    &DeltaBatch {
                        view,
                        seq,
                        rows,
                        checksum,
                        staleness,
                    },
                );
                assert_eq!(
                    rows_checksum(&self.state),
                    checksum,
                    "post-fold state diverged at seq {seq}"
                );
                self.last_seq = seq;
                self.deltas += 1;
            }
            Response::SubscribeOk {
                view,
                seq,
                resync,
                checksum,
                rows,
            } => {
                assert_eq!(view, self.view);
                assert!(resync, "unsolicited non-resync SubscribeOk");
                assert!(seq > self.last_seq, "resync must move forward");
                assert_eq!(rows_checksum(&rows), checksum);
                self.state = rows;
                self.last_seq = seq;
                self.resyncs += 1;
            }
            other => panic!("push: {other:?}"),
        }
    }

    /// Folds pushed frames until the local state checksum-matches
    /// `target` (the direct fresh read's checksum).
    fn drain_to(&mut self, target: u64) {
        while rows_checksum(&self.state) != target {
            self.recv_fold();
        }
    }
}

fn submit_round(ctl: &mut TcpStream, i: i64) {
    for (table, m) in [
        (0u32, Modification::Insert(row![i % 5, (i as f64) * 0.25])),
        (1, Modification::Insert(row![i % 5, i])),
    ] {
        match roundtrip(
            ctl,
            Request::Submit {
                epoch: 0,
                table,
                mods: vec![m],
            },
        ) {
            Response::SubmitOk { accepted } => assert_eq!(accepted, 1),
            other => panic!("submit: {other:?}"),
        }
    }
}

fn fresh_checksum(ctl: &mut TcpStream, view: u32) -> u64 {
    match roundtrip(
        ctl,
        Request::Read {
            view,
            fresh: true,
            want_rows: false,
        },
    ) {
        Response::ReadOk(r) => {
            assert!(!r.violated);
            r.checksum
        }
        other => panic!("read: {other:?}"),
    }
}

/// Kill/reconnect at every seq: the connection is dropped after *each*
/// folded delta and reopened from `last_seq + 1`, so every seq in the
/// run doubles as a resume point. The folded state must checksum-match
/// the direct read after every round, with zero snapshot resyncs (every
/// resume position is still on the ring).
#[test]
fn reconnect_at_every_seq_folds_each_batch_exactly_once() {
    let (server, net) = rig();
    let mut ctl = connect(&net);

    let mut sub = Sub::open(&net, 0, u64::MAX, None);
    assert_eq!(sub.resyncs, 1, "head subscribe starts from a snapshot");

    for i in 0..30 {
        submit_round(&mut ctl, i);
        let target = fresh_checksum(&mut ctl, 0);
        sub.drain_to(target);
        // Kill the connection at this seq and resume exactly after it.
        let from = sub.last_seq + 1;
        sub = Sub::open(&net, 0, from, Some(sub));
    }
    assert!(sub.deltas >= 30, "every flush boundary was pushed");
    assert_eq!(sub.resyncs, 1, "in-ring resumes never degrade to resync");

    net.shutdown();
    server.shutdown();
}

/// A resume position that has fallen off the bounded delta ring is
/// answered with a snapshot resync (not an error, not a stall), after
/// which the subscriber is immediately current.
#[test]
fn off_ring_resume_degrades_to_snapshot_resync() {
    let (server, net) = rig();
    let mut ctl = connect(&net);

    // Push well past the ring capacity so seq 1 is long evicted.
    let mut target = 0;
    for i in 0..80 {
        submit_round(&mut ctl, i);
        target = fresh_checksum(&mut ctl, 1);
    }
    let sub = Sub::open(&net, 1, 1, None);
    assert_eq!(sub.resyncs, 1, "off-ring resume must resync");
    assert_eq!(
        rows_checksum(&sub.state),
        target,
        "resync snapshot is not current"
    );

    net.shutdown();
    server.shutdown();
}

/// A subscriber that never drains its socket must not stall the
/// submit/flush path; after the run it reattaches via snapshot and is
/// current immediately.
#[test]
fn unread_subscriber_never_stalls_flushes() {
    let (server, net) = rig();
    let mut ctl = connect(&net);

    // Subscribed but never read from again.
    let stalled = Sub::open(&net, 0, u64::MAX, None);

    let mut target = 0;
    for i in 0..80 {
        submit_round(&mut ctl, i);
        target = fresh_checksum(&mut ctl, 0);
    }
    drop(stalled);

    let sub = Sub::open(&net, 0, u64::MAX, None);
    assert_eq!(
        rows_checksum(&sub.state),
        target,
        "fresh head subscribe after the stalled run is not current"
    );

    net.shutdown();
    server.shutdown();
}

/// Thirty-two views, two live subscribers on each, and one writer per
/// base table submitting inserts and deletes concurrently: every
/// subscriber folds the pushes as they come (each post-fold checksum
/// verified in `Sub::fold`), and once the writers stop, every folded
/// state equals its view's direct evaluation over the final tables.
#[test]
fn many_subscribers_fold_concurrent_writes_to_direct_evaluation() {
    const VIEWS: usize = 32;
    const SUBSCRIBERS: usize = 64;
    const ROUNDS: i64 = 150;
    let (server, net) = rig_of(VIEWS);
    let targets: Arc<OnceLock<Vec<u64>>> = Arc::new(OnceLock::new());
    let subscribers: Vec<_> = (0..SUBSCRIBERS)
        .map(|i| {
            let view = i % VIEWS;
            let mut sub = Sub::open(&net, view as u32, u64::MAX, None);
            let poll = Some(Duration::from_millis(20));
            sub.stream.set_read_timeout(poll).unwrap();
            let targets = Arc::clone(&targets);
            std::thread::spawn(move || {
                let deadline = Instant::now() + Duration::from_secs(60);
                while targets
                    .get()
                    .is_none_or(|t| rows_checksum(&sub.state) != t[view])
                {
                    assert!(Instant::now() < deadline, "subscriber {i} never converged");
                    sub.poll_fold();
                }
                sub.deltas
            })
        })
        .collect();

    // Table 1's writer deletes its own earlier rows, so each table's
    // stream must stay in order: one writer per table.
    let stream = |table: u32| -> Vec<Modification> {
        (0..ROUNDS)
            .flat_map(|i| match table {
                0 => vec![Modification::Insert(row![i % 5, (i as f64) * 0.25])],
                _ if i % 4 == 3 => vec![
                    Modification::Insert(row![i % 5, i]),
                    Modification::Delete(row![(i - 2) % 5, i - 2]),
                ],
                _ => vec![Modification::Insert(row![i % 5, i])],
            })
            .collect()
    };
    let addr = net.local_addr();
    let writers: Vec<_> = [0u32, 1]
        .into_iter()
        .map(|table| {
            let mods = stream(table);
            std::thread::spawn(move || {
                let mut s = connect_to(addr);
                for chunk in mods.chunks(3) {
                    let request = Request::Submit {
                        epoch: 0,
                        table,
                        mods: chunk.to_vec(),
                    };
                    let got = roundtrip(&mut s, request);
                    let want = Response::SubmitOk {
                        accepted: chunk.len() as u64,
                    };
                    assert_eq!(got, want);
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }

    let mut db = base();
    for (name, table) in [("r", 0u32), ("s", 1)] {
        let t = db.table_id(name).unwrap();
        for m in stream(table) {
            db.apply(t, &m).unwrap();
        }
    }
    let direct: Vec<u64> = (0..VIEWS)
        .map(|v| {
            let view = MaterializedView::new(&db, variant(v), MinStrategy::Multiset).unwrap();
            view.result_checksum()
        })
        .collect();
    // A fresh read per view flushes whatever is still pending, so the
    // last deltas are pushed, and must itself agree.
    let mut ctl = connect(&net);
    for (v, &want) in direct.iter().enumerate() {
        assert_eq!(fresh_checksum(&mut ctl, v as u32), want, "view {v}");
    }
    targets.set(direct).unwrap();
    for s in subscribers {
        assert!(s.join().unwrap() > 0, "a subscriber folded no delta");
    }

    net.shutdown();
    server.shutdown();
}
