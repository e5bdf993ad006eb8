//! Golden byte vectors recorded from an earlier build: each format must
//! encode one fixed value to exactly these bytes.

use aivm::engine::DataType::{Float, Int, Str};
use aivm::engine::{row, snapshot, Database, IndexKind, Modification, Schema, Value};
use aivm::serve::{Checkpoint, EngineCheckpoint, MemWal, WalRecord, WalWriter};
use aivm_net::frame::ViewMetricsRow;
use aivm_net::{decode_response, send_request, send_response, NetMetrics, Request, RequestFrame};
use aivm_net::{Response, ShardMetricsRow, WireReadResult, FRAME_HEADER_LEN};

const SUBMIT: &str = "630000006a2edcdfc6f796fcfa00000001030000000000000001000000030000000003000000\
    0107000000000000000200000000000004400302000000616202020000000107000000000000000002000000010800\
    0000000000000301000000780101000000010900000000000000";
const READ_OK: &str = "520000005f17b4f0df594ef00201040000000000000000000000000029400001efcdab8967\
    4523010102000000020000000101000000000000000301000000610200000000000000020000000102000000000000\
    0000ffffffffffffffff";
const WAL_DML: &str = "4157414c010027000000eaeaf3f8c3fec5ec00010000000202000000010700000000000000\
    0002000000010800000000000000030100000078";
const CHECKPOINT: &str = "41434b5001002a0000000000000011000000000000000200000003000000000000000000\
    0000000000000102000000aabb02000000030000000003000000010700000000000000020000000000000440030200\
    0000616202020000000107000000000000000002000000010800000000000000030100000078010100000001090000\
    0000000000000000003c25e80ab7e92b0b";
const SNAPSHOT: &str = "4149564d010001000000010000007403000000020000006964010100000077020100000073\
    0300000000010000000000000000020000000000000001010000000000000002000000000000e03f03030000006f6e\
    650102000000000000000000";

const METRICS_OK: &str = "d30100009e945820c352063f03e803000000000000fa0000000000000025000000000000\
    0000000000004a9340090000000000000000000000000000000b000000000000000000000000000000000000000000\
    00000000000000000000010000000000000000400000000000000000000000000000000000000000000000e9030000\
    00000000000000000000000000000000000000000000000000000000030000000000000000000000000000004d0000\
    0000000000000000000000000000000000000000000000000000000000020000000000000000000000000000000000\
    0000000000000000000000003440000000000000000000000000000000000000000000000000000000000000000008\
    0000000000000000000000000000000000000000000000010000000000000000000000000000000000000000000000\
    000000000000000000000000000000000104000000626f6f6d01010000000100000001280000000000000002000000\
    0000000006000000000000000000000000001e40000000000000244003000000000000000200000000000000010000\
    0000000000020101000000040000000100000006000000000000000300000000000000000000000000000005000000\
    0000000002000000000000000100000000000000";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn mods() -> Vec<Modification> {
    let (old, new) = (row![7i64, Value::Null], row![8i64, "x"]);
    let insert = Modification::Insert(row![7i64, 2.5f64, "ab"]);
    let delete = Modification::Delete(row![9i64]);
    vec![insert, Modification::Update { old, new }, delete]
}

#[test]
fn submit_and_read_ok_frames() {
    let (epoch, table, mods, deadline_ms) = (3, 1, mods(), 250);
    let request = Request::Submit { epoch, table, mods };
    let submit = RequestFrame {
        deadline_ms,
        request,
    };
    let mut wire = Vec::new();
    send_request(&mut wire, &submit).unwrap();
    assert_eq!(hex(&wire), SUBMIT);

    let rows = Some(vec![(row![1i64, "a"], 2), (row![2i64, Value::Null], -1)]);
    let read_ok = Response::ReadOk(WireReadResult {
        fresh: true,
        lag: 4,
        flush_cost: 12.5,
        violated: false,
        degraded: true,
        checksum: 0x0123_4567_89ab_cdef,
        rows,
    });
    let mut wire = Vec::new();
    send_response(&mut wire, &read_ok).unwrap();
    assert_eq!(hex(&wire), READ_OK);
}

#[test]
fn wal_dml_record_checkpoint_and_snapshot() {
    let (table, m) = (1, mods().swap_remove(1));
    let rec = WalRecord::Dml { table, m };
    let mem = MemWal::new();
    let mut wal = WalWriter::create(Box::new(mem.clone()), 1).unwrap();
    wal.append(&rec).unwrap();
    assert_eq!(hex(&mem.bytes()), WAL_DML);

    let (db, pending_mods) = (vec![0xaa, 0xbb], vec![mods(), vec![]]);
    let engine = Some(EngineCheckpoint { db, pending_mods });
    let (wal_records, t, pending) = (42, 17, vec![3, 0]);
    let ck = Checkpoint {
        wal_records,
        t,
        pending,
        engine,
    };
    assert_eq!(hex(&ck.encode()), CHECKPOINT);

    let mut db = Database::new();
    let cols = vec![("id", Int), ("w", Float), ("s", Str)];
    let t = db.create_table("t", Schema::new(cols)).unwrap();
    db.set_key_column(t, 0);
    let table = db.table_mut(t);
    table.create_index(IndexKind::Hash, 0).unwrap();
    table.insert(row![1i64, 0.5f64, "one"]).unwrap();
    table.insert(row![2i64, Value::Null, Value::Null]).unwrap();
    assert_eq!(hex(&snapshot(&db)), SNAPSHOT);
}

#[test]
fn metrics_ok_frame() {
    let shard = ShardMetricsRow {
        shard: 1,
        live: true,
        events_ingested: 40,
        queue_depth: 2,
        flush_count: 6,
        total_flush_cost: 7.5,
        budget: 10.0,
        staleness: 3,
        epoch: 2,
        replica_lag: 1,
        health: 2,
    };
    let view = ViewMetricsRow {
        view: 4,
        group: 1,
        flushes: 6,
        pending: 3,
        violations: 0,
        deltas_pushed: 5,
        subscribers: 2,
        sub_lag_max: 1,
    };
    let metrics = NetMetrics {
        events_ingested: 1000,
        ticks: 250,
        flush_count: 37,
        total_flush_cost: 1234.5,
        fresh_reads: 9,
        snapshot_reads: 11,
        degraded: true,
        max_queue_depth: 64,
        wal_records: 1001,
        connections_total: 3,
        requests: 77,
        shards: 2,
        budget: 20.0,
        views: 8,
        sub_lag_max: 1,
        last_error: Some("boom".into()),
        per_shard: Some(vec![shard]),
        per_view: Some(vec![view]),
        ..NetMetrics::default()
    };
    let metrics_ok = Response::MetricsOk(Box::new(metrics));
    let mut wire = Vec::new();
    send_response(&mut wire, &metrics_ok).unwrap();
    assert_eq!(hex(&wire), METRICS_OK);
    let decoded = decode_response(&wire[FRAME_HEADER_LEN..]).unwrap();
    assert_eq!(decoded, metrics_ok);
}
