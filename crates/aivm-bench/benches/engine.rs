//! Engine operator microbenches: the scan-vs-probe join asymmetry that
//! generates the paper's cost shapes, plus supporting kernels.

use aivm_bench::harness::Suite;
use aivm_engine::exec::{consolidate, join_index, join_scan, ExecStats, JoinShape};
use aivm_engine::{row, DataType, IndexKind, Schema, Table, WRow};
use std::hint::black_box;

/// An indexed table with `rows` rows over `keys` distinct join keys.
fn table_with(rows: i64, keys: i64, indexed: bool) -> Table {
    let mut t = Table::new(
        "t",
        Schema::new(vec![("k", DataType::Int), ("v", DataType::Int)]),
    );
    if indexed {
        t.create_index(IndexKind::Hash, 0).unwrap();
    }
    for i in 0..rows {
        t.insert(row![i % keys, i]).unwrap();
    }
    t
}

fn delta(size: i64, keys: i64) -> Vec<WRow> {
    (0..size).map(|i| (row![i % keys, -i], 1i64)).collect()
}

fn bench_join_asymmetry(s: &mut Suite) {
    let indexed = table_with(50_000, 5_000, true);
    let unindexed = table_with(50_000, 5_000, false);
    // Key-to-key join emitting the full `delta ++ table` row.
    let shape = JoinShape {
        emit: (0..4).collect(),
        ..JoinShape::default()
    };
    for delta_size in [8i64, 64, 512] {
        let d = delta(delta_size, 5_000);
        s.bench(&format!("join/index_probe/{delta_size}"), || {
            let mut stats = ExecStats::default();
            black_box(join_index(&d, &shape, &indexed, &[], None, &mut stats).len())
        });
        s.bench(&format!("join/scan/{delta_size}"), || {
            let mut stats = ExecStats::default();
            black_box(join_scan(&d, &shape, &unindexed, &[], None, &mut stats).len())
        });
    }
}

fn bench_consolidate(s: &mut Suite) {
    for size in [1_000i64, 10_000] {
        let rows: Vec<WRow> = (0..size)
            .map(|i| (row![i % 100, i % 7], if i % 2 == 0 { 1 } else { -1 }))
            .collect();
        s.bench(&format!("consolidate/{size}"), || {
            black_box(consolidate(rows.clone()).len())
        });
    }
}

fn bench_sql_parse(s: &mut Suite) {
    let data = aivm_tpcr::generate(&aivm_tpcr::TpcrConfig::small(), 1);
    s.bench("sql_parse_paper_view", || {
        black_box(aivm_engine::parse_view(&data.db, "v", aivm_tpcr::paper_view_sql()).unwrap())
    });
}

fn bench_table_mutations(s: &mut Suite) {
    s.bench("indexed_insert_delete_1k", || {
        let mut t = table_with(0, 1, true);
        for i in 0..1_000i64 {
            t.insert(row![i % 50, i]).unwrap();
        }
        for id in 0..1_000usize {
            t.delete(id).unwrap();
        }
        black_box(t.len())
    });
}

fn main() {
    let mut s = Suite::new("engine");
    bench_join_asymmetry(&mut s);
    bench_consolidate(&mut s);
    bench_sql_parse(&mut s);
    bench_table_mutations(&mut s);
}
