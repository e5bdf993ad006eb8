//! Maintenance-flush benches on the paper's TPC-R view: per-table batch
//! costs (the Fig. 1 / Fig. 4 asymmetry as a benchmark) and the MIN
//! strategy ablation.

use aivm_bench::harness::Suite;
use aivm_engine::{Database, MaterializedView, MinStrategy};
use aivm_tpcr::{generate, install_paper_view, TpcrConfig, UpdateGen};
use std::hint::black_box;

struct Prepared {
    db: Database,
    view: MaterializedView,
    counts: Vec<u64>,
}

/// Builds a database + view with `k` pending modifications of one table.
fn prepared(scale: &TpcrConfig, strategy: MinStrategy, table: &str, k: u64) -> Prepared {
    let mut data = generate(scale, 42);
    let mut view = install_paper_view(&mut data.db, strategy).unwrap();
    let mut gen = UpdateGen::new(&data, 43);
    let pos = view.table_position(table).unwrap();
    let db_table = match table {
        "partsupp" => data.partsupp,
        "supplier" => data.supplier,
        other => panic!("unexpected table {other}"),
    };
    for _ in 0..k {
        let m = match table {
            "partsupp" => gen.partsupp_update(&data.db),
            _ => gen.supplier_update(&data.db),
        };
        data.db.apply(db_table, &m).unwrap();
        view.enqueue(pos, m);
    }
    let mut counts = vec![0u64; view.n()];
    counts[pos] = k;
    Prepared {
        db: data.db,
        view,
        counts,
    }
}

fn bench_flush_batches(s: &mut Suite) {
    let scale = TpcrConfig::small();
    for table in ["partsupp", "supplier"] {
        for k in [16u64, 64, 256] {
            let p = prepared(&scale, MinStrategy::Multiset, table, k);
            s.bench_with_setup(
                &format!("flush/{table}/{k}"),
                || p.view.clone(),
                |mut view| {
                    view.flush(&p.db, &p.counts).unwrap();
                    black_box(view.stats.mods_processed)
                },
            );
        }
    }
}

fn bench_min_strategies(s: &mut Suite) {
    let scale = TpcrConfig::small();
    for (label, strategy) in [
        ("multiset", MinStrategy::Multiset),
        ("recompute", MinStrategy::Recompute),
    ] {
        let p = prepared(&scale, strategy, "partsupp", 128);
        s.bench_with_setup(
            &format!("min_strategy/{label}"),
            || p.view.clone(),
            |mut view| {
                view.flush(&p.db, &p.counts).unwrap();
                black_box(view.stats.recomputes)
            },
        );
    }
}

fn bench_view_initialization(s: &mut Suite) {
    let mut data = generate(&TpcrConfig::small(), 42);
    s.bench("view_init_small", || {
        black_box(
            install_paper_view(&mut data.db, MinStrategy::Multiset)
                .unwrap()
                .n(),
        )
    });
}

fn main() {
    let mut s = Suite::new("maintenance");
    bench_flush_batches(&mut s);
    bench_min_strategies(&mut s);
    bench_view_initialization(&mut s);
}
