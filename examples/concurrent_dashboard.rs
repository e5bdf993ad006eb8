//! A concurrent dashboard over a maintained view.
//!
//! Demonstrates three production-facing facilities of the engine beyond
//! the paper's core algorithms:
//!
//! * [`aivm::engine::snapshot`] / [`restore`] — binary checkpoints of a
//!   generated database (skip regeneration across runs);
//! * [`ViewSnapshot`] reads — the writer owns the database and the view
//!   and publishes each flush boundary's immutable snapshot; reader
//!   threads serve dashboard panels from the latest one without ever
//!   blocking maintenance or seeing a torn state (the read path the
//!   serving runtime's stale reads use);
//! * SQL `ORDER BY` / `LIMIT` for the dashboard's top-k query, evaluated
//!   at the same flush boundary and published alongside.
//!
//! ```text
//! cargo run --release --example concurrent_dashboard
//! ```

use aivm::engine::{
    parse_query, restore, rows_checksum, snapshot, Database, MaterializedView, MinStrategy,
    ViewSnapshot, WRow,
};
use aivm::tpcr::{generate, TpcrConfig, UpdateGen, UpdateKind};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::thread;

/// What the dashboard shows: the view as of one flush boundary, and
/// the top-3 query over the database at that same boundary.
struct Board {
    view: Arc<ViewSnapshot>,
    top: Vec<WRow>,
}

/// Top-3 cheapest PartSupp offers, via SQL.
fn top3(db: &Database) -> Vec<WRow> {
    parse_query(
        db,
        "SELECT pskey, supplycost FROM partsupp ORDER BY supplycost ASC LIMIT 3",
    )
    .and_then(|p| p.execute(db))
    .expect("dashboard query runs")
}

fn main() {
    // --- checkpoint / restore -------------------------------------------
    let data = generate(&TpcrConfig::small(), 2024);
    let bytes = snapshot(&data.db);
    println!(
        "snapshot: {} tables, {} KiB",
        data.db.table_count(),
        bytes.len() / 1024
    );
    let mut db = restore(&bytes).expect("snapshot restores");
    assert_eq!(
        db.table_by_name("partsupp").unwrap().len(),
        data.db.table_by_name("partsupp").unwrap().len()
    );

    // --- a maintained view publishing flush-boundary snapshots ----------
    let def = aivm::engine::parse_view(&db, "min_cost", aivm::tpcr::paper_view_sql())
        .expect("view parses");
    let mut view =
        MaterializedView::new(&db, def, MinStrategy::Multiset).expect("view initializes");
    view.set_snapshot_publishing(true);
    let partsupp = view.table_position("partsupp").unwrap();
    let supplier = view.table_position("supplier").unwrap();
    // Readers and the writer exchange an `Arc`, never data: the lock is
    // held only for the pointer swap.
    let board = Arc::new(RwLock::new(Arc::new(Board {
        view: view.snapshot(),
        top: top3(&db),
    })));
    let stop = Arc::new(AtomicBool::new(false));

    // Readers: dashboard panels polling the latest published board.
    let readers: Vec<_> = (0..3)
        .map(|panel| {
            let board = board.clone();
            let stop = stop.clone();
            thread::spawn(move || {
                let (mut reads, mut seen_seq) = (0u64, 0u64);
                while !stop.load(Ordering::Relaxed) {
                    let b = Arc::clone(&board.read().unwrap());
                    // A snapshot is a whole flush boundary: its rows
                    // match its checksum, and boundaries only advance.
                    assert_eq!(rows_checksum(&b.view.rows), b.view.checksum);
                    assert!(b.view.seq >= seen_seq, "snapshot went back in time");
                    seen_seq = b.view.seq;
                    if panel == 0 {
                        assert_eq!(b.top.len(), 3);
                    }
                    reads += 1;
                }
                reads
            })
        })
        .collect();

    // Writer: the paper's update stream with periodic maintenance.
    let mut gen = UpdateGen::new(&data, 7);
    let publish = |db: &Database, view: &MaterializedView| {
        let next = Arc::new(Board {
            view: view.snapshot(),
            top: top3(db),
        });
        *board.write().unwrap() = next;
    };
    for step in 0..600usize {
        let (kind, m) = gen.random_update(&db);
        let table = match kind {
            UpdateKind::PartSuppCost => partsupp,
            UpdateKind::SupplierNation => supplier,
        };
        view.apply_and_enqueue(&mut db, table, m)
            .expect("update applies");
        if step % 50 == 49 {
            view.refresh(&db).expect("refresh succeeds");
            publish(&db, &view);
        }
    }
    view.refresh(&db).expect("final refresh");
    publish(&db, &view);
    stop.store(true, Ordering::Relaxed);

    let total_reads: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    println!(
        "dashboard served {total_reads} reads concurrently; final MIN = {}",
        view.scalar().unwrap()
    );

    // Consistency: the view equals a from-scratch evaluation, and the
    // last published snapshot is that final state.
    let direct = parse_query(&db, aivm::tpcr::paper_view_sql())
        .unwrap()
        .execute(&db)
        .unwrap();
    assert_eq!(view.result(), direct);
    let last = Arc::clone(&board.read().unwrap());
    assert_eq!(last.view.checksum, rows_checksum(&direct));
    assert_eq!(last.view.seq, view.stats.flushes);
    println!("consistency check: OK");
}
