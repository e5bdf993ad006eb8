//! Randomized tests of the engine's foundations: Z-set algebra laws,
//! SQL parser robustness (never panics, errors are typed), and snapshot
//! codec roundtrips.
//!
//! Formerly proptest-based; the offline build uses seeded `StdRng`
//! loops with the same case counts, which keeps every run reproducible.

use aivm::engine::exec::{consolidate, hash_join, negate, WRow};
use aivm::engine::{
    parse_query, restore, snapshot, DataType, Database, IndexKind, Row, Schema, Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 64;

// ------------------------------------------------------------ generators

fn any_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..3u32) {
        0 => Value::Int(rng.gen_range(-50i64..50)),
        1 => Value::Float(rng.gen_range(-5.0f64..5.0)),
        _ => {
            let len = rng.gen_range(0..=3usize);
            let s: String = (0..len)
                .map(|_| char::from(b'a' + rng.gen_range(0..3u8)))
                .collect();
            Value::str(&s)
        }
    }
}

fn any_row(rng: &mut StdRng, arity: usize) -> Row {
    Row::new((0..arity).map(|_| any_value(rng)).collect())
}

fn any_bag(rng: &mut StdRng, arity: usize) -> Vec<WRow> {
    let len = rng.gen_range(0..20usize);
    (0..len)
        .map(|_| (any_row(rng, arity), rng.gen_range(-3i64..=3)))
        .collect()
}

fn bag_eq(a: Vec<WRow>, b: Vec<WRow>) -> bool {
    let mut a = consolidate(a);
    let mut b = consolidate(b);
    a.sort();
    b.sort();
    a == b
}

fn union(a: &[WRow], b: &[WRow]) -> Vec<WRow> {
    a.iter().cloned().chain(b.iter().cloned()).collect()
}

// ------------------------------------------------------------ properties

/// Consolidation is idempotent and weight-preserving per row.
#[test]
fn consolidate_is_idempotent() {
    let mut rng = StdRng::seed_from_u64(0xA1);
    for _ in 0..CASES {
        let bag = any_bag(&mut rng, 2);
        let once = consolidate(bag.clone());
        let twice = consolidate(once.clone());
        assert!(bag_eq(once.clone(), twice));
        // No zero weights survive.
        assert!(once.iter().all(|&(_, w)| w != 0));
    }
}

/// `bag + (−bag) = ∅` — the compensation identity the IVM layer relies
/// on.
#[test]
fn negation_cancels() {
    let mut rng = StdRng::seed_from_u64(0xA2);
    for _ in 0..CASES {
        let bag = any_bag(&mut rng, 2);
        let neg = negate(bag.clone());
        assert!(bag_eq(union(&bag, &neg), Vec::new()));
    }
}

/// Join is bilinear: `(a ∪ b) ⋈ c = (a ⋈ c) ∪ (b ⋈ c)` — the law that
/// makes per-batch delta propagation equal one-shot propagation.
#[test]
fn join_distributes_over_union() {
    let mut rng = StdRng::seed_from_u64(0xA3);
    for _ in 0..CASES {
        let a = any_bag(&mut rng, 2);
        let b = any_bag(&mut rng, 2);
        let c = any_bag(&mut rng, 2);
        let on = [(0usize, 0usize)];
        let lhs = hash_join(&union(&a, &b), &c, &on);
        let rhs = union(&hash_join(&a, &c, &on), &hash_join(&b, &c, &on));
        assert!(bag_eq(lhs, rhs));
    }
}

/// Join weights multiply: joining scaled inputs scales the output.
#[test]
fn join_multiplies_weights() {
    let mut rng = StdRng::seed_from_u64(0xA4);
    for _ in 0..CASES {
        let a = any_bag(&mut rng, 1);
        let c = any_bag(&mut rng, 1);
        let on = [(0usize, 0usize)];
        let doubled: Vec<WRow> = a.iter().map(|(r, w)| (r.clone(), w * 2)).collect();
        let lhs = hash_join(&doubled, &c, &on);
        let base = hash_join(&a, &c, &on);
        let rhs: Vec<WRow> = base.iter().map(|(r, w)| (r.clone(), w * 2)).collect();
        assert!(bag_eq(lhs, rhs));
    }
}

/// The SQL frontend never panics on arbitrary input — it returns a
/// typed error or a plan.
#[test]
fn sql_parser_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xA5);
    let mut db = Database::new();
    db.create_table(
        "t",
        Schema::new(vec![("a", DataType::Int), ("b", DataType::Str)]),
    )
    .unwrap();
    for _ in 0..CASES {
        let len = rng.gen_range(0..=120usize);
        let input: String = (0..len)
            .map(|_| {
                if rng.gen_bool(0.9) {
                    // Printable ASCII, biased toward SQL-ish text.
                    char::from(rng.gen_range(0x20u8..0x7f))
                } else {
                    // Arbitrary scalar values, surrogates excluded.
                    char::from_u32(rng.gen_range(0u32..0xD800)).unwrap_or('\u{FFFD}')
                }
            })
            .collect();
        let _ = parse_query(&db, &input); // must not panic
    }
}

/// Structured SELECTs either parse and execute or fail with a typed
/// error; execution itself never panics.
#[test]
fn generated_selects_execute_or_error() {
    let mut rng = StdRng::seed_from_u64(0xA6);
    for _ in 0..CASES {
        let col = ["a", "b", "zz"][rng.gen_range(0..3usize)];
        let lit = rng.gen_range(-5i64..5);
        let agg = ["", "COUNT", "MIN", "SUM"][rng.gen_range(0..4usize)];
        let order = rng.gen_bool(0.5);
        let mut db = Database::new();
        let t = db
            .create_table(
                "t",
                Schema::new(vec![("a", DataType::Int), ("b", DataType::Str)]),
            )
            .unwrap();
        for i in 0..10i64 {
            db.table_mut(t)
                .insert(Row::new(vec![Value::Int(i % 4), Value::str("x")]))
                .unwrap();
        }
        let select = if agg.is_empty() {
            col.to_string()
        } else {
            format!("{agg}({col})")
        };
        let tail = if order && agg.is_empty() {
            format!(" ORDER BY {col} LIMIT 3")
        } else {
            String::new()
        };
        let sql = format!("SELECT {select} FROM t WHERE a >= {lit}{tail}");
        if let Ok(plan) = parse_query(&db, &sql) {
            let rows = plan.execute(&db).expect("parsed plans execute");
            let _ = rows.len();
        }
    }
}

/// Snapshot/restore is a faithful roundtrip for arbitrary contents.
#[test]
fn codec_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xA7);
    for _ in 0..CASES {
        let n_rows = rng.gen_range(0..40usize);
        let rows: Vec<Row> = (0..n_rows).map(|_| any_row(&mut rng, 3)).collect();
        let mut db = Database::new();
        let t = db
            .create_table(
                "t",
                Schema::new(vec![
                    ("x", DataType::Int),
                    ("y", DataType::Float),
                    ("z", DataType::Str),
                ]),
            )
            .unwrap();
        // Only type-conforming rows insert; filter the generator's.
        let mut inserted = Vec::new();
        for r in rows {
            if db.table_mut(t).insert(r.clone()).is_ok() {
                inserted.push(r);
            }
        }
        db.table_mut(t).create_index(IndexKind::BTree, 0).unwrap();
        let restored = restore(&snapshot(&db)).expect("roundtrip");
        let mut got: Vec<Row> = restored
            .table_by_name("t")
            .unwrap()
            .iter()
            .map(|(_, r)| r.clone())
            .collect();
        got.sort();
        inserted.sort();
        assert_eq!(got, inserted);
        assert_eq!(
            restored
                .table_by_name("t")
                .unwrap()
                .index_on(0)
                .unwrap()
                .kind(),
            IndexKind::BTree
        );
    }
}

/// Restore never panics on arbitrary bytes.
#[test]
fn restore_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xA8);
    for _ in 0..CASES {
        let len = rng.gen_range(0..200usize);
        let raw: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..=255)).collect();
        let _ = restore(&raw);
    }
}
