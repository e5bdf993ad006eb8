//! Live-column delta propagation (DESIGN.md §4, "Delta propagation").
//!
//! A propagated delta carries only the columns some finisher of the
//! sharing group still reads or a join predicate still needs, start
//! deltas are consolidated on those columns, a sharing group's join
//! delta is consolidated once and folded by every member from one
//! slice. None of that may show in a result. One seeded property over
//! random `ViewDef`s on a 3–4 table schema — `SELECT *` and projected
//! bags, `DISTINCT`, grouped and scalar MIN/MAX/SUM/AVG/COUNT over
//! expression arguments, composite and cyclic join predicates, residuals
//! spanning two tables, local filters on columns nothing else reads —
//! drives the same modification script and partial-flush schedule
//! through
//!
//! * N independent views at propagation widths 1/2/4/8, and
//! * one `ViewRegistry` of the N views at widths 1/2/4/8, the last view
//!   registering mid-stream into the existing sharing group,
//!
//! and asserts after every flush that each maintained view equals
//! `full_plan` evaluated over the processed prefix — bit for bit, except
//! that SUM/AVG cells are compared to the oracle within 1e-9 — and that
//! every variant's results, SUM/AVG included, are bit-identical to every
//! other's: the fold order is a function of the delta multiset, not of
//! layout, width or sharing.
//!
//! `LIVE_COLUMNS_SEEDS=1,2,3` overrides the built-in seed list (ci.sh
//! runs a longer one in release under a time box).

use aivm::engine::exec::{consolidate, WRow};
use aivm::engine::{
    AggFunc, AggSpec, ArithOp, CmpOp, DataType, Database, ExecStats, Expr, JoinPred,
    MaterializedView, MinStrategy, Modification, Row, Schema, Value, ViewDef, ViewRegistry,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TABLES: [&str; 4] = ["f", "d1", "d2", "d3"];

// Canonical column numbers in the joined schema (f at 0, d1 at 6, d2 at
// 10, d3 at 13), by name.
const F_X: usize = 3;
const F_Y: usize = 4;
const D1_G: usize = 7;
const D1_U: usize = 8;
const D2_H: usize = 11;
const D2_V: usize = 12;
const D3_W: usize = 14;

/// f(id, a, b, x, y, note) — the fact table, joining d1 on `a` and d2 on
/// `b`; d1(k, g, u, tag); d2(k, h, v); d3(h, w) hanging off d2. `note`
/// and `tag` are read by no generated view except `SELECT *`.
fn schema_db() -> Database {
    use DataType::{Float, Int, Str};
    let mut db = Database::new();
    let tables: [(&str, Vec<(&str, DataType)>); 4] = [
        (
            "f",
            vec![
                ("id", Int),
                ("a", Int),
                ("b", Int),
                ("x", Float),
                ("y", Int),
                ("note", Str),
            ],
        ),
        (
            "d1",
            vec![("k", Int), ("g", Int), ("u", Float), ("tag", Str)],
        ),
        ("d2", vec![("k", Int), ("h", Int), ("v", Int)]),
        ("d3", vec![("h", Int), ("w", Int)]),
    ];
    for (name, cols) in tables {
        db.create_table(name, Schema::new(cols)).unwrap();
    }
    db
}

fn any_row(rng: &mut StdRng, table: usize, unique: &mut i64) -> Row {
    *unique += 1;
    let int = |rng: &mut StdRng, n: i64| Value::Int(rng.gen_range(0..n));
    let float = |rng: &mut StdRng| Value::Float(rng.gen_range(0.0..100.0));
    Row::new(match table {
        0 => vec![
            Value::Int(*unique),
            int(rng, 4),
            int(rng, 4),
            float(rng),
            int(rng, 5),
            Value::str(format!("n{unique}")),
        ],
        1 => vec![
            int(rng, 4),
            int(rng, 3),
            float(rng),
            Value::str(format!("t{unique}")),
        ],
        2 => vec![int(rng, 4), int(rng, 3), int(rng, 6)],
        _ => vec![int(rng, 3), int(rng, 6)],
    })
}

/// The shared SPJ core of one case's views.
#[derive(Clone)]
struct Core {
    tables: Vec<String>,
    join_preds: Vec<JoinPred>,
    filters: Vec<Option<Expr>>,
    residual: Option<Expr>,
}

fn cmp(op: CmpOp, l: Expr, r: Expr) -> Expr {
    Expr::Cmp(op, Box::new(l), Box::new(r))
}

fn arith(op: ArithOp, l: Expr, r: Expr) -> Expr {
    Expr::Arith(op, Box::new(l), Box::new(r))
}

fn any_core(rng: &mut StdRng) -> Core {
    let n = rng.gen_range(3usize..=4);
    let pred = |l, r| JoinPred { left: l, right: r };
    let mut join_preds = vec![pred((0, 1), (1, 0)), pred((2, 0), (0, 2))];
    if n == 4 {
        join_preds.push(pred((2, 1), (3, 0)));
    }
    if rng.gen_bool(0.3) {
        join_preds.push(pred((1, 1), (2, 1))); // d1.g = d2.h closes a cycle
    }
    if rng.gen_bool(0.25) {
        join_preds.push(pred((0, 4), (1, 1))); // composite key f.(a, y) = d1.(k, g)
    }
    // Local filters over each table's own schema, on small-domain int
    // columns the finisher may well never read.
    let int_cols: [&[usize]; 4] = [&[4], &[1], &[1, 2], &[1]];
    let filters = (0..n)
        .map(|t| {
            rng.gen_bool(0.3).then(|| {
                let col = int_cols[t][rng.gen_range(0..int_cols[t].len())];
                let op = [CmpOp::Lt, CmpOp::Ge, CmpOp::Ne][rng.gen_range(0..3usize)];
                cmp(op, Expr::col(col), Expr::lit(rng.gen_range(1i64..3)))
            })
        })
        .collect();
    let residual = rng.gen_bool(0.35).then(|| match rng.gen_range(0u8..3) {
        0 => cmp(
            CmpOp::Le,
            Expr::col(F_Y),
            arith(ArithOp::Add, Expr::col(D1_G), Expr::lit(2i64)),
        ),
        1 => cmp(CmpOp::Lt, Expr::col(F_X), Expr::col(D1_U)).and(cmp(
            CmpOp::Ne,
            Expr::col(D2_V),
            Expr::lit(0i64),
        )),
        _ => Expr::Or(
            Box::new(cmp(CmpOp::Gt, Expr::col(D2_V), Expr::col(F_Y))),
            Box::new(cmp(CmpOp::Eq, Expr::col(D1_G), Expr::col(D2_H))),
        ),
    });
    Core {
        tables: TABLES[..n].iter().map(|t| t.to_string()).collect(),
        join_preds,
        filters,
        residual,
    }
}

fn any_view(rng: &mut StdRng, core: &Core, name: String) -> ViewDef {
    let n = core.tables.len();
    let mut low_card = vec![F_Y, D1_G, D2_H, D2_V];
    let mut args = vec![
        Expr::col(F_X),
        Expr::col(D1_U),
        arith(ArithOp::Add, Expr::col(F_X), Expr::col(D1_U)),
        arith(ArithOp::Mul, Expr::col(F_X), Expr::lit(2.0f64)),
        arith(ArithOp::Add, Expr::col(F_Y), Expr::col(D1_G)),
        arith(ArithOp::Div, Expr::col(D2_V), Expr::col(F_Y)), // NULL when y = 0
    ];
    if n == 4 {
        low_card.push(D3_W);
        args.push(arith(ArithOp::Sub, Expr::col(D3_W), Expr::col(D2_V)));
    }
    let named = |e: Expr, i: usize| (e, format!("c{i}"));
    let pick_cols = |rng: &mut StdRng, from: &[usize], max: usize| -> Vec<usize> {
        let k = rng.gen_range(1..=max);
        (0..k).map(|_| from[rng.gen_range(0..from.len())]).collect()
    };
    let (mut projection, mut aggregate, mut distinct) = (None, None, false);
    match rng.gen_range(0u8..8) {
        0 => {} // SELECT *: every column live
        1 => {
            let cols = pick_cols(rng, &[F_X, F_Y, D1_G, D1_U, D2_V], 3);
            projection = Some(
                (cols.iter().enumerate())
                    .map(|(i, &c)| named(Expr::col(c), i))
                    .collect(),
            );
        }
        2 => {
            projection = Some(vec![
                named(args[rng.gen_range(0..args.len())].clone(), 0),
                named(Expr::col(low_card[rng.gen_range(0..low_card.len())]), 1),
            ]);
        }
        3 => {
            let cols = pick_cols(rng, &low_card, 2);
            projection = Some(
                (cols.iter().enumerate())
                    .map(|(i, &c)| named(Expr::col(c), i))
                    .collect(),
            );
            distinct = true;
        }
        kind => {
            // Grouped (4..=6) or scalar (7) aggregate, 1–3 functions.
            let group_by = if kind == 7 {
                Vec::new()
            } else {
                let mut g = pick_cols(rng, &low_card, 2);
                g.dedup();
                g
            };
            let funcs = [
                AggFunc::Min,
                AggFunc::Max,
                AggFunc::Sum,
                AggFunc::Avg,
                AggFunc::Count,
            ];
            let aggs = (0..rng.gen_range(1usize..=3))
                .map(|i| {
                    let func = funcs[rng.gen_range(0..funcs.len())];
                    let arg = args[rng.gen_range(0..args.len())].clone();
                    (func, arg, format!("a{i}"))
                })
                .collect();
            aggregate = Some(AggSpec { group_by, aggs });
        }
    }
    ViewDef {
        name,
        tables: core.tables.clone(),
        join_preds: core.join_preds.clone(),
        filters: core.filters.clone(),
        residual: core.residual.clone(),
        projection,
        aggregate,
        distinct,
    }
}

/// One scripted step: a burst of arrivals, then a partial flush of at
/// most `flush[t]` modifications of each table.
struct Step {
    mods: Vec<(usize, Modification)>,
    flush: [u64; 4],
}

struct Case {
    defs: Vec<ViewDef>,
    strategy: MinStrategy,
    /// Rows loaded before any view exists.
    base: Vec<(usize, Row)>,
    steps: Vec<Step>,
    /// The last view registers before this step, right after a full
    /// refresh (a sharing group only admits members while nothing is
    /// pending).
    late_at: usize,
}

fn any_mod(
    rng: &mut StdRng,
    n: usize,
    rows: &mut [Vec<Row>; 4],
    unique: &mut i64,
) -> (usize, Modification) {
    // The fact table takes most of the traffic, so its start deltas
    // cross the parallel-propagation threshold.
    let t = if rng.gen_bool(0.6) {
        0
    } else {
        rng.gen_range(0..n)
    };
    let op = rng.gen_range(0u8..10);
    if rows[t].is_empty() || op < 4 {
        let row = any_row(rng, t, unique);
        rows[t].push(row.clone());
        return (t, Modification::Insert(row));
    }
    let idx = rng.gen_range(0..rows[t].len());
    if op < 6 {
        return (t, Modification::Delete(rows[t].swap_remove(idx)));
    }
    // Update one column; often one that no view but SELECT * reads.
    let old = rows[t][idx].clone();
    let fresh = any_row(rng, t, unique);
    let dead: &[usize] = [&[0usize, 5][..], &[3], &[2], &[1]][t];
    let col = if rng.gen_bool(0.4) {
        dead[rng.gen_range(0..dead.len())]
    } else {
        rng.gen_range(0..old.len())
    };
    let mut cells = old.values().to_vec();
    cells[col] = fresh.get(col).clone();
    let new = Row::new(cells);
    rows[t][idx] = new.clone();
    (t, Modification::Update { old, new })
}

fn any_case(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(0x11FE_C015 ^ seed);
    let core = any_core(&mut rng);
    let n = core.tables.len();
    let views = rng.gen_range(2usize..=4);
    let defs = (0..views)
        .map(|i| any_view(&mut rng, &core, format!("v{i}")))
        .collect();
    let (mut rows, mut unique) = ([const { Vec::new() }; 4], 0i64);
    let mut base = Vec::new();
    for _ in 0..rng.gen_range(0usize..40) {
        let t = rng.gen_range(0..n);
        let row = any_row(&mut rng, t, &mut unique);
        rows[t].push(row.clone());
        base.push((t, row));
    }
    let steps: Vec<Step> = (0..rng.gen_range(6usize..12))
        .map(|_| {
            let burst = if rng.gen_bool(0.3) {
                rng.gen_range(60usize..120)
            } else {
                rng.gen_range(1usize..20)
            };
            Step {
                mods: (0..burst)
                    .map(|_| any_mod(&mut rng, n, &mut rows, &mut unique))
                    .collect(),
                flush: std::array::from_fn(|_| match rng.gen_range(0u8..4) {
                    0 => 0,
                    1 => rng.gen_range(1u64..8),
                    _ => u64::MAX,
                }),
            }
        })
        .collect();
    Case {
        defs,
        strategy: if seed % 4 == 3 {
            MinStrategy::Recompute
        } else {
            MinStrategy::Multiset
        },
        base,
        late_at: rng.gen_range(1..steps.len()),
        steps,
    }
}

fn loaded_db(case: &Case) -> Database {
    let mut db = schema_db();
    for (t, row) in &case.base {
        let id = db.table_id(TABLES[*t]).unwrap();
        db.table_mut(id).insert(row.clone()).unwrap();
    }
    db
}

fn sorted(rows: Vec<WRow>) -> Vec<WRow> {
    let mut rows = consolidate(rows);
    rows.sort();
    rows
}

/// The view's query evaluated directly over each table's processed
/// prefix (`physical − pending`).
fn oracle(db: &Database, def: &ViewDef, pending: &[Vec<Modification>]) -> Vec<WRow> {
    let overlay = |name: &str| -> Option<Vec<WRow>> {
        let i = def.tables.iter().position(|t| t == name)?;
        let table = db.table_by_name(name).ok()?;
        let mut rows: Vec<WRow> = table.iter().map(|(_, r)| (r.clone(), 1)).collect();
        let undo = pending[i].iter().flat_map(Modification::weighted);
        rows.extend(undo.map(|(r, w)| (r, -w)));
        Some(rows)
    };
    sorted(
        def.full_plan(db)
            .unwrap()
            .execute_with(db, &overlay)
            .unwrap(),
    )
}

/// Maintained == oracle: bit-identical, except that a float the
/// maintained state *accumulated* (SUM/AVG) may differ from the oracle's
/// one-shot sum in the last bits.
fn assert_matches_oracle(
    db: &Database,
    view: (&ViewDef, &[Vec<Modification>]),
    got: &[WRow],
    ctx: &str,
) {
    let (def, pending) = view;
    let want = oracle(db, def, pending);
    let accumulates = def.aggregate.as_ref().is_some_and(|spec| {
        (spec.aggs.iter()).any(|(f, _, _)| matches!(f, AggFunc::Sum | AggFunc::Avg))
    });
    if !accumulates {
        assert_eq!(got, &want[..], "{ctx}: {} diverged", def.name);
        return;
    }
    assert_eq!(got.len(), want.len(), "{ctx}: {got:?} vs {want:?}");
    for ((g, gw), (w, ww)) in got.iter().zip(&want) {
        assert_eq!(gw, ww, "{ctx}");
        for (a, b) in g.values().iter().zip(w.values()) {
            let close = match (a, b) {
                (Value::Float(a), Value::Float(b)) => {
                    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
                }
                _ => a == b,
            };
            assert!(close, "{ctx}: {} diverged: {g:?} vs {w:?}", def.name);
        }
    }
}

/// Per step, per view: the sorted maintained contents.
type Trace = Vec<Vec<Vec<WRow>>>;

fn run_independent(case: &Case, width: usize) -> (Trace, ExecStats) {
    let ctx = format!("independent width {width}");
    let mut db = loaded_db(case);
    let make = |db: &mut Database, def: &ViewDef| {
        let mut v = MaterializedView::register(db, def.clone(), case.strategy).unwrap();
        v.set_flush_threads(width);
        v
    };
    let (late, early) = case.defs.split_last().unwrap();
    let mut views: Vec<MaterializedView> = early.iter().map(|d| make(&mut db, d)).collect();
    let mut trace = Trace::new();
    for (s, step) in case.steps.iter().enumerate() {
        if s == case.late_at {
            for v in &mut views {
                v.refresh(&db).unwrap();
            }
            views.push(make(&mut db, late));
        }
        for (t, m) in &step.mods {
            let id = db.table_id(TABLES[*t]).unwrap();
            db.apply(id, m).unwrap();
            for v in &mut views {
                v.enqueue(*t, m.clone());
            }
        }
        let mut row = Vec::new();
        for v in &mut views {
            let counts: Vec<u64> = (v.pending_counts().iter().zip(step.flush))
                .map(|(&p, k)| p.min(k))
                .collect();
            v.flush(&db, &counts).unwrap();
            let got = sorted(v.result());
            let view = (v.def(), &v.pending_snapshot()[..]);
            assert_matches_oracle(&db, view, &got, &format!("{ctx} step {s}"));
            row.push(got);
        }
        trace.push(row);
    }
    let mut exec = ExecStats::default();
    views.iter().for_each(|v| exec.merge(&v.stats.exec));
    (trace, exec)
}

fn run_registry(case: &Case, width: usize, drain: bool) -> Trace {
    let ctx = format!("registry width {width} drain {drain}");
    let mut reg = ViewRegistry::new(loaded_db(case));
    let (late, early) = case.defs.split_last().unwrap();
    for def in early {
        reg.register_view(def.clone(), case.strategy).unwrap();
    }
    reg.set_flush_threads(width);
    let mut trace = Trace::new();
    for (s, step) in case.steps.iter().enumerate() {
        if s == case.late_at {
            // Undrained, the late view joins with the group's pending
            // modifications and starts at its processed prefix.
            if drain {
                reg.refresh_all().unwrap();
            }
            reg.register_view(late.clone(), case.strategy).unwrap();
            reg.set_flush_threads(width);
            assert_eq!(reg.group_count(), 1, "{ctx}: the late view joins the group");
        }
        for (t, m) in &step.mods {
            reg.ingest_by_name(TABLES[*t], m.clone()).unwrap();
        }
        let counts: Vec<u64> = (reg.cells().iter().zip(reg.cell_counts()))
            .map(|(cell, pending)| pending.min(step.flush[cell.table]))
            .collect();
        reg.flush_cells(&counts).unwrap();
        let pending = reg.pending_snapshot();
        let row = (0..reg.view_count())
            .map(|id| {
                let got = sorted(reg.result(id));
                let mine: Vec<_> = (reg.cells_of_view(id).iter())
                    .map(|&c| pending[c].clone())
                    .collect();
                let view = (reg.view(id).def(), &mine[..]);
                assert_matches_oracle(reg.db(), view, &got, &format!("{ctx} step {s}"));
                got
            })
            .collect();
        trace.push(row);
    }
    trace
}

fn seeds() -> Vec<u64> {
    match std::env::var("LIVE_COLUMNS_SEEDS") {
        Ok(list) => list
            .split(',')
            .map(|s| s.trim().parse().expect("LIVE_COLUMNS_SEEDS: u64 list"))
            .collect(),
        Err(_) => (0..16).collect(),
    }
}

#[test]
fn pruned_propagation_matches_direct_evaluation_in_every_configuration() {
    for seed in seeds() {
        let case = any_case(seed);
        let (base, serial_exec) = run_independent(&case, 1);
        for width in [1usize, 2, 4, 8] {
            if width > 1 {
                let (trace, exec) = run_independent(&case, width);
                assert!(
                    trace == base,
                    "seed {seed}: independent views at width {width} diverged from the serial run"
                );
                assert_eq!(exec, serial_exec, "seed {seed}: counters at width {width}");
            }
            assert!(
                run_registry(&case, width, true) == base,
                "seed {seed}: registry at width {width} diverged from independent views"
            );
            run_registry(&case, width, false);
        }
    }
}

/// A fixed four-table core whose views never read `f.id`, `f.note` or
/// `d1.tag`.
fn dead_column_defs() -> Vec<ViewDef> {
    let pred = |l, r| JoinPred { left: l, right: r };
    let base = ViewDef {
        name: String::new(),
        tables: TABLES.iter().map(|t| t.to_string()).collect(),
        join_preds: vec![
            pred((0, 1), (1, 0)),
            pred((0, 2), (2, 0)),
            pred((2, 1), (3, 0)),
        ],
        filters: vec![None; 4],
        residual: None,
        projection: None,
        aggregate: None,
        distinct: false,
    };
    let sum = AggSpec {
        group_by: vec![D1_G],
        aggs: vec![
            (AggFunc::Sum, Expr::col(F_X), "s".into()),
            (AggFunc::Min, Expr::col(D1_U), "m".into()),
        ],
    };
    vec![
        ViewDef {
            name: "sum".into(),
            aggregate: Some(sum),
            ..base.clone()
        },
        ViewDef {
            name: "proj".into(),
            projection: Some(vec![
                (Expr::col(F_Y), "y".into()),
                (Expr::col(D3_W), "w".into()),
            ]),
            ..base.clone()
        },
        ViewDef {
            name: "distinct".into(),
            projection: Some(vec![(Expr::col(D2_H), "h".into())]),
            distinct: true,
            ..base.clone()
        },
        ViewDef {
            name: "all".into(),
            ..base
        },
    ]
}

#[test]
fn updates_of_dead_columns_emit_no_join_rows() {
    let mut rng = StdRng::seed_from_u64(0xDEAD);
    let mut unique = 0i64;
    let mut rows: [Vec<Row>; 4] = [const { Vec::new() }; 4];
    let mut db = schema_db();
    for i in 0..120 {
        let t = if i < 60 { 0 } else { 1 + i % 3 };
        let row = any_row(&mut rng, t, &mut unique);
        let id = db.table_id(TABLES[t]).unwrap();
        db.table_mut(id).insert(row.clone()).unwrap();
        rows[t].push(row);
    }
    let defs = dead_column_defs();
    let (all, pruned) = defs.split_last().unwrap();
    // The pruned views: one sharing group in a registry, and again as
    // independent views. `SELECT *` alone.
    let mut reg = ViewRegistry::new(db.clone());
    for def in pruned {
        reg.register_view(def.clone(), MinStrategy::Multiset)
            .unwrap();
    }
    assert_eq!(reg.group_count(), 1);
    let mut solo_db = db.clone();
    let mut solos: Vec<MaterializedView> = (pruned.iter())
        .map(|d| {
            MaterializedView::register(&mut solo_db, d.clone(), MinStrategy::Multiset).unwrap()
        })
        .collect();
    let mut wide = MaterializedView::register(&mut db, all.clone(), MinStrategy::Multiset).unwrap();

    let mut wide_emitted = 0;
    for round in 0..10 {
        for _ in 0..20 {
            let t = rng.gen_range(0usize..2);
            let idx = rng.gen_range(0..rows[t].len());
            let old = rows[t][idx].clone();
            let col = [if rng.gen_bool(0.5) { 0 } else { 5 }, 3][t];
            let mut cells = old.values().to_vec();
            unique += 1;
            cells[col] = match &cells[col] {
                Value::Int(_) => Value::Int(1_000_000 + unique),
                _ => Value::str(format!("z{unique}")),
            };
            let new = Row::new(cells);
            rows[t][idx] = new.clone();
            let m = Modification::Update { old, new };
            reg.ingest_by_name(TABLES[t], m.clone()).unwrap();
            for target in [&mut solo_db, &mut db] {
                let id = target.table_id(TABLES[t]).unwrap();
                target.apply(id, &m).unwrap();
            }
            solos.iter_mut().for_each(|v| v.enqueue(t, m.clone()));
            wide.enqueue(t, m);
        }
        let before: Vec<u64> = (0..reg.view_count())
            .map(|v| reg.result_checksum(v))
            .collect();
        let exec = reg.refresh_all().unwrap().exec;
        assert_eq!(
            (exec.rows_emitted, exec.index_probes, exec.cells_emitted),
            (0, 0, 0),
            "round {round}: the registry propagated a dead-column update"
        );
        for (v, sum) in before.iter().enumerate() {
            assert_eq!(reg.result_checksum(v), *sum);
        }
        for v in &mut solos {
            let exec = v.refresh(&solo_db).unwrap().exec;
            assert_eq!(
                (exec.rows_emitted, exec.index_probes),
                (0, 0),
                "{}",
                v.def().name
            );
            let view = (v.def(), &v.pending_snapshot()[..]);
            assert_matches_oracle(&solo_db, view, &sorted(v.result()), "independent");
        }
        // Every column of a `SELECT *` bag is live: the same updates
        // reach its state.
        wide_emitted += wide.refresh(&db).unwrap().exec.rows_emitted;
        assert_eq!(
            sorted(wide.result()),
            oracle(&db, wide.def(), &wide.pending_snapshot())
        );
    }
    assert!(wide_emitted > 0, "SELECT * must see the updates");
}
