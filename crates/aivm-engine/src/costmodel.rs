//! Analytic per-table maintenance cost functions.
//!
//! §2 of the paper: *"the cost functions can be provided by a database
//! optimizer, or measured by experiments."* This module is the optimizer
//! path — it predicts, for each base table `R_i` of a view, the linear
//! cost `f_i(k) = a_i·k + b_i` of propagating a batch of `k`
//! modifications, from catalog statistics and the physical propagation
//! plan (index probes vs. full scans). The measurement path lives in
//! [`crate::measure`].
//!
//! The constants are unit-free "work units" by default; calibrate them
//! against wall-clock measurements with [`CostConstants::calibrated`] if
//! absolute times matter. The paper's algorithms only need relative
//! shapes.

use crate::db::Database;
use crate::error::EngineError;
use crate::ivm::ViewDef;
use aivm_core::CostModel;

/// Tunable per-operation work constants.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostConstants {
    /// Visiting one physical row during a scan.
    pub scan_row: f64,
    /// One index point-probe (including bucket walk).
    pub index_probe: f64,
    /// Emitting one joined output row.
    pub emit_row: f64,
    /// Fixed per-batch setup (planning, hash-table allocation, …).
    pub batch_setup: f64,
    /// Applying one delta row to the view state (aggregate update).
    pub state_update: f64,
}

impl Default for CostConstants {
    fn default() -> Self {
        CostConstants {
            scan_row: 1.0,
            index_probe: 3.0,
            emit_row: 0.5,
            batch_setup: 50.0,
            state_update: 1.0,
        }
    }
}

impl CostConstants {
    /// Returns constants uniformly scaled so that predicted units map to
    /// the caller's time unit (e.g. after comparing one predicted batch
    /// against one measured batch).
    pub fn calibrated(&self, scale: f64) -> CostConstants {
        CostConstants {
            scan_row: self.scan_row * scale,
            index_probe: self.index_probe * scale,
            emit_row: self.emit_row * scale,
            batch_setup: self.batch_setup * scale,
            state_update: self.state_update * scale,
        }
    }
}

/// Catalog statistics for one base table, as used by the estimator.
#[derive(Clone, Debug, PartialEq)]
pub struct TableStats {
    /// Live row count.
    pub rows: u64,
    /// Selectivity of the view's local filter on this table (1.0 when
    /// absent), estimated by evaluating the filter over the table.
    pub filter_selectivity: f64,
}

/// Gathers statistics for every base table of a view.
pub fn gather_stats(db: &Database, def: &ViewDef) -> Result<Vec<TableStats>, EngineError> {
    let mut out = Vec::with_capacity(def.tables.len());
    for (i, name) in def.tables.iter().enumerate() {
        let table = db.table_by_name(name)?;
        let rows = table.len() as u64;
        let filter_selectivity = match &def.filters[i] {
            None => 1.0,
            Some(f) => {
                if rows == 0 {
                    1.0
                } else {
                    let pass = table.iter().filter(|(_, r)| f.eval_bool(r)).count();
                    (pass as f64 / rows as f64).max(1e-6)
                }
            }
        };
        out.push(TableStats {
            rows,
            filter_selectivity,
        });
    }
    Ok(out)
}

/// Estimated fan-out of joining one delta row into `table` on `col`:
/// `rows / distinct_keys`, via the index when present, else by a scan.
pub fn fanout(db: &Database, table_name: &str, col: usize) -> Result<f64, EngineError> {
    let table = db.table_by_name(table_name)?;
    if table.is_empty() {
        return Ok(0.0);
    }
    let distinct = match table.index_on(col) {
        Some(idx) => idx.distinct_keys(),
        None => {
            let mut keys: Vec<_> = table.iter().map(|(_, r)| r.get(col).clone()).collect();
            keys.sort();
            keys.dedup();
            keys.len()
        }
    };
    Ok(table.len() as f64 / distinct.max(1) as f64)
}

/// How one propagation step reads its target table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessPath {
    /// Index point-probe per delta row: per-modification-dominated.
    IndexProbe,
    /// Full scan of the target per batch: setup-dominated.
    Scan,
    /// No connecting predicate: compensated cross product.
    CrossProduct,
}

/// Per-operator cost decomposition of one join step of the propagation
/// plan — the operator-level asymmetry the paper's §7 names as future
/// work, made explicit.
#[derive(Clone, Debug)]
pub struct JoinStepExplain {
    /// Target table name.
    pub target: String,
    /// Join column on the target (meaningless for cross products).
    pub target_col: usize,
    /// Chosen physical access path.
    pub access: AccessPath,
    /// Estimated output rows per incoming stream row.
    pub fanout: f64,
    /// Estimated batch-size-independent cost contributed by this step.
    pub setup: f64,
    /// Estimated cost per *modification* contributed by this step.
    pub per_mod: f64,
}

/// The full predicted propagation plan for one start table.
#[derive(Clone, Debug)]
pub struct PropagationExplain {
    /// The delta's base table.
    pub start: String,
    /// Join steps in execution order.
    pub steps: Vec<JoinStepExplain>,
    /// The resulting linear cost estimate `a·k + b`.
    pub estimate: CostModel,
}

impl PropagationExplain {
    /// Renders an EXPLAIN-style description.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let (a, b) = match &self.estimate {
            CostModel::Linear { a, b } => (*a, *b),
            _ => (0.0, 0.0),
        };
        let _ = writeln!(out, "Δ{} → f(k) ≈ {a:.3}·k + {b:.1}", self.start);
        for s in &self.steps {
            let path = match s.access {
                AccessPath::IndexProbe => "index probe",
                AccessPath::Scan => "full scan",
                AccessPath::CrossProduct => "cross product",
            };
            let _ = writeln!(
                out,
                "  ⋈ {} via {path} (fanout {:.2}): setup {:.1}, per-mod {:.3}",
                s.target, s.fanout, s.setup, s.per_mod
            );
        }
        out
    }
}

/// Explains the predicted propagation plan (join order, access paths,
/// per-operator cost split) for every base table of the view, following
/// the same join-order policy as the maintenance executor (indexed
/// targets first).
pub fn explain_propagation(
    db: &Database,
    def: &ViewDef,
    consts: &CostConstants,
) -> Result<Vec<PropagationExplain>, EngineError> {
    let stats = gather_stats(db, def)?;
    let n = def.tables.len();
    let mut out = Vec::with_capacity(n);
    for start in 0..n {
        let mut a = 0.0; // per-modification cost
        let mut b = consts.batch_setup; // per-batch cost
        let mut steps = Vec::new();
        // Each modification contributes up to 2 weighted delta rows
        // (update = delete + insert); local filter thins them.
        let mut stream_rows_per_mod = 2.0 * stats[start].filter_selectivity;
        a += stream_rows_per_mod * consts.state_update;

        // Replay the propagation planner's choices.
        let mut bound = vec![false; n];
        bound[start] = true;
        for _ in 1..n {
            // Pick the next join exactly like MaterializedView::propagate:
            // first indexed candidate wins, else the first candidate.
            let mut chosen: Option<(usize, usize, bool)> = None; // (table, col, indexed)
            for p in &def.join_preds {
                let (x, y) = (p.left, p.right);
                let dst = if bound[x.0] && !bound[y.0] {
                    Some(y)
                } else if bound[y.0] && !bound[x.0] {
                    Some(x)
                } else {
                    None
                };
                if let Some(dst) = dst {
                    let indexed = db
                        .table_by_name(&def.tables[dst.0])?
                        .index_on(dst.1)
                        .is_some();
                    if indexed {
                        chosen = Some((dst.0, dst.1, true));
                        break;
                    }
                    if chosen.is_none() {
                        chosen = Some((dst.0, dst.1, false));
                    }
                }
            }
            let (step_a0, step_b0) = (a, b);
            let (target, col, access, fo) = match chosen {
                Some((target, col, indexed)) => {
                    let fo =
                        fanout(db, &def.tables[target], col)? * stats[target].filter_selectivity;
                    if indexed {
                        // One probe per stream row; matches feed on.
                        a += stream_rows_per_mod * consts.index_probe;
                    } else {
                        // Full scan of the target, batch-size-independent.
                        b += stats[target].rows as f64 * consts.scan_row;
                    }
                    stream_rows_per_mod *= fo.max(1e-9);
                    a += stream_rows_per_mod * consts.emit_row;
                    (
                        target,
                        col,
                        if indexed {
                            AccessPath::IndexProbe
                        } else {
                            AccessPath::Scan
                        },
                        fo,
                    )
                }
                None => {
                    // Cross product with the next unbound table.
                    let target = (0..n).find(|&j| !bound[j]).expect("unbound exists");
                    let rows = stats[target].rows as f64 * stats[target].filter_selectivity;
                    b += stats[target].rows as f64 * consts.scan_row;
                    stream_rows_per_mod *= rows.max(1.0);
                    a += stream_rows_per_mod * consts.emit_row;
                    (target, 0, AccessPath::CrossProduct, rows)
                }
            };
            steps.push(JoinStepExplain {
                target: def.tables[target].clone(),
                target_col: col,
                access,
                fanout: fo,
                setup: b - step_b0,
                per_mod: a - step_a0,
            });
            bound[target] = true;
        }
        // Final state application of the join delta.
        a += stream_rows_per_mod * consts.state_update;
        out.push(PropagationExplain {
            start: def.tables[start].clone(),
            steps,
            estimate: CostModel::Linear { a, b },
        });
    }
    Ok(out)
}

/// Predicts the linear maintenance cost function for each base table of
/// the view — the estimates of [`explain_propagation`] without the
/// per-operator detail.
pub fn estimate_cost_functions(
    db: &Database,
    def: &ViewDef,
    consts: &CostConstants,
) -> Result<Vec<CostModel>, EngineError> {
    Ok(explain_propagation(db, def, consts)?
        .into_iter()
        .map(|e| e.estimate)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexKind;
    use crate::ivm::JoinPred;
    use crate::row;
    use crate::schema::Schema;
    use crate::value::DataType;
    use crate::Expr;

    /// R(k,x) indexed on k with 100 rows; S(k,tag) unindexed with 1000.
    fn setup() -> (Database, ViewDef) {
        let mut db = Database::new();
        let r = db
            .create_table(
                "r",
                Schema::new(vec![("k", DataType::Int), ("x", DataType::Float)]),
            )
            .unwrap();
        let s = db
            .create_table(
                "s",
                Schema::new(vec![("k", DataType::Int), ("tag", DataType::Str)]),
            )
            .unwrap();
        db.table_mut(r).create_index(IndexKind::Hash, 0).unwrap();
        for i in 0..100i64 {
            db.table_mut(r).insert(row![i, i as f64]).unwrap();
        }
        for i in 0..1000i64 {
            db.table_mut(s).insert(row![i % 100, "t"]).unwrap();
        }
        let def = ViewDef {
            name: "v".into(),
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
        };
        (db, def)
    }

    #[test]
    fn asymmetry_is_predicted() {
        let (db, def) = setup();
        let consts = CostConstants::default();
        let costs = estimate_cost_functions(&db, &def, &consts).unwrap();
        let (a_r, b_r) = match &costs[0] {
            CostModel::Linear { a, b } => (*a, *b),
            other => panic!("{other:?}"),
        };
        let (a_s, b_s) = match &costs[1] {
            CostModel::Linear { a, b } => (*a, *b),
            other => panic!("{other:?}"),
        };
        // ΔR propagates by scanning the unindexed S: big setup cost.
        assert!(
            b_r > b_s,
            "ΔR (scan side) must have the larger setup: {b_r} vs {b_s}"
        );
        // ΔS propagates by probing R's index: per-mod cost dominated by
        // probes, setup only the fixed batch overhead.
        assert!((b_s - consts.batch_setup).abs() < 1e-9);
        assert!(a_s > 0.0 && a_r > 0.0);
        // ΔR joins into S with fanout 10 (1000 rows / 100 keys): its
        // per-mod emit cost must exceed ΔS's fanout-1 path.
        assert!(
            a_r > a_s,
            "fanout 10 side should cost more per mod: {a_r} vs {a_s}"
        );
    }

    #[test]
    fn filter_selectivity_measured() {
        let (mut db, mut def) = setup();
        def.filters[1] = Some(Expr::col(1).eq(Expr::lit("nope")));
        let stats = gather_stats(&db, &def).unwrap();
        assert_eq!(stats[1].rows, 1000);
        assert!(stats[1].filter_selectivity <= 1e-5);
        // Empty table: selectivity defaults to 1.
        let t = db
            .create_table("empty", Schema::new(vec![("z", DataType::Int)]))
            .unwrap();
        let _ = t;
        let def2 = ViewDef {
            name: "e".into(),
            tables: vec!["empty".into()],
            join_preds: vec![],
            filters: vec![Some(Expr::col(0).eq(Expr::lit(1i64)))],
            residual: None,
            projection: None,
            aggregate: None,
            distinct: false,
        };
        let stats2 = gather_stats(&db, &def2).unwrap();
        assert_eq!(stats2[0].filter_selectivity, 1.0);
    }

    #[test]
    fn calibration_scales_uniformly() {
        let c = CostConstants::default().calibrated(0.5);
        assert_eq!(c.scan_row, 0.5);
        assert_eq!(c.batch_setup, 25.0);
    }

    #[test]
    fn explain_reports_access_paths() {
        let (db, def) = setup();
        let explains = explain_propagation(&db, &def, &CostConstants::default()).unwrap();
        assert_eq!(explains.len(), 2);
        // ΔR propagates into unindexed S: a Scan step.
        assert_eq!(explains[0].start, "r");
        assert_eq!(explains[0].steps.len(), 1);
        assert_eq!(explains[0].steps[0].access, AccessPath::Scan);
        assert!(explains[0].steps[0].setup > 0.0);
        // ΔS propagates through R's index: an IndexProbe step.
        assert_eq!(explains[1].steps[0].access, AccessPath::IndexProbe);
        assert_eq!(explains[1].steps[0].setup, 0.0, "probes add no setup");
        assert!(explains[1].steps[0].per_mod > 0.0);
        // Render is human-readable.
        let text = explains[0].render();
        assert!(text.contains("full scan"), "{text}");
    }

    #[test]
    fn explain_handles_cross_products() {
        let (db, mut def) = setup();
        def.join_preds.clear();
        let explains = explain_propagation(&db, &def, &CostConstants::default()).unwrap();
        assert_eq!(explains[0].steps[0].access, AccessPath::CrossProduct);
    }

    #[test]
    fn estimates_are_monotone_in_table_size() {
        let (mut db, def) = setup();
        let before = estimate_cost_functions(&db, &def, &CostConstants::default()).unwrap();
        let s = db.table_id("s").unwrap();
        for i in 0..1000i64 {
            db.table_mut(s).insert(row![i % 100, "more"]).unwrap();
        }
        let after = estimate_cost_functions(&db, &def, &CostConstants::default()).unwrap();
        let b_of = |c: &CostModel| match c {
            CostModel::Linear { b, .. } => *b,
            _ => unreachable!(),
        };
        assert!(
            b_of(&after[0]) > b_of(&before[0]),
            "bigger S ⇒ costlier ΔR scans"
        );
    }
}
