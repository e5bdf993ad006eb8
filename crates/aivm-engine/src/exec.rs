//! The weighted (signed-multiset / Z-set) executor.
//!
//! Every intermediate result is a bag of `(Row, i64)` pairs: base rows
//! carry weight `+1`, deletions `−1`; joins multiply weights. This makes
//! *compensation* — reading a base table as `physical − pending Δ`, the
//! state-bug-safe view of §1's footnote — purely algebraic: append the
//! pending delta's entries with negated weights.
//!
//! Two physical join shapes matter for the paper's cost asymmetry:
//!
//! * [`join_index`] probes the inner table's index once per delta row —
//!   cost linear in the delta with a small slope (the `c_ΔS` shape of
//!   Fig. 1).
//! * [`join_scan`] builds a hash table from the delta and scans the
//!   entire inner table — cost dominated by a batch-size-independent
//!   scan (the `c_ΔR` shape of Fig. 1).

use crate::expr::Expr;
use crate::fxhash::{self, FxHashMap};
use crate::schema::Row;
use crate::table::Table;
use crate::value::Value;

/// A weighted row.
pub type WRow = (Row, i64);

/// Executor effort counters; the analytic cost model is calibrated
/// against these.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Physical rows visited by scans.
    pub rows_scanned: u64,
    /// Index point lookups performed.
    pub index_probes: u64,
    /// Rows emitted.
    pub rows_emitted: u64,
    /// Cells emitted: the summed width of every emitted join row — what
    /// live-column pruning shrinks while `rows_emitted` stays put.
    pub cells_emitted: u64,
    /// Join steps that degraded to [`join_scan`] because the target
    /// table had no index on the join column. With auto-indexed views
    /// (see `MaterializedView::register`) this must stay zero; the
    /// TPC-R repro asserts it.
    pub scan_fallbacks: u64,
    /// Inert: always 0 (heavy-light partitioning was removed; see
    /// [`HeavyLightConfig`](crate::HeavyLightConfig)).
    pub heavy_hits: u64,
    /// Inert: always 0, like `heavy_hits`.
    pub light_hits: u64,
}

impl ExecStats {
    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &ExecStats) {
        self.rows_scanned += other.rows_scanned;
        self.index_probes += other.index_probes;
        self.rows_emitted += other.rows_emitted;
        self.cells_emitted += other.cells_emitted;
        self.scan_fallbacks += other.scan_fallbacks;
    }
}

/// Sums weights of identical rows and drops zero-weight entries.
pub fn consolidate(rows: Vec<WRow>) -> Vec<WRow> {
    let mut map: FxHashMap<Row, i64> = fxhash::map_with_capacity(rows.len());
    for (r, w) in rows {
        *map.entry(r).or_insert(0) += w;
    }
    map.into_iter().filter(|&(_, w)| w != 0).collect()
}

/// Order-independent content checksum of a weighted row set: each
/// `(row, weight)` pair is hashed with the seedless [`fxhash`] and
/// combined by wrapping addition. Equal to
/// [`ViewLeaf::result_checksum`](crate::ivm::ViewLeaf::result_checksum)
/// over the same rows, and stable across runs and processes — the
/// push-subscription protocol uses it so a client folding delta batches
/// can verify its folded state against the server's published checksum.
pub fn rows_checksum(rows: &[WRow]) -> u64 {
    let mut acc: u64 = 0;
    for rw in rows {
        acc = acc.wrapping_add(fxhash::hash_one(rw));
    }
    acc
}

/// Keeps rows satisfying the predicate.
pub fn filter(rows: Vec<WRow>, predicate: &Expr) -> Vec<WRow> {
    rows.into_iter()
        .filter(|(r, _)| predicate.eval_bool(r))
        .collect()
}

/// Maps each row through projection expressions.
pub fn project(rows: &[WRow], exprs: &[Expr]) -> Vec<WRow> {
    rows.iter()
        .map(|(r, w)| (Row::new(exprs.iter().map(|e| e.eval(r)).collect()), *w))
        .collect()
}

/// Negates every weight (set difference's second operand).
pub fn negate(rows: Vec<WRow>) -> Vec<WRow> {
    rows.into_iter().map(|(r, w)| (r, -w)).collect()
}

/// Materializes a table as weighted rows under compensation: physical
/// rows at `+1` minus the pending delta entries, with an optional local
/// filter applied to both sides.
pub fn compensated_rows(
    table: &Table,
    pending: &[WRow],
    local_filter: Option<&Expr>,
    stats: &mut ExecStats,
) -> Vec<WRow> {
    let mut out = Vec::with_capacity(table.len() + pending.len());
    for (_, row) in table.iter() {
        stats.rows_scanned += 1;
        if local_filter.is_none_or(|f| f.eval_bool(row)) {
            out.push((row.clone(), 1));
        }
    }
    for (row, w) in pending {
        if local_filter.is_none_or(|f| f.eval_bool(row)) {
            out.push((row.clone(), -w));
        }
    }
    out
}

/// How a delta join pairs a delta row with a target-table row and what
/// it emits for the pair. Compiled once per join step by the view's
/// propagation plan, so the hot loop never builds a cell that nothing
/// downstream reads.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JoinShape {
    /// The probe key: `(delta column, table column)`.
    pub key: (usize, usize),
    /// Further `(delta column, table column)` equalities a pair must
    /// satisfy — the other predicates of a composite or cyclic join.
    pub checks: Vec<(usize, usize)>,
    /// Output cells, as indices into `delta row ++ table row`.
    pub emit: Vec<usize>,
}

impl JoinShape {
    /// Emits the pair `(d, row)` at weight `w` if it passes the checks.
    pub fn emit(&self, out: &mut Vec<WRow>, d: &Row, row: &Row, w: i64, stats: &mut ExecStats) {
        if self.checks.iter().all(|&(dc, tc)| d.get(dc) == row.get(tc)) {
            stats.rows_emitted += 1;
            stats.cells_emitted += self.emit.len() as u64;
            out.push((d.splice(row, &self.emit), w));
        }
    }
}

/// Groups weighted rows by a single key column, storing *indices* into
/// the input slice: no row or key clones, which keeps the per-batch join
/// setup allocation-free apart from the map itself.
fn group_indices(rows: &[WRow], key: usize) -> FxHashMap<&Value, Vec<usize>> {
    let mut map: FxHashMap<&Value, Vec<usize>> = fxhash::map_with_capacity(rows.len());
    for (i, (r, _)) in rows.iter().enumerate() {
        map.entry(r.get(key)).or_default().push(i);
    }
    map
}

/// Joins a (small) delta stream against a compensated table by scanning
/// the table once: builds a hash table over the delta's join key, scans
/// every physical row, then corrects with the pending delta.
///
/// Output rows are the shape's picked cells with multiplied weights.
pub fn join_scan(
    delta: &[WRow],
    shape: &JoinShape,
    table: &Table,
    pending: &[WRow],
    table_filter: Option<&Expr>,
    stats: &mut ExecStats,
) -> Vec<WRow> {
    let by_key = group_indices(delta, shape.key.0);
    let mut out = Vec::with_capacity(delta.len());
    // The scan: every physical row is visited regardless of delta size —
    // this is the constant-dominated cost shape. Compensation then
    // subtracts the matches against the pending delta.
    stats.rows_scanned += table.len() as u64;
    let physical = table.iter().map(|(_, row)| (row, 1));
    for (row, pw) in physical.chain(pending.iter().map(|(row, pw)| (row, -pw))) {
        if !table_filter.is_none_or(|f| f.eval_bool(row)) {
            continue;
        }
        if let Some(matches) = by_key.get(row.get(shape.key.1)) {
            for &di in matches {
                let (d, w) = &delta[di];
                shape.emit(&mut out, d, row, pw * w, stats);
            }
        }
    }
    out
}

/// Joins a delta stream against a compensated table via the table's
/// index on the shape's table key: one probe per delta row — the
/// per-modification cost shape.
///
/// # Panics
/// Panics when the table has no index on the key column; the planner
/// must only choose this operator when one exists.
pub fn join_index(
    delta: &[WRow],
    shape: &JoinShape,
    table: &Table,
    pending: &[WRow],
    table_filter: Option<&Expr>,
    stats: &mut ExecStats,
) -> Vec<WRow> {
    let (delta_key, table_key) = shape.key;
    let index = table
        .index_on(table_key)
        .expect("join_index requires an index on the join column");
    let mut out = Vec::with_capacity(delta.len());
    for (d, w) in delta {
        stats.index_probes += 1;
        for &rid in index.lookup(d.get(delta_key)) {
            let row = table.get(rid).expect("index points at live rows");
            if table_filter.is_none_or(|f| f.eval_bool(row)) {
                shape.emit(&mut out, d, row, *w, stats);
            }
        }
    }
    // Compensation: one pass over the pending delta probing a map keyed on
    // the (typically much smaller) flushed delta. Grouping `pending` instead
    // would cost an allocation-heavy map build proportional to the backlog on
    // every flush, dominating small-delta flushes.
    if !pending.is_empty() {
        let delta_by_key = group_indices(delta, delta_key);
        for (row, pw) in pending {
            if let Some(matches) = delta_by_key.get(row.get(table_key)) {
                if table_filter.is_none_or(|f| f.eval_bool(row)) {
                    for &di in matches {
                        let (d, w) = &delta[di];
                        shape.emit(&mut out, d, row, -pw * w, stats);
                    }
                }
            }
        }
    }
    out
}

/// Generic multi-column hash equi-join of two weighted bags (used by the
/// full-query executor). `on` pairs are `(left_col, right_col)` with
/// `right_col` relative to the right schema. Output is
/// `left_row ++ right_row`.
pub fn hash_join(left: &[WRow], right: &[WRow], on: &[(usize, usize)]) -> Vec<WRow> {
    fn key_of<'a>(r: &'a Row, cols: &[usize]) -> Vec<&'a Value> {
        cols.iter().map(|&c| r.get(c)).collect()
    }
    let left_cols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
    let right_cols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
    // Build side stores borrowed keys and row indices — no value or row
    // clones during the build.
    let mut build: FxHashMap<Vec<&Value>, Vec<usize>> = fxhash::map_with_capacity(right.len());
    for (i, (r, _)) in right.iter().enumerate() {
        build.entry(key_of(r, &right_cols)).or_default().push(i);
    }
    let mut out = Vec::with_capacity(left.len());
    for (l, lw) in left {
        if let Some(matches) = build.get(&key_of(l, &left_cols)) {
            for &ri in matches {
                let (r, rw) = &right[ri];
                out.push((l.concat(r), lw * rw));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexKind;
    use crate::row;
    use crate::schema::Schema;
    use crate::value::DataType;

    fn table_rs() -> Table {
        // R(k, v) with an index on k.
        let mut t = Table::new(
            "r",
            Schema::new(vec![("k", DataType::Int), ("v", DataType::Str)]),
        );
        t.create_index(IndexKind::Hash, 0).unwrap();
        t.insert(row![1i64, "a"]).unwrap();
        t.insert(row![1i64, "b"]).unwrap();
        t.insert(row![2i64, "c"]).unwrap();
        t
    }

    /// Key-to-key join of a two-cell delta against `t`, emitting the
    /// unpruned `delta_row ++ table_row`.
    fn shape(t: &Table) -> JoinShape {
        JoinShape {
            emit: (0..2 + t.schema().arity()).collect(),
            ..JoinShape::default()
        }
    }

    #[test]
    fn pruned_shape_checks_composite_keys_and_emits_only_picked_cells() {
        let t = table_rs();
        // Join on k AND delta.1 = t.v; keep only the table's v.
        let shape = JoinShape {
            key: (0, 0),
            checks: vec![(1, 1)],
            emit: vec![3],
        };
        let delta = vec![(row![1i64, "b"], 2), (row![2i64, "zz"], 1)];
        for join in [join_index, join_scan] {
            let mut stats = ExecStats::default();
            let out = join(&delta, &shape, &t, &[], None, &mut stats);
            assert_eq!(out, vec![(row!["b"], 2)], "only (1,b) passes the check");
            assert_eq!((stats.rows_emitted, stats.cells_emitted), (1, 1));
        }
    }

    #[test]
    fn consolidate_merges_and_drops_zeros() {
        let rows = vec![
            (row![1i64], 1),
            (row![1i64], 2),
            (row![2i64], 1),
            (row![2i64], -1),
        ];
        let mut c = consolidate(rows);
        c.sort();
        assert_eq!(c, vec![(row![1i64], 3)]);
    }

    #[test]
    fn join_scan_matches_and_multiplies_weights() {
        let t = table_rs();
        let delta = vec![(row![1i64, 10i64], 2), (row![3i64, 30i64], 1)];
        let mut stats = ExecStats::default();
        let mut out = join_scan(&delta, &shape(&t), &t, &[], None, &mut stats);
        out.sort();
        assert_eq!(
            out,
            vec![
                (row![1i64, 10i64, 1i64, "a"], 2),
                (row![1i64, 10i64, 1i64, "b"], 2),
            ]
        );
        assert_eq!(stats.rows_scanned, 3, "scan visits every row");
    }

    #[test]
    fn join_index_equals_join_scan() {
        let t = table_rs();
        let delta = vec![(row![1i64, 10i64], 1), (row![2i64, 20i64], -1)];
        let mut s1 = ExecStats::default();
        let mut s2 = ExecStats::default();
        let mut a = join_scan(&delta, &shape(&t), &t, &[], None, &mut s1);
        let mut b = join_index(&delta, &shape(&t), &t, &[], None, &mut s2);
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(s2.index_probes, 2, "one probe per delta row");
        assert_eq!(s2.rows_scanned, 0, "index join never scans");
    }

    #[test]
    fn compensation_subtracts_pending() {
        let t = table_rs();
        // Pending: the row (2, "c") was inserted but not yet propagated,
        // so the compensated view of R must exclude it.
        let pending = vec![(row![2i64, "c"], 1)];
        let delta = vec![(row![2i64, 20i64], 1)];
        let mut stats = ExecStats::default();
        let out = consolidate(join_scan(
            &delta,
            &shape(&t),
            &t,
            &pending,
            None,
            &mut stats,
        ));
        assert!(
            out.is_empty(),
            "physical match cancelled by compensation: {out:?}"
        );
        // Same through the index path.
        let out = consolidate(join_index(
            &delta,
            &shape(&t),
            &t,
            &pending,
            None,
            &mut stats,
        ));
        assert!(out.is_empty());
    }

    #[test]
    fn compensation_restores_deleted_rows() {
        let t = table_rs(); // contains (2, "c") physically
                            // Pending: (2, "x") was *deleted* (weight −1) but the delete is
                            // unpropagated; compensated R = physical − (−1·row) = physical +
                            // the deleted row.
        let pending = vec![(row![2i64, "x"], -1)];
        let delta = vec![(row![2i64, 20i64], 1)];
        let mut stats = ExecStats::default();
        let mut out = consolidate(join_scan(
            &delta,
            &shape(&t),
            &t,
            &pending,
            None,
            &mut stats,
        ));
        out.sort();
        assert_eq!(
            out,
            vec![
                (row![2i64, 20i64, 2i64, "c"], 1),
                (row![2i64, 20i64, 2i64, "x"], 1),
            ]
        );
    }

    #[test]
    fn local_filter_applies_to_both_sides() {
        let t = table_rs();
        let keep_a = Expr::col(1).eq(Expr::lit("a"));
        let pending = vec![(row![1i64, "a"], 1), (row![1i64, "zz"], 1)];
        let delta = vec![(row![1i64, 0i64], 1)];
        let mut stats = ExecStats::default();
        let mut out = consolidate(join_index(
            &delta,
            &shape(&t),
            &t,
            &pending,
            Some(&keep_a),
            &mut stats,
        ));
        out.sort();
        // Physical (1,a) matches (+1); pending (1,a) compensates (−1);
        // pending (1,zz) filtered out; physical (1,b) filtered out.
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn hash_join_multi_key() {
        let left = vec![(row![1i64, 2i64], 1), (row![1i64, 3i64], 1)];
        let right = vec![(row![2i64, 1i64, "m"], 2)];
        // join on left(0)=right(1) and left(1)=right(0)
        let out = hash_join(&left, &right, &[(0, 1), (1, 0)]);
        assert_eq!(out, vec![(row![1i64, 2i64, 2i64, 1i64, "m"], 2)]);
    }

    #[test]
    fn compensated_rows_filters_and_negates() {
        let t = table_rs();
        let pending = vec![(row![9i64, "p"], 1)];
        let mut stats = ExecStats::default();
        let mut rows = compensated_rows(&t, &pending, None, &mut stats);
        rows.sort();
        assert_eq!(rows.len(), 4);
        assert!(rows.contains(&(row![9i64, "p"], -1)));
        assert_eq!(stats.rows_scanned, 3);
    }

    #[test]
    fn project_and_filter_and_negate() {
        let rows = vec![(row![1i64, 5i64], 2), (row![2i64, 6i64], 1)];
        let p = project(&rows, &[Expr::col(1)]);
        assert_eq!(p, vec![(row![5i64], 2), (row![6i64], 1)]);
        let f = filter(rows.clone(), &Expr::col(0).eq(Expr::lit(1i64)));
        assert_eq!(f, vec![(row![1i64, 5i64], 2)]);
        let n = negate(rows);
        assert_eq!(n[0].1, -2);
    }
}
