//! Order-independent merging of per-shard view results.
//!
//! A sharded view's global result is *not* the bag union of the shard
//! results when the view aggregates: each shard reports `MIN(cost)`
//! over its own partition, and the global answer is the min of the
//! shard minima. [`MergeSpec`] captures, per view shape, how shard
//! results re-aggregate:
//!
//! - **Bag / projection views**: weighted union, consolidated by row
//!   (the partitions are disjoint, so this is exact).
//! - **DISTINCT views**: union with weights collapsed to 1 — each shard
//!   already reports distinct rows; a row present in several shards
//!   must still appear once.
//! - **Aggregate views**: group rows by the `GROUP BY` prefix and fold
//!   the aggregate cells: `COUNT` → integer sum, `SUM` → null-skipping
//!   float sum, `MIN`/`MAX` → null-skipping extremum under [`Value`]'s
//!   total order. `AVG` is rejected — it is not decomposable from
//!   per-shard averages alone (the runtimes would need to ship
//!   sum+count pairs), and no current workload uses it.
//!
//! Merged checksums are recomputed from the merged rows with the same
//! order-independent formula the engine uses
//! (`wrapping_add(fxhash(row, weight))`), so a merged read's checksum
//! is bit-identical to what a single unsharded runtime over the whole
//! database would publish — the property `tests/shard_equivalence.rs`
//! pins down.

use std::collections::BTreeMap;

use aivm_engine::{AggFunc, EngineError, Row, Value, ViewDef, WRow};

/// How per-shard result rows combine into the global result.
#[derive(Clone, Debug)]
enum MergeKind {
    /// Weighted bag union; `collapse` caps weights at 1 (DISTINCT).
    Bag { collapse: bool },
    /// Re-aggregate: rows share a `group_len`-cell key prefix followed
    /// by one cell per aggregate function.
    Agg {
        group_len: usize,
        funcs: Vec<AggFunc>,
    },
}

/// A view-shape-specific merge plan, derived once from the [`ViewDef`].
#[derive(Clone, Debug)]
pub struct MergeSpec {
    kind: MergeKind,
}

impl MergeSpec {
    /// Derives the merge plan for `def`.
    pub fn from_def(def: &ViewDef) -> Result<Self, EngineError> {
        let kind = match &def.aggregate {
            None => MergeKind::Bag {
                collapse: def.distinct,
            },
            Some(spec) => {
                let funcs: Vec<AggFunc> = spec.aggs.iter().map(|(f, _, _)| *f).collect();
                if funcs.contains(&AggFunc::Avg) {
                    return Err(EngineError::Unsupported {
                        message: format!(
                            "view {}: AVG does not merge across shards \
                             (per-shard averages are not decomposable)",
                            def.name
                        ),
                    });
                }
                MergeKind::Agg {
                    group_len: spec.group_by.len(),
                    funcs,
                }
            }
        };
        Ok(MergeSpec { kind })
    }

    /// A bag-union merge plan (for views without a definition in hand).
    pub fn bag() -> Self {
        MergeSpec {
            kind: MergeKind::Bag { collapse: false },
        }
    }

    /// Merges per-shard result row sets into the global result.
    ///
    /// Order-independent in both the shard order and the row order
    /// within each shard; the output is sorted (by row, via [`Value`]'s
    /// total order) so merged reads are deterministic.
    pub fn merge(&self, parts: &[Vec<WRow>]) -> Result<Vec<WRow>, EngineError> {
        match &self.kind {
            MergeKind::Bag { collapse } => {
                let mut acc: BTreeMap<Row, i64> = BTreeMap::new();
                for part in parts {
                    for (row, w) in part {
                        *acc.entry(row.clone()).or_insert(0) += *w;
                    }
                }
                Ok(acc
                    .into_iter()
                    .filter(|&(_, w)| w != 0)
                    .map(|(row, w)| if *collapse { (row, 1) } else { (row, w) })
                    .collect())
            }
            MergeKind::Agg { group_len, funcs } => self.merge_agg(parts, *group_len, funcs),
        }
    }

    fn merge_agg(
        &self,
        parts: &[Vec<WRow>],
        group_len: usize,
        funcs: &[AggFunc],
    ) -> Result<Vec<WRow>, EngineError> {
        let arity = group_len + funcs.len();
        // Group key -> per-aggregate merged cell.
        let mut acc: BTreeMap<Vec<Value>, Vec<Value>> = BTreeMap::new();
        for part in parts {
            for (row, w) in part {
                if *w != 1 {
                    return Err(EngineError::Maintenance {
                        message: format!("aggregate result row has weight {w}, expected 1"),
                    });
                }
                let values = row.values();
                if values.len() != arity {
                    return Err(EngineError::Maintenance {
                        message: format!(
                            "aggregate result row arity {} != {group_len} group + {} agg cells",
                            values.len(),
                            funcs.len()
                        ),
                    });
                }
                let key = values[..group_len].to_vec();
                let cells = &values[group_len..];
                match acc.entry(key) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(cells.to_vec());
                    }
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        let merged = e.get_mut();
                        for (i, func) in funcs.iter().enumerate() {
                            merged[i] = merge_cell(*func, &merged[i], &cells[i])?;
                        }
                    }
                }
            }
        }
        Ok(acc
            .into_iter()
            .map(|(mut key, cells)| {
                key.extend(cells);
                (Row::new(key), 1)
            })
            .collect())
    }

    /// Order-independent content checksum of a merged row set, using
    /// the same formula as `MaterializedView::result_checksum`.
    pub fn checksum(rows: &[WRow]) -> u64 {
        aivm_engine::rows_checksum(rows)
    }
}

/// Folds one aggregate cell from another shard into the running merge.
///
/// `Null` means "no qualifying input on that shard" for `SUM`/`MIN`/
/// `MAX` and acts as the identity; `COUNT` never produces `Null`.
fn merge_cell(func: AggFunc, a: &Value, b: &Value) -> Result<Value, EngineError> {
    match func {
        AggFunc::Count => match (a, b) {
            (Value::Int(x), Value::Int(y)) => Ok(Value::Int(x + y)),
            _ => Err(EngineError::Maintenance {
                message: format!("COUNT cells must be Int, got {a:?} / {b:?}"),
            }),
        },
        AggFunc::Sum => match (a, b) {
            (Value::Null, other) | (other, Value::Null) => Ok(other.clone()),
            (Value::Float(x), Value::Float(y)) => Ok(Value::Float(x + y)),
            _ => Err(EngineError::Maintenance {
                message: format!("SUM cells must be Float or Null, got {a:?} / {b:?}"),
            }),
        },
        AggFunc::Min | AggFunc::Max => match (a, b) {
            (Value::Null, other) | (other, Value::Null) => Ok(other.clone()),
            (x, y) => {
                let pick_a = if func == AggFunc::Min { x <= y } else { x >= y };
                Ok(if pick_a { x.clone() } else { y.clone() })
            }
        },
        AggFunc::Avg => Err(EngineError::Unsupported {
            message: "AVG does not merge across shards".into(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivm_engine::fxhash;
    use aivm_engine::AggSpec;
    use aivm_engine::Expr;

    fn agg_def(group_by: Vec<usize>, funcs: Vec<AggFunc>) -> ViewDef {
        ViewDef {
            name: "v".into(),
            tables: vec!["t".into()],
            join_preds: vec![],
            filters: vec![None],
            residual: None,
            projection: None,
            aggregate: Some(AggSpec {
                group_by,
                aggs: funcs
                    .into_iter()
                    .map(|f| (f, Expr::Col(0), "a".into()))
                    .collect(),
            }),
            distinct: false,
        }
    }

    fn row(vals: Vec<Value>) -> Row {
        Row::new(vals)
    }

    #[test]
    fn scalar_min_merges_to_global_min() {
        let spec = MergeSpec::from_def(&agg_def(vec![], vec![AggFunc::Min])).unwrap();
        let parts = vec![
            vec![(row(vec![Value::Float(7.5)]), 1)],
            vec![(row(vec![Value::Null]), 1)], // empty shard: default row
            vec![(row(vec![Value::Float(2.25)]), 1)],
        ];
        let merged = spec.merge(&parts).unwrap();
        assert_eq!(merged, vec![(row(vec![Value::Float(2.25)]), 1)]);

        // All shards empty: the default row survives.
        let parts = vec![vec![(row(vec![Value::Null]), 1)]; 4];
        let merged = spec.merge(&parts).unwrap();
        assert_eq!(merged, vec![(row(vec![Value::Null]), 1)]);
    }

    #[test]
    fn grouped_count_sum_merge() {
        let spec =
            MergeSpec::from_def(&agg_def(vec![0], vec![AggFunc::Count, AggFunc::Sum])).unwrap();
        let g = |k: i64, c: i64, s: Value| (row(vec![Value::Int(k), Value::Int(c), s]), 1);
        let parts = vec![
            vec![g(1, 2, Value::Float(10.0)), g(2, 1, Value::Float(5.0))],
            vec![g(1, 3, Value::Float(1.5)), g(3, 1, Value::Null)],
        ];
        let merged = spec.merge(&parts).unwrap();
        assert_eq!(
            merged,
            vec![
                g(1, 5, Value::Float(11.5)),
                g(2, 1, Value::Float(5.0)),
                g(3, 1, Value::Null),
            ]
        );
    }

    #[test]
    fn bag_union_consolidates_and_distinct_collapses() {
        let plain = MergeSpec::bag();
        let r1 = row(vec![Value::Int(1)]);
        let r2 = row(vec![Value::Int(2)]);
        let parts = vec![
            vec![(r1.clone(), 2), (r2.clone(), 1)],
            vec![(r1.clone(), 3)],
        ];
        let merged = plain.merge(&parts).unwrap();
        assert_eq!(merged, vec![(r1.clone(), 5), (r2.clone(), 1)]);

        let mut def = agg_def(vec![], vec![]);
        def.aggregate = None;
        def.distinct = true;
        let distinct = MergeSpec::from_def(&def).unwrap();
        let merged = distinct.merge(&parts).unwrap();
        assert_eq!(merged, vec![(r1, 1), (r2, 1)]);
    }

    #[test]
    fn avg_is_rejected() {
        assert!(MergeSpec::from_def(&agg_def(vec![], vec![AggFunc::Avg])).is_err());
    }

    #[test]
    fn checksum_is_order_independent_and_matches_formula() {
        let r1 = (row(vec![Value::Int(1)]), 2i64);
        let r2 = (row(vec![Value::Int(2)]), 1i64);
        let a = MergeSpec::checksum(&[r1.clone(), r2.clone()]);
        let b = MergeSpec::checksum(&[r2.clone(), r1.clone()]);
        assert_eq!(a, b);
        let manual =
            fxhash::hash_one(&(&r1.0, &r1.1)).wrapping_add(fxhash::hash_one(&(&r2.0, &r2.1)));
        assert_eq!(a, manual);
    }
}
