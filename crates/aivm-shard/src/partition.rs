//! Key-based row → shard routing.
//!
//! # The co-location invariant
//!
//! Sharding a join view only works without cross-shard compensation if
//! every join result row can be produced entirely inside one shard.
//! We guarantee that by partitioning each *partitioned* table on a
//! single column and requiring those columns to be pairwise connected
//! by the view's equi-join predicates: if `ps.suppkey = s.suppkey` is a
//! join predicate and both tables hash that column with the same seed,
//! then matching rows land on the same shard by construction. Tables
//! with no partition column (dimension tables like `nation`/`region`)
//! are *replicated* — every shard holds a full copy and modifications
//! broadcast to all shards.
//!
//! [`Partitioner::validate`] checks the invariant structurally against
//! a [`ViewDef`]: every partitioned table's partition column must be
//! equated (directly or transitively through other partition columns)
//! with every other partitioned table's partition column. This is a
//! connected-component check over the join graph restricted to
//! partition-key columns.

use aivm_engine::fxhash;
use aivm_engine::{EngineError, Modification, Row, Value, ViewDef};

/// Where a modification must be applied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// Exactly one shard owns the affected row.
    One(usize),
    /// The table is replicated; every shard applies the modification.
    All,
}

/// Deterministic, seedless key → shard mapping plus the per-table
/// partition-column map.
///
/// Table positions follow the view's canonical table order
/// ([`ViewDef::tables`]), which is also the position space used by
/// `MaintenanceRuntime` ingest calls.
#[derive(Clone, Debug)]
pub struct Partitioner {
    shards: usize,
    /// Per view-table position: the column the table is hash-partitioned
    /// on, or `None` when the table is replicated to every shard.
    key_cols: Vec<Option<usize>>,
}

impl Partitioner {
    /// Builds a partitioner over `shards` shards with the given
    /// per-table partition columns.
    pub fn new(shards: usize, key_cols: Vec<Option<usize>>) -> Result<Self, EngineError> {
        if shards == 0 {
            return Err(EngineError::Maintenance {
                message: "shard count must be at least 1".into(),
            });
        }
        Ok(Partitioner { shards, key_cols })
    }

    /// The degenerate single-shard partitioner: everything routes to
    /// shard 0, so sharded and unsharded serving share one code path.
    pub fn single(n_tables: usize) -> Self {
        Partitioner {
            shards: 1,
            key_cols: vec![None; n_tables],
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Per-table partition columns (view canonical table order).
    pub fn key_cols(&self) -> &[Option<usize>] {
        &self.key_cols
    }

    /// Checks the co-location invariant against `def` (see module docs).
    ///
    /// Fails unless every partitioned table's key column is transitively
    /// equated with every other partitioned table's key column by the
    /// view's equi-join predicates. With one shard, or at most one
    /// partitioned table, the invariant is vacuous.
    pub fn validate(&self, def: &ViewDef) -> Result<(), EngineError> {
        if self.key_cols.len() != def.tables.len() {
            return Err(EngineError::Maintenance {
                message: format!(
                    "partitioner covers {} tables but view {} has {}",
                    self.key_cols.len(),
                    def.name,
                    def.tables.len()
                ),
            });
        }
        if self.shards == 1 {
            return Ok(());
        }
        let partitioned: Vec<usize> = (0..self.key_cols.len())
            .filter(|&t| self.key_cols[t].is_some())
            .collect();
        if partitioned.len() <= 1 {
            return Ok(());
        }
        // Union-find over partitioned tables, joined through predicates
        // that equate partition-key columns on both sides.
        let mut parent: Vec<usize> = (0..def.tables.len()).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for pred in &def.join_preds {
            let (lt, lc) = pred.left;
            let (rt, rc) = pred.right;
            if self.key_cols.get(lt).copied().flatten() == Some(lc)
                && self.key_cols.get(rt).copied().flatten() == Some(rc)
            {
                let (a, b) = (find(&mut parent, lt), find(&mut parent, rt));
                parent[a] = b;
            }
        }
        let root = find(&mut parent, partitioned[0]);
        for &t in &partitioned[1..] {
            if find(&mut parent, t) != root {
                return Err(EngineError::Maintenance {
                    message: format!(
                        "co-location invariant violated: partitioned tables {} and {} \
                         are not connected by join predicates over their partition keys",
                        def.tables[partitioned[0]], def.tables[t]
                    ),
                });
            }
        }
        Ok(())
    }

    /// The shard owning a partition-key value. Deterministic and
    /// seedless ([`fxhash`]), so every process maps identically.
    pub fn shard_of_key(&self, key: &Value) -> usize {
        (fxhash::hash_one(key) % self.shards as u64) as usize
    }

    /// The shard owning `row` of the table at view position `table`,
    /// or `Route::All` when that table is replicated.
    pub fn route_row(&self, table: usize, row: &Row) -> Result<Route, EngineError> {
        match self.key_cols.get(table) {
            None => Err(EngineError::Maintenance {
                message: format!("table position {table} out of range for partitioner"),
            }),
            Some(None) => Ok(Route::All),
            Some(Some(col)) => {
                let values = row.values();
                let key = values.get(*col).ok_or_else(|| EngineError::Maintenance {
                    message: format!(
                        "row arity {} lacks partition column {col} (table position {table})",
                        values.len()
                    ),
                })?;
                Ok(Route::One(self.shard_of_key(key)))
            }
        }
    }

    /// Routes a modification. For `Update`, the old and new rows must
    /// hash to the same shard — an update that moves a row across the
    /// partition boundary would need a distributed transaction, which
    /// this layer deliberately does not provide (callers should issue a
    /// delete + insert instead).
    pub fn route(&self, table: usize, m: &Modification) -> Result<Route, EngineError> {
        match m {
            Modification::Insert(row) | Modification::Delete(row) => self.route_row(table, row),
            Modification::Update { old, new } => {
                let r_old = self.route_row(table, old)?;
                let r_new = self.route_row(table, new)?;
                if r_old != r_new {
                    return Err(EngineError::Maintenance {
                        message: format!(
                            "update to table position {table} moves a row across shards \
                             ({r_old:?} -> {r_new:?}); repartitioning updates are not \
                             supported — issue delete + insert"
                        ),
                    });
                }
                Ok(r_old)
            }
        }
    }

    /// Splits an ordered batch into per-shard sub-batches, preserving
    /// relative order within each shard. Broadcast modifications are
    /// cloned into every shard's sub-batch. Returns one `(shard,
    /// mods)` entry per shard that received at least one modification.
    pub fn split_batch(
        &self,
        table: usize,
        mods: Vec<Modification>,
    ) -> Result<Vec<(usize, Vec<Modification>)>, EngineError> {
        if self.shards == 1 {
            // One shard owns every row: nothing to hash, nothing to
            // clone for broadcast tables.
            return Ok(if mods.is_empty() {
                Vec::new()
            } else {
                vec![(0, mods)]
            });
        }
        let mut per_shard: Vec<Vec<Modification>> = vec![Vec::new(); self.shards];
        for m in mods {
            match self.route(table, &m)? {
                Route::One(s) => per_shard[s].push(m),
                Route::All => {
                    for bucket in per_shard.iter_mut() {
                        bucket.push(m.clone());
                    }
                }
            }
        }
        Ok(per_shard
            .into_iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivm_engine::JoinPred;

    fn two_table_def(preds: Vec<JoinPred>) -> ViewDef {
        ViewDef {
            name: "v".into(),
            tables: vec!["r".into(), "s".into()],
            join_preds: preds,
            filters: vec![None, None],
            residual: None,
            projection: None,
            aggregate: None,
            distinct: false,
        }
    }

    #[test]
    fn validate_accepts_key_connected_join() {
        let def = two_table_def(vec![JoinPred {
            left: (0, 0),
            right: (1, 2),
        }]);
        let p = Partitioner::new(4, vec![Some(0), Some(2)]).unwrap();
        p.validate(&def).unwrap();
    }

    #[test]
    fn validate_rejects_disconnected_partition_keys() {
        // Join equates r.0 = s.2, but s claims to be partitioned on 1.
        let def = two_table_def(vec![JoinPred {
            left: (0, 0),
            right: (1, 2),
        }]);
        let p = Partitioner::new(4, vec![Some(0), Some(1)]).unwrap();
        assert!(p.validate(&def).is_err());
    }

    #[test]
    fn validate_vacuous_with_one_shard_or_one_partitioned_table() {
        let def = two_table_def(vec![]);
        Partitioner::new(1, vec![Some(0), Some(1)])
            .unwrap()
            .validate(&def)
            .unwrap();
        Partitioner::new(8, vec![Some(0), None])
            .unwrap()
            .validate(&def)
            .unwrap();
    }

    #[test]
    fn equal_keys_land_on_equal_shards() {
        let p = Partitioner::new(8, vec![Some(1), Some(0)]).unwrap();
        let r = Row::new(vec![Value::Str("x".into()), Value::Int(42)]);
        let s = Row::new(vec![Value::Int(42), Value::Float(1.0)]);
        let Route::One(a) = p.route_row(0, &r).unwrap() else {
            panic!("expected One")
        };
        let Route::One(b) = p.route_row(1, &s).unwrap() else {
            panic!("expected One")
        };
        assert_eq!(a, b);
    }

    #[test]
    fn repartitioning_update_is_rejected() {
        let p = Partitioner::new(64, vec![Some(0)]).unwrap();
        // Find two keys that hash to different shards.
        let (mut k1, mut k2) = (0i64, 1i64);
        while p.shard_of_key(&Value::Int(k1)) == p.shard_of_key(&Value::Int(k2)) {
            k2 += 1;
        }
        let m = Modification::Update {
            old: Row::new(vec![Value::Int(k1), Value::Int(0)]),
            new: Row::new(vec![Value::Int(k2), Value::Int(0)]),
        };
        assert!(p.route(0, &m).is_err());
        // Same key, changed payload: fine.
        k1 = 7;
        let m = Modification::Update {
            old: Row::new(vec![Value::Int(k1), Value::Int(0)]),
            new: Row::new(vec![Value::Int(k1), Value::Int(9)]),
        };
        assert!(matches!(p.route(0, &m).unwrap(), Route::One(_)));
    }

    #[test]
    fn split_batch_preserves_order_and_broadcasts() {
        let p = Partitioner::new(2, vec![Some(0), None]).unwrap();
        let mods: Vec<Modification> = (0..20)
            .map(|i| Modification::Insert(Row::new(vec![Value::Int(i), Value::Int(i * 10)])))
            .collect();
        let split = p.split_batch(0, mods.clone()).unwrap();
        let mut total = 0;
        for (shard, bucket) in &split {
            let mut last = -1i64;
            for m in bucket {
                let Modification::Insert(row) = m else {
                    panic!()
                };
                let Value::Int(k) = row.values()[0].clone() else {
                    panic!()
                };
                assert!(k > last, "order must be preserved within a shard");
                last = k;
                assert_eq!(p.shard_of_key(&Value::Int(k)), *shard);
                total += 1;
            }
        }
        assert_eq!(total, 20);

        // Replicated table: every shard sees the whole batch.
        let split = p
            .split_batch(1, vec![Modification::Insert(Row::new(vec![Value::Int(1)]))])
            .unwrap();
        assert_eq!(split.len(), 2);
    }
}
