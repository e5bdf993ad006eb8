//! The synchronous pieces of sharding: splitting a database into
//! per-shard partitions and merging per-shard reads back into one
//! answer. Every operation on N shards built from these must be
//! observationally identical to the same operation on one unsharded
//! runtime over the union of the partitions (`shard_equivalence`
//! drives N runtimes through [`Partitioner::route`] and
//! [`merge_reads`] to check exactly that); the threaded
//! [`crate::ShardRouter`] does its own fan-out over the same pieces.

use aivm_engine::{Database, EngineError, TableId, WRow};
use aivm_serve::ReadResult;

use crate::error::ShardError;
use crate::merge::MergeSpec;
use crate::partition::Partitioner;

/// A merged read answer across shards.
#[derive(Clone, Debug)]
pub struct MergedRead {
    /// Re-aggregated result rows (sorted; see [`MergeSpec::merge`]).
    pub rows: Vec<WRow>,
    /// Order-independent checksum of `rows`, comparable to a single
    /// runtime's view checksum over the whole database.
    pub checksum: u64,
    /// Total pending modifications not reflected, summed over shards.
    pub lag: u64,
    /// The most expensive per-shard flush performed to serve the read
    /// (each individually bounded by that shard's budget `C_i`).
    pub flush_cost: f64,
    /// Whether any shard broke its `≤ C_i` guarantee.
    pub violated: bool,
}

/// Merges per-shard [`ReadResult`]s into one [`MergedRead`].
pub fn merge_reads(merge: &MergeSpec, results: &[ReadResult]) -> Result<MergedRead, EngineError> {
    let mut parts = Vec::with_capacity(results.len());
    let mut lag = 0u64;
    let mut flush_cost = 0.0f64;
    let mut violated = false;
    for r in results {
        let rows = r
            .rows
            .clone()
            .ok_or_else(|| EngineError::from(ShardError::UnmergeableRead))?;
        parts.push(rows);
        lag += r.lag;
        flush_cost = flush_cost.max(r.flush_cost);
        violated |= r.violated;
    }
    let rows = merge.merge(&parts)?;
    let checksum = MergeSpec::checksum(&rows);
    Ok(MergedRead {
        rows,
        checksum,
        lag,
        flush_cost,
        violated,
    })
}

/// Splits `db` into one database per shard: partitioned tables keep
/// only the rows whose key column hashes to the shard; replicated
/// tables (and any table not named in `tables`) are kept whole.
///
/// `tables` pairs each view-canonical table position's [`TableId`] with
/// the partitioner's position, i.e. `tables[p]` is the `TableId` of the
/// table at partitioner position `p`.
pub fn partition_database(
    db: &Database,
    tables: &[TableId],
    part: &Partitioner,
) -> Result<Vec<Database>, EngineError> {
    if tables.len() != part.key_cols().len() {
        return Err(ShardError::ShardCountMismatch {
            what: "table ids",
            got: tables.len(),
            want: part.key_cols().len(),
        }
        .into());
    }
    let mut out = Vec::with_capacity(part.shards());
    for shard in 0..part.shards() {
        let mut shard_db = db.clone();
        for (pos, &tid) in tables.iter().enumerate() {
            let Some(col) = part.key_cols()[pos] else {
                continue; // replicated: keep whole
            };
            let evict: Vec<_> = shard_db
                .table(tid)
                .iter()
                .filter(|(_, row)| part.shard_of_key(&row.values()[col]) != shard)
                .map(|(id, _)| id)
                .collect();
            let t = shard_db.table_mut(tid);
            for id in evict {
                t.delete(id)?;
            }
        }
        out.push(shard_db);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivm_engine::index::IndexKind;
    use aivm_engine::schema::Schema;
    use aivm_engine::value::DataType;
    use aivm_engine::{Row, Value};

    fn tiny_db() -> (Database, TableId) {
        let mut db = Database::new();
        let t = db
            .create_table(
                "t",
                Schema::new(vec![("k", DataType::Int), ("x", DataType::Float)]),
            )
            .unwrap();
        db.table_mut(t).create_index(IndexKind::Hash, 0).unwrap();
        for i in 0..100 {
            db.table_mut(t)
                .insert(Row::new(vec![Value::Int(i), Value::Float(i as f64)]))
                .unwrap();
        }
        (db, t)
    }

    #[test]
    fn partition_database_is_a_disjoint_cover() {
        let (db, t) = tiny_db();
        let part = Partitioner::new(4, vec![Some(0)]).unwrap();
        let shards = partition_database(&db, &[t], &part).unwrap();
        assert_eq!(shards.len(), 4);
        let total: usize = shards.iter().map(|d| d.table(t).len()).sum();
        assert_eq!(total, 100, "partitions must cover every row exactly once");
        for (i, d) in shards.iter().enumerate() {
            for (_, row) in d.table(t).iter() {
                assert_eq!(part.shard_of_key(&row.values()[0]), i);
            }
        }
    }

    #[test]
    fn replicated_tables_are_kept_whole() {
        let (db, t) = tiny_db();
        let part = Partitioner::new(3, vec![None]).unwrap();
        let shards = partition_database(&db, &[t], &part).unwrap();
        for d in &shards {
            assert_eq!(d.table(t).len(), 100);
        }
    }
}
