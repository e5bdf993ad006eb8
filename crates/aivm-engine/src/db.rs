//! The database: a catalog of named tables plus modification application.

use crate::delta::Modification;
use crate::error::EngineError;
use crate::index::RowId;
use crate::schema::{Row, Schema};
use crate::table::Table;
use std::collections::HashMap;
use std::sync::Arc;

/// Identifier of a table within a [`Database`].
pub type TableId = usize;

/// An in-memory multi-table database.
///
/// Modifications are applied to base tables immediately (§2 of the
/// paper); view-side deferral happens in the delta tables owned by each
/// materialized view, not here.
///
/// Tables are held behind [`Arc`] with copy-on-write semantics: cloning
/// a `Database` shares every table, and only the tables actually
/// mutated afterwards are deep-copied (first write wins the copy). The
/// measurement harness clones the database once per trial, so trials
/// that touch one table no longer pay to duplicate the others.
#[derive(Clone, Debug, Default)]
pub struct Database {
    tables: Vec<Arc<Table>>,
    names: HashMap<String, TableId>,
    /// Optional per-table key column used to locate rows when applying
    /// value-based deletes/updates.
    keys: HashMap<TableId, usize>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a table, returning its id.
    pub fn create_table(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
    ) -> Result<TableId, EngineError> {
        let name = name.into();
        if self.names.contains_key(&name) {
            return Err(EngineError::Unsupported {
                message: format!("table {name} already exists"),
            });
        }
        let id = self.tables.len();
        self.tables.push(Arc::new(Table::new(name.clone(), schema)));
        self.names.insert(name, id);
        Ok(id)
    }

    /// Declares `column` as the locate-key for value-based deletes and
    /// updates of this table. Typically the primary key; pair it with a
    /// hash index for O(1) application.
    ///
    /// The column's values must be unique among live rows: with
    /// duplicates, deletes/updates locate the *first* row carrying the
    /// key, which may not be the intended victim.
    pub fn set_key_column(&mut self, table: TableId, column: usize) {
        self.keys.insert(table, column);
    }

    /// The declared locate-key column of a table, if any.
    pub fn key_column(&self, table: TableId) -> Option<usize> {
        self.keys.get(&table).copied()
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Resolves a table name.
    pub fn table_id(&self, name: &str) -> Result<TableId, EngineError> {
        self.names
            .get(name)
            .copied()
            .ok_or_else(|| EngineError::NoSuchTable {
                name: name.to_string(),
            })
    }

    /// The table with the given id.
    ///
    /// # Panics
    /// Panics when `id` is out of range (ids come from this database).
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id]
    }

    /// Mutable access to a table. When the table is still shared with a
    /// clone of this database, this is the copy-on-write point.
    pub fn table_mut(&mut self, id: TableId) -> &mut Table {
        Arc::make_mut(&mut self.tables[id])
    }

    /// Convenience: table by name.
    pub fn table_by_name(&self, name: &str) -> Result<&Table, EngineError> {
        Ok(self.table(self.table_id(name)?))
    }

    /// Applies a modification to its base table and returns the affected
    /// row id. Deletes and updates locate the victim row via the table's
    /// key column when one is declared (a full-row scan otherwise), and
    /// the located row must equal the modification's old row: anything
    /// else is rejected with [`EngineError::StaleRow`] before the table
    /// is touched.
    pub fn apply(&mut self, table: TableId, m: &Modification) -> Result<RowId, EngineError> {
        match m {
            Modification::Insert(row) => self.table_mut(table).insert(row.clone()),
            Modification::Delete(row) => {
                let id = self.locate(table, row)?;
                self.table_mut(table).delete(id)?;
                Ok(id)
            }
            Modification::Update { old, new } => {
                let id = self.locate(table, old)?;
                self.table_mut(table).update(id, new.clone())?;
                Ok(id)
            }
        }
    }

    /// An order-independent checksum of the database's logical content.
    ///
    /// Per table, live rows are hashed individually and combined with a
    /// wrapping sum, so the checksum is invariant to row ids, insertion
    /// order and tombstoned slots — a restored snapshot checksums equal
    /// to its source even though rows were re-inserted densely. Built on
    /// the seedless [`crate::fxhash`], so values are stable across runs
    /// and processes; crash-recovery tests compare them between a
    /// recovered and an uncrashed database.
    pub fn content_checksum(&self) -> u64 {
        let mut acc: u64 = 0;
        for (id, table) in self.tables.iter().enumerate() {
            let mut rows: u64 = 0;
            for (_, row) in table.iter() {
                rows = rows.wrapping_add(crate::fxhash::hash_one(row));
            }
            acc = acc.wrapping_add(crate::fxhash::hash_one(&(
                table.name(),
                id,
                table.len() as u64,
                rows,
            )));
        }
        acc
    }

    /// Finds the live row equal to `row`, looked up by the declared key
    /// column. The key only finds the candidate: a replayed or
    /// reordered modification names an old row the key now maps to
    /// something else, and acting on it would hand every dependent view
    /// a delta the table never saw.
    fn locate(&self, table: TableId, row: &Row) -> Result<RowId, EngineError> {
        let t = &self.tables[table];
        let found = match self.keys.get(&table) {
            Some(&key_col) => t
                .find_by(key_col, row.get(key_col))
                .filter(|&id| t.get(id) == Some(row)),
            None => t.iter().find(|(_, r)| *r == row).map(|(id, _)| id),
        };
        found.ok_or_else(|| EngineError::StaleRow {
            table: t.name().to_string(),
            row: format!("{row:?}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexKind;
    use crate::row;
    use crate::value::{DataType, Value};

    fn db() -> (Database, TableId) {
        let mut db = Database::new();
        let t = db
            .create_table(
                "items",
                Schema::new(vec![("id", DataType::Int), ("price", DataType::Float)]),
            )
            .unwrap();
        db.table_mut(t).create_index(IndexKind::Hash, 0).unwrap();
        db.set_key_column(t, 0);
        (db, t)
    }

    #[test]
    fn create_and_resolve_tables() {
        let (db, t) = db();
        assert_eq!(db.table_id("items").unwrap(), t);
        assert!(db.table_id("nope").is_err());
        assert_eq!(db.table(t).name(), "items");
    }

    #[test]
    fn duplicate_table_rejected() {
        let (mut db, _) = db();
        assert!(db
            .create_table("items", Schema::new(vec![("x", DataType::Int)]))
            .is_err());
    }

    #[test]
    fn apply_insert_delete_update() {
        let (mut db, t) = db();
        db.apply(t, &Modification::Insert(row![1i64, 10.0f64]))
            .unwrap();
        db.apply(t, &Modification::Insert(row![2i64, 20.0f64]))
            .unwrap();
        assert_eq!(db.table(t).len(), 2);

        db.apply(
            t,
            &Modification::Update {
                old: row![1i64, 10.0f64],
                new: row![1i64, 15.0f64],
            },
        )
        .unwrap();
        let id = db.table(t).find_by(0, &Value::Int(1)).unwrap();
        assert_eq!(db.table(t).get(id).unwrap().get(1), &Value::Float(15.0));

        db.apply(t, &Modification::Delete(row![2i64, 20.0f64]))
            .unwrap();
        assert_eq!(db.table(t).len(), 1);
    }

    #[test]
    fn delete_missing_row_errors() {
        let (mut db, t) = db();
        let err = db
            .apply(t, &Modification::Delete(row![9i64, 1.0f64]))
            .unwrap_err();
        assert!(matches!(err, EngineError::StaleRow { .. }));
    }

    #[test]
    fn content_checksum_ignores_row_ids_and_order() {
        let (mut a, ta) = db();
        let (mut b, tb) = db();
        // Same logical content via different histories: `a` inserts
        // 1,2,3; `b` inserts 3,9,2,1 then deletes 9 (leaving a
        // tombstone and different ids/order).
        for i in [1i64, 2, 3] {
            a.apply(ta, &Modification::Insert(row![i, i as f64]))
                .unwrap();
        }
        for i in [3i64, 9, 2, 1] {
            b.apply(tb, &Modification::Insert(row![i, i as f64]))
                .unwrap();
        }
        b.apply(tb, &Modification::Delete(row![9i64, 9.0f64]))
            .unwrap();
        assert_eq!(a.content_checksum(), b.content_checksum());
        // Content changes move the checksum.
        a.apply(ta, &Modification::Insert(row![4i64, 4.0f64]))
            .unwrap();
        assert_ne!(a.content_checksum(), b.content_checksum());
    }

    #[test]
    fn locate_without_key_column_scans_by_full_row() {
        let mut db = Database::new();
        let t = db
            .create_table("raw", Schema::new(vec![("v", DataType::Int)]))
            .unwrap();
        db.apply(t, &Modification::Insert(row![7i64])).unwrap();
        db.apply(t, &Modification::Delete(row![7i64])).unwrap();
        assert!(db.table(t).is_empty());
    }
}
