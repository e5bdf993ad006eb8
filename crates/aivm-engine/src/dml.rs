//! DML statements: `INSERT`, `UPDATE`, `DELETE` over the SQL frontend.
//!
//! Statements compile to [`Modification`] lists *against the current
//! database state* — the currency of the deferred-maintenance machinery
//! — so a caller can apply them to base tables and route them into view
//! delta tables in one motion ([`execute_dml`], or
//! [`crate::registry::ViewRegistry::execute_sql`] for multi-view setups).
//!
//! Grammar:
//!
//! ```text
//! INSERT INTO table VALUES (expr [, expr]*) [, (…)]*
//! DELETE FROM table [WHERE predicate]
//! UPDATE table SET col = expr [, col = expr]* [WHERE predicate]
//! ```
//!
//! Predicates and expressions use the same dialect as `SELECT`
//! (comparisons, arithmetic, AND/OR/NOT); they may reference the
//! statement's table columns by name.

use crate::db::{Database, TableId};
use crate::delta::Modification;
use crate::error::EngineError;
use crate::expr::Expr;
use crate::schema::Row;
use crate::sql::{lex_sql, lower_single_table, PExprParser};

/// A parsed DML statement, resolved against the catalog.
#[derive(Clone, Debug)]
pub struct DmlStatement {
    /// Target base table.
    pub table: TableId,
    /// The modifications implied by the statement against the current
    /// database state, in application order.
    pub modifications: Vec<Modification>,
}

/// Parses and binds one DML statement against the current database
/// state, returning the modification list. Nothing is applied.
pub fn compile_dml(db: &Database, sql: &str) -> Result<DmlStatement, EngineError> {
    let toks = lex_sql(sql)?;
    let mut p = PExprParser::new(toks);
    if p.eat_keyword("insert") {
        p.expect_keyword("into")?;
        let table_name = p.ident()?;
        let table = db.table_id(&table_name)?;
        p.expect_keyword("values")?;
        let arity = db.table(table).schema().arity();
        let mut modifications = Vec::new();
        loop {
            p.expect_sym("(")?;
            let mut vals = Vec::with_capacity(arity);
            loop {
                let e = p.parse_additive()?;
                let lowered = lower_single_table(db, &table_name, &e)?;
                // VALUES rows have no input row: column references would
                // index into nothing.
                let mut cols = Vec::new();
                lowered.columns(&mut cols);
                if !cols.is_empty() {
                    return Err(EngineError::Unsupported {
                        message: "column references are not allowed in VALUES".into(),
                    });
                }
                vals.push(lowered.eval(&Row::new(vec![])));
                if !p.eat_sym(",") {
                    break;
                }
            }
            p.expect_sym(")")?;
            if vals.len() != arity {
                return Err(EngineError::SchemaMismatch {
                    table: table_name.clone(),
                });
            }
            modifications.push(Modification::Insert(Row::new(vals)));
            if !p.eat_sym(",") {
                break;
            }
        }
        p.finish()?;
        Ok(DmlStatement {
            table,
            modifications,
        })
    } else if p.eat_keyword("delete") {
        p.expect_keyword("from")?;
        let table_name = p.ident()?;
        let table = db.table_id(&table_name)?;
        let predicate = if p.eat_keyword("where") {
            let e = p.parse_or()?;
            Some(lower_single_table(db, &table_name, &e)?)
        } else {
            None
        };
        p.finish()?;
        let modifications = db
            .table(table)
            .iter()
            .filter(|(_, r)| predicate.as_ref().is_none_or(|f| f.eval_bool(r)))
            .map(|(_, r)| Modification::Delete(r.clone()))
            .collect();
        Ok(DmlStatement {
            table,
            modifications,
        })
    } else if p.eat_keyword("update") {
        let table_name = p.ident()?;
        let table = db.table_id(&table_name)?;
        p.expect_keyword("set")?;
        let schema = db.table(table).schema().clone();
        let mut assignments: Vec<(usize, Expr)> = Vec::new();
        loop {
            let col_name = p.ident()?;
            let col = schema
                .index_of(&col_name)
                .ok_or_else(|| EngineError::NoSuchColumn {
                    table: table_name.clone(),
                    column: col_name.clone(),
                })?;
            p.expect_sym("=")?;
            let e = p.parse_additive()?;
            assignments.push((col, lower_single_table(db, &table_name, &e)?));
            if !p.eat_sym(",") {
                break;
            }
        }
        let predicate = if p.eat_keyword("where") {
            let e = p.parse_or()?;
            Some(lower_single_table(db, &table_name, &e)?)
        } else {
            None
        };
        p.finish()?;
        let modifications = db
            .table(table)
            .iter()
            .filter(|(_, r)| predicate.as_ref().is_none_or(|f| f.eval_bool(r)))
            .map(|(_, old)| {
                let mut vals = old.values().to_vec();
                for (col, e) in &assignments {
                    vals[*col] = e.eval(old);
                }
                Modification::Update {
                    old: old.clone(),
                    new: Row::new(vals),
                }
            })
            .collect();
        Ok(DmlStatement {
            table,
            modifications,
        })
    } else {
        Err(EngineError::Parse {
            message: "expected INSERT, DELETE or UPDATE".into(),
        })
    }
}

/// Compiles and applies a DML statement to the base table, returning the
/// modifications so the caller can route them into view delta tables.
pub fn execute_dml(db: &mut Database, sql: &str) -> Result<DmlStatement, EngineError> {
    let stmt = compile_dml(db, sql)?;
    for m in &stmt.modifications {
        db.apply(stmt.table, m)?;
    }
    Ok(stmt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::Schema;
    use crate::value::{DataType, Value};

    fn db() -> Database {
        let mut db = Database::new();
        let t = db
            .create_table(
                "items",
                Schema::new(vec![
                    ("id", DataType::Int),
                    ("price", DataType::Float),
                    ("name", DataType::Str),
                ]),
            )
            .unwrap();
        db.set_key_column(t, 0);
        db
    }

    #[test]
    fn insert_multiple_rows() {
        let mut db = db();
        let stmt = execute_dml(
            &mut db,
            "INSERT INTO items VALUES (1, 9.5, 'bolt'), (2, 3.25, 'nut')",
        )
        .unwrap();
        assert_eq!(stmt.modifications.len(), 2);
        assert_eq!(db.table_by_name("items").unwrap().len(), 2);
    }

    #[test]
    fn insert_evaluates_expressions() {
        let mut db = db();
        execute_dml(&mut db, "INSERT INTO items VALUES (1 + 1, 2.5 * 2, 'x')").unwrap();
        let t = db.table_by_name("items").unwrap();
        let (_, r) = t.iter().next().unwrap();
        assert_eq!(r.get(0), &Value::Int(2));
        assert_eq!(r.get(1), &Value::Float(5.0));
    }

    #[test]
    fn update_with_column_references() {
        let mut db = db();
        execute_dml(
            &mut db,
            "INSERT INTO items VALUES (1, 10.0, 'a'), (2, 20.0, 'b')",
        )
        .unwrap();
        let stmt = execute_dml(&mut db, "UPDATE items SET price = price * 2 WHERE id = 1").unwrap();
        assert_eq!(stmt.modifications.len(), 1);
        match &stmt.modifications[0] {
            Modification::Update { old, new } => {
                assert_eq!(old.get(1), &Value::Float(10.0));
                assert_eq!(new.get(1), &Value::Float(20.0));
            }
            other => panic!("{other:?}"),
        }
        let t = db.table_by_name("items").unwrap();
        let id = t.find_by(0, &Value::Int(1)).unwrap();
        assert_eq!(t.get(id).unwrap().get(1), &Value::Float(20.0));
    }

    #[test]
    fn delete_with_and_without_predicate() {
        let mut db = db();
        execute_dml(
            &mut db,
            "INSERT INTO items VALUES (1, 1.0, 'a'), (2, 2.0, 'b'), (3, 3.0, 'c')",
        )
        .unwrap();
        let stmt = execute_dml(&mut db, "DELETE FROM items WHERE price > 1.5").unwrap();
        assert_eq!(stmt.modifications.len(), 2);
        assert_eq!(db.table_by_name("items").unwrap().len(), 1);
        execute_dml(&mut db, "DELETE FROM items").unwrap();
        assert!(db.table_by_name("items").unwrap().is_empty());
    }

    #[test]
    fn errors_are_typed() {
        let mut db = db();
        assert!(matches!(
            execute_dml(&mut db, "SELECT 1"),
            Err(EngineError::Parse { .. })
        ));
        assert!(matches!(
            execute_dml(&mut db, "INSERT INTO nope VALUES (1)"),
            Err(EngineError::NoSuchTable { .. })
        ));
        assert!(matches!(
            execute_dml(&mut db, "INSERT INTO items VALUES (1)"),
            Err(EngineError::SchemaMismatch { .. })
        ));
        assert!(matches!(
            execute_dml(&mut db, "UPDATE items SET zz = 1"),
            Err(EngineError::NoSuchColumn { .. })
        ));
        // Column references in VALUES are a typed error, not a panic.
        assert!(matches!(
            execute_dml(&mut db, "INSERT INTO items VALUES (id, 1.0, 'x')"),
            Err(EngineError::Unsupported { .. })
        ));
        // Arity is checked before application: nothing was applied.
        assert!(db.table_by_name("items").unwrap().is_empty());
    }

    #[test]
    fn compile_does_not_apply() {
        let mut db = db();
        execute_dml(&mut db, "INSERT INTO items VALUES (1, 1.0, 'a')").unwrap();
        let stmt = compile_dml(&db, "DELETE FROM items").unwrap();
        assert_eq!(stmt.modifications.len(), 1);
        assert_eq!(db.table_by_name("items").unwrap().len(), 1, "not applied");
        let row = row![1i64, 1.0f64, "a"];
        assert_eq!(stmt.modifications[0], Modification::Delete(row));
    }
}
