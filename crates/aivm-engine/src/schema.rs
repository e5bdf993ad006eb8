//! Table schemas and rows.

use crate::value::{DataType, Value};
use std::fmt;
use std::sync::Arc;

/// A column definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Column {
    /// Column name (unqualified).
    pub name: String,
    /// Declared type.
    pub ty: DataType,
}

/// An ordered list of columns shared by all rows of a table or operator
/// output. Cheap to clone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schema {
    columns: Arc<Vec<Column>>,
}

impl Schema {
    /// Builds a schema from `(name, type)` pairs.
    pub fn new(cols: Vec<(&str, DataType)>) -> Self {
        Schema {
            columns: Arc::new(
                cols.into_iter()
                    .map(|(name, ty)| Column {
                        name: name.to_string(),
                        ty,
                    })
                    .collect(),
            ),
        }
    }

    /// Builds a schema from owned columns.
    pub fn from_columns(columns: Vec<Column>) -> Self {
        Schema {
            columns: Arc::new(columns),
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Column definitions.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Index of the column with the given name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Concatenation of two schemas (join output).
    pub fn concat(&self, other: &Schema) -> Schema {
        let mut cols = (*self.columns).clone();
        cols.extend(other.columns.iter().cloned());
        Schema {
            columns: Arc::new(cols),
        }
    }

    /// Type-checks a row against this schema.
    pub fn check_row(&self, row: &Row) -> bool {
        row.len() == self.arity()
            && row
                .values()
                .iter()
                .zip(self.columns.iter())
                .all(|(v, c)| v.is_null() || v.data_type() == Some(c.ty))
    }
}

/// An immutable row. Cheap to clone (shared backing storage), hashable
/// and ordered so rows can key hash maps and ordered multisets.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Row(Arc<[Value]>);

impl Row {
    /// Builds a row from values.
    pub fn new(values: Vec<Value>) -> Self {
        Row(values.into())
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the empty (zero-arity) row.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The cell at `i`.
    pub fn get(&self, i: usize) -> &Value {
        &self.0[i]
    }

    /// All cells.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Concatenates two rows (join output).
    pub fn concat(&self, other: &Row) -> Row {
        let mut v = Vec::with_capacity(self.len() + other.len());
        v.extend_from_slice(&self.0);
        v.extend_from_slice(&other.0);
        Row(v.into())
    }

    /// Projects the virtual concatenation `self ++ other` onto the given
    /// indices without building it (pruned join output: one allocation
    /// holding only the picked cells).
    pub fn splice(&self, other: &Row, picks: &[usize]) -> Row {
        let n = self.len();
        let cell = |&i: &usize| if i < n { &self.0[i] } else { &other.0[i - n] };
        Row(picks.iter().map(|i| cell(i).clone()).collect())
    }

    /// Projects the row onto the given column indices.
    pub fn project(&self, indices: &[usize]) -> Row {
        Row(indices.iter().map(|&i| self.0[i].clone()).collect())
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Builds a row from anything convertible to values.
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::schema::Row::new(vec![$($crate::value::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_lookup_and_arity() {
        let s = Schema::new(vec![("id", DataType::Int), ("name", DataType::Str)]);
        assert_eq!(s.arity(), 2);
        assert_eq!(s.index_of("name"), Some(1));
        assert_eq!(s.index_of("missing"), None);
    }

    #[test]
    fn schema_concat_preserves_order() {
        let a = Schema::new(vec![("x", DataType::Int)]);
        let b = Schema::new(vec![("y", DataType::Float)]);
        let c = a.concat(&b);
        assert_eq!(c.arity(), 2);
        assert_eq!(c.index_of("x"), Some(0));
        assert_eq!(c.index_of("y"), Some(1));
    }

    #[test]
    fn row_macro_and_projection() {
        let r = row![1i64, 2.5f64, "abc"];
        assert_eq!(r.len(), 3);
        assert_eq!(r.get(2), &Value::str("abc"));
        let p = r.project(&[2, 0]);
        assert_eq!(p, row!["abc", 1i64]);
    }

    #[test]
    fn row_concat() {
        let r = row![1i64].concat(&row!["x"]);
        assert_eq!(r, row![1i64, "x"]);
    }

    #[test]
    fn row_splice_picks_from_the_virtual_concatenation() {
        let (l, r) = (row![1i64, 2i64], row!["x", "y"]);
        assert_eq!(l.splice(&r, &[3, 0]), row!["y", 1i64]);
        assert_eq!(l.splice(&r, &[0, 1, 2, 3]), l.concat(&r));
        assert!(l.splice(&r, &[]).is_empty());
    }

    #[test]
    fn check_row_validates_types() {
        let s = Schema::new(vec![("id", DataType::Int), ("w", DataType::Float)]);
        assert!(s.check_row(&row![1i64, 0.5f64]));
        assert!(!s.check_row(&row![1i64, "oops"]));
        assert!(!s.check_row(&row![1i64]));
    }

    #[test]
    fn rows_are_hashable_and_ordered() {
        use std::collections::{BTreeSet, HashSet};
        let mut hs = HashSet::new();
        hs.insert(row![1i64, "a"]);
        assert!(hs.contains(&row![1i64, "a"]));
        let mut bs = BTreeSet::new();
        bs.insert(row![2i64]);
        bs.insert(row![1i64]);
        assert_eq!(bs.iter().next(), Some(&row![1i64]));
    }
}
