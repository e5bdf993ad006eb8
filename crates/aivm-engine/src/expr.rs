//! Scalar expressions evaluated over rows.

use crate::schema::Row;
use crate::value::Value;
use std::fmt;

/// A comparison operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Applies the comparison to an ordering.
    pub fn test(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// An arithmetic operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// A scalar expression over a row.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Column reference by position in the operator's input row.
    Col(usize),
    /// Literal value.
    Lit(Value),
    /// Comparison producing a boolean (`Int(0)`/`Int(1)`).
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Arithmetic on numeric values.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Logical conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
}

impl Expr {
    /// Column reference.
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Eq, Box::new(self), Box::new(other))
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    /// Evaluates against a row.
    pub fn eval(&self, row: &Row) -> Value {
        match self {
            Expr::Col(i) => row.get(*i).clone(),
            Expr::Lit(v) => v.clone(),
            Expr::Cmp(op, l, r) => {
                let lv = l.eval(row);
                let rv = r.eval(row);
                if lv.is_null() || rv.is_null() {
                    // SQL-style: comparisons with NULL are not true.
                    return Value::Int(0);
                }
                Value::Int(op.test(lv.cmp(&rv)) as i64)
            }
            Expr::Arith(op, l, r) => {
                let lv = l.eval(row);
                let rv = r.eval(row);
                match (lv.as_int(), rv.as_int()) {
                    (Some(a), Some(b)) => {
                        let v = match op {
                            ArithOp::Add => a.wrapping_add(b),
                            ArithOp::Sub => a.wrapping_sub(b),
                            ArithOp::Mul => a.wrapping_mul(b),
                            ArithOp::Div => {
                                if b == 0 {
                                    return Value::Null;
                                }
                                a.wrapping_div(b)
                            }
                        };
                        Value::Int(v)
                    }
                    _ => match (lv.as_float(), rv.as_float()) {
                        (Some(a), Some(b)) => {
                            let v = match op {
                                ArithOp::Add => a + b,
                                ArithOp::Sub => a - b,
                                ArithOp::Mul => a * b,
                                ArithOp::Div => a / b,
                            };
                            Value::Float(v)
                        }
                        _ => Value::Null,
                    },
                }
            }
            Expr::And(l, r) => Value::Int((l.eval_bool(row) && r.eval_bool(row)) as i64),
            Expr::Or(l, r) => Value::Int((l.eval_bool(row) || r.eval_bool(row)) as i64),
            Expr::Not(e) => Value::Int(!e.eval_bool(row) as i64),
        }
    }

    /// Evaluates as a predicate: any non-zero, non-null value is true.
    pub fn eval_bool(&self, row: &Row) -> bool {
        match self.eval(row) {
            Value::Null => false,
            Value::Int(i) => i != 0,
            Value::Float(f) => f != 0.0,
            Value::Str(s) => !s.is_empty(),
        }
    }

    /// Rewrites column references through an offset (used when an
    /// expression over a table's schema is evaluated against a join row
    /// where that table's columns start at `offset`).
    pub fn shift_cols(&self, offset: usize) -> Expr {
        self.remap_cols(&|i| i + offset)
    }

    /// Rewrites every column reference `i` to `map(i)` (used to rebase an
    /// expression over the canonical joined schema onto a pruned delta
    /// layout that carries only the live columns).
    pub fn remap_cols(&self, map: &dyn Fn(usize) -> usize) -> Expr {
        let pair = |l: &Expr, r: &Expr| (Box::new(l.remap_cols(map)), Box::new(r.remap_cols(map)));
        match self {
            Expr::Col(i) => Expr::Col(map(*i)),
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Cmp(op, l, r) => {
                let (l, r) = pair(l, r);
                Expr::Cmp(*op, l, r)
            }
            Expr::Arith(op, l, r) => {
                let (l, r) = pair(l, r);
                Expr::Arith(*op, l, r)
            }
            Expr::And(l, r) => {
                let (l, r) = pair(l, r);
                Expr::And(l, r)
            }
            Expr::Or(l, r) => {
                let (l, r) = pair(l, r);
                Expr::Or(l, r)
            }
            Expr::Not(e) => Expr::Not(Box::new(e.remap_cols(map))),
        }
    }

    /// Collects the referenced column indices.
    pub fn columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Col(i) => out.push(*i),
            Expr::Lit(_) => {}
            Expr::Cmp(_, l, r) | Expr::Arith(_, l, r) | Expr::And(l, r) | Expr::Or(l, r) => {
                l.columns(out);
                r.columns(out);
            }
            Expr::Not(e) => e.columns(out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    #[test]
    fn comparisons() {
        let r = row![5i64, "x"];
        assert!(Expr::col(0).eq(Expr::lit(5i64)).eval_bool(&r));
        assert!(
            Expr::Cmp(CmpOp::Lt, Box::new(Expr::col(0)), Box::new(Expr::lit(6i64))).eval_bool(&r)
        );
        assert!(Expr::col(1).eq(Expr::lit("x")).eval_bool(&r));
        assert!(!Expr::col(1).eq(Expr::lit("y")).eval_bool(&r));
    }

    #[test]
    fn arithmetic_int_and_float() {
        let r = row![6i64, 2.5f64];
        let add = Expr::Arith(
            ArithOp::Add,
            Box::new(Expr::col(0)),
            Box::new(Expr::lit(4i64)),
        );
        assert_eq!(add.eval(&r), Value::Int(10));
        let mixed = Expr::Arith(ArithOp::Mul, Box::new(Expr::col(0)), Box::new(Expr::col(1)));
        assert_eq!(mixed.eval(&r), Value::Float(15.0));
        let div0 = Expr::Arith(
            ArithOp::Div,
            Box::new(Expr::col(0)),
            Box::new(Expr::lit(0i64)),
        );
        assert!(div0.eval(&r).is_null());
    }

    #[test]
    fn boolean_connectives() {
        let r = row![1i64];
        let t = Expr::col(0).eq(Expr::lit(1i64));
        let f = Expr::col(0).eq(Expr::lit(2i64));
        assert!(t.clone().and(t.clone()).eval_bool(&r));
        assert!(!t.clone().and(f.clone()).eval_bool(&r));
        assert!(Expr::Or(Box::new(f.clone()), Box::new(t.clone())).eval_bool(&r));
        assert!(Expr::Not(Box::new(f)).eval_bool(&r));
    }

    #[test]
    fn null_comparisons_are_false() {
        let r = Row::new(vec![Value::Null]);
        assert!(!Expr::col(0).eq(Expr::lit(1i64)).eval_bool(&r));
        assert!(
            !Expr::Cmp(CmpOp::Ne, Box::new(Expr::col(0)), Box::new(Expr::lit(1i64))).eval_bool(&r)
        );
    }

    #[test]
    fn shift_cols_rewrites_references() {
        let e = Expr::col(1).eq(Expr::lit(3i64));
        let shifted = e.shift_cols(2);
        let r = row![0i64, 0i64, 0i64, 3i64];
        assert!(shifted.eval_bool(&r));
    }

    #[test]
    fn remap_cols_rebases_onto_a_pruned_layout() {
        // Canonical columns 1 and 4 survive pruning as positions 0 and 1.
        let e = Expr::Not(Box::new(Expr::col(1).eq(Expr::col(4))));
        let rebased = e.remap_cols(&|c| if c == 1 { 0 } else { 1 });
        assert!(rebased.eval_bool(&row![7i64, 8i64]));
        assert!(!rebased.eval_bool(&row![7i64, 7i64]));
    }

    #[test]
    fn columns_collects_references() {
        let e = Expr::col(1)
            .eq(Expr::col(4))
            .and(Expr::col(2).eq(Expr::lit(1i64)));
        let mut cols = Vec::new();
        e.columns(&mut cols);
        cols.sort_unstable();
        assert_eq!(cols, vec![1, 2, 4]);
    }
}
