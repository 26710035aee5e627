//! Bound (executable) expressions.
//!
//! The SQL parser produces name-based ASTs (`crate::sql::ast::Expr`); the
//! planner *binds* them against an input schema, resolving column references
//! to positions and materialising uncorrelated `IN (SELECT …)` subqueries
//! into hash sets. The result is a [`BoundExpr`] evaluable against a row.

use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::value::Value;

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl BinOp {
    /// `true` for `= <> < <= > >=`.
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// The SQL spelling.
    pub fn sql(&self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql())
    }
}

/// An expression bound to a concrete input row layout.
#[derive(Clone, Debug)]
pub enum BoundExpr {
    /// Constant.
    Literal(Value),
    /// Input column by position.
    Column(usize),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<BoundExpr>,
        /// Right operand.
        right: Box<BoundExpr>,
    },
    /// Arithmetic negation.
    Neg(Box<BoundExpr>),
    /// Logical negation (three-valued).
    Not(Box<BoundExpr>),
    /// `expr [NOT] IN (set)` — the set comes from a list literal or a
    /// materialised uncorrelated subquery.
    InSet {
        /// Probe expression.
        expr: Box<BoundExpr>,
        /// Materialised membership set (shared: subqueries run once).
        set: Arc<HashSet<Value>>,
        /// `NOT IN` when true.
        negated: bool,
    },
}

impl BoundExpr {
    /// Evaluates against a row, by reference where possible: a bare
    /// column reads the row's cell and a literal reads the constant, with
    /// no clone; computed expressions return their owned value. Operand,
    /// predicate and aggregate-argument reads go through this entry point.
    pub fn eval_ref<'a>(&'a self, row: &'a [Value]) -> Result<Cow<'a, Value>> {
        match self {
            BoundExpr::Literal(v) => Ok(Cow::Borrowed(v)),
            BoundExpr::Column(i) => row
                .get(*i)
                .map(Cow::Borrowed)
                .ok_or_else(|| Error::Eval(format!("column index {i} out of bounds"))),
            _ => self.eval(row).map(Cow::Owned),
        }
    }

    /// Evaluates against a row into an owned value.
    pub fn eval(&self, row: &[Value]) -> Result<Value> {
        match self {
            BoundExpr::Literal(_) | BoundExpr::Column(_) => self.eval_ref(row).map(Cow::into_owned),
            BoundExpr::Binary { op, left, right } => {
                // Short-circuit three-valued AND/OR.
                match op {
                    BinOp::And => {
                        let l = left.eval_ref(row)?.as_bool();
                        if l == Some(false) {
                            return Ok(Value::Bool(false));
                        }
                        let r = right.eval_ref(row)?.as_bool();
                        return Ok(match (l, r) {
                            (_, Some(false)) => Value::Bool(false),
                            (Some(true), Some(true)) => Value::Bool(true),
                            _ => Value::Null,
                        });
                    }
                    BinOp::Or => {
                        let l = left.eval_ref(row)?.as_bool();
                        if l == Some(true) {
                            return Ok(Value::Bool(true));
                        }
                        let r = right.eval_ref(row)?.as_bool();
                        return Ok(match (l, r) {
                            (_, Some(true)) => Value::Bool(true),
                            (Some(false), Some(false)) => Value::Bool(false),
                            _ => Value::Null,
                        });
                    }
                    _ => {}
                }
                let l = left.eval_ref(row)?;
                let r = right.eval_ref(row)?;
                match op {
                    BinOp::Add => l.arith('+', &r),
                    BinOp::Sub => l.arith('-', &r),
                    BinOp::Mul => l.arith('*', &r),
                    BinOp::Div => l.arith('/', &r),
                    cmp => {
                        if l.is_null() || r.is_null() {
                            return Ok(Value::Null);
                        }
                        let ord = l.cmp_non_null(&r);
                        let out = match cmp {
                            BinOp::Eq => ord == std::cmp::Ordering::Equal,
                            BinOp::Ne => ord != std::cmp::Ordering::Equal,
                            BinOp::Lt => ord == std::cmp::Ordering::Less,
                            BinOp::Le => ord != std::cmp::Ordering::Greater,
                            BinOp::Gt => ord == std::cmp::Ordering::Greater,
                            BinOp::Ge => ord != std::cmp::Ordering::Less,
                            _ => unreachable!(),
                        };
                        Ok(Value::Bool(out))
                    }
                }
            }
            BoundExpr::Neg(inner) => {
                let v = inner.eval_ref(row)?;
                match v.as_ref() {
                    Value::Null => Ok(Value::Null),
                    Value::Int(i) => Ok(Value::Int(-i)),
                    Value::Float(f) => Ok(Value::Float(-f)),
                    other => Err(Error::Eval(format!("cannot negate {other}"))),
                }
            }
            BoundExpr::Not(inner) => Ok(match inner.eval_ref(row)?.as_bool() {
                Some(b) => Value::Bool(!b),
                None => Value::Null,
            }),
            BoundExpr::InSet { expr, set, negated } => {
                let probe = expr.eval_ref(row)?;
                if probe.is_null() {
                    return Ok(Value::Null);
                }
                let hit = set.contains(probe.as_ref());
                Ok(Value::Bool(hit != *negated))
            }
        }
    }

    /// Evaluates as a predicate: `true` only for a definite SQL TRUE
    /// (NULL filters out, per WHERE semantics).
    pub fn eval_predicate(&self, row: &[Value]) -> Result<bool> {
        Ok(self.eval_ref(row)?.as_bool() == Some(true))
    }

    /// Collects the input column indices this expression reads.
    pub fn referenced_columns(&self, out: &mut Vec<usize>) {
        match self {
            BoundExpr::Literal(_) => {}
            BoundExpr::Column(i) => out.push(*i),
            BoundExpr::Binary { left, right, .. } => {
                left.referenced_columns(out);
                right.referenced_columns(out);
            }
            BoundExpr::Neg(e) | BoundExpr::Not(e) => e.referenced_columns(out),
            BoundExpr::InSet { expr, .. } => expr.referenced_columns(out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(i: usize) -> BoundExpr {
        BoundExpr::Column(i)
    }

    fn lit(v: impl Into<Value>) -> BoundExpr {
        BoundExpr::Literal(v.into())
    }

    fn bin(op: BinOp, l: BoundExpr, r: BoundExpr) -> BoundExpr {
        BoundExpr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    #[test]
    fn arithmetic_over_row() {
        let row = vec![Value::Int(10), Value::Float(2.5)];
        let e = bin(BinOp::Mul, col(0), bin(BinOp::Add, col(1), lit(0.5)));
        assert_eq!(e.eval(&row).unwrap(), Value::Float(30.0));
    }

    #[test]
    fn comparisons_and_null() {
        let row = vec![Value::Int(5), Value::Null];
        assert_eq!(
            bin(BinOp::Gt, col(0), lit(3i64)).eval(&row).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            bin(BinOp::Eq, col(0), col(1)).eval(&row).unwrap(),
            Value::Null
        );
        assert!(!bin(BinOp::Eq, col(0), col(1)).eval_predicate(&row).unwrap());
    }

    #[test]
    fn three_valued_and_or() {
        let row = vec![Value::Null];
        let null_cmp = bin(BinOp::Eq, col(0), lit(1i64)); // NULL
                                                          // NULL AND FALSE = FALSE; NULL OR TRUE = TRUE; NULL AND TRUE = NULL.
        assert_eq!(
            bin(BinOp::And, null_cmp.clone(), lit(false))
                .eval(&row)
                .unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            bin(BinOp::Or, null_cmp.clone(), lit(true))
                .eval(&row)
                .unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            bin(BinOp::And, null_cmp.clone(), lit(true))
                .eval(&row)
                .unwrap(),
            Value::Null
        );
        assert_eq!(
            BoundExpr::Not(Box::new(null_cmp)).eval(&row).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn short_circuit_skips_errors() {
        // FALSE AND (1/0 = 1) must not error.
        let explode = bin(BinOp::Eq, bin(BinOp::Div, lit(1i64), lit(0i64)), lit(1i64));
        let e = bin(BinOp::And, lit(false), explode);
        assert_eq!(e.eval(&[]).unwrap(), Value::Bool(false));
    }

    #[test]
    fn in_set_membership() {
        let set: HashSet<Value> = [Value::Int(1), Value::Int(3)].into_iter().collect();
        let set = Arc::new(set);
        let e = BoundExpr::InSet {
            expr: Box::new(col(0)),
            set: set.clone(),
            negated: false,
        };
        assert_eq!(e.eval(&[Value::Int(3)]).unwrap(), Value::Bool(true));
        assert_eq!(e.eval(&[Value::Int(2)]).unwrap(), Value::Bool(false));
        assert_eq!(e.eval(&[Value::Null]).unwrap(), Value::Null);
        let not_in = BoundExpr::InSet {
            expr: Box::new(col(0)),
            set,
            negated: true,
        };
        assert_eq!(not_in.eval(&[Value::Int(2)]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn negation() {
        assert_eq!(
            BoundExpr::Neg(Box::new(lit(3i64))).eval(&[]).unwrap(),
            Value::Int(-3)
        );
        assert_eq!(
            BoundExpr::Neg(Box::new(lit(2.5))).eval(&[]).unwrap(),
            Value::Float(-2.5)
        );
        assert!(BoundExpr::Neg(Box::new(lit("x"))).eval(&[]).is_err());
    }

    #[test]
    fn eval_ref_borrows_columns_and_literals() {
        let row = vec![Value::Str("abc".into()), Value::Int(4)];
        assert!(
            matches!(col(0).eval_ref(&row).unwrap(), Cow::Borrowed(Value::Str(s)) if s == "abc")
        );
        assert!(matches!(
            lit(7i64).eval_ref(&row).unwrap(),
            Cow::Borrowed(Value::Int(7))
        ));
        let sum = bin(BinOp::Add, col(1), lit(1i64));
        assert!(matches!(
            sum.eval_ref(&row).unwrap(),
            Cow::Owned(Value::Int(5))
        ));
        assert!(col(2).eval_ref(&row).is_err());
    }

    #[test]
    fn referenced_columns_collects_all() {
        let e = bin(BinOp::Add, col(2), bin(BinOp::Mul, col(0), col(2)));
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        cols.sort_unstable();
        cols.dedup();
        assert_eq!(cols, vec![0, 2]);
    }
}
