//! Expressions of the guarded-command DSL.

use crate::domain::Value;
use crate::error::ProtocolError;
use crate::locality::Locality;

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `%` (Euclidean remainder: result is always non-negative)
    Mod,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnOp {
    /// `!`
    Not,
    /// unary `-`
    Neg,
}

/// An expression over the read window of the representative process.
///
/// Variables are identified by their ring offset relative to `r`: `Var(-1)`
/// is `x[r-1]`, `Var(0)` is `x[r]`. Domain labels are resolved to their
/// numeric value at parse time, so evaluation only sees integers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expr {
    /// A window variable, by ring offset.
    Var(isize),
    /// An integer constant (possibly a resolved domain label).
    Const(i64),
    /// A binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// A unary operation.
    Unary(UnOp, Box<Expr>),
}

/// A runtime value of the expression language.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Val {
    /// An integer (domain values evaluate to their index).
    Int(i64),
    /// A boolean (comparisons and logical connectives).
    Bool(bool),
}

impl Val {
    fn as_int(self) -> Result<i64, ProtocolError> {
        match self {
            Val::Int(i) => Ok(i),
            Val::Bool(_) => Err(ProtocolError::Eval {
                message: "expected an integer, found a boolean".into(),
            }),
        }
    }

    fn as_bool(self) -> Result<bool, ProtocolError> {
        match self {
            Val::Bool(b) => Ok(b),
            Val::Int(_) => Err(ProtocolError::Eval {
                message: "expected a boolean, found an integer".into(),
            }),
        }
    }
}

/// The result of a checked `i64` operation, or the overflow error.
fn checked(v: Option<i64>) -> Result<Val, ProtocolError> {
    v.map(Val::Int).ok_or_else(|| ProtocolError::Eval {
        message: "integer overflow".into(),
    })
}

impl Expr {
    /// Evaluates the expression over a window valuation. Arithmetic is
    /// checked: a result outside `i64` is an error, never a wrapped value.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::Eval`] on type mismatches, division by zero
    /// (for `%`), integer overflow, or variable offsets outside the
    /// locality window.
    pub fn eval(&self, window: &[Value], locality: Locality) -> Result<Val, ProtocolError> {
        match self {
            Expr::Var(off) => {
                let idx = locality
                    .window_index(*off)
                    .ok_or_else(|| ProtocolError::Eval {
                        message: format!("variable offset {off} outside locality {locality}"),
                    })?;
                Ok(Val::Int(window[idx] as i64))
            }
            Expr::Const(c) => Ok(Val::Int(*c)),
            Expr::Unary(op, e) => {
                let v = e.eval(window, locality)?;
                match op {
                    UnOp::Not => Ok(Val::Bool(!v.as_bool()?)),
                    UnOp::Neg => checked(v.as_int()?.checked_neg()),
                }
            }
            Expr::Binary(op, l, r) => {
                // Short-circuit the logical connectives.
                match op {
                    BinOp::And => {
                        let lv = l.eval(window, locality)?.as_bool()?;
                        return if !lv {
                            Ok(Val::Bool(false))
                        } else {
                            Ok(Val::Bool(r.eval(window, locality)?.as_bool()?))
                        };
                    }
                    BinOp::Or => {
                        let lv = l.eval(window, locality)?.as_bool()?;
                        return if lv {
                            Ok(Val::Bool(true))
                        } else {
                            Ok(Val::Bool(r.eval(window, locality)?.as_bool()?))
                        };
                    }
                    _ => {}
                }
                let lv = l.eval(window, locality)?.as_int()?;
                let rv = r.eval(window, locality)?.as_int()?;
                let out = match op {
                    BinOp::Add => checked(lv.checked_add(rv))?,
                    BinOp::Sub => checked(lv.checked_sub(rv))?,
                    BinOp::Mul => checked(lv.checked_mul(rv))?,
                    BinOp::Mod => {
                        if rv == 0 {
                            return Err(ProtocolError::Eval {
                                message: "modulo by zero".into(),
                            });
                        }
                        checked(lv.checked_rem_euclid(rv))?
                    }
                    BinOp::Eq => Val::Bool(lv == rv),
                    BinOp::Ne => Val::Bool(lv != rv),
                    BinOp::Lt => Val::Bool(lv < rv),
                    BinOp::Le => Val::Bool(lv <= rv),
                    BinOp::Gt => Val::Bool(lv > rv),
                    BinOp::Ge => Val::Bool(lv >= rv),
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                };
                Ok(out)
            }
        }
    }

    /// Evaluates as a boolean guard.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::Eval`] if the expression is not boolean.
    pub fn eval_guard(&self, window: &[Value], locality: Locality) -> Result<bool, ProtocolError> {
        self.eval(window, locality)?.as_bool()
    }

    /// Evaluates as an integer (e.g. an assignment right-hand side).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::Eval`] if the expression is not an integer.
    pub fn eval_int(&self, window: &[Value], locality: Locality) -> Result<i64, ProtocolError> {
        self.eval(window, locality)?.as_int()
    }

    /// The set of ring offsets referenced by the expression.
    pub fn referenced_offsets(&self) -> Vec<isize> {
        let mut offs = Vec::new();
        self.collect_offsets(&mut offs);
        offs.sort_unstable();
        offs.dedup();
        offs
    }

    fn collect_offsets(&self, out: &mut Vec<isize>) {
        match self {
            Expr::Var(o) => out.push(*o),
            Expr::Const(_) => {}
            Expr::Unary(_, e) => e.collect_offsets(out),
            Expr::Binary(_, l, r) => {
                l.collect_offsets(out);
                r.collect_offsets(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(o: isize) -> Expr {
        Expr::Var(o)
    }

    fn c(v: i64) -> Expr {
        Expr::Const(v)
    }

    fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary(op, Box::new(l), Box::new(r))
    }

    fn uni() -> Locality {
        Locality::unidirectional()
    }

    #[test]
    fn arithmetic_and_comparison() {
        let e = bin(BinOp::Eq, bin(BinOp::Add, var(-1), var(0)), c(2));
        assert!(e.eval_guard(&[1, 1], uni()).unwrap());
        assert!(!e.eval_guard(&[0, 1], uni()).unwrap());
    }

    #[test]
    fn modulo_is_euclidean() {
        let e = bin(BinOp::Mod, bin(BinOp::Sub, var(0), c(1)), c(3));
        assert_eq!(e.eval_int(&[0, 0], uni()).unwrap(), 2); // (0-1) mod 3 = 2
    }

    #[test]
    fn modulo_by_zero_is_an_error() {
        let e = bin(BinOp::Mod, c(1), c(0));
        assert!(e.eval_int(&[0, 0], uni()).is_err());
    }

    /// Each arithmetic operator refuses a result outside `i64`.
    #[test]
    fn overflow_is_an_error_for_every_operator() {
        let (max, min) = (c(i64::MAX), c(i64::MIN));
        let cases = [
            ("+", bin(BinOp::Add, max.clone(), c(1))),
            ("-", bin(BinOp::Sub, min.clone(), c(1))),
            ("*", bin(BinOp::Mul, max.clone(), c(2))),
            ("%", bin(BinOp::Mod, min.clone(), c(-1))),
            ("unary -", Expr::Unary(UnOp::Neg, Box::new(min))),
        ];
        for (op, e) in cases {
            assert_eq!(
                e.eval_int(&[0, 0], uni()),
                Err(ProtocolError::Eval {
                    message: "integer overflow".into()
                }),
                "{op}"
            );
        }
        // The boundary values themselves still evaluate.
        assert_eq!(
            bin(BinOp::Sub, max, c(1)).eval_int(&[0, 0], uni()),
            Ok(i64::MAX - 1)
        );
    }

    #[test]
    fn short_circuit_avoids_type_errors() {
        // false && (1) — the RHS is ill-typed but must not be evaluated.
        let e = bin(BinOp::And, bin(BinOp::Eq, c(0), c(1)), c(1));
        assert!(!e.eval_guard(&[0, 0], uni()).unwrap());
        let e = bin(BinOp::Or, bin(BinOp::Eq, c(0), c(0)), c(1));
        assert!(e.eval_guard(&[0, 0], uni()).unwrap());
    }

    #[test]
    fn type_errors_are_reported() {
        let e = bin(BinOp::Add, bin(BinOp::Eq, c(0), c(0)), c(1));
        assert!(e.eval(&[0, 0], uni()).is_err());
        let e = Expr::Unary(UnOp::Not, Box::new(c(1)));
        assert!(e.eval(&[0, 0], uni()).is_err());
    }

    #[test]
    fn out_of_window_offset_is_an_error() {
        let e = var(1); // x[r+1] not readable on a unidirectional ring
        assert!(e.eval(&[0, 0], uni()).is_err());
    }

    #[test]
    fn referenced_offsets_dedup_sorted() {
        let e = bin(BinOp::Add, var(0), bin(BinOp::Add, var(-1), var(0)));
        assert_eq!(e.referenced_offsets(), vec![-1, 0]);
    }
}
