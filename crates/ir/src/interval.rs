//! Interval analysis over integer index expressions.
//!
//! Used by the front end (crates/lang) to size allocations and infer the
//! regions of producers required by consumers, and by the interpreter to
//! validate that vectorized accesses stay in bounds.

use std::collections::HashMap;

use crate::expr::{BinOp, Expr};
use crate::symbol::Symbol;

/// A closed integer interval `[min, max]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Inclusive lower bound.
    pub min: i64,
    /// Inclusive upper bound.
    pub max: i64,
}

impl Interval {
    /// Creates an interval; swaps the endpoints if given in reverse order.
    #[must_use]
    pub fn new(a: i64, b: i64) -> Self {
        Interval {
            min: a.min(b),
            max: a.max(b),
        }
    }

    /// The single-point interval `[v, v]`.
    #[must_use]
    pub fn point(v: i64) -> Self {
        Interval { min: v, max: v }
    }

    /// Number of integers contained.
    #[must_use]
    pub fn extent(&self) -> i64 {
        self.max - self.min + 1
    }

    /// Smallest interval containing both.
    #[must_use]
    pub fn union(&self, other: &Interval) -> Interval {
        Interval {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// Whether `v` lies inside.
    #[must_use]
    pub fn contains(&self, v: i64) -> bool {
        self.min <= v && v <= self.max
    }

    fn add(self, o: Interval) -> Interval {
        Interval {
            min: self.min + o.min,
            max: self.max + o.max,
        }
    }

    fn sub(self, o: Interval) -> Interval {
        Interval {
            min: self.min - o.max,
            max: self.max - o.min,
        }
    }

    fn mul(self, o: Interval) -> Interval {
        let c = [
            self.min * o.min,
            self.min * o.max,
            self.max * o.min,
            self.max * o.max,
        ];
        Interval {
            min: *c.iter().min().unwrap(),
            max: *c.iter().max().unwrap(),
        }
    }
}

/// Environment mapping scalar variable names to their value ranges.
pub type VarRanges = HashMap<String, Interval>;

/// Computes a sound interval for an integer expression, covering **all
/// lanes** of vector expressions (ramps and broadcasts are enumerated
/// symbolically).
///
/// Returns `None` when the expression involves constructs the analysis does
/// not model (loads, calls, floats) or an unbound variable.
#[must_use]
pub fn bounds(e: &Expr, env: &VarRanges) -> Option<Interval> {
    bounds_with(e, &|name| env.get(name.as_str()).copied())
}

/// [`bounds`] with the variable ranges given by a function (`None` for an
/// unbound variable), for callers that know them without building a map.
#[must_use]
pub fn bounds_with(e: &Expr, range_of: &dyn Fn(Symbol) -> Option<Interval>) -> Option<Interval> {
    let bounds = |e: &Expr| bounds_with(e, range_of);
    match e {
        Expr::IntImm(v) => Some(Interval::point(*v)),
        Expr::Var(name, _) => range_of(*name),
        Expr::Cast(ty, v) if ty.elem.is_int() => bounds(v),
        Expr::Binary(op, a, b) => {
            let ia = bounds(a)?;
            let ib = bounds(b)?;
            match op {
                BinOp::Add => Some(ia.add(ib)),
                BinOp::Sub => Some(ia.sub(ib)),
                BinOp::Mul => Some(ia.mul(ib)),
                BinOp::Min => Some(Interval {
                    min: ia.min.min(ib.min),
                    max: ia.max.min(ib.max),
                }),
                BinOp::Max => Some(Interval {
                    min: ia.min.max(ib.min),
                    max: ia.max.max(ib.max),
                }),
                BinOp::Div => {
                    if ib.contains(0) {
                        None
                    } else {
                        let c = [
                            ia.min.div_euclid(ib.min),
                            ia.min.div_euclid(ib.max),
                            ia.max.div_euclid(ib.min),
                            ia.max.div_euclid(ib.max),
                        ];
                        Some(Interval {
                            min: *c.iter().min().unwrap(),
                            max: *c.iter().max().unwrap(),
                        })
                    }
                }
                BinOp::Mod => {
                    if ib.min <= 0 {
                        None
                    } else {
                        // Euclidean remainder by a positive divisor lies in
                        // [0, divisor-1].
                        Some(Interval {
                            min: 0,
                            max: ib.max - 1,
                        })
                    }
                }
                _ => None,
            }
        }
        Expr::Select(_, t, f) => {
            let it = bounds(t)?;
            let f = bounds(f)?;
            Some(it.union(&f))
        }
        Expr::Ramp {
            base,
            stride,
            lanes,
        } => {
            let ib = bounds(base)?;
            let is = bounds(stride)?;
            let steps = i64::from(*lanes) - 1;
            let last = ib.add(is.mul(Interval::point(steps)));
            Some(ib.union(&last))
        }
        Expr::Broadcast { value, .. } => bounds(value),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    fn env(pairs: &[(&str, i64, i64)]) -> VarRanges {
        pairs
            .iter()
            .map(|(n, a, b)| ((*n).to_string(), Interval::new(*a, *b)))
            .collect()
    }

    #[test]
    fn constants_and_vars() {
        let env = env(&[("x", 0, 9)]);
        assert_eq!(bounds(&int(5), &env), Some(Interval::point(5)));
        assert_eq!(bounds(&var("x"), &env), Some(Interval::new(0, 9)));
        assert_eq!(bounds(&var("missing"), &env), None);
    }

    #[test]
    fn affine_expressions() {
        let env = env(&[("x", 0, 9), ("y", -2, 2)]);
        let e = add(mul(var("x"), int(3)), var("y"));
        assert_eq!(bounds(&e, &env), Some(Interval::new(-2, 29)));
    }

    #[test]
    fn ramp_covers_all_lanes() {
        let env = env(&[("x", 0, 0)]);
        let e = ramp(var("x"), int(2), 8);
        assert_eq!(bounds(&e, &env), Some(Interval::new(0, 14)));
        // Negative stride.
        let e2 = ramp(int(10), int(-3), 4);
        assert_eq!(bounds(&e2, &env), Some(Interval::new(1, 10)));
    }

    #[test]
    fn nested_ramp_bounds() {
        // ramp(ramp(0,1,8), x8(1), 256): lanes (i,j) = j + i -> [0, 262].
        let inner = ramp(int(0), int(1), 8);
        let e = ramp(inner, bcast(int(1), 8), 256);
        assert_eq!(bounds(&e, &VarRanges::new()), Some(Interval::new(0, 262)));
    }

    #[test]
    fn mod_and_div() {
        let env = env(&[("x", 0, 100)]);
        assert_eq!(
            bounds(&modulo(var("x"), int(4)), &env),
            Some(Interval::new(0, 3))
        );
        assert_eq!(
            bounds(&div(var("x"), int(4)), &env),
            Some(Interval::new(0, 25))
        );
        assert_eq!(bounds(&div(var("x"), int(0)), &env), None);
    }

    #[test]
    fn min_max_select() {
        let env = env(&[("x", 0, 10)]);
        assert_eq!(
            bounds(&min(var("x"), int(4)), &env),
            Some(Interval::new(0, 4))
        );
        assert_eq!(
            bounds(&max(var("x"), int(4)), &env),
            Some(Interval::new(4, 10))
        );
        let s = select(lt(var("x"), int(5)), int(1), int(100));
        assert_eq!(bounds(&s, &env), Some(Interval::new(1, 100)));
    }

    #[test]
    fn extent_of_matrix_access() {
        // A 16x32 tile accessed with row stride 32: indices 0..511.
        let e = ramp(ramp(int(0), int(1), 32), bcast(int(32), 32), 16);
        assert_eq!(bounds(&e, &VarRanges::new()), Some(Interval::new(0, 511)));
    }

    #[test]
    fn interval_ops() {
        let a = Interval::new(3, 1);
        assert_eq!(a, Interval::new(1, 3));
        assert_eq!(a.extent(), 3);
        assert!(a.contains(2));
        assert!(!a.contains(4));
        assert_eq!(a.union(&Interval::point(10)), Interval::new(1, 10));
    }
}
