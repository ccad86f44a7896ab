//! Nested vectorization: replacing a loop with vector lanes.
//!
//! `widen_expr(e, v, min, n)` rewrites an expression so that the new lanes
//! for `v` form the *outermost* vector dimension — exactly Halide's nested
//! vectorization, which is what produces the multi-level `Ramp`/`Broadcast`
//! access patterns HARDBOILED matches on (paper Fig. 2/3).
//!
//! Integer index expressions that are affine in `v` widen into a single
//! `Ramp` with a (possibly vector) stride, giving the canonical nested
//! forms; everything else widens structurally and pointwise. Loops whose
//! bodies use `v % c` / `v / c` (the VNNI layout idiom) are first decomposed
//! into two nested lanes `v = c·v1 + v0`.
//!
//! [`widen_expr`], [`widen_stmt_owned`] and [`decompose_mod_div`] consume
//! their input: `v`-free subtrees, buffer names and the boxes of widened
//! nodes move into the result, so widening a statement allocates only the
//! ramps and broadcasts it adds.

use hb_ir::builder::{add, bcast, mul, ramp};
use hb_ir::expr::{BinOp, Expr};
use hb_ir::stmt::Stmt;
use hb_ir::types::ScalarType;

/// Lowering/vectorization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError(pub String);

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lower: {}", self.0)
    }
}

impl std::error::Error for LowerError {}

/// Shorthand result.
pub type LowerResult<T> = Result<T, LowerError>;

/// Computes the coefficient of `v` in `e` if `e` is affine in `v`
/// (`e = a + coeff·v` with `a`, `coeff` free of `v`). The returned
/// coefficient has the same lane count as `e`.
#[must_use]
pub fn affine_coeff(e: &Expr, v: &str) -> Option<Expr> {
    if !e.uses_var(v) {
        let lanes = e.lanes();
        let zero = Expr::IntImm(0);
        return Some(if lanes == 1 { zero } else { bcast(zero, lanes) });
    }
    match e {
        Expr::Var(name, _) if name == v => Some(Expr::IntImm(1)),
        Expr::Binary(BinOp::Add, a, b) => {
            let ca = affine_coeff(a, v)?;
            let cb = affine_coeff(b, v)?;
            Some(add(ca, cb))
        }
        Expr::Binary(BinOp::Sub, a, b) => {
            let ca = affine_coeff(a, v)?;
            let cb = affine_coeff(b, v)?;
            Some(hb_ir::builder::sub(ca, cb))
        }
        Expr::Binary(BinOp::Mul, a, b) => {
            if !a.uses_var(v) {
                let cb = affine_coeff(b, v)?;
                Some(mul((**a).clone(), cb))
            } else if !b.uses_var(v) {
                let ca = affine_coeff(a, v)?;
                Some(mul(ca, (**b).clone()))
            } else {
                None
            }
        }
        Expr::Broadcast { value, lanes } => {
            let cv = affine_coeff(value, v)?;
            Some(bcast(cv, *lanes))
        }
        Expr::Ramp {
            base,
            stride,
            lanes,
        } => {
            if stride.uses_var(v) {
                return None;
            }
            let cb = affine_coeff(base, v)?;
            Some(bcast(cv_align(cb, base.lanes()), *lanes))
        }
        Expr::Cast(ty, value) if ty.elem == ScalarType::I32 => affine_coeff(value, v),
        _ => None,
    }
}

fn cv_align(c: Expr, lanes: u32) -> Expr {
    let c_lanes = c.lanes();
    if c_lanes == lanes {
        c
    } else {
        bcast(c, lanes / c_lanes)
    }
}

/// Pushes a broadcast of a `v`-dependent value inward through casts, loads
/// and pointwise operations so the broadcast lands on integer indexes where
/// affine widening can handle it. A value of any other shape comes back
/// untouched as the error.
fn push_broadcast_inward(value: Expr, lanes: u32) -> Result<Expr, Expr> {
    let wrap = |mut inner: Box<Expr>| {
        *inner = bcast(inner.take(), lanes);
        inner
    };
    Ok(match value {
        Expr::Cast(ty, inner) => Expr::Cast(ty.with_lanes(ty.lanes * lanes), wrap(inner)),
        Expr::Load { ty, buffer, index } => Expr::Load {
            ty: ty.with_lanes(ty.lanes * lanes),
            buffer,
            index: wrap(index),
        },
        Expr::Binary(op, a, b) => Expr::Binary(op, wrap(a), wrap(b)),
        Expr::Broadcast {
            value: inner,
            lanes: m,
        } => Expr::Broadcast {
            value: inner,
            lanes: m * lanes,
        },
        other => return Err(other),
    })
}

/// Widens `e` over `v ∈ [min, min+n)`, the new dimension outermost. The
/// input is consumed: subtrees free of `v` and the boxes of widened nodes
/// move into the result.
///
/// # Errors
///
/// Fails on constructs that cannot be vectorized (loads with non-affine
/// broadcast structure, intrinsic calls, `v`-dependent strides).
pub fn widen_expr(e: Expr, v: &str, min: i64, n: u32) -> LowerResult<Expr> {
    if !e.uses_var(v) {
        return Ok(bcast(e, n));
    }
    // Affine integer indexes widen into one nested ramp.
    if e.ty().elem == ScalarType::I32 {
        if let Some(coeff) = affine_coeff(&e, v) {
            let mut base = e;
            base.substitute(v, &Expr::IntImm(min));
            let stride = cv_align(coeff, base.lanes());
            return Ok(ramp(base, stride, n));
        }
    }
    let widen = |mut child: Box<Expr>| -> LowerResult<Box<Expr>> {
        *child = widen_expr(child.take(), v, min, n)?;
        Ok(child)
    };
    match e {
        Expr::Var(name, _) if name == v => Ok(ramp(Expr::IntImm(min), Expr::IntImm(1), n)),
        Expr::Binary(op, a, b) => Ok(Expr::Binary(op, widen(a)?, widen(b)?)),
        Expr::Select(c, t, f) => Ok(Expr::Select(widen(c)?, widen(t)?, widen(f)?)),
        Expr::Cast(ty, value) => Ok(Expr::Cast(ty.with_lanes(ty.lanes * n), widen(value)?)),
        Expr::Load { ty, buffer, index } => Ok(Expr::Load {
            ty: ty.with_lanes(ty.lanes * n),
            buffer,
            index: widen(index)?,
        }),
        Expr::VectorReduceAdd { lanes, value } => Ok(Expr::VectorReduceAdd {
            lanes: lanes * n,
            value: widen(value)?,
        }),
        // v-dependent broadcast: push it inward first, then retry.
        Expr::Broadcast { value, lanes } => match push_broadcast_inward(*value, lanes) {
            Ok(pushed) => widen_expr(pushed, v, min, n),
            Err(value) => Err(LowerError(format!(
                "cannot vectorize broadcast of {v}-dependent value: {}",
                bcast(value, lanes)
            ))),
        },
        ramp @ Expr::Ramp { .. } => Err(LowerError(format!(
            "non-affine ramp in vectorized index over {v}: {ramp}"
        ))),
        other => Err(LowerError(format!("cannot vectorize {other} over {v}"))),
    }
}

/// Whether `lhs` is the accumulator `buffer[index]` of a reduction update
/// over `v` (and so free of `v`).
fn is_accumulator(lhs: &Expr, buffer: &str, index: &Expr, v: &str) -> bool {
    let Expr::Load {
        buffer: b2,
        index: i2,
        ..
    } = lhs
    else {
        return false;
    };
    b2 == buffer && i2.as_ref() == index && !lhs.uses_var(v)
}

/// Widens one leaf statement over `v`, consuming it. Reduction updates
/// (store index free of `v`, value of the form `f[idx] + rhs`) become
/// `vector_reduce_add`s — this requires the stage to be `atomic()` (checked
/// by the caller).
///
/// # Errors
///
/// Fails on statements that cannot be vectorized over `v`.
pub fn widen_stmt_owned(s: Stmt, v: &str, min: i64, n: u32) -> LowerResult<Stmt> {
    match s {
        Stmt::Store {
            buffer,
            index,
            value,
        } => {
            if index.uses_var(v) {
                return Ok(Stmt::Store {
                    buffer,
                    index: widen_expr(index, v, min, n)?,
                    value: widen_expr(value, v, min, n)?,
                });
            }
            // Reduction vectorization: f[idx] = f[idx] + rhs, idx free of v.
            let value = match value {
                Expr::Binary(BinOp::Add, lhs, rhs) if is_accumulator(&lhs, &buffer, &index, v) => {
                    // Extend an existing reduction (second rvar lane level,
                    // e.g. after mod/div decomposition) instead of nesting
                    // vector_reduce_adds.
                    let (lanes, inner) = match *rhs {
                        Expr::VectorReduceAdd { lanes, value } if lanes == index.lanes() => {
                            (lanes, *value)
                        }
                        rhs => (index.lanes(), rhs),
                    };
                    let reduced = Expr::VectorReduceAdd {
                        lanes,
                        value: Box::new(widen_expr(inner, v, min, n)?),
                    };
                    return Ok(Stmt::Store {
                        buffer,
                        index,
                        value: add(*lhs, reduced),
                    });
                }
                other => other,
            };
            if !value.uses_var(v) {
                // Store of a v-invariant value to a v-invariant address:
                // keep one lane (idempotent writes).
                return Ok(Stmt::Store {
                    buffer,
                    index,
                    value,
                });
            }
            Err(LowerError(format!(
                "cannot vectorize store to {buffer} over reduction var {v} \
                 without atomic() (value depends on {v} but index does not)"
            )))
        }
        Stmt::Evaluate(e) => Ok(Stmt::Evaluate(widen_expr(e, v, min, n)?)),
        Stmt::Block(stmts) => Ok(Stmt::Block(
            stmts
                .into_iter()
                .map(|st| widen_stmt_owned(st, v, min, n))
                .collect::<LowerResult<Vec<_>>>()?,
        )),
        other => Err(LowerError(format!(
            "cannot vectorize across an inner loop/allocation over {v}: {other:?}"
        ))),
    }
}

/// Finds a divisor `c` such that the statement uses `v % c` or `v / c`
/// (the VNNI layout idiom); returns `None` when absent.
///
/// # Errors
///
/// Fails if multiple distinct divisors are used.
pub fn mod_div_divisor(s: &Stmt, v: &str) -> LowerResult<Option<i64>> {
    let mut found: Option<i64> = None;
    let mut conflict = false;
    s.for_each_expr(&mut |e| {
        if let Expr::Binary(op, a, b) = e {
            if matches!(op, BinOp::Mod | BinOp::Div) {
                if let (Expr::Var(name, _), Expr::IntImm(c)) = (a.as_ref(), b.as_ref()) {
                    if name == v {
                        match found {
                            None => found = Some(*c),
                            Some(prev) if prev == *c => {}
                            Some(_) => conflict = true,
                        }
                    }
                }
            }
        }
    });
    if conflict {
        return Err(LowerError(format!(
            "multiple distinct divisors for {v}; cannot decompose"
        )));
    }
    Ok(found)
}

/// Rewrites `v % c → v0`, `v / c → v1`, and remaining `v → v0 + c·v1`,
/// consuming the statement.
#[must_use]
pub fn decompose_mod_div(mut s: Stmt, v: &str, c: i64, v0: &str, v1: &str) -> Stmt {
    let recombined = add(
        Expr::Var(v0.to_string(), ScalarType::I32),
        mul(Expr::IntImm(c), Expr::Var(v1.to_string(), ScalarType::I32)),
    );
    s.map_exprs(&mut |e| {
        let split = e.rewrite_bottom_up(&mut |node| {
            let Expr::Binary(op @ (BinOp::Mod | BinOp::Div), a, b) = &*node else {
                return false;
            };
            match (a.as_ref(), b.as_ref()) {
                (Expr::Var(name, st), Expr::IntImm(cc)) if name == v && *cc == c => {
                    let part = if *op == BinOp::Mod { v0 } else { v1 };
                    *node = Expr::Var(part.to_string(), *st);
                    true
                }
                _ => false,
            }
        });
        e.substitute(v, &recombined) | split
    });
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_ir::builder as b;
    use hb_ir::simplify::simplify_in_place;
    use hb_ir::types::Type;

    #[test]
    fn affine_coefficients() {
        let v = "x";
        let coeff = |e: &Expr| {
            let mut c = affine_coeff(e, v).unwrap();
            simplify_in_place(&mut c);
            c
        };
        assert_eq!(coeff(&b::var("x")), b::int(1));
        let e = b::add(b::mul(b::var("x"), b::int(32)), b::var("r"));
        assert_eq!(coeff(&e), b::int(32));
        assert_eq!(coeff(&b::var("r")), b::int(0));
        // Non-affine: x * x.
        assert!(affine_coeff(&b::mul(b::var("x"), b::var("x")), v).is_none());
    }

    #[test]
    fn widen_scalar_var_to_ramp() {
        let e = widen_expr(b::var("x"), "x", 0, 8).unwrap();
        assert_eq!(e, b::ramp(b::int(0), b::int(1), 8));
    }

    #[test]
    fn widen_affine_index_produces_nested_ramp() {
        // Widening r then x of A's index x*32 + r gives the canonical
        // two-level nest of the paper's Fig. 3 (pre-simplification).
        let idx = b::add(b::mul(b::var("x"), b::int(32)), b::var("r"));
        let after_r = widen_expr(idx, "r", 0, 32).unwrap();
        let after_y = widen_expr(after_r, "y", 0, 16).unwrap(); // y-free: broadcast
        let after_x = widen_expr(after_y, "x", 0, 16).unwrap();
        let mut s = after_x;
        simplify_in_place(&mut s);
        // Canonical: ramp(x16(ramp(0,1,32)) [+0 terms folded], x512(32), 16)
        // after the simplifier's obfuscation it becomes the Add form; both
        // must evaluate identically. Just check lanes and a couple of lanes.
        assert_eq!(s.lanes(), 16 * 16 * 32);
    }

    #[test]
    fn widen_v_free_broadcasts() {
        let e = widen_expr(b::flt(1.5), "x", 0, 4).unwrap();
        assert_eq!(e, b::bcast(b::flt(1.5), 4));
    }

    #[test]
    fn widen_pushes_vdependent_broadcast_inward() {
        // x16(cast<f32x32>(A[ramp(x*32, 1, 32)])) widened over x.
        let load = b::load(
            Type::bf16().with_lanes(32),
            "A",
            b::ramp(b::mul(b::var("x"), b::int(32)), b::int(1), 32),
        );
        let e = b::bcast(b::cast(Type::f32().with_lanes(32), load), 16);
        let w = widen_expr(e, "x", 0, 16).unwrap();
        assert_eq!(w.lanes(), 8192);
        // The result must be a cast of a load of an affine nested ramp.
        match &w {
            Expr::Cast(ty, inner) => {
                assert_eq!(ty.lanes, 8192);
                assert!(matches!(inner.as_ref(), Expr::Load { .. }));
            }
            other => panic!("expected cast(load), got {other}"),
        }
    }

    #[test]
    fn reduction_store_becomes_vra() {
        // f[x] = f[x] + g[x + r]  vectorized over r.
        let idx = b::var("x");
        let val = b::add(
            b::load(Type::f32(), "f", idx.clone()),
            b::load(Type::f32(), "g", b::add(b::var("x"), b::var("r"))),
        );
        let s = b::store("f", idx, val);
        let w = widen_stmt_owned(s, "r", 0, 8).unwrap();
        match &w {
            Stmt::Store { value, .. } => match value {
                Expr::Binary(BinOp::Add, _, rhs) => match rhs.as_ref() {
                    Expr::VectorReduceAdd { lanes, .. } => assert_eq!(*lanes, 1),
                    other => panic!("expected vra, got {other}"),
                },
                other => panic!("expected add, got {other}"),
            },
            other => panic!("expected store, got {other:?}"),
        }
        // Widening the result again over x scales the reduction.
        let w2 = widen_stmt_owned(w, "x", 0, 16).unwrap();
        let mut saw = false;
        w2.for_each_expr(&mut |e| {
            if let Expr::VectorReduceAdd { lanes, value } = e {
                assert_eq!(*lanes, 16);
                assert_eq!(value.lanes(), 128);
                saw = true;
            }
        });
        assert!(saw);
    }

    /// `widen_expr` as it was when it borrowed its input and copied every
    /// subtree it kept.
    fn widen_expr_reference(e: &Expr, v: &str, min: i64, n: u32) -> LowerResult<Expr> {
        let go = |e: &Expr| widen_expr_reference(e, v, min, n).map(Box::new);
        if !e.uses_var(v) {
            return Ok(bcast(e.clone(), n));
        }
        if e.ty().elem == ScalarType::I32 {
            if let Some(coeff) = affine_coeff(e, v) {
                let mut base = e.clone();
                base.substitute(v, &Expr::IntImm(min));
                let stride = cv_align(coeff, base.lanes());
                return Ok(ramp(base, stride, n));
            }
        }
        match e {
            Expr::Var(name, _) if name == v => Ok(ramp(Expr::IntImm(min), Expr::IntImm(1), n)),
            Expr::Binary(op, a, b) => Ok(Expr::Binary(*op, go(a)?, go(b)?)),
            Expr::Select(c, t, f) => Ok(Expr::Select(go(c)?, go(t)?, go(f)?)),
            Expr::Cast(ty, value) => Ok(Expr::Cast(ty.with_lanes(ty.lanes * n), go(value)?)),
            Expr::Load { ty, buffer, index } => Ok(Expr::Load {
                ty: ty.with_lanes(ty.lanes * n),
                buffer: buffer.clone(),
                index: go(index)?,
            }),
            Expr::VectorReduceAdd { lanes, value } => Ok(Expr::VectorReduceAdd {
                lanes: lanes * n,
                value: go(value)?,
            }),
            Expr::Broadcast { value, lanes } => {
                let wrap = |e: &Expr| Box::new(bcast(e.clone(), *lanes));
                let pushed = match value.as_ref() {
                    Expr::Cast(ty, inner) => {
                        Expr::Cast(ty.with_lanes(ty.lanes * lanes), wrap(inner))
                    }
                    Expr::Load { ty, buffer, index } => Expr::Load {
                        ty: ty.with_lanes(ty.lanes * lanes),
                        buffer: buffer.clone(),
                        index: wrap(index),
                    },
                    Expr::Binary(op, a, b) => Expr::Binary(*op, wrap(a), wrap(b)),
                    Expr::Broadcast {
                        value: inner,
                        lanes: m,
                    } => bcast((**inner).clone(), m * lanes),
                    _ => {
                        return Err(LowerError(format!(
                            "cannot vectorize broadcast of {v}-dependent value: {e}"
                        )))
                    }
                };
                widen_expr_reference(&pushed, v, min, n)
            }
            Expr::Ramp { .. } => Err(LowerError(format!(
                "non-affine ramp in vectorized index over {v}: {e}"
            ))),
            other => Err(LowerError(format!("cannot vectorize {other} over {v}"))),
        }
    }

    /// Decodes genes into a scalar expression over `x`, `y`, `r`: affine
    /// and non-affine indexes, loads, casts, selects, reductions, and the
    /// shapes widening rejects (calls, `x`-dependent broadcasts of them).
    struct Genes<'a>(&'a [u32], usize);

    impl Genes<'_> {
        fn pick(&mut self, n: u32) -> u32 {
            let gene = self.0.get(self.1).copied().unwrap_or(0);
            self.1 += 1;
            gene % n
        }

        fn index(&mut self, depth: u32) -> Expr {
            if depth == 0 {
                return match self.pick(4) {
                    0 => b::int(i64::from(self.pick(7)) - 3),
                    1 => b::var("x"),
                    2 => b::var("y"),
                    _ => b::var("r"),
                };
            }
            let d = depth - 1;
            match self.pick(6) {
                0 => b::add(self.index(d), self.index(d)),
                1 => b::sub(self.index(d), self.index(d)),
                2 => b::mul(self.index(d), b::int(i64::from(self.pick(5)))),
                3 => b::mul(self.index(d), self.index(d)),
                4 => b::cast(Type::i32(), self.index(d)),
                _ => self.index(0),
            }
        }

        fn value(&mut self, depth: u32) -> Expr {
            if depth == 0 {
                return b::load(Type::f32(), "A", self.index(2));
            }
            let d = depth - 1;
            match self.pick(8) {
                0 => b::add(self.value(d), self.value(d)),
                1 => b::mul(self.value(d), b::flt(2.0)),
                2 => b::cast_f32(self.index(2)),
                3 => b::select(
                    b::lt(self.index(1), self.index(1)),
                    self.value(d),
                    self.value(d),
                ),
                4 => b::vreduce_add(1, b::bcast(self.value(d), 1)),
                5 => b::bcast(self.value(d), 1),
                6 => b::call(Type::f32(), "opaque", vec![self.index(1)]),
                _ => self.value(0),
            }
        }
    }

    #[test]
    fn consuming_widen_equals_the_copying_reference() {
        use proptest::prelude::*;
        let strategy = proptest::collection::vec(0u32..1_000_000, 64);
        let mut rng = TestRng::from_name("consuming_widen_equals_the_copying_reference");
        let (mut widened, mut rejected) = (0, 0);
        for _ in 0..1024 {
            let genes = strategy.generate(&mut rng);
            let mut g = Genes(&genes, 0);
            let e = if g.pick(3) == 0 {
                g.index(3)
            } else {
                g.value(3)
            };
            let (min, n) = (i64::from(g.pick(3)), 2 << g.pick(3));
            // Nested, as `lower` applies it: r innermost, then x outside it.
            let want = widen_expr_reference(&e, "r", min, n)
                .and_then(|w| widen_expr_reference(&w, "x", 0, 4));
            let got = widen_expr(e.clone(), "r", min, n).and_then(|w| widen_expr(w, "x", 0, 4));
            assert_eq!(got, want, "widening {e}");
            widened += usize::from(want.is_ok());
            rejected += usize::from(want.is_err());
        }
        assert!(widened > 256, "only {widened} of 1024 inputs widened");
        assert!(rejected > 32, "only {rejected} of 1024 inputs rejected");
    }

    #[test]
    fn widen_semantics_match_scalar_loop() {
        // Evaluate f[x] = g[2x + 3] both as a scalar loop and vectorized.
        use hb_exec::Interp;
        let g: Vec<f64> = (0..64).map(f64::from).collect();
        let idx = b::add(b::mul(b::var("x"), b::int(2)), b::int(3));
        let val = b::load(Type::f32(), "g", idx);
        // Scalar loop.
        let mut it1 = Interp::new();
        it1.mem
            .alloc_init(
                "g",
                hb_ir::types::ScalarType::F32,
                hb_ir::types::MemoryType::Heap,
                &g,
            )
            .unwrap();
        it1.mem
            .alloc(
                "f",
                hb_ir::types::ScalarType::F32,
                16,
                hb_ir::types::MemoryType::Heap,
            )
            .unwrap();
        it1.exec(&b::for_serial(
            "x",
            b::int(0),
            b::int(16),
            b::store("f", b::var("x"), val.clone()),
        ))
        .unwrap();
        // Vectorized.
        let mut it2 = Interp::new();
        it2.mem
            .alloc_init(
                "g",
                hb_ir::types::ScalarType::F32,
                hb_ir::types::MemoryType::Heap,
                &g,
            )
            .unwrap();
        it2.mem
            .alloc(
                "f",
                hb_ir::types::ScalarType::F32,
                16,
                hb_ir::types::MemoryType::Heap,
            )
            .unwrap();
        let w = widen_stmt_owned(b::store("f", b::var("x"), val), "x", 0, 16).unwrap();
        it2.exec(&w).unwrap();
        assert_eq!(
            it1.mem.snapshot("f").unwrap(),
            it2.mem.snapshot("f").unwrap()
        );
    }

    #[test]
    fn mod_div_decomposition() {
        // B[r%2 + 2*y + 32*(r/2)]
        let idx = b::add(
            b::add(
                b::modulo(b::var("r"), b::int(2)),
                b::mul(b::int(2), b::var("y")),
            ),
            b::mul(b::int(32), b::div(b::var("r"), b::int(2))),
        );
        let s = b::store("B", b::int(0), b::cast(Type::f32(), idx));
        assert_eq!(mod_div_divisor(&s, "r").unwrap(), Some(2));
        assert_eq!(mod_div_divisor(&s, "y").unwrap(), None);
        let d = decompose_mod_div(s, "r", 2, "r0", "r1");
        let mut uses_r = false;
        d.for_each_expr(&mut |e| {
            if e.uses_var("r") {
                uses_r = true;
            }
        });
        assert!(!uses_r, "r fully replaced");
        let mut text = String::new();
        d.for_each_expr(&mut |e| text.push_str(&e.to_string()));
        assert!(text.contains("r0"), "{text}");
        assert!(text.contains("r1"), "{text}");
    }
}
