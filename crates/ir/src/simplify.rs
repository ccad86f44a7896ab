//! The Halide-style local simplifier.
//!
//! This pass deliberately reproduces the behaviour §III-B of the paper calls
//! the *phase-ordering problem*: local rewrites that make code cheaper also
//! obscure tensor computation patterns. In particular it
//!
//! * un-nests ramps whose base is a broadcast
//!   (`ramp(x16(r), s, 16)` → `x256(r) + ramp(x512(0), s, 16)`), which is
//!   what flattens matrix A's three-level access pattern into two terms, and
//! * converts a load of a broadcast index into a broadcast of a scalar load
//!   (`B[x16(i)]` → `x16(B[i])`), the second obfuscation the paper names.
//!
//! HARDBOILED's axiomatic rules (crates/core) are what recover the nested
//! forms inside the e-graph.
//!
//! # Pass structure
//!
//! [`simplify_in_place`] is the implementation: bottom-up passes over one
//! owned tree, each applying the first matching local rule at every node
//! (children first), until a pass replaces nothing or the cap of 16 passes
//! is reached. A rule that keeps an operand moves it up instead of copying
//! it, and a pass that replaces nothing allocates nothing.
//! [`simplify_stmt`] clones its input once and simplifies the copy. The
//! rules, their order and the cap are those of the clone-rebuild-compare
//! loop this replaced; a property test holds the two equal on random
//! expressions, and the golden lowering test (`tests/lower_golden.rs`)
//! holds every lowered benchmark program byte-identical.

use crate::builder::{add, bcast, div, modulo};
use crate::expr::{BinOp, Expr};
use crate::numeric::round_to;
use crate::stmt::Stmt;
use crate::types::{ScalarType, Type};

/// The pass cap: a tree still changing after this many passes is returned
/// as it stands.
const MAX_PASSES: usize = 16;

/// Simplifies an expression in place: bottom-up passes of the local rules
/// until a pass replaces nothing (at most 16 passes). Returns whether
/// anything was replaced.
pub fn simplify_in_place(e: &mut Expr) -> bool {
    let mut changed = false;
    for _ in 0..MAX_PASSES {
        if !e.rewrite_bottom_up(&mut step) {
            break;
        }
        changed = true;
    }
    changed
}

/// Simplifies every expression in a statement tree, in place.
pub fn simplify_stmt_in_place(s: &mut Stmt) -> bool {
    s.map_exprs(&mut simplify_in_place)
}

/// [`simplify_stmt_in_place`] on a copy.
#[must_use]
pub fn simplify_stmt(s: &Stmt) -> Stmt {
    let mut out = s.clone();
    simplify_stmt_in_place(&mut out);
    out
}

fn fold_int(op: BinOp, a: i64, b: i64) -> Option<Expr> {
    let v = match op {
        BinOp::Add => a.checked_add(b)?,
        BinOp::Sub => a.checked_sub(b)?,
        BinOp::Mul => a.checked_mul(b)?,
        BinOp::Div => {
            if b == 0 {
                return None;
            }
            a.div_euclid(b)
        }
        BinOp::Mod => {
            if b == 0 {
                return None;
            }
            a.rem_euclid(b)
        }
        BinOp::Min => a.min(b),
        BinOp::Max => a.max(b),
        BinOp::Lt => return Some(bool_imm(a < b)),
        BinOp::Le => return Some(bool_imm(a <= b)),
        BinOp::Eq => return Some(bool_imm(a == b)),
        BinOp::And | BinOp::Or => return None,
    };
    Some(Expr::IntImm(v))
}

fn fold_float(op: BinOp, a: f64, b: f64, st: ScalarType) -> Option<Expr> {
    let v = match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => {
            if b == 0.0 {
                return None;
            }
            a / b
        }
        BinOp::Min => a.min(b),
        BinOp::Max => a.max(b),
        BinOp::Lt => return Some(bool_imm(a < b)),
        BinOp::Le => return Some(bool_imm(a <= b)),
        BinOp::Eq => return Some(bool_imm(a == b)),
        BinOp::Mod | BinOp::And | BinOp::Or => return None,
    };
    Some(Expr::FloatImm(round_to(st, v), st))
}

fn bool_imm(b: bool) -> Expr {
    Expr::IntImm(i64::from(b))
}

/// A zero of `lanes` lanes (what `x - x` and `x * 0` fold to).
fn int_zero(lanes: u32) -> Expr {
    let z = Expr::IntImm(0);
    if lanes == 1 {
        z
    } else {
        bcast(z, lanes)
    }
}

/// One bottom-up rewriting step on a node whose children have already been
/// rewritten: the first rule that applies replaces the node (a surviving
/// child is moved up, not copied). Returns whether one did.
#[allow(clippy::too_many_lines)]
fn step(e: &mut Expr) -> bool {
    let new = match e {
        Expr::Binary(op, a, b) => {
            let op = *op;
            // Constant folding.
            let folded = match (a.as_ref(), b.as_ref()) {
                (Expr::IntImm(x), Expr::IntImm(y)) => fold_int(op, *x, *y),
                (Expr::FloatImm(x, st), Expr::FloatImm(y, _)) => fold_float(op, *x, *y, *st),
                _ => None,
            };
            if let Some(folded) = folded {
                folded
            } else if let Some(new) = step_identity(op, a, b) {
                new
            } else if let (
                Expr::Broadcast {
                    value: va,
                    lanes: la,
                },
                Expr::Broadcast {
                    value: vb,
                    lanes: lb,
                },
            ) = (a.as_mut(), b.as_mut())
            {
                // Pull broadcasts out of pointwise ops:
                // op(xN(a), xN(b)) -> xN(op(a, b)).
                if la != lb || va.lanes() != vb.lanes() {
                    return false;
                }
                bcast(
                    Expr::Binary(op, Box::new(va.take()), Box::new(vb.take())),
                    *la,
                )
            } else {
                return false;
            }
        }
        // x1(v) -> v ; xN(xM(v)) -> x(N*M)(v)
        Expr::Broadcast { value, lanes } => {
            if *lanes == 1 {
                value.take()
            } else if let Expr::Broadcast {
                value: inner,
                lanes: m,
            } = value.as_mut()
            {
                bcast(inner.take(), *lanes * *m)
            } else {
                return false;
            }
        }
        Expr::Ramp {
            base,
            stride,
            lanes,
        } => {
            if *lanes == 1 {
                // ramp(b, s, 1) -> b
                base.take()
            } else if stride.is_const_int(0) {
                // ramp(b, x(0), n) -> broadcast(b, n)
                bcast(base.take(), *lanes)
            } else if let Expr::Broadcast { value: bv, .. } = base.as_ref() {
                // The A-matrix obfuscation (§III-B): un-nest a ramp whose
                // base is a broadcast:  ramp(xM(b), s, n)
                //                    -> xN(xM(b)) + ramp(xM(0), s, n)
                // (skip when the broadcast value is already zero so the
                // rewrite terminates).
                if bv.is_const_int(0) || is_const_float(bv, 0.0) {
                    return false;
                }
                let inner_lanes = base.lanes();
                let rezeroed = Expr::Ramp {
                    base: Box::new(bcast(zero_like(bv), inner_lanes / bv.lanes() * bv.lanes())),
                    stride: Box::new(stride.take()),
                    lanes: *lanes,
                };
                add(bcast(base.take(), *lanes), rezeroed)
            } else {
                return false;
            }
        }
        // The B-matrix obfuscation (§III-B): a load of a broadcast index
        // becomes a broadcast of the (narrower) load.
        Expr::Load { ty, buffer, index } => {
            let Expr::Broadcast { value: idx, lanes } = index.as_mut() else {
                return false;
            };
            bcast(
                Expr::Load {
                    ty: Type::new(ty.elem, idx.lanes()),
                    buffer: std::mem::take(buffer),
                    index: Box::new(idx.take()),
                },
                *lanes,
            )
        }
        Expr::Cast(ty, v) => {
            if v.ty() == *ty {
                v.take()
            } else {
                match v.as_ref() {
                    Expr::IntImm(x) if ty.elem.is_float() && ty.is_scalar() => {
                        Expr::FloatImm(round_to(ty.elem, *x as f64), ty.elem)
                    }
                    Expr::FloatImm(x, _) if ty.elem.is_float() && ty.is_scalar() => {
                        Expr::FloatImm(round_to(ty.elem, *x), ty.elem)
                    }
                    Expr::FloatImm(x, _) if ty.elem == ScalarType::I32 && ty.is_scalar() => {
                        Expr::IntImm(*x as i64)
                    }
                    _ => return false,
                }
            }
        }
        Expr::Select(c, t, f) => {
            if c.is_const_int(1) {
                t.take()
            } else if c.is_const_int(0) {
                f.take()
            } else {
                return false;
            }
        }
        _ => return false,
    };
    *e = new;
    true
}

/// The algebraic identities of `op(a, b)` (also through broadcasts of
/// constants): the replacement for the whole node, if one applies.
fn step_identity(op: BinOp, a: &mut Expr, b: &mut Expr) -> Option<Expr> {
    match op {
        BinOp::Add => {
            if b.is_const_int(0) || is_const_float(b, 0.0) {
                return Some(a.take());
            }
            if a.is_const_int(0) || is_const_float(a, 0.0) {
                return Some(b.take());
            }
        }
        BinOp::Sub => {
            if b.is_const_int(0) || is_const_float(b, 0.0) {
                return Some(a.take());
            }
            // x - x => 0; (x + y) - y => x; (x + y) - x => y.
            // These arise when producer regions subtract their own
            // minima from global coordinates.
            if a == b {
                return Some(int_zero(a.lanes()));
            }
            if let Expr::Binary(BinOp::Add, x, y) = a {
                if **y == *b {
                    return Some(x.take());
                }
                if **x == *b {
                    return Some(y.take());
                }
            }
        }
        BinOp::Mul => {
            if b.is_const_int(1) || is_const_float(b, 1.0) {
                return Some(a.take());
            }
            if a.is_const_int(1) || is_const_float(a, 1.0) {
                return Some(b.take());
            }
            if a.is_const_int(0) || b.is_const_int(0) {
                return Some(int_zero(a.lanes()));
            }
        }
        BinOp::Div => {
            if b.is_const_int(1) {
                return Some(a.take());
            }
            // (c·x + y) / c  =>  c·x/c + y/c (Euclidean division
            // distributes over exactly-divisible addends).
            if let Some(c) = scalar_positive_divisor(a, b) {
                if let Some(q) = div_exact(a, c) {
                    return Some(q);
                }
                if let Expr::Binary(BinOp::Add, x, y) = a {
                    if let Some(qx) = div_exact(x, c) {
                        return Some(add(qx, div(y.take(), b.take())));
                    }
                    if let Some(qy) = div_exact(y, c) {
                        return Some(add(div(x.take(), b.take()), qy));
                    }
                }
            }
        }
        BinOp::Mod => {
            // (c·x + y) % c  =>  y % c.
            if let Some(c) = scalar_positive_divisor(a, b) {
                if divisible_by(a, c) {
                    return Some(Expr::IntImm(0));
                }
                if let Expr::Binary(BinOp::Add, x, y) = a {
                    if divisible_by(x, c) {
                        return Some(modulo(y.take(), b.take()));
                    }
                    if divisible_by(y, c) {
                        return Some(modulo(x.take(), b.take()));
                    }
                }
            }
        }
        _ => {}
    }
    None
}

/// `c` when `a / b` (or `a % b`) is a scalar operation by the positive
/// constant `c`.
fn scalar_positive_divisor(a: &Expr, b: &Expr) -> Option<i64> {
    match b {
        Expr::IntImm(c) if *c > 0 && a.lanes() == 1 => Some(*c),
        _ => None,
    }
}

/// Whether `e` is statically a multiple of `c` (conservative).
fn divisible_by(e: &Expr, c: i64) -> bool {
    match e {
        Expr::IntImm(v) => v.rem_euclid(c) == 0,
        Expr::Binary(BinOp::Add | BinOp::Sub, a, b) => divisible_by(a, c) && divisible_by(b, c),
        Expr::Binary(BinOp::Mul, a, b) => divisible_by(a, c) || divisible_by(b, c),
        _ => false,
    }
}

/// Exact quotient `e / c` when `e` is statically a multiple of `c`.
fn div_exact(e: &Expr, c: i64) -> Option<Expr> {
    match e {
        Expr::IntImm(v) if v.rem_euclid(c) == 0 => Some(Expr::IntImm(v / c)),
        Expr::Binary(BinOp::Add, a, b) => Some(add(div_exact(a, c)?, div_exact(b, c)?)),
        Expr::Binary(BinOp::Mul, a, b) => {
            if let Some(qa) = div_exact(a, c) {
                Some(mul_expr(qa, (**b).clone()))
            } else {
                div_exact(b, c).map(|qb| mul_expr((**a).clone(), qb))
            }
        }
        _ => None,
    }
}

fn mul_expr(a: Expr, b: Expr) -> Expr {
    Expr::Binary(BinOp::Mul, Box::new(a), Box::new(b))
}

fn is_const_float(e: &Expr, v: f64) -> bool {
    match e {
        Expr::FloatImm(x, _) => *x == v,
        Expr::Broadcast { value, .. } => is_const_float(value, v),
        _ => false,
    }
}

fn zero_like(e: &Expr) -> Expr {
    match e.ty().elem {
        ScalarType::I32 | ScalarType::Bool => Expr::IntImm(0),
        st => Expr::FloatImm(0.0, st),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::reference::{gen_expr, rebuild_bottom_up, GENES};
    use proptest::prelude::*;

    /// The simplified form of `e`, leaving `e` as it is.
    fn simplified(e: &Expr) -> Expr {
        let mut out = e.clone();
        simplify_in_place(&mut out);
        out
    }

    /// The clone-rebuild-compare loop `simplify` was before it moved in
    /// place — same `step`, same cap — and the number of passes that
    /// changed the tree.
    fn simplify_reference(e: &Expr) -> (Expr, usize) {
        let mut cur = e.clone();
        for pass in 0..MAX_PASSES {
            let next = rebuild_bottom_up(&cur, &mut |node| {
                let mut node = node.clone();
                step(&mut node).then_some(node)
            });
            if next == cur {
                return (cur, pass);
            }
            cur = next;
        }
        (cur, MAX_PASSES)
    }

    #[test]
    fn in_place_simplifier_equals_the_rebuilding_reference() {
        let strategy = proptest::collection::vec(0u32..1_000_000, GENES);
        let mut rng = TestRng::from_name("in_place_simplifier_equals_the_rebuilding_reference");
        let (mut rewritten, mut multi_pass) = (0, 0);
        for _ in 0..2048 {
            let e = gen_expr(&strategy.generate(&mut rng));
            let _ = e.ty(); // the generator's lane bookkeeping holds
            let (want, passes) = simplify_reference(&e);
            let mut got = e.clone();
            let changed = simplify_in_place(&mut got);
            assert_eq!(got, want, "simplifying {e}");
            assert_eq!(changed, passes > 0, "change report for {e}");
            rewritten += usize::from(passes > 0);
            multi_pass += usize::from(passes > 1);
        }
        // The comparison is only worth something if the inputs exercise the
        // rules, including the ones that need a second pass.
        assert!(
            rewritten > 1024,
            "only {rewritten} of 2048 inputs rewritten"
        );
        assert!(
            multi_pass > 128,
            "only {multi_pass} of 2048 inputs took 2+ passes"
        );
    }

    #[test]
    fn constant_folding() {
        assert_eq!(simplified(&add(int(2), int(3))), int(5));
        assert_eq!(simplified(&div(int(7), int(2))), int(3));
        assert_eq!(
            simplified(&modulo(int(-1), int(4))),
            int(3),
            "euclidean mod"
        );
        assert_eq!(simplified(&mul(flt(2.0), flt(4.0))), flt(8.0));
        assert_eq!(simplified(&lt(int(1), int(2))), int(1));
    }

    #[test]
    fn algebraic_identities() {
        let x = var("x");
        assert_eq!(simplified(&add(x.clone(), int(0))), x);
        assert_eq!(simplified(&mul(x.clone(), int(1))), x);
        assert_eq!(simplified(&mul(x.clone(), int(0))), int(0));
        assert_eq!(simplified(&sub(x.clone(), int(0))), x);
        assert_eq!(simplified(&div(x.clone(), int(1))), x);
    }

    #[test]
    fn broadcast_flattening() {
        let e = bcast(bcast(var("x"), 16), 16);
        assert_eq!(simplified(&e), bcast(var("x"), 256));
        assert_eq!(simplified(&bcast(var("x"), 1)), var("x"));
    }

    #[test]
    fn ramp_of_one_lane_collapses() {
        assert_eq!(simplified(&ramp(var("x"), int(3), 1)), var("x"));
    }

    #[test]
    fn zero_stride_ramp_is_broadcast() {
        let e = ramp(var("x"), int(0), 8);
        assert_eq!(simplified(&e), bcast(var("x"), 8));
    }

    #[test]
    fn load_of_broadcast_becomes_broadcast_of_load() {
        // B[x16(i)] -> x16(B[i])  (§III-B's second obfuscation).
        let idx = bcast(ramp(int(0), int(16), 32), 16);
        let ld = load(Type::bf16().with_lanes(512), "B", idx);
        let s = simplified(&ld);
        match &s {
            Expr::Broadcast { value, lanes } => {
                assert_eq!(*lanes, 16);
                match value.as_ref() {
                    Expr::Load { ty, .. } => assert_eq!(ty.lanes, 32),
                    other => panic!("expected inner load, got {other}"),
                }
            }
            other => panic!("expected broadcast-of-load, got {other}"),
        }
    }

    #[test]
    fn ramp_with_broadcast_base_unnests() {
        // ramp(x16(ramp(0,1,32)), x512(32), 16)
        //   -> x256(ramp(0,1,32)) + ramp(x512(0), x512(32), 16)
        // which is exactly the obscured A-matrix pattern of Fig. 3.
        let inner = ramp(int(0), int(1), 32);
        let e = ramp(bcast(inner.clone(), 16), bcast(int(32), 512), 16);
        let s = simplified(&e);
        let expected = add(
            bcast(inner, 256),
            ramp(bcast(int(0), 512), bcast(int(32), 512), 16),
        );
        assert_eq!(s, expected, "got {s}");
    }

    #[test]
    fn unnesting_terminates_on_zero_base() {
        let e = ramp(bcast(int(0), 512), bcast(int(32), 512), 16);
        // Must be a fixpoint (no infinite xN(0) + ... expansion).
        assert_eq!(simplified(&e), e);
    }

    #[test]
    fn broadcast_pairs_merge_through_binops() {
        let e = add(bcast(var("x"), 8), bcast(int(1), 8));
        assert_eq!(simplified(&e), bcast(add(var("x"), int(1)), 8));
    }

    #[test]
    fn cast_identity_removed_and_imms_fold() {
        let x = var("x");
        assert_eq!(simplified(&cast(Type::i32(), x.clone())), x);
        assert_eq!(simplified(&cast(Type::f32(), int(3))), flt(3.0));
        let h = simplified(&cast(Type::f16(), flt(1.0 + 2f64.powi(-12))));
        match h {
            Expr::FloatImm(v, ScalarType::F16) => assert!((v - 1.0).abs() < 1e-3),
            other => panic!("expected f16 imm, got {other:?}"),
        }
    }

    #[test]
    fn select_on_constants() {
        let e = select(lt(int(1), int(2)), flt(1.0), flt(2.0));
        assert_eq!(simplified(&e), flt(1.0));
    }

    #[test]
    fn simplify_stmt_applies_everywhere() {
        let s = store(
            "out",
            ramp(add(int(1), int(2)), int(1), 4),
            bcast(flt(0.0), 4),
        );
        let s2 = simplify_stmt(&s);
        match s2 {
            Stmt::Store { index, .. } => match index {
                Expr::Ramp { base, .. } => assert_eq!(base.as_int(), Some(3)),
                other => panic!("expected ramp, got {other:?}"),
            },
            other => panic!("expected store, got {other:?}"),
        }
    }
}
