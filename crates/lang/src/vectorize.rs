//! Nested vectorization: replacing a loop with vector lanes.
//!
//! Widening an expression over `v` (`n` lanes from `min`) rewrites it so
//! that the new lanes for `v` form the *outermost* vector dimension — exactly Halide's nested
//! vectorization, which is what produces the multi-level `Ramp`/`Broadcast`
//! access patterns HARDBOILED matches on (paper Fig. 2/3).
//!
//! Integer index expressions that are affine in `v` widen into a single
//! `Ramp` with a (possibly vector) stride, giving the canonical nested
//! forms; everything else widens structurally and pointwise. Loops whose
//! bodies use `v % c` / `v / c` (the VNNI layout idiom) are first decomposed
//! into two nested lanes `v = c·v1 + v0`.
//!
//! # One scan per widening
//!
//! Widening asks three things of every subtree: does it mention `v`, is it
//! affine in `v`, what is its type. One pre-order scan of each expression
//! answers all three for every node before the widening starts, so no
//! subtree is walked once per node above it: the widening, the coefficient
//! of an affine index and the pinning of `v` in its base all read the
//! scan's table, and a broadcast of a `v`-dependent value is pushed inward
//! as a pending factor instead of being rebuilt and scanned again. The scan
//! `lower` runs for a vectorized loop also finds the `v % c` divisor, so a
//! loop without one is scanned once in all. The trees it builds are the
//! ones the rewalking vectorizer built, node for node (its copy in the
//! tests is the oracle); the simplifier that follows folds them.
//!
//! The widening and [`decompose_mod_div`] consume their input: `v`-free
//! subtrees, buffer names and the boxes of widened nodes move into the
//! result, so widening a statement allocates only the ramps and broadcasts
//! it adds.

use hb_ir::builder::{add, bcast, mul, ramp};
use hb_ir::expr::{BinOp, Expr};
use hb_ir::stmt::Stmt;
use hb_ir::symbol::Symbol;
use hb_ir::types::{ScalarType, Type};

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

/// What one scan learns about a node, relative to the loop variable:
/// everything the widening and [`coeff`] ask of a subtree, so neither
/// walks a subtree more than once.
#[derive(Debug, Clone, Copy)]
struct Facts {
    /// The node's type.
    ty: Type,
    /// Nodes in the subtree: the distance to the next sibling's facts.
    size: u32,
    /// Whether the subtree mentions the variable.
    uses: bool,
    /// Whether the subtree is affine in it (`a + coeff·v` with `a` and
    /// `coeff` free of it; a variable-free subtree is, with coefficient 0).
    affine: bool,
}

impl Facts {
    /// The subtree's node count, as a distance in the facts.
    fn span(self) -> usize {
        self.size as usize
    }
}

/// Appends the facts of every node of `e` to `out` in pre-order (a node's
/// first child follows it; each further child follows the previous one's
/// subtree) and notes every `v % c` / `v / c` in `divisors`. One visit per
/// node. A child's facts are read back from `out` rather than returned by
/// value, which would copy them through memory once more per node.
fn scan(e: &Expr, v: Symbol, out: &mut Vec<Facts>, divisors: &mut Divisors) {
    let at = out.len();
    out.push(Facts {
        uses: false,
        affine: true,
        ty: Type::i32(),
        size: 1,
    });
    let mut kid = |e: &Expr| {
        let i = out.len();
        scan(e, v, out, divisors);
        out[i]
    };
    let (uses, affine, ty) = match e {
        Expr::IntImm(_) => (false, true, Type::i32()),
        Expr::FloatImm(_, st) => (false, true, Type::new(*st, 1)),
        Expr::Var(name, st) => (*name == v, true, Type::new(*st, 1)),
        Expr::Cast(ty, value) => {
            let f = kid(value);
            (f.uses, f.affine && ty.elem == ScalarType::I32, *ty)
        }
        Expr::Binary(op, a, b) => {
            let (fa, fb) = (kid(a), kid(b));
            divisors.note(e, v);
            let affine = match op {
                BinOp::Add | BinOp::Sub => fa.affine && fb.affine,
                BinOp::Mul => (!fa.uses && fb.affine) || (!fb.uses && fa.affine),
                _ => false,
            };
            let ty = if op.is_comparison() {
                Type::new(ScalarType::Bool, fa.ty.lanes)
            } else {
                fa.ty
            };
            (fa.uses || fb.uses, affine, ty)
        }
        Expr::Select(c, t, f) => {
            let (fc, ft, ff) = (kid(c), kid(t), kid(f));
            (fc.uses || ft.uses || ff.uses, false, ft.ty)
        }
        Expr::Ramp {
            base,
            stride,
            lanes,
        } => {
            let (fb, fs) = (kid(base), kid(stride));
            let ty = Type::new(fb.ty.elem, fb.ty.lanes * lanes);
            (fb.uses || fs.uses, fb.affine && !fs.uses, ty)
        }
        Expr::Broadcast { value, lanes } => {
            let f = kid(value);
            (f.uses, f.affine, f.ty.with_lanes(f.ty.lanes * lanes))
        }
        Expr::Load { ty, index, .. } => (kid(index).uses, false, *ty),
        Expr::VectorReduceAdd { lanes, value } => {
            let f = kid(value);
            (f.uses, false, f.ty.with_lanes(*lanes))
        }
        Expr::Call { ty, args, .. } => {
            (args.iter().fold(false, |u, a| kid(a).uses | u), false, *ty)
        }
        Expr::LocToLoc { value, .. } => {
            let f = kid(value);
            (f.uses, false, f.ty)
        }
    };
    debug_assert_eq!(ty, e.ty(), "scanned type of {e}");
    let facts = Facts {
        uses,
        // A variable-free subtree is affine whatever its shape.
        affine: affine || !uses,
        ty,
        size: u32::try_from(out.len() - at).expect("a subtree of at most u32::MAX nodes"),
    };
    out[at] = facts;
}

/// The facts of the children of the node whose facts start `facts`, in
/// order.
fn children(facts: &[Facts]) -> impl Iterator<Item = &[Facts]> {
    let mut next = 1;
    std::iter::from_fn(move || {
        let child = facts.get(next..)?;
        next += child.first()?.span();
        Some(child)
    })
}

/// The coefficient of `v` in `e`, whose facts start `facts` and say it is
/// affine. It has `e`'s lanes: operands agree in lanes, and so do their
/// coefficients.
fn coeff(e: &Expr, facts: &[Facts]) -> Expr {
    let f = facts[0];
    debug_assert!(f.affine, "coefficient of the non-affine {e}");
    if !f.uses {
        let zero = Expr::IntImm(0);
        return if f.ty.lanes == 1 {
            zero
        } else {
            bcast(zero, f.ty.lanes)
        };
    }
    let mut kids = children(facts);
    let mut next = || kids.next().expect("a child's facts");
    match e {
        Expr::Var(..) => Expr::IntImm(1),
        Expr::Binary(op @ (BinOp::Add | BinOp::Sub), a, b) => {
            let (fa, fb) = (next(), next());
            Expr::Binary(*op, Box::new(coeff(a, fa)), Box::new(coeff(b, fb)))
        }
        Expr::Binary(BinOp::Mul, a, b) => {
            let (fa, fb) = (next(), next());
            let (a, b) = if fa[0].uses {
                (coeff(a, fa), (**b).clone())
            } else {
                ((**a).clone(), coeff(b, fb))
            };
            Expr::Binary(BinOp::Mul, Box::new(a), Box::new(b))
        }
        Expr::Broadcast {
            value: inner,
            lanes,
        }
        | Expr::Ramp {
            base: inner, lanes, ..
        } => bcast(coeff(inner, next()), *lanes),
        Expr::Cast(_, value) => coeff(value, next()),
        other => unreachable!("{other} is not affine"),
    }
}

/// Replaces `v` by the constant `value` in `e`, whose facts start
/// `facts` and say it is affine, visiting only the nodes that lead to `v`.
fn pin(e: &mut Expr, facts: &[Facts], value: i64) {
    if !facts[0].uses {
        return;
    }
    let mut kids = children(facts);
    let mut next = || kids.next().expect("a child's facts");
    match e {
        Expr::Var(..) => *e = Expr::IntImm(value),
        Expr::Binary(_, a, b) => {
            let (fa, fb) = (next(), next());
            pin(a, fa, value);
            pin(b, fb, value);
        }
        Expr::Broadcast { value: inner, .. }
        | Expr::Ramp { base: inner, .. }
        | Expr::Cast(_, inner) => pin(inner, next(), value),
        other => unreachable!("{other} is not affine"),
    }
}

/// The divisors `c` of the `v % c` and `v / c` a statement uses (the VNNI
/// layout idiom).
#[derive(Debug, Default)]
struct Divisors {
    first: Option<i64>,
    conflict: bool,
}

impl Divisors {
    /// Notes `e` if it is `v % c` or `v / c`.
    fn note(&mut self, e: &Expr, v: Symbol) {
        let Expr::Binary(BinOp::Mod | BinOp::Div, a, b) = e else {
            return;
        };
        let (Expr::Var(name, _), Expr::IntImm(c)) = (a.as_ref(), b.as_ref()) else {
            return;
        };
        if *name == v {
            match self.first {
                None => self.first = Some(*c),
                Some(prev) if prev == *c => {}
                Some(_) => self.conflict = true,
            }
        }
    }

    /// The one divisor, if any.
    fn divisor(&self, v: Symbol) -> LowerResult<Option<i64>> {
        if self.conflict {
            return Err(LowerError(format!(
                "multiple distinct divisors for {v}; cannot decompose"
            )));
        }
        Ok(self.first)
    }
}

/// Scans every expression of `s` that widening `s` reads, in the order it
/// reads them, and notes `v`'s divisors in every expression of `s`.
fn prescan(s: &Stmt, v: Symbol, facts: &mut Vec<Facts>, divisors: &mut Divisors) {
    match s {
        Stmt::Store { index, value, .. } => {
            scan(index, v, facts, divisors);
            scan(value, v, facts, divisors);
        }
        Stmt::Evaluate(e) => {
            scan(e, v, facts, divisors);
        }
        Stmt::Block(stmts) => {
            for st in stmts {
                prescan(st, v, facts, divisors);
            }
        }
        // Not widenable; only its divisors count.
        other => other.for_each_expr(&mut |e| divisors.note(e, v)),
    }
}

/// The vectorizer's scan buffer, kept by a caller that vectorizes many
/// loops (`lower` keeps one for the whole pipeline). It starts with room
/// for twice the largest statement the benchmark's programs vectorize
/// (about 120 nodes), so it does not grow while it fills.
#[derive(Debug)]
pub(crate) struct WidenScratch(Vec<Facts>);

impl Default for WidenScratch {
    fn default() -> Self {
        WidenScratch(Vec::with_capacity(256))
    }
}

impl WidenScratch {
    /// Replaces the loop over `var` (from 0, `n` iterations) around `body`
    /// by vector lanes. A body that uses `var % c` / `var / c` (the VNNI
    /// layout idiom) is first split into two nested lane levels
    /// `var = c·var__p1 + var__p0`; otherwise the scan that looked for the
    /// divisor is the one the widening reads.
    ///
    /// # Errors
    ///
    /// Fails on distinct or non-positive divisors, a divisor that does not
    /// divide `n`, and on statements that cannot be vectorized over `var`
    /// ([`Widen::stmt`]).
    pub(crate) fn vectorize(&mut self, body: Stmt, var: Symbol, n: u32) -> LowerResult<Stmt> {
        let mut divisors = Divisors::default();
        self.0.clear();
        prescan(&body, var, &mut self.0, &mut divisors);
        let Some(c) = divisors.divisor(var)? else {
            return Widen::new(var, 0, n, &self.0).stmt(body);
        };
        // The divisor is whatever constant the algorithm wrote: zero or
        // negative must not reach `%`.
        let inner_lanes = u32::try_from(c)
            .ok()
            .filter(|lanes| *lanes > 0)
            .ok_or_else(|| {
                LowerError(format!(
                    "cannot vectorize {var} over its non-positive divisor {c}"
                ))
            })?;
        if !n.is_multiple_of(inner_lanes) {
            return Err(LowerError(format!(
                "extent {n} of {var} not divisible by {c}"
            )));
        }
        let v0 = Symbol::from(format!("{var}__p0"));
        let v1 = Symbol::from(format!("{var}__p1"));
        let d = decompose_mod_div(body, var, c, v0, v1);
        let w0 = self.stmt(d, v0, 0, inner_lanes)?;
        self.stmt(w0, v1, 0, n / inner_lanes)
    }

    /// Widens the leaf statement `s` over `v ∈ [min, min+n)`, the new
    /// dimension outermost, scanning into this buffer.
    fn stmt(&mut self, s: Stmt, v: Symbol, min: i64, n: u32) -> LowerResult<Stmt> {
        self.0.clear();
        prescan(&s, v, &mut self.0, &mut Divisors::default());
        Widen::new(v, min, n, &self.0).stmt(s)
    }
}

/// One widening over `v ∈ [min, min+n)`, reading the facts of a scan.
struct Widen<'a> {
    v: Symbol,
    min: i64,
    n: u32,
    /// Facts of the expressions being widened, in scan order.
    facts: &'a [Facts],
    /// Where the facts of the next expression [`prescan`] scanned start.
    next: usize,
}

impl<'a> Widen<'a> {
    fn new(v: Symbol, min: i64, n: u32, facts: &'a [Facts]) -> Self {
        Widen {
            v,
            min,
            n,
            facts,
            next: 0,
        }
    }

    /// Where the facts of the next scanned expression start; moves past
    /// them.
    fn take(&mut self) -> usize {
        let at = self.next;
        self.next += self.facts[at].span();
        at
    }

    /// Widens one leaf statement, consuming it, whose expressions
    /// [`prescan`] scanned. Reduction updates (store index free of `v`,
    /// value of the form `f[idx] + rhs`) become `vector_reduce_add`s — this
    /// requires the stage to be `atomic()` (checked by the caller).
    fn stmt(&mut self, s: Stmt) -> LowerResult<Stmt> {
        let v = self.v;
        match s {
            Stmt::Store {
                buffer,
                index,
                value,
            } => {
                let (index_at, value_at) = (self.take(), self.take());
                if self.facts[index_at].uses {
                    let index = self.node(index, index_at, None)?;
                    return Ok(Stmt::Store {
                        buffer,
                        index,
                        value: self.node(value, value_at, None)?,
                    });
                }
                // Reduction vectorization: f[idx] = f[idx] + rhs, idx free
                // of v. `lhs`'s facts follow the sum's, then `rhs`'s.
                let lhs_at = value_at + 1;
                let value = match value {
                    Expr::Binary(BinOp::Add, lhs, rhs)
                        if !self.facts[lhs_at].uses && is_accumulator(&lhs, buffer, &index) =>
                    {
                        let mut at = lhs_at + self.facts[lhs_at].span();
                        // Extend an existing reduction (second rvar lane
                        // level, e.g. after mod/div decomposition) instead
                        // of nesting vector_reduce_adds.
                        let (lanes, inner) = match *rhs {
                            Expr::VectorReduceAdd { lanes, value } if lanes == index.lanes() => {
                                at += 1;
                                (lanes, *value)
                            }
                            rhs => (index.lanes(), rhs),
                        };
                        let reduced = Expr::VectorReduceAdd {
                            lanes,
                            value: Box::new(self.node(inner, at, None)?),
                        };
                        return Ok(Stmt::Store {
                            buffer,
                            index,
                            value: add(*lhs, reduced),
                        });
                    }
                    other => other,
                };
                if !self.facts[value_at].uses {
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
            Stmt::Evaluate(e) => {
                let at = self.take();
                Ok(Stmt::Evaluate(self.node(e, at, None)?))
            }
            Stmt::Block(stmts) => Ok(Stmt::Block(
                stmts
                    .into_iter()
                    .map(|st| self.stmt(st))
                    .collect::<LowerResult<Vec<_>>>()?,
            )),
            other => Err(LowerError(format!(
                "cannot vectorize across an inner loop/allocation over {v}: {other:?}"
            ))),
        }
    }

    /// Widens `e`, whose facts start at `self.facts[at]` — or, with
    /// `bcast_by = Some(k)`, widens the broadcast `x{k}(e)`. A `v`-dependent
    /// broadcast is pushed inward through casts, loads, pointwise
    /// operations and further broadcasts until it lands on an integer
    /// index affine widening can handle; carrying it down as `k` instead
    /// of building the pushed tree keeps every node on the facts of the
    /// one scan.
    fn node(&mut self, e: Expr, at: usize, bcast_by: Option<u32>) -> LowerResult<Expr> {
        let (v, min, n) = (self.v, self.min, self.n);
        let wrap = |e: Expr| match bcast_by {
            Some(k) => bcast(e, k),
            None => e,
        };
        let f = self.facts[at];
        if !f.uses {
            return Ok(bcast(wrap(e), n));
        }
        // Affine integer indexes widen into one nested ramp.
        if f.affine && f.ty.elem == ScalarType::I32 {
            let stride = wrap(coeff(&e, &self.facts[at..]));
            let mut base = e;
            pin(&mut base, &self.facts[at..], min);
            return Ok(Expr::Ramp {
                base: Box::new(wrap(base)),
                stride: Box::new(stride),
                lanes: n,
            });
        }
        let k = bcast_by.unwrap_or(1);
        let mut next = at + 1;
        let mut child = |this: &mut Self, mut c: Box<Expr>| -> LowerResult<Box<Expr>> {
            let i = next;
            next += this.facts[i].span();
            *c = this.node(c.take(), i, bcast_by)?;
            Ok(c)
        };
        match (e, bcast_by) {
            (Expr::Var(name, _), None) if name == v => {
                Ok(ramp(Expr::IntImm(min), Expr::IntImm(1), n))
            }
            (Expr::Binary(op, a, b), _) => {
                let a = child(self, a)?;
                Ok(Expr::Binary(op, a, child(self, b)?))
            }
            (Expr::Cast(ty, value), _) => Ok(Expr::Cast(
                ty.with_lanes(ty.lanes * k * n),
                child(self, value)?,
            )),
            (Expr::Load { ty, buffer, index }, _) => Ok(Expr::Load {
                ty: ty.with_lanes(ty.lanes * k * n),
                buffer,
                index: child(self, index)?,
            }),
            (Expr::Broadcast { value, lanes }, _) => self.node(*value, at + 1, Some(lanes * k)),
            (Expr::Select(c, t, e), None) => {
                let c = child(self, c)?;
                let t = child(self, t)?;
                Ok(Expr::Select(c, t, child(self, e)?))
            }
            (Expr::VectorReduceAdd { lanes, value }, None) => Ok(Expr::VectorReduceAdd {
                lanes: lanes * n,
                value: child(self, value)?,
            }),
            (ramp @ Expr::Ramp { .. }, None) => Err(LowerError(format!(
                "non-affine ramp in vectorized index over {v}: {ramp}"
            ))),
            (other, None) => Err(LowerError(format!("cannot vectorize {other} over {v}"))),
            (other, Some(k)) => Err(LowerError(format!(
                "cannot vectorize broadcast of {v}-dependent value: {}",
                bcast(other, k)
            ))),
        }
    }
}

/// Whether `lhs` is the accumulator `buffer[index]` of a reduction update
/// (its freedom of the loop variable is the caller's to check).
fn is_accumulator(lhs: &Expr, buffer: Symbol, index: &Expr) -> bool {
    let Expr::Load {
        buffer: b2,
        index: i2,
        ..
    } = lhs
    else {
        return false;
    };
    *b2 == buffer && i2.as_ref() == index
}

/// Rewrites `v % c → v0`, `v / c → v1`, and remaining `v → v0 + c·v1`,
/// consuming the statement.
#[must_use]
pub fn decompose_mod_div(mut s: Stmt, v: Symbol, c: i64, v0: Symbol, v1: Symbol) -> Stmt {
    let recombined = add(
        Expr::Var(v0, ScalarType::I32),
        mul(Expr::IntImm(c), Expr::Var(v1, ScalarType::I32)),
    );
    s.map_exprs(&mut |e| {
        let split = e.rewrite_bottom_up(&mut |node| {
            let Expr::Binary(op @ (BinOp::Mod | BinOp::Div), a, b) = &*node else {
                return false;
            };
            match (a.as_ref(), b.as_ref()) {
                (Expr::Var(name, st), Expr::IntImm(cc)) if *name == v && *cc == c => {
                    let part = if *op == BinOp::Mod { v0 } else { v1 };
                    *node = Expr::Var(part, *st);
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

    /// The coefficient of `v` in `e`, if `e` is affine in `v`.
    fn affine_coeff(e: &Expr, v: &str) -> Option<Expr> {
        let v = Symbol::from(v);
        let mut facts = Vec::new();
        scan(e, v, &mut facts, &mut Divisors::default());
        facts[0].affine.then(|| coeff(e, &facts))
    }

    /// `e` widened over `v ∈ [min, min+n)`.
    fn widen_expr(e: Expr, v: &str, min: i64, n: u32) -> LowerResult<Expr> {
        let v = Symbol::from(v);
        let mut facts = Vec::new();
        scan(&e, v, &mut facts, &mut Divisors::default());
        Widen::new(v, min, n, &facts).node(e, 0, None)
    }

    /// The leaf statement `s` widened over `v ∈ [min, min+n)`.
    fn widen_stmt(s: Stmt, v: &str, min: i64, n: u32) -> LowerResult<Stmt> {
        WidenScratch::default().stmt(s, v.into(), min, n)
    }

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
        let w = widen_stmt(s, "r", 0, 8).unwrap();
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
        let w2 = widen_stmt(w, "x", 0, 16).unwrap();
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

    /// The vectorizer as it was before it scanned each expression once:
    /// every level asks `uses_var`, `ty` and `affine_coeff` of its whole
    /// subtree again. The reference the one-scan versions are held equal to.
    mod rewalking {
        use super::super::{LowerError, LowerResult};
        use hb_ir::builder::{add, bcast, mul, ramp};
        use hb_ir::expr::{BinOp, Expr};
        use hb_ir::symbol::Symbol;
        use hb_ir::types::ScalarType;

        pub fn affine_coeff(e: &Expr, v: Symbol) -> Option<Expr> {
            if !e.uses_var(v) {
                let lanes = e.lanes();
                let zero = Expr::IntImm(0);
                return Some(if lanes == 1 { zero } else { bcast(zero, lanes) });
            }
            match e {
                Expr::Var(name, _) if *name == v => Some(Expr::IntImm(1)),
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

        /// Pushes a broadcast of a `v`-dependent value inward through
        /// casts, loads and pointwise operations so the broadcast lands on
        /// integer indexes where affine widening can handle it. A value of
        /// any other shape comes back untouched as the error.
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

        pub fn widen_expr(e: Expr, v: Symbol, min: i64, n: u32) -> LowerResult<Expr> {
            if !e.uses_var(v) {
                return Ok(bcast(e, n));
            }
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
    }

    /// Decodes genes into expressions over `x`, `y`, `r`: integer indexes
    /// of 1, 2 or 4 lanes — affine and non-affine, broadcasts, ramps (with
    /// variable strides too), casts, `%` and `/` — and scalar values over
    /// them: loads, casts, selects, reductions, and the shapes widening
    /// rejects (calls, `x`-dependent broadcasts of them).
    struct Genes<'a>(&'a [u32], usize);

    impl Genes<'_> {
        fn pick(&mut self, n: u32) -> u32 {
            let gene = self.0.get(self.1).copied().unwrap_or(0);
            self.1 += 1;
            gene % n
        }

        /// A factor of `lanes` (1 and `lanes` included).
        fn factor(&mut self, lanes: u32) -> u32 {
            1 << self.pick(lanes.trailing_zeros() + 1)
        }

        fn index(&mut self, lanes: u32, depth: u32) -> Expr {
            let splat = |e: Expr| if lanes == 1 { e } else { b::bcast(e, lanes) };
            if depth == 0 {
                return splat(match self.pick(4) {
                    0 => b::int(i64::from(self.pick(7)) - 3),
                    1 => b::var("x"),
                    2 => b::var("y"),
                    _ => b::var("r"),
                });
            }
            let d = depth - 1;
            match self.pick(10) {
                0 => b::add(self.index(lanes, d), self.index(lanes, d)),
                1 => b::sub(self.index(lanes, d), self.index(lanes, d)),
                2 => b::mul(self.index(lanes, d), splat(b::int(i64::from(self.pick(5))))),
                3 => b::mul(self.index(lanes, d), self.index(lanes, d)),
                4 => b::cast(Type::i32().with_lanes(lanes), self.index(lanes, d)),
                5 => {
                    let f = self.factor(lanes);
                    b::bcast(self.index(lanes / f, d), f)
                }
                6 => {
                    let f = self.factor(lanes);
                    let base = self.index(lanes / f, d);
                    b::ramp(base, self.index(lanes / f, d.min(1)), f)
                }
                7 => {
                    let c = splat(b::int(i64::from(self.pick(3)) + 1));
                    if self.pick(2) == 0 {
                        b::modulo(self.index(lanes, d), c)
                    } else {
                        b::div(self.index(lanes, d), c)
                    }
                }
                _ => self.index(lanes, 0),
            }
        }

        fn value(&mut self, depth: u32) -> Expr {
            if depth == 0 {
                return b::load(Type::f32(), "A", self.index(1, 2));
            }
            let d = depth - 1;
            match self.pick(8) {
                0 => b::add(self.value(d), self.value(d)),
                1 => b::mul(self.value(d), b::flt(2.0)),
                2 => b::cast_f32(self.index(1, 2)),
                3 => b::select(
                    b::lt(self.index(1, 1), self.index(1, 1)),
                    self.value(d),
                    self.value(d),
                ),
                4 => b::vreduce_add(1, b::bcast(self.value(d), 1)),
                5 => b::bcast(self.value(d), 1),
                6 => b::call(Type::f32(), "opaque", vec![self.index(1, 1)]),
                _ => self.value(0),
            }
        }
    }

    #[test]
    fn one_scan_vectorizer_equals_the_rewalking_reference() {
        use proptest::prelude::*;
        let strategy = proptest::collection::vec(0u32..1_000_000, 96);
        let mut rng = TestRng::from_name("one_scan_vectorizer_equals_the_rewalking_reference");
        let (mut widened, mut rejected, mut affine, mut non_affine) = (0, 0, 0, 0);
        for _ in 0..2048 {
            let genes = strategy.generate(&mut rng);
            let mut g = Genes(&genes, 0);
            let e = if g.pick(3) == 0 {
                g.value(3)
            } else {
                let lanes = 1 << g.pick(3);
                g.index(lanes, 4)
            };
            let (min, n) = (i64::from(g.pick(3)), 2 << g.pick(3));
            for v in ["x", "r"] {
                let want = rewalking::affine_coeff(&e, v.into());
                assert_eq!(affine_coeff(&e, v), want, "coefficient of {v} in {e}");
                let uses = e.uses_var(v.into());
                affine += usize::from(uses && rewalking::affine_coeff(&e, v.into()).is_some());
                non_affine += usize::from(rewalking::affine_coeff(&e, v.into()).is_none());
            }
            // Nested, as `lower` applies it: r innermost, then x outside it.
            let want = rewalking::widen_expr(e.clone(), "r".into(), min, n)
                .and_then(|w| rewalking::widen_expr(w, "x".into(), 0, 4));
            let got = widen_expr(e.clone(), "r", min, n).and_then(|w| widen_expr(w, "x", 0, 4));
            assert_eq!(got, want, "widening {e}");
            widened += usize::from(want.is_ok());
            rejected += usize::from(want.is_err());
            // Statements too: `w` stored at a `y`-dependent index.
            if let Ok(w) = &want {
                let lanes = i64::from(w.lanes());
                let index = b::ramp(b::mul(b::var("y"), b::int(lanes)), b::int(1), w.lanes());
                let y = Symbol::from("y");
                let want = rewalking::widen_expr(index.clone(), y, 1, 2).and_then(|index| {
                    Ok(Stmt::Store {
                        buffer: "out".into(),
                        index,
                        value: rewalking::widen_expr(w.clone(), y, 1, 2)?,
                    })
                });
                let got = widen_stmt(b::store("out", index, w.clone()), "y", 1, 2);
                assert_eq!(got, want, "widening the store of {w}");
            }
        }
        assert!(widened > 512, "only {widened} of 2048 inputs widened");
        assert!(rejected > 128, "only {rejected} of 2048 inputs rejected");
        assert!(
            affine > 512,
            "only {affine} affine, variable-dependent cases"
        );
        assert!(non_affine > 512, "only {non_affine} non-affine cases");
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
        let w = widen_stmt(b::store("f", b::var("x"), val), "x", 0, 16).unwrap();
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
        let divisor = |s: &Stmt, v: &str| {
            let v = Symbol::from(v);
            let mut divisors = Divisors::default();
            prescan(s, v, &mut Vec::new(), &mut divisors);
            divisors.divisor(v)
        };
        assert_eq!(divisor(&s, "r").unwrap(), Some(2));
        assert_eq!(divisor(&s, "y").unwrap(), None);
        let two = b::store(
            "B",
            b::int(0),
            b::add(
                b::modulo(b::var("r"), b::int(2)),
                b::div(b::var("r"), b::int(4)),
            ),
        );
        let err = divisor(&two, "r").unwrap_err();
        assert!(err.0.contains("multiple distinct divisors"), "{err}");
        let d = decompose_mod_div(s, "r".into(), 2, "r0".into(), "r1".into());
        let mut uses_r = false;
        d.for_each_expr(&mut |e| {
            if e.uses_var("r".into()) {
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
