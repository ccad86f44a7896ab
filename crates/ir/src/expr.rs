//! IR expressions.
//!
//! The expression language mirrors the fragment of Halide IR that the paper's
//! instruction selector operates on (Fig. 9): vectorized loads, casts,
//! arithmetic, `ramp`/`broadcast` index constructors, `vector_reduce_add`,
//! intrinsic calls, and explicit `loc_to_loc` data-movement markers.
//!
//! # Rewriting discipline
//!
//! Trees are rewritten **in place**: [`Expr::rewrite_bottom_up`] and
//! [`Expr::substitute`] take `&mut self`, touch only the nodes they replace,
//! allocate nothing on a pass that replaces nothing, and report whether
//! anything was replaced. That is the one implementation — there is no
//! copying rewrite beside it. A rewrite that keeps a child moves it with
//! [`Expr::take`]; a caller that must keep its input clones the tree once
//! and rewrites the copy (the `&T -> T` entry points elsewhere in the stack
//! — `simplify_stmt`, `annotate_stmt` — are exactly that, two or three
//! lines each). The copying rewrite survives only as the reference
//! the property tests compare against (`reference.rs`, test builds only).

use crate::symbol::Symbol;
use crate::types::{Location, ScalarType, Type};

/// Binary operators. Arithmetic operators act pointwise over vectors;
/// comparisons yield `bool` vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BinOp {
    /// Pointwise addition.
    Add,
    /// Pointwise subtraction.
    Sub,
    /// Pointwise multiplication.
    Mul,
    /// Pointwise division (Euclidean on integers, matching Halide).
    Div,
    /// Pointwise remainder (Euclidean on integers, matching Halide).
    Mod,
    /// Pointwise minimum.
    Min,
    /// Pointwise maximum.
    Max,
    /// Pointwise `<`, producing booleans.
    Lt,
    /// Pointwise `<=`, producing booleans.
    Le,
    /// Pointwise `==`, producing booleans.
    Eq,
    /// Pointwise logical and.
    And,
    /// Pointwise logical or.
    Or,
}

impl BinOp {
    /// Whether the result element type is `bool` regardless of operand type.
    #[must_use]
    pub fn is_comparison(self) -> bool {
        matches!(self, BinOp::Lt | BinOp::Le | BinOp::Eq)
    }

    /// Operator name used by the textual printers.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Eq => "==",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// An IR expression tree.
///
/// Every expression has a [`Type`] computable via [`Expr::ty`]. Vector
/// semantics follow the paper: `Ramp { base, stride, lanes }` concatenates
/// the vectors `base, base+stride, …, base+(lanes-1)*stride` (so a vector
/// base yields a nested, flattened sequence), and `Broadcast` concatenates
/// `lanes` copies of its (possibly vector) argument.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer immediate (always scalar `int32`).
    IntImm(i64),
    /// Floating-point immediate with an explicit scalar element type.
    FloatImm(f64, ScalarType),
    /// A scalar variable reference (loop variables, parameters).
    Var(Symbol, ScalarType),
    /// Reinterpreting/converting cast; `ty.lanes` must equal the operand's.
    Cast(Type, Box<Expr>),
    /// Binary operation applied pointwise.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Pointwise two-way select: `cond ? then : otherwise`.
    Select(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Linear sequence of `lanes` (possibly vector) steps.
    Ramp {
        /// First element (or vector) of the sequence.
        base: Box<Expr>,
        /// Step between consecutive elements (lane count must match base).
        stride: Box<Expr>,
        /// Number of steps.
        lanes: u32,
    },
    /// Concatenation of `lanes` copies of `value`.
    Broadcast {
        /// Replicated value (may itself be a vector).
        value: Box<Expr>,
        /// Replication factor.
        lanes: u32,
    },
    /// Vectorized load `buffer[index]`; `ty` is the result type and must have
    /// the same lane count as `index`.
    Load {
        /// Result type of the load.
        ty: Type,
        /// Name of the buffer loaded from.
        buffer: Symbol,
        /// Index vector (element type `int32`).
        index: Box<Expr>,
    },
    /// Sums adjacent groups of lanes down to `lanes` output lanes.
    ///
    /// The operand lane count must be a multiple of `lanes`; each output lane
    /// `i` is the sum of operand lanes `i*g .. (i+1)*g` where `g` is the
    /// grouping factor.
    VectorReduceAdd {
        /// Output lane count.
        lanes: u32,
        /// Vector being reduced.
        value: Box<Expr>,
    },
    /// Intrinsic call with an explicit result type.
    Call {
        /// Result type.
        ty: Type,
        /// Intrinsic name (e.g. `tile_matmul`, `wmma.mma.sync`).
        name: Symbol,
        /// Arguments.
        args: Box<[Expr]>,
    },
    /// Data movement between locations (`mem_to_amx` and friends).
    ///
    /// Semantically the identity on the value; operationally it marks where
    /// loads into / stores out of accelerator register files happen, so the
    /// e-graph never equates values living in different locations.
    LocToLoc {
        /// Source location.
        from: Location,
        /// Destination location.
        to: Location,
        /// Moved value.
        value: Box<Expr>,
    },
}

impl Expr {
    /// Number of lanes of the expression's value.
    #[inline]
    #[must_use]
    pub fn lanes(&self) -> u32 {
        self.ty().lanes
    }

    /// Computes the expression's type.
    ///
    /// Costs O(depth), not O(size): each node's type is read off one child
    /// (a binary operation's left operand, a select's true arm, a ramp's
    /// base), so the walk follows a single path to a leaf, and callers may
    /// ask it at every node of a rewrite. The lane invariant — the operands
    /// of one node agree in lanes — is enforced where trees are built
    /// ([`crate::builder`] panics on a mismatch) and re-checked here only in
    /// debug builds; `crate::reference::checked_ty` is the full checking
    /// derivation the property tests hold this one equal to.
    ///
    /// # Panics
    ///
    /// Panics if a `vector_reduce_add` does not divide its operand's lanes,
    /// and in debug builds on mismatched operand lanes; trees produced via
    /// [`crate::builder`] are well-formed by construction.
    #[must_use]
    pub fn ty(&self) -> Type {
        match self {
            Expr::IntImm(_) => Type::i32(),
            Expr::FloatImm(_, st) | Expr::Var(_, st) => Type::new(*st, 1),
            Expr::Cast(ty, value) => {
                debug_assert_eq!(
                    ty.lanes,
                    value.lanes(),
                    "cast must preserve lane count: {self:?}"
                );
                *ty
            }
            Expr::Binary(op, a, b) => {
                let ta = a.ty();
                debug_assert_eq!(
                    ta.lanes,
                    b.lanes(),
                    "binary operands must have equal lanes: {self:?}"
                );
                if op.is_comparison() {
                    Type::new(ScalarType::Bool, ta.lanes)
                } else {
                    ta
                }
            }
            Expr::Select(cond, t, f) => {
                let tt = t.ty();
                debug_assert_eq!(cond.lanes(), tt.lanes);
                debug_assert_eq!(f.lanes(), tt.lanes);
                tt
            }
            Expr::Ramp {
                base,
                stride,
                lanes,
            } => {
                let tb = base.ty();
                debug_assert_eq!(
                    tb.lanes,
                    stride.lanes(),
                    "ramp base/stride lanes must match: {self:?}"
                );
                Type::new(tb.elem, tb.lanes * lanes)
            }
            Expr::Broadcast { value, lanes } => {
                let tv = value.ty();
                Type::new(tv.elem, tv.lanes * lanes)
            }
            Expr::Load { ty, .. } | Expr::Call { ty, .. } => *ty,
            Expr::VectorReduceAdd { lanes, value } => {
                let tv = value.ty();
                assert!(
                    tv.lanes % lanes == 0 && *lanes > 0,
                    "vector_reduce_add lanes {lanes} must divide operand lanes {}",
                    tv.lanes
                );
                Type::new(tv.elem, *lanes)
            }
            Expr::LocToLoc { value, .. } => value.ty(),
        }
    }

    /// Returns the constant integer value if the expression is an `IntImm`.
    #[inline]
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Expr::IntImm(v) => Some(*v),
            _ => None,
        }
    }

    /// Whether this expression is the integer constant `v` (scalar or
    /// a broadcast of it).
    #[must_use]
    pub fn is_const_int(&self, v: i64) -> bool {
        match self {
            Expr::IntImm(x) => *x == v,
            Expr::Broadcast { value, .. } => value.is_const_int(v),
            _ => false,
        }
    }

    /// Whether the expression mentions the variable `name` (the walk stops
    /// at the first occurrence).
    #[must_use]
    pub fn uses_var(&self, name: Symbol) -> bool {
        self.any(&mut |e| matches!(e, Expr::Var(n, _) if *n == name))
    }

    /// Whether the expression loads from the buffer `name` (the walk stops
    /// at the first such load).
    #[must_use]
    pub fn uses_buffer(&self, name: Symbol) -> bool {
        self.any(&mut |e| matches!(e, Expr::Load { buffer, .. } if *buffer == name))
    }

    /// Whether `f` holds for some sub-expression, `self` included: a
    /// pre-order walk that stops at the first hit.
    fn any(&self, f: &mut dyn FnMut(&Expr) -> bool) -> bool {
        f(self)
            || match self {
                Expr::IntImm(_) | Expr::FloatImm(..) | Expr::Var(..) => false,
                Expr::Cast(_, v)
                | Expr::Broadcast { value: v, .. }
                | Expr::VectorReduceAdd { value: v, .. }
                | Expr::LocToLoc { value: v, .. }
                | Expr::Load { index: v, .. } => v.any(f),
                Expr::Binary(_, a, b)
                | Expr::Ramp {
                    base: a, stride: b, ..
                } => a.any(f) || b.any(f),
                Expr::Select(c, t, e) => c.any(f) || t.any(f) || e.any(f),
                Expr::Call { args, .. } => args.iter().any(|a| a.any(f)),
            }
    }

    /// Pre-order traversal over all sub-expressions including `self`.
    pub fn for_each(&self, f: &mut dyn FnMut(&Expr)) {
        f(self);
        match self {
            Expr::IntImm(_) | Expr::FloatImm(..) | Expr::Var(..) => {}
            Expr::Cast(_, v)
            | Expr::Broadcast { value: v, .. }
            | Expr::VectorReduceAdd { value: v, .. }
            | Expr::LocToLoc { value: v, .. } => v.for_each(f),
            Expr::Binary(_, a, b) => {
                a.for_each(f);
                b.for_each(f);
            }
            Expr::Select(c, t, e) => {
                c.for_each(f);
                t.for_each(f);
                e.for_each(f);
            }
            Expr::Ramp { base, stride, .. } => {
                base.for_each(f);
                stride.for_each(f);
            }
            Expr::Load { index, .. } => index.for_each(f),
            Expr::Call { args, .. } => {
                for a in args {
                    a.for_each(f);
                }
            }
        }
    }

    /// Moves the expression out, leaving `IntImm(0)` behind (no
    /// allocation): how a rewrite promotes a child over its parent without
    /// copying it.
    #[inline]
    pub fn take(&mut self) -> Expr {
        std::mem::replace(self, Expr::IntImm(0))
    }

    /// Bottom-up rewrite, in place: children are rewritten first, then `f`
    /// sees the node with its rewritten children and may edit or replace it
    /// through the reference. `f` returns whether it changed the node; the
    /// result is whether any call did. A node `f` installs is not visited
    /// again in the same pass.
    pub fn rewrite_bottom_up<F>(&mut self, f: &mut F) -> bool
    where
        F: FnMut(&mut Expr) -> bool + ?Sized,
    {
        let mut changed = false;
        match self {
            Expr::IntImm(_) | Expr::FloatImm(..) | Expr::Var(..) => {}
            Expr::Cast(_, v)
            | Expr::Broadcast { value: v, .. }
            | Expr::VectorReduceAdd { value: v, .. }
            | Expr::LocToLoc { value: v, .. }
            | Expr::Load { index: v, .. } => changed |= v.rewrite_bottom_up(f),
            Expr::Binary(_, a, b)
            | Expr::Ramp {
                base: a, stride: b, ..
            } => {
                changed |= a.rewrite_bottom_up(f);
                changed |= b.rewrite_bottom_up(f);
            }
            Expr::Select(c, t, e) => {
                changed |= c.rewrite_bottom_up(f);
                changed |= t.rewrite_bottom_up(f);
                changed |= e.rewrite_bottom_up(f);
            }
            Expr::Call { args, .. } => {
                for a in args {
                    changed |= a.rewrite_bottom_up(f);
                }
            }
        }
        f(self) | changed
    }

    /// Replaces every occurrence of variable `name` with a copy of
    /// `replacement`, in place; returns whether there was one.
    pub fn substitute(&mut self, name: Symbol, replacement: &Expr) -> bool {
        self.rewrite_bottom_up(&mut |e| match e {
            Expr::Var(n, _) if *n == name => {
                *e = replacement.clone();
                true
            }
            _ => false,
        })
    }

    /// Number of nodes in the tree (the AST-size cost of the paper's §III-D3
    /// cost model).
    #[must_use]
    pub fn size(&self) -> usize {
        let mut n = 0usize;
        self.for_each(&mut |_| n += 1);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    #[test]
    fn immediates_have_expected_types() {
        assert_eq!(Expr::IntImm(3).ty(), Type::i32());
        assert_eq!(Expr::FloatImm(1.5, ScalarType::F32).ty(), Type::f32());
    }

    #[test]
    fn ramp_of_vector_base_multiplies_lanes() {
        // ramp(ramp(0, 1, 8), x8(1), 256) has 2048 lanes (Fig. 2 / App. B).
        let inner = ramp(int(0), int(1), 8);
        let outer = ramp(inner, bcast(int(1), 8), 256);
        assert_eq!(outer.ty(), Type::i32().with_lanes(2048));
    }

    #[test]
    fn broadcast_of_vector_multiplies_lanes() {
        let r = ramp(int(0), int(1), 3);
        let b = bcast(r, 8);
        assert_eq!(b.lanes(), 24);
    }

    #[test]
    fn reduce_divides_lanes() {
        let v = bcast(flt(1.0), 8192);
        let r = vreduce_add(512, cast(Type::f32().with_lanes(8192), v));
        assert_eq!(r.ty(), Type::f32().with_lanes(512));
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn reduce_rejects_nondivisible() {
        let v = bcast(flt(1.0), 10);
        let _ = vreduce_add(3, v).ty();
    }

    #[test]
    fn comparison_yields_bool() {
        let e = lt(int(1), int(2));
        assert_eq!(e.ty(), Type::bool());
        assert!(BinOp::Lt.is_comparison());
    }

    #[test]
    fn uses_var_and_buffer() {
        let e = load(Type::f32().with_lanes(4), "A", ramp(var("x"), int(1), 4));
        assert!(e.uses_var("x".into()));
        assert!(!e.uses_var("y".into()));
        assert!(e.uses_buffer("A".into()));
        assert!(!e.uses_buffer("B".into()));
    }

    #[test]
    fn substitute_replaces_vars() {
        let mut e = add(var("x"), int(1));
        assert!(e.substitute("x".into(), &int(41)));
        assert_eq!(e, add(int(41), int(1)));
        assert!(
            !e.substitute("x".into(), &int(7)),
            "nothing left to replace"
        );
    }

    #[test]
    fn in_place_substitute_equals_the_rebuilding_reference() {
        use crate::reference::{gen_expr, gen_scalar_int, rebuild_bottom_up, GENES};
        use proptest::prelude::*;
        let strategy = proptest::collection::vec(0u32..1_000_000, GENES);
        let mut rng = TestRng::from_name("in_place_substitute_equals_the_rebuilding_reference");
        let mut replaced = 0;
        for _ in 0..512 {
            let e = gen_expr(&strategy.generate(&mut rng));
            // The replacement mentions `x` itself: an installed copy must
            // not be substituted into again.
            let replacement = gen_scalar_int(&strategy.generate(&mut rng));
            let want = rebuild_bottom_up(&e, &mut |node| match node {
                Expr::Var(n, _) if n == "x" => Some(replacement.clone()),
                _ => None,
            });
            let mut got = e.clone();
            let changed = got.substitute("x".into(), &replacement);
            assert_eq!(got, want, "substituting {replacement} for x in {e}");
            assert_eq!(changed, e.uses_var("x".into()));
            replaced += usize::from(changed);
        }
        assert!(replaced > 128, "only {replaced} of 512 inputs mention x");
    }

    #[test]
    fn ty_equals_the_checking_derivation() {
        use crate::reference::{checked_ty, gen_expr, GENES};
        use proptest::prelude::*;
        let strategy = proptest::collection::vec(0u32..1_000_000, GENES);
        let mut rng = TestRng::from_name("ty_equals_the_checking_derivation");
        let mut vectors = 0;
        for _ in 0..2048 {
            let e = gen_expr(&strategy.generate(&mut rng));
            let want = checked_ty(&e);
            // Every node, not just the root: a rewrite asks at each one.
            e.for_each(&mut |node| assert_eq!(node.ty(), checked_ty(node), "type of {node}"));
            vectors += usize::from(want.lanes > 1);
        }
        assert!(vectors > 1024, "only {vectors} of 2048 inputs are vectors");
    }

    #[test]
    fn early_exit_queries_equal_a_full_walk() {
        use crate::reference::{gen_expr, GENES};
        use proptest::prelude::*;
        let strategy = proptest::collection::vec(0u32..1_000_000, GENES);
        let mut rng = TestRng::from_name("early_exit_queries_equal_a_full_walk");
        let (mut hits, mut misses) = (0, 0);
        for _ in 0..2048 {
            let e = gen_expr(&strategy.generate(&mut rng));
            for name in ["x", "y", "A", "B", "z"] {
                let (mut var, mut buffer) = (false, false);
                e.for_each(&mut |node| match node {
                    Expr::Var(n, _) => var |= n == name,
                    Expr::Load { buffer: b, .. } => buffer |= b == name,
                    _ => {}
                });
                assert_eq!(e.uses_var(name.into()), var, "uses_var({name}) in {e}");
                assert_eq!(
                    e.uses_buffer(name.into()),
                    buffer,
                    "uses_buffer({name}) in {e}"
                );
                hits += usize::from(var) + usize::from(buffer);
                misses += usize::from(!var) + usize::from(!buffer);
            }
        }
        assert!(hits > 2048 && misses > 2048, "{hits} hits, {misses} misses");
    }

    #[test]
    fn size_counts_nodes() {
        let e = add(var("x"), mul(int(2), var("y")));
        assert_eq!(e.size(), 5);
    }

    #[test]
    fn loc_to_loc_is_type_transparent() {
        let v = bcast(flt(0.0), 512);
        let m = mem_to_amx(v.clone());
        assert_eq!(m.ty(), v.ty());
    }

    #[test]
    fn as_int_and_is_const_int() {
        assert_eq!(int(7).as_int(), Some(7));
        assert_eq!(var("x").as_int(), None);
        assert!(bcast(int(3), 4).is_const_int(3));
    }
}
