//! IR statements: stores, loops, allocations, and statement blocks.
//!
//! Statement trees follow the same rewriting discipline as expressions
//! (see [`crate::expr`]): [`Stmt::map_exprs`] hands every top-level
//! expression to an editor in place, [`Stmt::rewrite_stmts_in_place`] walks
//! the statements bottom-up and lets the visitor replace nodes through the
//! reference, and both report whether anything changed.
//! [`Stmt::rewrite_stmts_bottom_up`] is the same rewrite on a copy, kept for
//! callers that hold the tree by reference.

use crate::expr::Expr;
use crate::symbol::Symbol;
use crate::types::{MemoryType, ScalarType};

/// How a loop is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ForKind {
    /// Ordinary sequential loop.
    Serial,
    /// Fully unrolled at compile time (extent must be constant).
    Unrolled,
    /// CPU-parallel loop.
    Parallel,
    /// GPU block (grid) dimension.
    GpuBlock,
    /// GPU thread dimension within a block.
    GpuThread,
    /// Warp-lane loop wrapped around WMMA statements
    /// (the paper's `for_gpu_lanes(thread_id_x, 0, 32)`).
    GpuLane,
}

/// An IR statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `buffer[index] = value` (vectorized when `index` is a vector).
    Store {
        /// Destination buffer name.
        buffer: Symbol,
        /// Index vector.
        index: Expr,
        /// Stored value (lane count matches the index).
        value: Expr,
    },
    /// Evaluates an expression for its side effects (e.g. `tile_store`).
    Evaluate(Expr),
    /// A counted loop over `var` in `[min, min+extent)`.
    For {
        /// Loop variable name (scalar `int32` in the body).
        var: Symbol,
        /// Loop lower bound.
        min: Expr,
        /// Trip count.
        extent: Expr,
        /// Execution strategy.
        kind: ForKind,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// Sequential composition.
    Block(Vec<Stmt>),
    /// Scoped allocation of `size` elements of `elem` in `memory`,
    /// live for the duration of `body`.
    Allocate {
        /// Buffer name introduced for `body`.
        name: Symbol,
        /// Element type.
        elem: ScalarType,
        /// Number of elements.
        size: u64,
        /// Placement.
        memory: MemoryType,
        /// Scope in which the buffer is visible.
        body: Box<Stmt>,
    },
    /// Guarded statement (used for boundary handling).
    If {
        /// Scalar boolean condition.
        cond: Expr,
        /// Executed when the condition holds.
        then_case: Box<Stmt>,
    },
}

impl Stmt {
    /// Pre-order traversal over all nested statements including `self`
    /// (the visitor may keep the references it is handed).
    pub fn for_each_stmt<'a>(&'a self, f: &mut dyn FnMut(&'a Stmt)) {
        f(self);
        match self {
            Stmt::Store { .. } | Stmt::Evaluate(_) => {}
            Stmt::For { body, .. } | Stmt::Allocate { body, .. } => body.for_each_stmt(f),
            Stmt::Block(stmts) => {
                for s in stmts {
                    s.for_each_stmt(f);
                }
            }
            Stmt::If { then_case, .. } => then_case.for_each_stmt(f),
        }
    }

    /// Visits every expression appearing anywhere in the statement tree.
    pub fn for_each_expr(&self, f: &mut dyn FnMut(&Expr)) {
        self.for_each_stmt(&mut |s| match s {
            Stmt::Store { index, value, .. } => {
                index.for_each(f);
                value.for_each(f);
            }
            Stmt::Evaluate(e) => e.for_each(f),
            Stmt::For { min, extent, .. } => {
                min.for_each(f);
                extent.for_each(f);
            }
            Stmt::If { cond, .. } => cond.for_each(f),
            Stmt::Block(_) | Stmt::Allocate { .. } => {}
        });
    }

    /// Moves the statement out, leaving an empty `Block` behind (no
    /// allocation).
    pub fn take(&mut self) -> Stmt {
        std::mem::replace(self, Stmt::Block(Vec::new()))
    }

    /// Hands every top-level expression of the tree to `f` for editing in
    /// place (statement structure is preserved). `f` returns whether it
    /// changed the expression; the result is whether any call did.
    pub fn map_exprs(&mut self, f: &mut dyn FnMut(&mut Expr) -> bool) -> bool {
        match self {
            Stmt::Store { index, value, .. } => f(index) | f(value),
            Stmt::Evaluate(e) => f(e),
            Stmt::For {
                min, extent, body, ..
            } => f(min) | f(extent) | body.map_exprs(f),
            Stmt::Block(stmts) => stmts.iter_mut().fold(false, |c, s| s.map_exprs(f) | c),
            Stmt::Allocate { body, .. } => body.map_exprs(f),
            Stmt::If { cond, then_case } => f(cond) | then_case.map_exprs(f),
        }
    }

    /// Bottom-up statement rewrite, in place: nested statements first, then
    /// `f` sees the node and may edit or replace it through the reference.
    /// `f` returns whether it changed the node; the result is whether any
    /// call did. A statement `f` installs is not visited again.
    pub fn rewrite_stmts_in_place(&mut self, f: &mut dyn FnMut(&mut Stmt) -> bool) -> bool {
        let changed = match self {
            Stmt::Store { .. } | Stmt::Evaluate(_) => false,
            Stmt::For { body, .. }
            | Stmt::Allocate { body, .. }
            | Stmt::If {
                then_case: body, ..
            } => body.rewrite_stmts_in_place(f),
            Stmt::Block(stmts) => stmts
                .iter_mut()
                .fold(false, |c, s| s.rewrite_stmts_in_place(f) | c),
        };
        f(self) | changed
    }

    /// [`Stmt::rewrite_stmts_in_place`] on a copy, for callers that hold
    /// the tree by reference: `f` returning `None` keeps the node (with
    /// already-rewritten children).
    #[must_use]
    pub fn rewrite_stmts_bottom_up(&self, f: &mut dyn FnMut(&Stmt) -> Option<Stmt>) -> Stmt {
        let mut out = self.clone();
        out.rewrite_stmts_in_place(&mut |s| f(s).map(|new| *s = new).is_some());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    fn sample() -> Stmt {
        for_serial(
            "x",
            int(0),
            int(4),
            block(vec![
                store("out", ramp(var("x"), int(1), 4), bcast(flt(0.0), 4)),
                evaluate(call(crate::types::Type::i32(), "noop", vec![])),
            ]),
        )
    }

    #[test]
    fn traversal_visits_all_statements() {
        let mut count = 0;
        sample().for_each_stmt(&mut |_| count += 1);
        // for + block + store + evaluate
        assert_eq!(count, 4);
    }

    #[test]
    fn map_exprs_rewrites_indices() {
        let mut s = sample();
        assert!(s.map_exprs(&mut |e| e.substitute("x".into(), &int(7))));
        assert!(!s.map_exprs(&mut |e| e.substitute("x".into(), &int(7))));
        let mut saw = false;
        s.for_each_expr(&mut |e| {
            if let crate::expr::Expr::Ramp { base, .. } = e {
                assert_eq!(base.as_int(), Some(7));
                saw = true;
            }
        });
        assert!(saw);
    }

    #[test]
    fn rewrite_bottom_up_replaces_loops() {
        let s = sample().rewrite_stmts_bottom_up(&mut |s| match s {
            Stmt::For {
                var,
                min,
                extent,
                body,
                ..
            } => Some(Stmt::For {
                var: *var,
                min: min.clone(),
                extent: extent.clone(),
                kind: ForKind::Parallel,
                body: body.clone(),
            }),
            _ => None,
        });
        match s {
            Stmt::For { kind, .. } => assert_eq!(kind, ForKind::Parallel),
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn in_place_rewrite_visits_children_first_and_reports_changes() {
        // Unit blocks collapse bottom-up: the inner block is gone before
        // the loop above it is seen.
        let mut s = for_serial("x", int(0), int(4), block(vec![evaluate(int(1))]));
        let mut seen = Vec::new();
        let changed = s.rewrite_stmts_in_place(&mut |st| {
            seen.push(std::mem::discriminant(st));
            match st {
                Stmt::Block(stmts) if stmts.len() == 1 => {
                    *st = stmts[0].take();
                    true
                }
                _ => false,
            }
        });
        assert!(changed);
        assert_eq!(s, for_serial("x", int(0), int(4), evaluate(int(1))));
        assert_eq!(seen.len(), 3, "evaluate, block, for");
        assert!(!s.rewrite_stmts_in_place(&mut |_| false));
    }
}
