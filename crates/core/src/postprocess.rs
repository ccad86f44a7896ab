//! Post-processing of extracted programs (tile extractor, final step).
//!
//! Lowers `ExprVar` markers — temporary buffers holding the result of an
//! evaluated expression, used by HARDBOILED for swizzled matrices — into
//! real allocations: an `Allocate` in stack scratch, an initializing store
//! of the inner expression, and a reference to the buffer where the marker
//! stood.

use std::sync::atomic::{AtomicUsize, Ordering};

use hb_ir::builder::{allocate, block, ramp, store};
use hb_ir::expr::Expr;
use hb_ir::stmt::Stmt;
use hb_ir::types::{MemoryType, ScalarType};

/// Intrinsic name marking an `ExprVar` in decoded IR.
pub const EXPR_VAR_MARKER: &str = "__expr_var";

static NEXT_TEMP: AtomicUsize = AtomicUsize::new(0);

fn fresh_name() -> String {
    let n = NEXT_TEMP.fetch_add(1, Ordering::Relaxed);
    format!("__hb_tmp{n}")
}

/// Renumbers `__hb_tmpN` gensyms by first appearance so programs from two
/// selector runs compare equal: the temp counter above is global to the
/// process, not per-run, so byte-comparing selected programs across runs
/// requires this canonicalization first. Used by every equivalence oracle
/// (the batched-vs-per-leaf tests, `crates/bench/tests/pool.rs`).
#[must_use]
pub fn normalize_temps(program: &str) -> String {
    let mut out = String::with_capacity(program.len());
    let mut seen: Vec<String> = Vec::new();
    let mut rest = program;
    while let Some(pos) = rest.find("__hb_tmp") {
        let (head, tail) = rest.split_at(pos + "__hb_tmp".len());
        out.push_str(head);
        let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
        let canon = match seen.iter().position(|d| *d == digits) {
            Some(i) => i,
            None => {
                seen.push(digits.clone());
                seen.len() - 1
            }
        };
        out.push_str(&canon.to_string());
        rest = &tail[digits.len()..];
    }
    out.push_str(rest);
    out
}

/// A materialized temporary: name, element type, size and initializer.
#[derive(Debug, Clone, PartialEq)]
pub struct Materialization {
    /// Generated buffer name.
    pub name: String,
    /// Element type.
    pub elem: ScalarType,
    /// Number of elements.
    pub size: u64,
    /// Expression whose value fills the buffer.
    pub init: Expr,
}

/// A malformed extraction result the materializer cannot lower (a marker
/// with no argument, a temp too wide to address). On the session's splice
/// path these feed the `FallbackUnoptimized` rung — the original statement
/// is spliced unoptimized — instead of aborting the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaterializeError(pub String);

impl std::fmt::Display for MaterializeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "materialization failed: {}", self.0)
    }
}

impl std::error::Error for MaterializeError {}

/// Replaces the `__expr_var(inner)` markers of an expression with
/// buffer-name variables, in place, moving each `inner` into `mats`.
fn extract_materializations(
    e: &mut Expr,
    mats: &mut Vec<Materialization>,
) -> Result<(), MaterializeError> {
    let mut malformed = false;
    e.rewrite_bottom_up(&mut |node| {
        let Expr::Call { name, args, .. } = node else {
            return false;
        };
        if name != EXPR_VAR_MARKER {
            return false;
        }
        let Some(inner) = args.first_mut().map(Expr::take) else {
            malformed = true;
            return false;
        };
        let ty = inner.ty();
        let tmp = fresh_name();
        mats.push(Materialization {
            name: tmp.clone(),
            elem: ty.elem,
            size: u64::from(ty.lanes),
            init: inner,
        });
        *node = Expr::Var(tmp, ScalarType::I32);
        true
    });
    if malformed {
        return Err(MaterializeError(format!(
            "{EXPR_VAR_MARKER} marker with no argument"
        )));
    }
    Ok(())
}

/// Post-processes one leaf statement, consuming it: materializes its
/// `ExprVar`s, wrapping the statement in the needed allocations and
/// initializing stores.
///
/// # Errors
///
/// Returns [`MaterializeError`] on a malformed marker or a temp buffer too
/// large to address with a 32-bit ramp.
pub fn try_materialize_owned(mut s: Stmt) -> Result<Stmt, MaterializeError> {
    let mut mats = Vec::new();
    match &mut s {
        Stmt::Store { index, value, .. } => {
            extract_materializations(index, &mut mats)?;
            extract_materializations(value, &mut mats)?;
        }
        Stmt::Evaluate(e) => extract_materializations(e, &mut mats)?,
        _ => {}
    }
    let mut out = s;
    for mat in mats.into_iter().rev() {
        let lanes = u32::try_from(mat.size).map_err(|_| {
            MaterializeError(format!(
                "temp buffer {} too large: {} elements",
                mat.name, mat.size
            ))
        })?;
        let init = store(
            &mat.name,
            ramp(hb_ir::builder::int(0), hb_ir::builder::int(1), lanes),
            mat.init,
        );
        out = allocate(
            &mat.name,
            mat.elem,
            mat.size,
            MemoryType::Stack,
            block(vec![init, out]),
        );
    }
    Ok(out)
}

/// [`try_materialize_owned`] on a copy.
///
/// # Errors
///
/// As [`try_materialize_owned`].
pub fn try_materialize_stmt(s: &Stmt) -> Result<Stmt, MaterializeError> {
    try_materialize_owned(s.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_ir::builder as b;
    use hb_ir::types::Type;

    fn marker(inner: Expr) -> Expr {
        let ty = inner.ty();
        Expr::Call {
            ty,
            name: EXPR_VAR_MARKER.to_string(),
            args: vec![inner],
        }
    }

    #[test]
    fn materializes_into_allocation() {
        // tile_load(__expr_var(x8(1.0f)), 0, 8, 1)
        let inner = b::bcast(b::flt_t(1.0, ScalarType::F16), 8);
        let call = b::call(
            Type::f16().with_lanes(8),
            "tile_load",
            vec![marker(inner.clone()), b::int(0), b::int(8), b::int(1)],
        );
        let s = b::evaluate(call);
        let out = try_materialize_stmt(&s).unwrap();
        match &out {
            Stmt::Allocate {
                elem,
                size,
                memory,
                body,
                ..
            } => {
                assert_eq!(*elem, ScalarType::F16);
                assert_eq!(*size, 8);
                assert_eq!(*memory, MemoryType::Stack);
                match body.as_ref() {
                    Stmt::Block(stmts) => {
                        assert_eq!(stmts.len(), 2);
                        match &stmts[0] {
                            Stmt::Store { value, .. } => assert_eq!(value, &inner),
                            other => panic!("expected init store, got {other:?}"),
                        }
                    }
                    other => panic!("expected block, got {other:?}"),
                }
            }
            other => panic!("expected allocate, got {other:?}"),
        }
    }

    #[test]
    fn marker_replaced_by_buffer_var() {
        let inner = b::bcast(b::flt(2.0), 4);
        let s = b::store("out", b::ramp(b::int(0), b::int(1), 4), marker(inner));
        let out = try_materialize_stmt(&s).unwrap();
        let mut found_var = false;
        out.for_each_expr(&mut |e| {
            if let Expr::Var(name, _) = e {
                if name.starts_with("__hb_tmp") {
                    found_var = true;
                }
            }
        });
        assert!(found_var);
    }

    #[test]
    fn malformed_marker_is_an_error_not_a_panic() {
        // A marker call with no argument cannot be materialized; the splice
        // path must get an Err to feed the fallback rung.
        let bad = Expr::Call {
            ty: Type::f32().with_lanes(4),
            name: EXPR_VAR_MARKER.to_string(),
            args: vec![],
        };
        let s = b::store("out", b::ramp(b::int(0), b::int(1), 4), bad);
        let err = try_materialize_stmt(&s).unwrap_err();
        assert!(err.to_string().contains("no argument"), "{err}");
    }

    #[test]
    fn statements_without_markers_unchanged() {
        let s = b::store("out", b::int(0), b::flt(1.0));
        assert_eq!(try_materialize_stmt(&s).unwrap(), s);
    }

    #[test]
    fn multiple_markers_nest_allocations() {
        let m1 = marker(b::bcast(b::flt(1.0), 2));
        let m2 = marker(b::bcast(b::flt(2.0), 2));
        let s = b::store("out", b::ramp(b::int(0), b::int(1), 2), b::add(m1, m2));
        let out = try_materialize_stmt(&s).unwrap();
        let mut allocs = 0;
        out.for_each_stmt(&mut |st| {
            if matches!(st, Stmt::Allocate { .. }) {
                allocs += 1;
            }
        });
        assert_eq!(allocs, 2);
    }
}
