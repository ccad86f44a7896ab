//! Post-processing of extracted programs (tile extractor, final step).
//!
//! Lowers `ExprVar` markers — temporary buffers holding the result of an
//! evaluated expression, used by HARDBOILED for swizzled matrices — into
//! real allocations: an `Allocate` in stack scratch, an initializing store
//! of the inner expression, and a reference to the buffer where the marker
//! stood.
//!
//! # Temporary names
//!
//! A temporary is named `__hb_tmpN`, its symbol taken from one numbered
//! table ([`Numbered`]). A session's compile numbers its temporaries from 0
//! in splice order, skipping any `__hb_tmpN` its input already allocates,
//! through one counter threaded through the frame's materializations, so a
//! repeated compile returns the same text and interns nothing (the symbol
//! table never frees a name, so numbers that grew with every compile would
//! grow it forever). The public
//! [`try_materialize_owned`] / [`try_materialize_stmt`] number from the
//! process-wide `NEXT_TEMP` counter instead, so leaves they materialize
//! separately never share a name; each of their temporaries interns one
//! name.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::LazyLock;

use hb_ir::builder::{allocate, block, ramp, store};
use hb_ir::expr::Expr;
use hb_ir::stmt::Stmt;
use hb_ir::symbol::{Numbered, Symbol};
use hb_ir::types::{MemoryType, ScalarType};

/// Intrinsic name marking an `ExprVar` in decoded IR.
pub const EXPR_VAR_MARKER: &str = "__expr_var";

/// [`EXPR_VAR_MARKER`]'s symbol.
pub(crate) fn expr_var_marker() -> Symbol {
    static MARKER: LazyLock<Symbol> = LazyLock::new(|| Symbol::from(EXPR_VAR_MARKER));
    *MARKER
}

/// The temporaries' names, `__hb_tmp0`, `__hb_tmp1`, ….
static TEMPS: Numbered = Numbered::new("__hb_tmp");

/// The next temporary number of the public entry points, process-wide.
static NEXT_TEMP: AtomicU32 = AtomicU32::new(0);

/// One compile's temporary names: `__hb_tmp0`, `__hb_tmp1`, … in order,
/// skipping each name its input already allocates (a compiled program
/// compiled again), which a temporary of the same name would shadow.
#[derive(Default)]
pub(crate) struct Temps {
    next: u32,
    taken: Vec<Symbol>,
}

impl Temps {
    /// Notes an allocation of the input; a temporary's name is kept out of
    /// the numbering.
    pub(crate) fn allocated(&mut self, name: Symbol) {
        if name.starts_with(TEMPS.prefix()) {
            self.taken.push(name);
        }
    }

    fn fresh(&mut self) -> Symbol {
        loop {
            let name = TEMPS.get(self.next);
            self.next += 1;
            if !self.taken.contains(&name) {
                return name;
            }
        }
    }
}

/// Renumbers `__hb_tmpN` gensyms by first appearance so programs compare
/// equal whatever numbers their temporaries got: a compile numbers its own
/// from 0, but leaves materialized through [`try_materialize_stmt`] take
/// process-wide numbers. Used by the oracles that compare such leaves with
/// a session's program (`benchmark/`'s staged path) and by the equivalence
/// tests.
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
    pub name: Symbol,
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
/// buffer-name variables named by `fresh`, in place, moving each `inner`
/// into `mats`.
fn extract_materializations(
    e: &mut Expr,
    mats: &mut Vec<Materialization>,
    fresh: &mut dyn FnMut() -> Symbol,
) -> Result<(), MaterializeError> {
    let marker = expr_var_marker();
    let mut malformed = false;
    e.rewrite_bottom_up(&mut |node| {
        let Expr::Call { name, args, .. } = node else {
            return false;
        };
        if *name != marker {
            return false;
        }
        let Some(inner) = args.first_mut().map(Expr::take) else {
            malformed = true;
            return false;
        };
        let ty = inner.ty();
        let tmp = fresh();
        mats.push(Materialization {
            name: tmp,
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
/// initializing stores. The temporaries take process-unique numbers, each
/// interning one name that the process keeps (see the module docs): this
/// entry point survives only until the benchmark's staged path compiles
/// through a session (ROADMAP item 2(iii)).
///
/// # Errors
///
/// Returns [`MaterializeError`] on a malformed marker or a temp buffer too
/// large to address with a 32-bit ramp.
pub fn try_materialize_owned(s: Stmt) -> Result<Stmt, MaterializeError> {
    materialize(s, &mut || {
        TEMPS.get(NEXT_TEMP.fetch_add(1, Ordering::Relaxed))
    })
}

/// [`try_materialize_owned`] naming the temporaries from a compile's
/// [`Temps`].
pub(crate) fn materialize_numbered(s: Stmt, temps: &mut Temps) -> Result<Stmt, MaterializeError> {
    materialize(s, &mut || temps.fresh())
}

fn materialize(mut s: Stmt, fresh: &mut dyn FnMut() -> Symbol) -> Result<Stmt, MaterializeError> {
    let mut mats = Vec::new();
    match &mut s {
        Stmt::Store { index, value, .. } => {
            extract_materializations(index, &mut mats, fresh)?;
            extract_materializations(value, &mut mats, fresh)?;
        }
        Stmt::Evaluate(e) => extract_materializations(e, &mut mats, fresh)?,
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
            mat.name,
            ramp(hb_ir::builder::int(0), hb_ir::builder::int(1), lanes),
            mat.init,
        );
        out = allocate(
            mat.name,
            mat.elem,
            mat.size,
            MemoryType::Stack,
            block(vec![init, out]),
        );
    }
    Ok(out)
}

/// [`try_materialize_owned`] on a copy, with its process-unique names.
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
            name: expr_var_marker(),
            args: Box::new([inner]),
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
            name: expr_var_marker(),
            args: Box::new([]),
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
