//! Decoding extracted terms back into `hb-ir`.
//!
//! `ExprVar` nodes decode to marker calls `__expr_var(inner)` which the
//! post-processing pass materializes into temporary allocations.

use hb_egraph::language::{Language, RecExpr};
use hb_egraph::unionfind::Id;
use hb_ir::expr::Expr;
use hb_ir::stmt::Stmt;
use hb_ir::types::Type;

use crate::lang::HbLang;

/// Error produced when an extracted term is not a well-formed IR tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

fn decode_num(rec: &RecExpr<HbLang>, id: Id) -> Result<i64, DecodeError> {
    match rec.node(id) {
        HbLang::Num(v) => Ok(*v),
        other => Err(DecodeError(format!(
            "expected literal number, got {}",
            other.op_name()
        ))),
    }
}

fn decode_ty(rec: &RecExpr<HbLang>, id: Id) -> Result<Type, DecodeError> {
    match rec.node(id) {
        HbLang::Ty(st, [l]) => {
            let lanes = decode_num(rec, *l)?;
            Ok(Type::new(
                *st,
                u32::try_from(lanes).map_err(|_| DecodeError(format!("bad lane count {lanes}")))?,
            ))
        }
        other => Err(DecodeError(format!(
            "expected a type node, got {} (unsimplified MultiplyLanes?)",
            other.op_name()
        ))),
    }
}

fn decode_str(rec: &RecExpr<HbLang>, id: Id) -> Result<String, DecodeError> {
    match rec.node(id) {
        HbLang::Str(s) => Ok(s.to_string()),
        // Materialization markers may stand where a buffer name is expected;
        // post-processing replaces them before execution.
        other => Err(DecodeError(format!(
            "expected buffer name, got {}",
            other.op_name()
        ))),
    }
}

fn at(rec: &RecExpr<HbLang>, id: Id) -> Result<Expr, DecodeError> {
    match rec.node(id) {
        HbLang::Num(v) => Ok(Expr::IntImm(*v)),
        HbLang::Flt(bits, st) => Ok(Expr::FloatImm(f64::from_bits(*bits), *st)),
        HbLang::VarE(name) => Ok(Expr::Var(name.to_string(), hb_ir::types::ScalarType::I32)),
        HbLang::Str(name) => {
            // Buffer references inside intrinsic argument positions decode to
            // int32 vars carrying the buffer name (the exec convention).
            Ok(Expr::Var(name.to_string(), hb_ir::types::ScalarType::I32))
        }
        HbLang::Ty(..) | HbLang::MultiplyLanes(_) => {
            Err(DecodeError("type node in expression position".to_string()))
        }
        HbLang::Cast([t, v]) => Ok(Expr::Cast(decode_ty(rec, *t)?, Box::new(at(rec, *v)?))),
        HbLang::Bin(op, [a, b]) => Ok(Expr::Binary(
            *op,
            Box::new(at(rec, *a)?),
            Box::new(at(rec, *b)?),
        )),
        HbLang::Select([c, t, f]) => Ok(Expr::Select(
            Box::new(at(rec, *c)?),
            Box::new(at(rec, *t)?),
            Box::new(at(rec, *f)?),
        )),
        HbLang::Ramp([b, s, l]) => Ok(Expr::Ramp {
            base: Box::new(at(rec, *b)?),
            stride: Box::new(at(rec, *s)?),
            lanes: decode_num(rec, *l)? as u32,
        }),
        HbLang::Bcast([v, l]) => Ok(Expr::Broadcast {
            value: Box::new(at(rec, *v)?),
            lanes: decode_num(rec, *l)? as u32,
        }),
        HbLang::Load([t, n, i]) => Ok(Expr::Load {
            ty: decode_ty(rec, *t)?,
            buffer: decode_str(rec, *n)?,
            index: Box::new(at(rec, *i)?),
        }),
        HbLang::Vra([l, v]) => Ok(Expr::VectorReduceAdd {
            lanes: decode_num(rec, *l)? as u32,
            value: Box::new(at(rec, *v)?),
        }),
        HbLang::Call(name, children) => {
            let ty = decode_ty(
                rec,
                *children
                    .first()
                    .ok_or_else(|| DecodeError(format!("call {name} missing type child")))?,
            )?;
            let args = children[1..]
                .iter()
                .map(|&c| at(rec, c))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Expr::Call {
                ty,
                name: name.to_string(),
                args,
            })
        }
        HbLang::Loc(from, to, [v]) => Ok(Expr::LocToLoc {
            from: *from,
            to: *to,
            value: Box::new(at(rec, *v)?),
        }),
        HbLang::ExprVar([v]) => {
            let inner = at(rec, *v)?;
            let ty = inner.ty();
            Ok(Expr::Call {
                ty,
                name: crate::postprocess::EXPR_VAR_MARKER.to_string(),
                args: vec![inner],
            })
        }
        node @ (HbLang::StoreS(_) | HbLang::EvalS(_)) => Err(DecodeError(format!(
            "statement node {} in expression position",
            node.op_name()
        ))),
        node @ (HbLang::AmxATile(_) | HbLang::AmxBTile(_)) => Err(DecodeError(format!(
            "fact node {} in a program",
            node.op_name()
        ))),
    }
}

/// Decodes an extracted expression term.
///
/// # Errors
///
/// Fails when the term contains unresolved type computations, statement
/// nodes in expression position or fact nodes.
pub fn decode_expr(rec: &RecExpr<HbLang>) -> Result<Expr, DecodeError> {
    at(rec, rec.root_id())
}

/// Decodes an extracted statement term (store or evaluate).
///
/// # Errors
///
/// Fails when the root is not a statement node or the body is malformed.
pub fn decode_stmt(rec: &RecExpr<HbLang>) -> Result<Stmt, DecodeError> {
    match rec.node(rec.root_id()) {
        HbLang::StoreS([n, i, v]) => Ok(Stmt::Store {
            buffer: decode_str(rec, *n)?,
            index: at(rec, *i)?,
            value: at(rec, *v)?,
        }),
        HbLang::EvalS([v]) => Ok(Stmt::Evaluate(at(rec, *v)?)),
        other => Err(DecodeError(format!(
            "expected a statement root, got {}",
            other.op_name()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{encode_expr, encode_stmt};
    use crate::lang::HbGraph;
    use hb_ir::builder as b;

    fn roundtrip_expr(e: &Expr) -> Expr {
        let mut eg = HbGraph::default();
        let id = encode_expr(&mut eg, e);
        decode_expr(&eg.any_term(id).unwrap()).unwrap()
    }

    #[test]
    fn movement_and_call_roundtrip() {
        let e = b::amx_to_mem(b::call(
            Type::f32().with_lanes(256),
            "tile_matmul",
            vec![b::int(16), b::int(32), b::int(16)],
        ));
        assert_eq!(roundtrip_expr(&e), e);
    }

    #[test]
    fn select_and_cast_roundtrip() {
        let e = b::select(
            b::lt(b::var("x"), b::int(3)),
            b::cast(Type::f32(), b::int(1)),
            b::flt(0.0),
        );
        assert_eq!(roundtrip_expr(&e), e);
    }

    #[test]
    fn evaluate_stmt_roundtrip() {
        let mut eg = HbGraph::default();
        let s = b::evaluate(b::call(Type::i32(), "tile_store", vec![b::int(0)]));
        let id = encode_stmt(&mut eg, &s);
        assert_eq!(decode_stmt(&eg.any_term(id).unwrap()).unwrap(), s);
    }

    #[test]
    fn exprvar_decodes_to_marker_call() {
        let mut eg = HbGraph::default();
        let inner = encode_expr(&mut eg, &b::bcast(b::flt(1.0), 8));
        let ev = eg.add(HbLang::ExprVar([inner]));
        let term = eg.any_term(ev).unwrap();
        let e = decode_expr(&term).unwrap();
        match e {
            Expr::Call { name, args, .. } => {
                assert_eq!(name, crate::postprocess::EXPR_VAR_MARKER);
                assert_eq!(args.len(), 1);
            }
            other => panic!("expected marker call, got {other:?}"),
        }
    }

    #[test]
    fn unresolved_multiply_lanes_fails_decode() {
        let mut eg = HbGraph::default();
        let n = eg.add(HbLang::Num(4));
        let ty = eg.add(HbLang::Ty(hb_ir::types::ScalarType::F32, [n]));
        let f = eg.add(HbLang::Num(2));
        let ml = eg.add(HbLang::MultiplyLanes([ty, f]));
        let name = eg.add(HbLang::Str("A".into()));
        let idx = eg.add(HbLang::Num(0));
        let ld = eg.add(HbLang::Load([ml, name, idx]));
        let term = eg.any_term(ld).unwrap();
        assert!(decode_expr(&term).is_err());
    }

    #[test]
    fn fact_nodes_fail_decode() {
        let mut eg = HbGraph::default();
        let operand = encode_expr(&mut eg, &b::bcast(b::flt(1.0), 8));
        let m = eg.add(HbLang::Num(16));
        let k = eg.add(HbLang::Num(32));
        for fact in [
            HbLang::AmxATile([operand, operand, m, k]),
            HbLang::AmxBTile([operand, operand, k, m]),
        ] {
            let id = eg.add(fact);
            let err = decode_expr(&eg.any_term(id).unwrap()).unwrap_err();
            assert!(err.0.contains("fact node"), "{err}");
        }
    }
}
