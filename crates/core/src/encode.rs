//! Encoding `hb-ir` expressions and statements into the e-graph, plus the
//! pattern-construction DSL used by the rule sets.

use hb_egraph::pattern::Pattern;
use hb_egraph::unionfind::Id;
use hb_ir::expr::{BinOp, Expr};
use hb_ir::stmt::Stmt;
use hb_ir::types::{Location, ScalarType, Type};

use crate::lang::{HbGraph, HbLang};

/// Adds a type node.
pub fn add_type(eg: &mut HbGraph, ty: Type) -> Id {
    let lanes = eg.add(HbLang::Num(i64::from(ty.lanes)));
    eg.add(HbLang::Ty(ty.elem, [lanes]))
}

/// Encodes an expression, returning its class id.
///
/// # Panics
///
/// Panics on expression forms with no e-graph counterpart (none currently).
pub fn encode_expr(eg: &mut HbGraph, e: &Expr) -> Id {
    match e {
        Expr::IntImm(v) => eg.add(HbLang::Num(*v)),
        Expr::FloatImm(v, st) => eg.add(HbLang::Flt(v.to_bits(), *st)),
        Expr::Var(name, _) => eg.add(HbLang::VarE(name.into())),
        Expr::Cast(ty, v) => {
            let t = add_type(eg, *ty);
            let v = encode_expr(eg, v);
            eg.add(HbLang::Cast([t, v]))
        }
        Expr::Binary(op, a, b) => {
            let a = encode_expr(eg, a);
            let b = encode_expr(eg, b);
            eg.add(HbLang::Bin(*op, [a, b]))
        }
        Expr::Select(c, t, f) => {
            let c = encode_expr(eg, c);
            let t = encode_expr(eg, t);
            let f = encode_expr(eg, f);
            eg.add(HbLang::Select([c, t, f]))
        }
        Expr::Ramp {
            base,
            stride,
            lanes,
        } => {
            let b = encode_expr(eg, base);
            let s = encode_expr(eg, stride);
            let l = eg.add(HbLang::Num(i64::from(*lanes)));
            eg.add(HbLang::Ramp([b, s, l]))
        }
        Expr::Broadcast { value, lanes } => {
            let v = encode_expr(eg, value);
            let l = eg.add(HbLang::Num(i64::from(*lanes)));
            eg.add(HbLang::Bcast([v, l]))
        }
        Expr::Load { ty, buffer, index } => {
            let t = add_type(eg, *ty);
            let n = eg.add(HbLang::Str(buffer.into()));
            let i = encode_expr(eg, index);
            eg.add(HbLang::Load([t, n, i]))
        }
        Expr::VectorReduceAdd { lanes, value } => {
            let l = eg.add(HbLang::Num(i64::from(*lanes)));
            let v = encode_expr(eg, value);
            eg.add(HbLang::Vra([l, v]))
        }
        Expr::Call { ty, name, args } => {
            let t = add_type(eg, *ty);
            // Exactly sized: the node keeps it as a boxed slice.
            let mut children = Vec::with_capacity(1 + args.len());
            children.push(t);
            for a in args {
                children.push(encode_expr(eg, a));
            }
            eg.add(HbLang::call(name, children))
        }
        Expr::LocToLoc { from, to, value } => {
            let v = encode_expr(eg, value);
            eg.add(HbLang::Loc(*from, *to, [v]))
        }
    }
}

/// Encodes a store or evaluate statement as a term; other statement forms
/// are not terms (the selector walks them structurally).
///
/// # Panics
///
/// Panics if given a non-leaf statement.
pub fn encode_stmt(eg: &mut HbGraph, s: &Stmt) -> Id {
    match s {
        Stmt::Store {
            buffer,
            index,
            value,
        } => {
            let n = eg.add(HbLang::Str(buffer.into()));
            let i = encode_expr(eg, index);
            let v = encode_expr(eg, value);
            eg.add(HbLang::StoreS([n, i, v]))
        }
        Stmt::Evaluate(e) => {
            let v = encode_expr(eg, e);
            eg.add(HbLang::EvalS([v]))
        }
        other => panic!("only leaf statements are terms: {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Pattern DSL
// ---------------------------------------------------------------------------

/// A pattern hole `?name`.
#[must_use]
pub fn pv(name: &str) -> Pattern<HbLang> {
    Pattern::var(name)
}

/// Literal integer pattern.
#[must_use]
pub fn pnum(v: i64) -> Pattern<HbLang> {
    Pattern::Node(HbLang::Num(v), vec![])
}

/// Type pattern with a lanes subpattern.
#[must_use]
pub fn pty(st: ScalarType, lanes: Pattern<HbLang>) -> Pattern<HbLang> {
    Pattern::Node(HbLang::Ty(st, [Id(0)]), vec![lanes])
}

/// `MultiplyLanes(ty, factor)` pattern.
#[must_use]
pub fn pmul_lanes(ty: Pattern<HbLang>, f: Pattern<HbLang>) -> Pattern<HbLang> {
    Pattern::Node(HbLang::MultiplyLanes([Id(0); 2]), vec![ty, f])
}

/// `cast(ty, v)` pattern.
#[must_use]
pub fn pcast(ty: Pattern<HbLang>, v: Pattern<HbLang>) -> Pattern<HbLang> {
    Pattern::Node(HbLang::Cast([Id(0); 2]), vec![ty, v])
}

/// Binary-op pattern.
#[must_use]
pub fn pbin(op: BinOp, a: Pattern<HbLang>, b: Pattern<HbLang>) -> Pattern<HbLang> {
    Pattern::Node(HbLang::Bin(op, [Id(0); 2]), vec![a, b])
}

/// `(a + b)` pattern.
#[must_use]
pub fn padd(a: Pattern<HbLang>, b: Pattern<HbLang>) -> Pattern<HbLang> {
    pbin(BinOp::Add, a, b)
}

/// `(a * b)` pattern.
#[must_use]
pub fn pmul(a: Pattern<HbLang>, b: Pattern<HbLang>) -> Pattern<HbLang> {
    pbin(BinOp::Mul, a, b)
}

/// `ramp(base, stride, lanes)` pattern.
#[must_use]
pub fn pramp(
    base: Pattern<HbLang>,
    stride: Pattern<HbLang>,
    lanes: Pattern<HbLang>,
) -> Pattern<HbLang> {
    Pattern::Node(HbLang::Ramp([Id(0); 3]), vec![base, stride, lanes])
}

/// `broadcast(v, lanes)` pattern.
#[must_use]
pub fn pbcast(v: Pattern<HbLang>, lanes: Pattern<HbLang>) -> Pattern<HbLang> {
    Pattern::Node(HbLang::Bcast([Id(0); 2]), vec![v, lanes])
}

/// `load(ty, name, index)` pattern.
#[must_use]
pub fn pload(
    ty: Pattern<HbLang>,
    name: Pattern<HbLang>,
    index: Pattern<HbLang>,
) -> Pattern<HbLang> {
    Pattern::Node(HbLang::Load([Id(0); 3]), vec![ty, name, index])
}

/// `vector_reduce_add(lanes, v)` pattern.
#[must_use]
pub fn pvra(lanes: Pattern<HbLang>, v: Pattern<HbLang>) -> Pattern<HbLang> {
    Pattern::Node(HbLang::Vra([Id(0); 2]), vec![lanes, v])
}

/// `loc_to_loc` pattern.
#[must_use]
pub fn ploc(from: Location, to: Location, v: Pattern<HbLang>) -> Pattern<HbLang> {
    Pattern::Node(HbLang::Loc(from, to, [Id(0)]), vec![v])
}

/// Store-statement pattern.
#[must_use]
pub fn pstore(
    name: Pattern<HbLang>,
    index: Pattern<HbLang>,
    value: Pattern<HbLang>,
) -> Pattern<HbLang> {
    Pattern::Node(HbLang::StoreS([Id(0); 3]), vec![name, index, value])
}

/// `(amx-A-tile operand tile m k)` fact pattern.
#[must_use]
pub fn pamx_a_tile(args: [Pattern<HbLang>; 4]) -> Pattern<HbLang> {
    Pattern::Node(HbLang::AmxATile([Id(0); 4]), args.into())
}

/// `(amx-B-tile operand tile k n)` fact pattern.
#[must_use]
pub fn pamx_b_tile(args: [Pattern<HbLang>; 4]) -> Pattern<HbLang> {
    Pattern::Node(HbLang::AmxBTile([Id(0); 4]), args.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_ir::builder as b;

    #[test]
    fn encode_roundtrips_via_any_term() {
        let mut eg = HbGraph::default();
        // The Fig. 2 3-tap convolution expression.
        let e = b::vreduce_add(
            8,
            b::load(
                Type::f32().with_lanes(24),
                "A",
                b::bcast(b::ramp(b::int(0), b::int(1), 3), 8),
            ),
        );
        let id = encode_expr(&mut eg, &e);
        let back =
            crate::decode::decode_expr(&eg.any_term(id).expect("extractable")).expect("decodable");
        assert_eq!(back, e);
    }

    #[test]
    fn encode_hashconses_shared_structure() {
        let mut eg = HbGraph::default();
        let e1 = b::add(b::var("x"), b::int(1));
        let e2 = b::add(b::var("x"), b::int(1));
        let i1 = encode_expr(&mut eg, &e1);
        let i2 = encode_expr(&mut eg, &e2);
        assert_eq!(i1, i2);
    }

    #[test]
    fn encode_stmt_store() {
        let mut eg = HbGraph::default();
        let s = b::store(
            "out",
            b::ramp(b::int(0), b::int(1), 4),
            b::bcast(b::flt(0.0), 4),
        );
        let id = encode_stmt(&mut eg, &s);
        let back = crate::decode::decode_stmt(&eg.any_term(id).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn patterns_match_encoded_terms() {
        let mut eg = HbGraph::default();
        let e = b::bcast(b::ramp(b::int(0), b::int(1), 3), 8);
        let id = encode_expr(&mut eg, &e);
        let pat = pbcast(pramp(pv("b"), pnum(1), pv("l")), pv("n"));
        let matches = pat.search_class(&eg, id, &hb_egraph::pattern::Subst::new());
        assert_eq!(matches.len(), 1);
        assert_eq!(
            crate::lang::const_int(&eg, matches[0].get("l").unwrap()),
            Some(3)
        );
        assert_eq!(
            crate::lang::const_int(&eg, matches[0].get("n").unwrap()),
            Some(8)
        );
    }

    #[test]
    fn call_children_carry_type_first() {
        let mut eg = HbGraph::default();
        let e = b::call(Type::f32().with_lanes(4), "tile_zero", vec![]);
        let id = encode_expr(&mut eg, &e);
        // Intrinsic-call children are `[ty, args…]`.
        let pat = Pattern::Node(
            HbLang::call("tile_zero", vec![Id(0)]),
            vec![pty(ScalarType::F32, pv("l"))],
        );
        assert_eq!(
            pat.search_class(&eg, id, &hb_egraph::pattern::Subst::new())
                .len(),
            1
        );
    }
}
