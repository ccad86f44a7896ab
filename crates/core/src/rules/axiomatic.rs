//! Axiomatic rules (paper Fig. 10c and §A3): lane-algebra identities that
//! undo the simplifier's pattern obfuscation inside the e-graph.

use hb_egraph::pattern::Pattern;
use hb_egraph::rewrite::{bound, Query};
use hb_ir::expr::BinOp;

use crate::encode::{padd, pbcast, pbin, pcast, pload, pmul, pmul_lanes, pnum, pramp, pv};
use crate::lang::{HbGraph, HbLang};
use crate::rules::{ci, cis, num, Rw};

/// Builds the axiomatic rule set.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn rules() -> Vec<Rw> {
    let mut out = Vec::new();

    // (Broadcast (Broadcast x l1) l2) => (Broadcast x (* l1 l2))
    out.push(Rw::rule(
        "bcast-flatten",
        Query::single("e", pbcast(pbcast(pv("x"), pv("l1")), pv("l2"))),
        Box::new(|eg: &mut HbGraph, s| {
            let Some([l1, l2]) = cis(eg, s, ["l1", "l2"]) else {
                return false;
            };
            let x = bound(s, "x");
            let e = bound(s, "e");
            let l = num(eg, l1 * l2);
            let flat = eg.add(HbLang::Bcast([x, l]));
            eg.union(e, flat).1
        }),
    ));

    // (Broadcast x 1) => x
    out.push(Rw::rewrite("bcast-one", pbcast(pv("x"), pnum(1)), pv("x")));

    // (Broadcast (Load t n i) l) => (Load (MultiplyLanes t l) n (Broadcast i l))
    out.push(Rw::rewrite(
        "bcast-into-load",
        pbcast(pload(pv("t"), pv("n"), pv("i")), pv("l")),
        pload(
            pmul_lanes(pv("t"), pv("l")),
            pv("n"),
            pbcast(pv("i"), pv("l")),
        ),
    ));

    // (Broadcast (Cast t e) l) => (Cast (MultiplyLanes t l) (Broadcast e l))
    out.push(Rw::rewrite(
        "bcast-into-cast",
        pbcast(pcast(pv("t"), pv("e")), pv("l")),
        pcast(pmul_lanes(pv("t"), pv("l")), pbcast(pv("e"), pv("l"))),
    ));

    // (Add (Ramp b s rl) (Broadcast x bl)) => (Ramp (Add b (Broadcast x (/ bl rl))) s rl)
    //   :when ((= 0 (% bl rl)))
    out.push(Rw::rule(
        "ramp-bcast-absorb",
        Query::single(
            "e",
            padd(pramp(pv("b"), pv("s"), pv("rl")), pbcast(pv("x"), pv("bl"))),
        ),
        Box::new(|eg: &mut HbGraph, s| {
            let Some([rl, bl]) = cis(eg, s, ["rl", "bl"]) else {
                return false;
            };
            if rl == 0 || bl % rl != 0 || bl / rl == 0 {
                return false;
            }
            let (e, b, st, x) = (bound(s, "e"), bound(s, "b"), bound(s, "s"), bound(s, "x"));
            let inner_l = num(eg, bl / rl);
            let xb = eg.add(HbLang::Bcast([x, inner_l]));
            let newb = eg.add(HbLang::Bin(BinOp::Add, [b, xb]));
            let rl_id = bound(s, "rl");
            let ramp = eg.add(HbLang::Ramp([newb, st, rl_id]));
            eg.union(e, ramp).1
        }),
    ));

    // Commutativity (the paper implements commutativity but not
    // associativity, which blows up the e-graph).
    out.push(Rw::rewrite(
        "add-comm",
        padd(pv("a"), pv("b")),
        padd(pv("b"), pv("a")),
    ));
    out.push(Rw::rewrite(
        "mul-comm",
        pmul(pv("a"), pv("b")),
        pmul(pv("b"), pv("a")),
    ));

    // (Add z x) => x when z is a (vector of) zero(s).
    out.push(Rw::rule(
        "add-zero",
        Query::single("e", padd(pv("z"), pv("x"))),
        Box::new(|eg: &mut HbGraph, s| {
            let z = bound(s, "z");
            let zero = eg
                .data(z)
                .constant
                .is_some_and(crate::lang::ConstVal::is_zero);
            if !zero {
                return false;
            }
            let e = bound(s, "e");
            let x = bound(s, "x");
            eg.union(e, x).1
        }),
    ));

    // (Ramp x s 1) => x
    out.push(Rw::rewrite(
        "ramp-one",
        pramp(pv("x"), pv("s"), pnum(1)),
        pv("x"),
    ));

    // (Ramp b z n) => (Broadcast b n) when z is zero.
    out.push(Rw::rule(
        "ramp-zero-stride",
        Query::single("e", pramp(pv("b"), pv("z"), pv("n"))),
        Box::new(|eg: &mut HbGraph, s| {
            let z = bound(s, "z");
            let zero = eg
                .data(z)
                .constant
                .is_some_and(crate::lang::ConstVal::is_zero);
            if !zero {
                return false;
            }
            let (e, b, n) = (bound(s, "e"), bound(s, "b"), bound(s, "n"));
            let bc = eg.add(HbLang::Bcast([b, n]));
            eg.union(e, bc).1
        }),
    ));

    // Sibling-hinted broadcast nesting (§A3): when a broadcast is combined
    // with a ramp of fewer steps, nest the broadcast to expose the ramp's
    // structure:  (op (Ramp x s l1) (Broadcast a l2))
    //          => (op (Ramp x s l1) (Broadcast (Broadcast a (/ l2 l1)) l1))
    //   :when ((> l2 l1) (= 0 (% l2 l1)))
    for op in [BinOp::Add, BinOp::Mul] {
        let name = format!(
            "bcast-nest-sibling-{}",
            if op == BinOp::Add { "add" } else { "mul" }
        );
        out.push(Rw::rule(
            &name,
            Query::single(
                "e",
                pbin(
                    op,
                    pramp(pv("x"), pv("s"), pv("l1")),
                    pbcast(pv("a"), pv("l2")),
                ),
            ),
            Box::new(move |eg: &mut HbGraph, s| {
                let Some([l1, l2]) = cis(eg, s, ["l1", "l2"]) else {
                    return false;
                };
                if l2 <= l1 || l1 == 0 || l2 % l1 != 0 {
                    return false;
                }
                let (e, x, st, a) = (bound(s, "e"), bound(s, "x"), bound(s, "s"), bound(s, "a"));
                let inner = num(eg, l2 / l1);
                let binner = eg.add(HbLang::Bcast([a, inner]));
                let l1_id = bound(s, "l1");
                let bouter = eg.add(HbLang::Bcast([binner, l1_id]));
                let ramp = eg.add(HbLang::Ramp([x, st, l1_id]));
                let combined = eg.add(HbLang::Bin(op, [ramp, bouter]));
                eg.union(e, combined).1
            }),
        ));
    }

    // Degenerate-VNNI recovery (§A3): split a unit-stride ramp of a scalar
    // base into a two-level nest: (Ramp e 1 l) => (Ramp (Ramp e 1 2)
    // (Broadcast 2 2) (/ l 2)).
    out.push(Rw::rule(
        "ramp-split-2",
        Query::single("r", pramp(pv("e"), pnum(1), pv("l"))),
        Box::new(|eg: &mut HbGraph, s| {
            let Some(l) = ci(eg, s, "l") else {
                return false;
            };
            let e = bound(s, "e");
            if l <= 2 || l % 2 != 0 || eg.data(e).lanes != Some(1) {
                return false;
            }
            let r = bound(s, "r");
            let one = num(eg, 1);
            let two = num(eg, 2);
            let inner = eg.add(HbLang::Ramp([e, one, two]));
            let stride = eg.add(HbLang::Bcast([two, two]));
            let half = num(eg, l / 2);
            let nested = eg.add(HbLang::Ramp([inner, stride, half]));
            eg.union(r, nested).1
        }),
    ));

    // Broadcasts commute with data movements (loc_to_loc is
    // value-transparent): (Broadcast (Loc e) l) <=> (Loc (Broadcast e l)).
    {
        use hb_ir::types::Location;
        for (a, b) in [
            (Location::Amx, Location::Mem),
            (Location::Mem, Location::Amx),
            (Location::Wmma, Location::Mem),
            (Location::Mem, Location::Wmma),
        ] {
            out.push(Rw::rewrite(
                &format!("bcast-through-{a}2{b}"),
                pbcast(crate::encode::ploc(a, b, pv("e")), pv("l")),
                crate::encode::ploc(a, b, pbcast(pv("e"), pv("l"))),
            ));
        }
    }

    // The inverse merge: (Ramp (Ramp e 1 c) (Broadcast c c) l) => (Ramp e 1 c·l)
    // (contiguous two-level nests flatten back — needed when a mod/div lane
    // decomposition also split an unrelated affine access).
    out.push(Rw::rule(
        "ramp-merge",
        Query::single(
            "r",
            pramp(
                pramp(pv("e"), pnum(1), pv("c")),
                pbcast(pv("c2"), pv("c3")),
                pv("l"),
            ),
        ),
        Box::new(|eg: &mut HbGraph, s| {
            let Some([c, c2, c3, l]) = cis(eg, s, ["c", "c2", "c3", "l"]) else {
                return false;
            };
            let e = bound(s, "e");
            if c != c2 || c != c3 || eg.data(e).lanes != Some(1) {
                return false;
            }
            let r = bound(s, "r");
            let one = num(eg, 1);
            let full = num(eg, c * l);
            let flat = eg.add(HbLang::Ramp([e, one, full]));
            eg.union(r, flat).1
        }),
    ));

    // Nested reductions collapse: summing groups twice equals summing once
    // to the outer width (addition is associative over contiguous groups).
    out.push(Rw::rewrite(
        "vra-collapse",
        Pattern::Node(
            HbLang::Vra([hb_egraph::unionfind::Id(0); 2]),
            vec![
                pv("l1"),
                Pattern::Node(
                    HbLang::Vra([hb_egraph::unionfind::Id(0); 2]),
                    vec![pv("l2"), pv("e")],
                ),
            ],
        ),
        Pattern::Node(
            HbLang::Vra([hb_egraph::unionfind::Id(0); 2]),
            vec![pv("l1"), pv("e")],
        ),
    ));

    // (Mul o x) => x when o is one.
    out.push(Rw::rule(
        "mul-one",
        Query::single("e", pmul(pv("o"), pv("x"))),
        Box::new(|eg: &mut HbGraph, s| {
            let o = bound(s, "o");
            let is_one = matches!(eg.data(o).constant, Some(crate::lang::ConstVal::Int(1)));
            if !is_one {
                return false;
            }
            let e = bound(s, "e");
            let x = bound(s, "x");
            eg.union(e, x).1
        }),
    ));

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_expr;
    use crate::lang::HbGraph;
    use crate::rules::supporting;
    use hb_egraph::schedule::Runner;
    use hb_ir::builder as b;
    use hb_ir::types::Type;

    fn saturate(eg: &mut HbGraph) {
        let main = rules();
        let support = supporting::rules();
        Runner::new(16, 200_000).run_phased(eg, &main, &support, 8);
    }

    #[test]
    fn recovers_nested_a_pattern_from_simplified_form() {
        // The §III-B case: the simplifier flattened matrix A's index into
        //   x256(ramp(0,1,32)) + ramp(x512(0), x512(32), 16)
        // and the axioms must recover
        //   ramp(x16(ramp(0,1,32)), x512(32), 16).
        let mut eg = HbGraph::default();
        let obscured = b::add(
            b::bcast(b::ramp(b::int(0), b::int(1), 32), 256),
            b::ramp(b::bcast(b::int(0), 512), b::bcast(b::int(32), 512), 16),
        );
        let nested = b::ramp(
            b::bcast(b::ramp(b::int(0), b::int(1), 32), 16),
            b::bcast(b::int(32), 512),
            16,
        );
        let o = encode_expr(&mut eg, &obscured);
        let n = encode_expr(&mut eg, &nested);
        assert_ne!(eg.find(o), eg.find(n));
        saturate(&mut eg);
        assert_eq!(eg.find(o), eg.find(n), "axioms must re-nest the A pattern");
    }

    #[test]
    fn pushes_broadcast_through_cast_and_load() {
        // x16(cast<f32x512>(B[idx])) ≡ cast<f32x8192>(B[x16(idx)])
        let mut eg = HbGraph::default();
        let idx = b::ramp(
            b::ramp(b::int(0), b::int(16), 32),
            b::bcast(b::int(1), 32),
            16,
        );
        let outer = b::bcast(
            b::cast(
                Type::f32().with_lanes(512),
                b::load(Type::bf16().with_lanes(512), "B", idx.clone()),
            ),
            16,
        );
        let inner = b::cast(
            Type::f32().with_lanes(8192),
            b::load(Type::bf16().with_lanes(8192), "B", b::bcast(idx, 16)),
        );
        let o = encode_expr(&mut eg, &outer);
        let i = encode_expr(&mut eg, &inner);
        saturate(&mut eg);
        assert_eq!(eg.find(o), eg.find(i));
    }

    #[test]
    fn broadcast_flattening_joins() {
        let mut eg = HbGraph::default();
        let a = encode_expr(&mut eg, &b::bcast(b::bcast(b::var("x"), 4), 8));
        let bb = encode_expr(&mut eg, &b::bcast(b::var("x"), 32));
        saturate(&mut eg);
        assert_eq!(eg.find(a), eg.find(bb));
    }

    #[test]
    fn ramp_split_recovers_vnni_degenerate() {
        // ramp(e, 1, 32) ≡ ramp(ramp(e,1,2), x2(2), 16) for scalar e.
        let mut eg = HbGraph::default();
        let flat = encode_expr(&mut eg, &b::ramp(b::var("e"), b::int(1), 32));
        let nested = encode_expr(
            &mut eg,
            &b::ramp(
                b::ramp(b::var("e"), b::int(1), 2),
                b::bcast(b::int(2), 2),
                16,
            ),
        );
        saturate(&mut eg);
        assert_eq!(eg.find(flat), eg.find(nested));
    }

    #[test]
    fn add_zero_and_mul_one() {
        let mut eg = HbGraph::default();
        let x = encode_expr(&mut eg, &b::var("x"));
        let plus = encode_expr(&mut eg, &b::add(b::int(0), b::var("x")));
        let times = encode_expr(&mut eg, &b::mul(b::var("x"), b::int(1)));
        saturate(&mut eg);
        assert_eq!(eg.find(x), eg.find(plus));
        assert_eq!(eg.find(x), eg.find(times));
    }

    #[test]
    fn vector_add_zero() {
        let mut eg = HbGraph::default();
        let v = encode_expr(
            &mut eg,
            &b::ramp(b::bcast(b::int(0), 4), b::bcast(b::int(7), 4), 8),
        );
        let plus = encode_expr(
            &mut eg,
            &b::add(
                b::bcast(b::int(0), 32),
                b::ramp(b::bcast(b::int(0), 4), b::bcast(b::int(7), 4), 8),
            ),
        );
        saturate(&mut eg);
        assert_eq!(eg.find(v), eg.find(plus));
    }
}
