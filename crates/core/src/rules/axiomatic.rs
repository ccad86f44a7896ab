//! Axiomatic rules (paper Fig. 10c and §A3): lane-algebra identities that
//! undo the simplifier's pattern obfuscation inside the e-graph.
//!
//! The set departs from the paper's listing but not from its result: it
//! does not carry `(Ramp x s 1) => x`, `(Broadcast x 1) => x`, a ramp of
//! stride 0 as a broadcast, the collapse of nested `VectorReduceAdd`s,
//! `(Mul 1 x) => x`, sibling-hinted nesting under `Mul`, or a broadcast
//! through `Mem2AMX`, `WMMA2Mem` or `Mem2WMMA`. None
//! applied a match on the per-rule ledger graphs of
//! `crates/bench/tests/pool.rs`, and without them no selected program of
//! the benchmark populations changes (seeds 1–3, every target, per-leaf and
//! batched); `every_rule_changes_a_ledger_graph` there keeps it so.

use hb_egraph::rewrite::{bound, Query};
use hb_ir::expr::BinOp;
use hb_ir::types::Location;

use crate::encode::{padd, pbcast, pcast, pload, ploc, pmul, pmul_lanes, pnum, pramp, pv};
use crate::lang::{HbGraph, HbLang};
use crate::rules::{ci, cis, num, RuleList, Rw};

/// Builds the axiomatic rule set.
#[must_use]
pub fn rules() -> Vec<Rw> {
    RuleList::all(add)
}

/// Adds the axiomatic rules `out` keeps, in pass order.
#[allow(clippy::too_many_lines)]
pub(crate) fn add(out: &mut RuleList) {
    // (Broadcast (Broadcast x l1) l2) => (Broadcast x (* l1 l2))
    out.rule(
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
    );

    // (Broadcast (Load t n i) l) => (Load (MultiplyLanes t l) n (Broadcast i l))
    out.rewrite(
        "bcast-into-load",
        pbcast(pload(pv("t"), pv("n"), pv("i")), pv("l")),
        pload(
            pmul_lanes(pv("t"), pv("l")),
            pv("n"),
            pbcast(pv("i"), pv("l")),
        ),
    );

    // (Broadcast (Cast t e) l) => (Cast (MultiplyLanes t l) (Broadcast e l))
    out.rewrite(
        "bcast-into-cast",
        pbcast(pcast(pv("t"), pv("e")), pv("l")),
        pcast(pmul_lanes(pv("t"), pv("l")), pbcast(pv("e"), pv("l"))),
    );

    // (Add (Ramp b s rl) (Broadcast x bl)) => (Ramp (Add b (Broadcast x (/ bl rl))) s rl)
    //   :when ((= 0 (% bl rl)))
    out.rule(
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
    );

    // Commutativity (the paper implements commutativity but not
    // associativity, which blows up the e-graph).
    out.rewrite("add-comm", padd(pv("a"), pv("b")), padd(pv("b"), pv("a")));
    out.rewrite("mul-comm", pmul(pv("a"), pv("b")), pmul(pv("b"), pv("a")));

    // (Add z x) => x when z is a (vector of) zero(s).
    out.rule(
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
    );

    // Sibling-hinted broadcast nesting (§A3): when a broadcast is added to
    // a ramp of fewer steps, nest the broadcast to expose the ramp's
    // structure:  (Add (Ramp x s l1) (Broadcast a l2))
    //          => (Add (Ramp x s l1) (Broadcast (Broadcast a (/ l2 l1)) l1))
    //   :when ((> l2 l1) (= 0 (% l2 l1)))
    out.rule(
        "bcast-nest-sibling-add",
        Query::single(
            "e",
            padd(pramp(pv("x"), pv("s"), pv("l1")), pbcast(pv("a"), pv("l2"))),
        ),
        Box::new(|eg: &mut HbGraph, s| {
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
            let combined = eg.add(HbLang::Bin(BinOp::Add, [ramp, bouter]));
            eg.union(e, combined).1
        }),
    );

    // Degenerate-VNNI recovery (§A3): split a unit-stride ramp of a scalar
    // base into a two-level nest: (Ramp e 1 l) => (Ramp (Ramp e 1 2)
    // (Broadcast 2 2) (/ l 2)).
    out.rule(
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
    );

    // Broadcasts commute with data movements (loc_to_loc is
    // value-transparent): (Broadcast (AMX2Mem e) l) => (AMX2Mem (Broadcast e l)).
    out.rewrite(
        "bcast-through-AMX2Mem",
        pbcast(ploc(Location::Amx, Location::Mem, pv("e")), pv("l")),
        ploc(Location::Amx, Location::Mem, pbcast(pv("e"), pv("l"))),
    );

    // The inverse merge: (Ramp (Ramp e 1 c) (Broadcast c c) l) => (Ramp e 1 c·l)
    // (contiguous two-level nests flatten back — needed when a mod/div lane
    // decomposition also split an unrelated affine access).
    out.rule(
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
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_expr;
    use crate::lang::HbGraph;
    use crate::rules::supporting;
    use hb_egraph::schedule::{Budget, Runner};
    use hb_ir::builder as b;
    use hb_ir::types::Type;

    fn saturate(eg: &mut HbGraph) {
        let mut axioms = rules();
        axioms.extend(supporting::rules());
        Runner::new(8, 200_000).run_to_fixpoint(eg, &axioms, Budget::none());
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
    fn add_zero_joins() {
        let mut eg = HbGraph::default();
        let x = encode_expr(&mut eg, &b::var("x"));
        let plus = encode_expr(&mut eg, &b::add(b::int(0), b::var("x")));
        saturate(&mut eg);
        assert_eq!(eg.find(x), eg.find(plus));
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
