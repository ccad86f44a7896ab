//! Supporting rules (paper Fig. 10d): type computations that always saturate
//! and are run to fixpoint between main-rule iterations (§III-D2).

use hb_egraph::rewrite::{bound, Query};
use hb_ir::types::ScalarType;

use crate::encode::{pmul_lanes, pty, pv};
use crate::lang::{HbGraph, HbLang};
use crate::rules::{cis, num, Rw};

/// Builds the supporting rule set: one `MultiplyLanes` concretization rule
/// per scalar type, plus `has-type` population for loads.
#[must_use]
pub fn rules() -> Vec<Rw> {
    let mut out = Vec::new();
    for st in [
        ScalarType::BF16,
        ScalarType::F16,
        ScalarType::F32,
        ScalarType::I32,
        ScalarType::Bool,
    ] {
        // (rewrite (MultiplyLanes (St l) x) (St (* l x)))
        out.push(Rw::rule(
            &format!("multiply-lanes-{st}"),
            Query::single("e", pmul_lanes(pty(st, pv("l")), pv("x"))),
            Box::new(move |eg: &mut HbGraph, s| {
                let Some([l, x]) = cis(eg, s, ["l", "x"]) else {
                    return false;
                };
                let e = bound(s, "e");
                let lanes = num(eg, l * x);
                let ty = eg.add(HbLang::Ty(st, [lanes]));
                eg.union(e, ty).1
            }),
        ));
        // (rule ((= e (Load (St l) n i))) ((has-type e (St l))))
        out.push(Rw::rule(
            &format!("load-has-type-{st}"),
            Query::single("e", crate::encode::pload(pv("t"), pv("n"), pv("i")))
                .also("t", pty(st, pv("l"))),
            Box::new(|eg: &mut HbGraph, s| {
                let e = bound(s, "e");
                let t = bound(s, "t");
                eg.insert_tuple("has-type", &[e, t])
            }),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_expr;
    use crate::lang::{HbAnalysis, HbGraph, HbLang};
    use hb_egraph::egraph::EGraph;
    use hb_egraph::schedule::{Budget, Runner};
    use hb_ir::builder as b;
    use hb_ir::types::Type;

    #[test]
    fn multiply_lanes_concretizes() {
        let mut eg: EGraph<HbLang, HbAnalysis> = HbGraph::default();
        let l = eg.add(HbLang::Num(512));
        let t = eg.add(HbLang::Ty(ScalarType::F32, [l]));
        let f = eg.add(HbLang::Num(16));
        let ml = eg.add(HbLang::MultiplyLanes([t, f]));
        Runner::default().run_to_fixpoint(&mut eg, &rules(), Budget::none());
        let l2 = eg.add(HbLang::Num(8192));
        let want = eg.add(HbLang::Ty(ScalarType::F32, [l2]));
        assert_eq!(eg.find(ml), eg.find(want));
    }

    #[test]
    fn has_type_facts_populate() {
        let mut eg = HbGraph::default();
        let e = b::load(
            Type::bf16().with_lanes(8),
            "A",
            b::ramp(b::int(0), b::int(1), 8),
        );
        let id = encode_expr(&mut eg, &e);
        Runner::default().run_to_fixpoint(&mut eg, &rules(), Budget::none());
        let facts: Vec<_> = eg.relations().tuples("has-type").collect();
        assert_eq!(facts.len(), 1);
        assert_eq!(eg.find(facts[0][0]), eg.find(id));
    }

    #[test]
    fn supporting_rules_saturate() {
        let mut eg = HbGraph::default();
        let e = b::load(
            Type::f32().with_lanes(4),
            "X",
            b::ramp(b::int(0), b::int(1), 4),
        );
        let _ = encode_expr(&mut eg, &e);
        let report = Runner::default().run_to_fixpoint(&mut eg, &rules(), Budget::none());
        assert!(report.saturated, "supporting rules must reach fixpoint");
    }
}
