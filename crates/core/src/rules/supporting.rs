//! Supporting rules (paper Fig. 10d): the type computation, which always
//! saturates. It runs last in every pass of the one saturation loop
//! (§III-D2; [`crate::rules::RuleSet::for_profile`] appends it).
//!
//! There is one: `multiply-lanes` concretizes `MultiplyLanes(t, x)` — the
//! symbolic type the broadcast axioms leave behind — into `t`'s scalar type
//! at `x` times its lanes, for every scalar type at once.

use hb_egraph::rewrite::{bound, Query};

use crate::encode::{pmul_lanes, pv};
use crate::lang::{const_int, HbGraph, HbLang};
use crate::rules::{ci, num, Rw};

/// Builds the supporting rule set: the one `MultiplyLanes` concretization
/// rule.
#[must_use]
pub fn rules() -> Vec<Rw> {
    // (rewrite (MultiplyLanes (St l) x) (St (* l x))), for every St: the
    // applier reads the scalar type and lanes of each `Ty` node in `t`.
    vec![Rw::rule(
        "multiply-lanes",
        Query::single("e", pmul_lanes(pv("t"), pv("x"))),
        Box::new(|eg: &mut HbGraph, s| {
            let Some(x) = ci(eg, s, "x") else {
                return false;
            };
            let (e, t) = (bound(s, "e"), bound(s, "t"));
            let mut changed = false;
            // By index: a union below may merge `t` into `e`. A node that
            // moves past the cursor is read again (adding it is
            // idempotent); one that moves before it changed the class,
            // which the next delta pass searches again.
            let mut i = 0;
            while let Some(node) = eg.class(t).nodes.get(i) {
                i += 1;
                let &HbLang::Ty(st, [l]) = node else { continue };
                let Some(l) = const_int(eg, l) else { continue };
                let lanes = num(eg, l * x);
                let ty = eg.add(HbLang::Ty(st, [lanes]));
                changed |= eg.union(e, ty).1;
            }
            changed
        }),
    )]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_expr;
    use crate::lang::{HbGraph, HbLang};
    use crate::rules::ty;
    use hb_egraph::pattern::MatchScratch;
    use hb_egraph::schedule::{Budget, Runner};
    use hb_ir::builder as b;
    use hb_ir::types::{ScalarType, Type};

    #[test]
    fn every_scalar_type_concretizes() {
        for st in [
            ScalarType::BF16,
            ScalarType::F16,
            ScalarType::F32,
            ScalarType::I32,
            ScalarType::Bool,
        ] {
            let mut eg = HbGraph::default();
            let t = ty(&mut eg, st, 512);
            let f = num(&mut eg, 16);
            let ml = eg.add(HbLang::MultiplyLanes([t, f]));
            Runner::default().run_to_fixpoint(&mut eg, &rules(), Budget::none());
            let want = ty(&mut eg, st, 8192);
            assert_eq!(eg.find(ml), eg.find(want), "{st}");
        }
    }

    #[test]
    fn a_type_arriving_late_concretizes_the_nested_product_by_delta() {
        // MultiplyLanes(MultiplyLanes(t, 2), 3) with `t` still symbolic:
        // the first, full search concretizes nothing. Then `t` becomes
        // f16 x 4, and delta searches alone must reach f16 x 24 — the
        // outer node's class changes only through its inner child.
        let rule = &rules()[0];
        assert!(rule.compiled.delta_eligible());
        let mut eg = HbGraph::default();
        let t = eg.add(HbLang::VarE("t".into()));
        let two = num(&mut eg, 2);
        let inner = eg.add(HbLang::MultiplyLanes([t, two]));
        let three = num(&mut eg, 3);
        let outer = eg.add(HbLang::MultiplyLanes([inner, three]));
        let scratch = &mut MatchScratch::new();
        let mut since = eg.bump_epoch();
        assert_eq!(rule.run(&mut eg, None, scratch), 0);

        let f16x4 = ty(&mut eg, ScalarType::F16, 4);
        eg.union(t, f16x4);
        eg.rebuild();
        loop {
            let next = eg.bump_epoch();
            let changed = rule.run(&mut eg, Some(since), scratch);
            eg.rebuild();
            if changed == 0 {
                break;
            }
            since = next;
        }
        let want = ty(&mut eg, ScalarType::F16, 24);
        assert_eq!(eg.find(outer), eg.find(want));
        let mid = ty(&mut eg, ScalarType::F16, 8);
        assert_eq!(eg.find(inner), eg.find(mid));
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
