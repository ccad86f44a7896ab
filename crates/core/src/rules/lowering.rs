//! Lowering rules (paper Fig. 10a): emit accelerator intrinsics for matched
//! tensor patterns, cancel data movements, and lower tile stores.

use hb_egraph::rewrite::{bound, Query};
use hb_ir::types::{Location, ScalarType};

use crate::encode::{pamx_a_tile, pamx_b_tile, pbcast, pload, ploc, pnum, pramp, pstore, pty, pv};
use crate::lang::{ConstVal, HbGraph, HbLang};
use crate::rules::{cis, mac_query, num, ty, Intrinsics, RuleList, Rw};

/// Builds the lowering rule set.
#[must_use]
pub fn rules() -> Vec<Rw> {
    RuleList::all(add)
}

/// Adds the lowering rules `out` keeps, in pass order.
#[allow(clippy::too_many_lines)]
pub(crate) fn add(out: &mut RuleList) {
    let names = Intrinsics::intern();

    // --- AMX MatMul (Fig. 10a, first rule). -------------------------------
    // (= e (Add C (VectorReduceAdd mn (Mul (Cast f32 A) (Cast f32 B)))))
    // (amx-A-tile A tileA m k) (amx-B-tile B tileB k n)
    //   => (union e (AMX2Mem (tile_matmul (Mem2AMX C) tileA tileB)))
    out.rule(
        "amx-matmul",
        mac_query()
            .also(
                "factA",
                pamx_a_tile([pv("A"), pv("tileA"), pv("m"), pv("k")]),
            )
            .also(
                "factB",
                pamx_b_tile([pv("B"), pv("tileB"), pv("k"), pv("n")]),
            ),
        Box::new(move |eg: &mut HbGraph, s| {
            let Some([m, n, k, mn, mnk]) = cis(eg, s, ["m", "n", "k", "mn", "mnk"]) else {
                return false;
            };
            if mn != m * n || mnk != m * n * k {
                return false;
            }
            let (e, c) = (bound(s, "e"), bound(s, "C"));
            let (tile_a, tile_b) = (bound(s, "tileA"), bound(s, "tileB"));
            let (m_id, k_id, n_id) = (bound(s, "m"), bound(s, "k"), bound(s, "n"));
            let cm = eg.add(HbLang::Loc(Location::Mem, Location::Amx, [c]));
            let ty_c = ty(eg, ScalarType::F32, mn);
            let args = [ty_c, cm, tile_a, tile_b, m_id, k_id, n_id];
            let call = eg.add(HbLang::call(names.tile_matmul, args));
            let res = eg.add(HbLang::Loc(Location::Amx, Location::Mem, [call]));
            eg.union(e, res).1
        }),
    );

    // --- Data-movement cancellation. --------------------------------------
    // (Mem2AMX (AMX2Mem e)) => e; the reverse pairs never changed a graph.
    for (a, b, name) in [
        (Location::Mem, Location::Amx, "cancel-mem-amx"),
        (Location::Mem, Location::Wmma, "cancel-mem-wmma"),
    ] {
        out.rewrite(name, ploc(a, b, ploc(b, a, pv("e"))), pv("e"));
    }

    // --- Zero initialization lowers to tile_zero. --------------------------
    for (loc, name) in [
        (Location::Amx, "amx-tile-zero"),
        (Location::Wmma, "wmma-tile-zero"),
    ] {
        out.rule(
            name,
            Query::single("e", ploc(Location::Mem, loc, pv("z"))),
            Box::new(move |eg: &mut HbGraph, s| {
                let z = bound(s, "z");
                let data = *eg.data(z);
                let zero = data.constant.is_some_and(ConstVal::is_zero);
                let Some(lanes) = data.lanes else {
                    return false;
                };
                if !zero {
                    return false;
                }
                let e = bound(s, "e");
                let ty_id = ty(eg, ScalarType::F32, i64::from(lanes));
                let call = eg.add(HbLang::call(names.tile_zero, [ty_id]));
                eg.union(e, call).1
            }),
        );
    }

    // --- Register staging: a dense copy into a tile-register buffer is a
    // tile_load (used by "preload A/B" schedules, Table I). ----------------
    out.rule(
        "amx-reg-load",
        Query::single(
            "e",
            ploc(
                Location::Mem,
                Location::Amx,
                pload(pty(ScalarType::BF16, pv("l")), pv("name"), pv("idx")),
            ),
        )
        .also(
            "idx",
            pramp(
                pramp(pv("base"), pnum(1), pv("cols")),
                pbcast(pv("stride"), pv("cols")),
                pv("rows"),
            ),
        ),
        Box::new(move |eg: &mut HbGraph, s| {
            let Some([rows, cols, l]) = cis(eg, s, ["rows", "cols", "l"]) else {
                return false;
            };
            if rows <= 0 || rows > 16 || cols <= 0 || cols > 32 || l != rows * cols {
                return false;
            }
            let (e, name, base, stride) = (
                bound(s, "e"),
                bound(s, "name"),
                bound(s, "base"),
                bound(s, "stride"),
            );
            let ty_id = ty(eg, ScalarType::BF16, l);
            let rows_id = bound(s, "rows");
            let call = eg.add(HbLang::call(
                names.tile_load,
                [ty_id, name, base, stride, rows_id],
            ));
            eg.union(e, call).1
        }),
    );

    // --- Tile stores: one rule per (name, location, flat row). ------------
    // Nested (2-D) index, `flat` = None:
    //   store(buf, ramp(ramp(base, 1, N), xN(stride), M), AMX2Mem(tile))
    //     => evaluate(tile_store(buf, base, stride, M, tile))
    // Flat (contiguous) index, WMMA only, `flat` = Some(row), rows of `row`
    // elements:
    //   store(buf, ramp(base, 1, L), WMMA2Mem(tile)), L % 8 == 0
    //     => evaluate(wmma_store(buf, base, 8, L/8, 8, tile))
    // A WMMA store also names the tile's columns: N, or `row`.
    for (name, loc, flat) in [
        ("amx-tile-store", Location::Amx, None),
        ("wmma-tile-store", Location::Wmma, None),
        ("wmma-tile-store-flat", Location::Wmma, Some(8)),
    ] {
        let idx = match flat {
            None => pramp(
                pramp(pv("base"), pnum(1), pv("n")),
                pbcast(pv("stride"), pv("n")),
                pv("m"),
            ),
            Some(_) => pramp(pv("base"), pnum(1), pv("l")),
        };
        out.rule(
            name,
            Query::single(
                "s",
                pstore(pv("buf"), pv("idx"), ploc(loc, Location::Mem, pv("tile"))),
            )
            .also("idx", idx),
            Box::new(move |eg: &mut HbGraph, s| {
                let (rows, cols) = match flat {
                    None => match cis(eg, s, ["n", "m"]) {
                        Some([n, m]) => (m, n),
                        None => return false,
                    },
                    Some(row) => match cis(eg, s, ["l"]) {
                        Some([l]) if l % row == 0 && l >= row => (l / row, row),
                        _ => return false,
                    },
                };
                let (st, buf, tile) = (bound(s, "s"), bound(s, "buf"), bound(s, "tile"));
                let base = bound(s, "base");
                if flat.is_some() && eg.data(base).lanes != Some(1) {
                    return false;
                }
                let ty_id = ty(eg, ScalarType::I32, 1);
                let stride = match flat {
                    None => bound(s, "stride"),
                    Some(row) => num(eg, row),
                };
                let rows = num(eg, rows);
                let call = if loc == Location::Amx {
                    let args = [ty_id, buf, base, stride, rows, tile];
                    HbLang::call(names.tile_store, args)
                } else {
                    let cols = num(eg, cols);
                    let args = [ty_id, buf, base, stride, rows, cols, tile];
                    HbLang::call(names.wmma_store, args)
                };
                let call = eg.add(call);
                let ev = eg.add(HbLang::EvalS([call]));
                eg.union(st, ev).1
            }),
        );
    }
}
