//! Lowering rules (paper Fig. 10a): emit accelerator intrinsics for matched
//! tensor patterns, cancel data movements, and lower tile stores.

use hb_egraph::rewrite::{bound, Query};
use hb_ir::types::{Location, ScalarType};

use crate::encode::{
    padd, pamx_a_tile, pamx_b_tile, pbcast, pcast, pload, ploc, pmul, pnum, pramp, pstore, pty, pv,
    pvra,
};
use crate::lang::{ConstVal, HbGraph, HbLang};
use crate::rules::{cis, num, ty, Intrinsics, Rw};

/// Builds the lowering rule set.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn rules() -> Vec<Rw> {
    let names = Intrinsics::intern();
    let mut out = Vec::new();

    // --- AMX MatMul (Fig. 10a, first rule). -------------------------------
    // (= e (Add C (VectorReduceAdd mn (Mul (Cast f32 A) (Cast f32 B)))))
    // (amx-A-tile A tileA m k) (amx-B-tile B tileB k n)
    //   => (union e (AMX2Mem (tile_matmul (Mem2AMX C) tileA tileB)))
    out.push(Rw::rule(
        "amx-matmul",
        Query::single(
            "e",
            padd(
                pv("C"),
                pvra(
                    pv("mn"),
                    pmul(
                        pcast(pty(ScalarType::F32, pv("mnk")), pv("A")),
                        pcast(pty(ScalarType::F32, pv("mnk2")), pv("B")),
                    ),
                ),
            ),
        )
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
            let call = eg.add(HbLang::call(
                names.tile_matmul,
                [ty_c, cm, tile_a, tile_b, m_id, k_id, n_id],
            ));
            let res = eg.add(HbLang::Loc(Location::Amx, Location::Mem, [call]));
            eg.union(e, res).1
        }),
    ));

    // --- Data-movement cancellation. --------------------------------------
    for (a, b, name) in [
        (Location::Mem, Location::Amx, "cancel-mem-amx"),
        (Location::Amx, Location::Mem, "cancel-amx-mem"),
        (Location::Mem, Location::Wmma, "cancel-mem-wmma"),
        (Location::Wmma, Location::Mem, "cancel-wmma-mem"),
    ] {
        out.push(Rw::rewrite(name, ploc(a, b, ploc(b, a, pv("e"))), pv("e")));
    }

    // --- Zero initialization lowers to tile_zero. --------------------------
    for (loc, name) in [
        (Location::Amx, "amx-tile-zero"),
        (Location::Wmma, "wmma-tile-zero"),
    ] {
        out.push(Rw::rule(
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
        ));
    }

    // --- Register staging: a dense copy into a tile-register buffer is a
    // tile_load (used by "preload A/B" schedules, Table I). ----------------
    out.push(Rw::rule(
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
    ));

    // --- Tile stores, nested (2-D) index form. -----------------------------
    // store(buf, ramp(ramp(base, 1, N), xN(stride), M), AMX2Mem(tile))
    //   => evaluate(tile_store(buf, base, stride, M, tile))
    out.push(Rw::rule(
        "amx-tile-store",
        Query::single(
            "s",
            pstore(
                pv("buf"),
                pv("idx"),
                ploc(Location::Amx, Location::Mem, pv("tile")),
            ),
        )
        .also(
            "idx",
            pramp(
                pramp(pv("base"), pnum(1), pv("n")),
                pbcast(pv("stride"), pv("n")),
                pv("m"),
            ),
        ),
        Box::new(move |eg: &mut HbGraph, s| {
            let Some([_n, m]) = cis(eg, s, ["n", "m"]) else {
                return false;
            };
            let (st, buf, base, stride, tile) = (
                bound(s, "s"),
                bound(s, "buf"),
                bound(s, "base"),
                bound(s, "stride"),
                bound(s, "tile"),
            );
            let ty_id = ty(eg, ScalarType::I32, 1);
            let m_lit = num(eg, m);
            let call = eg.add(HbLang::call(
                names.tile_store,
                [ty_id, buf, base, stride, m_lit, tile],
            ));
            let ev = eg.add(HbLang::EvalS([call]));
            eg.union(st, ev).1
        }),
    ));

    out.push(Rw::rule(
        "wmma-tile-store",
        Query::single(
            "s",
            pstore(
                pv("buf"),
                pv("idx"),
                ploc(Location::Wmma, Location::Mem, pv("tile")),
            ),
        )
        .also(
            "idx",
            pramp(
                pramp(pv("base"), pnum(1), pv("n")),
                pbcast(pv("stride"), pv("n")),
                pv("m"),
            ),
        ),
        Box::new(move |eg: &mut HbGraph, s| {
            let Some([n, m]) = cis(eg, s, ["n", "m"]) else {
                return false;
            };
            let (st, buf, base, stride, tile) = (
                bound(s, "s"),
                bound(s, "buf"),
                bound(s, "base"),
                bound(s, "stride"),
                bound(s, "tile"),
            );
            let ty_id = ty(eg, ScalarType::I32, 1);
            let m_lit = num(eg, m);
            let n_lit = num(eg, n);
            let call = eg.add(HbLang::call(
                names.wmma_store,
                [ty_id, buf, base, stride, m_lit, n_lit, tile],
            ));
            let ev = eg.add(HbLang::EvalS([call]));
            eg.union(st, ev).1
        }),
    ));

    // --- Tile stores, flat (contiguous) index form. -------------------------
    // store(buf, ramp(base, 1, L), WMMA2Mem(tile)), L % 8 == 0
    //   => evaluate(wmma_store(buf, base, 8, L/8, 8, tile))
    out.push(Rw::rule(
        "wmma-tile-store-flat",
        Query::single(
            "s",
            pstore(
                pv("buf"),
                pv("idx"),
                ploc(Location::Wmma, Location::Mem, pv("tile")),
            ),
        )
        .also("idx", pramp(pv("base"), pnum(1), pv("l"))),
        Box::new(move |eg: &mut HbGraph, s| {
            let Some([l]) = cis(eg, s, ["l"]) else {
                return false;
            };
            let base = bound(s, "base");
            if l % 8 != 0 || l < 8 || eg.data(base).lanes != Some(1) {
                return false;
            }
            let (st, buf, tile) = (bound(s, "s"), bound(s, "buf"), bound(s, "tile"));
            let ty_id = ty(eg, ScalarType::I32, 1);
            let ld = num(eg, 8);
            let m = num(eg, l / 8);
            let n = num(eg, 8);
            let call = eg.add(HbLang::call(
                names.wmma_store,
                [ty_id, buf, base, ld, m, n, tile],
            ));
            let ev = eg.add(HbLang::EvalS([call]));
            eg.union(st, ev).1
        }),
    ));

    out.push(Rw::rule(
        "amx-tile-store-flat",
        Query::single(
            "s",
            pstore(
                pv("buf"),
                pv("idx"),
                ploc(Location::Amx, Location::Mem, pv("tile")),
            ),
        )
        .also("idx", pramp(pv("base"), pnum(1), pv("l"))),
        Box::new(move |eg: &mut HbGraph, s| {
            let Some([l]) = cis(eg, s, ["l"]) else {
                return false;
            };
            let base = bound(s, "base");
            if l % 16 != 0 || l < 16 || eg.data(base).lanes != Some(1) {
                return false;
            }
            let (st, buf, tile) = (bound(s, "s"), bound(s, "buf"), bound(s, "tile"));
            let ty_id = ty(eg, ScalarType::I32, 1);
            let stride = num(eg, 16);
            let rows = num(eg, l / 16);
            let call = eg.add(HbLang::call(
                names.tile_store,
                [ty_id, buf, base, stride, rows, tile],
            ));
            let ev = eg.add(HbLang::EvalS([call]));
            eg.union(st, ev).1
        }),
    ));

    out
}
