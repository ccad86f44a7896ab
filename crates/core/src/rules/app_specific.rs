//! Application-specific rules (paper Fig. 10b, Appendix B): discover
//! accelerator-mappable tiles, inserting swizzles where layouts demand it.
//!
//! * AMX MatMul operands in the standard layout (A direct, B via a
//!   `kway_interleave` swizzle into VNNI) and in the pre-swizzled VNNI
//!   layout, plus pre-loaded (register-resident) variants;
//! * WMMA MatMul with both operands in the standard layout;
//! * convolution-like patterns — 1-D convolution, downsampling (strided
//!   convolution) and upsampling (multiphase filter) — lowered to WMMA
//!   MatMuls against generalized Toeplitz matrices built by
//!   `convolution_shuffle` / `upsample_shuffle` (§V-A/§V-B).
//!
//! The AMX rules do not rewrite the operand they match: each adds the tile
//! it found together with a fact node, [`HbLang::AmxATile`] or
//! [`HbLang::AmxBTile`], that `amx-matmul` joins (the paper's
//! `amx-A-tile` / `amx-B-tile` relations).

use hb_egraph::rewrite::{bound, Query};
use hb_ir::types::{Location, ScalarType};

use crate::encode::{padd, pbcast, pcast, pload, ploc, pmul, pnum, pramp, pty, pv, pvra};
use crate::lang::{HbGraph, HbLang};
use crate::rules::{cis, num, ty, Intrinsics, Rw};

/// AMX architectural limits for one `tdpbf16ps`.
const AMX_MAX_M: i64 = 16;
const AMX_MAX_K: i64 = 32;
const AMX_MAX_N: i64 = 16;

/// The canonical A-operand access pattern:
/// `ramp(xN(ramp(base, 1, K)), xKN(stride), M)`.
fn a_index_pattern() -> hb_egraph::pattern::Pattern<HbLang> {
    pramp(
        pbcast(pramp(pv("baseA"), pnum(1), pv("k")), pv("n")),
        pbcast(pv("strideA"), pv("kn")),
        pv("m"),
    )
}

/// The canonical standard-layout B-operand access pattern:
/// `xM(ramp(ramp(base, stride, K), xK(1), N))`.
fn b_std_index_pattern() -> hb_egraph::pattern::Pattern<HbLang> {
    pbcast(
        pramp(
            pramp(pv("baseB"), pv("strideB"), pv("k")),
            pbcast(pnum(1), pv("k")),
            pv("n"),
        ),
        pv("m"),
    )
}

/// The VNNI-layout B-operand access pattern (paper Fig. 10b, second rule):
/// `xM(ramp(ramp(ramp(base, 1, 2), x2(stride), K/2), x(2·K/2)(2), N))`.
fn b_vnni_index_pattern() -> hb_egraph::pattern::Pattern<HbLang> {
    pbcast(
        pramp(
            pramp(
                pramp(pv("baseB"), pnum(1), pnum(2)),
                pbcast(pv("strideB"), pnum(2)),
                pv("khalf"),
            ),
            pbcast(pnum(2), pv("kk")),
            pv("n"),
        ),
        pv("m"),
    )
}

fn amx_a_guards(eg: &HbGraph, s: &hb_egraph::pattern::Subst) -> Option<(i64, i64)> {
    // The matched load is the fully-vectorized (broadcast-widened) one, so
    // its type has m·k·n lanes; the tile itself is m×k.
    let [m, k, n, kn, mk] = cis(eg, s, ["m", "k", "n", "kn", "mk"])?;
    (m > 0
        && k > 0
        && n > 0
        && m <= AMX_MAX_M
        && k <= AMX_MAX_K
        && k % 2 == 0
        && mk == m * k * n
        && kn == k * n)
        .then_some((m, k))
}

/// Builds the application-specific rule set.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn rules() -> Vec<Rw> {
    let names = Intrinsics::intern();
    let mut out = Vec::new();

    // --- AMX operand A, standard layout, loaded from memory. -------------
    out.push(Rw::rule(
        "amx-a-standard",
        Query::single(
            "A",
            pload(pty(ScalarType::BF16, pv("mk")), pv("An"), pv("idxA")),
        )
        .also("idxA", a_index_pattern()),
        Box::new(move |eg: &mut HbGraph, s| {
            let Some((m, k)) = amx_a_guards(eg, s) else {
                return false;
            };
            let (a, an, base, stride) = (
                bound(s, "A"),
                bound(s, "An"),
                bound(s, "baseA"),
                bound(s, "strideA"),
            );
            let tyid = ty(eg, ScalarType::BF16, m * k);
            let m_lit = num(eg, m);
            let tile = eg.add(HbLang::call(
                names.tile_load,
                [tyid, an, base, stride, m_lit],
            ));
            let (m_id, k_id) = (bound(s, "m"), bound(s, "k"));
            add_fact(eg, HbLang::AmxATile([a, tile, m_id, k_id]))
        }),
    ));

    // --- AMX operand A, already resident in tile registers (preloaded). --
    out.push(Rw::rule(
        "amx-a-preloaded",
        Query::single("A", ploc(Location::Amx, Location::Mem, pv("inner")))
            .also(
                "inner",
                pload(pty(ScalarType::BF16, pv("mk")), pv("An"), pv("idxA")),
            )
            .also("idxA", a_index_pattern()),
        Box::new(|eg: &mut HbGraph, s| {
            let Some((m, k)) = amx_a_guards(eg, s) else {
                return false;
            };
            let a = bound(s, "A");
            // The pattern load is the n-way-broadcast one; the tile operand
            // is the dense m×k view of the register-resident buffer.
            let (an, base, stride) = (bound(s, "An"), bound(s, "baseA"), bound(s, "strideA"));
            let one = num(eg, 1);
            let k_id = bound(s, "k");
            let m_id = bound(s, "m");
            let row = eg.add(HbLang::Ramp([base, one, k_id]));
            let stride_b = eg.add(HbLang::Bcast([stride, k_id]));
            let idx = eg.add(HbLang::Ramp([row, stride_b, m_id]));
            let tyid = ty(eg, ScalarType::BF16, m * k);
            let dense = eg.add(HbLang::Load([tyid, an, idx]));
            add_fact(eg, HbLang::AmxATile([a, dense, m_id, k_id]))
        }),
    ));

    // --- AMX operand B, standard layout: needs a VNNI swizzle. -----------
    out.push(Rw::rule(
        "amx-b-standard",
        Query::single(
            "B",
            pload(pty(ScalarType::BF16, pv("nk")), pv("Bn"), pv("idxB")),
        )
        .also("idxB", b_std_index_pattern()),
        Box::new(move |eg: &mut HbGraph, s| {
            let Some([k, n, m, nk]) = cis(eg, s, ["k", "n", "m", "nk"]) else {
                return false;
            };
            if k <= 0 || n <= 0 || k > AMX_MAX_K || n > AMX_MAX_N || k % 2 != 0 || nk != m * k * n {
                return false;
            }
            let (b, bn, base, stride) = (
                bound(s, "B"),
                bound(s, "Bn"),
                bound(s, "baseB"),
                bound(s, "strideB"),
            );
            // Dense row-major K x N gather of B.
            let one = num(eg, 1);
            let n_lit = bound(s, "n");
            let k_lit = bound(s, "k");
            let row = eg.add(HbLang::Ramp([base, one, n_lit]));
            let stride_b = eg.add(HbLang::Bcast([stride, n_lit]));
            let dense_idx = eg.add(HbLang::Ramp([row, stride_b, k_lit]));
            let tyid = ty(eg, ScalarType::BF16, k * n);
            let dense = eg.add(HbLang::Load([tyid, bn, dense_idx]));
            // Swizzle into VNNI and materialize.
            let two = num(eg, 2);
            let swizzle = eg.add(HbLang::call(
                names.kway_interleave,
                [tyid, two, k_lit, dense],
            ));
            let tmp = eg.add(HbLang::ExprVar([swizzle]));
            let zero = num(eg, 0);
            let two_n = num(eg, 2 * n);
            let khalf = num(eg, k / 2);
            let tile = eg.add(HbLang::call(
                names.tile_load,
                [tyid, tmp, zero, two_n, khalf],
            ));
            let (k_id, n_id) = (bound(s, "k"), bound(s, "n"));
            add_fact(eg, HbLang::AmxBTile([b, tile, k_id, n_id]))
        }),
    ));

    // --- AMX operand B, VNNI layout: load directly. ----------------------
    out.push(Rw::rule(
        "amx-b-vnni",
        Query::single(
            "B",
            pload(pty(ScalarType::BF16, pv("nk")), pv("Bn"), pv("idxB")),
        )
        .also("idxB", b_vnni_index_pattern()),
        Box::new(move |eg: &mut HbGraph, s| {
            let Some([khalf, kk, n]) = cis(eg, s, ["khalf", "kk", "n"]) else {
                return false;
            };
            if khalf <= 0 || kk != 2 * khalf || 2 * khalf > AMX_MAX_K || n > AMX_MAX_N {
                return false;
            }
            let (b, bn, base, stride) = (
                bound(s, "B"),
                bound(s, "Bn"),
                bound(s, "baseB"),
                bound(s, "strideB"),
            );
            let tyid = ty(eg, ScalarType::BF16, 2 * khalf * n);
            let khalf_id = bound(s, "khalf");
            let tile = eg.add(HbLang::call(
                names.tile_load,
                [tyid, bn, base, stride, khalf_id],
            ));
            let k_full = num(eg, 2 * khalf);
            let n_id = bound(s, "n");
            add_fact(eg, HbLang::AmxBTile([b, tile, k_full, n_id]))
        }),
    ));

    // --- AMX operand B, VNNI layout, preloaded in registers. -------------
    out.push(Rw::rule(
        "amx-b-vnni-preloaded",
        Query::single("B", ploc(Location::Amx, Location::Mem, pv("inner")))
            .also(
                "inner",
                pload(pty(ScalarType::BF16, pv("nk")), pv("Bn"), pv("idxB")),
            )
            .also("idxB", b_vnni_index_pattern()),
        Box::new(|eg: &mut HbGraph, s| {
            let Some([khalf, kk, n]) = cis(eg, s, ["khalf", "kk", "n"]) else {
                return false;
            };
            if kk != 2 * khalf || 2 * khalf > AMX_MAX_K || n > AMX_MAX_N {
                return false;
            }
            let b = bound(s, "B");
            // Dense khalf×2n view of the register-resident VNNI buffer.
            let (bn, base, stride) = (bound(s, "Bn"), bound(s, "baseB"), bound(s, "strideB"));
            let one = num(eg, 1);
            let two_n = num(eg, 2 * n);
            let khalf_id = bound(s, "khalf");
            let row = eg.add(HbLang::Ramp([base, one, two_n]));
            let stride_b = eg.add(HbLang::Bcast([stride, two_n]));
            let idx = eg.add(HbLang::Ramp([row, stride_b, khalf_id]));
            let tyid = ty(eg, ScalarType::BF16, 2 * khalf * n);
            let dense = eg.add(HbLang::Load([tyid, bn, idx]));
            let k_full = num(eg, 2 * khalf);
            let n_id = bound(s, "n");
            add_fact(eg, HbLang::AmxBTile([b, dense, k_full, n_id]))
        }),
    ));

    // --- WMMA MatMul (both operands standard layout, f16). ---------------
    out.push(Rw::rule(
        "wmma-matmul",
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
            "A",
            pload(pty(ScalarType::F16, pv("mk")), pv("An"), pv("idxA")),
        )
        .also("idxA", a_index_pattern())
        .also(
            "B",
            pload(pty(ScalarType::F16, pv("knl")), pv("Bn"), pv("idxB")),
        )
        .also("idxB", b_std_index_pattern()),
        Box::new(move |eg: &mut HbGraph, s| {
            let Some([m, n, k, mn, mnk]) = cis(eg, s, ["m", "n", "k", "mn", "mnk"]) else {
                return false;
            };
            let supported = [(16, 16, 16), (32, 8, 16), (8, 32, 16)];
            if !supported.contains(&(m, n, k)) || mn != m * n || mnk != m * n * k {
                return false;
            }
            let (e, c) = (bound(s, "e"), bound(s, "C"));
            let (an, base_a, stride_a) = (bound(s, "An"), bound(s, "baseA"), bound(s, "strideA"));
            let (bn, base_b, stride_b) = (bound(s, "Bn"), bound(s, "baseB"), bound(s, "strideB"));
            let (m_id, n_id, k_id) = (bound(s, "m"), bound(s, "n"), bound(s, "k"));
            let ty_a = ty(eg, ScalarType::F16, m * k);
            let a = eg.add(HbLang::call(
                names.wmma_load_a,
                [ty_a, an, base_a, stride_a, m_id, k_id],
            ));
            let ty_b = ty(eg, ScalarType::F16, k * n);
            let b = eg.add(HbLang::call(
                names.wmma_load_b,
                [ty_b, bn, base_b, stride_b, k_id, n_id],
            ));
            let cw = eg.add(HbLang::Loc(Location::Mem, Location::Wmma, [c]));
            let ty_c = ty(eg, ScalarType::F32, m * n);
            let call = eg.add(HbLang::call(
                names.wmma_mma,
                [ty_c, a, b, cw, m_id, n_id, k_id],
            ));
            let res = eg.add(HbLang::Loc(Location::Wmma, Location::Mem, [call]));
            eg.union(e, res).1
        }),
    ));

    // --- Convolution-like patterns on WMMA. -------------------------------
    out.push(conv_like_rule(
        names,
        "wmma-conv1d",
        // I index: ramp(ramp(base, 1, 8), x8(1), 256)
        pramp(
            pramp(pv("baseI"), pnum(1), pv("t")),
            pbcast(pnum(1), pv("t")),
            pv("L"),
        ),
        ConvKind::Conv,
    ));
    out.push(conv_like_rule(
        names,
        "wmma-downsample",
        // I index: ramp(ramp(base, 1, 8), x8(2), 128)
        pramp(
            pramp(pv("baseI"), pnum(1), pv("t")),
            pbcast(pnum(2), pv("t")),
            pv("L"),
        ),
        ConvKind::Downsample,
    ));

    // --- Upsampling (multiphase filter, §V-B). ----------------------------
    out.push(Rw::rule(
        "wmma-upsample",
        Query::single(
            "e",
            padd(
                pv("C"),
                pvra(
                    pv("Lout"),
                    pmul(
                        pcast(pty(ScalarType::F32, pv("lt")), pv("I")),
                        pcast(pty(ScalarType::F32, pv("lt2")), pv("K")),
                    ),
                ),
            ),
        )
        .also(
            "I",
            pload(pty(ScalarType::F16, pv("il")), pv("In"), pv("idxI")),
        )
        .also(
            "idxI",
            pramp(
                pbcast(pramp(pv("baseI"), pnum(1), pv("t")), pnum(2)),
                pbcast(pnum(1), pv("tt")),
                pv("L"),
            ),
        )
        .also(
            "K",
            pload(pty(ScalarType::F16, pv("kl")), pv("Kn"), pv("idxK")),
        )
        .also(
            "idxK",
            pbcast(
                pramp(
                    pramp(pv("baseK"), pnum(2), pv("t")),
                    pbcast(pnum(1), pv("t")),
                    pnum(2),
                ),
                pv("L"),
            ),
        ),
        Box::new(move |eg: &mut HbGraph, s| {
            let Some([t, tt, l, lout]) = cis(eg, s, ["t", "tt", "L", "Lout"]) else {
                return false;
            };
            if t != 8 || tt != 16 || l != 128 || lout != 256 {
                return false;
            }
            let (e, c) = (bound(s, "e"), bound(s, "C"));
            let (i_n, base_i) = (bound(s, "In"), bound(s, "baseI"));
            let (k_n, base_k) = (bound(s, "Kn"), bound(s, "baseK"));
            let ty_a = ty(eg, ScalarType::F16, 512);
            let ld4 = num(eg, 4);
            let m32 = num(eg, 32);
            let k16 = num(eg, 16);
            let a = eg.add(HbLang::call(
                names.wmma_load_a,
                [ty_a, i_n, base_i, ld4, m32, k16],
            ));
            let ty_b = ty(eg, ScalarType::F16, 128);
            let rows16 = num(eg, 16);
            let taps8 = num(eg, 8);
            let phases2 = num(eg, 2);
            let shuffle = eg.add(HbLang::call(
                names.upsample_shuffle,
                [ty_b, k_n, base_k, rows16, taps8, phases2],
            ));
            let tmp = eg.add(HbLang::ExprVar([shuffle]));
            let zero = num(eg, 0);
            let ld8 = num(eg, 8);
            let n8 = num(eg, 8);
            let b = eg.add(HbLang::call(
                names.wmma_load_b,
                [ty_b, tmp, zero, ld8, k16, n8],
            ));
            let cw = eg.add(HbLang::Loc(Location::Mem, Location::Wmma, [c]));
            let ty_c = ty(eg, ScalarType::F32, 256);
            let call = eg.add(HbLang::call(names.wmma_mma, [ty_c, a, b, cw, m32, n8, k16]));
            let res = eg.add(HbLang::Loc(Location::Wmma, Location::Mem, [call]));
            eg.union(e, res).1
        }),
    ));

    out
}

#[derive(Clone, Copy, PartialEq)]
enum ConvKind {
    Conv,
    Downsample,
}

/// Shared builder for the stride-1 convolution and stride-2 downsampling
/// rules: both map to an `m32n8k16` WMMA MatMul against a Toeplitz matrix
/// built by `convolution_shuffle`; downsampling uses a strided Toeplitz and
/// only the first 4 result columns are meaningful (`wmma_mma_cols`).
fn conv_like_rule(
    names: Intrinsics,
    name: &str,
    idx_i: hb_egraph::pattern::Pattern<HbLang>,
    kind: ConvKind,
) -> Rw {
    Rw::rule(
        name,
        Query::single(
            "e",
            padd(
                pv("C"),
                pvra(
                    pv("Lout"),
                    pmul(
                        pcast(pty(ScalarType::F32, pv("lt")), pv("I")),
                        pcast(pty(ScalarType::F32, pv("lt2")), pv("K")),
                    ),
                ),
            ),
        )
        .also(
            "I",
            pload(pty(ScalarType::F16, pv("il")), pv("In"), pv("idxI")),
        )
        .also("idxI", idx_i)
        .also(
            "K",
            pload(pty(ScalarType::F16, pv("kl")), pv("Kn"), pv("idxK")),
        )
        .also(
            "idxK",
            pbcast(pramp(pv("baseK"), pnum(1), pv("t")), pv("L")),
        ),
        Box::new(move |eg: &mut HbGraph, s| {
            let Some([t, l, lout]) = cis(eg, s, ["t", "L", "Lout"]) else {
                return false;
            };
            let expected_l = match kind {
                ConvKind::Conv => 256,
                ConvKind::Downsample => 128,
            };
            if t != 8 || l != expected_l || lout != expected_l {
                return false;
            }
            let (e, c) = (bound(s, "e"), bound(s, "C"));
            let (i_n, base_i) = (bound(s, "In"), bound(s, "baseI"));
            let (k_n, base_k) = (bound(s, "Kn"), bound(s, "baseK"));
            // A: 32 overlapped rows of 16 samples, shifted 8 apart.
            let ty_a = ty(eg, ScalarType::F16, 512);
            let ld8 = num(eg, 8);
            let m32 = num(eg, 32);
            let k16 = num(eg, 16);
            let a = eg.add(HbLang::call(
                names.wmma_load_a,
                [ty_a, i_n, base_i, ld8, m32, k16],
            ));
            // B: the 16x8 (strided) Toeplitz matrix, materialized.
            let stride = match kind {
                ConvKind::Conv => 1,
                ConvKind::Downsample => 2,
            };
            let ty_b = ty(eg, ScalarType::F16, 128);
            let rows16 = num(eg, 16);
            let t_id = bound(s, "t");
            let stride_id = num(eg, stride);
            let shuffle = eg.add(HbLang::call(
                names.convolution_shuffle,
                [ty_b, k_n, base_k, rows16, t_id, stride_id],
            ));
            let tmp = eg.add(HbLang::ExprVar([shuffle]));
            let zero = num(eg, 0);
            let n8 = num(eg, 8);
            let b = eg.add(HbLang::call(
                names.wmma_load_b,
                [ty_b, tmp, zero, ld8, k16, n8],
            ));
            let cw = eg.add(HbLang::Loc(Location::Mem, Location::Wmma, [c]));
            let call = match kind {
                ConvKind::Conv => {
                    let ty_c = ty(eg, ScalarType::F32, 256);
                    eg.add(HbLang::call(names.wmma_mma, [ty_c, a, b, cw, m32, n8, k16]))
                }
                ConvKind::Downsample => {
                    // Only 4 of the 8 tile columns carry complete sums.
                    let ty_c = ty(eg, ScalarType::F32, 128);
                    let n4 = num(eg, 4);
                    eg.add(HbLang::call(
                        names.wmma_mma_cols,
                        [ty_c, a, b, cw, m32, n4, n8, k16],
                    ))
                }
            };
            let res = eg.add(HbLang::Loc(Location::Wmma, Location::Mem, [call]));
            eg.union(e, res).1
        }),
    )
}

/// Adds an AMX tile fact; returns whether it is new, the applier's
/// "changed": a fact already stated changes nothing.
fn add_fact(eg: &mut HbGraph, fact: HbLang) -> bool {
    let nodes = eg.num_nodes();
    eg.add(fact);
    eg.num_nodes() > nodes
}

/// Does nothing: the tile facts are e-nodes, and a graph needs no
/// declaration before it holds them. Kept only because the `benchmark/`
/// package calls it; it goes with ROADMAP item 2(iii).
pub fn declare_relations(_eg: &mut HbGraph) {}
