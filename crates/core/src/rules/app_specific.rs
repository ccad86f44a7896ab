//! Application-specific rules (paper Fig. 10b, Appendix B): discover
//! accelerator-mappable tiles, inserting swizzles where layouts demand it.
//!
//! * AMX MatMul operands in the standard layout (A direct, B via a
//!   `kway_interleave` swizzle into VNNI) and in the pre-swizzled VNNI
//!   layout, plus pre-loaded (register-resident) variants, each of which
//!   shares its twin's query (wrapped in `AMX2Mem`) and guard;
//! * WMMA MatMul with both operands in the standard layout;
//! * convolution-like patterns — 1-D convolution, downsampling (strided
//!   convolution) and upsampling (multiphase filter) — lowered to WMMA
//!   MatMuls against generalized Toeplitz matrices built by
//!   `convolution_shuffle` / `upsample_shuffle` (§V-A/§V-B). One builder,
//!   `toeplitz_rule`, makes all three; its `Toeplitz` kind picks the
//!   shape guard, A's leading dimension, the shuffle and the MMA.
//!
//! The four WMMA rules extend the shared multiply-accumulate query
//! (`mac_query`) with two f16 operand loads. The AMX rules do not rewrite
//! the operand they match: each adds the tile it found together with a
//! fact node, [`HbLang::AmxATile`] or [`HbLang::AmxBTile`], that
//! `amx-matmul` joins to the same query (the paper's `amx-A-tile` /
//! `amx-B-tile` relations).

use hb_egraph::pattern::{Pattern, Subst};
use hb_egraph::rewrite::{bound, Query};
use hb_ir::types::{Location, ScalarType};

use crate::encode::{pbcast, pload, ploc, pnum, pramp, pty, pv};
use crate::lang::{HbGraph, HbLang};
use crate::rules::{ci, cis, mac_query, num, ty, Intrinsics, RuleList, Rw};

/// AMX architectural limits for one `tdpbf16ps`.
const AMX_MAX_M: i64 = 16;
const AMX_MAX_K: i64 = 32;
const AMX_MAX_N: i64 = 16;

/// The canonical A-operand access pattern:
/// `ramp(xN(ramp(base, 1, K)), xKN(stride), M)`.
fn a_index_pattern() -> Pattern<HbLang> {
    pramp(
        pbcast(pramp(pv("baseA"), pnum(1), pv("k")), pv("n")),
        pbcast(pv("strideA"), pv("kn")),
        pv("m"),
    )
}

/// The canonical standard-layout B-operand access pattern:
/// `xM(ramp(ramp(base, stride, K), xK(1), N))`.
fn b_std_index_pattern() -> Pattern<HbLang> {
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
fn b_vnni_index_pattern() -> Pattern<HbLang> {
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

/// The query of AMX operand `var` (`"A"` or `"B"`): a bf16 load whose index
/// matches `idx`, read from memory or, when `resident`, already in tile
/// registers (the load wrapped in `AMX2Mem`).
fn amx_operand(var: &str, resident: bool, idx: Pattern<HbLang>) -> Query<HbLang> {
    let [lanes, name, idx_var] = if var == "A" {
        ["mk", "An", "idxA"]
    } else {
        ["nk", "Bn", "idxB"]
    };
    let load = pload(pty(ScalarType::BF16, pv(lanes)), pv(name), pv(idx_var));
    let query = if resident {
        Query::single(var, ploc(Location::Amx, Location::Mem, pv("inner"))).also("inner", load)
    } else {
        Query::single(var, load)
    };
    query.also(idx_var, idx)
}

/// The A tile's `(m, k)`, if it fits one `tdpbf16ps`.
fn amx_a_guards(eg: &HbGraph, s: &Subst) -> Option<(i64, i64)> {
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

/// The VNNI B tile's `(k/2, n)`, if it fits one `tdpbf16ps`.
fn amx_b_vnni_guards(eg: &HbGraph, s: &Subst) -> Option<(i64, i64)> {
    let [khalf, kk, n] = cis(eg, s, ["khalf", "kk", "n"])?;
    (khalf > 0 && kk == 2 * khalf && 2 * khalf <= AMX_MAX_K && n <= AMX_MAX_N).then_some((khalf, n))
}

/// Builds the application-specific rule set.
#[must_use]
pub fn rules() -> Vec<Rw> {
    RuleList::all(add)
}

/// Adds the application-specific rules `out` keeps, in pass order.
#[allow(clippy::too_many_lines)]
pub(crate) fn add(out: &mut RuleList) {
    let names = Intrinsics::intern();

    // --- AMX operand A, standard layout, loaded from memory. -------------
    out.rule(
        "amx-a-standard",
        amx_operand("A", false, a_index_pattern()),
        Box::new(move |eg: &mut HbGraph, s| {
            let Some((m, k)) = amx_a_guards(eg, s) else {
                return false;
            };
            let (a, an) = (bound(s, "A"), bound(s, "An"));
            let (base, stride) = (bound(s, "baseA"), bound(s, "strideA"));
            let tyid = ty(eg, ScalarType::BF16, m * k);
            let m_lit = num(eg, m);
            let args = [tyid, an, base, stride, m_lit];
            let tile = eg.add(HbLang::call(names.tile_load, args));
            let (m_id, k_id) = (bound(s, "m"), bound(s, "k"));
            add_fact(eg, HbLang::AmxATile([a, tile, m_id, k_id]))
        }),
    );

    // --- AMX operand A, already resident in tile registers (preloaded). --
    out.rule(
        "amx-a-preloaded",
        amx_operand("A", true, a_index_pattern()),
        Box::new(|eg: &mut HbGraph, s| {
            let Some((m, k)) = amx_a_guards(eg, s) else {
                return false;
            };
            let a = bound(s, "A");
            // The pattern load is the n-way-broadcast one; the tile operand
            // is the dense m×k view of the register-resident buffer.
            let (an, base, stride) = (bound(s, "An"), bound(s, "baseA"), bound(s, "strideA"));
            let one = num(eg, 1);
            let (k_id, m_id) = (bound(s, "k"), bound(s, "m"));
            let row = eg.add(HbLang::Ramp([base, one, k_id]));
            let stride_b = eg.add(HbLang::Bcast([stride, k_id]));
            let idx = eg.add(HbLang::Ramp([row, stride_b, m_id]));
            let tyid = ty(eg, ScalarType::BF16, m * k);
            let dense = eg.add(HbLang::Load([tyid, an, idx]));
            add_fact(eg, HbLang::AmxATile([a, dense, m_id, k_id]))
        }),
    );

    // --- AMX operand B, standard layout: needs a VNNI swizzle. -----------
    out.rule(
        "amx-b-standard",
        amx_operand("B", false, b_std_index_pattern()),
        Box::new(move |eg: &mut HbGraph, s| {
            let Some([k, n, m, nk]) = cis(eg, s, ["k", "n", "m", "nk"]) else {
                return false;
            };
            if k <= 0 || n <= 0 || k > AMX_MAX_K || n > AMX_MAX_N || k % 2 != 0 || nk != m * k * n {
                return false;
            }
            let (b, bn) = (bound(s, "B"), bound(s, "Bn"));
            let (base, stride) = (bound(s, "baseB"), bound(s, "strideB"));
            // Dense row-major K x N gather of B.
            let one = num(eg, 1);
            let (n_lit, k_lit) = (bound(s, "n"), bound(s, "k"));
            let row = eg.add(HbLang::Ramp([base, one, n_lit]));
            let stride_b = eg.add(HbLang::Bcast([stride, n_lit]));
            let dense_idx = eg.add(HbLang::Ramp([row, stride_b, k_lit]));
            let tyid = ty(eg, ScalarType::BF16, k * n);
            let dense = eg.add(HbLang::Load([tyid, bn, dense_idx]));
            // Swizzle into VNNI and materialize.
            let two = num(eg, 2);
            let args = [tyid, two, k_lit, dense];
            let swizzle = eg.add(HbLang::call(names.kway_interleave, args));
            let tmp = eg.add(HbLang::ExprVar([swizzle]));
            let zero = num(eg, 0);
            let two_n = num(eg, 2 * n);
            let khalf = num(eg, k / 2);
            let args = [tyid, tmp, zero, two_n, khalf];
            let tile = eg.add(HbLang::call(names.tile_load, args));
            add_fact(eg, HbLang::AmxBTile([b, tile, k_lit, n_lit]))
        }),
    );

    // --- AMX operand B, VNNI layout: load directly. ----------------------
    out.rule(
        "amx-b-vnni",
        amx_operand("B", false, b_vnni_index_pattern()),
        Box::new(move |eg: &mut HbGraph, s| {
            let Some((khalf, n)) = amx_b_vnni_guards(eg, s) else {
                return false;
            };
            let (b, bn) = (bound(s, "B"), bound(s, "Bn"));
            let (base, stride) = (bound(s, "baseB"), bound(s, "strideB"));
            let tyid = ty(eg, ScalarType::BF16, 2 * khalf * n);
            let khalf_id = bound(s, "khalf");
            let args = [tyid, bn, base, stride, khalf_id];
            let tile = eg.add(HbLang::call(names.tile_load, args));
            let k_full = num(eg, 2 * khalf);
            add_fact(eg, HbLang::AmxBTile([b, tile, k_full, bound(s, "n")]))
        }),
    );

    // --- AMX operand B, VNNI layout, preloaded in registers. -------------
    out.rule(
        "amx-b-vnni-preloaded",
        amx_operand("B", true, b_vnni_index_pattern()),
        Box::new(|eg: &mut HbGraph, s| {
            let Some((khalf, n)) = amx_b_vnni_guards(eg, s) else {
                return false;
            };
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
            add_fact(eg, HbLang::AmxBTile([b, dense, k_full, bound(s, "n")]))
        }),
    );

    // --- WMMA MatMul (both operands standard layout, f16). ---------------
    out.rule(
        "wmma-matmul",
        wmma_query(a_index_pattern(), b_std_index_pattern()),
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
            let args = [ty_a, an, base_a, stride_a, m_id, k_id];
            let a = eg.add(HbLang::call(names.wmma_load_a, args));
            let ty_b = ty(eg, ScalarType::F16, k * n);
            let args = [ty_b, bn, base_b, stride_b, k_id, n_id];
            let b = eg.add(HbLang::call(names.wmma_load_b, args));
            let cw = eg.add(HbLang::Loc(Location::Mem, Location::Wmma, [c]));
            let ty_c = ty(eg, ScalarType::F32, m * n);
            let args = [ty_c, a, b, cw, m_id, n_id, k_id];
            let call = eg.add(HbLang::call(names.wmma_mma, args));
            let res = eg.add(HbLang::Loc(Location::Wmma, Location::Mem, [call]));
            eg.union(e, res).1
        }),
    );

    // --- Convolution-like patterns on WMMA (§V-A/§V-B). -------------------
    // A: ramp(ramp(base, 1, 8), x8(stride), L), or for upsampling each
    // 8-sample window twice, x2(ramp(base, 1, 8)), stepping x16(1).
    let window = || pramp(pv("baseA"), pnum(1), pv("t"));
    // B: the taps xL(ramp(base, 1, 8)), or for upsampling the two phases,
    // ramp(ramp(base, 2, 8), x8(1), 2).
    let taps = pbcast(pramp(pv("baseB"), pnum(1), pv("t")), pv("L"));
    let phases = pbcast(
        pramp(
            pramp(pv("baseB"), pnum(2), pv("t")),
            pbcast(pnum(1), pv("t")),
            pnum(2),
        ),
        pv("L"),
    );
    for (name, idx_a, idx_b, kind) in [
        (
            "wmma-conv1d",
            pramp(window(), pbcast(pnum(1), pv("t")), pv("L")),
            taps.clone(),
            Toeplitz::Conv,
        ),
        (
            "wmma-downsample",
            pramp(window(), pbcast(pnum(2), pv("t")), pv("L")),
            taps,
            Toeplitz::Downsample,
        ),
        (
            "wmma-upsample",
            pramp(
                pbcast(window(), pnum(2)),
                pbcast(pnum(1), pv("tt")),
                pv("L"),
            ),
            phases,
            Toeplitz::Upsample,
        ),
    ] {
        toeplitz_rule(out, names, name, idx_a, idx_b, kind);
    }
}

/// The shared multiply-accumulate query with both operands f16 loads whose
/// indices match `idx_a` / `idx_b`: every WMMA selection rule's query.
fn wmma_query(idx_a: Pattern<HbLang>, idx_b: Pattern<HbLang>) -> Query<HbLang> {
    let load = |lanes, name, idx| pload(pty(ScalarType::F16, pv(lanes)), pv(name), pv(idx));
    mac_query()
        .also("A", load("lanesA", "An", "idxA"))
        .also("idxA", idx_a)
        .also("B", load("lanesB", "Bn", "idxB"))
        .also("idxB", idx_b)
}

/// Which convolution-like pattern a [`toeplitz_rule`] lowers. Each maps to
/// an `m32n8k16` WMMA MatMul of 32 overlapping 16-sample input rows against
/// a 16×8 generalized Toeplitz matrix of the taps.
#[derive(Clone, Copy, PartialEq)]
enum Toeplitz {
    /// 1-D convolution: `L = mn = 256`, rows 8 apart, a stride-1
    /// `convolution_shuffle`.
    Conv,
    /// Stride-2 convolution: `L = mn = 128`, a stride-2
    /// `convolution_shuffle`, and only the first 4 of the 8 tile columns
    /// carry complete sums (`wmma_mma_cols`).
    Downsample,
    /// Two-phase multiphase filter: `L = 128`, `mn = 256`, each window read
    /// twice (`tt = 16`), rows 4 apart, an `upsample_shuffle`.
    Upsample,
}

/// Adds one convolution-like WMMA rule of kind `kind` over the operand
/// indices `idx_a` / `idx_b`.
fn toeplitz_rule(
    out: &mut RuleList,
    names: Intrinsics,
    name: &str,
    idx_a: Pattern<HbLang>,
    idx_b: Pattern<HbLang>,
    kind: Toeplitz,
) {
    let (want_l, want_mn, ld_a) = match kind {
        Toeplitz::Conv => (256, 256, 8),
        Toeplitz::Downsample => (128, 128, 8),
        Toeplitz::Upsample => (128, 256, 4),
    };
    out.rule(
        name,
        wmma_query(idx_a, idx_b),
        Box::new(move |eg: &mut HbGraph, s| {
            let Some([t, l, mn]) = cis(eg, s, ["t", "L", "mn"]) else {
                return false;
            };
            let upsample = kind == Toeplitz::Upsample;
            if t != 8 || l != want_l || mn != want_mn || (upsample && ci(eg, s, "tt") != Some(16)) {
                return false;
            }
            let (e, c) = (bound(s, "e"), bound(s, "C"));
            let (a_n, base_a) = (bound(s, "An"), bound(s, "baseA"));
            let (b_n, base_b) = (bound(s, "Bn"), bound(s, "baseB"));
            // A: 32 overlapped rows of 16 samples, `ld_a` apart.
            let ty_a = ty(eg, ScalarType::F16, 512);
            let ld_a = num(eg, ld_a);
            let m32 = num(eg, 32);
            let k16 = num(eg, 16);
            let args = [ty_a, a_n, base_a, ld_a, m32, k16];
            let a = eg.add(HbLang::call(names.wmma_load_a, args));
            // B: the 16x8 Toeplitz matrix, materialized.
            let ty_b = ty(eg, ScalarType::F16, 128);
            let rows16 = num(eg, 16);
            let shuffle = if upsample {
                let (taps8, phases2) = (num(eg, 8), num(eg, 2));
                let args = [ty_b, b_n, base_b, rows16, taps8, phases2];
                HbLang::call(names.upsample_shuffle, args)
            } else {
                let stride = num(eg, if kind == Toeplitz::Conv { 1 } else { 2 });
                let args = [ty_b, b_n, base_b, rows16, bound(s, "t"), stride];
                HbLang::call(names.convolution_shuffle, args)
            };
            let shuffle = eg.add(shuffle);
            let tmp = eg.add(HbLang::ExprVar([shuffle]));
            let zero = num(eg, 0);
            let n8 = num(eg, 8);
            let args = [ty_b, tmp, zero, n8, k16, n8];
            let b = eg.add(HbLang::call(names.wmma_load_b, args));
            let cw = eg.add(HbLang::Loc(Location::Mem, Location::Wmma, [c]));
            let ty_c = ty(eg, ScalarType::F32, mn);
            let call = if kind == Toeplitz::Downsample {
                let n4 = num(eg, 4);
                let args = [ty_c, a, b, cw, m32, n4, n8, k16];
                eg.add(HbLang::call(names.wmma_mma_cols, args))
            } else {
                let args = [ty_c, a, b, cw, m32, n8, k16];
                eg.add(HbLang::call(names.wmma_mma, args))
            };
            let res = eg.add(HbLang::Loc(Location::Wmma, Location::Mem, [call]));
            eg.union(e, res).1
        }),
    );
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
