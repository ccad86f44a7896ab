//! Property-based tests (proptest) on the core invariants:
//!
//! * the simplifier preserves interpreter semantics lane-for-lane,
//! * HARDBOILED's axiomatic rules are semantics-preserving (saturate, then
//!   evaluate both the original and the extracted program),
//! * interval analysis is sound,
//! * the Toeplitz MatMul equals direct convolution for arbitrary kernels,
//! * VNNI interleaving is the layout `tdpbf16ps` expects,
//! * reduced-precision rounding is idempotent,
//! * the report cache's canonical program hash ignores names and placement
//!   order and nothing else.

use proptest::prelude::*;

use hardboiled_repro::exec::Interp;
use hardboiled_repro::hardboiled::{canonical_program_hash, Placements};
use hardboiled_repro::ir::builder as b;
use hardboiled_repro::ir::expr::{BinOp, Expr};
use hardboiled_repro::ir::interval::{bounds, Interval, VarRanges};
use hardboiled_repro::ir::numeric::{round_bf16, round_f16};
use hardboiled_repro::ir::reference::{gen_expr, rename_names, GENES};
use hardboiled_repro::ir::simplify::simplify_in_place;
use hardboiled_repro::ir::stmt::{ForKind, Stmt};
use hardboiled_repro::ir::types::{MemoryType, ScalarType, Type};

/// Random *scalar* integer expressions over variables `x`, `y`.
fn arb_scalar_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-20i64..20).prop_map(b::int),
        Just(b::var("x")),
        Just(b::var("y")),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, bb)| b::add(a, bb)),
            (inner.clone(), inner.clone()).prop_map(|(a, bb)| b::sub(a, bb)),
            (inner.clone(), 1i64..5).prop_map(|(a, c)| b::mul(a, b::int(c))),
            (inner.clone(), 1i64..5).prop_map(|(a, c)| b::div(a, b::int(c))),
            (inner.clone(), 1i64..5).prop_map(|(a, c)| b::modulo(a, b::int(c))),
            (inner.clone(), inner).prop_map(|(a, bb)| b::min(a, bb)),
        ]
    })
}

/// Random integer index expressions: scalar bodies, vectorized at the
/// outermost level (scalar, ramp, broadcast, or a two-level nest — the
/// shapes HARDBOILED cares about). Operand lanes always agree.
fn arb_int_expr() -> impl Strategy<Value = Expr> {
    (
        arb_scalar_expr(),
        arb_scalar_expr(),
        0u8..4,
        2u32..5,
        2u32..5,
    )
        .prop_map(|(a, stride, shape, n, m)| match shape {
            0 => a,
            1 => b::ramp(a, stride, n),
            2 => b::bcast(a, n),
            _ => b::ramp(b::bcast(a, m), b::bcast(stride, m), n),
        })
}

fn eval_lanes(e: &Expr, x: i64, y: i64) -> Option<Vec<f64>> {
    let mut it = Interp::new();
    it.bind("x", x);
    it.bind("y", y);
    it.eval(e).ok().map(|v| v.data)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn simplifier_preserves_semantics(e in arb_int_expr(), x in -5i64..5, y in -5i64..5) {
        let mut s = e.clone();
        simplify_in_place(&mut s);
        // Division by a runtime zero errors in both or neither.
        match (eval_lanes(&e, x, y), eval_lanes(&s, x, y)) {
            (Some(a), Some(bv)) => prop_assert_eq!(a, bv),
            (None, _) => {} // original traps (div by zero); simplified may fold
            (Some(_), None) => prop_assert!(false, "simplification introduced a trap"),
        }
    }

    #[test]
    fn interval_analysis_is_sound(e in arb_int_expr(), x in 0i64..8, y in 0i64..8) {
        let mut env = VarRanges::new();
        env.insert("x".into(), Interval::new(0, 7));
        env.insert("y".into(), Interval::new(0, 7));
        if let Some(iv) = bounds(&e, &env) {
            if let Some(lanes) = eval_lanes(&e, x, y) {
                for v in lanes {
                    let v = v as i64;
                    prop_assert!(iv.contains(v), "{v} outside [{}, {}] for {e}", iv.min, iv.max);
                }
            }
        }
    }

    #[test]
    fn rounding_is_idempotent_and_monotone(v in -1e4f64..1e4) {
        prop_assert_eq!(round_bf16(round_bf16(v)), round_bf16(v));
        prop_assert_eq!(round_f16(round_f16(v)), round_f16(v));
        // Rounding error bounded by half ULP scale.
        prop_assert!((round_f16(v) - v).abs() <= v.abs() * 0.001 + 1e-7);
        prop_assert!((round_bf16(v) - v).abs() <= v.abs() * 0.01 + 1e-7);
    }

    #[test]
    fn toeplitz_matmul_equals_direct_convolution(
        kern in proptest::collection::vec(-1.0f64..1.0, 8),
        signal in proptest::collection::vec(-1.0f64..1.0, 272),
    ) {
        // convolution_shuffle builds A_K; a WMMA m32n8k16 against it must
        // equal the direct 8-tap convolution of a 256-sample segment.
        let mut it = Interp::new();
        it.mem.alloc_init("K", ScalarType::F32, MemoryType::Heap, &kern).unwrap();
        it.mem.alloc_init("I", ScalarType::F32, MemoryType::Heap, &signal).unwrap();
        let shuffle = b::call(
            Type::f16().with_lanes(128),
            "convolution_shuffle",
            vec![b::var("K"), b::int(0), b::int(16), b::int(8), b::int(1)],
        );
        let a = b::call(
            Type::f16().with_lanes(512),
            "wmma_load_a",
            vec![b::var("I"), b::int(0), b::int(8), b::int(32), b::int(16)],
        );
        // Materialize the Toeplitz into a temp and load it as B.
        it.mem.alloc("T", ScalarType::F16, 128, MemoryType::Stack).unwrap();
        let store_t = b::store("T", b::ramp(b::int(0), b::int(1), 128), shuffle);
        it.exec(&store_t).unwrap();
        let bb = b::call(
            Type::f16().with_lanes(128),
            "wmma_load_b",
            vec![b::var("T"), b::int(0), b::int(8), b::int(16), b::int(8)],
        );
        let zero = b::call(Type::f32().with_lanes(256), "tile_zero", vec![]);
        let mma = b::call(
            Type::f32().with_lanes(256),
            "wmma_mma",
            vec![a, bb, zero, b::int(32), b::int(8), b::int(16)],
        );
        let got = it.eval(&mma).unwrap().data;
        for x in 0..256usize {
            let want: f64 = (0..8).map(|r| kern[r] * signal[x + r]).sum();
            prop_assert!(
                (got[x] - want).abs() < 0.05 * want.abs().max(1.0),
                "lane {x}: {} vs {want}",
                got[x]
            );
        }
    }

    #[test]
    fn vnni_layout_is_what_tdpbf16ps_expects(
        a in proptest::collection::vec(-1.0f64..1.0, 16 * 32),
        bmat in proptest::collection::vec(-1.0f64..1.0, 32 * 16),
    ) {
        use hardboiled_repro::accel::amx::{to_vnni, AmxUnit, TileDtype};
        let af: Vec<f32> = a.iter().map(|&v| v as f32).collect();
        let bf: Vec<f32> = bmat.iter().map(|&v| v as f32).collect();
        let bv = to_vnni(&bf, 32, 16);
        let mut amx = AmxUnit::new();
        amx.configure(0, 16, 16, TileDtype::F32).unwrap();
        amx.configure(1, 16, 32, TileDtype::Bf16).unwrap();
        amx.configure(2, 16, 32, TileDtype::Bf16).unwrap();
        amx.tilezero(0).unwrap();
        amx.tileload(1, &af, 32).unwrap();
        amx.tileload(2, &bv, 32).unwrap();
        amx.tdpbf16ps(0, 1, 2).unwrap();
        let mut c = vec![0.0f32; 256];
        amx.tilestore(0, &mut c, 16).unwrap();
        for m in 0..16 {
            for n in 0..16 {
                let want: f64 = (0..32).map(|k| a[m * 32 + k] * bmat[k * 16 + n]).sum();
                let got = f64::from(c[m * 16 + n]);
                prop_assert!(
                    (got - want).abs() < 0.1 * want.abs().max(1.0),
                    "bf16 tolerance: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn axiomatic_rules_preserve_lane_semantics(
        base in -8i64..8,
        stride in 1i64..4,
        inner in 2u32..5,
        outer in 2u32..5,
    ) {
        // Saturate a nested index expression with the HARDBOILED axioms and
        // check the extracted form evaluates identically.
        use hardboiled_repro::accel::device::DeviceProfile;
        use hardboiled_repro::egraph::extract::WorklistExtractor;
        use hardboiled_repro::egraph::schedule::{Budget, Runner};
        use hardboiled_repro::hardboiled::cost::DeviceCost;
        use hardboiled_repro::hardboiled::decode::decode_expr;
        use hardboiled_repro::hardboiled::encode::encode_expr;
        use hardboiled_repro::hardboiled::rules;
        use hardboiled_repro::hardboiled::HbGraph;

        let e = b::add(
            b::ramp(b::bcast(b::int(base), inner), b::bcast(b::int(stride), inner), outer),
            b::bcast(b::ramp(b::int(0), b::int(1), inner), outer),
        );
        let mut eg = HbGraph::default();
        let id = encode_expr(&mut eg, &e);
        let mut axioms = rules::axiomatic::rules();
        axioms.extend(rules::supporting::rules());
        Runner::new(4, 50_000).run_to_fixpoint(&mut eg, &axioms, Budget::none());
        let cost = DeviceCost::from_profile(&DeviceProfile::a100());
        let term = WorklistExtractor::new(&eg, cost).extract(id);
        let back = decode_expr(&term).unwrap();
        let v1 = eval_lanes(&e, 0, 0).unwrap();
        let v2 = eval_lanes(&back, 0, 0).unwrap();
        prop_assert_eq!(v1, v2);
    }
}

// ---------------------------------------------------------------------
// The canonical program hash (the report cache's key)
// ---------------------------------------------------------------------

/// A program around one gene-decoded expression (variables `x`, `y`,
/// buffers `A`, `B`): stored from inside a loop over `i`, and passed to an
/// intrinsic, under an accelerator allocation. The hash does not care that
/// the store's index is scalar whatever the value's lanes.
fn hashed_program(e: &Expr) -> Stmt {
    let body = b::block(vec![
        Stmt::Store {
            buffer: "out".into(),
            index: b::var("i"),
            value: e.clone(),
        },
        b::evaluate(b::call(
            e.ty(),
            "tile_store",
            vec![b::var("acc"), e.clone()],
        )),
    ]);
    let looped = b::for_serial("i", b::int(0), b::int(4), body);
    b::allocate("acc", ScalarType::F32, 64, MemoryType::AmxTile, looped)
}

/// Placements of two names every [`hashed_program`] mentions and two it
/// never does, inserted in the given order.
fn hashed_placements(order: [usize; 4]) -> Placements {
    let all = [
        ("out", MemoryType::Heap),
        ("acc", MemoryType::AmxTile),
        ("elsewhere", MemoryType::WmmaAccumulator),
        ("nowhere", MemoryType::Stack),
    ];
    let mut placements = Placements::new();
    for i in order {
        placements.insert(all[i].0.to_string(), all[i].1);
    }
    placements
}

/// One structural edit of a program, applied to the `nth` expression node
/// it applies to (modulo their number); whether there was one.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Edit {
    Operator,
    Lanes,
    Type,
    Intrinsic,
    Immediate,
}

impl Edit {
    fn apply(self, node: &mut Expr) -> bool {
        let other = |st: &mut ScalarType| {
            *st = if *st == ScalarType::F32 {
                ScalarType::I32
            } else {
                ScalarType::F32
            };
        };
        match (self, node) {
            (Edit::Operator, Expr::Binary(op, ..)) => {
                *op = if *op == BinOp::Add {
                    BinOp::Sub
                } else {
                    BinOp::Add
                };
            }
            (
                Edit::Lanes,
                Expr::Ramp { lanes, .. }
                | Expr::Broadcast { lanes, .. }
                | Expr::VectorReduceAdd { lanes, .. },
            ) => *lanes += 1,
            (Edit::Lanes, Expr::Cast(ty, _) | Expr::Load { ty, .. } | Expr::Call { ty, .. }) => {
                ty.lanes += 1;
            }
            (Edit::Type, Expr::Cast(ty, _) | Expr::Load { ty, .. } | Expr::Call { ty, .. }) => {
                other(&mut ty.elem);
            }
            (Edit::Type, Expr::Var(_, st) | Expr::FloatImm(_, st)) => other(st),
            (Edit::Intrinsic, Expr::Call { name, .. }) => *name = format!("{name}2").into(),
            (Edit::Immediate, Expr::IntImm(v)) => *v += 1,
            (Edit::Immediate, Expr::FloatImm(v, _)) => *v += 0.5,
            _ => return false,
        }
        true
    }

    fn edit(self, stmt: &mut Stmt, nth: usize) -> bool {
        let mut sites = 0usize;
        stmt.for_each_expr(&mut |e| sites += usize::from(self.apply(&mut e.clone())));
        if sites == 0 {
            return false;
        }
        let (mut seen, target) = (0usize, nth % sites);
        stmt.map_exprs(&mut |top| {
            top.rewrite_bottom_up(&mut |node| {
                // Count on a copy: only the target node is edited.
                if !self.apply(&mut node.clone()) {
                    return false;
                }
                seen += 1;
                seen - 1 == target && self.apply(node)
            })
        })
    }
}

#[test]
fn canonical_hash_ignores_placement_order_and_nothing_else() {
    let strategy = (
        proptest::collection::vec(0u32..1_000_000, GENES),
        0usize..1_000,
    );
    let mut rng = TestRng::from_name("canonical_hash_ignores_names_and_placement_order");
    let edits = [
        Edit::Operator,
        Edit::Lanes,
        Edit::Type,
        Edit::Intrinsic,
        Edit::Immediate,
    ];
    let mut applied = [0usize; 5];
    for _ in 0..256 {
        let (genes, nth) = strategy.generate(&mut rng);
        let stmt = hashed_program(&gen_expr(&genes));
        let placements = hashed_placements([0, 1, 2, 3]);
        let hash = canonical_program_hash(&stmt, &placements);

        // The order the placements were inserted in moves nothing.
        for order in [[3, 2, 1, 0], [2, 0, 3, 1]] {
            assert_eq!(
                canonical_program_hash(&stmt, &hashed_placements(order)),
                hash
            );
        }

        // Renaming every buffer and variable moves it — with the
        // placements renamed along, and with them left as they were.
        let other_name = |name: &str| name.chars().rev().chain(['_']).collect::<String>();
        let mut renamed = stmt.clone();
        rename_names(&mut renamed, &mut |name| *name = other_name(name).into());
        assert_ne!(renamed, stmt);
        let mut renamed_placements = hashed_placements([3, 2, 1, 0]);
        for mentioned in ["out", "acc"] {
            let memory = renamed_placements.remove(mentioned).unwrap();
            renamed_placements.insert(other_name(mentioned), memory);
        }
        for placements in [&renamed_placements, &placements] {
            assert_ne!(
                canonical_program_hash(&renamed, placements),
                hash,
                "renaming left the hash of {stmt} where it was"
            );
        }
        // So does renaming one placement alone.
        assert_ne!(canonical_program_hash(&stmt, &renamed_placements), hash);

        // One operator, lane count, type, intrinsic name or immediate
        // changed anywhere in the tree moves it.
        for (k, edit) in edits.into_iter().enumerate() {
            let mut edited = stmt.clone();
            if edit.edit(&mut edited, nth) {
                applied[k] += 1;
                assert_ne!(
                    canonical_program_hash(&edited, &placements),
                    hash,
                    "{edit:?} edit #{nth} left the hash of {stmt} where it was: {edited}"
                );
            }
        }
        // So does the loop kind, and a placement changed, dropped or added —
        // of a name the tree mentions or of one it does not.
        let mut unrolled = stmt.clone();
        unrolled.rewrite_stmts_in_place(&mut |s| match s {
            Stmt::For { kind, .. } => {
                *kind = ForKind::Unrolled;
                true
            }
            _ => false,
        });
        assert_ne!(canonical_program_hash(&unrolled, &placements), hash);
        for name in ["out", "elsewhere"] {
            let mut moved = placements.clone();
            moved.insert(name.to_string(), MemoryType::GpuShared);
            assert_ne!(canonical_program_hash(&stmt, &moved), hash, "{name} moved");
            let mut dropped = placements.clone();
            dropped.remove(name);
            assert_ne!(
                canonical_program_hash(&stmt, &dropped),
                hash,
                "{name} dropped"
            );
        }
        for name in ["i", "somewhere"] {
            let mut added = placements.clone();
            added.insert(name.to_string(), MemoryType::Heap);
            assert_ne!(canonical_program_hash(&stmt, &added), hash, "{name} added");
        }
    }
    for (edit, count) in edits.iter().zip(applied) {
        assert!(
            count > 64,
            "{edit:?} applied to only {count} of 256 programs"
        );
    }
}

/// The module docs promise a key that is stable across processes (and so
/// across builds): one fixed program's hash, pinned. A deliberate change of
/// the scheme — a node tag, the walk order, the mixer — re-records it.
#[test]
fn canonical_hash_of_a_fixed_program_is_pinned() {
    let loaded = b::load(
        Type::new(ScalarType::BF16, 16),
        "tile",
        b::ramp(b::var("i"), b::int(1), 16),
    );
    let stmt = b::for_serial(
        "i",
        b::int(0),
        b::int(4),
        b::store(
            "out",
            b::ramp(b::int(0), b::int(1), 16),
            b::cast(
                Type::new(ScalarType::F32, 16),
                b::call(
                    Type::new(ScalarType::BF16, 16),
                    "tile_load",
                    vec![loaded, b::flt(0.5)],
                ),
            ),
        ),
    );
    let mut placements = Placements::new();
    placements.insert("tile".to_string(), MemoryType::AmxTile);
    placements.insert("unmentioned".to_string(), MemoryType::Stack);
    assert_eq!(
        canonical_program_hash(&stmt, &placements),
        0x8b10_62d7_c07d_21ea,
        "the canonical hash of a fixed program moved"
    );
}
