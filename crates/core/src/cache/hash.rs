//! Canonical program hashing and policy fingerprints (the report cache's
//! content-addressed key; see the module docs in [`super`]).
//!
//! The canonical form renames every buffer and variable name to its
//! first-occurrence index over a fixed pre-order walk, so structurally
//! identical programs — e.g. unrolled loop bodies differing only in the
//! temporaries a front end generated — collide on purpose, while any
//! structural difference (shape, operators, types, lane counts, intrinsic
//! names, placements) keeps hashes apart. The hash itself is a
//! `splitmix64` chain over the canonical rendering: no `DefaultHasher`,
//! no iteration-order dependence, stable across processes.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Duration;

use hb_egraph::schedule::Runner;
use hb_egraph::snapshot::payload_checksum;
use hb_egraph::unionfind::Id;
use hb_ir::expr::{BinOp, Expr};
use hb_ir::stmt::Stmt;
use hb_ir::types::{Location, ScalarType};

use crate::cost::CostModel;
use crate::lang::HbLang;
use crate::movement::Placements;
use crate::session::Batching;

/// First-occurrence renamer: the n-th distinct name seen on the canonical
/// walk becomes `c{n}`, whatever it was called. Variables and buffers
/// share one namespace (they share one in the e-graph's `Str`/`VarE`
/// leaves too — a buffer and a loop var with the same name alias).
#[derive(Default)]
struct Renamer {
    map: HashMap<String, String>,
    next: usize,
}

impl Renamer {
    fn rename(&mut self, name: &str) -> String {
        if let Some(canon) = self.map.get(name) {
            return canon.clone();
        }
        let canon = format!("c{}", self.next);
        self.next += 1;
        self.map.insert(name.to_string(), canon.clone());
        canon
    }
}

fn canon_expr(e: &Expr, r: &mut Renamer) -> Expr {
    match e {
        Expr::IntImm(_) | Expr::FloatImm(..) => e.clone(),
        Expr::Var(name, st) => Expr::Var(r.rename(name), *st),
        Expr::Cast(ty, v) => Expr::Cast(*ty, Box::new(canon_expr(v, r))),
        Expr::Binary(op, a, b) => {
            Expr::Binary(*op, Box::new(canon_expr(a, r)), Box::new(canon_expr(b, r)))
        }
        Expr::Select(c, t, f) => Expr::Select(
            Box::new(canon_expr(c, r)),
            Box::new(canon_expr(t, r)),
            Box::new(canon_expr(f, r)),
        ),
        Expr::Ramp {
            base,
            stride,
            lanes,
        } => Expr::Ramp {
            base: Box::new(canon_expr(base, r)),
            stride: Box::new(canon_expr(stride, r)),
            lanes: *lanes,
        },
        Expr::Broadcast { value, lanes } => Expr::Broadcast {
            value: Box::new(canon_expr(value, r)),
            lanes: *lanes,
        },
        Expr::Load { ty, buffer, index } => Expr::Load {
            ty: *ty,
            // Rename the buffer before descending: pre-order, like `Var`.
            buffer: r.rename(buffer),
            index: Box::new(canon_expr(index, r)),
        },
        Expr::VectorReduceAdd { lanes, value } => Expr::VectorReduceAdd {
            lanes: *lanes,
            value: Box::new(canon_expr(value, r)),
        },
        // Intrinsic names are semantic (they pick the instruction), so
        // they pass through by content, unlike buffer/variable names.
        Expr::Call { ty, name, args } => Expr::Call {
            ty: *ty,
            name: name.clone(),
            args: args.iter().map(|a| canon_expr(a, r)).collect(),
        },
        Expr::LocToLoc { from, to, value } => Expr::LocToLoc {
            from: *from,
            to: *to,
            value: Box::new(canon_expr(value, r)),
        },
    }
}

fn canon_stmt(s: &Stmt, r: &mut Renamer) -> Stmt {
    match s {
        Stmt::Store {
            buffer,
            index,
            value,
        } => Stmt::Store {
            buffer: r.rename(buffer),
            index: canon_expr(index, r),
            value: canon_expr(value, r),
        },
        Stmt::Evaluate(e) => Stmt::Evaluate(canon_expr(e, r)),
        Stmt::For {
            var,
            min,
            extent,
            kind,
            body,
        } => Stmt::For {
            var: r.rename(var),
            min: canon_expr(min, r),
            extent: canon_expr(extent, r),
            kind: *kind,
            body: Box::new(canon_stmt(body, r)),
        },
        Stmt::Block(stmts) => Stmt::Block(stmts.iter().map(|s| canon_stmt(s, r)).collect()),
        Stmt::Allocate {
            name,
            elem,
            size,
            memory,
            body,
        } => Stmt::Allocate {
            name: r.rename(name),
            elem: *elem,
            size: *size,
            memory: *memory,
            body: Box::new(canon_stmt(body, r)),
        },
        Stmt::If { cond, then_case } => Stmt::If {
            cond: canon_expr(cond, r),
            then_case: Box::new(canon_stmt(then_case, r)),
        },
    }
}

/// The canonical rendering [`canonical_program_hash`] hashes: the
/// statement tree with names replaced by first-occurrence indices,
/// debug-printed, followed by the requested placements sorted by
/// canonical name (names the statement never mentions keep their raw
/// name and sort after the canonical ones). Two programs hash equal iff
/// their canonical texts are equal — exposed so tests can use it as the
/// collision oracle.
#[must_use]
pub fn canonical_text(stmt: &Stmt, placements: &Placements) -> String {
    let mut renamer = Renamer::default();
    let canon = canon_stmt(stmt, &mut renamer);
    let mut entries: Vec<(bool, String, String)> = placements
        .iter()
        .map(|(name, mem)| match renamer.map.get(name) {
            Some(canon_name) => (false, canon_name.clone(), format!("{mem:?}")),
            None => (true, name.clone(), format!("{mem:?}")),
        })
        .collect();
    // Canonical names are `c{index}`; zero-pad so the lexicographic sort
    // matches occurrence order for any count.
    entries.sort_by(|a, b| {
        let key =
            |(unknown, name, _): &(bool, String, String)| (*unknown, name.len(), name.clone());
        key(a).cmp(&key(b))
    });
    let mut text = format!("{canon:?}");
    for (_, name, mem) in entries {
        let _ = write!(text, "\u{1f}{name}={mem}");
    }
    text
}

/// Content-addressed hash of one program (statement tree + requested
/// placements), invariant under renaming of buffers/variables and under
/// placement-map iteration order. See the module docs for the scheme.
#[must_use]
pub fn canonical_program_hash(stmt: &Stmt, placements: &Placements) -> u64 {
    payload_checksum(canonical_text(stmt, placements).as_bytes())
}

/// Cache key for a whole compile request: every program's canonical text
/// plus the session's policy fingerprint, in one checksum.
pub(crate) fn request_hash(programs: &[(&Stmt, &Placements)], fingerprint: u64) -> u64 {
    let mut text = String::new();
    for (stmt, placements) in programs {
        text.push_str(&canonical_text(stmt, placements));
        text.push('\u{1e}');
    }
    let _ = write!(text, "policy={fingerprint:016x}");
    payload_checksum(text.as_bytes())
}

/// E-nodes whose costs a fingerprint samples: one per shape the built-in
/// cost models distinguish (literals, arithmetic, casts, loads, reduces,
/// intrinsic calls, and every data-movement direction).
fn cost_probe_nodes() -> Vec<HbLang> {
    let mut nodes = vec![
        HbLang::Num(0),
        HbLang::Num(1),
        HbLang::Flt(0, ScalarType::F32),
        HbLang::Str("p".into()),
        HbLang::VarE("p".into()),
        HbLang::Ty(ScalarType::F32, [Id(0)]),
        HbLang::MultiplyLanes([Id(0), Id(1)]),
        HbLang::Cast([Id(0), Id(1)]),
        HbLang::Select([Id(0), Id(1), Id(2)]),
        HbLang::Ramp([Id(0), Id(1), Id(2)]),
        HbLang::Bcast([Id(0), Id(1)]),
        HbLang::Load([Id(0), Id(1), Id(2)]),
        HbLang::Vra([Id(0), Id(1)]),
        HbLang::call("tile_matmul", [Id(0)]),
        HbLang::ExprVar([Id(0)]),
        HbLang::StoreS([Id(0), Id(1), Id(2)]),
        HbLang::EvalS([Id(0)]),
    ];
    for op in [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Mod,
        BinOp::Min,
        BinOp::Max,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Eq,
        BinOp::And,
        BinOp::Or,
    ] {
        nodes.push(HbLang::Bin(op, [Id(0), Id(1)]));
    }
    for from in [Location::Mem, Location::Amx, Location::Wmma] {
        for to in [Location::Mem, Location::Amx, Location::Wmma] {
            nodes.push(HbLang::Loc(from, to, [Id(0)]));
        }
    }
    nodes
}

/// Fingerprint of everything besides the programs that can change a
/// compile's output: target, batching, budgets, matcher choice, and a
/// cost-model probe. What only observes a compile
/// (tracer, metrics registry, profile sink) is deliberately excluded, so
/// cached reports and snapshots port across instrumented and plain
/// sessions.
pub(crate) fn policy_fingerprint(
    target_name: &str,
    batching: Batching,
    outer_iters: usize,
    deadline: Option<Duration>,
    match_budget: Option<usize>,
    runner: &Runner,
    cost: &dyn CostModel,
) -> u64 {
    let mut text = format!(
        "target={target_name}\u{1f}batching={batching:?}\
         \u{1f}outer={outer_iters}\u{1f}deadline={:?}\u{1f}match={match_budget:?}\
         \u{1f}iters={}\u{1f}nodes={}\u{1f}time={:?}\u{1f}runner_match={:?}\
         \u{1f}naive={}",
        deadline.map(|d| d.as_nanos()),
        runner.max_iterations,
        runner.node_limit,
        runner.time_budget.map(|d| d.as_nanos()),
        runner.match_budget,
        runner.use_naive_matcher,
    );
    for node in cost_probe_nodes() {
        let _ = write!(text, "\u{1f}{}", cost.node_cost(&node));
    }
    payload_checksum(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_ir::builder::*;
    use hb_ir::types::{MemoryType, Type};

    fn leaf(buf: &str, tmp: &str) -> (Stmt, Placements) {
        let loaded = load(
            Type::new(ScalarType::F32, 16),
            tmp,
            ramp(int(0), int(1), 16),
        );
        let stmt = store(buf, ramp(int(0), int(1), 16), mul(loaded.clone(), loaded));
        let mut placements = Placements::new();
        placements.insert(tmp.to_string(), MemoryType::AmxTile);
        (stmt, placements)
    }

    #[test]
    fn renamed_siblings_collide() {
        let (a, pa) = leaf("out0", "t0");
        let (b, pb) = leaf("out1", "some_other_temp");
        assert_ne!(a, b);
        assert_eq!(canonical_text(&a, &pa), canonical_text(&b, &pb));
        assert_eq!(
            canonical_program_hash(&a, &pa),
            canonical_program_hash(&b, &pb)
        );
    }

    #[test]
    fn structure_and_placements_separate_hashes() {
        let (a, pa) = leaf("out", "t");
        // Different operator.
        let (mut b, pb) = leaf("out", "t");
        if let Stmt::Store {
            value: Expr::Binary(op, ..),
            ..
        } = &mut b
        {
            *op = BinOp::Add;
        }
        assert_ne!(
            canonical_program_hash(&a, &pa),
            canonical_program_hash(&b, &pb)
        );
        // Different placement for the same tree.
        let (c, mut pc) = leaf("out", "t");
        pc.insert("t".to_string(), MemoryType::WmmaAccumulator);
        assert_ne!(
            canonical_program_hash(&a, &pa),
            canonical_program_hash(&c, &pc)
        );
        // An extra placement on an unrelated name changes the key too.
        let (d, mut pd) = leaf("out", "t");
        pd.insert("elsewhere".to_string(), MemoryType::AmxTile);
        assert_ne!(
            canonical_program_hash(&a, &pa),
            canonical_program_hash(&d, &pd)
        );
    }

    #[test]
    fn hash_ignores_placement_insertion_order() {
        let (stmt, _) = leaf("out", "t");
        let mut forward = Placements::new();
        let mut reverse = Placements::new();
        let names = ["t", "a", "b", "c", "d", "e", "f", "g"];
        for name in names {
            forward.insert(name.to_string(), MemoryType::AmxTile);
        }
        for name in names.iter().rev() {
            reverse.insert((*name).to_string(), MemoryType::AmxTile);
        }
        assert_eq!(
            canonical_program_hash(&stmt, &forward),
            canonical_program_hash(&stmt, &reverse)
        );
    }

    #[test]
    fn distinct_names_in_one_program_stay_distinct() {
        // `x * y` and `x * x` must not collide even though both rename to
        // small indices.
        let x = var_t("x", ScalarType::F32);
        let y = var_t("y", ScalarType::F32);
        let a = store("out", int(0), mul(x.clone(), y));
        let b = store("out", int(0), mul(x.clone(), x));
        let none = Placements::new();
        assert_ne!(
            canonical_program_hash(&a, &none),
            canonical_program_hash(&b, &none)
        );
    }
}
