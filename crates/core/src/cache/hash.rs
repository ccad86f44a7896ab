//! Content hashing of programs and policy fingerprints (the report cache's
//! shape keys; see the module docs in [`super`]).
//!
//! One walk over the borrowed tree feeds node tags, payloads and names
//! straight into a `splitmix64` chain: equal programs hash equal, and any
//! difference — shape, operators, types, lane counts, literals, names,
//! placements — keeps hashes apart up to 64-bit collisions. No
//! `DefaultHasher`, no iteration-order dependence, stable across processes.
//! A leaf shape's key is this hash of its parametrized root (see
//! [`crate::shape`]), whose parameters are plain variables.

use std::time::Duration;

use hb_egraph::schedule::Runner;
use hb_egraph::snapshot::{payload_checksum, splitmix64};
use hb_ir::expr::Expr;
use hb_ir::stmt::Stmt;
use hb_ir::types::Type;

use crate::cost::DeviceCost;
use crate::movement::Placements;
use crate::session::Batching;

/// Node tags of the word stream. Every node feeds its tag, then its
/// payload words, then its children in walk order; arities are fixed by
/// the tag (`Block` and `Call` feed their lengths), so the stream decodes
/// to exactly one tree. The numbers are part of the key: changing one
/// moves every hash (`tests/properties.rs` pins a constant).
mod tag {
    pub const INT: u64 = 1;
    pub const FLOAT: u64 = 2;
    pub const VAR: u64 = 3;
    pub const CAST: u64 = 4;
    pub const BINARY: u64 = 5;
    pub const SELECT: u64 = 6;
    pub const RAMP: u64 = 7;
    pub const BROADCAST: u64 = 8;
    pub const LOAD: u64 = 9;
    pub const REDUCE_ADD: u64 = 10;
    pub const CALL: u64 = 11;
    pub const LOC_TO_LOC: u64 = 12;
    pub const STORE: u64 = 13;
    pub const EVALUATE: u64 = 14;
    pub const FOR: u64 = 15;
    pub const BLOCK: u64 = 16;
    pub const ALLOCATE: u64 = 17;
    pub const IF: u64 = 18;
    pub const PLACED: u64 = 19;
    pub const PROGRAM_END: u64 = 20;
}

/// The streaming content hasher: the `splitmix64` chain state.
#[derive(Default)]
struct CanonHasher {
    state: u64,
}

impl CanonHasher {
    fn word(&mut self, word: u64) {
        self.state = splitmix64(self.state ^ word);
    }

    fn ty(&mut self, ty: Type) {
        self.word(ty.elem as u64);
        self.word(u64::from(ty.lanes));
    }

    /// Buffer, variable and intrinsic names all feed by content.
    fn name(&mut self, name: &str) {
        self.word(payload_checksum(name.as_bytes()));
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::IntImm(v) => {
                self.word(tag::INT);
                self.word(v.cast_unsigned());
            }
            Expr::FloatImm(v, st) => {
                self.word(tag::FLOAT);
                self.word(v.to_bits());
                self.word(*st as u64);
            }
            Expr::Var(name, st) => {
                self.word(tag::VAR);
                self.word(*st as u64);
                self.name(name);
            }
            Expr::Cast(ty, v) => {
                self.word(tag::CAST);
                self.ty(*ty);
                self.expr(v);
            }
            Expr::Binary(op, a, b) => {
                self.word(tag::BINARY);
                self.word(*op as u64);
                self.expr(a);
                self.expr(b);
            }
            Expr::Select(c, t, f) => {
                self.word(tag::SELECT);
                self.expr(c);
                self.expr(t);
                self.expr(f);
            }
            Expr::Ramp {
                base,
                stride,
                lanes,
            } => {
                self.word(tag::RAMP);
                self.word(u64::from(*lanes));
                self.expr(base);
                self.expr(stride);
            }
            Expr::Broadcast { value, lanes } => {
                self.word(tag::BROADCAST);
                self.word(u64::from(*lanes));
                self.expr(value);
            }
            Expr::Load { ty, buffer, index } => {
                self.word(tag::LOAD);
                self.ty(*ty);
                self.name(buffer);
                self.expr(index);
            }
            Expr::VectorReduceAdd { lanes, value } => {
                self.word(tag::REDUCE_ADD);
                self.word(u64::from(*lanes));
                self.expr(value);
            }
            Expr::Call { ty, name, args } => {
                self.word(tag::CALL);
                self.ty(*ty);
                self.name(name);
                self.word(args.len() as u64);
                for arg in args {
                    self.expr(arg);
                }
            }
            Expr::LocToLoc { from, to, value } => {
                self.word(tag::LOC_TO_LOC);
                self.word(*from as u64);
                self.word(*to as u64);
                self.expr(value);
            }
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Store {
                buffer,
                index,
                value,
            } => {
                self.word(tag::STORE);
                self.name(buffer);
                self.expr(index);
                self.expr(value);
            }
            Stmt::Evaluate(e) => {
                self.word(tag::EVALUATE);
                self.expr(e);
            }
            Stmt::For {
                var,
                min,
                extent,
                kind,
                body,
            } => {
                self.word(tag::FOR);
                self.word(*kind as u64);
                self.name(var);
                self.expr(min);
                self.expr(extent);
                self.stmt(body);
            }
            Stmt::Block(stmts) => {
                self.word(tag::BLOCK);
                self.word(stmts.len() as u64);
                for s in stmts {
                    self.stmt(s);
                }
            }
            Stmt::Allocate {
                name,
                elem,
                size,
                memory,
                body,
            } => {
                self.word(tag::ALLOCATE);
                self.word(*elem as u64);
                self.word(*size);
                self.word(*memory as u64);
                self.name(name);
                self.stmt(body);
            }
            Stmt::If { cond, then_case } => {
                self.word(tag::IF);
                self.expr(cond);
                self.stmt(then_case);
            }
        }
    }

    /// The requested placements, after the tree they annotate, as one
    /// order-free sum of per-entry hashes (the map's iteration order is
    /// not part of the program).
    fn placements(&mut self, placements: &Placements) {
        let sum = placements.iter().fold(0u64, |sum, (name, memory)| {
            let entry = splitmix64(payload_checksum(name.as_bytes()));
            sum.wrapping_add(splitmix64(entry ^ *memory as u64))
        });
        self.word(tag::PLACED);
        self.word(placements.len() as u64);
        self.word(sum);
    }

    /// One whole program.
    fn program(&mut self, stmt: &Stmt, placements: &Placements) {
        self.stmt(stmt);
        self.placements(placements);
        self.word(tag::PROGRAM_END);
    }
}

/// Content hash of one program (statement tree + requested placements):
/// equal programs hash equal whatever the placement map's iteration
/// order. See the module docs for the scheme.
#[must_use]
pub fn canonical_program_hash(stmt: &Stmt, placements: &Placements) -> u64 {
    let mut hasher = CanonHasher::default();
    hasher.program(stmt, placements);
    hasher.state
}

/// The cache key of an annotated leaf shape's root: its content hash with
/// no placements (annotation has baked them into its `LocToLoc` nodes)
/// chained with the session's policy fingerprint.
pub(crate) fn leaf_key(root: &Stmt, fingerprint: u64) -> u64 {
    let mut hasher = CanonHasher::default();
    hasher.program(root, &Placements::new());
    hasher.word(fingerprint);
    hasher.state
}

/// Fingerprint of everything a session can set that can change a
/// compile's output: target name, batching mode, deadline, match budget,
/// the runner's node limit, and the two prices of the session's
/// [`DeviceCost`]. What is the same in every session (the runner's
/// iteration limit) and what only observes a
/// compile (tracer, metrics registry, profile sink) is left out, so cached
/// reports and snapshots port across instrumented and plain sessions.
pub(crate) fn policy_fingerprint(
    target_name: &str,
    batching: Batching,
    deadline: Option<Duration>,
    match_budget: Option<usize>,
    runner: &Runner,
    cost: DeviceCost,
) -> u64 {
    let text = format!(
        "target={target_name}\u{1f}batching={batching:?}\
         \u{1f}deadline={:?}\u{1f}match={match_budget:?}\u{1f}nodes={}\
         \u{1f}intrinsic={}\u{1f}movement={}",
        deadline.map(|d| d.as_nanos()),
        runner.node_limit,
        cost.intrinsic,
        cost.movement,
    );
    payload_checksum(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_ir::builder::*;
    use hb_ir::expr::BinOp;
    use hb_ir::types::{MemoryType, ScalarType, Type};

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
    fn renamed_siblings_get_distinct_keys() {
        let (a, pa) = leaf("out0", "t0");
        let (b, pb) = leaf("out1", "some_other_temp");
        assert_ne!(
            canonical_program_hash(&a, &pa),
            canonical_program_hash(&b, &pb)
        );
        assert_ne!(leaf_key(&a, 7), leaf_key(&b, 7));
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
        // `x * y` and `x * x` must not collide.
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
