//! Canonical program hashing and policy fingerprints (the report cache's
//! content-addressed leaf keys; see the module docs in [`super`]).
//!
//! The canonical form renames every buffer and variable name to its
//! first-occurrence index over a fixed pre-order walk, so structurally
//! identical programs — e.g. unrolled loop bodies differing only in the
//! temporaries a front end generated — collide on purpose, while any
//! structural difference (shape, operators, types, lane counts, intrinsic
//! names, placements) keeps hashes apart. The canonical form is never
//! built: one walk over the borrowed tree feeds node tags, payloads and
//! name indices straight into a `splitmix64` chain. No `DefaultHasher`, no
//! iteration-order dependence, stable across processes.

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
/// to exactly one canonical tree and two trees feed equal streams only
/// when they are equal up to renaming. The numbers are part of the key:
/// changing one moves every hash (`tests/properties.rs` pins a constant).
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
    pub const UNMENTIONED: u64 = 20;
    pub const PROGRAM_END: u64 = 21;
}

/// The streaming canonical hasher: the `splitmix64` chain state plus the
/// first-occurrence renamer of the program being walked. The n-th
/// distinct name seen on the walk feeds the index `n`, whatever it was
/// called. Variables and buffers share one namespace (they share one in
/// the e-graph's `Str`/`VarE` leaves too — a buffer and a loop var with
/// the same name alias). Names are borrowed from the tree and searched
/// newest first: programs mention few distinct names, and mostly the one
/// they mentioned last.
struct CanonHasher<'a> {
    state: u64,
    names: Vec<&'a str>,
}

impl<'a> CanonHasher<'a> {
    fn new() -> Self {
        CanonHasher {
            state: 0,
            names: Vec::with_capacity(16),
        }
    }

    fn word(&mut self, word: u64) {
        self.state = splitmix64(self.state ^ word);
    }

    fn ty(&mut self, ty: Type) {
        self.word(ty.elem as u64);
        self.word(u64::from(ty.lanes));
    }

    fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().rposition(|known| *known == name)
    }

    fn name(&mut self, name: &'a str) {
        let index = self.index_of(name).unwrap_or_else(|| {
            self.names.push(name);
            self.names.len() - 1
        });
        self.word(index as u64);
    }

    fn expr(&mut self, e: &'a Expr) {
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
                // The buffer before the index: pre-order, like `Var`.
                self.name(buffer);
                self.expr(index);
            }
            Expr::VectorReduceAdd { lanes, value } => {
                self.word(tag::REDUCE_ADD);
                self.word(u64::from(*lanes));
                self.expr(value);
            }
            // Intrinsic names are semantic (they pick the instruction), so
            // they feed by content (their checksum), unlike buffer/variable
            // names.
            Expr::Call { ty, name, args } => {
                self.word(tag::CALL);
                self.ty(*ty);
                self.word(payload_checksum(name.as_bytes()));
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

    fn stmt(&mut self, s: &'a Stmt) {
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

    /// The requested placements, after the tree they annotate: those of
    /// names the tree mentions in first-occurrence order (the renamer's own
    /// order, whatever the map's), then those of names it never mentions
    /// as an order-free sum of per-entry hashes of the raw name — such a
    /// name has no canonical index, so it counts by content.
    fn placements(&mut self, placements: &Placements) {
        let mut mentioned = 0;
        for index in 0..self.names.len() {
            if let Some(memory) = placements.get(self.names[index]) {
                mentioned += 1;
                self.word(tag::PLACED);
                self.word(index as u64);
                self.word(*memory as u64);
            }
        }
        let mut unmentioned = 0u64;
        if mentioned < placements.len() {
            for (name, memory) in placements {
                if self.index_of(name).is_none() {
                    let entry = splitmix64(payload_checksum(name.as_bytes()));
                    unmentioned = unmentioned.wrapping_add(splitmix64(entry ^ *memory as u64));
                }
            }
        }
        self.word(tag::UNMENTIONED);
        self.word((placements.len() - mentioned) as u64);
        self.word(unmentioned);
    }

    /// One whole program; the renamer starts over for the next.
    fn program(&mut self, stmt: &'a Stmt, placements: &Placements) {
        self.names.clear();
        self.stmt(stmt);
        self.placements(placements);
        self.word(tag::PROGRAM_END);
    }
}

/// Content-addressed hash of one program (statement tree + requested
/// placements), invariant under renaming of buffers/variables and under
/// placement-map iteration order. See the module docs for the scheme.
#[must_use]
pub fn canonical_program_hash(stmt: &Stmt, placements: &Placements) -> u64 {
    let mut hasher = CanonHasher::new();
    hasher.program(stmt, placements);
    hasher.state
}

/// Cache keys of a request's annotated selection leaves: each leaf's
/// canonical word stream with no placements (annotation has baked them into
/// its `LocToLoc` nodes), then the session's policy fingerprint, in one
/// chain per leaf — `canonical_program_hash(leaf, &Placements::new())`
/// chained with the fingerprint. One hasher serves every leaf.
pub(crate) fn leaf_keys(leaves: &[&Stmt], fingerprint: u64) -> Vec<u64> {
    let none = Placements::new();
    let mut hasher = CanonHasher::new();
    let key = |&leaf| {
        hasher.state = 0;
        hasher.program(leaf, &none);
        hasher.word(fingerprint);
        hasher.state
    };
    leaves.iter().map(key).collect()
}

/// Fingerprint of everything a session can set that can change a
/// compile's output: target name, batching mode, deadline, match budget,
/// the runner's node limit, and the two prices of the session's
/// [`DeviceCost`]. What is the same in every session (the outer
/// rounds and the runner's iteration limit) and what only observes a
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
    fn renamed_siblings_collide() {
        let (a, pa) = leaf("out0", "t0");
        let (b, pb) = leaf("out1", "some_other_temp");
        assert_ne!(a, b);
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
