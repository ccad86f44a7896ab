//! Leaf shapes: selection leaves that differ only in base offsets select
//! alike, so a compile saturates one leaf per shape and the report cache
//! keeps one entry per shape.
//!
//! An unrolled loop lowers to one leaf per iteration, each the same
//! statement at another offset: the Fig. 6 conv1d at `k` taps has `k / 8`
//! multiply-accumulate leaves whose ramps start at `out__xo * 256 + 8 r`.
//! A *shape* is a leaf with each base-offset literal replaced by a
//! parameter, a variable with a reserved name (`__hb_param0`, `__hb_param1`,
//! … by first occurrence; equal values share one). A literal is a base
//! offset when
//!
//! * it is an integer other than 0 and 1,
//! * it sits in the scalar base of a `Ramp`, reached from that base only
//!   through `Add` / `Sub` operands, and
//! * its `Add` / `Sub` sibling, if it has one, is neither a literal nor a
//!   variable.
//!
//! A parameter encodes as a variable (one lane, no constant), and the rules
//! read literals only through lane counts, strides, 0 and 1 — the positions
//! kept concrete — so a rule fires on a parameter only where it holds for
//! every value, as it does on a loop variable. The sibling condition keeps
//! concrete the literals the extractor's content tie-break compares by
//! value against an equal-cost sibling, so the instantiated selection is
//! the one the leaf selects on its own (`tests/shapes.rs` and the pool's
//! program table pin it against history).
//!
//! The compile frame takes *every* leaf out of its tree and hands it to a
//! [`Grouping`], which [`parametrize`]s it and keeps it as the root of a new
//! [`Shape`] when no earlier leaf has its parametrized form — also a shape
//! of one leaf, so there is no special case — or drops it on the spot when
//! one has, keeping only its literals: from grouping on a compile holds one
//! leaf per shape. A leaf that names a reserved parameter is left as it is:
//! it is its own root. A shape's key is the content hash of its root
//! chained with the policy fingerprint (`cache::leaf_key`), the one key both
//! the grouping and the report cache use; equal keys group only equal
//! roots, so a hash collision never groups leaves that differ. After
//! extraction, or on a cache hit, each member's selection is the shape's
//! with its own literals substituted back ([`instantiate`]), and so is its
//! unoptimized fallback: [`instantiate`] turns the root back into the
//! member's own leaf.

use std::collections::HashMap;

use hb_ir::expr::{BinOp, Expr};
use hb_ir::stmt::Stmt;
use hb_ir::symbol::Numbered;
use hb_ir::types::ScalarType;

use crate::cache::leaf_key;

/// The parameters' names, `__hb_param0`, `__hb_param1`, …, interned once
/// per number. A leaf that names a variable with their prefix is never
/// parametrized.
static PARAMS: Numbered = Numbered::new("__hb_param");

/// Whether a literal of value `v` in a ramp base becomes a parameter, given
/// whether its `Add` / `Sub` sibling is a literal or a variable.
fn is_param(v: i64, plain_sibling: bool) -> bool {
    v != 0 && v != 1 && !plain_sibling
}

/// Whether `e` is a literal or a variable: a sibling that keeps a literal
/// concrete.
fn is_plain(e: &Expr) -> bool {
    matches!(e, Expr::IntImm(_) | Expr::Var(..))
}

/// The number of parameter value `v`: its index among `values`, where it
/// is appended when new.
fn number(values: &mut Vec<i64>, v: i64) -> u32 {
    let n = values.iter().position(|&x| x == v).unwrap_or_else(|| {
        values.push(v);
        values.len() - 1
    });
    u32::try_from(n).expect("fewer than 2^32 parameters")
}

/// Turns a leaf into its shape, in place, and returns its literals, by
/// parameter number. A leaf that names a reserved parameter is left as it
/// is, with no literals.
pub(crate) fn parametrize(leaf: &mut Stmt) -> Vec<i64> {
    let mut reserved = false;
    leaf.for_each_expr(&mut |e| {
        reserved |= matches!(e, Expr::Var(name, _) if name.starts_with(PARAMS.prefix()));
    });
    let mut values = Vec::new();
    if !reserved {
        leaf.map_exprs(&mut |e| {
            e.rewrite_bottom_up(&mut |node| {
                if let Expr::Ramp { base, .. } = node {
                    parametrize_base(base, false, &mut values);
                }
                false
            })
        });
    }
    values
}

/// Replaces the parameter literals of a ramp base (see the module docs).
fn parametrize_base(e: &mut Expr, plain_sibling: bool, values: &mut Vec<i64>) {
    match e {
        Expr::IntImm(v) if is_param(*v, plain_sibling) => {
            *e = Expr::Var(PARAMS.get(number(values, *v)), ScalarType::I32);
        }
        Expr::Binary(BinOp::Add | BinOp::Sub, a, b) => {
            let (plain_a, plain_b) = (is_plain(a), is_plain(b));
            parametrize_base(a, plain_b, values);
            parametrize_base(b, plain_a, values);
        }
        _ => {}
    }
}

/// Substitutes `values` for the parameters of a statement selected for a
/// shape, in place. A parameter is matched by its symbol.
pub(crate) fn instantiate(stmt: &mut Stmt, values: &[i64]) {
    stmt.map_exprs(&mut |e| {
        e.rewrite_bottom_up(&mut |node| {
            let Expr::Var(name, _) = node else {
                return false;
            };
            let param = (0..).zip(values).find(|&(n, _)| PARAMS.get(n) == *name);
            let Some((_, &v)) = param else {
                return false;
            };
            *node = Expr::IntImm(v);
            true
        })
    });
}

/// Leaves that select alike: the root their unit encodes and the cache
/// keys, and each member.
pub(crate) struct Shape {
    /// The root's content hash chained with the policy fingerprint.
    pub key: u64,
    /// The first member, [`parametrize`]d.
    pub root: Stmt,
    /// In leaf order.
    pub members: Vec<Member>,
}

/// One leaf of a [`Shape`].
pub(crate) struct Member {
    /// Its position among the grouped leaves.
    pub at: usize,
    /// Its literals, by parameter number.
    pub values: Vec<i64>,
}

/// Leaves grouped by shape as they come: shapes in order of their first
/// member.
#[derive(Default)]
pub(crate) struct Grouping {
    pub shapes: Vec<Shape>,
    by_key: HashMap<u64, usize>,
}

impl Grouping {
    /// [`parametrize`]s the leaf at position `at` and adds it to its shape,
    /// keyed under the policy `fingerprint`: as the root of a new one, or,
    /// when an earlier root equals it, as one more member whose copy is
    /// dropped here.
    pub(crate) fn add(&mut self, at: usize, mut leaf: Stmt, fingerprint: u64) {
        let values = parametrize(&mut leaf);
        let key = leaf_key(&leaf, fingerprint);
        let member = Member { at, values };
        match self.by_key.get(&key) {
            Some(&s) if self.shapes[s].root == leaf => self.shapes[s].members.push(member),
            _ => {
                self.by_key.entry(key).or_insert(self.shapes.len());
                let (root, members) = (leaf, vec![member]);
                self.shapes.push(Shape { key, root, members });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_ir::builder::*;
    use hb_ir::types::Type;

    /// A conv1d-like leaf: `out[i] = mem_to_wmma(in[i])`, `i = ramp(base,
    /// stride, lanes)`.
    fn leaf_at(base: Expr, stride: i64, lanes: u32) -> Stmt {
        let index = ramp(base, int(stride), lanes);
        let loaded = load(Type::f32().with_lanes(lanes), "in", index.clone());
        store("out", index, mem_to_wmma(loaded))
    }

    fn xo() -> Expr {
        mul(var("out__xo"), int(256))
    }

    /// The leaves grouped by shape.
    fn group_all(leaves: &[Stmt]) -> Vec<Shape> {
        let mut grouping = Grouping::default();
        for (at, leaf) in leaves.iter().enumerate() {
            grouping.add(at, leaf.clone(), 0);
        }
        grouping.shapes
    }

    fn shapes_of(leaves: &[Stmt]) -> Vec<Vec<usize>> {
        let members = |s: &Shape| s.members.iter().map(|m| m.at).collect();
        group_all(leaves).iter().map(members).collect()
    }

    #[test]
    fn offsets_group_and_instantiate_back() {
        let leaves: Vec<Stmt> = [8, 16, 24]
            .map(|off| leaf_at(add(xo(), int(off)), 1, 8))
            .into();
        let shapes = group_all(&leaves);
        assert_eq!(shapes.len(), 1);
        let shape = &shapes[0];
        for member in &shape.members {
            let mut back = shape.root.clone();
            instantiate(&mut back, &member.values);
            assert_eq!(back, leaves[member.at]);
        }
        // Literal bases group too, and equal values share a parameter.
        let bare = [8, 16].map(|off| leaf_at(int(off), 1, 8));
        assert_eq!(shapes_of(&bare), [vec![0, 1]]);
        assert_eq!(group_all(&bare)[0].members[1].values, [16]);
    }

    #[test]
    fn what_a_rule_can_read_keeps_leaves_apart() {
        let base = |off| add(xo(), int(off));
        let cases = [
            // A base of 0 or 1 stays concrete.
            [leaf_at(base(8), 1, 8), leaf_at(base(0), 1, 8)],
            [leaf_at(base(8), 1, 8), leaf_at(base(1), 1, 8)],
            [leaf_at(int(8), 1, 8), leaf_at(int(1), 1, 8)],
            // Lane counts and strides are no base.
            [leaf_at(base(8), 1, 8), leaf_at(base(8), 1, 16)],
            [leaf_at(base(8), 1, 8), leaf_at(base(8), 2, 8)],
            // A literal whose sibling is a variable or a literal stays.
            [
                leaf_at(add(var("x"), int(8)), 1, 8),
                leaf_at(add(var("x"), int(16)), 1, 8),
            ],
            [
                leaf_at(sub(int(24), int(8)), 1, 8),
                leaf_at(sub(int(24), int(16)), 1, 8),
            ],
        ];
        for case in &cases {
            assert_eq!(shapes_of(case), [vec![0], vec![1]], "{case:?}");
        }
        // A literal reached through a `Mul` is no base offset.
        let scaled = [16, 32].map(|c| leaf_at(add(mul(var("x"), int(c)), int(8)), 1, 8));
        assert_eq!(shapes_of(&scaled), [vec![0], vec![1]]);
    }

    #[test]
    fn distinct_values_never_share_a_parameter() {
        // (8, 8) and (8, 16) at the same two sites are two shapes.
        let two = |a, b| leaf_at(add(add(xo(), int(a)), mul(var("y"), int(b))), 1, 8);
        let pair = |a, b| leaf_at(sub(add(xo(), int(a)), add(xo(), int(b))), 1, 8);
        assert_eq!(shapes_of(&[two(8, 3), two(16, 3)]), [vec![0, 1]]);
        assert_eq!(shapes_of(&[pair(8, 8), pair(8, 16)]), [vec![0], vec![1]]);
    }

    #[test]
    fn a_reserved_name_is_never_grouped() {
        let named = |off| leaf_at(add(add(var("__hb_param0"), xo()), int(off)), 1, 8);
        let leaves = [named(8), named(16)];
        assert_eq!(shapes_of(&leaves), [vec![0], vec![1]]);
        let mut shaped = leaves[0].clone();
        assert_eq!(parametrize(&mut shaped), [], "a reserved leaf got literals");
        assert_eq!(shaped, leaves[0], "a reserved leaf moved");
    }
}
