//! The [`Language`] trait: what an e-graph is generic over.

use std::fmt::Debug;
use std::hash::{Hash, Hasher};

use crate::hash::WordHasher;
use crate::unionfind::Id;

/// An e-node operator with child e-class ids.
///
/// Implementations are enums whose variants carry payloads (names, literal
/// values, lane counts…) plus `Id` children. Two e-nodes *match* when they
/// have the same operator and payload; their children are compared
/// separately by the e-graph / pattern matcher.
pub trait Language: Clone + Eq + Hash + Ord + Debug + Send + Sync {
    /// Child e-class ids, in order.
    fn children(&self) -> &[Id];

    /// Mutable child ids (used for canonicalization).
    fn children_mut(&mut self) -> &mut [Id];

    /// Whether the operator and payload match, ignoring children.
    fn matches_op(&self, other: &Self) -> bool;

    /// Short operator name for debugging / printing.
    fn op_name(&self) -> String;

    /// A 64-bit discriminant of the operator *and payload*, ignoring
    /// children, used by the e-graph's operator index for indexed
    /// e-matching.
    ///
    /// Contract: `a.matches_op(&b)` must imply `a.op_key() == b.op_key()`.
    /// Collisions in the other direction are allowed — they only cost the
    /// matcher a wasted candidate, which [`Language::matches_op`] filters
    /// out.
    ///
    /// The default implementation hashes [`Language::op_name`], which is
    /// correct whenever `matches_op` implies equal names (true of every
    /// language in this repository). Implementations should override it
    /// with a direct discriminant+payload hash to skip the `String`
    /// allocation on every [`crate::egraph::EGraph::add`].
    fn op_key(&self) -> u64 {
        let mut h = op_hasher();
        self.op_name().hash(&mut h);
        h.finish()
    }

    /// Replaces each child with `f(child)` (canonicalization helper).
    fn map_children(&self, mut f: impl FnMut(Id) -> Id) -> Self {
        let mut out = self.clone();
        for c in out.children_mut() {
            *c = f(*c);
        }
        out
    }
}

/// A fresh hasher for [`Language::op_key`] implementations: the engine's
/// unkeyed [`WordHasher`], so op keys are cheap (they are computed on every
/// [`crate::egraph::EGraph::add`]) and stable within and across runs of the
/// same binary (the index never leaves the process, so cross-version
/// stability is not required).
#[must_use]
pub fn op_hasher() -> WordHasher {
    WordHasher::default()
}

/// A term over `L`: nodes stored in a flat vector, children referring to
/// earlier indices, the last node being the root. This is the tree form
/// returned by extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecExpr<L> {
    nodes: Vec<L>,
}

impl<L: Language> Default for RecExpr<L> {
    fn default() -> Self {
        RecExpr { nodes: Vec::new() }
    }
}

impl<L: Language> RecExpr<L> {
    /// Creates an empty term.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a node whose children (as `Id`s) index earlier nodes.
    /// Returns the index of the new node as an `Id`.
    pub fn add(&mut self, node: L) -> Id {
        for &c in node.children() {
            assert!(
                c.index() < self.nodes.len(),
                "RecExpr children must reference earlier nodes"
            );
        }
        self.nodes.push(node);
        Id::from(self.nodes.len() - 1)
    }

    /// The root node (last added).
    ///
    /// # Panics
    ///
    /// Panics if the expression is empty.
    #[must_use]
    pub fn root(&self) -> &L {
        self.nodes.last().expect("empty RecExpr has no root")
    }

    /// Index of the root.
    #[must_use]
    pub fn root_id(&self) -> Id {
        Id::from(self.nodes.len() - 1)
    }

    /// Node at `id`.
    #[must_use]
    pub fn node(&self, id: Id) -> &L {
        &self.nodes[id.index()]
    }

    /// All nodes in insertion order.
    #[must_use]
    pub fn nodes(&self) -> &[L] {
        &self.nodes
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the expression has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Pretty prints as an s-expression from the root.
    #[must_use]
    pub fn to_sexp(&self) -> String {
        fn go<L: Language>(rec: &RecExpr<L>, id: Id, out: &mut String) {
            let node = rec.node(id);
            if node.children().is_empty() {
                out.push_str(&node.op_name());
                return;
            }
            out.push('(');
            out.push_str(&node.op_name());
            for &c in node.children() {
                out.push(' ');
                go(rec, c, out);
            }
            out.push(')');
        }
        let mut s = String::new();
        if !self.is_empty() {
            go(self, self.root_id(), &mut s);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math_lang::Math;

    #[test]
    fn recexpr_builds_and_prints() {
        let mut r = RecExpr::<Math>::new();
        let a = r.add(Math::Sym("a".into()));
        let two = r.add(Math::Num(2));
        let mul = r.add(Math::Mul([a, two]));
        let _div = r.add(Math::Div([mul, two]));
        assert_eq!(r.len(), 4);
        assert_eq!(r.to_sexp(), "(/ (* a 2) 2)");
        assert_eq!(r.root().op_name(), "/");
    }

    #[test]
    #[should_panic(expected = "earlier nodes")]
    fn recexpr_rejects_forward_children() {
        let mut r = RecExpr::<Math>::new();
        let _ = r.add(Math::Mul([Id(5), Id(6)]));
    }

    #[test]
    fn map_children_remaps() {
        let n = Math::Mul([Id(0), Id(1)]);
        let m = n.map_children(|c| Id(c.0 + 10));
        assert_eq!(m.children(), &[Id(10), Id(11)]);
        assert!(n.matches_op(&m));
    }
}
