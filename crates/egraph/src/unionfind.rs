//! Union-find over e-class ids with path compression.

use std::fmt;

/// Identifier of an e-class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Id(pub u32);

impl Id {
    /// The id as a usize index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl From<usize> for Id {
    fn from(v: usize) -> Self {
        Id(u32::try_from(v).expect("e-class id overflow"))
    }
}

/// Disjoint-set forest with path compression (union by arbitrary winner —
/// the e-graph chooses which root survives so it can keep class data).
#[derive(Debug, Clone, Default)]
pub struct UnionFind {
    parents: Vec<Id>,
}

impl UnionFind {
    /// Creates an empty forest.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fresh singleton set and returns its id.
    pub fn make_set(&mut self) -> Id {
        let id = Id::from(self.parents.len());
        self.parents.push(id);
        id
    }

    /// Forgets every id, keeping the capacity; the next id is 0 again.
    pub fn clear(&mut self) {
        self.parents.clear();
    }

    /// Number of ids ever created (not the number of sets).
    #[must_use]
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// Whether no ids have been created.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.parents.is_empty()
    }

    /// Finds the canonical representative without mutating.
    #[must_use]
    pub fn find(&self, mut id: Id) -> Id {
        while self.parents[id.index()] != id {
            id = self.parents[id.index()];
        }
        id
    }

    /// Finds the canonical representative, compressing paths.
    ///
    /// Uses single-pass path halving (every node on the walk is pointed at
    /// its grandparent), which touches each cache line once — measurably
    /// cheaper than two-pass compression on the e-graph's add/rebuild hot
    /// paths while giving the same amortized complexity.
    pub fn find_mut(&mut self, mut id: Id) -> Id {
        while self.parents[id.index()] != id {
            let parent = self.parents[id.index()];
            let grand = self.parents[parent.index()];
            self.parents[id.index()] = grand;
            id = grand;
        }
        id
    }

    /// Merges the set containing `loser` into the set containing `winner`.
    /// Both must already be canonical. Returns the surviving root.
    pub fn union_roots(&mut self, winner: Id, loser: Id) -> Id {
        debug_assert_eq!(self.parents[winner.index()], winner, "winner not canonical");
        debug_assert_eq!(self.parents[loser.index()], loser, "loser not canonical");
        self.parents[loser.index()] = winner;
        winner
    }

    /// Whether the two ids are in the same set.
    #[must_use]
    pub fn same(&self, a: Id, b: Id) -> bool {
        self.find(a) == self.find(b)
    }

    /// The raw parent array, for snapshot serialization.
    pub(crate) fn parents(&self) -> &[Id] {
        &self.parents
    }

    /// Rebuilds a forest from a snapshot's parent array. The caller
    /// (`EGraph::restore`) has already validated bounds and acyclicity.
    pub(crate) fn from_parents(parents: Vec<Id>) -> Self {
        UnionFind { parents }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_are_their_own_roots() {
        let mut uf = UnionFind::new();
        let a = uf.make_set();
        let b = uf.make_set();
        assert_ne!(a, b);
        assert_eq!(uf.find(a), a);
        assert_eq!(uf.find(b), b);
        assert!(!uf.same(a, b));
        assert_eq!(uf.len(), 2);
    }

    #[test]
    fn union_merges_and_compresses() {
        let mut uf = UnionFind::new();
        let ids: Vec<Id> = (0..10).map(|_| uf.make_set()).collect();
        // Chain unions: 0 <- 1 <- 2 ... keeping 0 as the winner each time.
        for w in ids.windows(2) {
            let winner = uf.find_mut(w[0]);
            let loser = uf.find_mut(w[1]);
            if winner != loser {
                uf.union_roots(winner, loser);
            }
        }
        for &id in &ids {
            assert_eq!(uf.find(id), ids[0]);
        }
        // Path compression: after find_mut every parent points at the root.
        let last = ids[9];
        uf.find_mut(last);
        assert_eq!(uf.parents[last.index()], ids[0]);
    }

    #[test]
    fn same_is_reflexive_and_transitive() {
        let mut uf = UnionFind::new();
        let a = uf.make_set();
        let b = uf.make_set();
        let c = uf.make_set();
        uf.union_roots(a, b);
        uf.union_roots(a, c);
        assert!(uf.same(b, c));
        assert!(uf.same(a, a));
    }

    #[test]
    fn display_and_from() {
        let id = Id::from(3usize);
        assert_eq!(id.to_string(), "e3");
        assert_eq!(id.index(), 3);
    }
}
