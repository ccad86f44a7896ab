//! Rules: queries (conjunctions of pattern atoms) and appliers — the
//! engine's equivalent of egglog's `rewrite` and `rule`. Every rule is pure
//! by contract (see [`Rewrite::rule`]).
//!
//! Every [`Rewrite`] compiles its [`Query`] once at construction into a
//! [`CompiledQuery`] and keeps only that; [`Rewrite::run`] searches it with
//! [`CompiledQuery::search`] and applies what it found. The naive
//! reference implementation, [`Query::search`], kept for equivalence tests
//! and the scheduler's reference mode, runs ([`Rewrite::run_naive`]) the
//! query [`CompiledQuery::decompile`] reads back from the compiled form.
//!
//! A fact a rule derives for another rule to join against (egglog's
//! relation tuple) is an ordinary e-node, and a query reads it with a
//! pattern atom rooted at a fresh variable: hash-consing dedups facts,
//! rebuilding canonicalizes them, and class epochs give their deltas.
//!
//! ## One matcher
//!
//! A compiled query is a list of pattern atoms over one shared variable
//! table and one register file, each a flat `pattern::Program`.
//! A search — private `CompiledQuery::join` — is a single depth-first walk
//! over one binding buffer: the first atom enumerates its roots; at every
//! way its program can be satisfied the walk continues *into* the next
//! atom — an atom rooted at a variable that is bound by then is just more
//! `Bind`s under that class, one rooted at a fresh variable scans its
//! operator's index row — and past the last atom the buffer is appended,
//! as one row, to the search's flat match
//! buffer (`pattern::MatchBuf`, kept in the [`MatchScratch`] from search to
//! search). Every binding is undone on the way back, so nothing is copied
//! for a candidate that does not match, and nothing is allocated for one
//! that does: [`Rewrite`] hands its applier each row through the
//! scratch's one reused [`Subst`]. Pre-order depth-first search emits
//! matches in the lexicographic (atom 0's choices, atom 1's, …) order of
//! the naive nested loops, so the compiled and naive matchers return the
//! same *sequence*.
//!
//! Every search mode is this walk with a different first step. One entry
//! point serves them all: `since: None` is a full search, `Some(epoch)` a
//! delta search against that one cutoff epoch.
//!
//! * a **full** search starts at atom 0 with its operator's whole index
//!   row;
//! * a **single-root delta** search starts at atom 0 with only the classes
//!   stamped since the cutoff;
//! * a **semi-naive round** starts at its delta atom — that atom's
//!   modified classes — and visits the others in query order from there (a
//!   conjunction's matches do not depend on the order its atoms are
//!   visited in; whether a variable occurrence binds or compares is
//!   decided at run time by whether its slot is bound).
//!
//! ## Delta search
//!
//! A delta search finds every match that did not exist when the caller's
//! cutoff was recorded. Two regimes:
//!
//! * **single-root** queries (every enumeration descends from the first
//!   atom's root — see [`CompiledQuery::delta_eligible`]) probe only the
//!   classes modified since the epoch cutoff, in one round;
//! * queries with atoms rooted at fresh variables are evaluated
//!   **semi-naively**: one round per atom, where round `i` restricts atom
//!   `i` to the classes modified since the cutoff and every other atom to
//!   its full extent. A new match must use at least one new atom-match, so
//!   the union of the rounds covers exactly the new matches; rounds over a
//!   quiescent graph are all skipped, where these queries previously
//!   re-ran a full join every pass.
//!
//! A delta probe is the atom's root-operator index row (every class, for a
//! variable root) filtered by class epoch
//! ([`crate::egraph::EGraph::modified_since`]). Every probe records how
//! many candidate rows it visited vs. skipped into the [`MatchScratch`]
//! counters.

use std::cell::OnceCell;
use std::sync::Arc;

use crate::egraph::{Analysis, EGraph};
use crate::language::Language;
use crate::pattern::{Frame, MatchBuf, MatchScratch, Pattern, Program, Subst};
use crate::unionfind::Id;

/// One atom of a rule's query, `(= var pattern)`: the class bound to `var`
/// (or every class, if `var` is unbound so far) must contain a term
/// matching `pattern`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom<L> {
    /// Variable naming the matched class.
    pub var: String,
    /// Pattern the class must contain.
    pub pattern: Pattern<L>,
}

/// A conjunctive query: atoms are solved left to right.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query<L> {
    /// Conjuncts.
    pub atoms: Vec<Atom<L>>,
}

impl<L: Language> Query<L> {
    /// Query with a single root pattern bound to `var`.
    #[must_use]
    pub fn single(var: &str, pattern: Pattern<L>) -> Self {
        Query { atoms: vec![] }.also(var, pattern)
    }

    /// Adds a `(= var pattern)` atom.
    #[must_use]
    pub fn also(mut self, var: &str, pattern: Pattern<L>) -> Self {
        self.atoms.push(Atom {
            var: var.to_string(),
            pattern,
        });
        self
    }

    /// Compiles the query: interns every variable (shared across atoms)
    /// and flattens every atom into a matcher program over one shared
    /// register file.
    ///
    /// # Panics
    ///
    /// Panics if a pattern node's operator carries a different number of
    /// placeholder children than the node has subpatterns.
    #[must_use]
    pub fn compile(&self) -> CompiledQuery<L> {
        let mut vars: Vec<String> = Vec::new();
        let mut nregs = 0;
        // Delta-eligibility: a *single* delta probe at the first atom's
        // root is sound when the only *enumeration* of classes happens
        // there, i.e. when every atom after the first constrains a
        // variable some earlier atom already bound (all bindings then
        // descend from the first root, and epoch propagation marks that
        // root whenever any of them changes). An atom rooted at a fresh
        // variable enumerates globally — not eligible; those queries are
        // delta-evaluated semi-naively instead (see `CompiledQuery::search`).
        let mut delta_eligible = !self.atoms.is_empty();
        let atoms: Vec<CompiledAtom<L>> = (self.atoms.iter().enumerate())
            .map(|(i, Atom { var, pattern })| {
                let vars_before = vars.len();
                let slot = Pattern::<L>::intern(&mut vars, var);
                if i > 0 && (slot as usize) >= vars_before {
                    delta_eligible = false;
                }
                let program = pattern.compile_into(&mut vars, &mut nregs);
                CompiledAtom { slot, program }
            })
            .collect();
        CompiledQuery {
            vars: Arc::new(vars),
            atoms,
            nregs,
            delta_eligible,
        }
    }

    /// Enumerates all substitutions satisfying the query.
    ///
    /// Naive reference implementation (string-keyed binding, full class
    /// iteration); the engine's hot path is [`CompiledQuery::search`].
    #[must_use]
    pub fn search<N: Analysis<L>>(&self, egraph: &EGraph<L, N>) -> Vec<Subst> {
        let mut substs = vec![Subst::new()];
        for Atom { var, pattern } in &self.atoms {
            let mut next = Vec::new();
            for s in &substs {
                if let Some(id) = s.get(var) {
                    for mut m in pattern.search_class(egraph, id, s) {
                        // Root var already bound; keep it.
                        let ok = m.bind(var, egraph.find(id));
                        debug_assert!(ok);
                        next.push(m);
                    }
                } else {
                    // Sorted enumeration: class-map iteration order is
                    // seeded per process; sorting makes the reference
                    // matcher's match *order* (and hence equal-cost
                    // extraction tie-breaks downstream) reproducible across
                    // runs.
                    for id in egraph.sorted_class_ids() {
                        for mut m in pattern.search_class(egraph, id, s) {
                            if m.bind(var, egraph.find(id)) {
                                next.push(m);
                            }
                        }
                    }
                }
            }
            substs = next;
            if substs.is_empty() {
                break;
            }
        }
        substs
    }
}

/// A compiled atom: its root variable as a slot into the query's table.
struct CompiledAtom<L> {
    slot: u32,
    program: Program<L>,
}

/// A [`Query`] compiled for the backtracking matcher: one shared variable
/// table and register file, one `Program` per atom.
pub struct CompiledQuery<L> {
    vars: Arc<Vec<String>>,
    atoms: Vec<CompiledAtom<L>>,
    nregs: u32,
    delta_eligible: bool,
}

/// One pass of the matcher over a query: the depth-first join described
/// in the module docs. `atom(0, …)` appends every match — one binding per
/// query variable — to `out`.
struct Join<'a, L: Language, N: Analysis<L>> {
    query: &'a CompiledQuery<L>,
    egraph: &'a EGraph<L, N>,
    /// The atom evaluated first: the delta atom of a semi-naive round,
    /// else atom 0. The others follow in query order.
    first: usize,
    /// The first atom's root enumeration (restricted to the classes
    /// stamped since the cutoff in a delta pass).
    roots: &'a [Id],
    /// Sorted class ids for variable-rooted atoms after the first,
    /// computed at most once per pass.
    all_ids: OnceCell<Vec<Id>>,
}

impl<L: Language, N: Analysis<L>> Join<'_, L, N> {
    /// Evaluates the `pos`-th atom in evaluation order against the
    /// bindings in `frame`, continuing into the next atom at each of its
    /// matches; past the last atom, `frame.vars` is a complete match.
    fn atom(&self, pos: usize, frame: &mut Frame, out: &mut MatchBuf) {
        let atoms = &self.query.atoms;
        if pos == atoms.len() {
            out.push(&frame.vars);
            return;
        }
        let index = match pos {
            0 => self.first,
            p if p <= self.first => p - 1,
            p => p,
        };
        let CompiledAtom { slot, program } = &atoms[index];
        let (slot, root_reg) = (*slot as usize, program.root as usize);
        let mut next = |frame: &mut Frame| self.atom(pos + 1, frame, out);
        if let Some(id) = frame.vars[slot] {
            // Rooted at an already-bound variable: just more binds.
            frame.regs[root_reg] = id;
            program.run(self.egraph, 0, frame, &mut next);
            return;
        }
        let roots = match (pos, program.root_key) {
            (0, _) => self.roots,
            (_, Some(key)) => self.egraph.candidates_for(key),
            (_, None) => self.all_ids.get_or_init(|| self.egraph.sorted_class_ids()),
        };
        for &root in roots {
            frame.vars[slot] = Some(root);
            frame.regs[root_reg] = root;
            program.run(self.egraph, 0, frame, &mut next);
        }
        frame.vars[slot] = None;
    }
}

impl<L: Language> CompiledQuery<L> {
    /// Whether a *single* delta probe at the first atom's root soundly
    /// finds every new match: true when all bindings descend from that
    /// root. Queries where this is false (atoms rooted at fresh variables)
    /// still support delta search, via the semi-naive rounds of
    /// [`CompiledQuery::search`].
    #[must_use]
    pub fn delta_eligible(&self) -> bool {
        self.delta_eligible
    }

    /// The query this was compiled from, read back from the compiled
    /// form: each atom's root variable and its program's pre-order code
    /// as a pattern. `q.compile().decompile() == q` for every query that
    /// compiles; the naive reference path ([`Rewrite::run_naive`]) runs
    /// it, so a rule keeps no uncompiled copy.
    #[must_use]
    pub fn decompile(&self) -> Query<L> {
        let atoms = (self.atoms.iter())
            .map(|atom| Atom {
                var: self.vars[atom.slot as usize].clone(),
                pattern: atom.program.decompile(&self.vars),
            })
            .collect();
        Query { atoms }
    }

    /// Every substitution satisfying the query, through the operator
    /// index. With `since: None`, a full search: the same sequence as
    /// [`Query::search`]. With `since: Some(cutoff)` — `cutoff` from
    /// [`EGraph::bump_epoch`] — every match that did not exist when the
    /// cutoff was recorded: a single delta probe for
    /// delta-eligible queries, semi-naive rounds (one per atom) otherwise.
    /// A delta search may return a match that already existed (delta
    /// probes over-approximate); appliers are idempotent, so re-applying
    /// is harmless. A full search counts the rows it enumerates, a delta
    /// search the rows it probes and skips, into `scratch`'s probe
    /// counters.
    #[must_use]
    pub fn search<N: Analysis<L>>(
        &self,
        egraph: &EGraph<L, N>,
        since: Option<u64>,
        scratch: &mut MatchScratch,
    ) -> Vec<Subst> {
        self.find(egraph, since, scratch);
        self.substs(&scratch.matches)
    }

    /// [`CompiledQuery::search`] into the emptied `scratch.matches`. A full
    /// search is one pass from atom 0; so is a delta search of a
    /// delta-eligible query, its root enumeration restricted to the
    /// classes stamped since the cutoff. Anything else is evaluated
    /// semi-naively, one pass per atom: round `i` restricts atom `i` to its
    /// delta, and the join *starts* from that delta, so a round costs work
    /// proportional to its delta — not a full re-join. A match is found by
    /// round `i` iff atom `i`'s contribution is new, so the union over
    /// rounds covers every new match. On a graph no class of which changed
    /// since the cutoff every round is skipped, which is what makes
    /// quiescent passes free.
    ///
    /// The rounds' rows are merged by a total-order sort and a dedup
    /// (matches with several new atoms are found by several rounds), so
    /// the result is a pure function of the match *set*.
    fn find<N: Analysis<L>>(
        &self,
        egraph: &EGraph<L, N>,
        since: Option<u64>,
        scratch: &mut MatchScratch,
    ) {
        scratch.matches.reset(self.vars.len());
        let Some(cutoff) = since.filter(|_| !self.delta_eligible) else {
            return self.pass(egraph, 0, since, scratch);
        };
        if egraph.any_modified_since(cutoff) {
            for first in 0..self.atoms.len() {
                self.pass(egraph, first, since, scratch);
            }
        }
        scratch.matches.sort_dedup();
    }

    /// The matches a search left in its buffer, as owned substitutions.
    fn substs(&self, matches: &MatchBuf) -> Vec<Subst> {
        (0..matches.len())
            .map(|i| Subst::from_bindings(Arc::clone(&self.vars), matches.row(i).to_vec()))
            .collect()
    }

    /// The root enumeration of the pass's first atom (atom `first`): its
    /// operator's index row (every class, ascending, for a variable root)
    /// in a full pass; in a delta pass, the classes of that enumeration
    /// stamped at or after `since` — with the probe counters (full or
    /// delta) recorded on `scratch`, once.
    ///
    /// An index row is returned borrowed from the graph; every other
    /// enumeration is left in `scratch.roots` and `None` returned.
    fn first_roots<'a, N: Analysis<L>>(
        &self,
        egraph: &'a EGraph<L, N>,
        first: usize,
        since: Option<u64>,
        scratch: &mut MatchScratch,
    ) -> Option<&'a [Id]> {
        let root_key = self.atoms[first].program.root_key;
        match since {
            None => {
                let row = root_key.map(|key| egraph.candidates_for(key));
                // Every class is at epoch 0 or later.
                let rows = row.map_or_else(
                    || egraph.modified_since(None, 0, &mut scratch.roots),
                    <[Id]>::len,
                );
                scratch.record_full(rows);
                row
            }
            Some(cutoff) => {
                let universe = egraph.modified_since(root_key, cutoff, &mut scratch.roots);
                scratch.record_probe(scratch.roots.len(), universe);
                None
            }
        }
    }

    /// One pass, evaluated from atom `first` and, with `since`, restricted
    /// to that atom's delta (see the module docs): the first atom's
    /// enumeration, then the depth-first join, its matches appended to
    /// `scratch.matches`.
    fn pass<N: Analysis<L>>(
        &self,
        egraph: &EGraph<L, N>,
        first: usize,
        since: Option<u64>,
        scratch: &mut MatchScratch,
    ) {
        debug_assert!(egraph.is_clean(), "search requires a rebuilt e-graph");
        let index_row = self.first_roots(egraph, first, since, scratch);
        let MatchScratch {
            frame,
            matches,
            roots,
            ..
        } = scratch;
        let join = Join {
            query: self,
            egraph,
            first,
            roots: index_row.unwrap_or(roots),
            all_ids: OnceCell::new(),
        };
        frame.reset(self.vars.len(), self.nregs as usize);
        join.atom(0, frame, matches);
    }
}

/// Action run on each match; returns whether the e-graph changed — a new
/// fact node counts — since a fixpoint ends at a pass no action changed.
pub type ApplyFn<L, N> = Box<dyn Fn(&mut EGraph<L, N>, &Subst) -> bool + Send + Sync>;

/// A named rule: query → action.
pub struct Rewrite<L: Language, N: Analysis<L> = ()> {
    /// Rule name (for reports).
    pub name: String,
    /// Query side, compiled: the indexed path [`Rewrite::run`] searches,
    /// and what the naive path decompiles.
    pub compiled: CompiledQuery<L>,
    /// Action side.
    pub applier: ApplyFn<L, N>,
}

impl<L: Language + 'static, N: Analysis<L>> Rewrite<L, N> {
    /// A `rewrite lhs => rhs` rule: matches `lhs` anywhere and unions the
    /// matched class with the instantiated `rhs`.
    ///
    /// # Panics
    ///
    /// Panics, naming the rule, if a node of `rhs` has a different number
    /// of subpatterns than its operator has placeholder children — the
    /// check [`Query::compile`] makes of `lhs`.
    #[allow(clippy::self_named_constructors)] // egg's established API name
    pub fn rewrite(name: &str, lhs: Pattern<L>, rhs: Pattern<L>) -> Self {
        if let Some(why) = rhs.malformed() {
            panic!("rule {name}: malformed right-hand side: {why}");
        }
        Self::rule(
            name,
            Query::single("$root", lhs),
            Box::new(move |egraph, subst| {
                let root_id = subst.get("$root").expect("root bound by query");
                let new_id = rhs.instantiate(egraph, subst);
                egraph.union(root_id, new_id).1
            }),
        )
    }

    /// A general rule with an arbitrary action.
    ///
    /// Every rule is **pure** by contract: its applier reads only its
    /// match — the matched classes' e-nodes and analysis data — never
    /// other classes, and it writes only monotonically (adds and unions).
    /// The scheduler relies on it: a rule whose matched classes did not
    /// change since it last ran would find the same matches and change
    /// nothing, so it is skipped, and every run after the first is a delta
    /// search. An applier that read global state could miss a match that
    /// state later enables; a rule that needs global state puts it in its
    /// query as a pattern atom over a fact node, which another rule adds.
    /// Every rule `hardboiled` ships keeps the contract: its appliers read
    /// only their match's bound classes and those classes' analysis data,
    /// and only add and union.
    pub fn rule(name: &str, query: Query<L>, applier: ApplyFn<L, N>) -> Self {
        Rewrite {
            name: name.to_string(),
            compiled: query.compile(),
            applier,
        }
    }
}

impl<L: Language, N: Analysis<L>> Rewrite<L, N> {
    /// Applies one match; returns whether it changed the graph.
    fn apply(&self, egraph: &mut EGraph<L, N>, m: &Subst) -> bool {
        (self.applier)(egraph, m)
    }

    /// Applies the matches the compiled query's last search left in
    /// `scratch`, in their order, each loaded into the scratch's one
    /// substitution; returns how many changed the graph.
    fn apply_matches(&self, egraph: &mut EGraph<L, N>, scratch: &mut MatchScratch) -> usize {
        let MatchScratch { matches, subst, .. } = scratch;
        (0..matches.len())
            .filter(|&i| {
                subst.load(&self.compiled.vars, matches.row(i));
                self.apply(egraph, subst)
            })
            .count()
    }

    /// Runs the rule once: searches the compiled query — in full with
    /// `since: None`, else for the matches new since the cutoff (see
    /// [`CompiledQuery::search`]) — then applies every match, in order.
    /// Returns the number of matches that changed the graph. Rebuilds first
    /// if the graph is dirty, but does **not** rebuild after applying. The
    /// scheduler threads one scratch through every run and keeps the
    /// cutoff bookkeeping — see `schedule::Runner`.
    pub fn run(
        &self,
        egraph: &mut EGraph<L, N>,
        since: Option<u64>,
        scratch: &mut MatchScratch,
    ) -> usize {
        if !egraph.is_clean() {
            egraph.rebuild();
        }
        self.compiled.find(egraph, since, scratch);
        self.apply_matches(egraph, scratch)
    }

    /// Like [`Rewrite::run`] in full, but with the naive matcher over the
    /// decompiled query — the reference path. Returns `(matches found,
    /// matches that changed the graph)`.
    pub fn run_naive(&self, egraph: &mut EGraph<L, N>) -> (usize, usize) {
        if !egraph.is_clean() {
            egraph.rebuild();
        }
        let matches = self.compiled.decompile().search(egraph);
        let changed = matches.iter().filter(|m| self.apply(egraph, m)).count();
        (matches.len(), changed)
    }
}

/// Convenience: looks up the id bound to `var`, panicking with the rule
/// context if missing.
#[must_use]
pub fn bound(subst: &Subst, var: &str) -> Id {
    subst
        .get(var)
        .unwrap_or_else(|| panic!("query did not bind ?{var}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math_lang::{n, padd, pdiv, pmul, pshl, pvar, Math};

    type EG = EGraph<Math, ()>;

    #[test]
    fn rewrite_commutes_addition() {
        let mut eg = EG::new();
        let a = eg.add(Math::Sym("a".into()));
        let b = eg.add(Math::Sym("b".into()));
        let ab = eg.add(Math::Add([a, b]));
        let ba = eg.add(Math::Add([b, a]));
        assert_ne!(eg.find(ab), eg.find(ba));
        let comm = Rewrite::<Math>::rewrite(
            "comm-add",
            padd(pvar("x"), pvar("y")),
            padd(pvar("y"), pvar("x")),
        );
        comm.run(&mut eg, None, &mut MatchScratch::new());
        eg.rebuild();
        assert_eq!(eg.find(ab), eg.find(ba));
    }

    #[test]
    fn fig1_example_a_times_2_div_2() {
        // Paper Fig. 1: rules (a×2)÷2 → a×(2÷2), 2÷2 → 1, a×1 → a.
        let mut eg = EG::new();
        let a = eg.add(Math::Sym("a".into()));
        let two = eg.add(Math::Num(2));
        let m = eg.add(Math::Mul([a, two]));
        let d = eg.add(Math::Div([m, two]));

        let r1 = Rewrite::<Math>::rewrite(
            "assoc",
            pdiv(pmul(pvar("a"), pvar("b")), pvar("c")),
            pmul(pvar("a"), pdiv(pvar("b"), pvar("c"))),
        );
        let r2 = Rewrite::<Math>::rewrite("div-self", pdiv(n(2), n(2)), n(1));
        let r3 = Rewrite::<Math>::rewrite("mul-one", pmul(pvar("a"), n(1)), pvar("a"));

        let scratch = &mut MatchScratch::new();
        for _ in 0..4 {
            r1.run(&mut eg, None, scratch);
            r2.run(&mut eg, None, scratch);
            r3.run(&mut eg, None, scratch);
            eg.rebuild();
        }
        assert_eq!(eg.find(d), eg.find(a), "(a*2)/2 must equal a");
    }

    #[test]
    fn multi_atom_query_with_a_fact_atom() {
        // rule: (= e (x * y)) ∧ (= g (y << y))  ⇒  (e + e), where the fact
        // `good(y)` is the node `y << y` and `marked(e)` the node `e + e`.
        let mut eg = EG::new();
        let a = eg.add(Math::Sym("a".into()));
        let b = eg.add(Math::Sym("b".into()));
        let two = eg.add(Math::Num(2));
        let m_good = eg.add(Math::Mul([a, two]));
        let _m_bad = eg.add(Math::Mul([a, b]));
        eg.add(Math::Shl([two, two]));

        let rule = Rewrite::<Math>::rule(
            "mark-good-products",
            Query::single("e", pmul(pvar("x"), pvar("y"))).also("g", pshl(pvar("y"), pvar("y"))),
            Box::new(|eg, s| {
                let e = bound(s, "e");
                let marked = eg.num_classes();
                eg.add(Math::Add([e, e]));
                eg.num_classes() > marked
            }),
        );
        assert_eq!(rule.run(&mut eg, None, &mut MatchScratch::new()), 1);
        eg.rebuild();
        assert!(eg.lookup(&Math::Add([m_good, m_good])).is_some());
        assert_eq!(rule.run(&mut eg, None, &mut MatchScratch::new()), 0);
    }

    #[test]
    fn fact_atom_enumerates_unbound_vars() {
        // `pair(x, y)` as the node `x / y`.
        let mut eg = EG::new();
        let a = eg.add(Math::Sym("a".into()));
        let b = eg.add(Math::Sym("b".into()));
        eg.add(Math::Div([a, b]));
        eg.add(Math::Div([b, a]));
        for (pattern, want) in [
            (pdiv(pvar("x"), pvar("y")), 2),
            // Non-linear: pair(x, x) matches nothing.
            (pdiv(pvar("x"), pvar("x")), 0),
        ] {
            let q = Query::single("p", pattern);
            assert_eq!(q.search(&eg).len(), want);
            let compiled = q.compile().search(&eg, None, &mut MatchScratch::new());
            assert_eq!(compiled.len(), want);
        }
    }

    #[test]
    fn bound_pattern_atom_constrains_existing_binding() {
        // (= e (x * 2)) ∧ (= x (p + q)) — second atom searched inside x.
        let mut eg = EG::new();
        let p = eg.add(Math::Sym("p".into()));
        let q = eg.add(Math::Sym("q".into()));
        let sum = eg.add(Math::Add([p, q]));
        let two = eg.add(Math::Num(2));
        let _m = eg.add(Math::Mul([sum, two]));
        let plain = eg.add(Math::Sym("z".into()));
        let _m2 = eg.add(Math::Mul([plain, two]));

        let query = Query::single("e", pmul(pvar("x"), n(2))).also("x", padd(pvar("p"), pvar("q")));
        for results in [
            query.search(&eg),
            query.compile().search(&eg, None, &mut MatchScratch::new()),
        ] {
            assert_eq!(results.len(), 1, "only the sum-operand product matches");
            assert_eq!(results[0].get("p"), Some(p));
            assert_eq!(results[0].get("q"), Some(q));
        }
    }

    #[test]
    fn compiled_query_matches_naive_on_all_atom_shapes() {
        let mut eg = EG::new();
        let a = eg.add(Math::Sym("a".into()));
        let b = eg.add(Math::Sym("b".into()));
        let two = eg.add(Math::Num(2));
        let m1 = eg.add(Math::Mul([a, two]));
        let _m2 = eg.add(Math::Mul([b, two]));
        let _s = eg.add(Math::Add([m1, b]));
        eg.add(Math::Shl([two, two]));
        eg.add(Math::Shl([b, b]));

        let queries: Vec<Query<Math>> = vec![
            Query::single("e", pmul(pvar("x"), pvar("y"))),
            Query::single("e", pmul(pvar("x"), n(2))),
            Query::single("e", pvar("e")),
            Query::single("e", pmul(pvar("x"), pvar("y"))).also("g", pshl(pvar("y"), pvar("y"))),
            Query::single("e", padd(pvar("x"), pvar("y"))).also("x", pmul(pvar("p"), pvar("q"))),
        ];
        for q in &queries {
            let naive = q.search(&eg);
            let compiled = q.compile().search(&eg, None, &mut MatchScratch::new());
            assert_eq!(naive.len(), compiled.len());
            for m in &naive {
                assert!(compiled.contains(m), "compiled missed {m:?}");
            }
        }
    }

    #[test]
    fn a_compiled_query_decompiles_to_itself() {
        let queries: Vec<Query<Math>> = vec![
            Query::single("e", pvar("e")),
            Query::single("e", pmul(pvar("x"), n(2))),
            Query::single("e", pdiv(pmul(pvar("a"), pvar("b")), pvar("a")))
                .also("g", pshl(pvar("b"), pvar("b")))
                .also("a", padd(pvar("p"), n(0))),
        ];
        for q in queries {
            assert_eq!(q.compile().decompile(), q);
        }
    }

    /// `(x * ?)`: a product whose op carries two placeholder children but
    /// which has one subpattern.
    fn one_armed_product() -> Pattern<Math> {
        Pattern::Node(Math::Mul([Id(0), Id(0)]), vec![pvar("x")])
    }

    #[test]
    #[should_panic(expected = "operator `*` carries 2 placeholder children but has 1 subpatterns")]
    fn a_query_op_with_more_placeholders_than_subpatterns_fails_to_compile() {
        let _ = Query::single("e", padd(one_armed_product(), pvar("y"))).compile();
    }

    #[test]
    #[should_panic(expected = "operator `2` carries 0 placeholder children but has 1 subpatterns")]
    fn a_query_op_with_fewer_placeholders_than_subpatterns_fails_to_compile() {
        let _ = Query::single("e", Pattern::Node(Math::Num(2), vec![pvar("x")])).compile();
    }

    #[test]
    #[should_panic(expected = "rule short-rhs: malformed right-hand side: operator `*` \
                               carries 2 placeholder children but has 1 subpatterns")]
    fn a_rewrite_rejects_an_rhs_op_with_more_placeholders_than_subpatterns() {
        let _ = Rewrite::<Math>::rewrite("short-rhs", pmul(pvar("x"), n(1)), one_armed_product());
    }

    #[test]
    #[should_panic(expected = "rule long-rhs: malformed right-hand side: operator `/` \
                               carries 2 placeholder children but has 3 subpatterns")]
    fn a_rewrite_rejects_an_rhs_op_with_fewer_placeholders_than_subpatterns() {
        let rhs = Pattern::Node(Math::Div([Id(0), Id(0)]), vec![pvar("x"), n(1), pvar("x")]);
        let _ = Rewrite::<Math>::rewrite("long-rhs", pmul(pvar("x"), n(1)), padd(pvar("x"), rhs));
    }

    #[test]
    fn delta_search_sees_only_new_matches() {
        let mut eg = EG::new();
        let a = eg.add(Math::Sym("a".into()));
        let two = eg.add(Math::Num(2));
        let _m = eg.add(Math::Mul([a, two]));
        eg.rebuild();
        let q = Query::single("e", pmul(pvar("x"), pvar("y"))).compile();
        assert!(q.delta_eligible());
        let mut scratch = MatchScratch::new();
        // Full search finds the existing product.
        assert_eq!(q.search(&eg, None, &mut scratch).len(), 1);
        let since = Some(eg.bump_epoch());
        // Nothing changed since the cutoff: delta search is empty.
        assert!(q.search(&eg, since, &mut scratch).is_empty());
        // A new product appears: delta search reports exactly it.
        let b = eg.add(Math::Sym("b".into()));
        let mb = eg.add(Math::Mul([b, two]));
        eg.rebuild();
        let delta = q.search(&eg, since, &mut scratch);
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].get("e"), Some(eg.find(mb)));
    }

    #[test]
    fn one_cutoff_reads_new_and_recanonicalized_facts() {
        // Facts are e-nodes, so the epoch that cuts off class changes cuts
        // off fact changes too, whether the fact node is added or its
        // children are recanonicalized by a union.
        let mut eg = EG::new();
        let a = eg.add(Math::Sym("a".into()));
        let b = eg.add(Math::Sym("b".into()));
        let two = eg.add(Math::Num(2));
        let m = eg.add(Math::Mul([a, two]));
        let pair = eg.add(Math::Div([a, b]));
        eg.rebuild();
        let even = Query::single("e", pmul(pvar("x"), pvar("y")))
            .also("g", pshl(pvar("y"), pvar("y")))
            .compile();
        assert!(!even.delta_eligible());
        let mut scratch = MatchScratch::new();
        let cutoff = eg.bump_epoch();
        assert!(
            !eg.any_modified_since(cutoff),
            "nothing stamped since the bump"
        );
        assert!(even.search(&eg, Some(cutoff), &mut scratch).is_empty());
        // A new fact alone — no old class changed — is a change a rule sees.
        eg.add(Math::Shl([two, two]));
        eg.rebuild();
        assert!(eg.any_modified_since(cutoff));
        let delta = even.search(&eg, Some(cutoff), &mut scratch);
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].get("e"), Some(m));
        // A union rewrites the old `pair` fact's children: restamped at
        // the current epoch, it is new to the same cutoff.
        let div_key = Some(Math::Div([Id(0), Id(0)]).op_key());
        let mut changed = Vec::new();
        eg.modified_since(div_key, cutoff, &mut changed);
        assert!(changed.is_empty());
        eg.union(a, b);
        eg.rebuild();
        eg.modified_since(div_key, cutoff, &mut changed);
        assert_eq!(changed, vec![eg.find(pair)]);
        let self_pairs = Query::single("e", pmul(pvar("x"), pvar("y")))
            .also("p", pdiv(pvar("z"), pvar("z")))
            .compile();
        let delta = self_pairs.search(&eg, Some(cutoff), &mut scratch);
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].get("z"), Some(eg.find(a)));
    }
}
