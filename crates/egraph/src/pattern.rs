//! Patterns and e-matching.
//!
//! A [`Pattern`] is a term with named holes. Matching has two
//! implementations with identical semantics — the same matches in the
//! same order:
//!
//! * the **compiled backtracking matcher**, reached through
//!   [`crate::rewrite::Query::compile`] — a compiled single-pattern search
//!   is `Query::single(var, pattern).compile()`. Compilation interns
//!   variables to `u32` slots and flattens each pattern, in pre-order, into
//!   a `Program` of two
//!   instructions over a register file of e-class ids: `Bind` enumerates
//!   the e-nodes of the class in one register that carry a given operator
//!   and loads their children into fresh registers; `Var` compares a
//!   register with a variable's binding, or binds the variable if it has
//!   none yet. `Program::run` executes it depth-first over one
//!   `Frame` (registers + variable slots), undoing each binding on the
//!   way back, and calls its continuation at every complete match — no
//!   binding row is copied or allocated while a candidate is explored.
//!   Whole-graph searches enumerate only the classes the e-graph's
//!   operator index reports for the root's
//!   [`crate::language::Language::op_key`]. A query
//!   ([`crate::rewrite::CompiledQuery`]) chains one program per pattern
//!   atom through the continuation, so one matcher serves every query
//!   shape in every search mode;
//! * the **naive reference matcher** ([`Pattern::search`] /
//!   [`Pattern::search_class`]): the original walk over every class,
//!   kept verbatim as the oracle for equivalence tests and the
//!   scheduler's reference mode (`Runner::use_naive_matcher`), which runs
//!   each rule's query decompiled from its compiled form
//!   ([`crate::rewrite::CompiledQuery::decompile`]): a rule holds no
//!   second, uncompiled copy. Pre-order depth-first search visits matches
//!   in exactly the lexicographic (e-node, child 0, child 1, …) order of
//!   its nested loops.
//!
//! A node's arity is its operator's: `Bind` reads it off the op's
//! placeholder children, so a pattern whose op carries a different number
//! of placeholders than it has subpatterns is rejected when it is
//! compiled, and a rewrite's right-hand side when the rule is built.
//!
//! [`Subst`] keeps its string-keyed API ([`Subst::get`], [`Subst::bind`])
//! as a compatibility shim for rule appliers; internally it is a shared
//! variable table plus a dense slot→binding vector.
//!
//! Every compiled search takes a [`MatchScratch`] — the frame's buffers,
//! the flat buffer a search writes its matches to, the delta-probe
//! enumeration, the one [`Subst`] matches are handed to appliers through,
//! and the delta-probe counters. Callers that search in a loop (the
//! scheduler, above all) hold one for the whole run (a compile session:
//! across runs); a one-off search passes a fresh one.

use std::sync::Arc;

use crate::egraph::{Analysis, EGraph};
use crate::language::Language;
use crate::unionfind::Id;

/// The matcher's working state: one register file and one binding buffer,
/// mutated in place as [`Program::run`] descends and restored as it
/// backtracks.
#[derive(Debug, Default)]
pub(crate) struct Frame {
    /// Variable slot → bound class. A row is copied out of here only at a
    /// complete match.
    pub(crate) vars: Vec<Option<Id>>,
    /// Register → class under inspection (pattern roots and the children
    /// `Bind` loaded). Always canonical: every id comes from a root
    /// enumeration or a node list of a rebuilt graph.
    pub(crate) regs: Vec<Id>,
}

impl Frame {
    /// Clears every binding and sizes the frame for a query with `nvars`
    /// variables and `nregs` registers.
    pub(crate) fn reset(&mut self, nvars: usize, nregs: usize) {
        self.vars.clear();
        self.vars.resize(nvars, None);
        self.regs.clear();
        self.regs.resize(nregs, Id(0));
    }
}

/// The complete matches of one search, written row after row — each
/// `width` bindings wide — into one flat buffer that is reused from search
/// to search; `order` lists the rows in the sequence they are to be read
/// (and counts them, which a flat buffer of zero-width rows could not).
#[derive(Debug, Default)]
pub(crate) struct MatchBuf {
    width: usize,
    flat: Vec<Option<Id>>,
    order: Vec<u32>,
}

impl MatchBuf {
    /// Forgets every row; the next rows are `width` bindings wide.
    pub(crate) fn reset(&mut self, width: usize) {
        self.width = width;
        self.flat.clear();
        self.order.clear();
    }

    /// Appends one match.
    pub(crate) fn push(&mut self, row: &[Option<Id>]) {
        debug_assert_eq!(row.len(), self.width);
        self.order
            .push(u32::try_from(self.order.len()).expect("fewer than 2^32 matches per search"));
        self.flat.extend_from_slice(row);
    }

    /// Number of matches.
    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    /// The `i`-th match in reading order.
    pub(crate) fn row(&self, i: usize) -> &[Option<Id>] {
        let at = self.order[i] as usize * self.width;
        &self.flat[at..at + self.width]
    }

    /// Puts the rows in their total order and drops repeats, so the
    /// sequence read is a pure function of the match *set*.
    pub(crate) fn sort_dedup(&mut self) {
        let (flat, width) = (&self.flat, self.width);
        let row = |i: u32| &flat[i as usize * width..(i as usize + 1) * width];
        self.order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
        self.order.dedup_by(|a, b| row(*a) == row(*b));
    }
}

/// Reusable state for the compiled matcher. One scratch per saturation run
/// — or per compile context, across runs — keeps the `Frame` buffers, the
/// match buffer and the probe enumeration alive across candidates, atoms,
/// rules and passes; it is language-independent, so one serves every rule
/// in a rule set.
///
/// The scratch doubles as the **probe counter** carrier: it is the one
/// `&mut` context already threaded through every search, so the matcher
/// accumulates how many candidate rows its full searches enumerated and
/// its delta probes actually visited (vs. how many the probed operators'
/// index rows hold in total) without widening any search signature. The
/// scheduler drains the counters into its `RunReport` via
/// [`MatchScratch::take_probe_counters`].
#[derive(Debug, Default)]
pub struct MatchScratch {
    pub(crate) frame: Frame,
    /// Where a search leaves its matches.
    pub(crate) matches: MatchBuf,
    /// The root enumeration of a delta probe (filled by
    /// `EGraph::modified_since` instead of a fresh vector per probe).
    pub(crate) roots: Vec<Id>,
    /// The substitution each match is loaded into for its applier — one,
    /// reused, instead of a clone per match.
    pub(crate) subst: Subst,
    /// Candidate classes enumerated by full searches since the last drain.
    full_rows: usize,
    /// Candidate classes enumerated by delta probes since the last drain.
    probed_rows: usize,
    /// Candidate classes delta probes did *not* have to visit: the probed
    /// operators' remaining index-row entries, whose classes were quiet.
    skipped_rows: usize,
}

impl MatchScratch {
    /// An empty scratch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one full search's enumeration of `rows` candidate classes.
    pub(crate) fn record_full(&mut self, rows: usize) {
        self.full_rows += rows;
    }

    /// Records one delta probe: `probed` candidates enumerated out of a
    /// `universe` of classes the probed operator's index row holds (all
    /// classes, for a variable-rooted probe).
    pub(crate) fn record_probe(&mut self, probed: usize, universe: usize) {
        self.probed_rows += probed;
        self.skipped_rows += universe.saturating_sub(probed);
    }

    /// Returns the `(full, probed, skipped)` row counts accumulated by full
    /// searches and delta probes since the last call, resetting all three.
    pub fn take_probe_counters(&mut self) -> (usize, usize, usize) {
        let out = (self.full_rows, self.probed_rows, self.skipped_rows);
        self.full_rows = 0;
        self.probed_rows = 0;
        self.skipped_rows = 0;
        out
    }
}

/// A substitution from pattern variable names to e-class ids.
///
/// Internally: `vars` is the (shared, interned) slot→name table and
/// `bindings` the dense slot→id table. The string-keyed methods resolve
/// names by scanning `vars` — patterns bind a handful of variables, so a
/// linear scan beats hashing, and the hot matching paths never touch
/// strings at all (they go through slots).
#[derive(Debug, Clone, Default)]
pub struct Subst {
    vars: Arc<Vec<String>>,
    bindings: Vec<Option<Id>>,
}

impl Subst {
    /// Empty substitution.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A substitution over `vars` with the given slot bindings.
    pub(crate) fn from_bindings(vars: Arc<Vec<String>>, bindings: Vec<Option<Id>>) -> Self {
        debug_assert_eq!(vars.len(), bindings.len());
        Subst { vars, bindings }
    }

    /// Makes this the substitution of one match: `vars`' names bound to
    /// `row`. Reuses the binding vector (and shares the name table).
    pub(crate) fn load(&mut self, vars: &Arc<Vec<String>>, row: &[Option<Id>]) {
        debug_assert_eq!(vars.len(), row.len());
        if !Arc::ptr_eq(&self.vars, vars) {
            self.vars = Arc::clone(vars);
        }
        self.bindings.clear();
        self.bindings.extend_from_slice(row);
    }

    fn slot_of(&self, var: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == var)
    }

    /// The id bound to `var`, if any.
    #[must_use]
    pub fn get(&self, var: &str) -> Option<Id> {
        self.slot_of(var).and_then(|s| self.bindings[s])
    }

    /// Binds `var` to `id`; returns false (leaving the subst unchanged) if
    /// `var` is already bound to a different id.
    pub fn bind(&mut self, var: &str, id: Id) -> bool {
        match self.slot_of(var) {
            Some(s) => match self.bindings[s] {
                Some(existing) => existing == id,
                None => {
                    self.bindings[s] = Some(id);
                    true
                }
            },
            None => {
                Arc::make_mut(&mut self.vars).push(var.to_string());
                self.bindings.push(Some(id));
                true
            }
        }
    }

    /// Iterates over bound `(name, id)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Id)> {
        self.vars
            .iter()
            .zip(self.bindings.iter())
            .filter_map(|(v, b)| b.as_ref().map(|id| (v, id)))
    }

    /// Number of bound variables.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bindings.iter().filter(|b| b.is_some()).count()
    }

    /// Whether no variables are bound.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sorted bound pairs — the semantic content of the substitution.
    fn sorted_pairs(&self) -> Vec<(&str, Id)> {
        let mut out: Vec<(&str, Id)> = self.iter().map(|(v, &id)| (v.as_str(), id)).collect();
        out.sort_unstable();
        out
    }
}

/// Substitutions compare by their bound `(name, id)` sets, regardless of
/// slot order or which matcher produced them.
impl PartialEq for Subst {
    fn eq(&self, other: &Self) -> bool {
        self.sorted_pairs() == other.sorted_pairs()
    }
}

impl Eq for Subst {}

/// A pattern over language `L`.
///
/// `Node(op, subpatterns)`: the `op`'s own child ids are placeholders and
/// ignored; only its operator/payload is compared (via
/// [`Language::matches_op`]). The real children are the subpatterns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pattern<L> {
    /// A hole, matching any e-class and binding it to a name.
    Var(String),
    /// An operator application.
    Node(L, Vec<Pattern<L>>),
}

/// One instruction of a compiled pattern (see the module docs).
#[derive(Debug, Clone)]
pub(crate) enum Instr<L> {
    /// For every e-node of the class in `regs[reg]` whose operator matches
    /// `op` and that has as many children as `op` has placeholder children
    /// (its arity): load the children into `regs[out..out + arity]` and
    /// continue.
    Bind { reg: u32, out: u32, op: L },
    /// The class in `regs[reg]` must be variable `slot`'s binding; binds
    /// the variable (until backtracking) if it has none.
    Var { reg: u32, slot: u32 },
}

/// A pattern flattened for the backtracking matcher. Registers are
/// numbered by the caller's counter, so the programs of one query's atoms
/// never share a register and can run nested inside each other.
#[derive(Debug, Clone)]
pub(crate) struct Program<L> {
    /// Register the caller loads the root class into.
    pub(crate) root: u32,
    /// The root operator's index key; `None` for variable roots (which
    /// match every class and cannot use the index).
    pub(crate) root_key: Option<u64>,
    code: Box<[Instr<L>]>,
}

impl<L: Language> Program<L> {
    /// Runs the program from instruction `pc` against the classes loaded
    /// in `frame`, calling `on_match` — with the frame holding that
    /// match's bindings — once per way the remaining instructions can be
    /// satisfied, in pre-order. The frame's bindings are back to their
    /// entry state on return.
    pub(crate) fn run<N: Analysis<L>>(
        &self,
        egraph: &EGraph<L, N>,
        pc: usize,
        frame: &mut Frame,
        on_match: &mut dyn FnMut(&mut Frame),
    ) {
        match self.code.get(pc) {
            None => on_match(frame),
            Some(&Instr::Var { reg, slot }) => {
                let id = frame.regs[reg as usize];
                debug_assert_eq!(id, egraph.find(id), "registers hold canonical ids");
                match frame.vars[slot as usize] {
                    Some(bound) => {
                        if bound == id {
                            self.run(egraph, pc + 1, frame, on_match);
                        }
                    }
                    None => {
                        frame.vars[slot as usize] = Some(id);
                        self.run(egraph, pc + 1, frame, on_match);
                        frame.vars[slot as usize] = None;
                    }
                }
            }
            Some(Instr::Bind { reg, out, op }) => {
                let (out, arity) = (*out as usize, op.children().len());
                for node in &egraph.class(frame.regs[*reg as usize]).nodes {
                    if node.matches_op(op) && node.children().len() == arity {
                        frame.regs[out..out + arity].copy_from_slice(node.children());
                        self.run(egraph, pc + 1, frame, on_match);
                    }
                }
            }
        }
    }

    /// The pattern this program was compiled from, its variables named by
    /// `vars` (the query's table): the pre-order code read back, each
    /// `Bind` heading as many subpatterns as its op has placeholder
    /// children.
    pub(crate) fn decompile(&self, vars: &[String]) -> Pattern<L> {
        let mut code = self.code.iter();
        let pattern = Self::read(&mut code, vars);
        debug_assert!(code.next().is_none(), "a program is one pattern");
        pattern
    }

    /// Reads one pattern off the front of `code`.
    fn read(code: &mut std::slice::Iter<'_, Instr<L>>, vars: &[String]) -> Pattern<L> {
        match code.next().expect("a program is one whole pattern") {
            Instr::Var { slot, .. } => Pattern::Var(vars[*slot as usize].clone()),
            Instr::Bind { op, .. } => {
                let children = (op.children().iter())
                    .map(|_| Self::read(code, vars))
                    .collect();
                Pattern::Node(op.clone(), children)
            }
        }
    }
}

impl<L: Language> Pattern<L> {
    /// A variable pattern.
    #[must_use]
    pub fn var(name: &str) -> Self {
        Pattern::Var(name.to_string())
    }

    /// Interns a variable into `vars`, returning its slot. Shared with
    /// `Query::compile` so pattern and query interning cannot diverge.
    pub(crate) fn intern(vars: &mut Vec<String>, name: &str) -> u32 {
        let slot = match vars.iter().position(|v| v == name) {
            Some(s) => s,
            None => {
                vars.push(name.to_string());
                vars.len() - 1
            }
        };
        u32::try_from(slot).expect("pattern variable slot overflow")
    }

    /// Compiles the body against a query's shared variable table and
    /// register counter (a query's atoms share bindings and must not share
    /// registers).
    pub(crate) fn compile_into(&self, vars: &mut Vec<String>, nregs: &mut u32) -> Program<L> {
        let root = *nregs;
        *nregs += 1;
        let mut code = Vec::new();
        self.emit(root, vars, nregs, &mut code);
        Program {
            root,
            root_key: match self {
                Pattern::Var(_) => None,
                Pattern::Node(op, _) => Some(op.op_key()),
            },
            code: code.into_boxed_slice(),
        }
    }

    /// Emits, in pre-order, the instructions matching `self` against
    /// register `reg`.
    fn emit(&self, reg: u32, vars: &mut Vec<String>, nregs: &mut u32, code: &mut Vec<Instr<L>>) {
        match self {
            Pattern::Var(v) => code.push(Instr::Var {
                reg,
                slot: Self::intern(vars, v),
            }),
            Pattern::Node(op, children) => {
                if let Some(why) = Self::arity_mismatch(op, children.len()) {
                    panic!("cannot compile a malformed pattern: {why}");
                }
                let out = *nregs;
                let arity = u32::try_from(children.len()).expect("pattern arity overflow");
                *nregs = out.checked_add(arity).expect("pattern register overflow");
                code.push(Instr::Bind {
                    reg,
                    out,
                    op: op.clone(),
                });
                for (r, c) in (out..).zip(children) {
                    c.emit(r, vars, nregs, code);
                }
            }
        }
    }

    /// Why `op` cannot head a node of `subpatterns` subpatterns, if it
    /// cannot: the matcher reads a node's arity off `op`'s placeholder
    /// children and [`Pattern::instantiate`] fills one child per
    /// placeholder, so the two counts must agree.
    fn arity_mismatch(op: &L, subpatterns: usize) -> Option<String> {
        let placeholders = op.children().len();
        (placeholders != subpatterns).then(|| {
            format!(
                "operator `{}` carries {placeholders} placeholder children but has {subpatterns} subpatterns",
                op.op_name()
            )
        })
    }

    /// Why the pattern is malformed, if it is: its first node, in
    /// pre-order, whose operator's placeholder children do not number its
    /// subpatterns — the check compiling a pattern makes.
    pub(crate) fn malformed(&self) -> Option<String> {
        match self {
            Pattern::Var(_) => None,
            Pattern::Node(op, children) => Self::arity_mismatch(op, children.len())
                .or_else(|| children.iter().find_map(Pattern::malformed)),
        }
    }

    /// Matches the pattern against e-class `id`, extending `subst`.
    /// Returns every consistent extension.
    ///
    /// This is the **naive reference matcher** — kept byte-for-byte
    /// equivalent in observable behavior to the compiled path so the two
    /// can be cross-checked; hot paths search a compiled
    /// [`crate::rewrite::Query`].
    #[must_use]
    pub fn search_class<N: Analysis<L>>(
        &self,
        egraph: &EGraph<L, N>,
        id: Id,
        subst: &Subst,
    ) -> Vec<Subst> {
        debug_assert!(egraph.is_clean(), "search requires a rebuilt e-graph");
        let id = egraph.find(id);
        match self {
            Pattern::Var(v) => {
                let mut s = subst.clone();
                if s.bind(v, id) {
                    vec![s]
                } else {
                    Vec::new()
                }
            }
            Pattern::Node(op, children) => {
                let mut results = Vec::new();
                for node in &egraph.class(id).nodes {
                    if !node.matches_op(op) || node.children().len() != children.len() {
                        continue;
                    }
                    let mut partial = vec![subst.clone()];
                    for (child_pat, &child_id) in children.iter().zip(node.children()) {
                        let mut next = Vec::new();
                        for s in &partial {
                            next.extend(child_pat.search_class(egraph, child_id, s));
                        }
                        partial = next;
                        if partial.is_empty() {
                            break;
                        }
                    }
                    results.extend(partial);
                }
                results
            }
        }
    }

    /// Searches every class in the graph; returns `(root_id, subst)` pairs.
    ///
    /// Naive reference path: iterates all classes. The compiled equivalent
    /// is a full search of `Query::single(var, pattern).compile()`, whose
    /// matches carry the root as `var`'s binding.
    #[must_use]
    pub fn search<N: Analysis<L>>(&self, egraph: &EGraph<L, N>) -> Vec<(Id, Subst)> {
        let mut out = Vec::new();
        for id in egraph.sorted_class_ids() {
            for s in self.search_class(egraph, id, &Subst::new()) {
                out.push((id, s));
            }
        }
        out
    }

    /// Instantiates the pattern in the e-graph under `subst`.
    ///
    /// # Panics
    ///
    /// Panics if a pattern variable is unbound, or if a node has fewer
    /// subpatterns than its operator has placeholder children.
    pub fn instantiate<N: Analysis<L>>(&self, egraph: &mut EGraph<L, N>, subst: &Subst) -> Id {
        match self {
            Pattern::Var(v) => subst
                .get(v)
                .unwrap_or_else(|| panic!("unbound pattern variable ?{v}")),
            Pattern::Node(op, children) => {
                // `op`'s own children are placeholders, one per subpattern
                // (`Rewrite::rewrite` rejects a right-hand side where not).
                debug_assert!(Self::arity_mismatch(op, children.len()).is_none());
                let mut subpatterns = children.iter();
                let node = op.map_children(|_| {
                    (subpatterns.next())
                        .expect("one subpattern per placeholder child")
                        .instantiate(egraph, subst)
                });
                egraph.add(node)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math_lang::{n, pvar, Math};
    use crate::rewrite::Query;

    fn p_mul(a: Pattern<Math>, b: Pattern<Math>) -> Pattern<Math> {
        Pattern::Node(Math::Mul([Id(0), Id(0)]), vec![a, b])
    }

    #[test]
    fn match_simple_node() {
        let mut eg = EGraph::<Math>::new();
        let a = eg.add(Math::Sym("a".into()));
        let two = eg.add(Math::Num(2));
        let m = eg.add(Math::Mul([a, two]));
        let pat = p_mul(pvar("x"), pvar("y"));
        let matches = pat.search_class(&eg, m, &Subst::new());
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].get("x"), Some(a));
        assert_eq!(matches[0].get("y"), Some(two));
    }

    #[test]
    fn nonlinear_patterns_require_equal_classes() {
        let mut eg = EGraph::<Math>::new();
        let a = eg.add(Math::Sym("a".into()));
        let b = eg.add(Math::Sym("b".into()));
        let m_ab = eg.add(Math::Mul([a, b]));
        let m_aa = eg.add(Math::Mul([a, a]));
        let square = p_mul(pvar("x"), pvar("x"));
        assert!(square.search_class(&eg, m_ab, &Subst::new()).is_empty());
        assert_eq!(square.search_class(&eg, m_aa, &Subst::new()).len(), 1);
    }

    #[test]
    fn literal_payloads_must_match() {
        let mut eg = EGraph::<Math>::new();
        let a = eg.add(Math::Sym("a".into()));
        let two = eg.add(Math::Num(2));
        let m = eg.add(Math::Mul([a, two]));
        let pat2 = p_mul(pvar("x"), n(2));
        let pat3 = p_mul(pvar("x"), n(3));
        assert_eq!(pat2.search_class(&eg, m, &Subst::new()).len(), 1);
        assert!(pat3.search_class(&eg, m, &Subst::new()).is_empty());
    }

    #[test]
    fn search_whole_graph() {
        let mut eg = EGraph::<Math>::new();
        let a = eg.add(Math::Sym("a".into()));
        let b = eg.add(Math::Sym("b".into()));
        let two = eg.add(Math::Num(2));
        let _m1 = eg.add(Math::Mul([a, two]));
        let _m2 = eg.add(Math::Mul([b, two]));
        let pat = p_mul(pvar("x"), n(2));
        assert_eq!(pat.search(&eg).len(), 2);
    }

    #[test]
    fn matches_through_unions() {
        // After a ≡ (a*2)/2, the pattern (?x * 2) matches inside the class.
        let mut eg = EGraph::<Math>::new();
        let a = eg.add(Math::Sym("a".into()));
        let two = eg.add(Math::Num(2));
        let m = eg.add(Math::Mul([a, two]));
        let d = eg.add(Math::Div([m, two]));
        eg.union(a, d);
        eg.rebuild();
        let pat = Pattern::Node(
            Math::Div([Id(0), Id(0)]),
            vec![p_mul(pvar("x"), n(2)), n(2)],
        );
        let found = pat.search_class(&eg, a, &Subst::new());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].get("x"), Some(eg.find(a)));
    }

    #[test]
    fn instantiate_builds_terms() {
        let mut eg = EGraph::<Math>::new();
        let a = eg.add(Math::Sym("a".into()));
        let mut s = Subst::new();
        assert!(s.bind("x", a));
        let pat = p_mul(pvar("x"), n(1));
        let id = pat.instantiate(&mut eg, &s);
        assert!(eg.lookup(&Math::Num(1)).is_some());
        let term = eg.any_term(id).unwrap();
        assert_eq!(term.to_sexp(), "(* a 1)");
    }

    #[test]
    fn subst_bind_conflicts() {
        let mut s = Subst::new();
        assert!(s.bind("x", Id(1)));
        assert!(s.bind("x", Id(1)));
        assert!(!s.bind("x", Id(2)));
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    /// A compiled single-pattern search: `pattern`'s matches with their
    /// root bound to `$root`.
    fn compiled_search(eg: &EGraph<Math>, pattern: &Pattern<Math>) -> Vec<Subst> {
        Query::single("$root", pattern.clone())
            .compile()
            .search(eg, None, &mut MatchScratch::new())
    }

    #[test]
    fn compiled_matches_agree_with_naive() {
        let mut eg = EGraph::<Math>::new();
        let a = eg.add(Math::Sym("a".into()));
        let b = eg.add(Math::Sym("b".into()));
        let two = eg.add(Math::Num(2));
        let _m1 = eg.add(Math::Mul([a, two]));
        let _m2 = eg.add(Math::Mul([b, two]));
        let _m3 = eg.add(Math::Mul([a, a]));
        for pat in [
            p_mul(pvar("x"), n(2)),
            p_mul(pvar("x"), pvar("x")),
            p_mul(pvar("x"), pvar("y")),
            pvar("e"),
        ] {
            let naive: Vec<Subst> = pat
                .search(&eg)
                .into_iter()
                .map(|(root, mut s)| {
                    assert!(s.bind("$root", root));
                    s
                })
                .collect();
            assert_eq!(naive, compiled_search(&eg, &pat), "pattern {pat:?}");
        }
    }

    #[test]
    fn vars_are_collected_in_order() {
        // x * (y * x): variables are interned in order of first
        // occurrence, after the query's root.
        let mut eg = EGraph::<Math>::new();
        let a = eg.add(Math::Sym("a".into()));
        let b = eg.add(Math::Sym("b".into()));
        let ba = eg.add(Math::Mul([b, a]));
        let _ = eg.add(Math::Mul([a, ba]));
        let matches = compiled_search(&eg, &p_mul(pvar("x"), p_mul(pvar("y"), pvar("x"))));
        assert_eq!(matches.len(), 1);
        let names: Vec<&String> = matches[0].iter().map(|(v, _)| v).collect();
        assert_eq!(names, ["$root", "x", "y"]);
    }

    #[test]
    fn compiled_subst_keeps_string_api() {
        let mut eg = EGraph::<Math>::new();
        let a = eg.add(Math::Sym("a".into()));
        let two = eg.add(Math::Num(2));
        let m = eg.add(Math::Mul([a, two]));
        let matches = compiled_search(&eg, &p_mul(pvar("x"), pvar("y")));
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].get("$root"), Some(m));
        assert_eq!(matches[0].get("x"), Some(a));
        assert_eq!(matches[0].get("y"), Some(two));
        // Appliers can keep binding new names through the shim.
        let mut s = matches[0].clone();
        assert!(s.bind("fresh", m));
        assert_eq!(s.get("fresh"), Some(m));
    }
}
