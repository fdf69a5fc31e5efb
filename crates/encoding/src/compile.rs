//! Query → tree-automaton compilation (the constructive side of
//! Theorems 6.3 / 6.11, in the style of Courcelle's theorem \[13\]).
//!
//! [`compile_ucq`] compiles a UCQ≠ into a *deterministic* bottom-up tree
//! automaton over an [`EncodingAlphabet`] such that the automaton accepts an
//! instantiated tree encoding exactly when the decoded subinstance satisfies
//! the query. The construction is a bottom-up subset construction: the
//! nondeterministic "guess a partial match" automaton has one state per
//! *configuration* — a disjunct, a partial map from its variables to bag
//! slots (or `★` for elements already forgotten), and the set of atoms
//! matched so far — and the deterministic automaton's states are *sets* of
//! configurations, determinized exactly as in
//! [`TreeAutomaton::determinize`]'s subset construction.
//!
//! The deterministic state space is enumerated *lazily*: eagerly saturating
//! every subset state over the whole alphabet is doubly exponential in the
//! query (the union semilattice of configuration sets — the nonelementary
//! constant behind Courcelle's theorem), so [`compile_ucq`] returns a
//! [`CompiledQuery`] — the transition machine with a persistent state /
//! transition memo — and [`CompiledQuery::automaton_for`] materializes the
//! fragment of the subset automaton reachable on a concrete uncertain tree
//! (under every event valuation at once), in one bottom-up pass that is
//! linear in the tree for bounded-width families. The memo survives across
//! trees, so related materializations share their work, mirroring the
//! shared `dd` engine's persistent caches.
//!
//! Key facts the construction leans on (see `encode`'s invariants):
//!
//! * two distinct slots of a bag always hold distinct elements, so a
//!   disequality fails exactly when both variables sit on one slot (checked
//!   at assignment time);
//! * a forgotten element never reappears, so a `★` variable is distinct
//!   from every current and future element (a join merging two `★`s, or a
//!   `★` with a slot, is inconsistent), and an unmatched atom with a `★`
//!   variable can never be completed (such configurations are pruned);
//! * configurations are kept *antichain-reduced*: a configuration whose
//!   assignment extends another's while matching fewer atoms can be
//!   simulated by it and is dropped. This is what keeps the state count
//!   bounded by a function of the query and the width only.
//!
//! The state count is still exponential in the query size in the worst case
//! (as the paper's nonelementary lower bounds for MSO demand), so the
//! compiler takes a state *budget* and fails with a typed
//! [`CompileError::StateBudget`] instead of diverging.

use crate::alphabet::{EncodingAlphabet, LabelKind};
use std::collections::{BTreeMap, BTreeSet};
use treelineage_automata::{Label, TreeAutomaton};
use treelineage_instance::{RelationId, Signature};
use treelineage_query::{ConjunctiveQuery, MsoFormula, UnionOfConjunctiveQueries};
use treelineage_telemetry::Telemetry;

/// Variable is unassigned.
const UNASSIGNED: u8 = u8::MAX;
/// Variable is assigned to an element that has been forgotten.
const STAR: u8 = u8::MAX - 1;

/// Default state budget of [`CompileOptions`].
pub const DEFAULT_STATE_BUDGET: usize = 4096;

/// Options for the query compiler. (No `Copy` since the telemetry handle
/// holds an `Arc`; construct with `..Default::default()` and clone where
/// reused.)
#[derive(Clone, Debug)]
pub struct CompileOptions {
    /// Maximum number of deterministic states to enumerate before giving up
    /// with [`CompileError::StateBudget`].
    pub state_budget: usize,
    /// Telemetry sink: [`compile_ucq`] / [`compile_mso`] record a
    /// `query_compile` span, and [`CompiledQuery::automaton_for`] records an
    /// `automaton_materialize` span plus the `query_states` and
    /// `live_states_max` gauges. Defaults to the no-op handle.
    pub telemetry: Telemetry,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            state_budget: DEFAULT_STATE_BUDGET,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Errors reported by the query compiler.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// The query's signature differs from the alphabet's.
    SignatureMismatch,
    /// A disjunct exceeds the compiler's representation limits (at most 63
    /// atoms and 250 variables per disjunct, width below 250).
    QueryTooLarge(String),
    /// The reachable deterministic state set exceeded the budget.
    StateBudget {
        /// The budget that was exceeded.
        budget: usize,
    },
    /// The MSO formula lies outside the compilable fragment
    /// (existential-positive first-order logic with disequalities).
    UnsupportedMso(String),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::SignatureMismatch => {
                write!(f, "query and alphabet signatures differ")
            }
            CompileError::QueryTooLarge(what) => write!(f, "query too large: {what}"),
            CompileError::StateBudget { budget } => {
                write!(f, "automaton state budget of {budget} states exceeded")
            }
            CompileError::UnsupportedMso(what) => {
                write!(f, "MSO formula outside the compilable fragment: {what}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// A configuration: one disjunct's partial-match knowledge. `assignment` is
/// indexed by the disjunct's variables; values are a slot, [`STAR`] or
/// [`UNASSIGNED`]. `matched` is a bitmask over the disjunct's atoms.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Config {
    disjunct: u16,
    matched: u64,
    assignment: Vec<u8>,
}

/// Per-disjunct static data derived from the query.
#[derive(Debug)]
struct DisjunctInfo {
    /// `(relation, argument variables)` per atom.
    atoms: Vec<(RelationId, Vec<usize>)>,
    /// Disequality pairs (variable indices).
    diseq: Vec<(usize, usize)>,
    var_count: usize,
    /// Bitmask with one bit per atom.
    full: u64,
    /// Atom indices grouped by relation.
    atoms_by_relation: BTreeMap<RelationId, Vec<usize>>,
    /// For each variable, the bitmask of atoms containing it.
    atoms_of_var: Vec<u64>,
}

impl DisjunctInfo {
    fn new(index: usize, cq: &ConjunctiveQuery) -> Result<Self, CompileError> {
        if cq.atom_count() > 63 {
            return Err(CompileError::QueryTooLarge(format!(
                "disjunct {index} has {} atoms (limit 63)",
                cq.atom_count()
            )));
        }
        if cq.variable_count() >= STAR as usize {
            return Err(CompileError::QueryTooLarge(format!(
                "disjunct {index} has {} variables (limit {})",
                cq.variable_count(),
                STAR
            )));
        }
        let atoms: Vec<(RelationId, Vec<usize>)> = cq
            .atoms()
            .iter()
            .map(|a| (a.relation, a.arguments.iter().map(|v| v.0).collect()))
            .collect();
        let mut atoms_by_relation: BTreeMap<RelationId, Vec<usize>> = BTreeMap::new();
        let mut atoms_of_var = vec![0u64; cq.variable_count()];
        for (i, (relation, args)) in atoms.iter().enumerate() {
            atoms_by_relation.entry(*relation).or_default().push(i);
            for &v in args {
                atoms_of_var[v] |= 1 << i;
            }
        }
        Ok(DisjunctInfo {
            full: (1u64 << atoms.len()).wrapping_sub(1),
            diseq: cq
                .disequalities()
                .iter()
                .map(|&(x, y)| (x.0, y.0))
                .collect(),
            var_count: cq.variable_count(),
            atoms,
            atoms_by_relation,
            atoms_of_var,
        })
    }

    /// Extends `assignment` by unifying atom `atom_idx` with a fact at the
    /// given slots; `None` if inconsistent (slot clash, `★`, or a violated
    /// disequality).
    fn unify(&self, assignment: &[u8], atom_idx: usize, slots: &[usize]) -> Option<Vec<u8>> {
        let mut asg = assignment.to_vec();
        let (_, args) = &self.atoms[atom_idx];
        debug_assert_eq!(args.len(), slots.len());
        for (&var, &slot) in args.iter().zip(slots) {
            let slot = slot as u8;
            match asg[var] {
                UNASSIGNED => {
                    // Assigning `var` to this slot identifies it with the
                    // slot's element: any disequality partner already on the
                    // same slot makes the configuration inconsistent.
                    for &(x, y) in &self.diseq {
                        let partner = if x == var {
                            y
                        } else if y == var {
                            x
                        } else {
                            continue;
                        };
                        if asg[partner] == slot {
                            return None;
                        }
                    }
                    asg[var] = slot;
                }
                current if current == slot => {}
                _ => return None, // different slot, or a forgotten element
            }
        }
        Some(asg)
    }
}

/// The compiled-query machine: disjunct data plus state transition logic.
#[derive(Debug)]
struct Compiler {
    disjuncts: Vec<DisjunctInfo>,
    budget: usize,
    /// Interned states: each is a sorted, antichain-reduced configuration
    /// set.
    states: Vec<Vec<Config>>,
    index: BTreeMap<Vec<Config>, usize>,
}

impl Compiler {
    fn new(
        disjuncts: &[ConjunctiveQuery],
        alphabet: &EncodingAlphabet,
        options: CompileOptions,
    ) -> Result<Self, CompileError> {
        if alphabet.slot_count() >= STAR as usize {
            return Err(CompileError::QueryTooLarge(format!(
                "width {} too large (limit {})",
                alphabet.width(),
                STAR
            )));
        }
        let infos = disjuncts
            .iter()
            .enumerate()
            .map(|(i, cq)| DisjunctInfo::new(i, cq))
            .collect::<Result<Vec<_>, _>>()?;
        let mut compiler = Compiler {
            disjuncts: infos,
            budget: options.state_budget,
            states: Vec::new(),
            index: BTreeMap::new(),
        };
        // State 0: the unit state (empty configuration per disjunct), the
        // value of every `Empty` leaf and padding node.
        let unit: Vec<Config> = compiler
            .disjuncts
            .iter()
            .enumerate()
            .map(|(d, info)| Config {
                disjunct: d as u16,
                matched: 0,
                assignment: vec![UNASSIGNED; info.var_count],
            })
            .collect();
        compiler.intern(unit)?;
        Ok(compiler)
    }

    fn intern(&mut self, state: Vec<Config>) -> Result<usize, CompileError> {
        if let Some(&i) = self.index.get(&state) {
            return Ok(i);
        }
        if self.states.len() >= self.budget {
            return Err(CompileError::StateBudget {
                budget: self.budget,
            });
        }
        let i = self.states.len();
        self.index.insert(state.clone(), i);
        self.states.push(state);
        Ok(i)
    }

    /// Antichain reduction: sorted, deduplicated, and with every
    /// configuration dominated by another (smaller-or-equal assignment,
    /// larger-or-equal matched set) removed.
    fn reduce(&self, set: BTreeSet<Config>) -> Vec<Config> {
        let configs: Vec<Config> = set.into_iter().collect();
        let mut keep = vec![true; configs.len()];
        for (i, a) in configs.iter().enumerate() {
            if !keep[i] {
                continue;
            }
            for (j, b) in configs.iter().enumerate() {
                if i == j || !keep[j] || a.disjunct != b.disjunct {
                    continue;
                }
                // `a` dominates `b`: a's assignment is a restriction of b's
                // and a has matched at least b's atoms.
                let dominated = a.matched & b.matched == b.matched
                    && a.assignment
                        .iter()
                        .zip(&b.assignment)
                        .all(|(&x, &y)| x == UNASSIGNED || x == y);
                if dominated {
                    keep[j] = false;
                }
            }
        }
        configs
            .into_iter()
            .zip(keep)
            .filter_map(|(c, k)| k.then_some(c))
            .collect()
    }

    fn apply_forget(&self, state: usize, slot: usize) -> Vec<Config> {
        let slot = slot as u8;
        let mut out = BTreeSet::new();
        'configs: for cfg in &self.states[state] {
            let info = &self.disjuncts[cfg.disjunct as usize];
            let mut asg = cfg.assignment.clone();
            for value in asg.iter_mut() {
                if *value == slot {
                    *value = STAR;
                }
            }
            // Prune doomed configurations: an unmatched atom over a
            // forgotten element can never be completed.
            for (var, &value) in asg.iter().enumerate() {
                if value == STAR && info.atoms_of_var[var] & !cfg.matched != 0 {
                    continue 'configs;
                }
            }
            out.insert(Config {
                disjunct: cfg.disjunct,
                matched: cfg.matched,
                assignment: asg,
            });
        }
        self.reduce(out)
    }

    fn apply_fact(&self, state: usize, relation: RelationId, slots: &[usize]) -> Vec<Config> {
        let mut out: BTreeSet<Config> = self.states[state].iter().cloned().collect();
        let mut queue: Vec<Config> = self.states[state].clone();
        while let Some(cfg) = queue.pop() {
            let info = &self.disjuncts[cfg.disjunct as usize];
            let Some(atom_indices) = info.atoms_by_relation.get(&relation) else {
                continue;
            };
            for &atom_idx in atom_indices {
                if cfg.matched >> atom_idx & 1 == 1 {
                    continue;
                }
                if let Some(asg) = info.unify(&cfg.assignment, atom_idx, slots) {
                    let next = Config {
                        disjunct: cfg.disjunct,
                        matched: cfg.matched | 1 << atom_idx,
                        assignment: asg,
                    };
                    if out.insert(next.clone()) {
                        queue.push(next);
                    }
                }
            }
        }
        self.reduce(out)
    }

    fn apply_join(&self, left: usize, right: usize) -> Vec<Config> {
        let mut out = BTreeSet::new();
        for a in &self.states[left] {
            'merge: for b in &self.states[right] {
                if a.disjunct != b.disjunct {
                    continue;
                }
                let info = &self.disjuncts[a.disjunct as usize];
                let mut asg = a.assignment.clone();
                for (value, &other) in asg.iter_mut().zip(&b.assignment) {
                    match (*value, other) {
                        (_, UNASSIGNED) => {}
                        (UNASSIGNED, y) => *value = y,
                        // Same slot in both subtrees: same bag element.
                        (x, y) if x == y && x != STAR => {}
                        // Slot clash, or a forgotten element of one subtree
                        // against anything of the other: distinct elements.
                        _ => continue 'merge,
                    }
                }
                // Cross-subtree disequality check: a pair may land on one
                // slot only through the merge.
                for &(x, y) in &info.diseq {
                    if asg[x] != UNASSIGNED && asg[x] != STAR && asg[x] == asg[y] {
                        continue 'merge;
                    }
                }
                out.insert(Config {
                    disjunct: a.disjunct,
                    matched: a.matched | b.matched,
                    assignment: asg,
                });
            }
        }
        self.reduce(out)
    }

    fn is_accepting(&self, state: usize) -> bool {
        self.states[state]
            .iter()
            .any(|c| c.matched == self.disjuncts[c.disjunct as usize].full)
    }
}

/// A query compiled into the deterministic subset-transition machine over
/// an [`EncodingAlphabet`], with a persistent state / transition memo.
///
/// [`CompiledQuery::automaton_for`] materializes, for a concrete uncertain
/// tree, the fragment of the (abstract, doubly-exponential) subset
/// automaton that the tree can reach under *any* valuation of its events —
/// a deterministic [`TreeAutomaton`] on the alphabet that is complete for
/// that tree. States and transitions are interned once and shared across
/// materializations, so compiling one query against many encodings (or the
/// same encoding repeatedly) amortizes like the shared `dd` engine's
/// persistent caches.
#[derive(Debug)]
pub struct CompiledQuery {
    alphabet: EncodingAlphabet,
    compiler: Compiler,
    /// Memoized transitions of non-join labels applied to a state (the
    /// right child is always the padding state 0).
    unary: BTreeMap<(Label, usize), usize>,
    /// Memoized join transitions.
    join: BTreeMap<(usize, usize), usize>,
    /// Carried over from [`CompileOptions`]; observes materializations.
    telemetry: Telemetry,
}

impl CompiledQuery {
    /// Number of deterministic states enumerated so far (grows as trees are
    /// materialized, bounded by the state budget).
    pub fn state_count(&self) -> usize {
        self.compiler.states.len()
    }

    /// The alphabet the query was compiled over.
    pub fn alphabet(&self) -> &EncodingAlphabet {
        &self.alphabet
    }

    /// The transition for `label` on child states `(left, right)`, computed
    /// and memoized on demand. `None` when the combination cannot occur on a
    /// well-formed encoding (e.g. a structural label over a non-padding
    /// right child): the materialized automaton simply has no transition
    /// there.
    fn delta(
        &mut self,
        label: Label,
        left: usize,
        right: usize,
    ) -> Result<Option<usize>, CompileError> {
        match self.alphabet.kind(label) {
            LabelKind::Empty => Ok(None),
            LabelKind::Join => {
                if let Some(&t) = self.join.get(&(left, right)) {
                    return Ok(Some(t));
                }
                let target = self.compiler.apply_join(left, right);
                let target = self.compiler.intern(target)?;
                self.join.insert((left, right), target);
                Ok(Some(target))
            }
            kind => {
                // Structural / fact nodes carry their real subtree on the
                // left and an `Empty` padding leaf (state 0) on the right.
                if right != 0 {
                    return Ok(None);
                }
                if let Some(&t) = self.unary.get(&(label, left)) {
                    return Ok(Some(t));
                }
                let target = match kind {
                    // Introducing a fresh element changes no configuration.
                    LabelKind::Introduce(_) => left,
                    LabelKind::Forget(slot) => {
                        let target = self.compiler.apply_forget(left, slot);
                        self.compiler.intern(target)?
                    }
                    LabelKind::Fact {
                        relation,
                        slots,
                        present,
                    } => {
                        if present {
                            let target = self.compiler.apply_fact(left, relation, &slots);
                            self.compiler.intern(target)?
                        } else {
                            left // an absent fact asserts nothing
                        }
                    }
                    // Internal invariant: the outer match took these two.
                    LabelKind::Empty | LabelKind::Join => unreachable!(),
                };
                self.unary.insert((label, left), target);
                Ok(Some(target))
            }
        }
    }

    /// Materializes the deterministic automaton for `tree` (an uncertain
    /// tree over this query's alphabet, e.g. a
    /// [`TreeEncoding`](crate::TreeEncoding)'s tree); see
    /// [`CompiledQuery::materialize`]. The result accepts an instantiation
    /// of `tree` iff the decoded subinstance satisfies the query.
    pub fn automaton_for(
        &mut self,
        tree: &treelineage_automata::UncertainTree,
    ) -> Result<TreeAutomaton, CompileError> {
        self.materialize(tree).map(|(automaton, _)| automaton)
    }

    /// [`CompiledQuery::automaton_for`] with the per-node live-state
    /// statistics of its reach pass. One bottom-up pass enumerates, per
    /// node, the states reachable under any valuation of the events,
    /// computing missing transitions into the memo. The automaton holds
    /// exactly the transitions that pass used (so the d-SDNNF compile
    /// never looks past them) and accepts only root-reachable accepting
    /// states; its states keep their global memo ids, and
    /// [`TreeAutomaton::state_count`] is the memo size. Neither the
    /// materialization nor the automaton grows with the memo: the work is
    /// proportional to the transitions the tree can use.
    pub fn materialize(
        &mut self,
        tree: &treelineage_automata::UncertainTree,
    ) -> Result<(TreeAutomaton, LiveStates), CompileError> {
        use treelineage_automata::NodeAnnotation;
        let _span = self.telemetry.span("automaton_materialize");
        let structure = tree.tree();
        let mut reach: Vec<Vec<usize>> = vec![Vec::new(); structure.node_count()];
        let mut leaf_reached = false;
        let mut used: Vec<(Label, usize, usize, usize)> = Vec::new();
        let (mut live_total, mut live_max) = (0usize, 0usize);
        for node in structure.post_order() {
            let alternatives: Vec<Label> = match tree.annotation(node) {
                NodeAnnotation::Fixed => vec![structure.label(node)],
                NodeAnnotation::Event {
                    if_true, if_false, ..
                } => {
                    if if_true == if_false {
                        vec![if_true]
                    } else {
                        vec![if_true, if_false]
                    }
                }
            };
            let mut states = BTreeSet::new();
            match structure.children(node) {
                None => {
                    // Leaves of well-formed encodings are `Empty` padding,
                    // evaluating to the unit state 0.
                    for label in alternatives {
                        if matches!(self.alphabet.kind(label), LabelKind::Empty) {
                            states.insert(0);
                            leaf_reached = true;
                        }
                    }
                }
                Some((l, r)) => {
                    let lefts = std::mem::take(&mut reach[l.0]);
                    let rights = std::mem::take(&mut reach[r.0]);
                    for &label in &alternatives {
                        for &a in &lefts {
                            for &b in &rights {
                                if let Some(t) = self.delta(label, a, b)? {
                                    states.insert(t);
                                    used.push((label, a, b, t));
                                }
                            }
                        }
                    }
                }
            }
            live_total += states.len();
            live_max = live_max.max(states.len());
            reach[node.0] = states.into_iter().collect();
        }

        // Built after the pass: the state count is the memo size, which
        // the pass may have grown.
        let mut automaton = TreeAutomaton::new(self.compiler.states.len(), self.alphabet.size());
        if leaf_reached {
            automaton.add_leaf_transition(self.alphabet.empty(), 0);
        }
        used.sort_unstable();
        used.dedup();
        for (label, a, b, target) in used {
            automaton.add_internal_transition(label, a, b, target);
        }
        for &state in &reach[structure.root().0] {
            if self.compiler.is_accepting(state) {
                automaton.add_accepting(state);
            }
        }
        debug_assert!(automaton.is_deterministic());
        let live = LiveStates {
            mean: live_total as f64 / structure.node_count() as f64,
            max: live_max,
        };
        self.telemetry
            .gauge_set("query_states", &[], self.compiler.states.len() as i64);
        self.telemetry
            .gauge_set("live_states_max", &[], live_max as i64);
        Ok((automaton, live))
    }
}

/// How many deterministic states one materialization found live per tree
/// node (the reach set sizes of [`CompiledQuery::materialize`]). The
/// d-SDNNF compile's work at a node follows these counts, not the memo
/// size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LiveStates {
    /// Mean live states over the tree's nodes.
    pub mean: f64,
    /// Most live states at one node.
    pub max: usize,
}

/// Compiles a UCQ≠ into the deterministic subset-transition machine over
/// the alphabet (see the module docs and [`CompiledQuery`]). The machine
/// depends only on the query and the alphabet (signature + width);
/// materialize concrete automata with [`CompiledQuery::automaton_for`].
pub fn compile_ucq(
    query: &UnionOfConjunctiveQueries,
    alphabet: &EncodingAlphabet,
    options: CompileOptions,
) -> Result<CompiledQuery, CompileError> {
    if query.signature() != alphabet.signature() {
        return Err(CompileError::SignatureMismatch);
    }
    compile_disjuncts(query.disjuncts().to_vec(), alphabet, options)
}

/// Compiles the existential-positive first-order fragment of MSO (atoms,
/// conjunction, disjunction, first-order existentials, equalities and
/// negated equalities) by translation to a UCQ≠; every other construct is
/// rejected with a typed [`CompileError::UnsupportedMso`]. A formula that
/// normalizes to *false* compiles to the machine rejecting every tree.
pub fn compile_mso(
    formula: &MsoFormula,
    alphabet: &EncodingAlphabet,
    options: CompileOptions,
) -> Result<CompiledQuery, CompileError> {
    let disjuncts = mso_to_disjuncts(formula, alphabet.signature())?;
    compile_disjuncts(disjuncts, alphabet, options)
}

/// Shared by the UCQ and MSO entry points. An empty disjunct list compiles
/// to the machine rejecting everything.
fn compile_disjuncts(
    disjuncts: Vec<ConjunctiveQuery>,
    alphabet: &EncodingAlphabet,
    options: CompileOptions,
) -> Result<CompiledQuery, CompileError> {
    let telemetry = options.telemetry.clone();
    let _span = telemetry.span("query_compile");
    let compiler = Compiler::new(&disjuncts, alphabet, options)?;
    Ok(CompiledQuery {
        alphabet: alphabet.clone(),
        compiler,
        unary: BTreeMap::new(),
        join: BTreeMap::new(),
        telemetry,
    })
}

/// A conjunction collected during MSO normalization.
#[derive(Clone, Default)]
struct MsoConj {
    atoms: Vec<(RelationId, Vec<usize>)>,
    equalities: Vec<(usize, usize)>,
    disequalities: Vec<(usize, usize)>,
}

/// Translates the existential-positive fragment into CQ≠ disjuncts
/// (returns an empty list for a formula normalizing to false). Public
/// entry point for reuse: [`mso_to_ucq`].
fn mso_to_disjuncts(
    formula: &MsoFormula,
    signature: &Signature,
) -> Result<Vec<ConjunctiveQuery>, CompileError> {
    let dnf = normalize_mso(formula, signature, &mut MsoScope::default())?;
    let mut disjuncts = Vec::new();
    'conjs: for conj in dnf {
        // Close equalities: union-find over the variables mentioned.
        let mut vars: BTreeSet<usize> = BTreeSet::new();
        for (_, args) in &conj.atoms {
            vars.extend(args.iter().copied());
        }
        for &(x, y) in conj.equalities.iter().chain(&conj.disequalities) {
            vars.insert(x);
            vars.insert(y);
        }
        let ids: Vec<usize> = vars.iter().copied().collect();
        let mut parent: BTreeMap<usize, usize> = ids.iter().map(|&v| (v, v)).collect();
        fn find(parent: &mut BTreeMap<usize, usize>, v: usize) -> usize {
            let p = parent[&v];
            if p == v {
                return v;
            }
            let root = find(parent, p);
            parent.insert(v, root);
            root
        }
        for &(x, y) in &conj.equalities {
            let (rx, ry) = (find(&mut parent, x), find(&mut parent, y));
            if rx != ry {
                parent.insert(rx, ry);
            }
        }
        let mut builder = ConjunctiveQuery::builder(signature);
        let name = |v: usize| format!("x{v}");
        let mut constrained: BTreeSet<usize> = BTreeSet::new();
        for (relation, args) in &conj.atoms {
            let arg_names: Vec<String> = args.iter().map(|&v| name(find(&mut parent, v))).collect();
            let arg_refs: Vec<&str> = arg_names.iter().map(|s| s.as_str()).collect();
            builder = builder.atom(signature.relation(*relation).name(), &arg_refs);
            constrained.extend(args.iter().map(|&v| find(&mut parent, v)));
        }
        for &(x, y) in &conj.disequalities {
            let (rx, ry) = (find(&mut parent, x), find(&mut parent, y));
            if rx == ry {
                continue 'conjs; // x != x: this disjunct is unsatisfiable
            }
            if !constrained.contains(&rx) || !constrained.contains(&ry) {
                return Err(CompileError::UnsupportedMso(
                    "disequality over a variable not occurring in any atom".into(),
                ));
            }
            builder = builder.disequality(&name(rx), &name(ry));
        }
        disjuncts.push(builder.build());
    }
    Ok(disjuncts)
}

/// Translates the existential-positive fragment of MSO into a UCQ≠, or
/// `None` when the formula normalizes to *false* (a UCQ needs at least one
/// disjunct). Constructs outside the fragment yield
/// [`CompileError::UnsupportedMso`].
pub fn mso_to_ucq(
    formula: &MsoFormula,
    signature: &Signature,
) -> Result<Option<UnionOfConjunctiveQueries>, CompileError> {
    let disjuncts = mso_to_disjuncts(formula, signature)?;
    Ok(if disjuncts.is_empty() {
        None
    } else {
        Some(UnionOfConjunctiveQueries::new(disjuncts))
    })
}

const MAX_MSO_DISJUNCTS: usize = 4096;

/// Alpha-renaming environment for [`normalize_mso`]: the same [`FoVar`](
/// treelineage_query::FoVar) id reused in disjoint (or shadowing)
/// existential scopes denotes *different* variables, so every binder
/// allocates a fresh canonical id and atoms are rewritten through the
/// innermost binding. Free variables (in non-sentence formulas) get one
/// stable canonical id each.
#[derive(Default)]
struct MsoScope {
    /// Innermost binding per source variable id.
    bound: BTreeMap<usize, usize>,
    /// Canonical ids of free (unbound) source variables.
    free: BTreeMap<usize, usize>,
    next: usize,
}

impl MsoScope {
    fn fresh(&mut self) -> usize {
        let c = self.next;
        self.next += 1;
        c
    }

    fn canonical(&mut self, v: usize) -> usize {
        if let Some(&c) = self.bound.get(&v) {
            return c;
        }
        if let Some(&c) = self.free.get(&v) {
            return c;
        }
        let c = self.fresh();
        self.free.insert(v, c);
        c
    }
}

fn normalize_mso(
    formula: &MsoFormula,
    signature: &Signature,
    scope: &mut MsoScope,
) -> Result<Vec<MsoConj>, CompileError> {
    match formula {
        MsoFormula::Atom {
            relation,
            arguments,
        } => {
            if relation.0 >= signature.relation_count() {
                return Err(CompileError::UnsupportedMso(format!(
                    "unknown relation R{}",
                    relation.0
                )));
            }
            if signature.arity(*relation) != arguments.len() {
                return Err(CompileError::UnsupportedMso(format!(
                    "arity mismatch for {}",
                    signature.relation(*relation).name()
                )));
            }
            Ok(vec![MsoConj {
                atoms: vec![(
                    *relation,
                    arguments.iter().map(|v| scope.canonical(v.0)).collect(),
                )],
                ..MsoConj::default()
            }])
        }
        MsoFormula::Equal(x, y) => Ok(vec![MsoConj {
            equalities: vec![(scope.canonical(x.0), scope.canonical(y.0))],
            ..MsoConj::default()
        }]),
        MsoFormula::Not(inner) => match &**inner {
            MsoFormula::Equal(x, y) => Ok(vec![MsoConj {
                disequalities: vec![(scope.canonical(x.0), scope.canonical(y.0))],
                ..MsoConj::default()
            }]),
            _ => Err(CompileError::UnsupportedMso(
                "negation (other than of an equality)".into(),
            )),
        },
        MsoFormula::And(parts) => {
            let mut acc = vec![MsoConj::default()];
            for part in parts {
                let options = normalize_mso(part, signature, scope)?;
                let mut next = Vec::new();
                for conj in &acc {
                    for option in &options {
                        let mut merged = conj.clone();
                        merged.atoms.extend(option.atoms.iter().cloned());
                        merged.equalities.extend(option.equalities.iter().copied());
                        merged
                            .disequalities
                            .extend(option.disequalities.iter().copied());
                        next.push(merged);
                    }
                }
                if next.len() > MAX_MSO_DISJUNCTS {
                    return Err(CompileError::QueryTooLarge(format!(
                        "MSO normalization exceeds {MAX_MSO_DISJUNCTS} disjuncts"
                    )));
                }
                acc = next;
            }
            Ok(acc)
        }
        MsoFormula::Or(parts) => {
            let mut acc = Vec::new();
            for part in parts {
                acc.extend(normalize_mso(part, signature, scope)?);
                if acc.len() > MAX_MSO_DISJUNCTS {
                    return Err(CompileError::QueryTooLarge(format!(
                        "MSO normalization exceeds {MAX_MSO_DISJUNCTS} disjuncts"
                    )));
                }
            }
            Ok(acc)
        }
        MsoFormula::ExistsFo(v, inner) => {
            // Alpha-rename: this binder's occurrences are a fresh variable,
            // shadowing any outer binding of the same source id.
            let fresh = scope.fresh();
            let saved = scope.bound.insert(v.0, fresh);
            let result = normalize_mso(inner, signature, scope);
            match saved {
                Some(previous) => scope.bound.insert(v.0, previous),
                None => scope.bound.remove(&v.0),
            };
            result
        }
        MsoFormula::Member(_, _) => Err(CompileError::UnsupportedMso("set membership".into())),
        MsoFormula::Implies(_, _) => Err(CompileError::UnsupportedMso("implication".into())),
        MsoFormula::ForallFo(_, _) => Err(CompileError::UnsupportedMso(
            "universal first-order quantification".into(),
        )),
        MsoFormula::ExistsSet(_, _) | MsoFormula::ForallSet(_, _) => Err(
            CompileError::UnsupportedMso("second-order quantification".into()),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;
    use std::collections::BTreeSet;
    use treelineage_instance::{encodings, FactId, Instance};
    use treelineage_query::{matching, parse_query, FoVar};

    fn rst() -> Signature {
        Signature::builder()
            .relation("R", 1)
            .relation("S", 2)
            .relation("T", 1)
            .build()
    }

    fn chain(n: usize) -> Instance {
        let mut inst = Instance::new(rst());
        for i in 0..n as u64 {
            inst.add_fact_by_name("R", &[i]);
            inst.add_fact_by_name("S", &[i, i + 1]);
            inst.add_fact_by_name("T", &[i + 1]);
        }
        inst
    }

    fn heuristic_td(inst: &Instance) -> treelineage_graph::TreeDecomposition {
        let (graph, _) = inst.gaifman_graph();
        treelineage_graph::treewidth::treewidth_upper_bound(&graph).1
    }

    /// Checks the compiled automaton against brute-force query evaluation on
    /// every world of the instance.
    fn check_automaton_on(query: &UnionOfConjunctiveQueries, inst: &Instance) {
        let encoding = encode(inst, &heuristic_td(inst)).unwrap();
        let mut compiled =
            compile_ucq(query, encoding.alphabet(), CompileOptions::default()).unwrap();
        let automaton = compiled.automaton_for(encoding.tree()).unwrap();
        assert!(automaton.is_deterministic());
        let n = inst.fact_count();
        assert!(n <= 12, "brute-force check limited to 12 facts");
        for mask in 0u32..(1 << n) {
            let world: BTreeSet<FactId> =
                (0..n).filter(|i| mask >> i & 1 == 1).map(FactId).collect();
            let concrete = encoding.tree().instantiate(&|e| world.contains(&FactId(e)));
            assert_eq!(
                automaton.accepts(&concrete),
                matching::satisfied_in_world(query, inst, &world),
                "query {query}, mask {mask}"
            );
        }
    }

    #[test]
    fn unsafe_query_on_chains() {
        let q = parse_query(&rst(), "R(x), S(x, y), T(y)").unwrap();
        for n in 1..=3 {
            check_automaton_on(&q, &chain(n));
        }
    }

    #[test]
    fn ucq_with_disequality_on_chains() {
        let q = parse_query(&rst(), "S(x, y), S(y, z), x != z | R(x), T(x)").unwrap();
        check_automaton_on(&q, &chain(3));
    }

    #[test]
    fn self_join_with_disequality_on_treelike() {
        let sig = Signature::builder()
            .relation("R", 2)
            .relation("S", 2)
            .relation("L", 1)
            .build();
        let queries = [
            "S(x, y), S(y, z), x != z",
            "L(x), R(x, y) | L(y), S(x, y)",
            "R(x, y), R(y, x)",
        ];
        for seed in [1u64, 5, 11] {
            let inst = encodings::random_treelike_instance(&sig, 5, 2, seed);
            if inst.fact_count() == 0 || inst.fact_count() > 10 {
                continue;
            }
            for q in &queries {
                check_automaton_on(&parse_query(&sig, q).unwrap(), &inst);
            }
        }
    }

    #[test]
    fn repeated_variable_atoms() {
        let sig = Signature::builder().relation("S", 2).build();
        let mut inst = Instance::new(sig.clone());
        inst.add_fact_by_name("S", &[1, 1]);
        inst.add_fact_by_name("S", &[1, 2]);
        let q = parse_query(&sig, "S(x, x)").unwrap();
        check_automaton_on(&q, &inst);
    }

    #[test]
    fn state_budget_is_enforced() {
        let q = parse_query(&rst(), "S(x, y), S(y, z), S(z, w), x != w").unwrap();
        let inst = chain(4);
        let encoding = encode(&inst, &heuristic_td(&inst)).unwrap();
        let mut compiled = compile_ucq(
            &q,
            encoding.alphabet(),
            CompileOptions {
                state_budget: 2,
                ..CompileOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            compiled.automaton_for(encoding.tree()).unwrap_err(),
            CompileError::StateBudget { budget: 2 }
        );
    }

    #[test]
    fn compiled_query_states_saturate_per_family() {
        // The reachable deterministic state count is bounded per instance
        // family (the Theorem 6.7 phenomenon): materializing ever longer
        // chains stops discovering new states, and the memo is shared
        // across materializations.
        let q = parse_query(&rst(), "R(x), S(x, y), T(y)").unwrap();
        let mut compiled = {
            let inst = chain(2);
            let enc = encode(&inst, &heuristic_td(&inst)).unwrap();
            compile_ucq(&q, enc.alphabet(), CompileOptions::default()).unwrap()
        };
        let mut counts = Vec::new();
        for n in [2usize, 8, 16, 32] {
            let inst = chain(n);
            let enc = encode(&inst, &heuristic_td(&inst)).unwrap();
            compiled.automaton_for(enc.tree()).unwrap();
            counts.push(compiled.state_count());
        }
        assert_eq!(counts[1], counts[2], "counts {counts:?}");
        assert_eq!(counts[2], counts[3], "counts {counts:?}");
    }

    /// The automaton over every state and transition in the memo: the
    /// reference a per-tree automaton must agree with on its tree.
    fn full_memo_automaton(compiled: &CompiledQuery) -> TreeAutomaton {
        let states = compiled.state_count();
        let mut automaton = TreeAutomaton::new(states, compiled.alphabet.size());
        automaton.add_leaf_transition(compiled.alphabet.empty(), 0);
        for (&(label, a), &target) in &compiled.unary {
            automaton.add_internal_transition(label, a, 0, target);
        }
        for (&(a, b), &target) in &compiled.join {
            automaton.add_internal_transition(compiled.alphabet.join(), a, b, target);
        }
        for state in (0..states).filter(|&q| compiled.compiler.is_accepting(q)) {
            automaton.add_accepting(state);
        }
        automaton
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// On random small trees, after the memo has grown on other
        /// instances of the same width, the per-tree automaton accepts
        /// exactly the instantiations the whole-memo automaton accepts,
        /// with a subset of its transitions.
        #[test]
        fn restricted_automaton_accepts_like_the_full_memo(
            (inst, td) in treelineage_instance::strategies::treelike_instance_with_decomposition(
                sig_rsl(), 5, 2,
            ),
            qi in 0usize..3,
            warm_seed in 0u64..1_000,
        ) {
            proptest::prop_assume!(inst.fact_count() > 0 && inst.fact_count() <= 10);
            let query = parse_query(
                &sig_rsl(),
                ["S(x, y), L(y)", "S(x, y), S(y, z), x != z", "L(x), R(x, y) | L(y), S(x, y)"][qi],
            )
            .unwrap();
            let encoding = encode(&inst, &td).unwrap();
            let mut compiled =
                compile_ucq(&query, encoding.alphabet(), CompileOptions::default()).unwrap();
            for seed in warm_seed..warm_seed + 8 {
                let other = encodings::random_treelike_instance(&sig_rsl(), 6, 2, seed);
                let other = encode(&other, &heuristic_td(&other)).unwrap();
                if other.alphabet().width() == encoding.alphabet().width() {
                    compiled.automaton_for(other.tree()).unwrap();
                }
            }
            let restricted = compiled.automaton_for(encoding.tree()).unwrap();
            let full = full_memo_automaton(&compiled);
            proptest::prop_assert_eq!(restricted.state_count(), full.state_count());
            for (label, l, r, q) in restricted.internal_transitions() {
                proptest::prop_assert!(full.internal_states(label, l, r).contains(&q));
            }
            for mask in 0u32..(1 << inst.fact_count()) {
                let concrete = encoding.tree().instantiate(&|e| mask >> e & 1 == 1);
                proptest::prop_assert_eq!(
                    restricted.accepts(&concrete),
                    full.accepts(&concrete),
                    "query {}, mask {}", query, mask
                );
            }
        }
    }

    fn sig_rsl() -> Signature {
        Signature::builder()
            .relation("R", 2)
            .relation("S", 2)
            .relation("L", 1)
            .build()
    }

    #[test]
    fn signature_mismatch_is_rejected() {
        let q = parse_query(&rst(), "R(x)").unwrap();
        let other = Signature::builder().relation("R", 1).build();
        let alphabet = EncodingAlphabet::new(&other, 1).unwrap();
        assert_eq!(
            compile_ucq(&q, &alphabet, CompileOptions::default()).unwrap_err(),
            CompileError::SignatureMismatch
        );
    }

    #[test]
    fn mso_existential_positive_fragment_compiles() {
        // ∃x ∃y R(x) ∧ R(y) ∧ ¬(x = y): Proposition 7.1's CQ≠ in FO form.
        let sig = Signature::builder().relation("R", 1).build();
        let r = sig.relation_by_name("R").unwrap();
        let formula = treelineage_query::two_distinct_unary(r);
        let ucq = mso_to_ucq(&formula, &sig).unwrap().unwrap();
        let mut inst = Instance::new(sig.clone());
        inst.add_fact_by_name("R", &[1]);
        inst.add_fact_by_name("R", &[2]);
        inst.add_fact_by_name("R", &[3]);
        let encoding = encode(&inst, &heuristic_td(&inst)).unwrap();
        let mut compiled =
            compile_mso(&formula, encoding.alphabet(), CompileOptions::default()).unwrap();
        let automaton = compiled.automaton_for(encoding.tree()).unwrap();
        for mask in 0u32..8 {
            let world: BTreeSet<FactId> =
                (0..3).filter(|i| mask >> i & 1 == 1).map(FactId).collect();
            let concrete = encoding.tree().instantiate(&|e| world.contains(&FactId(e)));
            let expected = matching::satisfied_in_world(&ucq, &inst, &world);
            assert_eq!(automaton.accepts(&concrete), expected, "mask {mask}");
            assert_eq!(expected, world.len() >= 2, "mask {mask}");
        }
    }

    #[test]
    fn mso_equality_substitution() {
        // ∃x ∃y R(x) ∧ x = y ∧ T(y)  ≡  R(x), T(x).
        let sig = rst();
        let r = sig.relation_by_name("R").unwrap();
        let t = sig.relation_by_name("T").unwrap();
        let formula = MsoFormula::ExistsFo(
            FoVar(0),
            Box::new(MsoFormula::ExistsFo(
                FoVar(1),
                Box::new(MsoFormula::And(vec![
                    MsoFormula::Atom {
                        relation: r,
                        arguments: vec![FoVar(0)],
                    },
                    MsoFormula::Equal(FoVar(0), FoVar(1)),
                    MsoFormula::Atom {
                        relation: t,
                        arguments: vec![FoVar(1)],
                    },
                ])),
            )),
        );
        let ucq = mso_to_ucq(&formula, &sig).unwrap().unwrap();
        // One variable class: both atoms range over the same (merged)
        // variable, whichever representative the union-find picked.
        assert_eq!(ucq.disjuncts().len(), 1);
        let cq = &ucq.disjuncts()[0];
        assert_eq!(cq.atom_count(), 2);
        assert_eq!(cq.variable_count(), 1);
    }

    #[test]
    fn mso_reused_binder_in_disjoint_scopes_is_alpha_renamed() {
        // (∃x R(x)) ∧ (∃x T(x)) written with the SAME FoVar in both scopes:
        // the two binders are different variables, so on {R(1), T(2)} the
        // formula holds even though no single element has both facts.
        let sig = rst();
        let r = sig.relation_by_name("R").unwrap();
        let t = sig.relation_by_name("T").unwrap();
        let x = FoVar(0);
        let formula = MsoFormula::And(vec![
            MsoFormula::ExistsFo(
                x,
                Box::new(MsoFormula::Atom {
                    relation: r,
                    arguments: vec![x],
                }),
            ),
            MsoFormula::ExistsFo(
                x,
                Box::new(MsoFormula::Atom {
                    relation: t,
                    arguments: vec![x],
                }),
            ),
        ]);
        let ucq = mso_to_ucq(&formula, &sig).unwrap().unwrap();
        assert_eq!(ucq.disjuncts().len(), 1);
        // Two distinct variables after alpha-renaming, not one conflated.
        assert_eq!(ucq.disjuncts()[0].variable_count(), 2);

        let mut inst = Instance::new(sig.clone());
        inst.add_fact_by_name("R", &[1]);
        inst.add_fact_by_name("T", &[2]);
        assert!(formula.holds_on(&inst));
        let encoding = encode(&inst, &heuristic_td(&inst)).unwrap();
        let mut compiled =
            compile_mso(&formula, encoding.alphabet(), CompileOptions::default()).unwrap();
        let automaton = compiled.automaton_for(encoding.tree()).unwrap();
        assert!(automaton.accepts(&encoding.tree().instantiate(&|_| true)));
        // Shadowing: ∃x (R(x) ∧ ∃x T(x)) — inner x is its own variable too.
        let shadowed = MsoFormula::ExistsFo(
            x,
            Box::new(MsoFormula::And(vec![
                MsoFormula::Atom {
                    relation: r,
                    arguments: vec![x],
                },
                MsoFormula::ExistsFo(
                    x,
                    Box::new(MsoFormula::Atom {
                        relation: t,
                        arguments: vec![x],
                    }),
                ),
            ])),
        );
        let ucq = mso_to_ucq(&shadowed, &sig).unwrap().unwrap();
        assert_eq!(ucq.disjuncts()[0].variable_count(), 2);
    }

    #[test]
    fn mso_outside_fragment_is_rejected() {
        let sig = Signature::builder()
            .relation("L", 1)
            .relation("E", 2)
            .build();
        let mso = treelineage_query::odd_number_of_labels(
            sig.relation_by_name("L").unwrap(),
            sig.relation_by_name("E").unwrap(),
        );
        assert!(matches!(
            mso_to_ucq(&mso, &sig),
            Err(CompileError::UnsupportedMso(_))
        ));
        // A contradiction normalizes to the empty disjunct list -> the
        // rejecting automaton.
        let x = FoVar(0);
        let contradiction = MsoFormula::And(vec![
            MsoFormula::Atom {
                relation: sig.relation_by_name("L").unwrap(),
                arguments: vec![x],
            },
            MsoFormula::Not(Box::new(MsoFormula::Equal(x, x))),
        ]);
        assert!(mso_to_ucq(&contradiction, &sig).unwrap().is_none());
        let mut inst = Instance::new(sig.clone());
        inst.add_fact_by_name("L", &[1]);
        let encoding = encode(&inst, &heuristic_td(&inst)).unwrap();
        let mut compiled = compile_mso(
            &contradiction,
            encoding.alphabet(),
            CompileOptions::default(),
        )
        .unwrap();
        let automaton = compiled.automaton_for(encoding.tree()).unwrap();
        assert!(automaton.accepting_states().is_empty());
    }
}
