//! Lineage construction for UCQ≠ queries on relational instances
//! (Theorems 6.3, 6.5, 6.7 and 6.11 of the paper).
//!
//! The lineage of a query `q` on an instance `I` (Definition 6.1) is the
//! Boolean function over the facts of `I` that is true on a subinstance
//! exactly when the subinstance satisfies `q`. For a (monotone) UCQ≠ this is
//! the disjunction, over the matches of `q` on `I`, of the conjunction of the
//! facts of the match; [`LineageBuilder`] materializes this circuit and then
//! compiles it into the paper's tractable representations:
//!
//! * a monotone lineage **circuit** (Definition 6.2),
//! * a reduced **OBDD** under a variable order derived from a tree or path
//!   decomposition of the instance (the \[35\]-style order used by
//!   Theorems 6.5 / 6.7: facts are ordered by the decomposition bag that
//!   covers them, so on bounded-pathwidth instances the orders of facts
//!   relevant to distant bags never interleave and the width stays bounded),
//!   compiled into the shared [`treelineage_dd`] engine
//!   ([`LineageBuilder::dd`]): hash-consed into a store with complement
//!   edges and a persistent operation cache, whose width and size are those
//!   of the plain reduced OBDD,
//! * a **d-DNNF** obtained from the OBDD (every decision node is a
//!   deterministic OR of two decomposable ANDs),
//! * the **provenance d-SDNNF** of Theorem 6.11
//!   ([`LineageBuilder::automaton_lineage`]): smooth and structured by the
//!   tree encoding's vtree by construction, and compiled without
//!   enumerating a single query match.
//!
//! See DESIGN.md §2 (items 1 and 4) for how this relates to the paper's
//! automaton-based linear-time construction: the functions represented are
//! identical and the OBDD widths — the quantities measured by the Section 8
//! experiments — are canonical per order, so the upper- and lower-bound
//! experiments exercise exactly the objects the paper reasons about.

use std::collections::{BTreeSet, HashMap};
use treelineage_circuit::{Circuit, Dnnf, GateId, VarId};
use treelineage_dd::{Manager, NodeId};
use treelineage_engine::{
    validate_insert, validate_retract, variable_order_from_decomposition, EngineConfig, UpdateError,
};
use treelineage_graph::TreeDecomposition;
use treelineage_instance::{Fact, FactId, Instance};
use treelineage_num::{BigUint, ErrorInterval, Rational};
use treelineage_query::{matching, UnionOfConjunctiveQueries};

/// The compilation backend a lineage-consuming pipeline routes through (see
/// DESIGN.md "Backend selection").
///
/// Both backends represent the same Boolean function and give exactly equal
/// answers (the cross-backend differential suites pin this); they differ in
/// how the function is compiled — [`LineageBackend::SharedDd`] enumerates
/// query matches and compiles the match circuit under a
/// decomposition-derived variable order, while [`LineageBackend::Automaton`]
/// goes through the tree encoding and never touches a match.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LineageBackend {
    /// The shared hash-consed decision-diagram engine (`treelineage_dd`)
    /// with complement edges and a persistent operation cache — the default
    /// fast path.
    #[default]
    SharedDd,
    /// The paper's Section 6 pipeline end to end (Theorems 6.3 / 6.11 made
    /// constructive by `treelineage_encoding`): tree-encode the instance
    /// along its decomposition, compile the query into a deterministic
    /// bottom-up tree automaton on the encoding alphabet, and read the
    /// lineage off the automaton's provenance as a smooth d-SDNNF — *never
    /// materializing query matches*, so the per-instance cost is linear in
    /// the instance for bounded-width families even where match
    /// enumeration is super-polynomial.
    Automaton,
}

/// Errors reported by lineage construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LineageError {
    /// The query's signature differs from the instance's.
    SignatureMismatch,
    /// The provided decomposition is not a valid decomposition of the
    /// instance's Gaifman graph.
    InvalidDecomposition(String),
    /// The automaton backend failed to tree-encode the instance.
    Encoding(treelineage_encoding::EncodingError),
    /// The automaton backend failed to compile the query (state budget,
    /// representation limits, or an MSO formula outside the fragment).
    QueryCompile(treelineage_encoding::CompileError),
    /// The automaton backend's provenance compilation failed (internal: the
    /// encoder's invariants should rule this out).
    Provenance(String),
}

impl std::fmt::Display for LineageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LineageError::SignatureMismatch => write!(f, "query and instance signatures differ"),
            LineageError::InvalidDecomposition(e) => write!(f, "invalid decomposition: {e}"),
            LineageError::Encoding(e) => write!(f, "tree encoding failed: {e}"),
            LineageError::QueryCompile(e) => write!(f, "query compilation failed: {e}"),
            LineageError::Provenance(e) => write!(f, "provenance compilation failed: {e}"),
        }
    }
}

impl std::error::Error for LineageError {}

impl From<treelineage_encoding::EncodingError> for LineageError {
    fn from(e: treelineage_encoding::EncodingError) -> Self {
        LineageError::Encoding(e)
    }
}

impl From<treelineage_encoding::CompileError> for LineageError {
    fn from(e: treelineage_encoding::CompileError) -> Self {
        LineageError::QueryCompile(e)
    }
}

/// The lineage produced by the automaton pipeline
/// ([`LineageBackend::Automaton`]): the provenance d-SDNNF of the
/// query-derived deterministic tree automaton on the instance's uncertain
/// tree encoding, whose events are exactly the instance's fact ids.
///
/// The artifact is smooth by construction over the full fact universe, so
/// probability, general-weight WMC and model counting are all single
/// bottom-up passes. Unlike every other backend, *no query match is ever
/// materialized* on the way here: the instance only contributes its linear
/// tree encoding.
#[derive(Clone, Debug)]
pub struct AutomatonLineage {
    lineage: treelineage_engine::ParallelDnnf,
    /// Worker threads the evaluation passes fan out over (from the
    /// builder's [`EngineConfig`]; 1 = sequential).
    threads: usize,
    automaton_states: usize,
    tree_nodes: usize,
}

impl AutomatonLineage {
    /// The certified smooth d-SDNNF over the fact ids.
    pub fn structured(&self) -> &treelineage_automata::StructuredDnnf {
        self.lineage.structured()
    }

    /// The fragment partition of the provenance circuit (empty when the
    /// lineage was compiled sequentially), plus the partition-aware
    /// evaluation wrapper.
    pub fn parallel(&self) -> &treelineage_engine::ParallelDnnf {
        &self.lineage
    }

    /// Number of states of the materialized tree automaton.
    pub fn automaton_states(&self) -> usize {
        self.automaton_states
    }

    /// Number of nodes of the tree encoding.
    pub fn tree_nodes(&self) -> usize {
        self.tree_nodes
    }

    /// Number of gates of the provenance circuit.
    pub fn size(&self) -> usize {
        self.lineage.size()
    }

    /// Query probability under independent per-fact probabilities: one
    /// bottom-up pass, fragment-parallel when the lineage was compiled with
    /// `threads > 1` (exact arithmetic: results are identical to the
    /// sequential pass at every thread count).
    pub fn probability(&self, prob: &(dyn Fn(VarId) -> Rational + Sync)) -> Rational {
        self.lineage.probability(prob, self.threads)
    }

    /// Weighted model count with general per-literal weights: one pass (the
    /// circuit is smooth by construction), fragment-parallel like
    /// [`AutomatonLineage::probability`].
    pub fn wmc(
        &self,
        pos: &(dyn Fn(VarId) -> Rational + Sync),
        neg: &(dyn Fn(VarId) -> Rational + Sync),
    ) -> Rational {
        self.lineage.wmc(pos, neg, self.threads)
    }

    /// Number of satisfying subinstances over the full fact universe: one
    /// integer pass, fragment-parallel like
    /// [`AutomatonLineage::probability`].
    pub fn model_count(&self) -> BigUint {
        self.lineage.model_count(self.threads)
    }

    /// Float fast-path of [`AutomatonLineage::probability`]: the same
    /// fragment-parallel pass in certified interval arithmetic. The returned
    /// interval is guaranteed to contain the exact rational answer and is
    /// bit-identical at every thread count.
    pub fn probability_interval(
        &self,
        prob: &(dyn Fn(VarId) -> ErrorInterval + Sync),
    ) -> ErrorInterval {
        self.lineage.probability_interval(prob, self.threads)
    }

    /// Float fast-path of [`AutomatonLineage::wmc`], with the same
    /// containment guarantee as [`AutomatonLineage::probability_interval`].
    pub fn wmc_interval(
        &self,
        pos: &(dyn Fn(VarId) -> ErrorInterval + Sync),
        neg: &(dyn Fn(VarId) -> ErrorInterval + Sync),
    ) -> ErrorInterval {
        self.lineage.wmc_interval(pos, neg, self.threads)
    }
}

/// Builder for the lineage of a UCQ≠ on an instance, with compilation into
/// circuits, OBDDs and d-DNNFs.
pub struct LineageBuilder<'a> {
    query: &'a UnionOfConjunctiveQueries,
    instance: &'a Instance,
    decomposition: Option<TreeDecomposition>,
    engine_config: EngineConfig,
}

impl<'a> LineageBuilder<'a> {
    /// Starts building the lineage of `query` on `instance`.
    pub fn new(
        query: &'a UnionOfConjunctiveQueries,
        instance: &'a Instance,
    ) -> Result<Self, LineageError> {
        if query.signature() != instance.signature() {
            return Err(LineageError::SignatureMismatch);
        }
        Ok(LineageBuilder {
            query,
            instance,
            decomposition: None,
            engine_config: EngineConfig::default(),
        })
    }

    /// Routes the automaton pipeline through the parallel engine with the
    /// given configuration: `threads > 1` compiles and evaluates the
    /// provenance d-SDNNF over disjoint subtrees on worker threads
    /// (bit-identical results), and `state_budget` bounds the query
    /// compiler. The default configuration reproduces the sequential
    /// behaviour exactly.
    pub fn with_engine_config(mut self, config: EngineConfig) -> Self {
        self.engine_config = config;
        self
    }

    /// Supplies a tree decomposition of the instance's Gaifman graph to drive
    /// the OBDD variable order (otherwise a heuristic decomposition is
    /// computed). The decomposition's vertices must index the instance's
    /// sorted active domain (as produced by
    /// [`Instance::gaifman_graph`]).
    pub fn with_decomposition(mut self, td: TreeDecomposition) -> Result<Self, LineageError> {
        let (graph, _) = self.instance.gaifman_graph();
        td.validate(&graph)
            .map_err(|e| LineageError::InvalidDecomposition(e.to_string()))?;
        self.decomposition = Some(td);
        Ok(self)
    }

    /// The matches of the query on the instance (each a set of fact ids).
    pub fn matches(&self) -> BTreeSet<BTreeSet<FactId>> {
        matching::all_matches(self.query, self.instance)
    }

    /// Checks whether inserting `fact` at `probability` would be accepted
    /// by an update-capable serving session over this builder's instance
    /// (see [`treelineage_engine::EvalSession::insert_fact`]). With an
    /// explicit decomposition the check is domain-pinned: the fact's
    /// elements must already be in the decomposition's domain and covered
    /// by one of its bags, because an incremental recompile cannot shift
    /// the pinned vertex numbering. Without one, only the instance-level
    /// checks (arity, duplicate, probability range) apply — the heuristic
    /// decomposition is recomputed per compile and absorbs any fact.
    pub fn supports_insert(&self, fact: &Fact, probability: &Rational) -> Result<(), UpdateError> {
        let plan = match &self.decomposition {
            Some(td) => Some(
                treelineage_encoding::EncodingPlan::new_trusted(self.instance, td)
                    .map_err(|e| UpdateError::Encoding(e.to_string()))?,
            ),
            None => None,
        };
        validate_insert(self.instance, plan.as_ref(), fact, probability)
    }

    /// Checks whether retracting `fact` would be accepted by an
    /// update-capable serving session over this builder's instance (see
    /// [`treelineage_engine::EvalSession::retract_fact`]). With an explicit
    /// decomposition the retraction must not orphan a domain element
    /// (domain-pinning, as for [`LineageBuilder::supports_insert`]);
    /// without one, only the fact-id range is checked.
    pub fn supports_retract(&self, fact: FactId) -> Result<(), UpdateError> {
        validate_retract(self.instance, fact, self.decomposition.is_some())
    }

    /// The monotone lineage circuit: the disjunction over matches of the
    /// conjunction of their facts. Variables are fact ids.
    pub fn circuit(&self) -> Circuit {
        let mut circuit = Circuit::new();
        let matches = self.matches();
        let mut disjuncts: Vec<GateId> = Vec::with_capacity(matches.len());
        for m in &matches {
            let conj: Vec<GateId> = m.iter().map(|f| circuit.var(f.0)).collect();
            let gate = if conj.len() == 1 {
                conj[0]
            } else {
                circuit.and(conj)
            };
            disjuncts.push(gate);
        }
        let output = match disjuncts.len() {
            0 => circuit.constant(false),
            1 => disjuncts[0],
            _ => circuit.or(disjuncts),
        };
        circuit.set_output(output);
        circuit
    }

    /// The decomposition used for variable orders (provided or heuristic).
    fn decomposition_or_default(&self) -> TreeDecomposition {
        match &self.decomposition {
            Some(td) => td.clone(),
            None => {
                let (graph, _) = self.instance.gaifman_graph();
                treelineage_graph::treewidth::treewidth_upper_bound(&graph).1
            }
        }
    }

    /// The variable (fact) order derived from the decomposition, in the style
    /// of \[35\]: bags are laid out by a depth-first traversal (children
    /// visited in increasing subtree size) and every fact is placed at the
    /// first bag containing all of its elements.
    pub fn variable_order(&self) -> Vec<VarId> {
        let td = self.decomposition_or_default();
        variable_order_from_decomposition(self.instance, &td)
    }

    /// [`LineageBuilder::variable_order`] extended with the facts that never
    /// occur in a match, so model counts range over all facts.
    fn full_variable_order(&self) -> Vec<VarId> {
        let mut order = self.variable_order();
        let present: BTreeSet<VarId> = order.iter().copied().collect();
        for f in self.instance.fact_ids() {
            if !present.contains(&f.0) {
                order.push(f.0);
            }
        }
        order
    }

    /// A fresh shared-engine manager over this lineage's variable order
    /// (every fact of the instance is in the order).
    fn dd_manager(&self) -> Manager {
        Manager::new(self.full_variable_order())
    }

    /// One-shot compilation into the shared engine: a fresh manager over
    /// every fact of the instance, plus the root node of the lineage.
    pub fn dd(&self) -> (Manager, NodeId) {
        let mut manager = self.dd_manager();
        let root = manager.compile_circuit(&self.circuit());
        (manager, root)
    }

    /// A d-DNNF for the lineage, obtained by viewing the reduced OBDD of
    /// [`LineageBuilder::dd`] as a circuit: every decision node
    /// `(v, lo, hi)` becomes the deterministic OR of the decomposable ANDs
    /// `v ∧ hi` and `¬v ∧ lo`.
    pub fn ddnnf(&self) -> Dnnf {
        let (manager, root) = self.dd();
        let circuit = obdd_to_circuit(&manager, root);
        Dnnf::from_trusted_circuit(circuit).expect("OBDD-derived circuits are d-DNNFs")
    }

    /// Compiles the lineage through the paper's Section 6 automaton
    /// pipeline ([`LineageBackend::Automaton`]): tree-encode the instance
    /// along the decomposition, compile the query into a deterministic
    /// bottom-up tree automaton over the encoding alphabet
    /// (`treelineage_encoding::compile_ucq`), and extract the provenance
    /// d-SDNNF of the automaton on the uncertain encoding
    /// (`treelineage_automata::compile_structured_dnnf`). No query match is
    /// ever materialized; the per-instance work is linear in the instance
    /// for bounded-width families.
    pub fn automaton_lineage(&self) -> Result<AutomatonLineage, LineageError> {
        let td = self.decomposition_or_default();
        // Trusted: a supplied decomposition was validated by
        // `with_decomposition`, and the heuristic fallback is valid by
        // construction — re-validating here would double the exact cost the
        // near-linear validate keeps off this path.
        let telemetry = &self.engine_config.telemetry;
        let encoding = treelineage_encoding::encode_traced(self.instance, &td, telemetry)?;
        let mut compiled = treelineage_encoding::compile_ucq(
            self.query,
            encoding.alphabet(),
            treelineage_encoding::CompileOptions {
                state_budget: self.engine_config.state_budget,
                telemetry: telemetry.clone(),
            },
        )?;
        let automaton = compiled.automaton_for(encoding.tree())?;
        // At one thread (or on a small tree) this is the traced sequential
        // compile; otherwise fragments on the pool, spliced into one build.
        let lineage = treelineage_engine::compile_structured_dnnf_parallel(
            &automaton,
            encoding.tree(),
            &self.engine_config,
        )
        .map_err(|e| LineageError::Provenance(e.to_string()))?;
        Ok(AutomatonLineage {
            lineage,
            threads: self.engine_config.threads,
            automaton_states: automaton.state_count(),
            tree_nodes: encoding.node_count(),
        })
    }
}

/// Converts the reduced OBDD rooted at `root` into an equivalent circuit
/// that satisfies the d-DNNF conditions: each decision node on variable `v`
/// with children `lo` / `hi` becomes `(v ∧ hi') ∨ (¬v ∧ lo')`.
///
/// Nodes are memoized on the signed [`NodeId`], so a stored node reached
/// both plainly and through a complement edge yields two gates: the circuit
/// has exactly one decision per node of the plain reduced OBDD (the
/// references [`Manager::level_sizes`] counts).
pub fn obdd_to_circuit(manager: &Manager, root: NodeId) -> Circuit {
    let mut circuit = Circuit::new();
    let mut memo: HashMap<NodeId, GateId> = HashMap::new();
    let output = obdd_node_to_gate(manager, root, &mut circuit, &mut memo);
    circuit.set_output(output);
    circuit
}

fn obdd_node_to_gate(
    manager: &Manager,
    node: NodeId,
    circuit: &mut Circuit,
    memo: &mut HashMap<NodeId, GateId>,
) -> GateId {
    if let Some(&g) = memo.get(&node) {
        return g;
    }
    let gate = match manager.decision_parts(node) {
        None => circuit.constant(node == NodeId::TRUE),
        Some((var, lo, hi)) => {
            let lo_gate = obdd_node_to_gate(manager, lo, circuit, memo);
            let hi_gate = obdd_node_to_gate(manager, hi, circuit, memo);
            let v = circuit.var(var);
            let not_v = circuit.not(v);
            let hi_branch = circuit.and(vec![v, hi_gate]);
            let lo_branch = circuit.and(vec![not_v, lo_gate]);
            circuit.or(vec![hi_branch, lo_branch])
        }
    };
    memo.insert(node, gate);
    gate
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelineage_instance::{encodings, ProbabilityValuation, Signature};
    use treelineage_num::Rational;
    use treelineage_query::parse_query;

    fn rst() -> Signature {
        Signature::builder()
            .relation("R", 1)
            .relation("S", 2)
            .relation("T", 1)
            .build()
    }

    fn chain_instance(n: usize) -> Instance {
        let sig = rst();
        let mut inst = Instance::new(sig);
        for i in 0..n as u64 {
            inst.add_fact_by_name("R", &[i]);
            inst.add_fact_by_name("S", &[i, i + 1]);
            inst.add_fact_by_name("T", &[i + 1]);
        }
        inst
    }

    fn check_lineage_against_bruteforce(query: &UnionOfConjunctiveQueries, instance: &Instance) {
        let builder = LineageBuilder::new(query, instance).unwrap();
        let circuit = builder.circuit();
        let ddnnf = builder.ddnnf();
        let automaton = builder.automaton_lineage().unwrap();
        let (manager, root) = builder.dd();
        let n = instance.fact_count();
        assert!(n <= 16, "oracle check limited to 16 facts");
        let mut satisfying = 0u64;
        for mask in 0u32..(1 << n) {
            let world: BTreeSet<FactId> =
                (0..n).filter(|i| mask >> i & 1 == 1).map(FactId).collect();
            let expected = matching::satisfied_in_world(query, instance, &world);
            satisfying += u64::from(expected);
            let world_vars: BTreeSet<usize> = world.iter().map(|f| f.0).collect();
            assert_eq!(
                circuit.evaluate_set(&world_vars),
                expected,
                "circuit, mask {mask}"
            );
            assert_eq!(
                ddnnf.circuit().evaluate_set(&world_vars),
                expected,
                "ddnnf, mask {mask}"
            );
            assert_eq!(
                manager.evaluate(root, &world_vars),
                expected,
                "dd, mask {mask}"
            );
            assert_eq!(
                automaton
                    .structured()
                    .dnnf()
                    .circuit()
                    .evaluate_set(&world_vars),
                expected,
                "automaton pipeline, mask {mask}"
            );
        }
        // The automaton pipeline's artifact counts the same models without
        // ever having enumerated a query match.
        assert_eq!(automaton.model_count().to_u64(), Some(satisfying));
        assert_eq!(manager.count_models(root).to_u64(), Some(satisfying));
        assert!(automaton.automaton_states() > 0);
        assert!(automaton.tree_nodes() > 0);
    }

    #[test]
    fn lineage_of_unsafe_query_on_small_chain() {
        let q = parse_query(&rst(), "R(x), S(x, y), T(y)").unwrap();
        let inst = chain_instance(3);
        check_lineage_against_bruteforce(&q, &inst);
    }

    #[test]
    fn lineage_of_ucq_with_disequality() {
        let sig = rst();
        let q = parse_query(&sig, "S(x, y), S(y, z), x != z | R(x), T(x)").unwrap();
        let inst = chain_instance(3);
        check_lineage_against_bruteforce(&q, &inst);
    }

    #[test]
    fn lineage_respects_query_with_no_matches() {
        let sig = rst();
        let q = parse_query(&sig, "T(x), S(x, y), R(y)").unwrap();
        let inst = chain_instance(2);
        let builder = LineageBuilder::new(&q, &inst).unwrap();
        assert!(builder.matches().is_empty());
        let (manager, root) = builder.dd();
        assert_eq!(manager.count_models(root).to_u64(), Some(0));
    }

    #[test]
    fn obdd_width_is_small_on_path_shaped_instances() {
        // The unsafe-but-easy-on-paths query R(x), S(x,y), T(y): on a chain
        // instance its lineage has a constant-width OBDD under the
        // decomposition-derived order (Theorem 6.7's phenomenon).
        let q = parse_query(&rst(), "R(x), S(x, y), T(y)").unwrap();
        let mut widths = Vec::new();
        for n in [4usize, 8, 16, 32] {
            let inst = chain_instance(n);
            let builder = LineageBuilder::new(&q, &inst).unwrap();
            let (manager, root) = builder.dd();
            widths.push(manager.width(root));
        }
        // Constant width: the width must not grow with n.
        assert_eq!(widths[2], widths[3], "widths {widths:?}");
        assert!(widths[3] <= 8, "widths {widths:?}");
    }

    #[test]
    fn probability_via_obdd_matches_possible_worlds() {
        let q = parse_query(&rst(), "R(x), S(x, y), T(y)").unwrap();
        let inst = chain_instance(2);
        let builder = LineageBuilder::new(&q, &inst).unwrap();
        let (manager, root) = builder.dd();
        let valuation = ProbabilityValuation::uniform(&inst, Rational::from_ratio_u64(1, 3));
        let expected =
            valuation.probability_of(|world| matching::satisfied_in_world(&q, &inst, world));
        let actual = manager.probability(root, &|v| valuation.probability(FactId(v)).clone());
        assert_eq!(actual, expected);
    }

    #[test]
    fn update_support_checks_mirror_the_session_rules() {
        let sig = rst();
        let q = parse_query(&sig, "R(x), S(x, y), T(y)").unwrap();
        let inst = chain_instance(2);
        let builder = LineageBuilder::new(&q, &inst).unwrap();
        let r = sig.relation_by_name("R").unwrap();
        let s = sig.relation_by_name("S").unwrap();
        // Without a pinned decomposition, new elements are fine but
        // duplicates, arity and probability-range violations are not.
        assert_eq!(
            builder.supports_insert(
                &Fact::new(r, vec![treelineage_instance::Element(9)]),
                &Rational::one_half()
            ),
            Ok(())
        );
        assert_eq!(
            builder.supports_insert(
                &Fact::new(r, vec![treelineage_instance::Element(0)]),
                &Rational::one_half()
            ),
            Err(UpdateError::DuplicateFact(FactId(0)))
        );
        assert_eq!(
            builder.supports_insert(&Fact::new(r, vec![]), &Rational::one_half()),
            Err(UpdateError::ArityMismatch {
                expected: 1,
                got: 0
            })
        );
        assert_eq!(
            builder.supports_retract(FactId(inst.fact_count())),
            Err(UpdateError::UnknownFact(FactId(inst.fact_count())))
        );
        assert_eq!(builder.supports_retract(FactId(0)), Ok(()));
        // With the pinned heuristic decomposition, a fact over a new
        // element is a typed rejection and a retraction may not orphan a
        // domain element.
        let (graph, _) = inst.gaifman_graph();
        let td = treelineage_graph::treewidth::treewidth_upper_bound(&graph).1;
        let pinned = LineageBuilder::new(&q, &inst)
            .unwrap()
            .with_decomposition(td)
            .unwrap();
        assert_eq!(
            pinned.supports_insert(
                &Fact::new(
                    s,
                    vec![
                        treelineage_instance::Element(0),
                        treelineage_instance::Element(9)
                    ]
                ),
                &Rational::one_half()
            ),
            Err(UpdateError::NewElement(treelineage_instance::Element(9)))
        );
        // Element 2 lives only in S(1, 2): retracting it under a pinned
        // decomposition would orphan the element.
        let mut tail = Instance::new(sig.clone());
        tail.add_fact_by_name("R", &[0]);
        tail.add_fact_by_name("S", &[0, 1]);
        tail.add_fact_by_name("S", &[1, 2]);
        let (tail_graph, _) = tail.gaifman_graph();
        let tail_td = treelineage_graph::treewidth::treewidth_upper_bound(&tail_graph).1;
        let tail_builder = LineageBuilder::new(&q, &tail)
            .unwrap()
            .with_decomposition(tail_td)
            .unwrap();
        assert_eq!(
            tail_builder.supports_retract(FactId(2)),
            Err(UpdateError::OrphanedElement(treelineage_instance::Element(
                2
            )))
        );
        assert_eq!(tail_builder.supports_retract(FactId(0)), Ok(()));
    }

    #[test]
    fn signature_mismatch_is_rejected() {
        let q = parse_query(&rst(), "R(x)").unwrap();
        let other_sig = Signature::builder().relation("R", 1).build();
        let inst = Instance::new(other_sig);
        assert_eq!(
            LineageBuilder::new(&q, &inst).err(),
            Some(LineageError::SignatureMismatch)
        );
    }

    #[test]
    fn explicit_decomposition_is_validated() {
        let sig = Signature::builder().relation("S", 2).build();
        let s = sig.relation_by_name("S").unwrap();
        let inst = encodings::grid_instance(&sig, s, 2, 3);
        let q = parse_query(&sig, "S(x, y)").unwrap();
        let bad = TreeDecomposition::new();
        let result = LineageBuilder::new(&q, &inst)
            .unwrap()
            .with_decomposition(bad);
        assert!(matches!(result, Err(LineageError::InvalidDecomposition(_))));
    }

    #[test]
    fn variable_order_covers_all_facts() {
        let sig = Signature::builder().relation("S", 2).build();
        let s = sig.relation_by_name("S").unwrap();
        let inst = encodings::grid_instance(&sig, s, 3, 3);
        let q = parse_query(&sig, "S(x, y), S(y, z), x != z").unwrap();
        let builder = LineageBuilder::new(&q, &inst).unwrap();
        let manager = builder.dd_manager();
        assert_eq!(manager.order().len(), inst.fact_count());
        let mut sorted = manager.order().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..inst.fact_count()).collect::<Vec<_>>());
    }

    #[test]
    fn ddnnf_size_is_pinned_on_treelike_and_grid_lineages() {
        // The OBDD-derived d-DNNF emits one decision (var, not, two ANDs,
        // an OR) per node of the plain reduced OBDD, lo child first; these
        // sizes are the T2-U3 "ddnnf size" column (n = 20, 40) and the
        // q_p grids 2 and 3.
        let sig = Signature::builder()
            .relation("S", 2)
            .relation("R", 2)
            .build();
        let q = parse_query(&sig, "S(x, y), S(y, z), x != z").unwrap();
        for (n, size) in [(20usize, 83usize), (40, 692)] {
            let inst = encodings::random_treelike_instance(&sig, n, 2, 7);
            let builder = LineageBuilder::new(&q, &inst).unwrap();
            assert_eq!(builder.ddnnf().size(), size, "T2-U3 n = {n}");
        }
        let sig = Signature::builder().relation("S", 2).build();
        let s = sig.relation_by_name("S").unwrap();
        let qp = parse_query(
            &sig,
            "S(x, y), S(y, z), x != z | S(x, y), S(z, y), x != z | S(y, x), S(y, z), x != z",
        )
        .unwrap();
        for (n, size) in [(2usize, 30usize), (3, 242)] {
            let inst = encodings::grid_instance(&sig, s, n, n);
            let builder = LineageBuilder::new(&qp, &inst).unwrap();
            assert_eq!(builder.ddnnf().size(), size, "q_p grid {n}");
        }
    }
}
