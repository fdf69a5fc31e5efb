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
    compile_structured_dnnf_parallel, variable_order_from_decomposition, EngineConfig, EngineError,
    ParallelDnnf,
};
use treelineage_graph::TreeDecomposition;
use treelineage_instance::{FactId, Instance};
use treelineage_query::{matching, UnionOfConjunctiveQueries};

/// Builder for the lineage of a UCQ≠ on an instance, with compilation into
/// circuits, OBDDs and d-DNNFs.
pub struct LineageBuilder<'a> {
    query: &'a UnionOfConjunctiveQueries,
    instance: &'a Instance,
    decomposition: Option<TreeDecomposition>,
    engine_config: EngineConfig,
}

impl<'a> LineageBuilder<'a> {
    /// Starts building the lineage of `query` on `instance`; a query over
    /// another signature is an [`EngineError::InvalidRequest`].
    pub fn new(
        query: &'a UnionOfConjunctiveQueries,
        instance: &'a Instance,
    ) -> Result<Self, EngineError> {
        if query.signature() != instance.signature() {
            return Err(EngineError::InvalidRequest(
                "query and instance signatures differ".into(),
            ));
        }
        Ok(LineageBuilder {
            query,
            instance,
            decomposition: None,
            engine_config: EngineConfig::default(),
        })
    }

    /// Routes [`LineageBuilder::automaton_lineage`] through the parallel
    /// engine with the given configuration: `threads > 1` compiles the
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
    pub fn with_decomposition(mut self, td: TreeDecomposition) -> Result<Self, EngineError> {
        let (graph, _) = self.instance.gaifman_graph();
        td.validate(&graph)
            .map_err(|e| EngineError::InvalidDecomposition(e.to_string()))?;
        self.decomposition = Some(td);
        Ok(self)
    }

    /// The matches of the query on the instance (each a set of fact ids).
    pub fn matches(&self) -> BTreeSet<BTreeSet<FactId>> {
        matching::all_matches(self.query, self.instance)
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
    /// pipeline (Theorem 6.11): tree-encode the instance along the
    /// decomposition, compile the query into a deterministic bottom-up tree
    /// automaton over the encoding alphabet
    /// (`treelineage_encoding::compile_ucq`), and extract the provenance
    /// d-SDNNF of the automaton on the uncertain encoding, smooth over the
    /// fact ids and structured by the encoding's vtree. No query match is
    /// ever materialized; the per-instance work is linear in the instance
    /// for bounded-width families. The artifact's passes take their thread
    /// count per call and answer identically at every count.
    pub fn automaton_lineage(&self) -> Result<ParallelDnnf, EngineError> {
        let td = self.decomposition_or_default();
        // Trusted: a supplied decomposition was validated by
        // `with_decomposition`, and the heuristic fallback is valid by
        // construction — re-validating here would double the exact cost the
        // near-linear validate keeps off this path.
        let telemetry = &self.engine_config.telemetry;
        let encoding = treelineage_encoding::encode_traced(self.instance, &td, telemetry)
            .map_err(EngineError::Encoding)?;
        let mut compiled = treelineage_encoding::compile_ucq(
            self.query,
            encoding.alphabet(),
            treelineage_encoding::CompileOptions {
                state_budget: self.engine_config.state_budget,
                telemetry: telemetry.clone(),
            },
        )
        .map_err(EngineError::QueryCompile)?;
        let automaton = compiled
            .automaton_for(encoding.tree())
            .map_err(EngineError::QueryCompile)?;
        // At one thread (or on a small tree) this is the traced sequential
        // compile; otherwise fragments on the pool, spliced into one build.
        compile_structured_dnnf_parallel(&automaton, encoding.tree(), &self.engine_config)
            .map_err(|e| EngineError::Provenance(e.to_string()))
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
        assert_eq!(automaton.model_count(1).to_u64(), Some(satisfying));
        assert_eq!(manager.count_models(root).to_u64(), Some(satisfying));
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
    fn signature_mismatch_is_rejected() {
        let q = parse_query(&rst(), "R(x)").unwrap();
        let other_sig = Signature::builder().relation("R", 1).build();
        let inst = Instance::new(other_sig);
        assert!(matches!(
            LineageBuilder::new(&q, &inst),
            Err(EngineError::InvalidRequest(m)) if m.contains("signatures differ")
        ));
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
        assert!(matches!(result, Err(EngineError::InvalidDecomposition(_))));
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
