//! Direct compilation of automaton provenance into certified, smooth
//! structured d-DNNFs (d-SDNNFs).
//!
//! [`provenance_circuit`](crate::provenance_circuit) emits a raw circuit and
//! leaves the d-DNNF property to after-the-fact verification. This module is
//! the paper's Theorem 6.11 made constructive: for a *deterministic*
//! bottom-up automaton on an uncertain tree whose events each control a
//! single node, [`compile_structured_dnnf`] emits a circuit that is
//!
//! * **decomposable** by construction — every ∧ splits the event of the
//!   current node from the (disjoint) event scopes of the two subtrees;
//! * **deterministic** by construction — every ∨ ranges over mutually
//!   exclusive cases (the event literal picks the label; the unique run of
//!   the deterministic automaton picks the child states);
//! * **smooth** by construction — every gate either is the constant false or
//!   mentions *exactly* the events of its subtree, so all ∨-children share
//!   one scope and model counting is a single integer pass (no padding
//!   needed afterwards);
//! * **structured** — witnessed by a [`Vtree`] read off the input tree
//!   (event of a node against the scopes of its two children), which
//!   [`StructuredDnnf::vtree`] exposes and the test suite certifies with
//!   [`Vtree::respects`].
//!
//! The construction is written once, as [`StructuredBuilder`]: a post-order
//! pass whose caller may splice a precompiled subtree in at any node. The
//! sequential [`compile_structured_dnnf`] splices nothing; the parallel
//! engine (`treelineage-engine`) compiles fragments with
//! [`StructuredBuilder::compile_subtree`] on worker threads and splices them
//! into one whole-tree [`StructuredBuilder::compile`].
//!
//! Probability, weighted model counting and model counting on the result are
//! all linear in its size — the "linear-time probability without OBDD
//! blowup" extension that motivates the d-SDNNF backend.

use crate::automaton::{State, TreeAutomaton};
use crate::tree::{NodeAnnotation, NodeId, UncertainTree};
use std::collections::BTreeMap;
use treelineage_circuit::{Circuit, Dnnf, DnnfError, GateId, Vtree, VtreeId};
use treelineage_num::{BigUint, Rational};

/// Errors reported by the structured compiler.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StructuredDnnfError {
    /// The automaton is not bottom-up deterministic, so the ∨ over runs is
    /// not guaranteed deterministic (determinize first).
    NondeterministicAutomaton,
    /// An event controls more than one node, so subtree scopes overlap and
    /// the ∧ over children is not guaranteed decomposable.
    SharedEvent {
        /// The offending event (Boolean variable).
        event: usize,
    },
    /// A spliced subtree broke the syntactic d-DNNF conditions of the
    /// assembled circuit (the unspliced construction never does).
    NotDecomposable(DnnfError),
}

impl std::fmt::Display for StructuredDnnfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StructuredDnnfError::NondeterministicAutomaton => {
                write!(f, "automaton is not bottom-up deterministic")
            }
            StructuredDnnfError::SharedEvent { event } => {
                write!(f, "event {event} controls more than one node")
            }
            StructuredDnnfError::NotDecomposable(e) => {
                write!(f, "assembled circuit is not a d-DNNF: {e}")
            }
        }
    }
}

impl std::error::Error for StructuredDnnfError {}

/// A certified smooth d-SDNNF for the provenance of a deterministic tree
/// automaton on an uncertain tree, together with its structure witness.
#[derive(Clone, Debug)]
pub struct StructuredDnnf {
    dnnf: Dnnf,
    vtree: Vtree,
    universe: Vec<usize>,
}

impl StructuredDnnf {
    /// Assembles a `StructuredDnnf` from parts the caller attests satisfy
    /// the module invariants: `dnnf` smooth with every gate's scope exactly
    /// its subtree's events, structured by `vtree`, over the sorted event
    /// `universe`. Every artifact of the construction comes from
    /// [`StructuredBuilder::compile`]; this is for circuits built by other
    /// means (e.g. tests exercising gate shapes the construction never
    /// emits). Like [`Dnnf::from_trusted_circuit`], no properties are
    /// re-checked here — hand untrusted circuits to [`Dnnf::verify`] and
    /// [`Vtree::respects`] instead.
    pub fn from_trusted_parts(dnnf: Dnnf, vtree: Vtree, universe: Vec<usize>) -> Self {
        StructuredDnnf {
            dnnf,
            vtree,
            universe,
        }
    }

    /// The underlying d-DNNF (smooth, deterministic, decomposable).
    pub fn dnnf(&self) -> &Dnnf {
        &self.dnnf
    }

    /// The vtree the circuit is structured by (derived from the input tree:
    /// each tree node splits its own event from its children's scopes).
    pub fn vtree(&self) -> &Vtree {
        &self.vtree
    }

    /// The declared universe: all events of the uncertain tree, sorted.
    pub fn universe(&self) -> &[usize] {
        &self.universe
    }

    /// Size of the circuit (number of gates).
    pub fn size(&self) -> usize {
        self.dnnf.size()
    }

    /// Acceptance probability under independent event probabilities; one
    /// bottom-up pass, linear in the circuit size.
    pub fn probability(&self, prob: &dyn Fn(usize) -> Rational) -> Rational {
        self.dnnf.probability(prob)
    }

    /// Weighted model count with general per-literal weights (the circuit is
    /// smooth, so no padding pass is needed); linear in the circuit size.
    pub fn wmc(
        &self,
        pos: &dyn Fn(usize) -> Rational,
        neg: &dyn Fn(usize) -> Rational,
    ) -> Rational {
        self.dnnf.wmc(pos, neg)
    }

    /// Number of event valuations under which the automaton accepts: a
    /// single integer pass thanks to smoothness-by-construction.
    pub fn model_count(&self) -> BigUint {
        self.dnnf.count_models_smooth()
    }
}

/// [`compile_structured_dnnf`] under a `dsdnnf_compile` telemetry span:
/// the instrumented single-threaded pipelines route through this so the
/// sequential d-SDNNF construction shows up in span aggregates (the
/// fragment-parallel engine path records `dsdnnf_fragments` /
/// `dsdnnf_merge` spans of its own instead). Records nothing when
/// `telemetry` is disabled, and never changes the compiled artifact.
pub fn compile_structured_dnnf_traced(
    automaton: &TreeAutomaton,
    tree: &UncertainTree,
    telemetry: &treelineage_telemetry::Telemetry,
) -> Result<StructuredDnnf, StructuredDnnfError> {
    let _span = telemetry.span("dsdnnf_compile");
    compile_structured_dnnf(automaton, tree)
}

/// Compiles the provenance of a deterministic automaton on an uncertain tree
/// directly into a certified smooth d-SDNNF (see the module docs for the
/// invariants and why they hold). Rejects nondeterministic automata and
/// events shared between nodes; determinize / re-event first in those cases.
pub fn compile_structured_dnnf(
    automaton: &TreeAutomaton,
    tree: &UncertainTree,
) -> Result<StructuredDnnf, StructuredDnnfError> {
    StructuredBuilder::new(automaton, tree)?.compile(|_, _, _| None)
}

/// The construction's value at one tree node, in the arenas of the build it
/// belongs to: per *live* automaton state `q` (one some run reaches here),
/// the gate for "the run reaches `q` here" — the true constant (event-free
/// subtrees only) or a gate whose scope is exactly the events of the node's
/// subtree (the smoothness invariant) — and the vtree node covering those
/// events (`None` if the subtree is event-free). Every other state's gate is
/// the false constant and is not stored, so the value's size follows the
/// states live at the node, not the automaton's state count.
#[derive(Clone, Debug)]
pub struct SubtreeGates {
    /// `(state, gate)` for the live states, in ascending state order.
    pub gates: Vec<(State, GateId)>,
    /// The vtree node over the subtree's events, if it has any.
    pub vnode: Option<VtreeId>,
}

/// A subtree compiled into arenas of its own by
/// [`StructuredBuilder::compile_subtree`]: the constants sit at gate ids 0
/// (false) and 1 (true), and every other gate and vtree node is what the
/// whole-tree construction allocates for this subtree, in the same order.
#[derive(Clone, Debug)]
pub struct CompiledSubtree {
    /// The constants followed by the subtree's gates.
    pub circuit: Circuit,
    /// The subtree's vtree nodes.
    pub vtree: Vtree,
    /// The value at the subtree's root.
    pub root: SubtreeGates,
}

/// The Theorem 6.11 construction on a validated input: one post-order pass
/// running the leaf rule and the internal rule, into append-only arenas.
///
/// The pass asks a *splice* callback at every node before entering it; a
/// callback that returns the node's [`SubtreeGates`] (built into the arenas
/// it is handed) stands in for the node's whole subtree, whose interior is
/// then skipped. Because a subtree occupies a contiguous post-order segment
/// and the arenas are append-only, splicing in exactly the gates and vtree
/// nodes [`StructuredBuilder::compile_subtree`] produced for that subtree
/// (constants mapped to the global ids 0/1, the rest offset) reproduces the
/// unspliced build byte for byte. This is the seam the parallel engine
/// compiles fragments on worker threads through.
#[derive(Clone, Copy, Debug)]
pub struct StructuredBuilder<'a> {
    automaton: &'a TreeAutomaton,
    tree: &'a UncertainTree,
}

impl<'a> StructuredBuilder<'a> {
    /// Validates the input: the automaton must be bottom-up deterministic
    /// (else the ∨ over runs is not deterministic), and no event may
    /// control two nodes (else the ∧ over children is not decomposable).
    pub fn new(
        automaton: &'a TreeAutomaton,
        tree: &'a UncertainTree,
    ) -> Result<Self, StructuredDnnfError> {
        if !automaton.is_deterministic() {
            return Err(StructuredDnnfError::NondeterministicAutomaton);
        }
        let mut seen_events: BTreeMap<usize, usize> = BTreeMap::new();
        for node in 0..tree.tree().node_count() {
            if let NodeAnnotation::Event { event, .. } = tree.annotation(NodeId(node)) {
                *seen_events.entry(event).or_insert(0) += 1;
            }
        }
        if let Some((&event, _)) = seen_events.iter().find(|(_, &count)| count > 1) {
            return Err(StructuredDnnfError::SharedEvent { event });
        }
        Ok(StructuredBuilder { automaton, tree })
    }

    /// The automaton the construction runs.
    pub fn automaton(&self) -> &'a TreeAutomaton {
        self.automaton
    }

    /// The uncertain tree the construction runs on.
    pub fn tree(&self) -> &'a UncertainTree {
        self.tree
    }

    /// Builds the whole tree (with `splice`, see the type docs) and
    /// assembles the output: the disjunction of the root's accepting-state
    /// gates, structured by the root's vtree node. Fails only when a
    /// spliced subtree makes the circuit non-decomposable.
    pub fn compile<F>(&self, splice: F) -> Result<StructuredDnnf, StructuredDnnfError>
    where
        F: FnMut(NodeId, &mut Circuit, &mut Vtree) -> Option<SubtreeGates>,
    {
        let CompiledSubtree {
            mut circuit,
            mut vtree,
            root,
        } = self.compile_subtree(self.tree.tree().root(), splice);
        let accepting_states = self.automaton.accepting_states();
        let accepting: Vec<GateId> = root
            .gates
            .iter()
            .filter(|(q, _)| accepting_states.contains(q))
            .map(|&(_, g)| g)
            .collect();
        let output = match accepting.len() {
            0 => FALSE,
            1 => accepting[0],
            _ => circuit.or(accepting),
        };
        circuit.set_output(output);
        if let Some(v) = root.vnode {
            vtree.set_root(v);
        }
        let dnnf =
            Dnnf::from_trusted_circuit(circuit).map_err(StructuredDnnfError::NotDecomposable)?;
        Ok(StructuredDnnf {
            dnnf,
            vtree,
            universe: self.tree.events(),
        })
    }

    /// Builds the subtree rooted at `root` into fresh arenas (constants at
    /// gate ids 0 and 1), asking `splice` at every node before entering it
    /// (see the type docs).
    pub fn compile_subtree<F>(&self, root: NodeId, mut splice: F) -> CompiledSubtree
    where
        F: FnMut(NodeId, &mut Circuit, &mut Vtree) -> Option<SubtreeGates>,
    {
        let tree = self.tree.tree();
        let mut circuit = Circuit::new();
        circuit.constant(false);
        circuit.constant(true);
        let mut vtree = Vtree::new();
        // Post-order with the values of finished nodes on a stack: when a
        // node is exited, its children's values are the top two entries.
        let mut pending: Vec<SubtreeGates> = Vec::new();
        let mut todo = vec![(root, false)];
        // The three `expect`s below are internal invariants of the stack
        // discipline, not reachable from input: an exited node's two
        // children were pushed (left, then right) since it was entered,
        // and the root is exited last.
        while let Some((node, exited)) = todo.pop() {
            let value = if exited {
                let right = pending.pop().expect("post-order: children first");
                let left = pending.pop().expect("post-order: children first");
                self.internal_rule(node, &left, &right, &mut circuit, &mut vtree)
            } else if let Some(spliced) = splice(node, &mut circuit, &mut vtree) {
                debug_assert!(spliced.gates.windows(2).all(|w| w[0].0 < w[1].0));
                spliced
            } else if let Some((left, right)) = tree.children(node) {
                todo.push((node, true));
                todo.push((right, false));
                todo.push((left, false));
                continue;
            } else {
                self.leaf_rule(node, &mut circuit, &mut vtree)
            };
            pending.push(value);
        }
        CompiledSubtree {
            circuit,
            vtree,
            root: pending.pop().expect("the root is finished last"),
        }
    }

    /// A leaf: true for the states a fixed label reaches; for an
    /// event-guarded leaf, the event literal selecting the labels that reach
    /// the state.
    fn leaf_rule(&self, node: NodeId, circuit: &mut Circuit, vtree: &mut Vtree) -> SubtreeGates {
        let gates = match self.tree.annotation(node) {
            NodeAnnotation::Fixed => self
                .automaton
                .leaf_states(self.tree.tree().label(node))
                .iter()
                .map(|&q| (q, TRUE))
                .collect(),
            NodeAnnotation::Event {
                event,
                if_true,
                if_false,
            } => {
                let on_true = self.automaton.leaf_states(if_true);
                let on_false = self.automaton.leaf_states(if_false);
                // `union` runs in ascending state order, the order the
                // gates are allocated in.
                on_true
                    .union(on_false)
                    .map(|&q| {
                        let gate = match (on_true.contains(&q), on_false.contains(&q)) {
                            // Smoothness: the gate must mention the event, so
                            // a both-labels state compiles to the tautology
                            // e ∨ ¬e, not to true.
                            (true, true) => {
                                let v = circuit.var(event);
                                let nv = circuit.not(v);
                                circuit.or(vec![v, nv])
                            }
                            (true, false) => circuit.var(event),
                            _ => {
                                let v = circuit.var(event);
                                circuit.not(v)
                            }
                        };
                        (q, gate)
                    })
                    .collect()
            }
        };
        SubtreeGates {
            gates,
            vnode: own_event(self.tree, node).map(|e| vtree.leaf(e)),
        }
    }

    /// An internal node: per state `q`, the ∨ over the runs reaching `q` of
    /// guard ∧ (left ∧ right), and the vtree split of the node's own event
    /// against its children's scopes.
    fn internal_rule(
        &self,
        node: NodeId,
        left: &SubtreeGates,
        right: &SubtreeGates,
        circuit: &mut Circuit,
        vtree: &mut Vtree,
    ) -> SubtreeGates {
        // Guarded label alternatives, as in `provenance_circuit`.
        let alternatives: Vec<(usize, Option<GateId>)> = match self.tree.annotation(node) {
            NodeAnnotation::Fixed => vec![(self.tree.tree().label(node), None)],
            NodeAnnotation::Event {
                event,
                if_true,
                if_false,
            } => {
                let v = circuit.var(event);
                let not_v = circuit.not(v);
                vec![(if_true, Some(v)), (if_false, Some(not_v))]
            }
        };
        // Iterate over the children's live states only and record each
        // discovered run with its target state: cost per node is
        // |live_l| · |live_r| · |alternatives|, never the automaton's state
        // count, which is what keeps this linear on the lazily-materialized
        // automata of the encoding pipeline (whose total state count far
        // exceeds the per-node live count). Discovery order is (alternative,
        // left state, right state) lexicographic.
        let mut runs: Vec<(State, GateId)> = Vec::new();
        for &(label, guard) in &alternatives {
            for &(ql, gl) in &left.gates {
                for &(qr, gr) in &right.gates {
                    for &q in self.automaton.internal_states(label, ql, qr) {
                        // Nested binary shape guard ∧ (gl ∧ gr): what the
                        // node's vtree split witnesses. Constants true carry
                        // no scope and drop out.
                        let inner = match (gl == TRUE, gr == TRUE) {
                            (true, true) => None,
                            (true, false) => Some(gr),
                            (false, true) => Some(gl),
                            (false, false) => Some(circuit.and(vec![gl, gr])),
                        };
                        let conj = match (guard, inner) {
                            (None, None) => TRUE,
                            (None, Some(g)) => g,
                            (Some(gv), None) => gv,
                            (Some(gv), Some(g)) => circuit.and(vec![gv, g]),
                        };
                        runs.push((q, conj));
                    }
                }
            }
        }
        // One ∨ per reached state, in ascending state order; the stable
        // sort keeps each state's disjuncts in discovery order.
        runs.sort_by_key(|&(q, _)| q);
        let gates: Vec<(State, GateId)> = runs
            .chunk_by(|a, b| a.0 == b.0)
            .map(|disjuncts| {
                let gate = match disjuncts {
                    [(_, only)] => *only,
                    _ => circuit.or(disjuncts.iter().map(|&(_, g)| g).collect()),
                };
                (disjuncts[0].0, gate)
            })
            .collect();
        // Vtree split for this node: own event against the combined
        // children scopes (skipping event-free parts).
        let children_v = match (left.vnode, right.vnode) {
            (None, None) => None,
            (Some(l), None) => Some(l),
            (None, Some(r)) => Some(r),
            (Some(l), Some(r)) => Some(vtree.internal(l, r)),
        };
        let vnode = match (own_event(self.tree, node), children_v) {
            (None, v) => v,
            (Some(e), None) => Some(vtree.leaf(e)),
            (Some(e), Some(v)) => {
                let leaf = vtree.leaf(e);
                Some(vtree.internal(leaf, v))
            }
        };
        SubtreeGates { gates, vnode }
    }
}

/// The constant gates every build allocates first.
const FALSE: GateId = GateId(0);
const TRUE: GateId = GateId(1);

/// The event controlling `node`, if any.
fn own_event(tree: &UncertainTree, node: NodeId) -> Option<usize> {
    match tree.annotation(node) {
        NodeAnnotation::Fixed => None,
        NodeAnnotation::Event { event, .. } => Some(event),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::{exists_one_automaton, parity_automaton};
    use crate::provenance::acceptance_probability_bruteforce;
    use crate::tree::BinaryTree;
    use std::collections::BTreeSet;

    fn uncertain_leaves(n: usize) -> UncertainTree {
        let tree = BinaryTree::comb(&vec![0; n], 2);
        let mut u = UncertainTree::certain(tree);
        let mut leaf_index = 0;
        for node in 0..u.tree().node_count() {
            if u.tree().is_leaf(NodeId(node)) {
                u.set_event(NodeId(node), leaf_index, 1, 0);
                leaf_index += 1;
            }
        }
        u
    }

    #[test]
    fn structured_compile_is_correct_and_certified() {
        let automaton = parity_automaton(2);
        for n in 1..=6 {
            let tree = uncertain_leaves(n);
            let s = compile_structured_dnnf(&automaton, &tree).unwrap();
            // Full certification: all three d-DNNF conditions, smoothness,
            // and the vtree witness.
            assert!(Dnnf::verify(s.dnnf().circuit().clone()).is_ok(), "n={n}");
            assert!(s.dnnf().is_smooth(), "n={n}");
            assert!(s.vtree().respects(s.dnnf().circuit()).is_ok(), "n={n}");
            // Semantics: agrees with acceptance on every valuation.
            let events = tree.events();
            for mask in 0u64..(1u64 << events.len()) {
                let true_events: BTreeSet<usize> = events
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &e)| e)
                    .collect();
                let concrete = tree.instantiate(&|e| true_events.contains(&e));
                assert_eq!(
                    s.dnnf().circuit().evaluate_set(&true_events),
                    automaton.accepts(&concrete),
                    "n={n}, mask={mask}"
                );
            }
        }
    }

    #[test]
    fn model_count_and_probability_match_bruteforce() {
        let automaton = parity_automaton(2);
        let tree = uncertain_leaves(5);
        let s = compile_structured_dnnf(&automaton, &tree).unwrap();
        // Parity of 5 independent bits: half of the 32 valuations are odd.
        assert_eq!(s.model_count().to_u64(), Some(16));
        let prob = |e: usize| Rational::from_ratio_u64(1, e as u64 + 2);
        assert_eq!(
            s.probability(&prob),
            acceptance_probability_bruteforce(&automaton, &tree, &prob)
        );
        // WMC with probability weights equals the probability.
        let neg = |e: usize| prob(e).complement();
        assert_eq!(s.wmc(&prob, &neg), s.probability(&prob));
    }

    #[test]
    fn nondeterministic_automaton_is_rejected() {
        let nta = exists_one_automaton(2);
        let tree = uncertain_leaves(3);
        assert_eq!(
            compile_structured_dnnf(&nta, &tree).unwrap_err(),
            StructuredDnnfError::NondeterministicAutomaton
        );
        // After determinization it compiles, and agrees with the NTA.
        let (dta, _) = nta.determinize();
        let s = compile_structured_dnnf(&dta, &tree).unwrap();
        let prob = |_: usize| Rational::one_half();
        assert_eq!(
            s.probability(&prob),
            acceptance_probability_bruteforce(&nta, &tree, &prob)
        );
    }

    #[test]
    fn shared_event_is_rejected() {
        let automaton = parity_automaton(2);
        let mut tree = uncertain_leaves(3);
        // Make two leaves share event 0.
        let leaves: Vec<NodeId> = (0..tree.tree().node_count())
            .map(NodeId)
            .filter(|&n| tree.tree().is_leaf(n))
            .collect();
        tree.set_event(leaves[1], 0, 1, 0);
        assert_eq!(
            compile_structured_dnnf(&automaton, &tree).unwrap_err(),
            StructuredDnnfError::SharedEvent { event: 0 }
        );
    }

    #[test]
    fn non_decomposable_splice_is_an_error() {
        // Splice event 1 — the right leaf's own event — in at the left
        // leaf: the root's AND then shares a variable between its inputs.
        let automaton = parity_automaton(2);
        let tree = uncertain_leaves(2);
        let builder = StructuredBuilder::new(&automaton, &tree).unwrap();
        let (left, _) = tree.tree().children(tree.tree().root()).unwrap();
        let result = builder.compile(|node, circuit, _| {
            (node == left).then(|| SubtreeGates {
                gates: vec![(1, circuit.var(1))],
                vnode: None,
            })
        });
        assert!(matches!(
            result.unwrap_err(),
            StructuredDnnfError::NotDecomposable(_)
        ));
    }

    #[test]
    fn internal_node_events_and_fixed_leaves() {
        // A tree whose internal node is controlled by an event switching the
        // internal label between 3 (the parity-combining label of
        // `parity_automaton(3)`) and 2 (no transitions: the automaton
        // rejects when event 9 is false, since no run exists).
        let mut t = BinaryTree::new();
        let a = t.leaf(1);
        let b = t.leaf(0);
        let root = t.internal(3, a, b);
        t.set_root(root);
        let mut u = UncertainTree::certain(t);
        u.set_event(root, 9, 3, 2);
        let automaton = parity_automaton(3);
        let s = compile_structured_dnnf(&automaton, &u).unwrap();
        assert!(s.dnnf().is_smooth());
        assert!(s.vtree().respects(s.dnnf().circuit()).is_ok());
        assert_eq!(s.universe(), &[9]);
        // Accepts iff event 9 is true (one 1-leaf, odd).
        assert_eq!(s.model_count().to_u64(), Some(1));
        let one_third = Rational::from_ratio_u64(1, 3);
        assert_eq!(s.probability(&|_| one_third.clone()), one_third);
    }

    #[test]
    fn certain_tree_compiles_to_a_constant() {
        let automaton = parity_automaton(2);
        let tree = UncertainTree::certain(BinaryTree::comb(&[1, 0, 1], 2));
        let s = compile_structured_dnnf(&automaton, &tree).unwrap();
        assert!(s.universe().is_empty());
        assert_eq!(s.model_count().to_u64(), Some(0)); // two 1s: even
        let tree = UncertainTree::certain(BinaryTree::comb(&[1, 0, 0], 2));
        let s = compile_structured_dnnf(&automaton, &tree).unwrap();
        assert_eq!(s.model_count().to_u64(), Some(1));
        assert!(s.probability(&|_| Rational::one_half()).is_one());
    }
}
