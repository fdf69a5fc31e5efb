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
//! The construction is written once, as [`StructuredBuilder`]: one
//! post-order pass over a [`Run`] (the automaton's steps per node, found by
//! one reach pass). [`StructuredBuilder::compile_partitioned`] also records
//! the gate range of each subtree the caller cuts at, the partition the
//! parallel engine (`treelineage-engine`) evaluates fragment-parallel.
//!
//! Probability, weighted model counting and model counting on the result are
//! all linear in its size — the "linear-time probability without OBDD
//! blowup" extension that motivates the d-SDNNF backend.

use crate::automaton::{State, TreeAutomaton};
use crate::run::Run;
use crate::tree::{NodeAnnotation, NodeId, UncertainTree};
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
    /// The assembled circuit failed the syntactic d-DNNF check that
    /// [`Dnnf::from_trusted_circuit`] runs (the construction never builds
    /// such a circuit).
    NotDecomposable(DnnfError),
    /// The run does not fit the tree: a node without an entry, a step
    /// outside its node's alternatives or its children's reach lists, or
    /// steps out of order or repeated.
    InvalidRun {
        /// The first offending node.
        node: NodeId,
        /// What is wrong with the run there.
        reason: String,
    },
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
            StructuredDnnfError::InvalidRun { node, reason } => {
                write!(f, "run at node {}: {reason}", node.0)
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

/// Compiles the provenance of a deterministic automaton on an uncertain tree
/// directly into a certified smooth d-SDNNF (see the module docs for the
/// invariants and why they hold). Rejects nondeterministic automata and
/// events shared between nodes; determinize / re-event first in those cases.
pub fn compile_structured_dnnf(
    automaton: &TreeAutomaton,
    tree: &UncertainTree,
) -> Result<StructuredDnnf, StructuredDnnfError> {
    let run = Run::from_automaton(automaton, tree)?;
    StructuredBuilder::new(&run, tree)?.compile()
}

/// The construction's value at one tree node: per *live* automaton state
/// `q` (one some run reaches here: the node's [`Run::reach`] list), the gate
/// for "the run reaches `q` here" — the true constant (event-free subtrees
/// only) or a gate whose scope is exactly the events of the node's subtree
/// (the smoothness invariant) — and the vtree node covering those events
/// (`None` if the subtree is event-free). Every other state's gate is the
/// false constant and is not stored, so the value's size follows the states
/// live at the node, not the automaton's state count.
struct SubtreeGates {
    /// `(state, gate)` for the live states, in ascending state order.
    gates: Vec<(State, GateId)>,
    /// The vtree node over the subtree's events, if it has any.
    vnode: Option<VtreeId>,
}

/// The Theorem 6.11 construction on a validated input: one post-order pass
/// running the leaf rule and the internal rule over the steps of a [`Run`],
/// into append-only arenas.
#[derive(Clone, Copy, Debug)]
pub struct StructuredBuilder<'a> {
    run: &'a Run,
    tree: &'a UncertainTree,
}

impl<'a> StructuredBuilder<'a> {
    /// Validates the input: the run must fit the tree, with each node's
    /// steps strictly ascending (determinism: else the ∨ over runs is not
    /// deterministic) and inside its children's reach lists, and no event
    /// may control two nodes (else the ∧ over children is not
    /// decomposable).
    pub fn new(run: &'a Run, tree: &'a UncertainTree) -> Result<Self, StructuredDnnfError> {
        run.validate(tree)?;
        let mut events: Vec<usize> = (0..tree.tree().node_count())
            .filter_map(|node| own_event(tree, NodeId(node)))
            .collect();
        events.sort_unstable();
        if let Some(w) = events.windows(2).find(|w| w[0] == w[1]) {
            return Err(StructuredDnnfError::SharedEvent { event: w[0] });
        }
        Ok(StructuredBuilder { run, tree })
    }

    /// Builds the whole tree and assembles the output: the disjunction of
    /// the root's accepting-state gates, structured by the root's vtree
    /// node.
    pub fn compile(&self) -> Result<StructuredDnnf, StructuredDnnfError> {
        self.compile_partitioned(&[])
            .map(|(structured, _)| structured)
    }

    /// [`StructuredBuilder::compile`], also returning per cut the
    /// `[start, end)` gate-id range of its subtree: the circuit's size when
    /// the pass enters the cut and when it finishes it. The arenas are
    /// append-only and a subtree is a contiguous post-order segment, so each
    /// range is one block whose gates read only the block itself and the
    /// two constants. `cuts` must be an antichain (no cut inside another's
    /// subtree) listed in post-order; a cut out of that order is not
    /// recorded.
    pub fn compile_partitioned(
        &self,
        cuts: &[NodeId],
    ) -> Result<(StructuredDnnf, Vec<(usize, usize)>), StructuredDnnfError> {
        let tree = self.tree.tree();
        let mut circuit = Circuit::new();
        circuit.constant(false);
        circuit.constant(true);
        let mut vtree = Vtree::new();
        let mut fragments = Vec::with_capacity(cuts.len());
        // The cut being built and the circuit size when it was entered; at
        // most one is open, since cuts do not nest.
        let mut open: Option<(NodeId, usize)> = None;
        let mut next_cut = 0;
        // Post-order with the values of finished nodes on a stack: when a
        // node is exited, its children's values are the top two entries.
        let mut pending: Vec<SubtreeGates> = Vec::new();
        let mut todo = vec![(tree.root(), false)];
        // The internal rule's per-node run list, reused across nodes.
        let mut runs: Vec<(State, GateId)> = Vec::new();
        // The three `expect`s below are internal invariants of the stack
        // discipline, not reachable from input: an exited node's two
        // children were pushed (left, then right) since it was entered,
        // and the root is exited last.
        while let Some((node, exited)) = todo.pop() {
            if !exited && open.is_none() && cuts.get(next_cut) == Some(&node) {
                open = Some((node, circuit.size()));
                next_cut += 1;
            }
            let value = if exited {
                let right = pending.pop().expect("post-order: children first");
                let left = pending.pop().expect("post-order: children first");
                self.internal_rule(node, &left, &right, &mut runs, &mut circuit, &mut vtree)
            } else if let Some((left, right)) = tree.children(node) {
                todo.push((node, true));
                todo.push((right, false));
                todo.push((left, false));
                continue;
            } else {
                self.leaf_rule(node, &mut circuit, &mut vtree)
            };
            if let Some((_, start)) = open.filter(|&(cut, _)| cut == node) {
                fragments.push((start, circuit.size()));
                open = None;
            }
            pending.push(value);
        }
        let root = pending.pop().expect("the root is finished last");
        let accepting: Vec<GateId> = root
            .gates
            .iter()
            .filter(|(q, _)| self.run.accepting().binary_search(q).is_ok())
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
        let structured = StructuredDnnf {
            dnnf,
            vtree,
            universe: self.tree.events(),
        };
        Ok((structured, fragments))
    }

    /// A leaf: true for the state a fixed label reaches; for an
    /// event-guarded leaf, the event literal selecting the labels that reach
    /// the state.
    fn leaf_rule(&self, node: NodeId, circuit: &mut Circuit, vtree: &mut Vtree) -> SubtreeGates {
        let steps = self.run.steps(node);
        let gates = match self.tree.annotation(node) {
            NodeAnnotation::Fixed => steps.iter().map(|s| (s.target, TRUE)).collect(),
            NodeAnnotation::Event { event, .. } => {
                let reaches =
                    |alt: usize, q: State| steps.iter().any(|s| (s.alt, s.target) == (alt, q));
                // The reach list is ascending, the order the gates are
                // allocated in.
                self.run
                    .reach(node)
                    .iter()
                    .map(|&q| {
                        let gate = match (reaches(0, q), reaches(1, q)) {
                            // Smoothness: the gate must mention the event, so
                            // a both-labels state compiles to the tautology
                            // e ∨ ¬e, not to true.
                            (true, true) => {
                                let v = circuit.var(event);
                                let nv = circuit.not(v);
                                circuit.or([v, nv])
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

    /// An internal node: per state `q`, the ∨ over the run's steps reaching
    /// `q` of guard ∧ (left ∧ right), and the vtree split of the node's own
    /// event against its children's scopes. `runs` is scratch space.
    fn internal_rule(
        &self,
        node: NodeId,
        left: &SubtreeGates,
        right: &SubtreeGates,
        runs: &mut Vec<(State, GateId)>,
        circuit: &mut Circuit,
        vtree: &mut Vtree,
    ) -> SubtreeGates {
        // The guard of each label alternative, as in `provenance_circuit`.
        let guards = match self.tree.annotation(node) {
            NodeAnnotation::Fixed => [None, None],
            NodeAnnotation::Event { event, .. } => {
                let v = circuit.var(event);
                let not_v = circuit.not(v);
                [Some(v), Some(not_v)]
            }
        };
        // One run per step, in step order: (alternative, left state, right
        // state) lexicographic. The children's gates list exactly their
        // reach states, so a step's indices address them directly; the cost
        // per node is its step count, never the automaton's state count.
        runs.clear();
        for step in self.run.steps(node) {
            let (gl, gr) = (left.gates[step.left].1, right.gates[step.right].1);
            // Nested binary shape guard ∧ (gl ∧ gr): what the node's vtree
            // split witnesses. Constants true carry no scope and drop out.
            let inner = match (gl == TRUE, gr == TRUE) {
                (true, true) => None,
                (true, false) => Some(gr),
                (false, true) => Some(gl),
                (false, false) => Some(circuit.and([gl, gr])),
            };
            let conj = match (guards[step.alt], inner) {
                (None, None) => TRUE,
                (None, Some(g)) => g,
                (Some(gv), None) => gv,
                (Some(gv), Some(g)) => circuit.and([gv, g]),
            };
            runs.push((step.target, conj));
        }
        // One ∨ per reached state, in ascending state order; the stable
        // sort keeps each state's disjuncts in step order.
        runs.sort_by_key(|&(q, _)| q);
        let gates: Vec<(State, GateId)> = runs
            .chunk_by(|a, b| a.0 == b.0)
            .map(|disjuncts| {
                let gate = match disjuncts {
                    [(_, only)] => *only,
                    _ => circuit.or(disjuncts.iter().map(|&(_, g)| g).collect::<Vec<_>>()),
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
