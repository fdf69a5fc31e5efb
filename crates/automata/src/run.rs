//! The run of a deterministic automaton on an uncertain tree, as explicit
//! per-node tables: the input of the Theorem 6.11 construction.
//!
//! One bottom-up reach pass finds, per node, the states some valuation of
//! the events reaches there, and every *step* that reaches one: the label
//! alternative taken, the child states it reads (as indices into the
//! children's reach lists) and its target. [`StructuredBuilder`](
//! crate::StructuredBuilder) turns each step into one run of its ∨ over
//! runs and never looks the transition up again. Keeping a table per
//! decomposition node instead of an automaton is the move Baste et al.
//! make against Courcelle's constant.
//!
//! Two producers fill the same table: [`Run::from_automaton`] for a
//! general [`TreeAutomaton`], and the encoding crate's query machine,
//! which computes transitions on demand through [`Run::from_transitions`]
//! and never builds an automaton.

use crate::automaton::{State, TreeAutomaton};
use crate::structured::StructuredDnnfError;
use crate::tree::{Label, NodeId, UncertainTree};

/// One step of a run at a node: under label alternative `alt` (an index
/// into [`UncertainTree::alternatives`]), the node reads the `left`-th
/// state of its left child's reach list and the `right`-th of its right
/// child's, and reaches `target`. At a leaf, `left` and `right` are 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Step {
    /// The label alternative taken.
    pub alt: usize,
    /// Index into the left child's reach list.
    pub left: usize,
    /// Index into the right child's reach list.
    pub right: usize,
    /// The state reached.
    pub target: State,
}

impl Step {
    /// The order a node's steps are discovered in, and must be listed in.
    fn key(&self) -> (usize, usize, usize) {
        (self.alt, self.left, self.right)
    }
}

/// The run of a deterministic automaton on an uncertain tree under every
/// event valuation at once, in flat CSR arrays: per node, one range into a
/// shared step array (the node's steps, ascending in `(alt, left, right)`:
/// at most one target per input is determinism) and one range into a
/// shared state array (its reach list: the distinct step targets,
/// ascending), plus the root's accepting reach states.
#[derive(Clone, Debug)]
pub struct Run {
    steps: Vec<Step>,
    step_ranges: Vec<(usize, usize)>,
    reach: Vec<State>,
    reach_ranges: Vec<(usize, usize)>,
    root: NodeId,
    accepting: Vec<State>,
}

impl Run {
    /// The reach pass over `tree` (post-order), with the transitions given
    /// as functions: `leaf(label)` is the state a leaf reading `label`
    /// reaches, `internal(label, left, right)` the state an internal node
    /// reaches from child states `left` and `right` (`None`: no
    /// transition). `internal` is asked once per alternative and pair of
    /// child reach states, in step order; its first error ends the pass.
    /// The run accepts nothing until [`Run::accept`] names its accepting
    /// states.
    pub fn from_transitions<E>(
        tree: &UncertainTree,
        mut leaf: impl FnMut(Label) -> Option<State>,
        mut internal: impl FnMut(Label, State, State) -> Result<Option<State>, E>,
    ) -> Result<Run, E> {
        let structure = tree.tree();
        let nodes = structure.node_count();
        let mut run = Run {
            steps: Vec::new(),
            step_ranges: vec![(0, 0); nodes],
            reach: Vec::new(),
            reach_ranges: vec![(0, 0); nodes],
            root: structure.root(),
            accepting: Vec::new(),
        };
        let mut targets: Vec<State> = Vec::new();
        for node in structure.post_order() {
            let start = run.steps.len();
            match structure.children(node) {
                None => {
                    for (alt, label) in tree.alternatives(node).enumerate() {
                        if let Some(target) = leaf(label) {
                            run.steps.push(Step {
                                alt,
                                left: 0,
                                right: 0,
                                target,
                            });
                        }
                    }
                }
                Some((l, r)) => {
                    let (lefts, rights) = (run.reach_ranges[l.0], run.reach_ranges[r.0]);
                    for (alt, label) in tree.alternatives(node).enumerate() {
                        for left in 0..lefts.1 - lefts.0 {
                            let a = run.reach[lefts.0 + left];
                            for right in 0..rights.1 - rights.0 {
                                let b = run.reach[rights.0 + right];
                                if let Some(target) = internal(label, a, b)? {
                                    run.steps.push(Step {
                                        alt,
                                        left,
                                        right,
                                        target,
                                    });
                                }
                            }
                        }
                    }
                }
            }
            run.step_ranges[node.0] = (start, run.steps.len());
            // The reach list: the node's distinct targets, ascending.
            targets.clear();
            targets.extend(run.steps[start..].iter().map(|step| step.target));
            targets.sort_unstable();
            targets.dedup();
            let from = run.reach.len();
            run.reach.extend_from_slice(&targets);
            run.reach_ranges[node.0] = (from, run.reach.len());
        }
        Ok(run)
    }

    /// Sets the accepting states: the root's reach states that satisfy
    /// `is_accepting`.
    pub fn accept(&mut self, is_accepting: impl Fn(State) -> bool) {
        let root = self.root;
        self.accepting = self
            .reach(root)
            .iter()
            .copied()
            .filter(|&q| is_accepting(q))
            .collect();
    }

    /// The run of a general automaton: rejects a nondeterministic one (the
    /// ∨ over its runs would not be deterministic; determinize first), then
    /// runs the reach pass over its transition tables.
    pub fn from_automaton(
        automaton: &TreeAutomaton,
        tree: &UncertainTree,
    ) -> Result<Run, StructuredDnnfError> {
        if !automaton.is_deterministic() {
            return Err(StructuredDnnfError::NondeterministicAutomaton);
        }
        let first = |states: &std::collections::BTreeSet<State>| states.first().copied();
        let mut run = Run::from_transitions(
            tree,
            |label| first(automaton.leaf_states(label)),
            |label, a, b| Ok(first(automaton.internal_states(label, a, b))),
        )?;
        run.accept(|q| automaton.accepting_states().contains(&q));
        Ok(run)
    }

    /// The automaton view of the run: over `state_count` states and
    /// `alphabet_size` labels, exactly the transitions its steps took, and
    /// its accepting states. On `tree` (the tree of the run) it accepts
    /// what the run accepts; it is no automaton for any other tree.
    pub fn to_automaton(
        &self,
        tree: &UncertainTree,
        state_count: usize,
        alphabet_size: usize,
    ) -> TreeAutomaton {
        let structure = tree.tree();
        let mut automaton = TreeAutomaton::new(state_count, alphabet_size);
        for node in (0..self.node_count()).map(NodeId) {
            let labels: Vec<Label> = tree.alternatives(node).collect();
            for step in self.steps(node) {
                let label = labels[step.alt];
                match structure.children(node) {
                    None => automaton.add_leaf_transition(label, step.target),
                    Some((l, r)) => automaton.add_internal_transition(
                        label,
                        self.reach(l)[step.left],
                        self.reach(r)[step.right],
                        step.target,
                    ),
                }
            }
        }
        for &q in &self.accepting {
            automaton.add_accepting(q);
        }
        automaton
    }

    /// Number of tree nodes the run covers.
    pub fn node_count(&self) -> usize {
        self.step_ranges.len()
    }

    /// The steps at `node`, ascending in `(alt, left, right)`.
    pub fn steps(&self, node: NodeId) -> &[Step] {
        let (start, end) = self.step_ranges[node.0];
        &self.steps[start..end]
    }

    /// The states reachable at `node` under some valuation, ascending.
    pub fn reach(&self, node: NodeId) -> &[State] {
        let (start, end) = self.reach_ranges[node.0];
        &self.reach[start..end]
    }

    /// The accepting states reachable at the root, ascending.
    pub fn accepting(&self) -> &[State] {
        &self.accepting
    }

    /// Checks the run against `tree` before the construction indexes by
    /// it: one entry per node and, per node, steps strictly ascending in
    /// `(alt, left, right)` (so at most one target per input) with every
    /// alternative a label of the node and every child index inside the
    /// child's reach list (0 at a leaf).
    pub(crate) fn validate(&self, tree: &UncertainTree) -> Result<(), StructuredDnnfError> {
        let structure = tree.tree();
        if self.node_count() != structure.node_count() || self.root != structure.root() {
            return Err(StructuredDnnfError::InvalidRun {
                node: structure.root(),
                reason: format!(
                    "a run of {} nodes rooted at node {} on a tree of {} rooted at node {}",
                    self.node_count(),
                    self.root.0,
                    structure.node_count(),
                    structure.root().0
                ),
            });
        }
        for node in (0..self.node_count()).map(NodeId) {
            let invalid = |reason: String| Err(StructuredDnnfError::InvalidRun { node, reason });
            let alternatives = tree.alternatives(node).count();
            let (lefts, rights) = match structure.children(node) {
                None => (1, 1),
                Some((l, r)) => (self.reach(l).len(), self.reach(r).len()),
            };
            let steps = self.steps(node);
            if let Some(step) = steps
                .iter()
                .find(|s| s.alt >= alternatives || s.left >= lefts || s.right >= rights)
            {
                return invalid(format!(
                    "step {step:?} outside {alternatives} alternatives and \
                     child reach lists of {lefts} and {rights} states"
                ));
            }
            if let Some(w) = steps.windows(2).find(|w| w[0].key() >= w[1].key()) {
                return invalid(format!(
                    "steps not strictly ascending: {:?} then {:?}",
                    w[0], w[1]
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::parity_automaton;
    use crate::structured::StructuredBuilder;
    use crate::tree::BinaryTree;

    /// The builder's verdict on `run` over `tree`.
    fn check(run: &Run, tree: &UncertainTree) -> Result<(), StructuredDnnfError> {
        StructuredBuilder::new(run, tree).map(|_| ())
    }

    /// Two event leaves under a parity root: reach [0, 1] everywhere.
    fn two_leaves() -> UncertainTree {
        let mut u = UncertainTree::certain(BinaryTree::comb(&[0, 0], 2));
        for (event, leaf) in [NodeId(0), NodeId(1)].into_iter().enumerate() {
            u.set_event(leaf, event, 1, 0);
        }
        u
    }

    #[test]
    fn parity_run_lists_every_pair() {
        let u = two_leaves();
        let run = Run::from_automaton(&parity_automaton(2), &u).unwrap();
        let root = u.tree().root();
        assert_eq!(run.reach(NodeId(0)), &[0, 1]);
        assert_eq!(run.reach(root), &[0, 1]);
        assert_eq!(run.accepting(), &[1]);
        let targets: Vec<(usize, usize, State)> = run
            .steps(root)
            .iter()
            .map(|s| (s.left, s.right, s.target))
            .collect();
        assert_eq!(targets, [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]);
        assert!(check(&run, &u).is_ok());
    }

    #[test]
    fn duplicated_step_is_rejected() {
        let u = two_leaves();
        let mut run = Run::from_automaton(&parity_automaton(2), &u).unwrap();
        let root = u.tree().root();
        // Repeat the root's first step in place of its second.
        let (start, _) = run.step_ranges[root.0];
        run.steps[start + 1] = run.steps[start];
        assert!(matches!(
            check(&run, &u),
            Err(StructuredDnnfError::InvalidRun { node, .. }) if node == root
        ));
    }

    #[test]
    fn out_of_range_step_is_rejected() {
        let u = two_leaves();
        let root = u.tree().root();
        let bad: [fn(&mut Step); 3] = [|s| s.right = 2, |s| s.alt = 1, |s| s.left = 5];
        for make in bad {
            let mut run = Run::from_automaton(&parity_automaton(2), &u).unwrap();
            let (_, end) = run.step_ranges[root.0];
            make(&mut run.steps[end - 1]);
            assert!(matches!(
                check(&run, &u),
                Err(StructuredDnnfError::InvalidRun { node, .. }) if node == root
            ));
        }
        // A leaf step reads no child.
        let mut run = Run::from_automaton(&parity_automaton(2), &u).unwrap();
        let (start, _) = run.step_ranges[0];
        run.steps[start].left = 1;
        assert!(matches!(
            check(&run, &u),
            Err(StructuredDnnfError::InvalidRun {
                node: NodeId(0),
                ..
            })
        ));
    }

    #[test]
    fn run_of_another_tree_is_rejected() {
        let u = two_leaves();
        let run = Run::from_automaton(&parity_automaton(2), &u).unwrap();
        let bigger = UncertainTree::certain(BinaryTree::comb(&[0, 0, 0], 2));
        assert!(matches!(
            check(&run, &bigger),
            Err(StructuredDnnfError::InvalidRun { .. })
        ));
    }
}
