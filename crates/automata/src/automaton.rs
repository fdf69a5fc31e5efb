//! Bottom-up tree automata on full binary trees.
//!
//! The tractability backbone of the paper (via \[2\] and Courcelle's theorem
//! \[13\]) is the ability to run a bottom-up tree automaton compiled from the
//! query over a tree encoding of the instance. This module implements
//! nondeterministic bottom-up tree automata (bNTA), their deterministic
//! restriction (bDTA), the subset-construction determinization used by
//! Theorem 6.11 ("one can always make a tree automaton deterministic \[12\], at
//! the cost of an increased constant factor"), products, complement and
//! emptiness testing.
//!
//! ```
//! use treelineage_automata::{BinaryTree, TreeAutomaton};
//!
//! // States 0 = even, 1 = odd number of 1-leaves; label 2 combines.
//! let mut a = TreeAutomaton::new(2, 3);
//! a.add_leaf_transition(0, 0);
//! a.add_leaf_transition(1, 1);
//! for l in 0..2 {
//!     for r in 0..2 {
//!         a.add_internal_transition(2, l, r, (l + r) % 2);
//!     }
//! }
//! a.add_accepting(1);
//! assert!(a.is_deterministic());
//! assert!(a.accepts(&BinaryTree::comb(&[1, 0], 2)));
//! assert!(!a.accepts(&BinaryTree::comb(&[1, 1], 2)));
//! ```

use crate::tree::{BinaryTree, Label};
use std::collections::{BTreeMap, BTreeSet};

/// A state of a tree automaton (a dense index).
pub type State = usize;

/// Error of [`TreeAutomaton::determinize_with_budget`]: the subset
/// construction needed more than the budgeted number of states. On
/// adversarial automata (many states whose subsets are all reachable) the
/// construction is exponential; the budget turns that into a typed error
/// instead of unbounded time and memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeterminizeError {
    /// The state budget that was exceeded.
    pub budget: usize,
}

impl std::fmt::Display for DeterminizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "determinization exceeded the budget of {} subset states",
            self.budget
        )
    }
}

impl std::error::Error for DeterminizeError {}

/// A nondeterministic bottom-up tree automaton over the alphabet
/// `{0, ..., alphabet_size - 1}` on full binary trees.
#[derive(Clone, Debug)]
pub struct TreeAutomaton {
    state_count: usize,
    alphabet_size: usize,
    /// `leaf_transitions[label]` = set of states reachable at a leaf with
    /// that label.
    leaf_transitions: Vec<BTreeSet<State>>,
    /// `internal_transitions[label]` maps `(left_state, right_state)` to the
    /// set of reachable states.
    internal_transitions: Vec<BTreeMap<(State, State), BTreeSet<State>>>,
    accepting: BTreeSet<State>,
}

impl TreeAutomaton {
    /// Creates an automaton with the given number of states and alphabet
    /// size and no transitions.
    pub fn new(state_count: usize, alphabet_size: usize) -> Self {
        TreeAutomaton {
            state_count,
            alphabet_size,
            leaf_transitions: vec![BTreeSet::new(); alphabet_size],
            internal_transitions: vec![BTreeMap::new(); alphabet_size],
            accepting: BTreeSet::new(),
        }
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.state_count
    }

    /// Alphabet size.
    pub fn alphabet_size(&self) -> usize {
        self.alphabet_size
    }

    /// Adds a leaf transition: a leaf labelled `label` may evaluate to
    /// `state`.
    pub fn add_leaf_transition(&mut self, label: Label, state: State) {
        assert!(label < self.alphabet_size && state < self.state_count);
        self.leaf_transitions[label].insert(state);
    }

    /// Adds an internal transition: a node labelled `label` whose children
    /// evaluate to `left` and `right` may evaluate to `state`.
    pub fn add_internal_transition(
        &mut self,
        label: Label,
        left: State,
        right: State,
        state: State,
    ) {
        assert!(label < self.alphabet_size);
        assert!(left < self.state_count && right < self.state_count && state < self.state_count);
        self.internal_transitions[label]
            .entry((left, right))
            .or_default()
            .insert(state);
    }

    /// Marks a state as accepting.
    pub fn add_accepting(&mut self, state: State) {
        assert!(state < self.state_count);
        self.accepting.insert(state);
    }

    /// The accepting states.
    pub fn accepting_states(&self) -> &BTreeSet<State> {
        &self.accepting
    }

    /// The states a leaf with the given label may evaluate to.
    pub fn leaf_states(&self, label: Label) -> &BTreeSet<State> {
        &self.leaf_transitions[label]
    }

    /// The states an internal node with the given label and child states may
    /// evaluate to (borrowed: empty when no transition applies).
    pub fn internal_states(&self, label: Label, left: State, right: State) -> &BTreeSet<State> {
        static NONE: BTreeSet<State> = BTreeSet::new();
        self.internal_transitions[label]
            .get(&(left, right))
            .unwrap_or(&NONE)
    }

    /// Every internal transition `(label, left, right, target)`, ordered by
    /// label, then child states, then target.
    pub fn internal_transitions(&self) -> impl Iterator<Item = (Label, State, State, State)> + '_ {
        self.internal_transitions
            .iter()
            .enumerate()
            .flat_map(|(label, map)| {
                map.iter().flat_map(move |(&(left, right), targets)| {
                    targets
                        .iter()
                        .map(move |&target| (label, left, right, target))
                })
            })
    }

    /// Returns `true` if the automaton is (bottom-up) deterministic: every
    /// leaf label and every (label, left, right) combination leads to at most
    /// one state.
    pub fn is_deterministic(&self) -> bool {
        self.leaf_transitions.iter().all(|s| s.len() <= 1)
            && self
                .internal_transitions
                .iter()
                .all(|m| m.values().all(|s| s.len() <= 1))
    }

    /// Computes the set of states reachable at every node of the tree
    /// (bottom-up), indexed by node id.
    pub fn reachable_states(&self, tree: &BinaryTree) -> Vec<BTreeSet<State>> {
        let mut states: Vec<BTreeSet<State>> = vec![BTreeSet::new(); tree.node_count()];
        for node in tree.post_order() {
            let label = tree.label(node);
            assert!(label < self.alphabet_size, "label {label} outside alphabet");
            states[node.0] = match tree.children(node) {
                None => self.leaf_transitions[label].clone(),
                Some((l, r)) => {
                    let mut out = BTreeSet::new();
                    for &ls in &states[l.0] {
                        for &rs in &states[r.0] {
                            out.extend(self.internal_states(label, ls, rs));
                        }
                    }
                    out
                }
            };
        }
        states
    }

    /// Returns `true` if the automaton accepts the tree (some run reaches an
    /// accepting state at the root).
    pub fn accepts(&self, tree: &BinaryTree) -> bool {
        let states = self.reachable_states(tree);
        states[tree.root().0]
            .iter()
            .any(|s| self.accepting.contains(s))
    }

    /// Determinizes the automaton by the subset construction (\[12\], as used
    /// in the proof of Theorem 6.11). The resulting automaton is complete and
    /// deterministic and accepts the same trees. States of the result are
    /// subsets of the original states; the mapping back is returned alongside.
    ///
    /// Unbudgeted: on adversarial alphabets the subset construction is
    /// exponential in the state count, so pipelines that accept untrusted
    /// automata should call [`TreeAutomaton::determinize_with_budget`]
    /// instead and handle the typed error.
    pub fn determinize(&self) -> (TreeAutomaton, Vec<BTreeSet<State>>) {
        self.determinize_with_budget(usize::MAX)
            .expect("unbounded budget cannot be exceeded")
    }

    /// [`TreeAutomaton::determinize`] with a cap on the number of subset
    /// states: enumeration stops with a typed [`DeterminizeError`] as soon
    /// as more than `budget` subsets become reachable, instead of silently
    /// consuming exponential time and memory.
    pub fn determinize_with_budget(
        &self,
        budget: usize,
    ) -> Result<(TreeAutomaton, Vec<BTreeSet<State>>), DeterminizeError> {
        // Enumerate reachable subsets bottom-up.
        let mut subsets: Vec<BTreeSet<State>> = Vec::new();
        let mut index: BTreeMap<BTreeSet<State>, usize> = BTreeMap::new();
        let intern = |s: BTreeSet<State>,
                      subsets: &mut Vec<BTreeSet<State>>,
                      index: &mut BTreeMap<BTreeSet<State>, usize>|
         -> Result<usize, DeterminizeError> {
            if let Some(&i) = index.get(&s) {
                return Ok(i);
            }
            if subsets.len() >= budget {
                return Err(DeterminizeError { budget });
            }
            let i = subsets.len();
            index.insert(s.clone(), i);
            subsets.push(s);
            Ok(i)
        };
        // Start with leaf subsets for every label.
        let mut leaf_map: Vec<usize> = Vec::with_capacity(self.alphabet_size);
        for label in 0..self.alphabet_size {
            let subset = self.leaf_transitions[label].clone();
            leaf_map.push(intern(subset, &mut subsets, &mut index)?);
        }
        // Saturate internal transitions.
        let mut internal_map: BTreeMap<(Label, usize, usize), usize> = BTreeMap::new();
        loop {
            let current = subsets.len();
            let snapshot: Vec<BTreeSet<State>> = subsets.clone();
            for label in 0..self.alphabet_size {
                for (li, ls) in snapshot.iter().enumerate() {
                    for (ri, rs) in snapshot.iter().enumerate() {
                        if internal_map.contains_key(&(label, li, ri)) {
                            continue;
                        }
                        let mut out = BTreeSet::new();
                        for &l in ls {
                            for &r in rs {
                                out.extend(self.internal_states(label, l, r));
                            }
                        }
                        let target = intern(out, &mut subsets, &mut index)?;
                        internal_map.insert((label, li, ri), target);
                    }
                }
            }
            if subsets.len() == current
                && internal_map.len() == self.alphabet_size * current * current
            {
                break;
            }
        }
        let mut det = TreeAutomaton::new(subsets.len(), self.alphabet_size);
        for (label, &target) in leaf_map.iter().enumerate() {
            det.add_leaf_transition(label, target);
        }
        for (&(label, l, r), &target) in &internal_map {
            det.add_internal_transition(label, l, r, target);
        }
        for (i, subset) in subsets.iter().enumerate() {
            if subset.iter().any(|s| self.accepting.contains(s)) {
                det.add_accepting(i);
            }
        }
        Ok((det, subsets))
    }

    /// The product automaton accepting the intersection of the two languages.
    pub fn product(&self, other: &TreeAutomaton) -> TreeAutomaton {
        assert_eq!(self.alphabet_size, other.alphabet_size);
        let n = other.state_count;
        let pair = |a: State, b: State| a * n + b;
        let mut out = TreeAutomaton::new(self.state_count * n, self.alphabet_size);
        for label in 0..self.alphabet_size {
            for &a in &self.leaf_transitions[label] {
                for &b in &other.leaf_transitions[label] {
                    out.add_leaf_transition(label, pair(a, b));
                }
            }
            for ((al, ar), atargets) in &self.internal_transitions[label] {
                for ((bl, br), btargets) in &other.internal_transitions[label] {
                    for &at in atargets {
                        for &bt in btargets {
                            out.add_internal_transition(
                                label,
                                pair(*al, *bl),
                                pair(*ar, *br),
                                pair(at, bt),
                            );
                        }
                    }
                }
            }
        }
        for &a in &self.accepting {
            for &b in &other.accepting {
                out.add_accepting(pair(a, b));
            }
        }
        out
    }

    /// The complement automaton (accepts exactly the trees this automaton
    /// rejects), obtained by determinizing and flipping the accepting states.
    pub fn complement(&self) -> TreeAutomaton {
        let (det, subsets) = self.determinize();
        let mut out = det.clone();
        out.accepting = (0..det.state_count)
            .filter(|&i| !subsets[i].iter().any(|s| self.accepting.contains(s)))
            .collect();
        out
    }

    /// Returns `true` if the automaton accepts no tree at all.
    pub fn is_empty(&self) -> bool {
        // Saturate the set of non-empty states (states reachable by some tree).
        let mut nonempty: BTreeSet<State> = BTreeSet::new();
        for label in 0..self.alphabet_size {
            nonempty.extend(self.leaf_transitions[label].iter().copied());
        }
        loop {
            let before = nonempty.len();
            for label in 0..self.alphabet_size {
                for ((l, r), targets) in &self.internal_transitions[label] {
                    if nonempty.contains(l) && nonempty.contains(r) {
                        nonempty.extend(targets.iter().copied());
                    }
                }
            }
            if nonempty.len() == before {
                break;
            }
        }
        !nonempty.iter().any(|s| self.accepting.contains(s))
    }
}

/// The deterministic automaton on alphabet `{0, 1}` (leaf labels) with
/// internal label `internal` that accepts trees whose number of `1`-labelled
/// leaves is odd — the tree-automaton counterpart of the parity lineage of
/// Proposition 7.3, used in tests and by the probabilistic-XML example.
pub fn parity_automaton(internal: Label) -> TreeAutomaton {
    // States: 0 = even, 1 = odd.
    let alphabet = internal + 1;
    let mut a = TreeAutomaton::new(2, alphabet.max(2));
    a.add_leaf_transition(0, 0);
    a.add_leaf_transition(1, 1);
    for l in 0..2 {
        for r in 0..2 {
            a.add_internal_transition(internal, l, r, (l + r) % 2);
        }
    }
    a.add_accepting(1);
    a
}

/// The nondeterministic automaton on leaf alphabet `{0, 1}` that accepts
/// trees containing at least one `1` leaf (written nondeterministically:
/// a `1` leaf may go to either state, so determinization is non-trivial).
pub fn exists_one_automaton(internal: Label) -> TreeAutomaton {
    // States: 0 = "not yet seen", 1 = "seen a 1".
    let alphabet = internal + 1;
    let mut a = TreeAutomaton::new(2, alphabet.max(2));
    a.add_leaf_transition(0, 0);
    a.add_leaf_transition(1, 1);
    a.add_leaf_transition(1, 0); // nondeterministic: may "ignore" the 1
    for l in 0..2 {
        for r in 0..2 {
            let target = if l == 1 || r == 1 { 1 } else { 0 };
            a.add_internal_transition(internal, l, r, target);
        }
    }
    a.add_accepting(1);
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::BinaryTree;

    fn leaf_word_tree(bits: &[Label]) -> BinaryTree {
        BinaryTree::comb(bits, 2)
    }

    #[test]
    fn parity_automaton_accepts_odd_trees() {
        let a = parity_automaton(2);
        assert!(a.is_deterministic());
        for bits in [vec![1], vec![0, 1, 0], vec![1, 1, 1], vec![0, 0, 1, 1, 1]] {
            let tree = leaf_word_tree(&bits);
            let ones = bits.iter().filter(|&&b| b == 1).count();
            assert_eq!(a.accepts(&tree), ones % 2 == 1, "bits {bits:?}");
        }
    }

    #[test]
    fn nondeterministic_automaton_and_determinization() {
        let a = exists_one_automaton(2);
        assert!(!a.is_deterministic());
        let (det, _) = a.determinize();
        assert!(det.is_deterministic());
        for bits in [vec![0, 0, 0], vec![0, 1, 0], vec![1], vec![0]] {
            let tree = leaf_word_tree(&bits);
            let expected = bits.contains(&1);
            assert_eq!(a.accepts(&tree), expected, "NTA on {bits:?}");
            assert_eq!(det.accepts(&tree), expected, "DTA on {bits:?}");
        }
    }

    #[test]
    fn product_automaton_intersects_languages() {
        // Trees with an odd number of ones AND at least one one = odd number
        // of ones (non-zero). The product should agree with the conjunction.
        let parity = parity_automaton(2);
        let exists = exists_one_automaton(2);
        let product = parity.product(&exists);
        for bits in [vec![0, 0], vec![1, 0], vec![1, 1], vec![1, 1, 1]] {
            let tree = leaf_word_tree(&bits);
            let expected = parity.accepts(&tree) && exists.accepts(&tree);
            assert_eq!(product.accepts(&tree), expected, "{bits:?}");
        }
    }

    #[test]
    fn complement_automaton() {
        let parity = parity_automaton(2);
        let complement = parity.complement();
        for bits in [vec![0], vec![1], vec![1, 1], vec![1, 0, 1, 1]] {
            let tree = leaf_word_tree(&bits);
            assert_eq!(complement.accepts(&tree), !parity.accepts(&tree));
        }
    }

    #[test]
    fn determinize_budget_guards_subset_blowup() {
        // Adversarial automaton: label 0 unions child states, so every
        // nonempty subset of the 12 states is reachable (2^12 - 1 subsets).
        let n = 12;
        let mut a = TreeAutomaton::new(n, n);
        for i in 0..n {
            a.add_leaf_transition(i, i);
        }
        for l in 0..n {
            for r in 0..n {
                a.add_internal_transition(0, l, r, l);
                a.add_internal_transition(0, l, r, r);
            }
        }
        a.add_accepting(0);
        assert_eq!(
            a.determinize_with_budget(64).unwrap_err(),
            DeterminizeError { budget: 64 }
        );
        // A sufficient budget succeeds and matches the unbudgeted result.
        let nta = exists_one_automaton(2);
        let (budgeted, subsets) = nta.determinize_with_budget(1024).unwrap();
        let (unbudgeted, expected_subsets) = nta.determinize();
        assert!(budgeted.is_deterministic());
        assert_eq!(subsets, expected_subsets);
        assert_eq!(budgeted.state_count(), unbudgeted.state_count());
    }

    #[test]
    fn emptiness() {
        let parity = parity_automaton(2);
        assert!(!parity.is_empty());
        // An automaton with no accepting state is empty.
        let mut empty = parity_automaton(2);
        empty.accepting.clear();
        assert!(empty.is_empty());
        // Intersection of a language and its complement is empty.
        let product = parity.product(&parity.complement());
        assert!(product.is_empty());
    }
}
