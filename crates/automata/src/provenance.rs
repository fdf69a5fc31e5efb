//! Provenance circuits of tree automata on uncertain trees
//! (Proposition 3.1 of \[2\]/\[3\], the engine behind Theorems 6.3 and 6.11).
//!
//! Given a bottom-up tree automaton `A` and an uncertain tree `E` (each node
//! carrying either a fixed label or a Boolean event choosing between two
//! labels), the *provenance circuit* is a Boolean circuit over the events
//! that is true under a valuation `ν` exactly when `A` accepts the concrete
//! tree `ν(E)`. The construction is linear in `|A| · |E|`: one gate per
//! (node, state) pair plus bookkeeping.
//!
//! When `A` is deterministic and every node is controlled by its own event,
//! the construction yields a d-DNNF (this is the content of Theorem 6.11's
//! proof, reproduced by `provenance_circuit` + the d-DNNF checks in the
//! tests). Probability evaluation of the uncertain tree (e.g. probabilistic
//! XML, cited in the paper's introduction) is then linear.

use crate::automaton::TreeAutomaton;
use crate::tree::{NodeAnnotation, UncertainTree};
use std::collections::BTreeSet;
use treelineage_circuit::{Circuit, GateId};

/// Builds the provenance circuit of `automaton` on `tree`: a circuit over the
/// tree's events that evaluates to true under a valuation iff the automaton
/// accepts the instantiated tree.
///
/// If the automaton is deterministic and events control at most one node
/// each, the resulting circuit satisfies the d-DNNF conditions
/// (Definition 6.10); this is checked by the tests, not enforced here.
#[allow(clippy::needless_range_loop)] // `q` is a state id, not just an index
pub fn provenance_circuit(automaton: &TreeAutomaton, tree: &UncertainTree) -> Circuit {
    let mut circuit = Circuit::new();
    let false_gate = circuit.constant(false);
    let true_gate = circuit.constant(true);
    let states = automaton.state_count();
    // gate[node][q] = gate asserting the existence of a run assigning q to
    // the node's subtree.
    let node_count = tree.tree().node_count();
    let mut gates: Vec<Vec<GateId>> = vec![vec![false_gate; states]; node_count];

    for node in tree.tree().post_order() {
        match tree.tree().children(node) {
            None => {
                for q in 0..states {
                    gates[node.0][q] = match tree.annotation(node) {
                        NodeAnnotation::Fixed => {
                            if automaton.leaf_states(tree.tree().label(node)).contains(&q) {
                                true_gate
                            } else {
                                false_gate
                            }
                        }
                        NodeAnnotation::Event {
                            event,
                            if_true,
                            if_false,
                        } => {
                            let in_true = automaton.leaf_states(if_true).contains(&q);
                            let in_false = automaton.leaf_states(if_false).contains(&q);
                            match (in_true, in_false) {
                                (true, true) => true_gate,
                                (false, false) => false_gate,
                                (true, false) => circuit.var(event),
                                (false, true) => {
                                    let v = circuit.var(event);
                                    circuit.not(v)
                                }
                            }
                        }
                    };
                }
            }
            Some((left, right)) => {
                // The label alternatives for this node, each guarded by a
                // condition gate (constant true for fixed labels, the event
                // literal otherwise).
                let alternatives: Vec<(usize, Option<GateId>)> = match tree.annotation(node) {
                    NodeAnnotation::Fixed => vec![(tree.tree().label(node), None)],
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
                // Iterate only over *live* (non-false) child states, pushing
                // each discovered run into its target state's disjunct list
                // (same per-state discovery order as the dense triple loop,
                // at |live_l| · |live_r| · |alternatives| cost per node).
                let live_left: Vec<usize> = (0..states)
                    .filter(|&q| gates[left.0][q] != false_gate)
                    .collect();
                let live_right: Vec<usize> = (0..states)
                    .filter(|&q| gates[right.0][q] != false_gate)
                    .collect();
                let mut disjuncts: Vec<Vec<GateId>> = vec![Vec::new(); states];
                for &(label, guard) in &alternatives {
                    for &ql in &live_left {
                        for &qr in &live_right {
                            for &q in automaton.internal_states(label, ql, qr) {
                                let mut conj = vec![gates[left.0][ql], gates[right.0][qr]];
                                if let Some(g) = guard {
                                    conj.push(g);
                                }
                                let conj: Vec<GateId> =
                                    conj.into_iter().filter(|&g| g != true_gate).collect();
                                let gate = match conj.len() {
                                    0 => true_gate,
                                    1 => conj[0],
                                    _ => circuit.and(conj),
                                };
                                disjuncts[q].push(gate);
                            }
                        }
                    }
                }
                for (q, disjuncts) in disjuncts.into_iter().enumerate() {
                    gates[node.0][q] = match disjuncts.len() {
                        0 => false_gate,
                        1 => disjuncts[0],
                        _ => circuit.or(disjuncts),
                    };
                }
            }
        }
    }

    let root = tree.tree().root();
    let accepting: Vec<GateId> = automaton
        .accepting_states()
        .iter()
        .map(|&q| gates[root.0][q])
        .filter(|&g| g != false_gate)
        .collect();
    let output = match accepting.len() {
        0 => false_gate,
        1 => accepting[0],
        _ => circuit.or(accepting),
    };
    circuit.set_output(output);
    circuit
}

/// Brute-force acceptance probability of an uncertain tree under independent
/// event probabilities; oracle for tests (at most 20 events).
pub fn acceptance_probability_bruteforce(
    automaton: &TreeAutomaton,
    tree: &UncertainTree,
    prob: &dyn Fn(usize) -> treelineage_num::Rational,
) -> treelineage_num::Rational {
    use treelineage_num::Rational;
    let events = tree.events();
    assert!(events.len() <= 20, "brute-force limited to 20 events");
    let mut total = Rational::zero();
    for mask in 0u64..(1u64 << events.len()) {
        let true_events: BTreeSet<usize> = events
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, &e)| e)
            .collect();
        let concrete = tree.instantiate(&|e| true_events.contains(&e));
        if !automaton.accepts(&concrete) {
            continue;
        }
        let mut weight = Rational::one();
        for &e in &events {
            let p = prob(e);
            if true_events.contains(&e) {
                weight *= &p;
            } else {
                weight *= &p.complement();
            }
        }
        total += &weight;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::{exists_one_automaton, parity_automaton};
    use crate::tree::{BinaryTree, UncertainTree};
    use std::collections::BTreeSet;
    use treelineage_circuit::Dnnf;
    use treelineage_num::Rational;

    /// An uncertain comb tree with `n` leaves, each controlled by its own
    /// event i (label 1 if present, 0 if absent). This is exactly the lineage
    /// setting of the parity query on a path of uncertain labels.
    fn uncertain_leaves(n: usize) -> UncertainTree {
        let tree = BinaryTree::comb(&vec![0; n], 2);
        let mut u = UncertainTree::certain(tree);
        let mut leaf_index = 0;
        for node in 0..u.tree().node_count() {
            if u.tree().is_leaf(crate::tree::NodeId(node)) {
                u.set_event(crate::tree::NodeId(node), leaf_index, 1, 0);
                leaf_index += 1;
            }
        }
        assert_eq!(leaf_index, n);
        u
    }

    fn check_provenance(automaton: &TreeAutomaton, tree: &UncertainTree) {
        let circuit = provenance_circuit(automaton, tree);
        let events = tree.events();
        assert!(events.len() <= 16);
        for mask in 0u64..(1u64 << events.len()) {
            let true_events: BTreeSet<usize> = events
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, &e)| e)
                .collect();
            let concrete = tree.instantiate(&|e| true_events.contains(&e));
            assert_eq!(
                circuit.evaluate_set(&true_events),
                automaton.accepts(&concrete),
                "mask {mask}"
            );
        }
    }

    #[test]
    fn provenance_of_parity_automaton_is_correct() {
        let automaton = parity_automaton(2);
        for n in 1..=6 {
            check_provenance(&automaton, &uncertain_leaves(n));
        }
    }

    #[test]
    fn provenance_of_nondeterministic_automaton_is_correct() {
        let automaton = exists_one_automaton(2);
        for n in 1..=5 {
            check_provenance(&automaton, &uncertain_leaves(n));
        }
    }

    #[test]
    fn deterministic_automaton_yields_ddnnf() {
        // Theorem 6.11's mechanism: with a deterministic automaton, the
        // provenance circuit is a d-DNNF.
        let automaton = parity_automaton(2);
        for n in 1..=6 {
            let circuit = provenance_circuit(&automaton, &uncertain_leaves(n));
            assert!(
                Dnnf::verify(circuit).is_ok(),
                "parity provenance for n={n} should be a d-DNNF"
            );
        }
    }

    #[test]
    fn determinized_automaton_yields_ddnnf_where_nta_may_not() {
        let nta = exists_one_automaton(2);
        let (dta, _) = nta.determinize();
        for n in 2..=5 {
            let tree = uncertain_leaves(n);
            let from_dta = provenance_circuit(&dta, &tree);
            assert!(
                Dnnf::verify(from_dta).is_ok(),
                "determinized provenance for n={n} should be a d-DNNF"
            );
            // The NTA circuit computes the same function (even if it is not
            // necessarily deterministic as a circuit).
            let from_nta = provenance_circuit(&nta, &tree);
            assert!(from_nta.equivalent_to(&provenance_circuit(&dta, &tree)));
        }
    }

    #[test]
    fn provenance_circuit_size_is_linear_in_tree_size() {
        let automaton = parity_automaton(2);
        let sizes: Vec<usize> = [8usize, 16, 32, 64]
            .iter()
            .map(|&n| provenance_circuit(&automaton, &uncertain_leaves(n)).size())
            .collect();
        // Doubling the tree size should roughly double the circuit size
        // (allow generous slack; the point is that growth is linear, not
        // quadratic).
        for w in sizes.windows(2) {
            assert!(w[1] <= 3 * w[0], "sizes {sizes:?}");
        }
    }

    #[test]
    fn probability_via_ddnnf_matches_bruteforce() {
        let automaton = parity_automaton(2);
        let tree = uncertain_leaves(5);
        let circuit = provenance_circuit(&automaton, &tree);
        let dnnf = Dnnf::verify(circuit).unwrap();
        let prob = |e: usize| Rational::from_ratio_u64(1, e as u64 + 2);
        let expected = acceptance_probability_bruteforce(&automaton, &tree, &prob);
        assert_eq!(dnnf.probability(&prob), expected);
    }

    #[test]
    fn fixed_nodes_do_not_contribute_variables() {
        let automaton = parity_automaton(2);
        let mut u = uncertain_leaves(4);
        // Fix the first leaf to label 1 (always present).
        let first_leaf = (0..u.tree().node_count())
            .map(crate::tree::NodeId)
            .find(|&n| u.tree().is_leaf(n))
            .unwrap();
        u.set_event(first_leaf, 0, 1, 1);
        let circuit = provenance_circuit(&automaton, &u);
        // Event 0 selects between identical labels; a smarter builder could
        // drop it, but correctness is what matters: the function must not
        // depend on it.
        let mut with = BTreeSet::new();
        with.insert(0usize);
        with.insert(1usize);
        let mut without = BTreeSet::new();
        without.insert(1usize);
        assert_eq!(circuit.evaluate_set(&with), circuit.evaluate_set(&without));
    }
}
