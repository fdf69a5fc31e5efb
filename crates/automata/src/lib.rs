//! Tree automata and automaton provenance for the `treelineage` workspace.
//!
//! The paper's tractability results go through the machinery of \[2\]: compile
//! the query into a bottom-up tree automaton, run it over a tree encoding of
//! the treelike instance, and extract a provenance circuit of the run. This
//! crate implements the automaton side of that pipeline from scratch:
//!
//! * [`BinaryTree`] / [`UncertainTree`] — labelled full binary trees and
//!   their uncertain variant (one Boolean event per node), the data model of
//!   probabilistic XML without data values cited in the introduction;
//! * [`TreeAutomaton`] — nondeterministic bottom-up tree automata with
//!   determinization (\[12\]), product, complement and emptiness;
//! * [`provenance_circuit`] — the linear-time provenance circuit of an
//!   automaton on an uncertain tree (Proposition 3.1 of \[2\]), which is a
//!   d-DNNF when the automaton is deterministic (the key step of
//!   Theorem 6.11);
//! * [`Run`] — a deterministic automaton's run on an uncertain tree as
//!   per-node tables (steps and reach lists), from a [`TreeAutomaton`] or
//!   from transitions computed on demand;
//! * [`compile_structured_dnnf`] — the constructive form of that theorem
//!   ([`StructuredBuilder`] over a [`Run`]): a *certified*, smooth d-SDNNF
//!   with a vtree witness read off the tree, supporting one-pass
//!   probability, weighted model counting and model counting;
//! * [`strategies`] — reusable property-testing generators for random
//!   uncertain trees and deterministic automata, shared with the
//!   workspace-level cross-backend differential suite.
//!
//! The instance-side pipeline (tree encodings of bounded-treewidth
//! relational instances and query→automaton compilation) lives in
//! `treelineage-encoding`, the lineage API surfacing both in the core
//! `treelineage` crate, and `treelineage-engine` compiles the same
//! provenance over disjoint subtrees on worker threads (bit-identically,
//! by splicing [`StructuredBuilder::compile_subtree`] fragments into one
//! [`StructuredBuilder::compile`]); see DESIGN.md §2 and §Concurrency.
//!
//! The provenance route in one example — an uncertain tree whose three
//! leaves are each controlled by a Boolean event, against the
//! odd-number-of-1-leaves automaton:
//!
//! ```
//! use treelineage_automata::{
//!     compile_structured_dnnf, parity_automaton, BinaryTree, NodeId, UncertainTree,
//! };
//! use treelineage_num::Rational;
//!
//! let mut uncertain = UncertainTree::certain(BinaryTree::comb(&[0, 0, 0], 2));
//! for (event, leaf) in [(0usize, NodeId(0)), (1, NodeId(1)), (2, NodeId(3))] {
//!     uncertain.set_event(leaf, event, 1, 0); // event true ⇒ the leaf reads 1
//! }
//! let automaton = parity_automaton(2);
//! let lineage = compile_structured_dnnf(&automaton, &uncertain).unwrap();
//! // 4 of the 8 event valuations have an odd number of 1-leaves...
//! assert_eq!(lineage.model_count().to_u64(), Some(4));
//! // ...so the acceptance probability under independent fair coins is 1/2.
//! assert_eq!(
//!     lineage.probability(&|_| Rational::one_half()),
//!     Rational::one_half(),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod automaton;
mod provenance;
mod run;
pub mod strategies;
mod structured;
mod tree;

pub use automaton::{
    exists_one_automaton, parity_automaton, DeterminizeError, State, TreeAutomaton,
};
pub use provenance::{acceptance_probability_bruteforce, provenance_circuit};
pub use run::{Run, Step};
pub use structured::{
    compile_structured_dnnf, CompiledSubtree, StructuredBuilder, StructuredDnnf,
    StructuredDnnfError, SubtreeGates,
};
pub use tree::{BinaryTree, Label, NodeAnnotation, NodeId, UncertainTree};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Random uncertain comb trees of random size with 0/1 leaves each
    /// controlled by a distinct event.
    fn arbitrary_uncertain_comb() -> impl Strategy<Value = UncertainTree> {
        (1usize..8).prop_map(|n| {
            let tree = BinaryTree::comb(&vec![0; n], 2);
            let mut u = UncertainTree::certain(tree);
            let mut event = 0;
            for node in 0..u.tree().node_count() {
                if u.tree().is_leaf(NodeId(node)) {
                    u.set_event(NodeId(node), event, 1, 0);
                    event += 1;
                }
            }
            u
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn provenance_circuit_matches_acceptance(u in arbitrary_uncertain_comb(), which in 0u8..2) {
            let automaton = if which == 0 {
                parity_automaton(2)
            } else {
                exists_one_automaton(2)
            };
            let circuit = provenance_circuit(&automaton, &u);
            let events = u.events();
            for mask in 0u64..(1u64 << events.len()) {
                let true_events: BTreeSet<usize> = events
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &e)| e)
                    .collect();
                let concrete = u.instantiate(&|e| true_events.contains(&e));
                prop_assert_eq!(circuit.evaluate_set(&true_events), automaton.accepts(&concrete));
            }
        }

        #[test]
        fn determinization_preserves_language_on_random_trees(u in arbitrary_uncertain_comb()) {
            let nta = exists_one_automaton(2);
            let (dta, _) = nta.determinize();
            let events = u.events();
            for mask in 0u64..(1u64 << events.len()) {
                let true_events: BTreeSet<usize> = events
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &e)| e)
                    .collect();
                let concrete = u.instantiate(&|e| true_events.contains(&e));
                prop_assert_eq!(nta.accepts(&concrete), dta.accepts(&concrete));
            }
        }

        #[test]
        fn deterministic_provenance_probability_is_linear_time_consistent(u in arbitrary_uncertain_comb()) {
            use treelineage_circuit::Dnnf;
            use treelineage_num::Rational;
            let automaton = parity_automaton(2);
            let circuit = provenance_circuit(&automaton, &u);
            let dnnf = Dnnf::from_trusted_circuit(circuit).unwrap();
            let prob = |e: usize| Rational::from_ratio_u64(1, e as u64 + 2);
            let expected = acceptance_probability_bruteforce(&automaton, &u, &prob);
            prop_assert_eq!(dnnf.probability(&prob), expected);
        }
    }
}
