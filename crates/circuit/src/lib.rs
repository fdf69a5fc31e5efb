//! Boolean function representations and probability computation for the
//! `treelineage` workspace.
//!
//! The paper studies lineage representations in several knowledge-compilation
//! formalisms; this crate implements all of them from scratch:
//!
//! * [`Circuit`] — DAG-shaped Boolean circuits ("lineage circuits",
//!   Definition 6.2), with gate-graph treewidth/pathwidth;
//! * [`Formula`] — tree-shaped formulas and the explicit threshold / parity
//!   constructions behind the Section 7 lower bounds;
//! * [`Dnnf`] — deterministic decomposable circuits (Definition 6.10) with
//!   linear-time probability evaluation, one-pass weighted model counting on
//!   smooth circuits and conditioning, all evaluation running one [`Semiring`]
//!   kernel ([`eval_gate`]), and the flat slot arena ([`LimbArena`]) in
//!   which the served passes fill every gate's value in place: `u64` limbs
//!   for the exact integer pass, one interval per gate for the certified
//!   float pass;
//! * [`Vtree`] — variable trees witnessing *structured* decomposability
//!   (the "structured" in d-SDNNF: OBDDs are the right-linear special case,
//!   and the automaton provenance construction is structured by a vtree read
//!   off its input tree);
//! * probability evaluation for circuits: brute force and the ra-linear
//!   message-passing algorithm over bounded-treewidth circuit decompositions
//!   (the engine of Theorem 3.2).
//!
//! Reduced OBDDs (Definition 6.4) are compiled from these circuits by the
//! shared decision-diagram engine of `treelineage-dd`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod circuit;
mod dnnf;
mod formula;
mod probability;
mod semiring;
mod vtree;

pub use arena::{ArenaRange, LimbArena, ScopeHull};
pub use circuit::{Circuit, Gate, GateId, VarId};
pub use dnnf::{Dnnf, DnnfError};
pub use formula::{
    parity_circuit, parity_formula, threshold2_circuit, threshold2_formula,
    threshold2_formula_naive, Formula,
};
pub use probability::{probability_bruteforce, probability_message_passing, MessagePassingError};
pub use semiring::{eval_gate, Count, Probability, Ring, Semiring, Weight, Wmc};
pub use vtree::{Vtree, VtreeId, VtreeNode};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use treelineage_num::Rational;

    /// A strategy generating random circuits over a bounded variable set, by
    /// composing random gates bottom-up.
    fn arbitrary_circuit(max_vars: usize, gates: usize) -> impl Strategy<Value = Circuit> {
        let ops = proptest::collection::vec((0u8..4, any::<u64>(), any::<u64>()), 1..gates);
        ops.prop_map(move |ops| {
            let mut c = Circuit::new();
            let mut ids = Vec::new();
            for v in 0..max_vars {
                ids.push(c.var(v));
            }
            for (op, a, b) in ops {
                let x = ids[(a % ids.len() as u64) as usize];
                let y = ids[(b % ids.len() as u64) as usize];
                let g = match op {
                    0 => c.and(vec![x, y]),
                    1 => c.or(vec![x, y]),
                    2 => c.not(x),
                    _ => c.or(vec![x]),
                };
                ids.push(g);
            }
            c.set_output(*ids.last().unwrap());
            c
        })
    }

    fn truth_table(eval: impl Fn(&BTreeSet<VarId>) -> bool, vars: &[VarId]) -> Vec<bool> {
        (0u64..(1 << vars.len()))
            .map(|mask| {
                let set: BTreeSet<VarId> = vars
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &v)| v)
                    .collect();
                eval(&set)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn message_passing_matches_bruteforce(c in arbitrary_circuit(4, 10)) {
            let prob = |v: VarId| Rational::from_ratio_u64(1, 2 * v as u64 + 3);
            let (_, td) = c.covering_decomposition();
            let mp = probability_message_passing(&c, &td, &prob).unwrap();
            prop_assert_eq!(mp, probability_bruteforce(&c, &prob));
        }

        #[test]
        fn restriction_semantics(c in arbitrary_circuit(5, 10), fixed_mask in 0u32..32, fixed_values in 0u32..32) {
            use std::collections::HashMap;
            let fixed: HashMap<VarId, bool> = (0..5usize)
                .filter(|v| fixed_mask >> v & 1 == 1)
                .map(|v| (v, fixed_values >> v & 1 == 1))
                .collect();
            let restricted = c.restrict(&fixed);
            let free: Vec<VarId> = (0..5).filter(|v| !fixed.contains_key(v)).collect();
            for mask in 0u64..(1 << free.len()) {
                let mut set: BTreeSet<VarId> = free
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &v)| v)
                    .collect();
                let restricted_value = restricted.evaluate_set(&set);
                for (&v, &b) in &fixed {
                    if b {
                        set.insert(v);
                    }
                }
                prop_assert_eq!(restricted_value, c.evaluate_set(&set));
            }
        }

        #[test]
        fn formula_expansion_preserves_function(c in arbitrary_circuit(4, 7)) {
            let f = Formula::from_circuit(&c, 1_000_000);
            let vars: Vec<VarId> = (0..4).collect();
            let from_circuit = truth_table(|s| c.evaluate_set(s), &vars);
            let from_formula = truth_table(|s| f.evaluate_set(s), &vars);
            prop_assert_eq!(from_circuit, from_formula);
            // The formula is never smaller than the number of reachable
            // gates minus constants... but always at least 1 node.
            prop_assert!(f.node_size() >= 1);
        }

        #[test]
        fn dnnf_probability_matches_bruteforce_when_valid(c in arbitrary_circuit(4, 8)) {
            // Most random circuits are not d-DNNFs; when one happens to pass
            // full verification, its linear-time probability must agree with
            // brute force.
            if let Ok(d) = Dnnf::verify(c.clone()) {
                let prob = |v: VarId| Rational::from_ratio_u64(1, v as u64 + 3);
                prop_assert_eq!(d.probability(&prob), probability_bruteforce(&c, &prob));
            }
        }
    }
}
