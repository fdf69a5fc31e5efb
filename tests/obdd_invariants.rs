//! OBDD structural invariants (Definition 6.4) on the shared dd engine:
//! reducedness of the signed references reachable through
//! `decision_parts`, agreement of `evaluate` with `probability` at the
//! all-1/2 valuation, width behaviour on the chain instances of
//! `tests/end_to_end.rs`, and the per-level node counts of Lemma 6.6 on
//! chains and on the q_p grids of the Section 8 experiments.

#[path = "../crates/dd/tests/restriction/mod.rs"]
mod restriction;

use restriction::restriction_level_sizes;
use std::collections::{BTreeSet, HashSet};
use treelineage::prelude::*;
use treelineage_circuit::{parity_circuit, threshold2_circuit, VarId};
use treelineage_hardness as hardness;

/// The chain instance R(i), S(i, i+1), T(i+1) for i < n (pathwidth 1), as in
/// `tests/end_to_end.rs` and the bench harness.
fn chain_instance(n: usize) -> (Signature, Instance) {
    let sig = Signature::builder()
        .relation("R", 1)
        .relation("S", 2)
        .relation("T", 1)
        .build();
    let mut inst = Instance::new(sig.clone());
    for i in 0..n as u64 {
        inst.add_fact_by_name("R", &[i]);
        inst.add_fact_by_name("S", &[i, i + 1]);
        inst.add_fact_by_name("T", &[i + 1]);
    }
    (sig, inst)
}

/// The OBDD of the chain query's lineage on the chain instance of length `n`.
fn chain_obdd(n: usize) -> (DdManager, DdNodeId) {
    let (sig, inst) = chain_instance(n);
    let q = parse_query(&sig, "R(x), S(x, y), T(y)").unwrap();
    LineageBuilder::new(&q, &inst).unwrap().dd()
}

/// Reducedness: no reachable signed reference is a redundant test (equal
/// children), and no two distinct ones share a (variable, lo, hi) triple.
fn assert_reduced(manager: &DdManager, root: DdNodeId) {
    let mut seen: HashSet<DdNodeId> = HashSet::new();
    let mut triples = HashSet::new();
    let mut stack = vec![root];
    while let Some(r) = stack.pop() {
        if !seen.insert(r) {
            continue;
        }
        if let Some((var, lo, hi)) = manager.decision_parts(r) {
            assert_ne!(lo, hi, "redundant node {r:?} on variable {var}");
            assert!(
                triples.insert((var, lo, hi)),
                "duplicate node {r:?}: ({var}, {lo:?}, {hi:?}) appears twice"
            );
            stack.push(lo);
            stack.push(hi);
        }
    }
    // Every decision reached is one node of the plain reduced OBDD.
    assert_eq!(triples.len(), manager.size(root));
}

#[test]
fn chain_and_formula_obdds_are_reduced() {
    for n in 1..=6 {
        let (manager, root) = chain_obdd(n);
        assert_reduced(&manager, root);
    }
    for vars in [2usize, 4, 6, 8] {
        let order: Vec<VarId> = (0..vars).collect();
        for circuit in [parity_circuit(&order), threshold2_circuit(&order)] {
            let mut manager = DdManager::new(order.clone());
            let root = manager.compile_circuit(&circuit);
            assert_reduced(&manager, root);
            assert_reduced(&manager, root.not());
        }
    }
}

#[test]
fn probability_at_all_one_half_counts_satisfying_sets() {
    for n in 1..=3 {
        let (manager, root) = chain_obdd(n);
        let vars: Vec<VarId> = manager.order().to_vec();
        // Enumerate the full truth table with evaluate.
        let mut satisfying = 0u64;
        for mask in 0u64..(1 << vars.len()) {
            let set: BTreeSet<VarId> = vars
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, &v)| v)
                .collect();
            if manager.evaluate(root, &set) {
                satisfying += 1;
            }
        }
        // At the all-1/2 valuation every world weighs 2^-k, so the
        // probability must be exactly (#satisfying sets) / 2^k.
        let p = manager.probability(root, &|_| Rational::one_half());
        let expected = Rational::from_ratio_u64(satisfying, 1 << vars.len());
        assert_eq!(p, expected, "chain of length {n}");
        assert_eq!(manager.count_models(root).to_u64(), Some(satisfying));
    }
}

#[test]
fn chain_obdd_width_is_constant_in_the_chain_length() {
    // Theorem 6.7 on pathwidth-1 instances: the OBDD width under the
    // decomposition-derived order is bounded by a constant independent of n.
    // Width may only be monotone in the instance *width*, never in its
    // length; on chains it must not grow at all.
    let measures: Vec<(usize, usize)> = (1..=8)
        .map(|n| {
            let (manager, root) = chain_obdd(n);
            (manager.width(root), manager.size(root))
        })
        .collect();
    let widths: Vec<usize> = measures.iter().map(|&(w, _)| w).collect();
    for (i, pair) in widths.windows(2).enumerate() {
        assert!(
            pair[1] <= pair[0].max(1),
            "width grew along the chain at n={}: {:?}",
            i + 2,
            widths
        );
    }
    let tail = widths.last().copied().unwrap();
    assert_eq!(
        tail, 1,
        "long chains must reach the constant width 1: {widths:?}"
    );
    // Sizes stay linear: size(n) <= size(1) * n (no blow-up in length).
    let sizes: Vec<usize> = measures.iter().map(|&(_, s)| s).collect();
    for (i, &s) in sizes.iter().enumerate() {
        assert!(
            s <= sizes[0] * (i + 1),
            "superlinear OBDD size on chains: {sizes:?}"
        );
    }
}

/// Checks the engine's level profile against Lemma 6.6's restriction
/// counts on the lineage circuit under the decomposition-derived order, and
/// returns the counts.
fn assert_levels_match_restrictions(
    query: &UnionOfConjunctiveQueries,
    instance: &Instance,
) -> Vec<usize> {
    let builder = LineageBuilder::new(query, instance).unwrap();
    let order = builder.variable_order();
    assert_eq!(order.len(), instance.fact_count());
    let circuit = builder.circuit();
    let expected = restriction_level_sizes(|w| circuit.evaluate_set(w), &order);
    let (manager, root) = builder.dd();
    assert_eq!(manager.order(), &order[..]);
    assert_eq!(manager.level_sizes(root), expected);
    expected
}

#[test]
fn level_sizes_match_restriction_counts_on_chains_and_qp_grids() {
    for n in 1..=4 {
        let (sig, inst) = chain_instance(n);
        let q = parse_query(&sig, "R(x), S(x, y), T(y)").unwrap();
        assert_levels_match_restrictions(&q, &inst);
    }
    for n in [2usize, 3] {
        let (q, inst) = hardness::qp_grid_family(n);
        let levels = assert_levels_match_restrictions(&q, &inst);
        assert_eq!(
            hardness::obdd_width_of_qp_on_grid(n),
            (
                levels.iter().copied().max().unwrap(),
                levels.iter().sum::<usize>()
            ),
            "q_p grid {n}"
        );
    }
}
