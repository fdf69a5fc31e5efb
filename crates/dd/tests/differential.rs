//! Differential suite: the shared `treelineage-dd` engine against the legacy
//! per-diagram `circuit::obdd` construction and brute-force probability on
//! random small circuits.
//!
//! The legacy OBDD is the literal-to-the-paper object (reduced, canonical
//! per order), so on every random circuit the two engines must agree on the
//! represented function, the model count, the weighted model count (and the
//! general-weight count against brute force), and —
//! thanks to the complement-edge width equivalence (signed reachable
//! references per level = plain reduced OBDD nodes per level) — on the exact
//! per-level width profile under the same order.

use proptest::prelude::*;
use std::collections::BTreeSet;
use treelineage_circuit::{probability_bruteforce, Circuit, Obdd, VarId};
use treelineage_dd::{Manager, NodeId};
use treelineage_num::Rational;

const VARS: usize = 5;

/// Levels of the general-WMC order: the circuit's variables plus two free
/// ones.
const ORDER: usize = VARS + 2;

/// Literal weights `n/d` for the general-WMC property, including zero and
/// negative weights and pairs that do not sum to one.
const WEIGHTS: [(i64, u64); 8] = [
    (-3, 2),
    (-1, 1),
    (0, 1),
    (1, 3),
    (1, 2),
    (1, 1),
    (2, 1),
    (5, 7),
];

/// Random circuits over a bounded variable set, composed bottom-up (the same
/// shape as `treelineage-circuit`'s internal property tests).
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

fn world(mask: u64, vars: &[VarId]) -> BTreeSet<VarId> {
    vars.iter()
        .enumerate()
        .filter(|(i, _)| mask >> i & 1 == 1)
        .map(|(_, &v)| v)
        .collect()
}

fn compile_both(c: &Circuit) -> (Obdd, Manager, NodeId) {
    let vars: Vec<VarId> = (0..VARS).collect();
    let obdd = Obdd::from_circuit(c, vars.clone());
    let mut manager = Manager::new(vars);
    let root = manager.compile_circuit(c);
    (obdd, manager, root)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engines_agree_on_function_and_counts(c in arbitrary_circuit(VARS, 14)) {
        let vars: Vec<VarId> = (0..VARS).collect();
        let (obdd, manager, root) = compile_both(&c);
        for mask in 0u64..(1 << VARS) {
            let w = world(mask, &vars);
            let expected = c.evaluate_set(&w);
            prop_assert_eq!(obdd.evaluate_set(&w), expected, "legacy, mask {}", mask);
            prop_assert_eq!(manager.evaluate(root, &w), expected, "dd, mask {}", mask);
        }
        // Model counts: engine == legacy == brute force.
        prop_assert_eq!(
            manager.count_models(root).to_u64(),
            Some(c.count_models_bruteforce(&vars))
        );
        prop_assert_eq!(
            manager.count_models(root).to_u64(),
            obdd.count_models().to_u64()
        );
    }

    #[test]
    fn weighted_model_count_matches_bruteforce(c in arbitrary_circuit(VARS, 12)) {
        let (obdd, manager, root) = compile_both(&c);
        let prob = |v: VarId| Rational::from_ratio_u64(1, v as u64 + 2);
        let brute = probability_bruteforce(&c, &prob);
        prop_assert_eq!(manager.probability(root, &prob), brute.clone());
        prop_assert_eq!(obdd.probability(&prob), brute.clone());
        // Complement edge: P(¬f) = 1 − P(f) with the same shared nodes.
        prop_assert_eq!(manager.probability(root.not(), &prob), brute.complement());
    }

    #[test]
    fn widths_match_legacy_per_level(c in arbitrary_circuit(VARS, 14)) {
        let (obdd, manager, root) = compile_both(&c);
        // Signed reachability reproduces the plain reduced OBDD exactly.
        prop_assert_eq!(manager.level_sizes(root), obdd.level_sizes());
        prop_assert_eq!(manager.width(root), obdd.width());
        prop_assert_eq!(manager.size(root), obdd.size());
        // Complement-edge sharing never stores more nodes than the plain
        // diagram has.
        prop_assert!(manager.shared_size(root) <= manager.size(root).max(1));
    }

    #[test]
    fn negation_is_canonical_and_matches_legacy(c in arbitrary_circuit(VARS, 12)) {
        let vars: Vec<VarId> = (0..VARS).collect();
        let (mut obdd, manager, root) = compile_both(&c);
        let neg = root.not();
        prop_assert_eq!(neg.not(), root);
        let legacy_root = obdd.root();
        let legacy_neg = obdd.not(legacy_root);
        for mask in 0u64..(1 << VARS) {
            let w = world(mask, &vars);
            obdd.set_root(legacy_neg);
            prop_assert_eq!(manager.evaluate(neg, &w), obdd.evaluate_set(&w));
        }
        // ¬f shares every stored node with f.
        prop_assert_eq!(manager.shared_size(neg), manager.shared_size(root));
    }

    #[test]
    fn restrict_compose_exists_semantics(c in arbitrary_circuit(VARS, 10), var in 0usize..VARS) {
        let vars: Vec<VarId> = (0..VARS).collect();
        let (_, mut manager, root) = compile_both(&c);
        let f1 = manager.restrict(root, var, true);
        let f0 = manager.restrict(root, var, false);
        // Shannon: f == ite(x, f|x=1, f|x=0); quantifiers from cofactors.
        let x = manager.literal(var, true);
        let rebuilt = manager.ite(x, f1, f0);
        prop_assert_eq!(rebuilt, root);
        let ex = manager.exists(root, &[var]);
        let expected_ex = manager.or(f0, f1);
        prop_assert_eq!(ex, expected_ex);
        let all = manager.forall(root, &[var]);
        let expected_all = manager.and(f0, f1);
        prop_assert_eq!(all, expected_all);
        // compose with a constant is restriction.
        let composed = manager.compose(root, var, NodeId::TRUE);
        prop_assert_eq!(composed, f1);
        // compose with another variable: check by truth table.
        let other = (var + 1) % VARS;
        let g = manager.literal(other, true);
        let composed = manager.compose(root, var, g);
        for mask in 0u64..(1 << VARS) {
            let mut w = world(mask, &vars);
            let substituted = w.contains(&other);
            if substituted { w.insert(var); } else { w.remove(&var); }
            let expected = manager.evaluate(root, &w);
            prop_assert_eq!(manager.evaluate(composed, &world(mask, &vars)), expected);
        }
    }

    #[test]
    fn general_wmc_matches_bruteforce(
        c in arbitrary_circuit(VARS, 12),
        picks in proptest::collection::vec((0..WEIGHTS.len(), 0..WEIGHTS.len()), ORDER..ORDER + 1),
    ) {
        // The order brackets the circuit's variables with two it never
        // mentions, so the root skips level 0 and every edge into a
        // terminal skips the last level: both must contribute pos + neg.
        let order: Vec<VarId> = [vec![VARS], (0..VARS).collect(), vec![VARS + 1]].concat();
        let mut manager = Manager::new(order.clone());
        let root = manager.compile_circuit(&c);
        let weight = |(n, d): (i64, u64)| Rational::from_ratio_i64(n, d);
        let pos = |v: VarId| weight(WEIGHTS[picks[v].0]);
        let neg = |v: VarId| weight(WEIGHTS[picks[v].1]);
        for negated in [false, true] {
            let f = if negated { root.not() } else { root };
            let mut brute = Rational::zero();
            for mask in 0u64..(1 << ORDER) {
                let w = world(mask, &order);
                if c.evaluate_set(&w) == negated {
                    continue;
                }
                let mut term = Rational::one();
                for &v in &order {
                    term *= &if w.contains(&v) { pos(v) } else { neg(v) };
                }
                brute += &term;
            }
            prop_assert_eq!(manager.wmc(f, &pos, &neg), brute, "negated {}", negated);
            // Probability is the wmc instance with neg = 1 − pos.
            let prob = |v: VarId| Rational::from_ratio_u64(1, v as u64 + 2);
            prop_assert_eq!(
                manager.probability(f, &prob),
                manager.wmc(f, &prob, &|v| prob(v).complement())
            );
        }
    }

    #[test]
    fn persistent_cache_makes_recompilation_free(c in arbitrary_circuit(VARS, 12)) {
        let (_, mut manager, root) = compile_both(&c);
        let before = manager.stats();
        let root2 = manager.compile_circuit(&c);
        let after = manager.stats();
        prop_assert_eq!(root, root2, "hash consing is canonical");
        prop_assert_eq!(before.node_count, after.node_count, "no new nodes");
        prop_assert_eq!(before.op_cache_misses, after.op_cache_misses, "all hits");
    }
}

/// The engine agrees with the exponential level-by-level construction of
/// Lemma 6.6 (via the legacy crate) on the canonical shape, not just the
/// function: one fixed non-random cross-check.
#[test]
fn canonical_shape_matches_lemma_6_6_construction() {
    let vars: Vec<VarId> = (0..6).collect();
    let circuit = treelineage_circuit::threshold2_circuit(&vars);
    let lemma = Obdd::from_circuit_level_by_level(&circuit, vars.clone());
    let mut manager = Manager::new(vars);
    let root = manager.compile_circuit(&circuit);
    assert_eq!(manager.level_sizes(root), lemma.level_sizes());
    assert_eq!(manager.size(root), lemma.size());
    assert_eq!(
        manager.count_models(root).to_u64(),
        lemma.count_models().to_u64()
    );
}
