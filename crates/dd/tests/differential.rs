//! Differential suite: the shared `treelineage-dd` engine against brute
//! force and against Lemma 6.6 on random small circuits.
//!
//! On every random circuit the engine must agree with the circuit on the
//! represented function, the model count, the probability and the
//! general-weight model count (all by brute force over the worlds), and —
//! thanks to the complement-edge width equivalence (signed reachable
//! references per level = plain reduced OBDD nodes per level) — on the
//! exact per-level width profile, checked against the restriction-counting
//! oracle of `restriction/mod.rs`, which shares no code with the engine.

mod restriction;

use proptest::prelude::*;
use restriction::restriction_level_sizes;
use std::collections::BTreeSet;
use treelineage_circuit::{probability_bruteforce, Circuit, VarId};
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

/// Random circuits over a bounded variable set, composed bottom-up (the
/// shape of `treelineage-circuit`'s internal property tests, plus an XOR
/// gadget: XOR makes the engine reach stored nodes through both polarities,
/// where plain and signed node counts part).
fn arbitrary_circuit(max_vars: usize, gates: usize) -> impl Strategy<Value = Circuit> {
    let ops = proptest::collection::vec((0u8..5, any::<u64>(), any::<u64>()), 1..gates);
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
                3 => c.or(vec![x]),
                _ => {
                    let (nx, ny) = (c.not(x), c.not(y));
                    let (l, r) = (c.and(vec![x, ny]), c.and(vec![nx, y]));
                    c.or(vec![l, r])
                }
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

fn compile(c: &Circuit) -> (Manager, NodeId) {
    let mut manager = Manager::new((0..VARS).collect());
    let root = manager.compile_circuit(c);
    (manager, root)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engines_agree_on_function_and_counts(c in arbitrary_circuit(VARS, 14)) {
        let vars: Vec<VarId> = (0..VARS).collect();
        let (manager, root) = compile(&c);
        for mask in 0u64..(1 << VARS) {
            let w = world(mask, &vars);
            prop_assert_eq!(manager.evaluate(root, &w), c.evaluate_set(&w), "mask {}", mask);
        }
        prop_assert_eq!(
            manager.count_models(root).to_u64(),
            Some(c.count_models_bruteforce(&vars))
        );
    }

    #[test]
    fn weighted_model_count_matches_bruteforce(c in arbitrary_circuit(VARS, 12)) {
        let (manager, root) = compile(&c);
        let prob = |v: VarId| Rational::from_ratio_u64(1, v as u64 + 2);
        let brute = probability_bruteforce(&c, &prob);
        prop_assert_eq!(manager.probability(root, &prob), brute.clone());
        // Complement edge: P(¬f) = 1 − P(f) with the same shared nodes.
        prop_assert_eq!(manager.probability(root.not(), &prob), brute.complement());
    }

    #[test]
    fn widths_match_restriction_oracle_per_level(c in arbitrary_circuit(VARS, 14)) {
        let vars: Vec<VarId> = (0..VARS).collect();
        let (manager, root) = compile(&c);
        // Signed reachability reproduces the plain reduced OBDD exactly.
        let expected = restriction_level_sizes(|w| c.evaluate_set(w), &vars);
        prop_assert_eq!(manager.level_sizes(root), expected.clone());
        prop_assert_eq!(manager.width(root), expected.iter().copied().max().unwrap_or(0));
        prop_assert_eq!(manager.size(root), expected.iter().sum::<usize>());
        // Complement-edge sharing never stores more nodes than the plain
        // diagram has.
        prop_assert!(manager.shared_size(root) <= manager.size(root).max(1));
    }

    #[test]
    fn negation_is_canonical_and_matches_circuit(c in arbitrary_circuit(VARS, 12)) {
        let vars: Vec<VarId> = (0..VARS).collect();
        let (manager, root) = compile(&c);
        let neg = root.not();
        prop_assert_eq!(neg.not(), root);
        for mask in 0u64..(1 << VARS) {
            let w = world(mask, &vars);
            prop_assert_eq!(manager.evaluate(neg, &w), !c.evaluate_set(&w));
        }
        prop_assert_eq!(
            manager.level_sizes(neg),
            restriction_level_sizes(|w| !c.evaluate_set(w), &vars)
        );
        // ¬f shares every stored node with f.
        prop_assert_eq!(manager.shared_size(neg), manager.shared_size(root));
    }

    #[test]
    fn restrict_compose_exists_semantics(c in arbitrary_circuit(VARS, 10), var in 0usize..VARS) {
        let vars: Vec<VarId> = (0..VARS).collect();
        let (mut manager, root) = compile(&c);
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
        let (mut manager, root) = compile(&c);
        let before = manager.stats();
        let root2 = manager.compile_circuit(&c);
        let after = manager.stats();
        prop_assert_eq!(root, root2, "hash consing is canonical");
        prop_assert_eq!(before.node_count, after.node_count, "no new nodes");
        prop_assert_eq!(before.op_cache_misses, after.op_cache_misses, "all hits");
    }
}

/// The engine's canonical shape is the one Lemma 6.6 constructs level by
/// level, on fixed threshold-2 and parity functions: one non-random
/// cross-check of the whole level profile, size and model count.
#[test]
fn canonical_shape_matches_lemma_6_6_construction() {
    let vars: Vec<VarId> = (0..6).collect();
    for circuit in [
        treelineage_circuit::threshold2_circuit(&vars),
        treelineage_circuit::parity_circuit(&vars),
    ] {
        let lemma = restriction_level_sizes(|w| circuit.evaluate_set(w), &vars);
        let mut manager = Manager::new(vars.clone());
        let root = manager.compile_circuit(&circuit);
        assert_eq!(manager.level_sizes(root), lemma);
        assert_eq!(manager.size(root), lemma.iter().sum::<usize>());
        assert_eq!(
            manager.count_models(root).to_u64(),
            Some(circuit.count_models_bruteforce(&vars))
        );
    }
}
