//! Probability evaluation on tuple-independent databases (Definition 3.1,
//! Theorem 3.2 and Theorem 4.2's tractable side).
//!
//! The probability of a UCQ≠ on a TID instance is the total weight of the
//! possible worlds (fact subsets) satisfying the query. [`ProbabilityEvaluator`]
//! computes it exactly, over [`Rational`] numbers, by compiling the query
//! lineage (see [`crate::lineage`]) into the shared [`treelineage_dd`]
//! engine and evaluating the weighted model count of the resulting diagram
//! in time linear in its (shared) size — the "ra-linear modulo compilation"
//! pipeline that the paper's upper bounds describe. The automaton
//! pipeline's provenance d-SDNNF (Theorem 6.11) is the other lineage object:
//! [`LineageBuilder::automaton_lineage`] returns it, and its passes answer
//! the same queries. Brute-force possible-worlds oracles are provided for
//! testing.

use crate::lineage::LineageBuilder;
use std::collections::BTreeSet;
use treelineage_engine::EngineError;
use treelineage_graph::TreeDecomposition;
use treelineage_instance::{FactId, Instance, ProbabilityValuation};
use treelineage_num::{BigUint, ErrorInterval, Rational};
use treelineage_query::{matching, UnionOfConjunctiveQueries};

/// Exact probability evaluation for UCQ≠ queries on TID instances, through
/// the OBDD of the query lineage (Theorems 6.5 / 6.7).
pub struct ProbabilityEvaluator<'a> {
    instance: &'a Instance,
    valuation: &'a ProbabilityValuation,
    decomposition: Option<TreeDecomposition>,
}

impl<'a> ProbabilityEvaluator<'a> {
    /// Creates an evaluator over the given instance and probability
    /// valuation.
    pub fn new(instance: &'a Instance, valuation: &'a ProbabilityValuation) -> Self {
        assert_eq!(
            valuation.len(),
            instance.fact_count(),
            "valuation must cover every fact"
        );
        ProbabilityEvaluator {
            instance,
            valuation,
            decomposition: None,
        }
    }

    /// Uses the given tree decomposition of the instance to drive lineage
    /// compilation (otherwise a heuristic one is computed).
    pub fn with_decomposition(mut self, td: TreeDecomposition) -> Self {
        self.decomposition = Some(td);
        self
    }

    /// The probability that the query holds: the Theorem 6.5 / 6.7 pipeline
    /// of compiling the lineage into the shared decision-diagram engine
    /// under a decomposition-derived order and running one weighted
    /// model-counting pass.
    pub fn query_probability(
        &self,
        query: &UnionOfConjunctiveQueries,
    ) -> Result<Rational, EngineError> {
        let (manager, root) = self.builder(query)?.dd();
        Ok(manager.probability(root, &|v| self.valuation.probability(FactId(v)).clone()))
    }

    /// Float fast-path of [`ProbabilityEvaluator::query_probability`]: one
    /// pass over the OBDD-derived d-DNNF ([`LineageBuilder::ddnnf`];
    /// probability needs no smoothing) in certified `f64` interval
    /// arithmetic instead of exact big-rational arithmetic.
    ///
    /// Returns `(estimate, interval)` where `interval` is **guaranteed to
    /// contain the exact rational probability** (every gate combines its
    /// children's enclosures with outward-rounded interval operations, and
    /// each leaf gets the optimal `f64` bracket of its exact input
    /// probability) and `estimate` is the interval midpoint. The interval
    /// width is the certificate: a caller comparing against a decision
    /// threshold can trust any comparison the interval resolves, and only
    /// needs the exact [`ProbabilityEvaluator::query_probability`] when the
    /// threshold lands inside the interval — the float-first serving policy
    /// that [`treelineage_engine::EvalSession`] wires up as
    /// [`treelineage_engine::SessionBackend::FloatFirst`].
    pub fn query_probability_f64(
        &self,
        query: &UnionOfConjunctiveQueries,
    ) -> Result<(f64, ErrorInterval), EngineError> {
        let weight = |v: usize| ErrorInterval::from_rational(self.valuation.probability(FactId(v)));
        let interval = self.builder(query)?.ddnnf().probability_interval(&weight);
        Ok((interval.midpoint(), interval))
    }

    fn builder<'q>(
        &'q self,
        query: &'q UnionOfConjunctiveQueries,
    ) -> Result<LineageBuilder<'q>, EngineError> {
        let builder = LineageBuilder::new(query, self.instance)?;
        match &self.decomposition {
            Some(td) => builder.with_decomposition(td.clone()),
            None => Ok(builder),
        }
    }

    /// The probability that the query holds, computed through the d-DNNF
    /// read off the OBDD ([`LineageBuilder::ddnnf`]). Always equal to
    /// [`ProbabilityEvaluator::query_probability`]; exposed separately so
    /// the benchmarks can time the two pipelines independently.
    pub fn query_probability_via_ddnnf(
        &self,
        query: &UnionOfConjunctiveQueries,
    ) -> Result<Rational, EngineError> {
        let ddnnf = self.builder(query)?.ddnnf();
        Ok(ddnnf.probability(&|v| self.valuation.probability(FactId(v)).clone()))
    }

    /// Brute-force possible-worlds probability (the oracle of Definition 3.1);
    /// exponential, limited to 20 facts.
    pub fn query_probability_bruteforce(&self, query: &UnionOfConjunctiveQueries) -> Rational {
        self.valuation
            .probability_of(|world| matching::satisfied_in_world(query, self.instance, world))
    }

    /// Number of subinstances (possible worlds under the all-1/2 valuation,
    /// scaled by `2^{|I|}`) satisfying the query — the model counting problem
    /// related to probability evaluation by footnote 3 of the paper. One
    /// counting pass over the OBDD.
    pub fn model_count(&self, query: &UnionOfConjunctiveQueries) -> Result<BigUint, EngineError> {
        let (manager, root) = self.builder(query)?.dd();
        Ok(manager.count_models(root))
    }

    /// General weighted model count: `Σ_worlds Π_facts (pos if present else
    /// neg)`, with weights that need not sum to one per fact (so this is
    /// strictly more general than [`ProbabilityEvaluator::query_probability`];
    /// e.g. `pos = neg = 1` counts models). Runs the shared dd engine's
    /// general-weight pass ([`treelineage_dd::Manager::wmc`]), which stays
    /// independent of the automaton pipeline.
    pub fn query_wmc(
        &self,
        query: &UnionOfConjunctiveQueries,
        pos: &dyn Fn(FactId) -> Rational,
        neg: &dyn Fn(FactId) -> Rational,
    ) -> Result<Rational, EngineError> {
        let (manager, root) = self.builder(query)?.dd();
        Ok(manager.wmc(root, &|v| pos(FactId(v)), &|v| neg(FactId(v))))
    }

    /// Brute-force general weighted model count (oracle); exponential,
    /// limited to 20 facts.
    pub fn query_wmc_bruteforce(
        &self,
        query: &UnionOfConjunctiveQueries,
        pos: &dyn Fn(FactId) -> Rational,
        neg: &dyn Fn(FactId) -> Rational,
    ) -> Rational {
        let n = self.instance.fact_count();
        assert!(n <= 20, "brute-force WMC limited to 20 facts");
        let mut total = Rational::zero();
        for mask in 0u64..(1u64 << n) {
            let world: BTreeSet<FactId> =
                (0..n).filter(|i| mask >> i & 1 == 1).map(FactId).collect();
            if !matching::satisfied_in_world(query, self.instance, &world) {
                continue;
            }
            let mut weight = Rational::one();
            for i in 0..n {
                let f = FactId(i);
                if world.contains(&f) {
                    weight *= &pos(f);
                } else {
                    weight *= &neg(f);
                }
            }
            total += &weight;
        }
        total
    }

    /// Brute-force model count (oracle); limited to 20 facts.
    pub fn model_count_bruteforce(&self, query: &UnionOfConjunctiveQueries) -> BigUint {
        let n = self.instance.fact_count();
        assert!(n <= 20, "brute-force model counting limited to 20 facts");
        let mut count = 0u64;
        for mask in 0u64..(1u64 << n) {
            let world: BTreeSet<FactId> =
                (0..n).filter(|i| mask >> i & 1 == 1).map(FactId).collect();
            if matching::satisfied_in_world(query, self.instance, &world) {
                count += 1;
            }
        }
        BigUint::from_u64(count)
    }
}

/// Standard (non-probabilistic) model checking, i.e. the evaluation problem
/// of Definition 5.1, for UCQ≠ queries: simply checks satisfaction on the
/// full instance. Linear-time in the number of homomorphism candidates for a
/// fixed query; exposed here so the Table 1 experiments can time it.
pub fn model_check(query: &UnionOfConjunctiveQueries, instance: &Instance) -> bool {
    matching::satisfied(query, instance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelineage_instance::{encodings, Signature};
    use treelineage_query::parse_query;

    fn rst() -> Signature {
        Signature::builder()
            .relation("R", 1)
            .relation("S", 2)
            .relation("T", 1)
            .build()
    }

    fn chain(n: usize) -> Instance {
        let mut inst = Instance::new(rst());
        for i in 0..n as u64 {
            inst.add_fact_by_name("R", &[i]);
            inst.add_fact_by_name("S", &[i, i + 1]);
            inst.add_fact_by_name("T", &[i + 1]);
        }
        inst
    }

    #[test]
    fn probability_matches_bruteforce_on_small_instances() {
        let q = parse_query(&rst(), "R(x), S(x, y), T(y)").unwrap();
        for n in 1..=4usize {
            let inst = chain(n);
            let probs: Vec<f64> = (0..inst.fact_count())
                .map(|i| [0.5, 0.25, 0.75, 0.125][i % 4])
                .collect();
            let valuation = ProbabilityValuation::from_f64(&inst, &probs);
            let evaluator = ProbabilityEvaluator::new(&inst, &valuation);
            let expected = evaluator.query_probability_bruteforce(&q);
            assert_eq!(evaluator.query_probability(&q).unwrap(), expected, "n={n}");
            assert_eq!(
                evaluator.query_probability_via_ddnnf(&q).unwrap(),
                expected,
                "n={n}"
            );
        }
    }

    #[test]
    fn probability_of_certain_instance_is_model_checking() {
        let q = parse_query(&rst(), "R(x), S(x, y), T(y)").unwrap();
        let inst = chain(3);
        let valuation = ProbabilityValuation::all_certain(&inst);
        let evaluator = ProbabilityEvaluator::new(&inst, &valuation);
        let p = evaluator.query_probability(&q).unwrap();
        assert!(p.is_one());
        assert!(model_check(&q, &inst));
    }

    #[test]
    fn model_counting_matches_bruteforce() {
        let q = parse_query(&rst(), "R(x), S(x, y), T(y) | S(x, y), S(y, z), x != z").unwrap();
        let inst = chain(2);
        let valuation = ProbabilityValuation::all_one_half(&inst);
        let evaluator = ProbabilityEvaluator::new(&inst, &valuation);
        assert_eq!(
            evaluator.model_count(&q).unwrap().to_u64(),
            evaluator.model_count_bruteforce(&q).to_u64()
        );
        // Footnote 3: model count = 2^{|I|} * probability under all-1/2.
        let p = evaluator.query_probability(&q).unwrap();
        let scaled =
            &p * &Rational::from_biguint(treelineage_num::BigUint::pow2(inst.fact_count()));
        assert_eq!(
            scaled.numerator().magnitude().to_u64(),
            evaluator.model_count(&q).unwrap().to_u64()
        );
    }

    #[test]
    fn backend_routing_gives_equal_answers() {
        let q = parse_query(&rst(), "R(x), S(x, y), T(y)").unwrap();
        let inst = chain(3);
        let probs: Vec<f64> = (0..inst.fact_count())
            .map(|i| [0.5, 0.25, 0.75][i % 3])
            .collect();
        let valuation = ProbabilityValuation::from_f64(&inst, &probs);
        let evaluator = ProbabilityEvaluator::new(&inst, &valuation);
        let reference = evaluator.query_probability_bruteforce(&q);
        let count = evaluator.model_count_bruteforce(&q);
        // The OBDD route.
        assert_eq!(evaluator.query_probability(&q).unwrap(), reference);
        assert_eq!(evaluator.model_count(&q).unwrap(), count);
        // The automaton route.
        let lineage = LineageBuilder::new(&q, &inst)
            .unwrap()
            .automaton_lineage()
            .unwrap();
        let prob = |v: usize| valuation.probability(FactId(v)).clone();
        assert_eq!(lineage.probability(&prob, 1), reference);
        assert_eq!(lineage.model_count(1), count);
    }

    #[test]
    fn float_fast_path_interval_contains_exact_on_every_backend() {
        let q = parse_query(&rst(), "R(x), S(x, y), T(y)").unwrap();
        let inst = chain(4);
        let probs: Vec<f64> = (0..inst.fact_count())
            .map(|i| [0.5, 0.25, 0.75, 0.125][i % 4])
            .collect();
        let valuation = ProbabilityValuation::from_f64(&inst, &probs);
        let evaluator = ProbabilityEvaluator::new(&inst, &valuation);
        let exact = evaluator.query_probability(&q).unwrap();
        let (estimate, obdd) = evaluator.query_probability_f64(&q).unwrap();
        assert!(obdd.contains_f64(estimate));
        let weight = |v: usize| ErrorInterval::from_rational(valuation.probability(FactId(v)));
        let automaton = LineageBuilder::new(&q, &inst)
            .unwrap()
            .automaton_lineage()
            .unwrap()
            .probability_interval(&weight, 1);
        for (route, interval) in [("obdd", obdd), ("automaton", automaton)] {
            assert!(interval.contains(&exact), "{route}");
            assert!(interval.width() < 1e-12, "{route}: {interval:?}");
        }
    }

    #[test]
    fn general_wmc_matches_bruteforce() {
        let q = parse_query(&rst(), "R(x), S(x, y), T(y)").unwrap();
        let inst = chain(2);
        let valuation = ProbabilityValuation::all_one_half(&inst);
        let evaluator = ProbabilityEvaluator::new(&inst, &valuation);
        // Weights that do not sum to 1 per fact.
        let pos = |f: FactId| Rational::from_ratio_u64(f.0 as u64 + 2, 3);
        let neg = |f: FactId| Rational::from_ratio_u64(1, f.0 as u64 + 1);
        assert_eq!(
            evaluator.query_wmc(&q, &pos, &neg).unwrap(),
            evaluator.query_wmc_bruteforce(&q, &pos, &neg)
        );
        // pos = neg = 1 counts models.
        let one = |_: FactId| Rational::one();
        assert_eq!(
            evaluator.query_wmc(&q, &one, &one).unwrap(),
            Rational::from_biguint(evaluator.model_count(&q).unwrap())
        );
    }

    #[test]
    fn grid_instance_probability_small() {
        // Tractable even on (small) high-treewidth instances; correctness is
        // what we check here, the complexity behaviour is the benches' job.
        let sig = Signature::builder().relation("S", 2).build();
        let s = sig.relation_by_name("S").unwrap();
        let inst = encodings::grid_instance(&sig, s, 2, 3);
        let q = parse_query(&sig, "S(x, y), S(y, z), x != z").unwrap();
        let valuation = ProbabilityValuation::all_one_half(&inst);
        let evaluator = ProbabilityEvaluator::new(&inst, &valuation);
        let expected = evaluator.query_probability_bruteforce(&q);
        assert_eq!(evaluator.query_probability(&q).unwrap(), expected);
    }

    #[test]
    fn evaluation_with_explicit_decomposition() {
        let q = parse_query(&rst(), "R(x), S(x, y), T(y)").unwrap();
        let inst = chain(3);
        let (graph, _) = inst.gaifman_graph();
        let (_, td) = treelineage_graph::treewidth::treewidth_upper_bound(&graph);
        let valuation = ProbabilityValuation::all_one_half(&inst);
        let evaluator = ProbabilityEvaluator::new(&inst, &valuation).with_decomposition(td);
        let expected = evaluator.query_probability_bruteforce(&q);
        assert_eq!(evaluator.query_probability(&q).unwrap(), expected);
    }
}
