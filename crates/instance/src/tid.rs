//! Tuple-independent databases: probability valuations and possible worlds
//! (Definition 3.1 of the paper).
//!
//! A probability valuation maps each fact of an instance to a rational
//! probability in `[0, 1]`; it induces a product distribution over
//! subinstances ("possible worlds"). Probability evaluation asks for the
//! total weight of the worlds satisfying a query. This module provides the
//! valuation type, world enumeration (the brute-force oracle used by tests),
//! and the world-probability computation.

use crate::instance::{FactId, Instance};
use std::collections::BTreeSet;
use treelineage_num::Rational;

/// A probability valuation: one probability per fact of a fixed instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProbabilityValuation {
    probabilities: Vec<Rational>,
}

impl ProbabilityValuation {
    /// The valuation assigning probability `p` to every fact of `instance`.
    pub fn uniform(instance: &Instance, p: Rational) -> Self {
        assert!(p.is_probability(), "probability out of [0, 1]");
        ProbabilityValuation {
            probabilities: vec![p; instance.fact_count()],
        }
    }

    /// The valuation assigning probability 1/2 to every fact — the valuation
    /// that turns probability evaluation into model counting (footnote 3).
    pub fn all_one_half(instance: &Instance) -> Self {
        ProbabilityValuation::uniform(instance, Rational::one_half())
    }

    /// The valuation assigning probability 1 to every fact (standard query
    /// evaluation reduces to probability evaluation through it, Section 5.2).
    pub fn all_certain(instance: &Instance) -> Self {
        ProbabilityValuation::uniform(instance, Rational::one())
    }

    /// Builds a valuation from explicit per-fact probabilities (indexed by
    /// fact id). Panics if any value is outside `[0, 1]` or the length does
    /// not match the instance.
    pub fn from_probabilities(instance: &Instance, probabilities: Vec<Rational>) -> Self {
        assert_eq!(
            probabilities.len(),
            instance.fact_count(),
            "length mismatch"
        );
        assert!(
            probabilities.iter().all(|p| p.is_probability()),
            "probability out of [0, 1]"
        );
        ProbabilityValuation { probabilities }
    }

    /// Builds a valuation from `f64` probabilities, converted exactly (they
    /// must be finite and in `[0, 1]`).
    pub fn from_f64(instance: &Instance, probabilities: &[f64]) -> Self {
        let rationals = probabilities
            .iter()
            .map(|&p| Rational::from_f64_dyadic(p).expect("probability must be finite"))
            .collect();
        ProbabilityValuation::from_probabilities(instance, rationals)
    }

    /// Number of facts covered.
    pub fn len(&self) -> usize {
        self.probabilities.len()
    }

    /// Returns `true` if the valuation covers no facts.
    pub fn is_empty(&self) -> bool {
        self.probabilities.is_empty()
    }

    /// The probability of the given fact.
    pub fn probability(&self, fact: FactId) -> &Rational {
        &self.probabilities[fact.0]
    }

    /// Overrides the probability of one fact.
    pub fn set_probability(&mut self, fact: FactId, p: Rational) {
        assert!(p.is_probability(), "probability out of [0, 1]");
        self.probabilities[fact.0] = p;
    }

    /// Appends a probability for a newly inserted fact (mirrors
    /// [`Instance::add_fact`], which always appends at the dense tail).
    pub fn push(&mut self, p: Rational) {
        assert!(p.is_probability(), "probability out of [0, 1]");
        self.probabilities.push(p);
    }

    /// Removes the probability of one fact with swap-remove semantics,
    /// mirroring [`Instance::remove_fact`]: the last entry moves into the
    /// vacated slot. Returns the removed probability.
    pub fn swap_remove(&mut self, fact: FactId) -> Rational {
        self.probabilities.swap_remove(fact.0)
    }

    /// The probability of a specific possible world, given as the set of
    /// present facts: the product of `p(F)` for present facts and `1 - p(F)`
    /// for absent ones (Definition 3.1).
    fn world_probability(&self, present: &BTreeSet<FactId>) -> Rational {
        let mut prob = Rational::one();
        for (i, p) in self.probabilities.iter().enumerate() {
            if present.contains(&FactId(i)) {
                prob *= p;
            } else {
                prob *= &p.complement();
            }
        }
        prob
    }

    /// Iterates over all `2^{|I|}` possible worlds with their probabilities,
    /// calling `f` on each. The brute-force oracle behind the probability
    /// evaluation tests; panics above 20 facts.
    pub fn for_each_world(&self, mut f: impl FnMut(&BTreeSet<FactId>, &Rational)) {
        let n = self.probabilities.len();
        assert!(n <= 20, "world enumeration limited to 20 facts");
        for mask in 0u64..(1u64 << n) {
            let present: BTreeSet<FactId> =
                (0..n).filter(|i| mask >> i & 1 == 1).map(FactId).collect();
            let p = self.world_probability(&present);
            f(&present, &p);
        }
    }

    /// Brute-force probability that a predicate on worlds holds: the sum of
    /// the probabilities of the satisfying worlds. Exponential oracle.
    pub fn probability_of(&self, mut satisfies: impl FnMut(&BTreeSet<FactId>) -> bool) -> Rational {
        let mut total = Rational::zero();
        self.for_each_world(|world, p| {
            if satisfies(world) {
                total += p;
            }
        });
        total
    }
}

/// A tuple-independent database: an instance together with a probability
/// valuation on its facts.
#[derive(Clone, Debug)]
pub struct TupleIndependentDatabase {
    instance: Instance,
    valuation: ProbabilityValuation,
}

impl TupleIndependentDatabase {
    /// Pairs an instance with a valuation.
    pub fn new(instance: Instance, valuation: ProbabilityValuation) -> Self {
        assert_eq!(valuation.len(), instance.fact_count());
        TupleIndependentDatabase {
            instance,
            valuation,
        }
    }

    /// The underlying instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The valuation.
    pub fn valuation(&self) -> &ProbabilityValuation {
        &self.valuation
    }

    /// The probability that a world-predicate holds (brute force; see
    /// [`ProbabilityValuation::probability_of`]).
    pub fn probability_of(&self, satisfies: impl FnMut(&BTreeSet<FactId>) -> bool) -> Rational {
        self.valuation.probability_of(satisfies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::Signature;

    fn small_instance() -> Instance {
        let sig = Signature::builder().relation("R", 1).build();
        let mut inst = Instance::new(sig);
        inst.add_fact_by_name("R", &[1]);
        inst.add_fact_by_name("R", &[2]);
        inst.add_fact_by_name("R", &[3]);
        inst
    }

    #[test]
    fn uniform_valuation() {
        let inst = small_instance();
        let val = ProbabilityValuation::all_one_half(&inst);
        assert_eq!(val.len(), 3);
        assert_eq!(*val.probability(FactId(0)), Rational::one_half());
    }

    #[test]
    fn world_probabilities_sum_to_one() {
        let inst = small_instance();
        let val = ProbabilityValuation::from_f64(&inst, &[0.5, 0.25, 1.0]);
        let mut total = Rational::zero();
        val.for_each_world(|_, p| total += p);
        assert!(total.is_one());
    }

    #[test]
    fn world_probability_formula() {
        let inst = small_instance();
        let val = ProbabilityValuation::from_f64(&inst, &[0.5, 0.25, 0.125]);
        let world: BTreeSet<FactId> = [FactId(0), FactId(2)].into_iter().collect();
        // 0.5 * (1 - 0.25) * 0.125 = 3/64
        assert_eq!(
            val.world_probability(&world),
            Rational::from_ratio_u64(3, 64)
        );
    }

    #[test]
    fn probability_of_event() {
        let inst = small_instance();
        let val = ProbabilityValuation::all_one_half(&inst);
        // P(at least one fact present) = 1 - (1/2)^3 = 7/8.
        let p = val.probability_of(|world| !world.is_empty());
        assert_eq!(p, Rational::from_ratio_u64(7, 8));
        // P(fact 0 present) = 1/2.
        let p0 = val.probability_of(|world| world.contains(&FactId(0)));
        assert_eq!(p0, Rational::one_half());
    }

    #[test]
    fn certain_valuation_gives_single_world() {
        let inst = small_instance();
        let val = ProbabilityValuation::all_certain(&inst);
        let p = val.probability_of(|world| world.len() == 3);
        assert!(p.is_one());
    }

    #[test]
    fn set_probability_overrides() {
        let inst = small_instance();
        let mut val = ProbabilityValuation::all_one_half(&inst);
        val.set_probability(FactId(1), Rational::zero());
        let p = val.probability_of(|world| world.contains(&FactId(1)));
        assert!(p.is_zero());
    }

    #[test]
    #[should_panic]
    fn invalid_probability_panics() {
        let inst = small_instance();
        let _ = ProbabilityValuation::uniform(&inst, Rational::from_ratio_u64(3, 2));
    }

    #[test]
    fn tid_wrapper() {
        let inst = small_instance();
        let val = ProbabilityValuation::all_one_half(&inst);
        let tid = TupleIndependentDatabase::new(inst, val);
        assert_eq!(tid.instance().fact_count(), 3);
        let p = tid.probability_of(|w| w.len() >= 2);
        // C(3,2) + C(3,3) = 4 worlds of 8.
        assert_eq!(p, Rational::one_half());
    }
}
