//! d-DNNFs: deterministic decomposable negation normal forms
//! (Definition 6.10 of the paper, following \[20\] and \[36\]).
//!
//! A d-DNNF is a circuit where (1) negation is applied to inputs only,
//! (2) the children of every AND gate depend on disjoint variables
//! (*decomposability*) and (3) the children of every OR gate are mutually
//! exclusive (*determinism*). Probability evaluation and (on smooth
//! d-DNNFs) model counting are linear; Theorem 6.11 shows MSO lineages on
//! bounded-treewidth instances have linear-size d-DNNFs.

use crate::circuit::{Circuit, Gate, GateDeps, GateId, VarId};
use crate::semiring::{eval_gate, Count, Probability, Semiring, Wmc};
use std::collections::BTreeSet;
use treelineage_num::{BigUint, ErrorInterval, Rational};

/// A circuit together with the verified d-DNNF structural guarantees.
///
/// Construct via [`Dnnf::verify`] (full verification, exponential determinism
/// check — for tests) or [`Dnnf::from_trusted_circuit`] (checks the two
/// syntactic conditions only; determinism is guaranteed by construction for
/// the circuits produced by the deterministic lineage DP of the core crate,
/// cf. Theorem 6.11's "if the automaton is deterministic" argument).
#[derive(Clone, Debug)]
pub struct Dnnf {
    circuit: Circuit,
}

/// Errors reported when a circuit is not a d-DNNF.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DnnfError {
    /// A NOT gate is applied to a non-input gate.
    NegationOnInternalGate(GateId),
    /// An AND gate has children sharing a variable.
    NotDecomposable(GateId),
    /// An OR gate has two children that are simultaneously satisfiable.
    NotDeterministic(GateId),
}

impl std::fmt::Display for DnnfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DnnfError::NegationOnInternalGate(g) => {
                write!(f, "gate {g:?}: negation applied to an internal gate")
            }
            DnnfError::NotDecomposable(g) => {
                write!(f, "AND gate {g:?} has children sharing variables")
            }
            DnnfError::NotDeterministic(g) => {
                write!(f, "OR gate {g:?} has overlapping children")
            }
        }
    }
}

impl std::error::Error for DnnfError {}

impl Dnnf {
    /// Wraps a circuit after checking the two *syntactic* d-DNNF conditions
    /// (negations on inputs, decomposability). Determinism — a semantic
    /// condition — is trusted; use [`Dnnf::verify`] to also check it
    /// exhaustively on small circuits.
    pub fn from_trusted_circuit(mut circuit: Circuit) -> Result<Self, DnnfError> {
        let dependencies = circuit.dependency_bitsets();
        check_syntactic(&circuit, &dependencies)?;
        circuit.shrink_to_fit();
        Ok(Dnnf { circuit })
    }

    /// Wraps a circuit after checking all three d-DNNF conditions; the
    /// determinism check enumerates assignments and is exponential, so the
    /// circuit must have at most 20 variables.
    pub fn verify(circuit: Circuit) -> Result<Self, DnnfError> {
        let dependencies = circuit.dependency_bitsets();
        check_syntactic(&circuit, &dependencies)?;
        // Determinism: for every OR gate, no assignment makes two distinct
        // children true simultaneously. The enumeration must range over
        // *every* variable occurring in the circuit — not just the ones
        // reachable from the output — because the syntactic conditions are
        // checked on all gates too, and an OR gate dangling off the output
        // can only overlap under assignments touching its own variables
        // (see `dangling_nondeterministic_or_is_rejected` for the minimal
        // counterexample that the output-reachable enumeration missed).
        let vars: Vec<VarId> = circuit
            .gate_ids()
            .filter_map(|id| match circuit.gate(id) {
                Gate::Var(v) => Some(v),
                _ => None,
            })
            .collect::<BTreeSet<VarId>>()
            .into_iter()
            .collect();
        assert!(
            vars.len() <= 20,
            "exhaustive determinism check limited to 20 variables"
        );
        for mask in 0u64..(1u64 << vars.len()) {
            let true_vars: BTreeSet<VarId> = vars
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, &v)| v)
                .collect();
            let values = circuit.evaluate_all_gates(&|v| true_vars.contains(&v));
            for id in circuit.gate_ids() {
                if let Gate::Or(inputs) = circuit.gate(id) {
                    let true_children = inputs.iter().filter(|i| values[i.0]).count();
                    if true_children > 1 {
                        return Err(DnnfError::NotDeterministic(id));
                    }
                }
            }
        }
        Ok(Dnnf { circuit })
    }

    /// The underlying circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Size of the d-DNNF (number of gates).
    pub fn size(&self) -> usize {
        self.circuit.size()
    }

    /// The variables the d-DNNF depends on.
    pub fn variables(&self) -> BTreeSet<VarId> {
        self.circuit.variables()
    }

    /// Evaluates the d-DNNF bottom-up over `semiring` in one pass, linear in
    /// the circuit size: every gate runs the shared [`eval_gate`] step on the
    /// values of its (lower-numbered) inputs. The result is meaningful when
    /// the semiring's sum is sound for this circuit's OR gates — determinism
    /// for probabilities, determinism plus smoothness for (weighted) model
    /// counts.
    pub fn evaluate<S: Semiring>(&self, semiring: &S) -> S::Value {
        let mut values: Vec<S::Value> = Vec::with_capacity(self.circuit.size());
        for id in self.circuit.gate_ids() {
            let value = eval_gate(semiring, &self.circuit, id, |i| &values[i.0]);
            values.push(value);
        }
        values.swap_remove(self.circuit.output().0)
    }

    /// Probability that the represented function is true when variable `v`
    /// is independently true with probability `prob(v)`: the [`Probability`]
    /// instance of [`Dnnf::evaluate`] (\[20\]).
    pub fn probability(&self, prob: &dyn Fn(VarId) -> Rational) -> Rational {
        self.evaluate(&Probability(prob))
    }

    /// Number of satisfying assignments over `universe` (which must contain
    /// all variables of the d-DNNF). Computed as the probability under the
    /// all-1/2 valuation scaled by `2^{|universe|}` — this is exactly the
    /// relationship between model counting and probability evaluation used in
    /// footnote 3 of the paper, and it sidesteps the need for explicit
    /// smoothing.
    pub fn count_models(&self, universe: &[VarId]) -> BigUint {
        let vars = self.variables();
        assert!(
            vars.iter().all(|v| universe.contains(v)),
            "universe must contain all variables of the d-DNNF"
        );
        let p = self.probability(&|_| Rational::one_half());
        // p has denominator a power of two; p * 2^{|universe|} is an integer.
        let scaled = &p * &Rational::from_biguint(BigUint::pow2(universe.len()));
        assert!(
            scaled.denominator().is_one(),
            "model count computation did not yield an integer"
        );
        assert!(!scaled.numerator().is_negative());
        scaled.numerator().magnitude().clone()
    }

    /// Returns `true` if the d-DNNF is *smooth*: the children of every OR
    /// gate depend on exactly the same variables. Smoothness is what makes
    /// the single integer pass of [`Dnnf::count_models_smooth`] and the
    /// general-weight pass of [`Dnnf::wmc`] correct (without it, an OR child
    /// that "forgets" a variable under-counts its models).
    pub fn is_smooth(&self) -> bool {
        let deps = self.circuit.dependency_bitsets();
        self.circuit
            .gate_ids()
            .all(|id| match self.circuit.gate(id) {
                Gate::Or(inputs) => inputs.windows(2).all(|w| deps.row(w[0]) == deps.row(w[1])),
                _ => true,
            })
    }

    /// Model count of a *smooth* d-DNNF whose output mentions its whole
    /// universe (such as the automaton provenance d-SDNNF): the [`Count`]
    /// instance of [`Dnnf::evaluate`], one integer pass with no rational
    /// arithmetic.
    pub fn count_models_smooth(&self) -> BigUint {
        // A full assert, not a debug_assert: on a non-smooth circuit the
        // pass silently under-counts, and the bitset-based check is cheap
        // next to the bignum arithmetic below.
        assert!(
            self.is_smooth(),
            "count_models_smooth needs a smooth d-DNNF"
        );
        self.evaluate(&Count)
    }

    /// One-pass *weighted* model count with independent per-literal weights:
    /// `Σ_models Π_v (pos(v) if v true else neg(v))`, over the variables the
    /// output mentions (the [`Wmc`] instance of [`Dnnf::evaluate`]). Unlike
    /// [`Dnnf::probability`], the weights need not sum to one per variable,
    /// so the d-DNNF must be smooth over the intended universe (a variable
    /// absent from a model's scope would silently contribute factor 1
    /// instead of `pos(v) + neg(v)`).
    pub fn wmc(
        &self,
        pos: &dyn Fn(VarId) -> Rational,
        neg: &dyn Fn(VarId) -> Rational,
    ) -> Rational {
        // Full assert for the same reason as `count_models_smooth`: a
        // missing variable silently contributes factor 1 instead of
        // `pos(v) + neg(v)`.
        assert!(self.is_smooth(), "wmc needs a smooth d-DNNF");
        self.evaluate(&Wmc { pos, neg })
    }

    /// Float fast-path of [`Dnnf::probability`]: the same pass over
    /// certified `f64` [`ErrorInterval`]s, guaranteed to contain the exact
    /// rational answer — the leaves get the optimal bracket of the exact
    /// input probability and every gate rounds outward, so containment holds
    /// inductively. `O(size)` f64 operations instead of `O(size)`
    /// big-rational ones.
    pub fn probability_interval(&self, prob: &dyn Fn(VarId) -> ErrorInterval) -> ErrorInterval {
        self.evaluate(&Probability(prob))
    }

    /// Float fast-path of [`Dnnf::wmc`] with the same smoothness requirement
    /// and the same containment guarantee as
    /// [`Dnnf::probability_interval`]: the returned interval contains the
    /// exact weighted model count.
    pub fn wmc_interval(
        &self,
        pos: &dyn Fn(VarId) -> ErrorInterval,
        neg: &dyn Fn(VarId) -> ErrorInterval,
    ) -> ErrorInterval {
        assert!(self.is_smooth(), "wmc needs a smooth d-DNNF");
        self.evaluate(&Wmc { pos, neg })
    }

    /// Conditions the d-DNNF on `var = value` (the substitution used by
    /// Lemma 6.6's restrictions): the result no longer depends on `var`.
    /// Restriction preserves all three d-DNNF conditions, so the result is
    /// again a d-DNNF of at most the same size.
    pub fn condition(&self, var: VarId, value: bool) -> Dnnf {
        let mut fixed = std::collections::HashMap::new();
        fixed.insert(var, value);
        Dnnf::from_trusted_circuit(self.circuit.restrict(&fixed))
            .expect("conditioning preserves the d-DNNF conditions")
    }
}

fn check_syntactic(circuit: &Circuit, dependencies: &GateDeps) -> Result<(), DnnfError> {
    let mut seen = dependencies.empty_row();
    for id in circuit.gate_ids() {
        match circuit.gate(id) {
            Gate::Not(i) if !matches!(circuit.gate(i), Gate::Var(_) | Gate::Const(_)) => {
                return Err(DnnfError::NegationOnInternalGate(id));
            }
            Gate::And(inputs) => {
                // Children must have pairwise disjoint dependency sets.
                seen.iter_mut().for_each(|w| *w = 0);
                for &i in inputs {
                    let row = dependencies.row(i);
                    if GateDeps::intersects(&seen, row) {
                        return Err(DnnfError::NotDecomposable(id));
                    }
                    for (w, &src) in seen.iter_mut().zip(row) {
                        *w |= src;
                    }
                }
            }
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the d-DNNF for "exactly one of x0, x1 is true":
    /// (x0 AND NOT x1) OR (NOT x0 AND x1).
    fn exactly_one() -> Circuit {
        let mut c = Circuit::new();
        let x0 = c.var(0);
        let x1 = c.var(1);
        let n0 = c.not(x0);
        let n1 = c.not(x1);
        let left = c.and(vec![x0, n1]);
        let right = c.and(vec![n0, x1]);
        let o = c.or(vec![left, right]);
        c.set_output(o);
        c
    }

    #[test]
    fn exactly_one_is_a_ddnnf() {
        let d = Dnnf::verify(exactly_one()).unwrap();
        assert_eq!(d.size(), 7);
        assert_eq!(d.count_models(&[0, 1]).to_u64(), Some(2));
        let p = d.probability(&|v| {
            if v == 0 {
                Rational::from_ratio_u64(1, 3)
            } else {
                Rational::from_ratio_u64(1, 4)
            }
        });
        // 1/3 * 3/4 + 2/3 * 1/4 = 1/4 + 1/6 = 5/12.
        assert_eq!(p, Rational::from_ratio_u64(5, 12));
    }

    #[test]
    fn non_decomposable_and_is_rejected() {
        let mut c = Circuit::new();
        let x0 = c.var(0);
        let a = c.and(vec![x0, x0]);
        c.set_output(a);
        assert_eq!(
            Dnnf::from_trusted_circuit(c).unwrap_err(),
            DnnfError::NotDecomposable(GateId(1))
        );
    }

    #[test]
    fn non_deterministic_or_is_rejected_by_verify() {
        let mut c = Circuit::new();
        let x0 = c.var(0);
        let x1 = c.var(1);
        let o = c.or(vec![x0, x1]);
        c.set_output(o);
        // Syntactically fine (decomposable OR is not required)…
        assert!(Dnnf::from_trusted_circuit(c.clone()).is_ok());
        // …but not deterministic: x0 = x1 = 1 satisfies both children.
        assert_eq!(
            Dnnf::verify(c).unwrap_err(),
            DnnfError::NotDeterministic(GateId(2))
        );
    }

    #[test]
    fn negation_on_internal_gate_is_rejected() {
        let mut c = Circuit::new();
        let x0 = c.var(0);
        let x1 = c.var(1);
        let a = c.and(vec![x0, x1]);
        let n = c.not(a);
        c.set_output(n);
        assert_eq!(
            Dnnf::from_trusted_circuit(c).unwrap_err(),
            DnnfError::NegationOnInternalGate(GateId(3))
        );
    }

    #[test]
    fn probability_interval_contains_exact() {
        let d = Dnnf::verify(exactly_one()).unwrap();
        let weight = |v: VarId| {
            if v == 0 {
                Rational::from_ratio_u64(1, 3)
            } else {
                Rational::from_ratio_u64(1, 4)
            }
        };
        let exact = d.probability(&weight);
        let interval = d.probability_interval(&|v| ErrorInterval::from_rational(&weight(v)));
        assert!(interval.contains(&exact));
        assert!(interval.width() < 1e-14);
        // The point estimate is within the certified error of the exact 5/12.
        assert!((interval.midpoint() - 5.0 / 12.0).abs() <= interval.width());
    }

    #[test]
    fn wmc_interval_contains_exact() {
        // exactly_one is smooth over {0, 1}.
        let smooth = Dnnf::verify(exactly_one()).unwrap();
        let pos = |v: VarId| Rational::from_ratio_u64(v as u64 + 2, 7);
        let neg = |v: VarId| Rational::from_ratio_u64(v as u64 + 1, 5);
        let exact = smooth.wmc(&pos, &neg);
        let interval = smooth.wmc_interval(&|v| ErrorInterval::from_rational(&pos(v)), &|v| {
            ErrorInterval::from_rational(&neg(v))
        });
        assert!(interval.contains(&exact));
        assert!(interval.width() < 1e-14);
    }

    #[test]
    fn model_count_over_larger_universe() {
        let d = Dnnf::verify(exactly_one()).unwrap();
        // Over a universe with an extra variable the count doubles.
        assert_eq!(d.count_models(&[0, 1, 7]).to_u64(), Some(4));
    }

    #[test]
    fn probability_of_constant_circuits() {
        let mut c = Circuit::new();
        let t = c.constant(true);
        c.set_output(t);
        let d = Dnnf::verify(c).unwrap();
        assert!(d.probability(&|_| Rational::one_half()).is_one());
        assert_eq!(d.count_models(&[0, 1]).to_u64(), Some(4));
    }

    #[test]
    fn dangling_nondeterministic_or_is_rejected() {
        // Minimal counterexample for the old determinism check: the output is
        // the bare variable x0, and an OR over x1, x2 dangles off the output.
        // Enumerating only output-reachable variables ({x0}) never sets
        // x1 = x2 = 1, so the overlapping OR used to slip through `verify`.
        let mut c = Circuit::new();
        let x0 = c.var(0);
        let x1 = c.var(1);
        let x2 = c.var(2);
        let dangling = c.or(vec![x1, x2]);
        c.set_output(x0);
        assert_eq!(
            Dnnf::verify(c).unwrap_err(),
            DnnfError::NotDeterministic(dangling)
        );
    }

    #[test]
    fn wmc_with_general_weights_matches_enumeration() {
        // Weights that do NOT sum to 1 per variable: w(x0)=2/1, w(¬x0)=3/1,
        // w(x1)=1/2, w(¬x1)=5/1. exactly_one models: {x0}, {x1}.
        // WMC = 2*5 + 3*(1/2) = 23/2.
        let d = Dnnf::verify(exactly_one()).unwrap();
        assert!(d.is_smooth());
        let pos = |v: VarId| {
            if v == 0 {
                Rational::from_ratio_u64(2, 1)
            } else {
                Rational::from_ratio_u64(1, 2)
            }
        };
        let neg = |v: VarId| {
            if v == 0 {
                Rational::from_ratio_u64(3, 1)
            } else {
                Rational::from_ratio_u64(5, 1)
            }
        };
        assert_eq!(d.wmc(&pos, &neg), Rational::from_ratio_u64(23, 2));
        // With probability weights (pos + neg = 1), wmc agrees with
        // probability.
        let p = |v: VarId| Rational::from_ratio_u64(1, v as u64 + 3);
        let q = |v: VarId| p(v).complement();
        assert_eq!(d.wmc(&p, &q), d.probability(&p));
    }

    #[test]
    fn conditioning_fixes_a_variable() {
        let d = Dnnf::verify(exactly_one()).unwrap();
        // exactly_one | x0=1 is ¬x1; | x0=0 is x1.
        let c1 = d.condition(0, true);
        assert!(!c1.variables().contains(&0));
        assert_eq!(c1.count_models(&[1]).to_u64(), Some(1));
        assert!(c1.circuit().evaluate(&|_| false));
        assert!(!c1.circuit().evaluate(&|v| v == 1));
        let c0 = d.condition(0, false);
        assert!(c0.circuit().evaluate(&|v| v == 1));
        assert!(!c0.circuit().evaluate(&|_| false));
    }

    #[test]
    fn deterministic_or_with_mutually_exclusive_guards() {
        // (x0 AND x1) OR (NOT x0 AND x2) is deterministic and decomposable.
        let mut c = Circuit::new();
        let x0 = c.var(0);
        let x1 = c.var(1);
        let x2 = c.var(2);
        let n0 = c.not(x0);
        let left = c.and(vec![x0, x1]);
        let right = c.and(vec![n0, x2]);
        let o = c.or(vec![left, right]);
        c.set_output(o);
        let d = Dnnf::verify(c).unwrap();
        assert_eq!(d.count_models(&[0, 1, 2]).to_u64(), Some(4));
    }
}
