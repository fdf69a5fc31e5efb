//! Boolean formulas and the circuit/formula conciseness gap (Section 7).
//!
//! A formula is a tree-shaped circuit: subformulas cannot be shared. The
//! paper's Section 7 shows that lineages that admit linear-size circuits can
//! require super-linear formulas (threshold and parity functions, via the
//! classical lower bounds of Wegener's book \[51\]); this module provides the
//! formula representation, its size measures, the conversion from
//! circuits, and the explicit constructions used by the Table 2 lower-bound
//! experiments (divide-and-conquer threshold formulas, recursive parity
//! formulas, monotone threshold formulas).

use crate::circuit::{Circuit, Gate, GateId, VarId};
use std::collections::BTreeSet;

/// A Boolean formula (tree-structured, no sharing).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Formula {
    /// A variable leaf.
    Var(VarId),
    /// A constant leaf.
    Const(bool),
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction (empty = `true`).
    And(Vec<Formula>),
    /// Disjunction (empty = `false`).
    Or(Vec<Formula>),
}

impl Formula {
    /// Number of variable occurrences (leaves); the size measure used by the
    /// classical formula lower bounds cited in Section 7.
    pub fn leaf_size(&self) -> usize {
        match self {
            Formula::Var(_) => 1,
            Formula::Const(_) => 0,
            Formula::Not(f) => f.leaf_size(),
            Formula::And(fs) | Formula::Or(fs) => fs.iter().map(|f| f.leaf_size()).sum(),
        }
    }

    /// Total number of nodes (connectives + leaves).
    pub fn node_size(&self) -> usize {
        match self {
            Formula::Var(_) | Formula::Const(_) => 1,
            Formula::Not(f) => 1 + f.node_size(),
            Formula::And(fs) | Formula::Or(fs) => {
                1 + fs.iter().map(|f| f.node_size()).sum::<usize>()
            }
        }
    }

    /// The set of variables occurring in the formula.
    pub fn variables(&self) -> BTreeSet<VarId> {
        let mut vars = BTreeSet::new();
        self.collect_vars(&mut vars);
        vars
    }

    fn collect_vars(&self, vars: &mut BTreeSet<VarId>) {
        match self {
            Formula::Var(v) => {
                vars.insert(*v);
            }
            Formula::Const(_) => {}
            Formula::Not(f) => f.collect_vars(vars),
            Formula::And(fs) | Formula::Or(fs) => {
                for f in fs {
                    f.collect_vars(vars);
                }
            }
        }
    }

    /// Returns `true` if the formula uses only AND and OR (no negation) —
    /// the monotone basis of Proposition 7.2.
    pub fn is_monotone(&self) -> bool {
        match self {
            Formula::Var(_) | Formula::Const(_) => true,
            Formula::Not(_) => false,
            Formula::And(fs) | Formula::Or(fs) => fs.iter().all(|f| f.is_monotone()),
        }
    }

    /// Evaluates the formula.
    pub fn evaluate(&self, assignment: &dyn Fn(VarId) -> bool) -> bool {
        match self {
            Formula::Var(v) => assignment(*v),
            Formula::Const(b) => *b,
            Formula::Not(f) => !f.evaluate(assignment),
            Formula::And(fs) => fs.iter().all(|f| f.evaluate(assignment)),
            Formula::Or(fs) => fs.iter().any(|f| f.evaluate(assignment)),
        }
    }

    /// Evaluates the formula on a set of true variables.
    pub fn evaluate_set(&self, true_vars: &BTreeSet<VarId>) -> bool {
        self.evaluate(&|v| true_vars.contains(&v))
    }

    /// Converts the formula into a circuit (linear in the formula size).
    #[cfg(test)]
    fn to_circuit(&self) -> Circuit {
        let mut circuit = Circuit::new();
        let output = self.build_into(&mut circuit);
        circuit.set_output(output);
        circuit
    }

    #[cfg(test)]
    fn build_into(&self, circuit: &mut Circuit) -> GateId {
        match self {
            Formula::Var(v) => circuit.var(*v),
            Formula::Const(b) => circuit.constant(*b),
            Formula::Not(f) => {
                let inner = f.build_into(circuit);
                circuit.not(inner)
            }
            Formula::And(fs) => {
                let inputs: Vec<GateId> = fs.iter().map(|f| f.build_into(circuit)).collect();
                circuit.and(inputs)
            }
            Formula::Or(fs) => {
                let inputs: Vec<GateId> = fs.iter().map(|f| f.build_into(circuit)).collect();
                circuit.or(inputs)
            }
        }
    }

    /// Expands a circuit into a formula by duplicating shared subcircuits
    /// (exponential in the worst case — this blow-up is exactly the
    /// conciseness gap studied in Section 7). Panics if the expansion exceeds
    /// `max_nodes` nodes.
    pub fn from_circuit(circuit: &Circuit, max_nodes: usize) -> Formula {
        let mut budget = max_nodes;
        Self::expand(circuit, circuit.output(), &mut budget)
    }

    fn expand(circuit: &Circuit, gate: GateId, budget: &mut usize) -> Formula {
        assert!(*budget > 0, "formula expansion exceeded budget");
        *budget -= 1;
        match circuit.gate(gate) {
            Gate::Var(v) => Formula::Var(v),
            Gate::Const(b) => Formula::Const(b),
            Gate::Not(i) => Formula::Not(Box::new(Self::expand(circuit, i, budget))),
            Gate::And(inputs) => Formula::And(
                inputs
                    .iter()
                    .map(|&i| Self::expand(circuit, i, budget))
                    .collect(),
            ),
            Gate::Or(inputs) => Formula::Or(
                inputs
                    .iter()
                    .map(|&i| Self::expand(circuit, i, budget))
                    .collect(),
            ),
        }
    }
}

/// The threshold-2 function over `vars` ("at least two inputs are true"),
/// as a monotone formula built by divide and conquer:
/// `T2(A ∪ B) = T2(A) ∨ T2(B) ∨ (T1(A) ∧ T1(B))`, giving `O(n log n)` leaves.
/// This is the lineage of the CQ≠ query of Proposition 7.1 / 7.2 on the
/// unary family instance, and the best-possible monotone formula size up to
/// constants (Hansel's `Ω(n log n)` lower bound \[31\]).
pub fn threshold2_formula(vars: &[VarId]) -> Formula {
    match vars.len() {
        0 | 1 => Formula::Const(false),
        2 => Formula::And(vec![Formula::Var(vars[0]), Formula::Var(vars[1])]),
        _ => {
            let mid = vars.len() / 2;
            let (a, b) = vars.split_at(mid);
            let t1a = Formula::Or(a.iter().map(|&v| Formula::Var(v)).collect());
            let t1b = Formula::Or(b.iter().map(|&v| Formula::Var(v)).collect());
            Formula::Or(vec![
                threshold2_formula(a),
                threshold2_formula(b),
                Formula::And(vec![t1a, t1b]),
            ])
        }
    }
}

/// The naive quadratic monotone formula for threshold-2: the disjunction of
/// all pairwise conjunctions. Used as the "obvious" baseline in the formula
/// lower-bound experiment.
pub fn threshold2_formula_naive(vars: &[VarId]) -> Formula {
    let mut disjuncts = Vec::new();
    for i in 0..vars.len() {
        for j in i + 1..vars.len() {
            disjuncts.push(Formula::And(vec![
                Formula::Var(vars[i]),
                Formula::Var(vars[j]),
            ]));
        }
    }
    Formula::Or(disjuncts)
}

/// The linear-size threshold-2 *circuit* (a running "seen one / seen two"
/// scan); the upper-bound counterpart in the Table 2 lower-bound experiment.
pub fn threshold2_circuit(vars: &[VarId]) -> Circuit {
    let mut c = Circuit::new();
    let mut seen_one = c.constant(false);
    let mut seen_two = c.constant(false);
    for &v in vars {
        let x = c.var(v);
        let both = c.and(vec![seen_one, x]);
        seen_two = c.or(vec![seen_two, both]);
        seen_one = c.or(vec![seen_one, x]);
    }
    c.set_output(seen_two);
    c
}

/// The parity function over `vars` as a formula, by the recursive splitting
/// `parity(A ∪ B) = parity(A) ⊕ parity(B)` with XOR expanded over the
/// {AND, OR, NOT} basis. Its leaf size is Θ(n²), matching the classical
/// `Ω(n²)` lower bound (\[51\], used by Proposition 7.3).
pub fn parity_formula(vars: &[VarId]) -> Formula {
    match vars.len() {
        0 => Formula::Const(false),
        1 => Formula::Var(vars[0]),
        _ => {
            let mid = vars.len() / 2;
            let (a, b) = vars.split_at(mid);
            let pa = parity_formula(a);
            let pb = parity_formula(b);
            // pa XOR pb = (pa AND NOT pb) OR (NOT pa AND pb); each operand is
            // duplicated once, which is what drives the quadratic size.
            Formula::Or(vec![
                Formula::And(vec![pa.clone(), Formula::Not(Box::new(pb.clone()))]),
                Formula::And(vec![Formula::Not(Box::new(pa)), pb]),
            ])
        }
    }
}

/// The linear-size parity *circuit* (a running XOR over the inputs, with each
/// XOR expanded over the {AND, OR, NOT} basis but sharing the running value).
pub fn parity_circuit(vars: &[VarId]) -> Circuit {
    let mut c = Circuit::new();
    let mut acc = c.constant(false);
    for &v in vars {
        let x = c.var(v);
        let not_x = c.not(x);
        let not_acc = c.not(acc);
        let left = c.and(vec![acc, not_x]);
        let right = c.and(vec![not_acc, x]);
        acc = c.or(vec![left, right]);
    }
    c.set_output(acc);
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_variables() {
        let f = Formula::Or(vec![
            Formula::And(vec![Formula::Var(0), Formula::Var(1)]),
            Formula::Not(Box::new(Formula::Var(2))),
        ]);
        assert_eq!(f.leaf_size(), 3);
        assert_eq!(f.node_size(), 6);
        assert_eq!(f.variables(), [0, 1, 2].into_iter().collect());
        assert!(!f.is_monotone());
    }

    #[test]
    fn formula_circuit_roundtrip() {
        let f = Formula::Or(vec![
            Formula::And(vec![Formula::Var(0), Formula::Var(1)]),
            Formula::Not(Box::new(Formula::Var(2))),
        ]);
        let c = f.to_circuit();
        for mask in 0u32..8 {
            let assignment = |v: VarId| mask >> v & 1 == 1;
            assert_eq!(f.evaluate(&assignment), c.evaluate(&assignment));
        }
        let back = Formula::from_circuit(&c, 1000);
        assert!(back.to_circuit().equivalent_to(&c));
    }

    #[test]
    fn threshold2_constructions_agree() {
        for n in 1..=9usize {
            let vars: Vec<VarId> = (0..n).collect();
            let dnc = threshold2_formula(&vars);
            let naive = threshold2_formula_naive(&vars);
            let circuit = threshold2_circuit(&vars);
            assert!(dnc.is_monotone());
            assert!(naive.is_monotone());
            assert!(circuit.is_monotone_syntactically() || n == 0);
            for mask in 0u32..(1 << n) {
                let expected = mask.count_ones() >= 2;
                let assignment = |v: VarId| mask >> v & 1 == 1;
                assert_eq!(dnc.evaluate(&assignment), expected, "dnc n={n} mask={mask}");
                assert_eq!(naive.evaluate(&assignment), expected);
                assert_eq!(circuit.evaluate(&assignment), expected);
            }
        }
    }

    #[test]
    fn threshold2_sizes() {
        // Divide-and-conquer formula is O(n log n) leaves; the circuit is
        // O(n) gates; the naive formula is Θ(n²).
        let vars: Vec<VarId> = (0..64).collect();
        let dnc = threshold2_formula(&vars).leaf_size();
        let naive = threshold2_formula_naive(&vars).leaf_size();
        let circuit = threshold2_circuit(&vars).size();
        assert!(dnc <= 64 * 7 * 2, "dnc size {dnc}");
        assert_eq!(naive, 64 * 63); // 2 * C(64, 2)
        assert!(circuit <= 64 * 5 + 3, "circuit size {circuit}");
        assert!(dnc < naive);
    }

    #[test]
    fn parity_constructions_agree() {
        for n in 1..=8usize {
            let vars: Vec<VarId> = (0..n).collect();
            let formula = parity_formula(&vars);
            let circuit = parity_circuit(&vars);
            for mask in 0u32..(1 << n) {
                let expected = mask.count_ones() % 2 == 1;
                let assignment = |v: VarId| mask >> v & 1 == 1;
                assert_eq!(formula.evaluate(&assignment), expected, "n={n} mask={mask}");
                assert_eq!(circuit.evaluate(&assignment), expected);
            }
        }
    }

    #[test]
    fn parity_formula_is_quadratic_circuit_is_linear() {
        let sizes: Vec<(usize, usize, usize)> = [8usize, 16, 32, 64]
            .iter()
            .map(|&n| {
                let vars: Vec<VarId> = (0..n).collect();
                (
                    n,
                    parity_formula(&vars).leaf_size(),
                    parity_circuit(&vars).size(),
                )
            })
            .collect();
        for &(n, formula_leaves, circuit_size) in &sizes {
            // Balanced recursive XOR expansion has exactly n^2 leaves when n
            // is a power of two.
            assert_eq!(formula_leaves, n * n);
            assert!(circuit_size <= 6 * n + 2);
        }
        // Quadratic vs linear growth: doubling n quadruples the formula.
        assert_eq!(sizes[1].1, 4 * sizes[0].1);
        assert_eq!(sizes[2].1, 4 * sizes[1].1);
    }

    #[test]
    fn expansion_budget_is_enforced() {
        let vars: Vec<VarId> = (0..12).collect();
        let c = parity_circuit(&vars);
        let result = std::panic::catch_unwind(|| Formula::from_circuit(&c, 50));
        assert!(result.is_err());
    }
}
