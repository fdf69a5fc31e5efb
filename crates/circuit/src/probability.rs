//! Probability evaluation for Boolean circuits.
//!
//! Three evaluation strategies, in increasing order of sophistication:
//!
//! * [`probability_bruteforce`] — enumerate all assignments (the oracle used
//!   by tests);
//! * [`Dnnf::probability`](crate::dnnf::Dnnf::probability) — linear time on
//!   d-DNNFs (in the `dnnf` module);
//! * [`probability_message_passing`] — the paper's "ra-linear" algorithm for
//!   bounded-treewidth circuits (Theorem 3.2 via \[40\]): given a tree
//!   decomposition of the circuit's gate graph in which every gate appears in
//!   a bag together with all of its inputs, probability evaluation runs in
//!   time linear in the number of decomposition nodes and exponential only in
//!   the decomposition width.

use crate::circuit::{Circuit, Gate, GateId, VarId};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use treelineage_graph::{NiceNode, NiceTreeDecomposition, TreeDecomposition};
use treelineage_num::Rational;

/// Brute-force probability of the circuit being true under independent
/// variables (`prob(v)` = probability that `v` is true). Exponential in the
/// number of variables; panics above 20.
pub fn probability_bruteforce(circuit: &Circuit, prob: &dyn Fn(VarId) -> Rational) -> Rational {
    let vars: Vec<VarId> = circuit.variables().into_iter().collect();
    assert!(
        vars.len() <= 20,
        "brute-force probability limited to 20 variables"
    );
    let mut total = Rational::zero();
    for mask in 0u64..(1u64 << vars.len()) {
        let true_vars: BTreeSet<VarId> = vars
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, &v)| v)
            .collect();
        if !circuit.evaluate_set(&true_vars) {
            continue;
        }
        let mut weight = Rational::one();
        for &v in &vars {
            let p = prob(v);
            if true_vars.contains(&v) {
                weight *= &p;
            } else {
                weight *= &p.complement();
            }
        }
        total += &weight;
    }
    total
}

/// Errors reported by [`probability_message_passing`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MessagePassingError {
    /// The decomposition does not cover some gate together with its inputs,
    /// so the gate's constraint cannot be assigned to a single bag.
    GateFamilyNotCovered(GateId),
    /// The decomposition is not a valid tree decomposition of the gate graph.
    InvalidDecomposition(String),
}

impl std::fmt::Display for MessagePassingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MessagePassingError::GateFamilyNotCovered(g) => {
                write!(f, "gate {g:?} and its inputs do not fit in any bag")
            }
            MessagePassingError::InvalidDecomposition(e) => {
                write!(f, "invalid circuit decomposition: {e}")
            }
        }
    }
}

impl std::error::Error for MessagePassingError {}

/// A factor of the probability computation: either the semantic constraint of
/// a gate (its value must equal the function of its inputs), the weight of an
/// input variable, or the requirement that the output gate be true.
enum Factor {
    GateConstraint(GateId),
    VarWeight(GateId, VarId),
    OutputTrue(GateId),
}

impl Factor {
    fn scope(&self, circuit: &Circuit) -> Vec<usize> {
        match self {
            Factor::GateConstraint(g) => {
                let mut scope = vec![g.0];
                match circuit.gate(*g) {
                    Gate::Not(i) => scope.push(i.0),
                    Gate::And(inputs) | Gate::Or(inputs) => {
                        scope.extend(inputs.iter().map(|i| i.0))
                    }
                    Gate::Var(_) | Gate::Const(_) => {}
                }
                scope.sort_unstable();
                scope.dedup();
                scope
            }
            Factor::VarWeight(g, _) | Factor::OutputTrue(g) => vec![g.0],
        }
    }

    /// Evaluates the factor under an assignment of gate values, returning the
    /// multiplicative contribution (0, 1, p or 1-p).
    fn evaluate(
        &self,
        circuit: &Circuit,
        assignment: &BTreeMap<usize, bool>,
        prob: &dyn Fn(VarId) -> Rational,
    ) -> Rational {
        match self {
            Factor::GateConstraint(g) => {
                let value = assignment[&g.0];
                let expected = match circuit.gate(*g) {
                    Gate::Const(b) => b,
                    Gate::Not(i) => !assignment[&i.0],
                    Gate::And(inputs) => inputs.iter().all(|i| assignment[&i.0]),
                    Gate::Or(inputs) => inputs.iter().any(|i| assignment[&i.0]),
                    Gate::Var(_) => unreachable!("variables have no constraint factor"),
                };
                if value == expected {
                    Rational::one()
                } else {
                    Rational::zero()
                }
            }
            Factor::VarWeight(g, v) => {
                if assignment[&g.0] {
                    prob(*v)
                } else {
                    prob(*v).complement()
                }
            }
            Factor::OutputTrue(g) => {
                if assignment[&g.0] {
                    Rational::one()
                } else {
                    Rational::zero()
                }
            }
        }
    }
}

/// Probability of the circuit's output being true, computed by message
/// passing over a tree decomposition of the circuit's gate graph. The
/// decomposition must be a valid tree decomposition of
/// [`Circuit::gate_graph`] in which, for every gate, some bag contains the
/// gate and all of its inputs (this holds for the moralized decompositions
/// produced by the lineage builders of the core crate). Runs in
/// `O(#bags · 2^{width+1})` arithmetic operations — the paper's ra-linear
/// bound for fixed width.
pub fn probability_message_passing(
    circuit: &Circuit,
    decomposition: &TreeDecomposition,
    prob: &dyn Fn(VarId) -> Rational,
) -> Result<Rational, MessagePassingError> {
    let gate_graph = circuit.gate_graph();
    decomposition
        .validate(&gate_graph)
        .map_err(|e| MessagePassingError::InvalidDecomposition(e.to_string()))?;

    let nice = NiceTreeDecomposition::from_tree_decomposition(decomposition);
    let order = nice.post_order();

    // Build the factor list.
    let mut factors: Vec<Factor> = Vec::new();
    for id in circuit.gate_ids() {
        match circuit.gate(id) {
            Gate::Var(v) => factors.push(Factor::VarWeight(id, v)),
            _ => factors.push(Factor::GateConstraint(id)),
        }
    }
    factors.push(Factor::OutputTrue(circuit.output()));

    // Assign each factor to the first node (in post-order) whose bag contains
    // its scope.
    let mut owners: Vec<Vec<usize>> = vec![Vec::new(); nice.node_count()];
    'factor: for (fi, factor) in factors.iter().enumerate() {
        let scope = factor.scope(circuit);
        for &node in &order {
            let bag = nice.bag(node);
            if scope.iter().all(|g| bag.contains(g)) {
                owners[node].push(fi);
                continue 'factor;
            }
        }
        // Not covered: report the offending gate.
        let gate = match factor {
            Factor::GateConstraint(g) | Factor::VarWeight(g, _) | Factor::OutputTrue(g) => *g,
        };
        return Err(MessagePassingError::GateFamilyNotCovered(gate));
    }

    // DP over the nice decomposition. A state maps an assignment of the bag's
    // gates (as a sorted (gate, value) vector) to the accumulated weight.
    type Assignment = Vec<(usize, bool)>;
    type State = HashMap<Assignment, Rational>;

    let apply_owned = |node: usize, state: &mut State| {
        if owners[node].is_empty() {
            return;
        }
        let mut next = State::new();
        for (assignment, weight) in state.iter() {
            let map: BTreeMap<usize, bool> = assignment.iter().copied().collect();
            let mut w = weight.clone();
            for &fi in &owners[node] {
                w *= &factors[fi].evaluate(circuit, &map, prob);
                if w.is_zero() {
                    break;
                }
            }
            if !w.is_zero() {
                next.entry(assignment.clone())
                    .and_modify(|acc| *acc += &w)
                    .or_insert(w);
            }
        }
        *state = next;
    };

    let mut states: Vec<State> = vec![State::new(); nice.node_count()];
    for &node in &order {
        let mut state = match nice.node(node) {
            NiceNode::Leaf => {
                let mut s = State::new();
                s.insert(Vec::new(), Rational::one());
                s
            }
            NiceNode::Introduce { vertex, child } => {
                let mut s = State::new();
                for (assignment, weight) in &states[*child] {
                    for value in [false, true] {
                        let mut extended = assignment.clone();
                        extended.push((*vertex, value));
                        extended.sort_unstable_by_key(|&(g, _)| g);
                        s.entry(extended)
                            .and_modify(|acc| *acc += weight)
                            .or_insert_with(|| weight.clone());
                    }
                }
                s
            }
            NiceNode::Forget { vertex, child } => {
                let mut s = State::new();
                for (assignment, weight) in &states[*child] {
                    let reduced: Assignment = assignment
                        .iter()
                        .copied()
                        .filter(|&(g, _)| g != *vertex)
                        .collect();
                    s.entry(reduced)
                        .and_modify(|acc| *acc += weight)
                        .or_insert_with(|| weight.clone());
                }
                s
            }
            NiceNode::Join { left, right } => {
                let mut s = State::new();
                let smaller;
                let larger;
                if states[*left].len() <= states[*right].len() {
                    smaller = &states[*left];
                    larger = &states[*right];
                } else {
                    smaller = &states[*right];
                    larger = &states[*left];
                }
                for (assignment, wl) in smaller {
                    if let Some(wr) = larger.get(assignment) {
                        let product = wl * wr;
                        s.entry(assignment.clone())
                            .and_modify(|acc| *acc += &product)
                            .or_insert(product);
                    }
                }
                s
            }
        };
        apply_owned(node, &mut state);
        states[node] = state;
    }

    let root_state = &states[nice.root()];
    let mut total = Rational::zero();
    for (_, weight) in root_state.iter() {
        total += weight;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::{parity_circuit, threshold2_circuit};
    use treelineage_graph::treewidth;

    fn check_against_bruteforce(circuit: &Circuit, prob: &dyn Fn(VarId) -> Rational) {
        let expected = probability_bruteforce(circuit, prob);
        // The covering decomposition (of the moralized gate graph) always
        // covers every gate family, so message passing must succeed and agree.
        let (_, td) = circuit.covering_decomposition();
        let actual = probability_message_passing(circuit, &td, prob).unwrap();
        assert_eq!(actual, expected);
    }

    #[test]
    fn bruteforce_on_simple_circuits() {
        let mut c = Circuit::new();
        let x0 = c.var(0);
        let x1 = c.var(1);
        let o = c.or(vec![x0, x1]);
        c.set_output(o);
        // P(x0 or x1) with p0 = 1/2, p1 = 1/3 is 1 - 1/2 * 2/3 = 2/3.
        let p = probability_bruteforce(&c, &|v| {
            if v == 0 {
                Rational::one_half()
            } else {
                Rational::from_ratio_u64(1, 3)
            }
        });
        assert_eq!(p, Rational::from_ratio_u64(2, 3));
    }

    #[test]
    fn message_passing_matches_bruteforce_threshold() {
        let vars: Vec<VarId> = (0..5).collect();
        let circuit = threshold2_circuit(&vars);
        check_against_bruteforce(&circuit, &|v| Rational::from_ratio_u64(1, v as u64 + 2));
    }

    #[test]
    fn message_passing_matches_bruteforce_parity() {
        let vars: Vec<VarId> = (0..6).collect();
        let circuit = parity_circuit(&vars);
        check_against_bruteforce(&circuit, &|_| Rational::from_ratio_u64(1, 3));
    }

    #[test]
    fn message_passing_on_explicit_small_circuit() {
        // (x0 AND x1) OR (NOT x2): a circuit whose heuristic decomposition
        // certainly covers every gate family.
        let mut c = Circuit::new();
        let x0 = c.var(0);
        let x1 = c.var(1);
        let x2 = c.var(2);
        let a = c.and(vec![x0, x1]);
        let n = c.not(x2);
        let o = c.or(vec![a, n]);
        c.set_output(o);
        let prob = |v: VarId| Rational::from_ratio_u64(1, v as u64 + 2);
        let expected = probability_bruteforce(&c, &prob);
        let (_, td) = c.covering_decomposition();
        let p = probability_message_passing(&c, &td, &prob).unwrap();
        assert_eq!(p, expected);
    }

    #[test]
    fn uncovered_gate_family_is_reported() {
        // An OR over 6 variables with a decomposition of width 1 cannot cover
        // the OR gate's family.
        let mut c = Circuit::new();
        let inputs: Vec<_> = (0..6).map(|v| c.var(v)).collect();
        let o = c.or(inputs);
        c.set_output(o);
        // Build a deliberately poor decomposition: a path of bags {or, x_i}.
        let mut td = TreeDecomposition::new();
        let mut prev = None;
        for v in 0..6usize {
            let bag = td.add_bag([v, 6usize].into_iter().collect());
            if let Some(p) = prev {
                td.add_tree_edge(p, bag);
            }
            prev = Some(bag);
        }
        let result = probability_message_passing(&c, &td, &|_| Rational::one_half());
        assert_eq!(
            result.unwrap_err(),
            MessagePassingError::GateFamilyNotCovered(GateId(6))
        );
    }

    #[test]
    fn invalid_decomposition_is_reported() {
        let mut c = Circuit::new();
        let x0 = c.var(0);
        let x1 = c.var(1);
        let o = c.and(vec![x0, x1]);
        c.set_output(o);
        let mut td = TreeDecomposition::new();
        td.add_bag([0usize].into_iter().collect());
        let result = probability_message_passing(&c, &td, &|_| Rational::one_half());
        assert!(matches!(
            result.unwrap_err(),
            MessagePassingError::InvalidDecomposition(_)
        ));
    }

    #[test]
    fn probability_one_and_zero_circuits() {
        let mut c = Circuit::new();
        let t = c.constant(true);
        c.set_output(t);
        let (_, td) = treewidth::treewidth_upper_bound(&c.gate_graph());
        assert!(
            probability_message_passing(&c, &td, &|_| Rational::one_half())
                .unwrap()
                .is_one()
        );
        let mut c0 = Circuit::new();
        let f = c0.constant(false);
        c0.set_output(f);
        let (_, td0) = treewidth::treewidth_upper_bound(&c0.gate_graph());
        assert!(
            probability_message_passing(&c0, &td0, &|_| Rational::one_half())
                .unwrap()
                .is_zero()
        );
    }
}
