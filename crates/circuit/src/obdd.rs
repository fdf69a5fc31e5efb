//! Ordered binary decision diagrams (Definition 6.4 of the paper).
//!
//! An OBDD tests variables in a fixed order; reduced OBDDs (no duplicate
//! nodes, no redundant tests) are canonical for a given order, so their size
//! and width are well-defined function/order invariants. Section 6 shows that
//! MSO lineages on bounded-treewidth instances have polynomial OBDDs (and
//! constant-width ones on bounded pathwidth); Section 8 shows that for the
//! intricate query q_p the width must blow up on any unbounded-treewidth
//! family. The width measurements of those experiments are made on the
//! reduced OBDDs produced here.
//!
//! The construction used by default is the standard apply/`melding`
//! algorithm over a caller-supplied variable order, with hash-consing so the
//! result is reduced (hence canonical — see DESIGN.md §2 item 4 for how this
//! relates to the paper's level-by-level construction of Lemma 6.6, of which
//! [`Obdd::from_circuit_level_by_level`] is a direct, small-scale
//! transliteration used as a cross-check).

use crate::circuit::{Circuit, Gate, VarId};
use std::collections::{BTreeSet, HashMap};
use treelineage_num::{BigUint, Rational};

/// Reference to an OBDD node or terminal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Ref {
    /// The 0-terminal.
    False,
    /// The 1-terminal.
    True,
    /// An internal node (index into the node table).
    Node(usize),
}

/// An internal OBDD node: a level (position of its variable in the order) and
/// the low/high children.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Node {
    level: usize,
    lo: Ref,
    hi: Ref,
}

/// A reduced OBDD over a fixed variable order.
#[derive(Clone, Debug)]
pub struct Obdd {
    order: Vec<VarId>,
    var_level: HashMap<VarId, usize>,
    nodes: Vec<Node>,
    unique: HashMap<(usize, Ref, Ref), usize>,
    root: Ref,
}

impl Obdd {
    /// Creates an OBDD manager for the given variable order, with root
    /// initially the 0-terminal. Duplicate variables in the order are not
    /// allowed.
    pub fn new(order: Vec<VarId>) -> Self {
        let var_level: HashMap<VarId, usize> =
            order.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        assert_eq!(var_level.len(), order.len(), "duplicate variable in order");
        Obdd {
            order,
            var_level,
            nodes: Vec::new(),
            unique: HashMap::new(),
            root: Ref::False,
        }
    }

    /// The variable order.
    pub fn order(&self) -> &[VarId] {
        &self.order
    }

    /// The root of the OBDD.
    pub fn root(&self) -> Ref {
        self.root
    }

    /// Sets the root.
    pub fn set_root(&mut self, root: Ref) {
        self.root = root;
    }

    /// Number of levels (variables in the order).
    pub fn level_count(&self) -> usize {
        self.order.len()
    }

    fn level_of(&self, r: Ref) -> usize {
        match r {
            Ref::False | Ref::True => self.order.len(),
            Ref::Node(i) => self.nodes[i].level,
        }
    }

    /// Creates (or reuses) a node, applying the reduction rules: a node whose
    /// children are equal is elided, and structurally identical nodes are
    /// shared.
    pub fn make_node(&mut self, level: usize, lo: Ref, hi: Ref) -> Ref {
        if lo == hi {
            return lo;
        }
        if let Some(&i) = self.unique.get(&(level, lo, hi)) {
            return Ref::Node(i);
        }
        let i = self.nodes.len();
        self.nodes.push(Node { level, lo, hi });
        self.unique.insert((level, lo, hi), i);
        Ref::Node(i)
    }

    /// The OBDD node testing a single variable.
    pub fn literal(&mut self, var: VarId, positive: bool) -> Ref {
        let level = *self
            .var_level
            .get(&var)
            .unwrap_or_else(|| panic!("variable {var} not in the order"));
        if positive {
            self.make_node(level, Ref::False, Ref::True)
        } else {
            self.make_node(level, Ref::True, Ref::False)
        }
    }

    /// The terminal for a constant.
    pub fn terminal(&self, value: bool) -> Ref {
        if value {
            Ref::True
        } else {
            Ref::False
        }
    }

    /// For an internal node, returns `(variable, lo child, hi child)`;
    /// `None` for terminals. Exposes the Shannon decomposition so that
    /// downstream code can convert OBDDs into circuits/d-DNNFs.
    pub fn decision_parts(&self, r: Ref) -> Option<(VarId, Ref, Ref)> {
        match r {
            Ref::False | Ref::True => None,
            Ref::Node(i) => {
                let n = self.nodes[i];
                Some((self.order[n.level], n.lo, n.hi))
            }
        }
    }

    fn cofactors(&self, r: Ref, level: usize) -> (Ref, Ref) {
        match r {
            Ref::False | Ref::True => (r, r),
            Ref::Node(i) => {
                let n = self.nodes[i];
                if n.level == level {
                    (n.lo, n.hi)
                } else {
                    (r, r)
                }
            }
        }
    }

    /// Conjunction of two OBDD functions.
    pub fn and(&mut self, a: Ref, b: Ref) -> Ref {
        let mut memo = HashMap::new();
        self.apply(a, b, Op::And, &mut memo)
    }

    /// Disjunction of two OBDD functions.
    pub fn or(&mut self, a: Ref, b: Ref) -> Ref {
        let mut memo = HashMap::new();
        self.apply(a, b, Op::Or, &mut memo)
    }

    /// Exclusive or of two OBDD functions.
    pub fn xor(&mut self, a: Ref, b: Ref) -> Ref {
        let mut memo = HashMap::new();
        self.apply(a, b, Op::Xor, &mut memo)
    }

    /// Negation of an OBDD function: a dedicated memoized pass swapping the
    /// terminals (one visit per reachable node, no binary-apply machinery —
    /// previously this rebuilt the whole diagram as `xor(a, True)`). For
    /// truly O(1) negation see the complement edges of `treelineage-dd`.
    pub fn not(&mut self, a: Ref) -> Ref {
        let mut memo = HashMap::new();
        self.not_rec(a, &mut memo)
    }

    fn not_rec(&mut self, r: Ref, memo: &mut HashMap<Ref, Ref>) -> Ref {
        match r {
            Ref::False => Ref::True,
            Ref::True => Ref::False,
            Ref::Node(i) => {
                if let Some(&n) = memo.get(&r) {
                    return n;
                }
                let Node { level, lo, hi } = self.nodes[i];
                let lo = self.not_rec(lo, memo);
                let hi = self.not_rec(hi, memo);
                let result = self.make_node(level, lo, hi);
                memo.insert(r, result);
                result
            }
        }
    }

    fn apply(&mut self, a: Ref, b: Ref, op: Op, memo: &mut HashMap<(Ref, Ref), Ref>) -> Ref {
        if let Some(result) = op.shortcut(a, b) {
            return result;
        }
        if let Some(&r) = memo.get(&(a, b)) {
            return r;
        }
        let level = self.level_of(a).min(self.level_of(b));
        debug_assert!(level < self.order.len());
        let (a_lo, a_hi) = self.cofactors(a, level);
        let (b_lo, b_hi) = self.cofactors(b, level);
        let lo = self.apply(a_lo, b_lo, op, memo);
        let hi = self.apply(a_hi, b_hi, op, memo);
        let result = self.make_node(level, lo, hi);
        memo.insert((a, b), result);
        result
    }

    /// Compiles a circuit into this OBDD (the circuit's variables must all be
    /// in the order). Returns the root reference and sets it as the OBDD's
    /// root.
    pub fn compile_circuit(&mut self, circuit: &Circuit) -> Ref {
        let mut refs: Vec<Ref> = Vec::with_capacity(circuit.size());
        for id in circuit.gate_ids() {
            let r = match circuit.gate(id) {
                Gate::Var(v) => self.literal(v, true),
                Gate::Const(b) => self.terminal(b),
                Gate::Not(i) => {
                    let inner = refs[i.0];
                    self.not(inner)
                }
                Gate::And(inputs) => {
                    let mut acc = Ref::True;
                    for &i in inputs {
                        acc = self.and(acc, refs[i.0]);
                    }
                    acc
                }
                Gate::Or(inputs) => {
                    let mut acc = Ref::False;
                    for &i in inputs {
                        acc = self.or(acc, refs[i.0]);
                    }
                    acc
                }
            };
            refs.push(r);
        }
        let root = refs[circuit.output().0];
        self.root = root;
        root
    }

    /// Builds the OBDD for a circuit with the given order using the standard
    /// apply algorithm. Convenience wrapper around [`Obdd::new`] +
    /// [`Obdd::compile_circuit`].
    pub fn from_circuit(circuit: &Circuit, order: Vec<VarId>) -> Obdd {
        let mut obdd = Obdd::new(order);
        obdd.compile_circuit(circuit);
        obdd
    }

    /// Literal transliteration of Lemma 6.6's level-by-level construction:
    /// build the decision diagram level by level along the order, merging
    /// nodes whose partial valuations are equivalent (tested exhaustively on
    /// the remaining variables). Exponential in the number of variables; used
    /// as a cross-check on small inputs that the apply-based construction
    /// yields the same canonical diagram.
    pub fn from_circuit_level_by_level(circuit: &Circuit, order: Vec<VarId>) -> Obdd {
        assert!(
            order.len() <= 20,
            "level-by-level construction limited to 20 variables"
        );
        let mut obdd = Obdd::new(order.clone());
        // Recursive canonical construction by Shannon expansion along the
        // order, memoized on the truth table of the residual function — this
        // produces the reduced OBDD, merging equivalent partial valuations
        // exactly as in the lemma.
        let mut memo: HashMap<Vec<bool>, Ref> = HashMap::new();
        let root = build_canonical(circuit, &order, 0, &mut Vec::new(), &mut memo, &mut obdd);
        obdd.root = root;
        obdd
    }

    /// Number of internal nodes reachable from the root (the OBDD's size; the
    /// two terminals are not counted).
    pub fn size(&self) -> usize {
        self.reachable().len()
    }

    /// Number of reachable nodes per level; the OBDD's *width* (Definition
    /// 6.4) is the maximum entry.
    pub fn level_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.order.len()];
        for i in self.reachable() {
            sizes[self.nodes[i].level] += 1;
        }
        sizes
    }

    /// The width of the OBDD: the maximum number of reachable nodes at any
    /// level (at least 1 for non-constant functions).
    pub fn width(&self) -> usize {
        self.level_sizes().into_iter().max().unwrap_or(0)
    }

    fn reachable(&self) -> Vec<usize> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = Vec::new();
        if let Ref::Node(i) = self.root {
            stack.push(i);
            seen[i] = true;
        }
        let mut out = Vec::new();
        while let Some(i) = stack.pop() {
            out.push(i);
            for child in [self.nodes[i].lo, self.nodes[i].hi] {
                if let Ref::Node(j) = child {
                    if !seen[j] {
                        seen[j] = true;
                        stack.push(j);
                    }
                }
            }
        }
        out
    }

    /// Evaluates the OBDD on a set of true variables.
    pub fn evaluate_set(&self, true_vars: &BTreeSet<VarId>) -> bool {
        let mut current = self.root;
        loop {
            match current {
                Ref::False => return false,
                Ref::True => return true,
                Ref::Node(i) => {
                    let node = self.nodes[i];
                    let var = self.order[node.level];
                    current = if true_vars.contains(&var) {
                        node.hi
                    } else {
                        node.lo
                    };
                }
            }
        }
    }

    /// Probability that the OBDD's function is true when each variable `v` is
    /// independently true with probability `prob(v)`. Linear in the OBDD size
    /// (probability evaluation for OBDDs is tractable, as used in Theorem 6.5
    /// / \[47\]).
    pub fn probability(&self, prob: &dyn Fn(VarId) -> Rational) -> Rational {
        let mut memo: HashMap<Ref, Rational> = HashMap::new();
        self.prob_rec(self.root, prob, &mut memo)
    }

    fn prob_rec(
        &self,
        r: Ref,
        prob: &dyn Fn(VarId) -> Rational,
        memo: &mut HashMap<Ref, Rational>,
    ) -> Rational {
        match r {
            Ref::False => Rational::zero(),
            Ref::True => Rational::one(),
            Ref::Node(i) => {
                if let Some(p) = memo.get(&r) {
                    return p.clone();
                }
                let node = self.nodes[i];
                let var = self.order[node.level];
                let p_var = prob(var);
                let p_hi = self.prob_rec(node.hi, prob, memo);
                let p_lo = self.prob_rec(node.lo, prob, memo);
                let result = &(&p_var * &p_hi) + &(&p_var.complement() * &p_lo);
                memo.insert(r, result.clone());
                result
            }
        }
    }

    /// Number of satisfying assignments over the variables of the order.
    pub fn count_models(&self) -> BigUint {
        let mut memo: HashMap<usize, BigUint> = HashMap::new();
        // count_rec(r) counts assignments of the variables at levels
        // >= level_of(r); the root may skip leading levels, each doubling
        // the count.
        let below = self.count_rec(self.root, &mut memo);
        &below * &BigUint::pow2(self.level_of(self.root))
    }

    fn count_rec(&self, r: Ref, memo: &mut HashMap<usize, BigUint>) -> BigUint {
        match r {
            Ref::False => BigUint::zero(),
            Ref::True => BigUint::one(),
            Ref::Node(i) => {
                if let Some(c) = memo.get(&i) {
                    return c.clone();
                }
                let node = self.nodes[i];
                // Each child may itself skip levels between node.level + 1
                // and its own level; those skipped variables are free.
                let hi = self.count_rec(node.hi, memo);
                let lo = self.count_rec(node.lo, memo);
                let hi_scaled = &hi * &BigUint::pow2(self.level_of(node.hi) - node.level - 1);
                let lo_scaled = &lo * &BigUint::pow2(self.level_of(node.lo) - node.level - 1);
                let result = &hi_scaled + &lo_scaled;
                memo.insert(i, result.clone());
                result
            }
        }
    }

    /// Returns `true` if the OBDD represents the same function as another
    /// OBDD over the same order (checked by a product traversal, polynomial
    /// in the two sizes).
    pub fn equivalent_to(&self, other: &Obdd) -> bool {
        assert_eq!(self.order, other.order, "orders must match");
        let mut memo: HashMap<(Ref, Ref), bool> = HashMap::new();
        self.equiv_rec(self.root, other, other.root, &mut memo)
    }

    fn equiv_rec(
        &self,
        a: Ref,
        other: &Obdd,
        b: Ref,
        memo: &mut HashMap<(Ref, Ref), bool>,
    ) -> bool {
        match (a, b) {
            (Ref::False, Ref::False) | (Ref::True, Ref::True) => true,
            (Ref::False, Ref::True) | (Ref::True, Ref::False) => false,
            _ => {
                if let Some(&r) = memo.get(&(a, b)) {
                    return r;
                }
                let level = self.level_of(a).min(other.level_of(b));
                let (a_lo, a_hi) = self.cofactors(a, level);
                let (b_lo, b_hi) = other.cofactors(b, level);
                let result = self.equiv_rec(a_lo, other, b_lo, memo)
                    && self.equiv_rec(a_hi, other, b_hi, memo);
                memo.insert((a, b), result);
                result
            }
        }
    }
}

fn build_canonical(
    circuit: &Circuit,
    order: &[VarId],
    level: usize,
    assignment: &mut Vec<(VarId, bool)>,
    memo: &mut HashMap<Vec<bool>, Ref>,
    obdd: &mut Obdd,
) -> Ref {
    // Key: the truth table of the circuit restricted by `assignment`,
    // enumerated over the remaining variables in order. Two partial
    // valuations are merged iff they are equivalent in the sense of
    // Lemma 6.6.
    let remaining = &order[level..];
    let mut table = Vec::with_capacity(1 << remaining.len());
    for mask in 0u64..(1u64 << remaining.len()) {
        let assigned: HashMap<VarId, bool> = assignment
            .iter()
            .copied()
            .chain(
                remaining
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (v, mask >> i & 1 == 1)),
            )
            .collect();
        table.push(circuit.evaluate(&|v| assigned.get(&v).copied().unwrap_or(false)));
    }
    if let Some(&r) = memo.get(&table) {
        return r;
    }
    let result = if remaining.is_empty() {
        obdd.terminal(table[0])
    } else if table.iter().all(|&b| b) {
        Ref::True
    } else if table.iter().all(|&b| !b) {
        Ref::False
    } else {
        let var = order[level];
        assignment.push((var, false));
        let lo = build_canonical(circuit, order, level + 1, assignment, memo, obdd);
        assignment.pop();
        assignment.push((var, true));
        let hi = build_canonical(circuit, order, level + 1, assignment, memo, obdd);
        assignment.pop();
        obdd.make_node(level, lo, hi)
    };
    memo.insert(table, result);
    result
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Op {
    And,
    Or,
    Xor,
}

impl Op {
    fn shortcut(self, a: Ref, b: Ref) -> Option<Ref> {
        match self {
            Op::And => match (a, b) {
                (Ref::False, _) | (_, Ref::False) => Some(Ref::False),
                (Ref::True, x) | (x, Ref::True) => Some(x),
                _ if a == b => Some(a),
                _ => None,
            },
            Op::Or => match (a, b) {
                (Ref::True, _) | (_, Ref::True) => Some(Ref::True),
                (Ref::False, x) | (x, Ref::False) => Some(x),
                _ if a == b => Some(a),
                _ => None,
            },
            Op::Xor => match (a, b) {
                (Ref::False, x) | (x, Ref::False) => Some(x),
                _ if a == b => Some(Ref::False),
                _ => None,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::{parity_circuit, threshold2_circuit};

    fn truth_table(obdd: &Obdd, vars: &[VarId]) -> Vec<bool> {
        let mut out = Vec::new();
        for mask in 0u64..(1u64 << vars.len()) {
            let set: BTreeSet<VarId> = vars
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, &v)| v)
                .collect();
            out.push(obdd.evaluate_set(&set));
        }
        out
    }

    #[test]
    fn literal_and_basic_operations() {
        let mut obdd = Obdd::new(vec![0, 1]);
        let x = obdd.literal(0, true);
        let y = obdd.literal(1, true);
        let both = obdd.and(x, y);
        obdd.set_root(both);
        assert!(obdd.evaluate_set(&[0, 1].into_iter().collect()));
        assert!(!obdd.evaluate_set(&[0].into_iter().collect()));
        assert_eq!(obdd.count_models().to_u64(), Some(1));
        let either = obdd.or(x, y);
        obdd.set_root(either);
        assert_eq!(obdd.count_models().to_u64(), Some(3));
        let neither = obdd.not(either);
        obdd.set_root(neither);
        assert_eq!(obdd.count_models().to_u64(), Some(1));
        assert!(obdd.evaluate_set(&BTreeSet::new()));
    }

    #[test]
    fn compile_circuit_matches_circuit() {
        let vars: Vec<VarId> = (0..6).collect();
        let circuit = threshold2_circuit(&vars);
        let obdd = Obdd::from_circuit(&circuit, vars.clone());
        for mask in 0u64..(1 << 6) {
            let set: BTreeSet<VarId> = vars
                .iter()
                .filter(|&&v| mask >> v & 1 == 1)
                .copied()
                .collect();
            assert_eq!(obdd.evaluate_set(&set), set.len() >= 2);
        }
        // Threshold-2 has a width-3 reduced OBDD under any order.
        assert!(obdd.width() <= 3);
        assert_eq!(
            obdd.count_models().to_u64(),
            Some((0u64..64).filter(|m| m.count_ones() >= 2).count() as u64)
        );
    }

    #[test]
    fn parity_has_constant_width() {
        let vars: Vec<VarId> = (0..10).collect();
        let circuit = parity_circuit(&vars);
        let obdd = Obdd::from_circuit(&circuit, vars.clone());
        assert_eq!(obdd.width(), 2);
        assert_eq!(obdd.size(), 2 * 10 - 1);
        assert_eq!(obdd.count_models().to_u64(), Some(512));
    }

    #[test]
    fn level_by_level_matches_apply_construction() {
        for n in [3usize, 5, 7] {
            let vars: Vec<VarId> = (0..n).collect();
            for circuit in [threshold2_circuit(&vars), parity_circuit(&vars)] {
                let a = Obdd::from_circuit(&circuit, vars.clone());
                let b = Obdd::from_circuit_level_by_level(&circuit, vars.clone());
                assert_eq!(truth_table(&a, &vars), truth_table(&b, &vars));
                assert!(a.equivalent_to(&b));
                // Both are reduced, hence canonical: same size and width.
                assert_eq!(a.size(), b.size(), "n={n}");
                assert_eq!(a.width(), b.width(), "n={n}");
            }
        }
    }

    #[test]
    fn variable_order_affects_width() {
        // The function (x0 AND x1) OR (x2 AND x3) OR (x4 AND x5) has constant
        // width under the interleaved order but exponential width under the
        // "all left ends first" order.
        let build = |order: Vec<VarId>| {
            let mut c = Circuit::new();
            let pairs: Vec<GateIdPair> = (0..3)
                .map(|i| {
                    let a = c.var(2 * i);
                    let b = c.var(2 * i + 1);
                    (a, b)
                })
                .collect();
            let ands: Vec<_> = pairs.iter().map(|&(a, b)| c.and(vec![a, b])).collect();
            let o = c.or(ands);
            c.set_output(o);
            Obdd::from_circuit(&c, order)
        };
        type GateIdPair = (crate::circuit::GateId, crate::circuit::GateId);
        let good = build(vec![0, 1, 2, 3, 4, 5]);
        let bad = build(vec![0, 2, 4, 1, 3, 5]);
        assert!(good.width() <= 2);
        assert!(bad.width() > good.width());
        assert_eq!(good.count_models(), bad.count_models());
    }

    #[test]
    fn probability_matches_bruteforce() {
        let vars: Vec<VarId> = (0..5).collect();
        let circuit = threshold2_circuit(&vars);
        let obdd = Obdd::from_circuit(&circuit, vars.clone());
        let prob = |v: VarId| Rational::from_ratio_u64(1, (v + 2) as u64);
        let exact = obdd.probability(&prob);
        // Brute force.
        let mut expected = Rational::zero();
        for mask in 0u64..(1 << 5) {
            if (mask.count_ones() as usize) < 2 {
                continue;
            }
            let mut w = Rational::one();
            for &v in &vars {
                let p = prob(v);
                if mask >> v & 1 == 1 {
                    w = &w * &p;
                } else {
                    w = &w * &p.complement();
                }
            }
            expected = &expected + &w;
        }
        assert_eq!(exact, expected);
    }

    #[test]
    fn equivalence_check() {
        let vars: Vec<VarId> = (0..4).collect();
        let a = Obdd::from_circuit(&threshold2_circuit(&vars), vars.clone());
        let b = Obdd::from_circuit_level_by_level(&threshold2_circuit(&vars), vars.clone());
        let c = Obdd::from_circuit(&parity_circuit(&vars), vars.clone());
        assert!(a.equivalent_to(&b));
        assert!(!a.equivalent_to(&c));
    }

    #[test]
    #[should_panic]
    fn unknown_variable_panics() {
        let mut obdd = Obdd::new(vec![0, 1]);
        let _ = obdd.literal(5, true);
    }
}
