//! Boolean circuits ("lineage circuits" / "provenance circuits",
//! Definition 6.2 of the paper).
//!
//! A circuit is a DAG of gates over input variables with AND, OR, NOT and
//! constant gates, and a distinguished output gate. The treewidth and
//! pathwidth of a circuit are those of its gate graph (the undirected graph
//! connecting every gate to its inputs); Theorem 6.3 builds bounded-treewidth
//! lineage circuits and Section 6 converts them to OBDDs and d-DNNFs.

use std::collections::{BTreeSet, HashMap};
use treelineage_graph::{Graph, TreeDecomposition};

/// A variable index. For lineage circuits, variable `i` stands for the fact
/// with id `i` of the instance.
pub type VarId = usize;

/// Identifier of a gate in a [`Circuit`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GateId(pub usize);

/// A gate of a Boolean circuit: a borrowed view of one record of the
/// circuit's flat storage ([`Circuit::gate`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Gate<'a> {
    /// An input gate for a variable.
    Var(VarId),
    /// A constant gate.
    Const(bool),
    /// Negation of a single gate.
    Not(GateId),
    /// Conjunction of the inputs (an empty AND is `true`).
    And(&'a [GateId]),
    /// Disjunction of the inputs (an empty OR is `false`).
    Or(&'a [GateId]),
}

/// The fixed-size record of one gate (16 bytes). AND/OR gates keep their
/// inputs as the range `start..start + len` of [`Circuit::inputs`].
#[derive(Clone, Copy, Debug)]
enum Record {
    Var(VarId),
    Const(bool),
    Not(GateId),
    And { start: usize, len: u32 },
    Or { start: usize, len: u32 },
}

/// A Boolean circuit: an arena of gates plus an output gate.
///
/// Gates are fixed-size records in id order, and the inputs of every
/// AND/OR gate are one contiguous run of a single shared array, so a
/// circuit is three allocations however many gates it has.
#[derive(Clone, Debug)]
pub struct Circuit {
    gates: Vec<Record>,
    inputs: Vec<GateId>,
    output: Option<GateId>,
    /// Cache of the variable gate for each variable, to share input gates.
    var_gates: HashMap<VarId, GateId>,
}

impl Circuit {
    /// Creates an empty circuit (no output designated yet).
    pub fn new() -> Self {
        Circuit {
            gates: Vec::new(),
            inputs: Vec::new(),
            output: None,
            var_gates: HashMap::new(),
        }
    }

    /// Number of gates (the circuit's size).
    pub fn size(&self) -> usize {
        self.gates.len()
    }

    /// The gate with the given id.
    pub fn gate(&self, id: GateId) -> Gate<'_> {
        match self.gates[id.0] {
            Record::Var(v) => Gate::Var(v),
            Record::Const(b) => Gate::Const(b),
            Record::Not(i) => Gate::Not(i),
            Record::And { start, len } => Gate::And(&self.inputs[start..start + len as usize]),
            Record::Or { start, len } => Gate::Or(&self.inputs[start..start + len as usize]),
        }
    }

    /// Every gate in id order (inputs before the gates that read them).
    fn each_gate(&self) -> impl Iterator<Item = Gate<'_>> {
        self.gate_ids().map(|id| self.gate(id))
    }

    /// The variable of every variable gate, in id order.
    fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.gates.iter().filter_map(|g| match *g {
            Record::Var(v) => Some(v),
            _ => None,
        })
    }

    /// All gate ids.
    pub fn gate_ids(&self) -> impl Iterator<Item = GateId> {
        (0..self.gates.len()).map(GateId)
    }

    /// The output gate. Panics if not set.
    pub fn output(&self) -> GateId {
        self.output.expect("circuit output not set")
    }

    /// Designates the output gate.
    pub fn set_output(&mut self, gate: GateId) {
        assert!(gate.0 < self.gates.len());
        self.output = Some(gate);
    }

    /// Adds (or reuses) the input gate for a variable.
    pub fn var(&mut self, v: VarId) -> GateId {
        if let Some(&g) = self.var_gates.get(&v) {
            return g;
        }
        let id = self.push(Record::Var(v));
        self.var_gates.insert(v, id);
        id
    }

    /// Adds a constant gate.
    pub fn constant(&mut self, value: bool) -> GateId {
        self.push(Record::Const(value))
    }

    /// Adds a NOT gate.
    pub fn not(&mut self, input: GateId) -> GateId {
        assert!(input.0 < self.gates.len(), "input gate out of range");
        self.push(Record::Not(input))
    }

    /// Adds an AND gate (inputs copied into the shared input array).
    pub fn and(&mut self, inputs: impl AsRef<[GateId]>) -> GateId {
        let (start, len) = self.push_inputs(inputs.as_ref());
        self.push(Record::And { start, len })
    }

    /// Adds an OR gate (inputs copied into the shared input array).
    pub fn or(&mut self, inputs: impl AsRef<[GateId]>) -> GateId {
        let (start, len) = self.push_inputs(inputs.as_ref());
        self.push(Record::Or { start, len })
    }

    /// Appends the inputs of a new AND/OR gate to the shared input array.
    fn push_inputs(&mut self, inputs: &[GateId]) -> (usize, u32) {
        assert!(
            inputs.iter().all(|i| i.0 < self.gates.len()),
            "input gate out of range"
        );
        let len = u32::try_from(inputs.len()).expect("gate fan-in fits in u32");
        let start = self.inputs.len();
        self.inputs.extend_from_slice(inputs);
        (start, len)
    }

    /// Drops the spare capacity of the gate and input arrays, for a
    /// finished circuit that stays resident (a [`crate::Dnnf`]).
    pub(crate) fn shrink_to_fit(&mut self) {
        self.gates.shrink_to_fit();
        self.inputs.shrink_to_fit();
    }

    fn push(&mut self, record: Record) -> GateId {
        self.gates.push(record);
        GateId(self.gates.len() - 1)
    }

    /// The set of variables appearing in the circuit (reachable from the
    /// output if an output is set, otherwise all variable gates).
    pub fn variables(&self) -> BTreeSet<VarId> {
        match self.output {
            Some(out) => {
                let mut vars = BTreeSet::new();
                let mut seen = vec![false; self.gates.len()];
                let mut stack = vec![out];
                seen[out.0] = true;
                while let Some(gate) = stack.pop() {
                    match self.gate(gate) {
                        Gate::Var(v) => {
                            vars.insert(v);
                        }
                        Gate::Const(_) => {}
                        Gate::Not(i) => {
                            if !seen[i.0] {
                                seen[i.0] = true;
                                stack.push(i);
                            }
                        }
                        Gate::And(inputs) | Gate::Or(inputs) => {
                            for &i in inputs {
                                if !seen[i.0] {
                                    seen[i.0] = true;
                                    stack.push(i);
                                }
                            }
                        }
                    }
                }
                vars
            }
            None => self.vars().collect(),
        }
    }

    /// The variables on which each gate depends, as dense bitsets over the
    /// circuit's variables — the cheap representation the d-DNNF
    /// decomposability and smoothness checks run on (one word per 64
    /// variables instead of a `BTreeSet` per gate, so deep circuits whose
    /// top gates mention most variables stay near-linear).
    pub(crate) fn dependency_bitsets(&self) -> GateDeps {
        let vars: Vec<VarId> = self
            .vars()
            .collect::<BTreeSet<VarId>>()
            .into_iter()
            .collect();
        let index: HashMap<VarId, usize> = vars.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let words = vars.len().div_ceil(64);
        let mut bits: Vec<u64> = vec![0; self.gates.len() * words];
        for (id, gate) in self.each_gate().enumerate() {
            let (from, to) = bits.split_at_mut(id * words);
            let row = &mut to[..words];
            match gate {
                Gate::Var(v) => {
                    let i = index[&v];
                    row[i / 64] |= 1 << (i % 64);
                }
                Gate::Const(_) => {}
                Gate::Not(i) => {
                    row.copy_from_slice(&from[i.0 * words..(i.0 + 1) * words]);
                }
                Gate::And(inputs) | Gate::Or(inputs) => {
                    for i in inputs {
                        for (w, &src) in row.iter_mut().zip(&from[i.0 * words..(i.0 + 1) * words]) {
                            *w |= src;
                        }
                    }
                }
            }
        }
        GateDeps { vars, words, bits }
    }

    /// The variables on which each gate depends (computed bottom-up for every
    /// gate; used by OBDD construction — the d-DNNF checks run on the
    /// crate-private `Circuit::dependency_bitsets` instead).
    pub fn gate_dependencies(&self) -> Vec<BTreeSet<VarId>> {
        let mut deps: Vec<BTreeSet<VarId>> = Vec::with_capacity(self.gates.len());
        for gate in self.each_gate() {
            let d = match gate {
                Gate::Var(v) => std::iter::once(v).collect(),
                Gate::Const(_) => BTreeSet::new(),
                Gate::Not(i) => deps[i.0].clone(),
                Gate::And(inputs) | Gate::Or(inputs) => {
                    let mut d = BTreeSet::new();
                    for i in inputs {
                        d.extend(deps[i.0].iter().copied());
                    }
                    d
                }
            };
            deps.push(d);
        }
        deps
    }

    /// Evaluates the circuit under a total assignment of the variables
    /// (variables missing from the map default to `false`, matching the
    /// possible-world reading where an absent fact is false).
    ///
    /// Gates are stored in topological order (every gate's inputs have
    /// smaller ids, enforced at construction), so evaluation is a single
    /// forward pass — no recursion, safe for very deep circuits.
    pub fn evaluate(&self, assignment: &dyn Fn(VarId) -> bool) -> bool {
        let values = self.evaluate_all_gates(assignment);
        values[self.output().0]
    }

    /// Evaluates all gates under an assignment and returns the values vector.
    pub fn evaluate_all_gates(&self, assignment: &dyn Fn(VarId) -> bool) -> Vec<bool> {
        let mut values: Vec<bool> = Vec::with_capacity(self.gates.len());
        for gate in self.each_gate() {
            let value = match gate {
                Gate::Var(v) => assignment(v),
                Gate::Const(b) => b,
                Gate::Not(i) => !values[i.0],
                Gate::And(inputs) => inputs.iter().all(|i| values[i.0]),
                Gate::Or(inputs) => inputs.iter().any(|i| values[i.0]),
            };
            values.push(value);
        }
        values
    }

    /// Evaluates the circuit on a set of true variables.
    pub fn evaluate_set(&self, true_vars: &BTreeSet<VarId>) -> bool {
        self.evaluate(&|v| true_vars.contains(&v))
    }

    /// Returns `true` if the circuit contains no NOT gate (a *monotone*
    /// lineage circuit in the sense of Definition 6.2).
    pub fn is_monotone_syntactically(&self) -> bool {
        !self.each_gate().any(|g| matches!(g, Gate::Not(_)))
    }

    /// The gate graph of the circuit: one vertex per gate, an edge between
    /// every gate and each of its inputs. The treewidth / pathwidth of the
    /// circuit (Definition 6.2) are those of this graph.
    pub fn gate_graph(&self) -> Graph {
        let mut g = Graph::new(self.gates.len());
        for (id, gate) in self.each_gate().enumerate() {
            match gate {
                Gate::Var(_) | Gate::Const(_) => {}
                Gate::Not(i) => {
                    g.add_edge(id, i.0);
                }
                Gate::And(inputs) | Gate::Or(inputs) => {
                    for i in inputs {
                        if i.0 != id {
                            g.add_edge(id, i.0);
                        }
                    }
                }
            }
        }
        g
    }

    /// The moralized gate graph: like [`Circuit::gate_graph`] but with every
    /// gate's *family* (the gate together with all its inputs) turned into a
    /// clique. Any valid tree decomposition of this graph has a bag
    /// containing each full family, which is what the message-passing
    /// probability algorithm needs (see `probability_message_passing`).
    fn moralized_gate_graph(&self) -> Graph {
        let mut g = self.gate_graph();
        for gate in self.each_gate() {
            if let Gate::And(inputs) | Gate::Or(inputs) = gate {
                for a in 0..inputs.len() {
                    for b in a + 1..inputs.len() {
                        if inputs[a] != inputs[b] {
                            g.add_edge(inputs[a].0, inputs[b].0);
                        }
                    }
                }
            }
        }
        g
    }

    /// A tree decomposition of the moralized gate graph (heuristic width),
    /// guaranteed to cover every gate family — the decomposition expected by
    /// the message-passing probability evaluation.
    pub fn covering_decomposition(&self) -> (usize, TreeDecomposition) {
        treelineage_graph::treewidth::treewidth_upper_bound(&self.moralized_gate_graph())
    }

    /// Heuristic upper bound on the circuit's treewidth (of its gate graph).
    pub fn treewidth_upper_bound(&self) -> (usize, TreeDecomposition) {
        treelineage_graph::treewidth::treewidth_upper_bound(&self.gate_graph())
    }

    /// Heuristic upper bound on the circuit's pathwidth.
    pub fn pathwidth_upper_bound(&self) -> (usize, TreeDecomposition) {
        treelineage_graph::treewidth::pathwidth_upper_bound(&self.gate_graph())
    }

    /// Builds the circuit computing the same function with the given partial
    /// assignment substituted in (the "restriction" used by Lemma 6.6 and by
    /// Proposition 7.3's proof). Gates are copied; variables in `fixed`
    /// become constant gates.
    pub fn restrict(&self, fixed: &HashMap<VarId, bool>) -> Circuit {
        self.copy_with(|out, v| match fixed.get(&v) {
            Some(&b) => out.constant(b),
            None => out.var(v),
        })
    }

    /// Copies the circuit gate by gate, building each variable gate with
    /// `leaf` (which may return any gate of the copy built so far).
    fn copy_with(&self, mut leaf: impl FnMut(&mut Circuit, VarId) -> GateId) -> Circuit {
        let mut out = Circuit::new();
        let mut mapping: Vec<GateId> = Vec::with_capacity(self.gates.len());
        for gate in self.each_gate() {
            let new_id = match gate {
                Gate::Var(v) => leaf(&mut out, v),
                Gate::Const(b) => out.constant(b),
                Gate::Not(i) => out.not(mapping[i.0]),
                Gate::And(inputs) => {
                    out.and(inputs.iter().map(|i| mapping[i.0]).collect::<Vec<_>>())
                }
                Gate::Or(inputs) => out.or(inputs.iter().map(|i| mapping[i.0]).collect::<Vec<_>>()),
            };
            mapping.push(new_id);
        }
        if let Some(o) = self.output {
            out.set_output(mapping[o.0]);
        }
        out
    }

    /// Brute-force check that two circuits compute the same Boolean function
    /// over the union of their variables. Exponential; panics above 20
    /// variables.
    pub fn equivalent_to(&self, other: &Circuit) -> bool {
        let vars: Vec<VarId> = self
            .variables()
            .union(&other.variables())
            .copied()
            .collect();
        assert!(
            vars.len() <= 20,
            "equivalence check limited to 20 variables"
        );
        for mask in 0u64..(1u64 << vars.len()) {
            let true_vars: BTreeSet<VarId> = vars
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, &v)| v)
                .collect();
            if self.evaluate_set(&true_vars) != other.evaluate_set(&true_vars) {
                return false;
            }
        }
        true
    }

    /// The number of satisfying assignments over the given variable universe
    /// (brute force; oracle for tests). Panics above 20 variables.
    pub fn count_models_bruteforce(&self, universe: &[VarId]) -> u64 {
        assert!(
            universe.len() <= 20,
            "model counting limited to 20 variables"
        );
        let mut count = 0;
        for mask in 0u64..(1u64 << universe.len()) {
            let true_vars: BTreeSet<VarId> = universe
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, &v)| v)
                .collect();
            if self.evaluate_set(&true_vars) {
                count += 1;
            }
        }
        count
    }
}

impl Default for Circuit {
    fn default() -> Self {
        Circuit::new()
    }
}

/// Per-gate variable dependencies as dense bitsets (see
/// [`Circuit::dependency_bitsets`]); rows are indexed by gate id.
pub(crate) struct GateDeps {
    /// The circuit's variables, sorted; bit `i` of a row stands for
    /// `vars[i]`.
    pub(crate) vars: Vec<VarId>,
    /// Row width in 64-bit words.
    words: usize,
    bits: Vec<u64>,
}

impl GateDeps {
    /// The dependency row of a gate.
    pub(crate) fn row(&self, gate: GateId) -> &[u64] {
        &self.bits[gate.0 * self.words..(gate.0 + 1) * self.words]
    }

    /// Whether two rows share a variable.
    pub(crate) fn intersects(a: &[u64], b: &[u64]) -> bool {
        a.iter().zip(b).any(|(x, y)| x & y != 0)
    }

    /// The variables set in `row`.
    pub(crate) fn vars_of<'a>(&'a self, row: &'a [u64]) -> impl Iterator<Item = VarId> + 'a {
        row.iter().enumerate().flat_map(move |(w, &word)| {
            (0..64)
                .filter(move |b| word >> b & 1 == 1)
                .map(move |b| self.vars[w * 64 + b])
        })
    }

    /// An empty accumulator row.
    pub(crate) fn empty_row(&self) -> Vec<u64> {
        vec![0; self.words]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// (x0 AND x1) OR (NOT x2)
    fn sample_circuit() -> Circuit {
        let mut c = Circuit::new();
        let x0 = c.var(0);
        let x1 = c.var(1);
        let x2 = c.var(2);
        let a = c.and(vec![x0, x1]);
        let n = c.not(x2);
        let o = c.or(vec![a, n]);
        c.set_output(o);
        c
    }

    #[test]
    fn evaluation() {
        let c = sample_circuit();
        assert!(c.evaluate(&|v| v == 0 || v == 1)); // x0, x1 true, x2 false
        assert!(c.evaluate(&|_| false)); // NOT x2 is true
        assert!(!c.evaluate(&|v| v == 2)); // only x2 true
        assert!(c.evaluate(&|_| true)); // x0 AND x1 true
    }

    #[test]
    fn variables_and_size() {
        let c = sample_circuit();
        assert_eq!(c.variables(), [0, 1, 2].into_iter().collect());
        assert_eq!(c.size(), 6);
        assert!(!c.is_monotone_syntactically());
    }

    #[test]
    fn gate_records_are_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Record>(), 16);
        let c = sample_circuit();
        assert_eq!(c.gate(GateId(5)), Gate::Or(&[GateId(3), GateId(4)]));
        assert_eq!(c.gate(GateId(4)), Gate::Not(GateId(2)));
    }

    #[test]
    fn var_gates_are_shared() {
        let mut c = Circuit::new();
        let a = c.var(7);
        let b = c.var(7);
        assert_eq!(a, b);
        assert_eq!(c.size(), 1);
    }

    #[test]
    fn empty_and_or_conventions() {
        let mut c = Circuit::new();
        let a = c.and(vec![]);
        c.set_output(a);
        assert!(c.evaluate(&|_| false));
        let mut c2 = Circuit::new();
        let o = c2.or(vec![]);
        c2.set_output(o);
        assert!(!c2.evaluate(&|_| false));
    }

    #[test]
    fn gate_graph_structure() {
        let c = sample_circuit();
        let g = c.gate_graph();
        assert_eq!(g.vertex_count(), 6);
        assert_eq!(g.edge_count(), 5);
        let (w, td) = c.treewidth_upper_bound();
        assert!(td.validate(&g).is_ok());
        assert!(w <= 2);
    }

    #[test]
    fn restriction_fixes_variables() {
        let c = sample_circuit();
        let mut fixed = HashMap::new();
        fixed.insert(2usize, true); // NOT x2 = false, so output = x0 AND x1
        let r = c.restrict(&fixed);
        assert_eq!(r.variables(), [0, 1].into_iter().collect());
        assert!(r.evaluate(&|_| true));
        assert!(!r.evaluate(&|v| v == 0));
    }

    #[test]
    fn equivalence_and_model_counting() {
        let c = sample_circuit();
        // Same function built differently: NOT x2 OR (x1 AND x0).
        let mut d = Circuit::new();
        let x0 = d.var(0);
        let x1 = d.var(1);
        let x2 = d.var(2);
        let n = d.not(x2);
        let a = d.and(vec![x1, x0]);
        let o = d.or(vec![n, a]);
        d.set_output(o);
        assert!(c.equivalent_to(&d));
        // Truth table: output false only when x2=1 and not(x0 and x1):
        // assignments (x0,x1,x2): 001, 011, 101 are false -> 5 models.
        assert_eq!(c.count_models_bruteforce(&[0, 1, 2]), 5);

        let mut e = Circuit::new();
        let x0 = e.var(0);
        e.set_output(x0);
        assert!(!c.equivalent_to(&e));
    }

    #[test]
    fn monotone_circuit_detection() {
        let mut c = Circuit::new();
        let x0 = c.var(0);
        let x1 = c.var(1);
        let o = c.or(vec![x0, x1]);
        c.set_output(o);
        assert!(c.is_monotone_syntactically());
    }

    #[test]
    fn dependencies_per_gate() {
        let c = sample_circuit();
        let deps = c.gate_dependencies();
        // Gate 3 is AND(x0, x1), gate 4 is NOT(x2), gate 5 is the OR.
        assert_eq!(deps[3], [0, 1].into_iter().collect());
        assert_eq!(deps[4], [2].into_iter().collect());
        assert_eq!(deps[5], [0, 1, 2].into_iter().collect());
    }

    #[test]
    #[should_panic]
    fn forward_reference_panics() {
        let mut c = Circuit::new();
        let _ = c.and(vec![GateId(5)]);
    }
}
