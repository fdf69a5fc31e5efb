//! The shared decision-diagram manager: a hash-consed node store with
//! complement edges and a persistent operation cache.
//!
//! A [`Manager`] hosts *many* reduced OBDDs at once over a single variable
//! order:
//! every operation returns a [`NodeId`] into the shared store, structurally
//! identical subgraphs are stored once, and the if-then-else cache survives
//! across calls, so repeated compilations of related functions reuse each
//! other's work. Negation is a complement-edge bit flip — O(1), no
//! allocation — and `f`/`¬f` share all their nodes.

use crate::node::{Node, NodeId};
use crate::stats::Stats;
use std::collections::{BTreeSet, HashMap};
use treelineage_circuit::{Circuit, Gate, VarId};
use treelineage_num::{BigUint, Rational};

/// Level value marking the terminal sentinel node.
const TERMINAL_LEVEL: u32 = u32::MAX;

/// Keys of the persistent operation cache: one variant per memoized
/// operation, always on canonicalized arguments.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum CacheKey {
    /// If-then-else on a normalized `(f, g, h)` triple (the universal binary
    /// connective: and/or/xor are all expressed through it).
    Ite(NodeId, NodeId, NodeId),
    /// Existential quantification of `f` by a cube of variables.
    Exists(NodeId, NodeId),
    /// Composition `f[var at level := g]`.
    Compose(NodeId, u32, NodeId),
}

/// The literal weights of one [`Manager::wmc`] call, indexed by level.
struct LevelWeights {
    pos: Vec<Rational>,
    neg: Vec<Rational>,
    /// `pos + neg`: the factor of a variable left free.
    free: Vec<Rational>,
    /// The levels whose `free` factor is not 1, ascending (none under
    /// probability weights).
    non_unit: Vec<usize>,
    /// `suffix[k]` is the product of `free[k..]`, the total weight of every
    /// assignment to the levels `>= k`.
    suffix: Vec<Rational>,
}

impl LevelWeights {
    fn new(
        order: &[VarId],
        pos: &dyn Fn(VarId) -> Rational,
        neg: &dyn Fn(VarId) -> Rational,
    ) -> Self {
        let pos: Vec<Rational> = order.iter().map(|&v| pos(v)).collect();
        let neg: Vec<Rational> = order.iter().map(|&v| neg(v)).collect();
        let free: Vec<Rational> = pos.iter().zip(&neg).map(|(p, n)| p + n).collect();
        let non_unit = (0..free.len()).filter(|&k| !free[k].is_one()).collect();
        let mut suffix = vec![Rational::one(); free.len() + 1];
        for k in (0..free.len()).rev() {
            suffix[k] = &free[k] * &suffix[k + 1];
        }
        LevelWeights {
            pos,
            neg,
            free,
            non_unit,
            suffix,
        }
    }

    /// `value` times the product of `free[from..to]`, visiting only the
    /// non-unit factors, so a long skip under probability weights is free.
    fn scale_free(&self, value: Rational, from: usize, to: usize) -> Rational {
        let start = self.non_unit.partition_point(|&k| k < from);
        self.non_unit[start..]
            .iter()
            .take_while(|&&k| k < to)
            .fold(value, |acc, &k| &acc * &self.free[k])
    }
}

/// A shared, hash-consed decision-diagram store over a fixed variable order.
///
/// All functions live in one arena; [`NodeId`]s are only meaningful relative
/// to the manager that created them. The operation cache is *persistent*: it
/// is keyed on canonical node ids (which never change), so it is never
/// invalidated and keeps accelerating later calls — see [`Manager::stats`]
/// for its hit counters.
#[derive(Clone, Debug)]
pub struct Manager {
    order: Vec<VarId>,
    var_level: HashMap<VarId, u32>,
    nodes: Vec<Node>,
    unique: HashMap<(u32, NodeId, NodeId), u32>,
    cache: HashMap<CacheKey, NodeId>,
    cache_hits: u64,
    cache_misses: u64,
}

impl Manager {
    /// Creates a manager over the given variable order (duplicates are
    /// rejected). The store initially holds only the terminal.
    pub fn new(order: Vec<VarId>) -> Self {
        let var_level: HashMap<VarId, u32> = order
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        assert_eq!(var_level.len(), order.len(), "duplicate variable in order");
        Manager {
            order,
            var_level,
            nodes: vec![Node {
                level: TERMINAL_LEVEL,
                lo: NodeId::TRUE,
                hi: NodeId::TRUE,
            }],
            unique: HashMap::new(),
            cache: HashMap::new(),
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    /// The variable order shared by every function in the store.
    pub fn order(&self) -> &[VarId] {
        &self.order
    }

    /// Number of levels (variables in the order).
    fn level_count(&self) -> usize {
        self.order.len()
    }

    /// The level of a reference's top variable; terminals sit below every
    /// variable, at level `level_count()`.
    fn level_of(&self, r: NodeId) -> usize {
        let level = self.nodes[r.index() as usize].level;
        if level == TERMINAL_LEVEL {
            self.order.len()
        } else {
            level as usize
        }
    }

    /// For a decision node, its `(variable, lo child, hi child)` Shannon
    /// decomposition with the complement edge resolved; `None` for terminals.
    pub fn decision_parts(&self, r: NodeId) -> Option<(VarId, NodeId, NodeId)> {
        if r.is_terminal() {
            return None;
        }
        let node = self.nodes[r.index() as usize];
        Some((
            self.order[node.level as usize],
            r.apply_parity(node.lo),
            r.apply_parity(node.hi),
        ))
    }

    /// Creates (or reuses) the decision node `(level, lo, hi)`, applying the
    /// reduction rules (equal children elided, structurally identical nodes
    /// shared) and the complement-edge canonicity invariant (the high child
    /// is never complemented; the complement is pushed to the result edge).
    pub fn make_node(&mut self, level: usize, lo: NodeId, hi: NodeId) -> NodeId {
        debug_assert!(level < self.order.len(), "level out of range");
        debug_assert!(self.level_of(lo) > level && self.level_of(hi) > level);
        if lo == hi {
            return lo;
        }
        if hi.is_complement() {
            return self.make_node(level, lo.not(), hi.not()).not();
        }
        let key = (level as u32, lo, hi);
        if let Some(&i) = self.unique.get(&key) {
            return NodeId::new(i, false);
        }
        let i = self.nodes.len() as u32;
        self.nodes.push(Node {
            level: level as u32,
            lo,
            hi,
        });
        self.unique.insert(key, i);
        NodeId::new(i, false)
    }

    /// The terminal for a constant.
    pub fn terminal(&self, value: bool) -> NodeId {
        if value {
            NodeId::TRUE
        } else {
            NodeId::FALSE
        }
    }

    /// The node testing a single variable (positive or negated literal).
    /// Panics if the variable is not in the order.
    pub fn literal(&mut self, var: VarId, positive: bool) -> NodeId {
        let level = *self
            .var_level
            .get(&var)
            .unwrap_or_else(|| panic!("variable {var} not in the order"))
            as usize;
        let positive_node = self.make_node(level, NodeId::FALSE, NodeId::TRUE);
        if positive {
            positive_node
        } else {
            positive_node.not()
        }
    }

    /// The cofactors of `r` at `level` (both equal to `r` when `r` tests a
    /// deeper variable), with complement edges resolved.
    fn cofactors(&self, r: NodeId, level: usize) -> (NodeId, NodeId) {
        let node = self.nodes[r.index() as usize];
        if node.level as usize != level || node.level == TERMINAL_LEVEL {
            (r, r)
        } else {
            (r.apply_parity(node.lo), r.apply_parity(node.hi))
        }
    }

    fn cache_get(&mut self, key: &CacheKey) -> Option<NodeId> {
        match self.cache.get(key) {
            Some(&r) => {
                self.cache_hits += 1;
                Some(r)
            }
            None => {
                self.cache_misses += 1;
                None
            }
        }
    }

    /// If-then-else: the canonical node for `(f ∧ g) ∨ (¬f ∧ h)`. The
    /// universal connective of the engine — all binary operations reduce to
    /// it — memoized in the persistent cache under a normalized triple
    /// (standard-triple and complement canonicalization à la
    /// Brace–Rudell–Bryant, so equivalent calls share one cache entry).
    pub fn ite(&mut self, f: NodeId, g: NodeId, h: NodeId) -> NodeId {
        let (mut f, mut g, mut h) = (f, g, h);
        // Terminal and absorption cases.
        if f == NodeId::TRUE {
            return g;
        }
        if f == NodeId::FALSE {
            return h;
        }
        if g == f {
            g = NodeId::TRUE;
        } else if g == f.not() {
            g = NodeId::FALSE;
        }
        if h == f {
            h = NodeId::FALSE;
        } else if h == f.not() {
            h = NodeId::TRUE;
        }
        if g == h {
            return g;
        }
        if g == NodeId::TRUE && h == NodeId::FALSE {
            return f;
        }
        if g == NodeId::FALSE && h == NodeId::TRUE {
            return f.not();
        }
        // Standard triples: pick a canonical argument order for the
        // commutative forms so equivalent calls hit the same cache slot.
        if g == NodeId::TRUE {
            // f ∨ h == h ∨ f
            if f.index() > h.index() {
                std::mem::swap(&mut f, &mut h);
            }
        } else if h == NodeId::FALSE {
            // f ∧ g == g ∧ f
            if f.index() > g.index() {
                std::mem::swap(&mut f, &mut g);
            }
        } else if h == NodeId::TRUE {
            // ite(f, g, 1) == ite(¬g, ¬f, 1)
            if f.index() > g.index() {
                let (nf, ng) = (f.not(), g.not());
                f = ng;
                g = nf;
            }
        } else if g == NodeId::FALSE {
            // ite(f, 0, h) == ite(¬h, 0, ¬f)
            if f.index() > h.index() {
                let (nf, nh) = (f.not(), h.not());
                f = nh;
                h = nf;
            }
        } else if h == g.not() {
            // xor: ite(f, g, ¬g) == ite(g, f, ¬f)
            if f.index() > g.index() {
                std::mem::swap(&mut f, &mut g);
                h = g.not();
            }
        }
        // Complement canonicalization: the first argument and the "then"
        // branch are kept uncomplemented.
        if f.is_complement() {
            f = f.not();
            std::mem::swap(&mut g, &mut h);
        }
        let negate = g.is_complement();
        if negate {
            g = g.not();
            h = h.not();
        }
        let key = CacheKey::Ite(f, g, h);
        if let Some(r) = self.cache_get(&key) {
            return if negate { r.not() } else { r };
        }
        let level = self.level_of(f).min(self.level_of(g)).min(self.level_of(h));
        let (f0, f1) = self.cofactors(f, level);
        let (g0, g1) = self.cofactors(g, level);
        let (h0, h1) = self.cofactors(h, level);
        let hi = self.ite(f1, g1, h1);
        let lo = self.ite(f0, g0, h0);
        let r = self.make_node(level, lo, hi);
        self.cache.insert(key, r);
        if negate {
            r.not()
        } else {
            r
        }
    }

    /// Conjunction.
    pub fn and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.ite(a, b, NodeId::FALSE)
    }

    /// Disjunction.
    pub fn or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.ite(a, NodeId::TRUE, b)
    }

    /// Exclusive or.
    #[cfg(test)]
    fn xor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.ite(a, b.not(), b)
    }

    /// Negation: a complement-edge flip, O(1) and canonical.
    #[allow(clippy::should_implement_trait)]
    pub fn not(&self, a: NodeId) -> NodeId {
        a.not()
    }

    /// N-ary conjunction by balanced pairwise reduction (keeps intermediate
    /// results small compared with a left fold).
    pub fn and_all(&mut self, operands: impl IntoIterator<Item = NodeId>) -> NodeId {
        self.reduce_balanced(operands.into_iter().collect(), NodeId::TRUE, Self::and)
    }

    /// N-ary disjunction by balanced pairwise reduction.
    pub fn or_all(&mut self, operands: impl IntoIterator<Item = NodeId>) -> NodeId {
        self.reduce_balanced(operands.into_iter().collect(), NodeId::FALSE, Self::or)
    }

    fn reduce_balanced(
        &mut self,
        mut operands: Vec<NodeId>,
        unit: NodeId,
        op: fn(&mut Self, NodeId, NodeId) -> NodeId,
    ) -> NodeId {
        if operands.is_empty() {
            return unit;
        }
        while operands.len() > 1 {
            let mut next = Vec::with_capacity(operands.len().div_ceil(2));
            for pair in operands.chunks(2) {
                next.push(if pair.len() == 2 {
                    op(self, pair[0], pair[1])
                } else {
                    pair[0]
                });
            }
            operands = next;
        }
        operands[0]
    }

    /// The conjunction of the positive literals of `vars` (a *cube*), the
    /// canonical set representation used by the quantifiers.
    fn cube(&mut self, vars: &[VarId]) -> NodeId {
        let literals: Vec<NodeId> = vars.iter().map(|&v| self.literal(v, true)).collect();
        self.and_all(literals)
    }

    /// Existential quantification: `∃ vars . f`.
    pub fn exists(&mut self, f: NodeId, vars: &[VarId]) -> NodeId {
        let cube = self.cube(vars);
        self.exists_cube(f, cube)
    }

    /// Universal quantification: `∀ vars . f`, via `¬∃ vars . ¬f`.
    pub fn forall(&mut self, f: NodeId, vars: &[VarId]) -> NodeId {
        let cube = self.cube(vars);
        self.exists_cube(f.not(), cube).not()
    }

    fn exists_cube(&mut self, f: NodeId, cube: NodeId) -> NodeId {
        if f.is_terminal() {
            return f;
        }
        // Skip quantified variables above f's top: they do not constrain f.
        let f_level = self.level_of(f);
        let mut cube = cube;
        while !cube.is_terminal() && self.level_of(cube) < f_level {
            let (_, hi) = self.cofactors(cube, self.level_of(cube));
            cube = hi;
        }
        if cube == NodeId::TRUE {
            return f;
        }
        debug_assert!(cube != NodeId::FALSE, "cubes are conjunctions of literals");
        let key = CacheKey::Exists(f, cube);
        if let Some(r) = self.cache_get(&key) {
            return r;
        }
        let cube_level = self.level_of(cube);
        let (f0, f1) = self.cofactors(f, f_level);
        let r = if f_level == cube_level {
            let (_, next) = self.cofactors(cube, cube_level);
            let lo = self.exists_cube(f0, next);
            let hi = self.exists_cube(f1, next);
            self.or(lo, hi)
        } else {
            let lo = self.exists_cube(f0, cube);
            let hi = self.exists_cube(f1, cube);
            self.make_node(f_level, lo, hi)
        };
        self.cache.insert(key, r);
        r
    }

    /// Composition `f[var := g]`: substitutes the function `g` for the
    /// variable `var` in `f`.
    pub fn compose(&mut self, f: NodeId, var: VarId, g: NodeId) -> NodeId {
        let level = *self
            .var_level
            .get(&var)
            .unwrap_or_else(|| panic!("variable {var} not in the order"));
        self.compose_rec(f, level, g)
    }

    /// Restriction (cofactoring): `f[var := value]`, i.e. composition with a
    /// constant.
    pub fn restrict(&mut self, f: NodeId, var: VarId, value: bool) -> NodeId {
        let constant = self.terminal(value);
        self.compose(f, var, constant)
    }

    fn compose_rec(&mut self, f: NodeId, var_level: u32, g: NodeId) -> NodeId {
        let f_level = self.level_of(f);
        if f_level > var_level as usize {
            // var does not occur in f.
            return f;
        }
        let key = CacheKey::Compose(f, var_level, g);
        if let Some(r) = self.cache_get(&key) {
            return r;
        }
        let (f0, f1) = self.cofactors(f, f_level);
        let r = if f_level == var_level as usize {
            self.ite(g, f1, f0)
        } else {
            let lo = self.compose_rec(f0, var_level, g);
            let hi = self.compose_rec(f1, var_level, g);
            // Rebuild on f's top variable; ite handles the case where g
            // itself tests a variable above f_level.
            let top = self.make_node(f_level, NodeId::FALSE, NodeId::TRUE);
            self.ite(top, hi, lo)
        };
        self.cache.insert(key, r);
        r
    }

    /// Compiles a circuit bottom-up into the shared store; every variable of
    /// the circuit must be in the order. Repeated compilations of related
    /// circuits reuse the persistent cache.
    pub fn compile_circuit(&mut self, circuit: &Circuit) -> NodeId {
        let mut refs: Vec<NodeId> = Vec::with_capacity(circuit.size());
        for id in circuit.gate_ids() {
            let r = match circuit.gate(id) {
                Gate::Var(v) => self.literal(v, true),
                Gate::Const(b) => self.terminal(b),
                Gate::Not(i) => refs[i.0].not(),
                Gate::And(inputs) => {
                    let operands: Vec<NodeId> = inputs.iter().map(|i| refs[i.0]).collect();
                    self.and_all(operands)
                }
                Gate::Or(inputs) => {
                    let operands: Vec<NodeId> = inputs.iter().map(|i| refs[i.0]).collect();
                    self.or_all(operands)
                }
            };
            refs.push(r);
        }
        refs[circuit.output().0]
    }

    /// Evaluates `f` on the world where exactly the variables of `true_vars`
    /// hold.
    pub fn evaluate(&self, f: NodeId, true_vars: &BTreeSet<VarId>) -> bool {
        let mut current = f;
        loop {
            if current.is_terminal() {
                return current == NodeId::TRUE;
            }
            let node = self.nodes[current.index() as usize];
            let child = if true_vars.contains(&self.order[node.level as usize]) {
                node.hi
            } else {
                node.lo
            };
            current = current.apply_parity(child);
        }
    }

    /// Number of satisfying assignments of `f` over all variables of the
    /// order, memoized on shared nodes with a single cache for the query
    /// (complemented references are resolved as `2^k − count`, so `f` and
    /// `¬f` share the same cache entries).
    pub fn count_models(&self, f: NodeId) -> BigUint {
        let mut memo: HashMap<u32, BigUint> = HashMap::new();
        let below = self.count_rec(f, &mut memo);
        // Variables above the root's level are free.
        &below * &BigUint::pow2(self.level_of(f))
    }

    /// Satisfying assignments of the variables at levels `>= level_of(r)`.
    fn count_rec(&self, r: NodeId, memo: &mut HashMap<u32, BigUint>) -> BigUint {
        if r == NodeId::TRUE {
            return BigUint::one();
        }
        if r == NodeId::FALSE {
            return BigUint::zero();
        }
        let index = r.index();
        let positive = match memo.get(&index) {
            Some(c) => c.clone(),
            None => {
                let node = self.nodes[index as usize];
                let hi = self.count_rec(node.hi, memo);
                let lo = self.count_rec(node.lo, memo);
                // Children may skip levels; skipped variables are free.
                let level = node.level as usize;
                let hi_scaled = &hi * &BigUint::pow2(self.level_of(node.hi) - level - 1);
                let lo_scaled = &lo * &BigUint::pow2(self.level_of(node.lo) - level - 1);
                let c = &hi_scaled + &lo_scaled;
                memo.insert(index, c.clone());
                c
            }
        };
        if r.is_complement() {
            let total = BigUint::pow2(self.level_count() - self.level_of(r));
            &total - &positive
        } else {
            positive
        }
    }

    /// Probability that `f` holds when each variable `v` is independently
    /// true with probability `prob(v)`: [`Manager::wmc`] with weights
    /// `prob(v)` and `1 − prob(v)`, so every free variable contributes
    /// exactly 1 and a complemented reference costs one subtraction.
    pub fn probability(&self, f: NodeId, prob: &dyn Fn(VarId) -> Rational) -> Rational {
        self.wmc(f, prob, &|v| prob(v).complement())
    }

    /// Weighted model count of `f` over all variables of the order,
    /// `Σ_models Π_v (pos(v) if v is true else neg(v))`, for weights that
    /// need not sum to one per variable. Shaped like
    /// [`Manager::count_models`]: one pass memoized on shared nodes, where a
    /// free variable contributes `pos + neg` (counting's factor 2) and a
    /// complemented reference is the total weight of its levels minus the
    /// stored value.
    pub fn wmc(
        &self,
        f: NodeId,
        pos: &dyn Fn(VarId) -> Rational,
        neg: &dyn Fn(VarId) -> Rational,
    ) -> Rational {
        let weights = LevelWeights::new(&self.order, pos, neg);
        let mut memo: HashMap<u32, Rational> = HashMap::new();
        let below = self.wmc_rec(f, &weights, &mut memo);
        // Variables above the root's level are free.
        weights.scale_free(below, 0, self.level_of(f))
    }

    /// Weighted count over the variables at levels `>= level_of(r)`.
    fn wmc_rec(
        &self,
        r: NodeId,
        weights: &LevelWeights,
        memo: &mut HashMap<u32, Rational>,
    ) -> Rational {
        if r == NodeId::TRUE {
            return Rational::one();
        }
        if r == NodeId::FALSE {
            return Rational::zero();
        }
        let index = r.index();
        let positive = match memo.get(&index) {
            Some(w) => w.clone(),
            None => {
                let node = self.nodes[index as usize];
                let level = node.level as usize;
                // Children may skip levels; skipped variables are free.
                let hi = self.wmc_rec(node.hi, weights, memo);
                let hi = weights.scale_free(hi, level + 1, self.level_of(node.hi));
                let lo = self.wmc_rec(node.lo, weights, memo);
                let lo = weights.scale_free(lo, level + 1, self.level_of(node.lo));
                let w = &(&weights.pos[level] * &hi) + &(&weights.neg[level] * &lo);
                memo.insert(index, w.clone());
                w
            }
        };
        if r.is_complement() {
            &weights.suffix[self.level_of(r)] - &positive
        } else {
            positive
        }
    }

    /// Number of *signed* references (distinct subfunctions) reachable from
    /// `f` per level. A node reached both plainly and through a complement
    /// edge counts twice, so this reproduces exactly the per-level node
    /// counts of the equivalent plain reduced OBDD — the quantity that
    /// Definition 6.4 of the paper measures — even though the shared store
    /// keeps only one copy.
    pub fn level_sizes(&self, f: NodeId) -> Vec<usize> {
        let mut sizes = vec![0usize; self.order.len()];
        let mut seen: std::collections::HashSet<NodeId> = std::collections::HashSet::new();
        let mut stack = Vec::new();
        if !f.is_terminal() && seen.insert(f) {
            stack.push(f);
        }
        while let Some(r) = stack.pop() {
            let node = self.nodes[r.index() as usize];
            sizes[node.level as usize] += 1;
            for child in [r.apply_parity(node.lo), r.apply_parity(node.hi)] {
                if !child.is_terminal() && seen.insert(child) {
                    stack.push(child);
                }
            }
        }
        sizes
    }

    /// The width of `f`: the maximum number of distinct subfunctions at any
    /// level (the plain-OBDD width of Definition 6.4; 0 for constants).
    pub fn width(&self, f: NodeId) -> usize {
        self.level_sizes(f).into_iter().max().unwrap_or(0)
    }

    /// The size of the equivalent plain reduced OBDD (number of signed
    /// reachable references; terminals not counted). Compare with
    /// [`Manager::shared_size`], which counts each stored node once.
    pub fn size(&self, f: NodeId) -> usize {
        self.level_sizes(f).into_iter().sum()
    }

    /// Number of *stored* nodes reachable from `f` (each node counted once
    /// even if reached with both parities) — the true memory footprint under
    /// complement-edge sharing.
    pub fn shared_size(&self, f: NodeId) -> usize {
        let mut seen: std::collections::HashSet<u32> = std::collections::HashSet::new();
        let mut stack = Vec::new();
        if !f.is_terminal() && seen.insert(f.index()) {
            stack.push(f.index());
        }
        let mut count = 0usize;
        while let Some(i) = stack.pop() {
            count += 1;
            let node = self.nodes[i as usize];
            for child in [node.lo, node.hi] {
                if !child.is_terminal() && seen.insert(child.index()) {
                    stack.push(child.index());
                }
            }
        }
        count
    }

    /// Engine statistics: store and cache sizes plus the persistent cache's
    /// hit counters.
    pub fn stats(&self) -> Stats {
        Stats {
            node_count: self.nodes.len() - 1,
            unique_table_len: self.unique.len(),
            op_cache_len: self.cache.len(),
            op_cache_hits: self.cache_hits,
            op_cache_misses: self.cache_misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth_table(m: &Manager, f: NodeId, vars: &[VarId]) -> Vec<bool> {
        (0u64..(1 << vars.len()))
            .map(|mask| {
                let set: BTreeSet<VarId> = vars
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &v)| v)
                    .collect();
                m.evaluate(f, &set)
            })
            .collect()
    }

    #[test]
    fn constants_and_literals() {
        let mut m = Manager::new(vec![0, 1]);
        assert_eq!(m.terminal(true), NodeId::TRUE);
        assert_eq!(m.terminal(false), NodeId::FALSE);
        let x = m.literal(0, true);
        let nx = m.literal(0, false);
        assert_eq!(x.not(), nx);
        assert_eq!(m.shared_size(x), 1);
        assert!(m.evaluate(x, &[0].into_iter().collect()));
        assert!(!m.evaluate(x, &BTreeSet::new()));
        assert!(m.evaluate(nx, &BTreeSet::new()));
    }

    #[test]
    fn basic_connectives() {
        let mut m = Manager::new(vec![0, 1]);
        let x = m.literal(0, true);
        let y = m.literal(1, true);
        let both = m.and(x, y);
        assert_eq!(m.count_models(both).to_u64(), Some(1));
        let either = m.or(x, y);
        assert_eq!(m.count_models(either).to_u64(), Some(3));
        let neither = either.not();
        assert_eq!(m.count_models(neither).to_u64(), Some(1));
        let parity = m.xor(x, y);
        assert_eq!(m.count_models(parity).to_u64(), Some(2));
        // De Morgan through complement edges: ¬(x ∧ y) == ¬x ∨ ¬y.
        let lhs = both.not();
        let rhs = m.or(x.not(), y.not());
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn ite_cache_is_persistent_across_calls() {
        let mut m = Manager::new(vec![0, 1, 2]);
        let x = m.literal(0, true);
        let y = m.literal(1, true);
        let z = m.literal(2, true);
        let xy = m.and(x, y);
        let f1 = m.or(xy, z);
        let before = m.stats();
        // Recomputing the same function must be pure cache hits: no new
        // nodes, no new misses.
        let xy2 = m.and(x, y);
        let f2 = m.or(xy2, z);
        let after = m.stats();
        assert_eq!(f1, f2);
        assert_eq!(before.node_count, after.node_count);
        assert_eq!(before.op_cache_misses, after.op_cache_misses);
        assert!(after.op_cache_hits > before.op_cache_hits);
    }

    #[test]
    fn and_or_all_balanced() {
        let mut m = Manager::new((0..8).collect());
        let literals: Vec<NodeId> = (0..8).map(|v| m.literal(v, true)).collect();
        let conj = m.and_all(literals.clone());
        assert_eq!(m.count_models(conj).to_u64(), Some(1));
        let disj = m.or_all(literals);
        assert_eq!(m.count_models(disj).to_u64(), Some(255));
        assert_eq!(m.and_all(Vec::new()), NodeId::TRUE);
        assert_eq!(m.or_all(Vec::new()), NodeId::FALSE);
    }

    #[test]
    fn quantification() {
        let mut m = Manager::new(vec![0, 1, 2]);
        let x = m.literal(0, true);
        let y = m.literal(1, true);
        let z = m.literal(2, true);
        let xy = m.and(x, y);
        let f = m.or(xy, z); // (x ∧ y) ∨ z
        let ex = m.exists(f, &[1]); // x ∨ z
        let expected = m.or(x, z);
        assert_eq!(ex, expected);
        let all = m.forall(f, &[1]); // z
        assert_eq!(all, z);
        // Quantifying all variables collapses to a constant.
        let sat = m.exists(f, &[0, 1, 2]);
        assert_eq!(sat, NodeId::TRUE);
        let valid = m.forall(f, &[0, 1, 2]);
        assert_eq!(valid, NodeId::FALSE);
    }

    #[test]
    fn restrict_and_compose() {
        let mut m = Manager::new(vec![0, 1, 2]);
        let x = m.literal(0, true);
        let y = m.literal(1, true);
        let z = m.literal(2, true);
        let xy = m.and(x, y);
        let f = m.or(xy, z);
        let f_y1 = m.restrict(f, 1, true); // x ∨ z
        let expected = m.or(x, z);
        assert_eq!(f_y1, expected);
        let f_y0 = m.restrict(f, 1, false); // z
        assert_eq!(f_y0, z);
        // f[y := z] = (x ∧ z) ∨ z = z.
        let composed = m.compose(f, 1, z);
        assert_eq!(composed, z);
        // Shannon expansion: f == ite(y, f|y=1, f|y=0).
        let rebuilt = m.ite(y, f_y1, f_y0);
        assert_eq!(rebuilt, f);
    }

    #[test]
    fn widths_match_plain_obdd_semantics() {
        // Parity shares each level's node between the two polarities: one
        // stored node per level, but plain-OBDD width 2.
        let n = 6usize;
        let mut m = Manager::new((0..n).collect());
        let mut f = NodeId::FALSE;
        for v in 0..n {
            let x = m.literal(v, true);
            f = m.xor(f, x);
        }
        assert_eq!(m.width(f), 2);
        assert_eq!(m.size(f), 2 * n - 1);
        assert_eq!(m.shared_size(f), n);
        assert_eq!(m.count_models(f).to_u64(), Some(1 << (n - 1)));
        // Constants have width 0.
        assert_eq!(m.width(NodeId::TRUE), 0);
        assert_eq!(m.width(NodeId::FALSE), 0);
    }

    #[test]
    fn variable_order_affects_width() {
        // (x0 ∧ x1) ∨ (x2 ∧ x3) ∨ (x4 ∧ x5) has constant width under the
        // interleaved order but a wider diagram under "all left ends
        // first".
        let build = |order: Vec<VarId>| {
            let mut c = Circuit::new();
            let ands: Vec<_> = (0..3)
                .map(|i| {
                    let a = c.var(2 * i);
                    let b = c.var(2 * i + 1);
                    c.and(vec![a, b])
                })
                .collect();
            let o = c.or(ands);
            c.set_output(o);
            let mut m = Manager::new(order);
            let f = m.compile_circuit(&c);
            (m.width(f), m.count_models(f))
        };
        let (good, good_models) = build(vec![0, 1, 2, 3, 4, 5]);
        let (bad, bad_models) = build(vec![0, 2, 4, 1, 3, 5]);
        assert!(good <= 2);
        assert!(bad > good);
        assert_eq!(good_models, bad_models);
    }

    #[test]
    fn probability_on_shared_nodes() {
        let mut m = Manager::new(vec![0, 1]);
        let x = m.literal(0, true);
        let y = m.literal(1, true);
        let f = m.or(x, y);
        let prob = |v: VarId| Rational::from_ratio_u64(1, (v + 2) as u64);
        // P(x ∨ y) = 1 − (1 − 1/2)(1 − 1/3) = 2/3.
        assert_eq!(m.probability(f, &prob), Rational::from_ratio_u64(2, 3));
        // Complement shares the cache: P(¬f) = 1 − P(f).
        assert_eq!(
            m.probability(f.not(), &prob),
            Rational::from_ratio_u64(1, 3)
        );
    }

    #[test]
    fn evaluate_follows_complement_edges() {
        let mut m = Manager::new(vec![0, 1, 2]);
        let x = m.literal(0, true);
        let y = m.literal(1, true);
        let f0 = m.and(x, y);
        let f = f0.not();
        let vars = [0usize, 1, 2];
        for mask in 0u64..8 {
            let set: BTreeSet<VarId> = vars
                .iter()
                .filter(|&&v| mask >> v & 1 == 1)
                .copied()
                .collect();
            let expected = !(set.contains(&0) && set.contains(&1));
            assert_eq!(m.evaluate(f, &set), expected, "mask {mask}");
        }
        assert_eq!(truth_table(&m, f, &vars).len(), 8);
    }

    #[test]
    #[should_panic]
    fn unknown_variable_panics() {
        let mut m = Manager::new(vec![0, 1]);
        let _ = m.literal(5, true);
    }

    #[test]
    #[should_panic]
    fn duplicate_order_panics() {
        let _ = Manager::new(vec![0, 1, 0]);
    }
}
