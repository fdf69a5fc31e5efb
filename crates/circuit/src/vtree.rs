//! Vtrees: variable trees witnessing *structured* decomposability.
//!
//! A vtree is a full binary tree whose leaves are variables. A decomposable
//! circuit is *structured* by a vtree when every AND gate splits its
//! variables along some vtree node: the children's variable scopes can be
//! routed into disjoint vtree subtrees. Structuredness is what makes d-DNNFs
//! composable (it underlies SDDs and the d-SDNNF extension discussed with
//! Theorem 6.11: the provenance construction on trees is structured by a
//! vtree read off the tree / tree decomposition, which is the witness this
//! module certifies). OBDDs are the special case of a *right-linear* vtree
//! over the variable order.
//!
//! Internally a node's scope is not materialized as a set: because internal
//! nodes must join *adjacent* leaf spans, every node covers a contiguous
//! range of the leaf ordering, so a scope is just a `[start, end)` interval
//! of leaf indices — O(1) containment checks and O(total leaves) memory,
//! which keeps vtree construction out of the compile hot path.

use crate::circuit::{Circuit, Gate, GateId, VarId};
use std::collections::BTreeMap;

/// Identifier of a node in a [`Vtree`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VtreeId(pub usize);

/// A node of a vtree: a variable leaf or an internal node with two children.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VtreeNode {
    /// A leaf holding one variable.
    Leaf(VarId),
    /// An internal node over two adjacent (hence disjoint) subtrees.
    Internal(VtreeId, VtreeId),
}

/// A full binary tree over a set of variables (each appearing in exactly one
/// leaf), used as a structure witness for decomposable circuits.
#[derive(Clone, Debug)]
pub struct Vtree {
    nodes: Vec<VtreeNode>,
    /// Scope of each node as a `[start, end)` range of leaf indices.
    spans: Vec<(u32, u32)>,
    /// Leaf index → variable, in creation order.
    leaf_vars: Vec<VarId>,
    /// Variable → leaf index (doubles as the duplicate-leaf check).
    var_leaf: BTreeMap<VarId, u32>,
    root: Option<VtreeId>,
}

impl Vtree {
    /// Creates an empty vtree (no nodes, no root): the witness for circuits
    /// over no variables.
    pub fn new() -> Self {
        Vtree {
            nodes: Vec::new(),
            spans: Vec::new(),
            leaf_vars: Vec::new(),
            var_leaf: BTreeMap::new(),
            root: None,
        }
    }

    /// Adds a leaf for `var`. The variable must not already occur in the
    /// vtree.
    pub fn leaf(&mut self, var: VarId) -> VtreeId {
        let index = self.leaf_vars.len() as u32;
        assert!(
            self.var_leaf.insert(var, index).is_none(),
            "variable {var} already in the vtree"
        );
        self.leaf_vars.push(var);
        self.nodes.push(VtreeNode::Leaf(var));
        self.spans.push((index, index + 1));
        VtreeId(self.nodes.len() - 1)
    }

    /// Adds an internal node over two existing subtrees covering *adjacent*
    /// leaf spans (in either order); adjacency implies disjoint scopes and
    /// keeps every node's scope a contiguous leaf range.
    pub fn internal(&mut self, left: VtreeId, right: VtreeId) -> VtreeId {
        assert!(left.0 < self.nodes.len() && right.0 < self.nodes.len());
        let l = self.spans[left.0];
        let r = self.spans[right.0];
        assert!(
            l.1 == r.0 || r.1 == l.0,
            "vtree subtrees must cover adjacent leaf spans"
        );
        self.nodes.push(VtreeNode::Internal(left, right));
        self.spans.push((l.0.min(r.0), l.1.max(r.1)));
        VtreeId(self.nodes.len() - 1)
    }

    /// Designates the root node.
    pub fn set_root(&mut self, root: VtreeId) {
        assert!(root.0 < self.nodes.len());
        self.root = Some(root);
    }

    /// The root node, if the vtree is non-empty.
    pub fn root(&self) -> Option<VtreeId> {
        self.root
    }

    /// The node with the given id.
    pub fn node(&self, id: VtreeId) -> VtreeNode {
        self.nodes[id.0]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The variables under a node.
    pub fn scope(&self, id: VtreeId) -> std::collections::BTreeSet<VarId> {
        let (start, end) = self.spans[id.0];
        self.leaf_vars[start as usize..end as usize]
            .iter()
            .copied()
            .collect()
    }

    /// All variables of the vtree (the root's scope; empty for the empty
    /// vtree).
    pub fn variables(&self) -> std::collections::BTreeSet<VarId> {
        match self.root {
            Some(r) => self.scope(r),
            None => std::collections::BTreeSet::new(),
        }
    }

    /// Checks that `circuit` is *structured* by this vtree: for every AND
    /// gate, the (non-constant) children's variable scopes can be routed into
    /// disjoint subtrees of a single vtree node, recursively. Children with
    /// empty scope (constants) are ignored. Returns the first offending AND
    /// gate on failure.
    ///
    /// This is the structure-witness check for d-SDNNFs; a circuit respecting
    /// a right-linear vtree is OBDD-shaped, and the automaton provenance
    /// d-SDNNF respects the vtree read off its input tree. Each gate scope is
    /// summarized as its `[min, max]` leaf-index interval (scopes sit inside
    /// contiguous spans, so interval containment is exact), making the check
    /// linear in circuit size times vtree depth.
    pub fn respects(&self, circuit: &Circuit) -> Result<(), GateId> {
        let deps = circuit.dependency_bitsets();
        // Leaf-index interval of every gate's scope (`None` for empty
        // scopes, `Err` sentinel for variables outside the vtree).
        let mut intervals: Vec<Option<(u32, u32)>> = Vec::with_capacity(circuit.size());
        let mut foreign: Vec<bool> = Vec::with_capacity(circuit.size());
        for id in circuit.gate_ids() {
            let mut interval: Option<(u32, u32)> = None;
            let mut outside = false;
            for v in deps.vars_of(deps.row(id)) {
                match self.var_leaf.get(&v) {
                    None => outside = true,
                    Some(&i) => {
                        interval = Some(match interval {
                            None => (i, i),
                            Some((lo, hi)) => (lo.min(i), hi.max(i)),
                        });
                    }
                }
            }
            intervals.push(interval);
            foreign.push(outside);
        }
        for id in circuit.gate_ids() {
            if let Gate::And(inputs) = circuit.gate(id) {
                let nonempty: Vec<&GateId> = inputs
                    .iter()
                    .filter(|i| intervals[i.0].is_some() || foreign[i.0])
                    .collect();
                if nonempty.len() <= 1 {
                    continue;
                }
                // With a split to certify, a variable outside the vtree can
                // never be routed.
                if nonempty.iter().any(|i| foreign[i.0]) {
                    return Err(id);
                }
                let scopes: Vec<(u32, u32)> =
                    nonempty.iter().map(|i| intervals[i.0].unwrap()).collect();
                if !self.and_is_structured(&scopes) {
                    return Err(id);
                }
            }
        }
        Ok(())
    }

    /// Whether a collection of two or more pairwise-disjoint scopes (an AND
    /// gate's children, as leaf-index intervals) can be routed into this
    /// vtree.
    fn and_is_structured(&self, scopes: &[(u32, u32)]) -> bool {
        let union = scopes
            .iter()
            .fold((u32::MAX, 0u32), |(lo, hi), &(a, b)| (lo.min(a), hi.max(b)));
        let Some(root) = self.root else {
            return false;
        };
        if !span_contains(self.spans[root.0], union) {
            return false;
        }
        let lowest = self.lowest_covering(root, union);
        self.partition_scopes(lowest, scopes)
    }

    /// Descends from `from` to the lowest node whose span still contains
    /// `interval` (which must be contained in `from`'s span).
    fn lowest_covering(&self, from: VtreeId, interval: (u32, u32)) -> VtreeId {
        let mut node = from;
        loop {
            match self.nodes[node.0] {
                VtreeNode::Leaf(_) => return node,
                VtreeNode::Internal(l, r) => {
                    if span_contains(self.spans[l.0], interval) {
                        node = l;
                    } else if span_contains(self.spans[r.0], interval) {
                        node = r;
                    } else {
                        return node;
                    }
                }
            }
        }
    }

    /// Recursively checks that `scopes` (two or more intervals of non-empty,
    /// pairwise disjoint scopes whose union is covered by `node` but by
    /// neither child) split cleanly along `node` and, within each side,
    /// along its subtree.
    fn partition_scopes(&self, node: VtreeId, scopes: &[(u32, u32)]) -> bool {
        if scopes.len() <= 1 {
            return true;
        }
        let VtreeNode::Internal(l, r) = self.nodes[node.0] else {
            // Two or more disjoint non-empty scopes cannot sit under a leaf.
            return false;
        };
        let mut left: Vec<(u32, u32)> = Vec::new();
        let mut right: Vec<(u32, u32)> = Vec::new();
        for &s in scopes {
            if span_contains(self.spans[l.0], s) {
                left.push(s);
            } else if span_contains(self.spans[r.0], s) {
                right.push(s);
            } else {
                // A child scope straddles the split: not structured here.
                return false;
            }
        }
        for (side, child) in [(&left, l), (&right, r)] {
            if side.len() > 1 {
                let union = side
                    .iter()
                    .fold((u32::MAX, 0u32), |(lo, hi), &(a, b)| (lo.min(a), hi.max(b)));
                let lowest = self.lowest_covering(child, union);
                if !self.partition_scopes(lowest, side) {
                    return false;
                }
            }
        }
        true
    }
}

/// Whether the closed interval `inner` lies within the `[start, end)` span.
fn span_contains(span: (u32, u32), inner: (u32, u32)) -> bool {
    span.0 <= inner.0 && inner.1 < span.1
}

impl Default for Vtree {
    fn default() -> Self {
        Vtree::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Vtree {
        /// The right-linear vtree over a variable order: variable `order[0]` is
        /// the leftmost leaf, and every internal node pairs one variable against
        /// the rest of the order. OBDDs under `order` are structured by exactly
        /// this vtree (each decision node on `v` splits `{v}` from the variables
        /// tested below it).
        fn right_linear(order: &[VarId]) -> Self {
            let mut vt = Vtree::new();
            // Leaves first, in order, so spans nest right-to-left.
            let leaves: Vec<VtreeId> = order.iter().map(|&v| vt.leaf(v)).collect();
            let mut acc: Option<VtreeId> = None;
            for &leaf in leaves.iter().rev() {
                acc = Some(match acc {
                    None => leaf,
                    Some(rest) => vt.internal(leaf, rest),
                });
            }
            if let Some(root) = acc {
                vt.set_root(root);
            }
            vt
        }
    }

    #[test]
    fn right_linear_shape_and_scopes() {
        let vt = Vtree::right_linear(&[3, 1, 4]);
        assert_eq!(vt.node_count(), 5);
        assert_eq!(vt.variables(), [1, 3, 4].into_iter().collect());
        let root = vt.root().unwrap();
        let VtreeNode::Internal(l, r) = vt.node(root) else {
            panic!("root must be internal");
        };
        assert_eq!(vt.node(l), VtreeNode::Leaf(3));
        assert_eq!(vt.scope(r), [1, 4].into_iter().collect());
    }

    #[test]
    fn empty_and_singleton_vtrees() {
        let vt = Vtree::right_linear(&[]);
        assert!(vt.root().is_none());
        assert!(vt.variables().is_empty());
        let vt = Vtree::right_linear(&[7]);
        assert_eq!(vt.node(vt.root().unwrap()), VtreeNode::Leaf(7));
    }

    #[test]
    fn obdd_shaped_circuit_respects_right_linear_vtree() {
        // x0 AND (x1 OR (x1 AND x2)) nested in OBDD shape: the outer AND has
        // a multi-variable child {1, 2}.
        let mut c = Circuit::new();
        let x0 = c.var(0);
        let x1 = c.var(1);
        let x2 = c.var(2);
        let inner_and = c.and(vec![x1, x2]);
        let inner = c.or(vec![x1, inner_and]);
        let outer = c.and(vec![x0, inner]);
        c.set_output(outer);
        assert!(Vtree::right_linear(&[0, 1, 2]).respects(&c).is_ok());
        // Under the order (1, 0, 2) the child scope {1, 2} straddles the
        // first split ({1} vs {0, 2}), so the outer AND is not structured.
        assert_eq!(Vtree::right_linear(&[1, 0, 2]).respects(&c), Err(outer));
    }

    #[test]
    fn straddling_and_gate_is_rejected() {
        // AND({0,2}, {1}): under the right-linear vtree on (0, 1, 2) the
        // first child straddles the 0-vs-rest and 1-vs-2 splits.
        let mut c = Circuit::new();
        let x0 = c.var(0);
        let x1 = c.var(1);
        let x2 = c.var(2);
        let inner = c.and(vec![x0, x2]);
        let outer = c.and(vec![inner, x1]);
        c.set_output(outer);
        let vt = Vtree::right_linear(&[0, 1, 2]);
        // The inner AND has singleton child scopes (always routable); the
        // outer AND is the first offender.
        assert_eq!(vt.respects(&c), Err(outer));
        // A vtree pairing {0,2} against {1} accepts it.
        let mut vt = Vtree::new();
        let l0 = vt.leaf(0);
        let l2 = vt.leaf(2);
        let l1 = vt.leaf(1);
        let inner_v = vt.internal(l0, l2);
        let root = vt.internal(inner_v, l1);
        vt.set_root(root);
        assert!(vt.respects(&c).is_ok());
    }

    #[test]
    fn variable_outside_the_vtree_is_rejected() {
        let mut c = Circuit::new();
        let x0 = c.var(0);
        let x9 = c.var(9);
        let a = c.and(vec![x0, x9]);
        c.set_output(a);
        assert!(Vtree::right_linear(&[0, 9]).respects(&c).is_ok());
        assert_eq!(Vtree::right_linear(&[0, 1]).respects(&c), Err(a));
    }

    #[test]
    fn constants_and_single_child_ands_are_ignored() {
        let mut c = Circuit::new();
        let x0 = c.var(0);
        let t = c.constant(true);
        let a = c.and(vec![x0, t]);
        c.set_output(a);
        assert!(Vtree::right_linear(&[0]).respects(&c).is_ok());
        // The checker certifies splits, so an AND with at most one
        // variable-bearing child is structured by any vtree — even the empty
        // one.
        assert!(Vtree::new().respects(&c).is_ok());
    }

    #[test]
    fn nary_and_needs_nested_splits() {
        // AND({0}, {1}, {2}) is structured by the right-linear vtree: split
        // {0} at the root, then {1} vs {2} below.
        let mut c = Circuit::new();
        let x0 = c.var(0);
        let x1 = c.var(1);
        let x2 = c.var(2);
        let a = c.and(vec![x0, x1, x2]);
        c.set_output(a);
        assert!(Vtree::right_linear(&[0, 1, 2]).respects(&c).is_ok());
        assert!(Vtree::right_linear(&[2, 1, 0]).respects(&c).is_ok());
    }

    #[test]
    #[should_panic]
    fn duplicate_leaf_variable_panics() {
        let mut vt = Vtree::new();
        let _ = vt.leaf(0);
        let _ = vt.leaf(0);
    }

    #[test]
    #[should_panic]
    fn non_adjacent_internal_spans_panic() {
        let mut vt = Vtree::new();
        let a = vt.leaf(0);
        let _b = vt.leaf(1);
        let c = vt.leaf(2);
        // 0 and 2 are not adjacent in leaf order (1 sits between them).
        let _ = vt.internal(a, c);
    }
}
