//! Labelled full binary trees (`Γ-trees`).
//!
//! The constructions of \[2\] (recalled in Section 3 and used by Theorems 6.3
//! and 6.11) run bottom-up tree automata over tree encodings of treelike
//! instances, and over probabilistic XML documents (the use case cited in the
//! introduction). Both are full binary trees whose nodes carry labels from a
//! finite alphabet; this module provides the tree type, traversals, and the
//! *uncertain tree* variant where some nodes carry two alternative labels
//! selected by a Boolean event (the tuple-independent analogue for trees).

use std::fmt;

/// Identifier of a node in a [`BinaryTree`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub usize);

/// A label of the finite alphabet `Γ = {0, ..., alphabet_size - 1}`.
pub type Label = usize;

/// A node of a full binary tree: either a leaf or an internal node with
/// exactly two children.
#[derive(Clone, Debug, PartialEq, Eq)]
enum NodeKind {
    Leaf,
    Internal { left: NodeId, right: NodeId },
}

/// A full binary tree with labelled nodes.
#[derive(Clone, Debug)]
pub struct BinaryTree {
    labels: Vec<Label>,
    kinds: Vec<NodeKind>,
    root: Option<NodeId>,
}

impl BinaryTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        BinaryTree {
            labels: Vec::new(),
            kinds: Vec::new(),
            root: None,
        }
    }

    /// Adds a leaf node with the given label and returns its id.
    pub fn leaf(&mut self, label: Label) -> NodeId {
        self.labels.push(label);
        self.kinds.push(NodeKind::Leaf);
        NodeId(self.labels.len() - 1)
    }

    /// Adds an internal node with the given label and children.
    pub fn internal(&mut self, label: Label, left: NodeId, right: NodeId) -> NodeId {
        assert!(left.0 < self.labels.len() && right.0 < self.labels.len());
        self.labels.push(label);
        self.kinds.push(NodeKind::Internal { left, right });
        NodeId(self.labels.len() - 1)
    }

    /// Designates the root node.
    pub fn set_root(&mut self, root: NodeId) {
        assert!(root.0 < self.labels.len());
        self.root = Some(root);
    }

    /// The root node. Panics if not set.
    pub fn root(&self) -> NodeId {
        self.root.expect("tree root not set")
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// The label of a node.
    pub fn label(&self, node: NodeId) -> Label {
        self.labels[node.0]
    }

    /// Overrides the label of a node.
    pub fn set_label(&mut self, node: NodeId, label: Label) {
        self.labels[node.0] = label;
    }

    /// The children of a node (`None` for leaves).
    pub fn children(&self, node: NodeId) -> Option<(NodeId, NodeId)> {
        match self.kinds[node.0] {
            NodeKind::Leaf => None,
            NodeKind::Internal { left, right } => Some((left, right)),
        }
    }

    /// Returns `true` if the node is a leaf.
    pub fn is_leaf(&self, node: NodeId) -> bool {
        matches!(self.kinds[node.0], NodeKind::Leaf)
    }

    /// Nodes in post-order (children before parents), starting from the root.
    pub fn post_order(&self) -> Vec<NodeId> {
        self.post_order_from(self.root())
    }

    /// Nodes of the subtree rooted at `from`, in post-order. Because a
    /// subtree's nodes form a contiguous segment of every post-order that
    /// contains them, this is the traversal the parallel compilation engine
    /// uses to hand disjoint subtrees to worker threads while keeping the
    /// merged output identical to a single root-to-leaves pass.
    pub fn post_order_from(&self, from: NodeId) -> Vec<NodeId> {
        let mut order = Vec::new();
        let mut stack = vec![(from, false)];
        while let Some((node, expanded)) = stack.pop() {
            if expanded {
                order.push(node);
                continue;
            }
            stack.push((node, true));
            if let Some((l, r)) = self.children(node) {
                stack.push((r, false));
                stack.push((l, false));
            }
        }
        order
    }

    /// The height of the tree (a single leaf has height 1).
    pub fn height(&self) -> usize {
        let mut heights = vec![0usize; self.node_count()];
        for node in self.post_order() {
            heights[node.0] = match self.children(node) {
                None => 1,
                Some((l, r)) => 1 + heights[l.0].max(heights[r.0]),
            };
        }
        heights[self.root().0]
    }

    /// The maximum label used plus one (a lower bound on the alphabet size
    /// needed by an automaton running on this tree).
    pub fn alphabet_size(&self) -> usize {
        self.labels.iter().copied().max().map_or(0, |m| m + 1)
    }

    /// Builds a left-leaning "comb" tree from a sequence of leaf labels and an
    /// internal label: convenient for encoding words/paths as binary trees.
    pub fn comb(leaf_labels: &[Label], internal_label: Label) -> Self {
        assert!(!leaf_labels.is_empty());
        let mut tree = BinaryTree::new();
        let mut acc = tree.leaf(leaf_labels[0]);
        for &label in &leaf_labels[1..] {
            let leaf = tree.leaf(label);
            acc = tree.internal(internal_label, acc, leaf);
        }
        tree.set_root(acc);
        tree
    }
}

impl Default for BinaryTree {
    fn default() -> Self {
        BinaryTree::new()
    }
}

impl fmt::Display for BinaryTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn rec(tree: &BinaryTree, node: NodeId, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match tree.children(node) {
                None => write!(f, "{}", tree.label(node)),
                Some((l, r)) => {
                    write!(f, "{}(", tree.label(node))?;
                    rec(tree, l, f)?;
                    write!(f, ",")?;
                    rec(tree, r, f)?;
                    write!(f, ")")
                }
            }
        }
        if self.root.is_some() {
            rec(self, self.root(), f)
        } else {
            write!(f, "<empty>")
        }
    }
}

/// An uncertain labelled tree: every node carries either a fixed label or a
/// Boolean *event* choosing between two labels. This is the "uncertain tree"
/// of \[2\]'s Proposition 3.1 (and the data model of probabilistic XML without
/// data values, as cited in the introduction): each event is an independent
/// Boolean variable, and a valuation of the events yields an ordinary
/// [`BinaryTree`].
#[derive(Clone, Debug)]
pub struct UncertainTree {
    /// The underlying tree structure; node labels are interpreted through
    /// `annotations`.
    tree: BinaryTree,
    /// For each node, how its label is determined.
    annotations: Vec<NodeAnnotation>,
}

/// How an uncertain tree node's label is determined.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeAnnotation {
    /// The node always carries the structural label.
    Fixed,
    /// The node carries `if_true` when the event (Boolean variable) is true
    /// and `if_false` otherwise. The event id doubles as the variable id of
    /// the provenance circuit.
    Event {
        /// The Boolean variable controlling the node.
        event: usize,
        /// Label when the event is true.
        if_true: Label,
        /// Label when the event is false.
        if_false: Label,
    },
}

impl UncertainTree {
    /// Wraps a tree with all nodes fixed.
    pub fn certain(tree: BinaryTree) -> Self {
        let annotations = vec![NodeAnnotation::Fixed; tree.node_count()];
        UncertainTree { tree, annotations }
    }

    /// Marks a node as controlled by an event.
    pub fn set_event(&mut self, node: NodeId, event: usize, if_true: Label, if_false: Label) {
        self.annotations[node.0] = NodeAnnotation::Event {
            event,
            if_true,
            if_false,
        };
    }

    /// The underlying structural tree.
    pub fn tree(&self) -> &BinaryTree {
        &self.tree
    }

    /// The annotation of a node.
    pub fn annotation(&self, node: NodeId) -> NodeAnnotation {
        self.annotations[node.0]
    }

    /// All events (Boolean variables) used in the tree.
    pub fn events(&self) -> Vec<usize> {
        let mut events: Vec<usize> = self
            .annotations
            .iter()
            .filter_map(|a| match a {
                NodeAnnotation::Event { event, .. } => Some(*event),
                NodeAnnotation::Fixed => None,
            })
            .collect();
        events.sort_unstable();
        events.dedup();
        events
    }

    /// The concrete tree obtained under a valuation of the events.
    pub fn instantiate(&self, valuation: &dyn Fn(usize) -> bool) -> BinaryTree {
        let mut tree = self.tree.clone();
        for node in 0..tree.node_count() {
            if let NodeAnnotation::Event {
                event,
                if_true,
                if_false,
            } = self.annotations[node]
            {
                let label = if valuation(event) { if_true } else { if_false };
                tree.set_label(NodeId(node), label);
            }
        }
        tree
    }

    /// The labels a node may carry, in alternative order: the structural
    /// label of a fixed node; `if_true`, then `if_false` of an event node
    /// (both, even when equal: the event literal guards each).
    pub fn alternatives(&self, node: NodeId) -> impl Iterator<Item = Label> {
        match self.annotations[node.0] {
            NodeAnnotation::Fixed => [Some(self.tree.label(node)), None],
            NodeAnnotation::Event {
                if_true, if_false, ..
            } => [Some(if_true), Some(if_false)],
        }
        .into_iter()
        .flatten()
    }

    /// The effective label of a node under a valuation.
    pub fn label_under(&self, node: NodeId, valuation: &dyn Fn(usize) -> bool) -> Label {
        match self.annotations[node.0] {
            NodeAnnotation::Fixed => self.tree.label(node),
            NodeAnnotation::Event {
                event,
                if_true,
                if_false,
            } => {
                if valuation(event) {
                    if_true
                } else {
                    if_false
                }
            }
        }
    }

    /// The alphabet size needed to cover all labels (fixed and alternative).
    pub fn alphabet_size(&self) -> usize {
        let mut max = self.tree.alphabet_size();
        for a in &self.annotations {
            if let NodeAnnotation::Event {
                if_true, if_false, ..
            } = a
            {
                max = max.max(if_true + 1).max(if_false + 1);
            }
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_tree() -> BinaryTree {
        // 2(0, 1(0, 0))
        let mut t = BinaryTree::new();
        let a = t.leaf(0);
        let b = t.leaf(0);
        let c = t.leaf(0);
        let inner = t.internal(1, b, c);
        let root = t.internal(2, a, inner);
        t.set_root(root);
        t
    }

    #[test]
    fn construction_and_traversal() {
        let t = small_tree();
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.height(), 3);
        assert_eq!(t.alphabet_size(), 3);
        let order = t.post_order();
        assert_eq!(order.len(), 5);
        assert_eq!(*order.last().unwrap(), t.root());
        assert!(t.is_leaf(NodeId(0)));
        assert!(!t.is_leaf(t.root()));
        assert_eq!(t.to_string(), "2(0,1(0,0))");
    }

    #[test]
    fn comb_tree() {
        let t = BinaryTree::comb(&[1, 2, 3], 9);
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.to_string(), "9(9(1,2),3)");
        assert_eq!(t.height(), 3);
    }

    #[test]
    fn uncertain_tree_instantiation() {
        let mut u = UncertainTree::certain(small_tree());
        u.set_event(NodeId(0), 7, 5, 0);
        assert_eq!(u.events(), vec![7]);
        let with = u.instantiate(&|e| e == 7);
        let without = u.instantiate(&|_| false);
        assert_eq!(with.label(NodeId(0)), 5);
        assert_eq!(without.label(NodeId(0)), 0);
        assert_eq!(u.alphabet_size(), 6);
        assert_eq!(u.label_under(NodeId(0), &|_| true), 5);
        assert_eq!(u.label_under(NodeId(4), &|_| true), 2);
    }

    #[test]
    #[should_panic]
    fn internal_node_requires_existing_children() {
        let mut t = BinaryTree::new();
        let a = t.leaf(0);
        let _ = t.internal(1, a, NodeId(5));
    }
}
