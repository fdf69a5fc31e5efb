//! Nice tree decompositions.
//!
//! Dynamic programming over tree decompositions (the engine behind
//! Theorem 3.2 and all of Section 6) is much easier to state over *nice*
//! decompositions, where every node is one of:
//!
//! * a **leaf** with an empty bag,
//! * an **introduce** node: bag = child's bag plus one new vertex,
//! * a **forget** node: bag = child's bag minus one vertex,
//! * a **join** node: two children with the same bag as the node.
//!
//! The root has an empty bag. Any tree decomposition of width `k` can be
//! converted into a nice one of the same width with `O(k · n)` nodes, which
//! is what [`NiceTreeDecomposition::from_tree_decomposition`] does.

use crate::decomposition::TreeDecomposition;
use crate::graph::{Graph, Vertex};
use std::collections::BTreeSet;

/// Identifier of a node in a [`NiceTreeDecomposition`].
pub type NiceNodeId = usize;

/// The kind of a node in a nice tree decomposition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NiceNode {
    /// A leaf with an empty bag.
    Leaf,
    /// Introduces `vertex` on top of `child`.
    Introduce {
        /// The introduced vertex (present in this bag, absent in the child's).
        vertex: Vertex,
        /// The unique child node.
        child: NiceNodeId,
    },
    /// Forgets `vertex` from `child`.
    Forget {
        /// The forgotten vertex (absent from this bag, present in the child's).
        vertex: Vertex,
        /// The unique child node.
        child: NiceNodeId,
    },
    /// Joins two children with identical bags.
    Join {
        /// Left child.
        left: NiceNodeId,
        /// Right child.
        right: NiceNodeId,
    },
}

/// A nice tree decomposition, rooted, with bags stored per node.
#[derive(Clone, Debug)]
pub struct NiceTreeDecomposition {
    nodes: Vec<NiceNode>,
    bags: Vec<BTreeSet<Vertex>>,
    root: NiceNodeId,
}

impl NiceTreeDecomposition {
    /// The root node (its bag is empty).
    pub fn root(&self) -> NiceNodeId {
        self.root
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node of the given id.
    pub fn node(&self, id: NiceNodeId) -> &NiceNode {
        &self.nodes[id]
    }

    /// The bag of the given node.
    pub fn bag(&self, id: NiceNodeId) -> &BTreeSet<Vertex> {
        &self.bags[id]
    }

    /// Width of the decomposition (max bag size - 1; 0 if all bags are empty).
    pub fn width(&self) -> usize {
        self.bags
            .iter()
            .map(|b| b.len())
            .max()
            .unwrap_or(1)
            .saturating_sub(1)
    }

    /// Nodes in post-order (children before parents); the natural order for
    /// bottom-up dynamic programming.
    pub fn post_order(&self) -> Vec<NiceNodeId> {
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![(self.root, false)];
        while let Some((node, expanded)) = stack.pop() {
            if expanded {
                order.push(node);
                continue;
            }
            stack.push((node, true));
            match self.nodes[node] {
                NiceNode::Leaf => {}
                NiceNode::Introduce { child, .. } | NiceNode::Forget { child, .. } => {
                    stack.push((child, false));
                }
                NiceNode::Join { left, right } => {
                    stack.push((left, false));
                    stack.push((right, false));
                }
            }
        }
        order
    }

    /// Structural validation: child bags relate to parent bags as required,
    /// the root bag is empty, and the result is a valid tree decomposition of
    /// `g` (every edge covered by some bag, occurrence sets connected — the
    /// latter holds by construction, the former is checked explicitly).
    pub fn validate(&self, g: &Graph) -> Result<(), String> {
        if !self.bags[self.root].is_empty() {
            return Err("root bag is not empty".into());
        }
        for (id, node) in self.nodes.iter().enumerate() {
            match node {
                NiceNode::Leaf => {
                    if !self.bags[id].is_empty() {
                        return Err(format!("leaf {id} has a non-empty bag"));
                    }
                }
                NiceNode::Introduce { vertex, child } => {
                    let mut expected = self.bags[*child].clone();
                    if !expected.insert(*vertex) {
                        return Err(format!("introduce {id}: vertex already in child bag"));
                    }
                    if expected != self.bags[id] {
                        return Err(format!("introduce {id}: bag mismatch"));
                    }
                }
                NiceNode::Forget { vertex, child } => {
                    let mut expected = self.bags[*child].clone();
                    if !expected.remove(vertex) {
                        return Err(format!("forget {id}: vertex not in child bag"));
                    }
                    if expected != self.bags[id] {
                        return Err(format!("forget {id}: bag mismatch"));
                    }
                }
                NiceNode::Join { left, right } => {
                    if self.bags[*left] != self.bags[id] || self.bags[*right] != self.bags[id] {
                        return Err(format!("join {id}: children bags differ from node bag"));
                    }
                }
            }
        }
        // Every vertex with an edge must be introduced somewhere, and every
        // edge must be inside some bag.
        for e in g.edges() {
            if !self
                .bags
                .iter()
                .any(|b| b.contains(&e.u) && b.contains(&e.v))
            {
                return Err(format!("edge ({}, {}) not covered", e.u, e.v));
            }
        }
        Ok(())
    }

    /// Converts an arbitrary (connected, non-empty) tree decomposition into a
    /// nice one of the same width. Isolated graph vertices absent from all
    /// bags stay absent.
    pub fn from_tree_decomposition(td: &TreeDecomposition) -> Self {
        let mut builder = Builder::default();
        if td.bag_count() == 0 {
            let leaf = builder.push(NiceNode::Leaf, BTreeSet::new());
            return NiceTreeDecomposition {
                nodes: builder.nodes,
                bags: builder.bags,
                root: leaf,
            };
        }
        // Root the decomposition tree at bag 0 and build recursively.
        let top = builder.build_subtree(td, 0, usize::MAX);
        // Close the chain: forget every vertex of bag 0 so the root is empty.
        let root_bag = td.bag(0).clone();
        let root = builder.forget_all(top, &root_bag);
        NiceTreeDecomposition {
            nodes: builder.nodes,
            bags: builder.bags,
            root,
        }
    }
}

#[derive(Default)]
struct Builder {
    nodes: Vec<NiceNode>,
    bags: Vec<BTreeSet<Vertex>>,
}

impl Builder {
    fn push(&mut self, node: NiceNode, bag: BTreeSet<Vertex>) -> NiceNodeId {
        self.push_with_bag(node, bag)
    }

    fn push_with_bag(&mut self, node: NiceNode, bag: BTreeSet<Vertex>) -> NiceNodeId {
        self.nodes.push(node);
        self.bags.push(bag);
        self.nodes.len() - 1
    }

    /// Introduce all vertices of `target` on top of `node` (whose bag is `from`).
    fn introduce_all(
        &mut self,
        mut node: NiceNodeId,
        from: &BTreeSet<Vertex>,
        target: &BTreeSet<Vertex>,
    ) -> NiceNodeId {
        let mut bag = from.clone();
        for &v in target.difference(from) {
            bag.insert(v);
            node = self.push_with_bag(
                NiceNode::Introduce {
                    vertex: v,
                    child: node,
                },
                bag.clone(),
            );
        }
        node
    }

    /// Forget all vertices of `from` not in `target` on top of `node`.
    fn forget_down_to(
        &mut self,
        mut node: NiceNodeId,
        from: &BTreeSet<Vertex>,
        target: &BTreeSet<Vertex>,
    ) -> NiceNodeId {
        let mut bag = from.clone();
        let to_forget: Vec<Vertex> = from.difference(target).copied().collect();
        for v in to_forget {
            bag.remove(&v);
            node = self.push_with_bag(
                NiceNode::Forget {
                    vertex: v,
                    child: node,
                },
                bag.clone(),
            );
        }
        node
    }

    fn forget_all(&mut self, node: NiceNodeId, from: &BTreeSet<Vertex>) -> NiceNodeId {
        self.forget_down_to(node, from, &BTreeSet::new())
    }

    /// Builds the nice subtree for the subtree of `td` rooted at `bag_id`
    /// (with parent `parent`), returning a node whose bag equals
    /// `td.bag(bag_id)`.
    fn build_subtree(
        &mut self,
        td: &TreeDecomposition,
        bag_id: usize,
        parent: usize,
    ) -> NiceNodeId {
        let my_bag = td.bag(bag_id).clone();
        // Start from a leaf and introduce my whole bag.
        let leaf = self.push(NiceNode::Leaf, BTreeSet::new());
        let mut acc = self.introduce_all(leaf, &BTreeSet::new(), &my_bag);
        for &child in td.tree_neighbors(bag_id) {
            if child == parent {
                continue;
            }
            let child_top = self.build_subtree(td, child, bag_id);
            // Adapt the child (bag = td.bag(child)) to my bag: forget what I
            // don't have, introduce what I have.
            let child_bag = td.bag(child).clone();
            let intersection: BTreeSet<Vertex> = child_bag.intersection(&my_bag).copied().collect();
            let forgotten = self.forget_down_to(child_top, &child_bag, &intersection);
            let adapted = self.introduce_all(forgotten, &intersection, &my_bag);
            // Join with the accumulator.
            acc = self.push_with_bag(
                NiceNode::Join {
                    left: acc,
                    right: adapted,
                },
                my_bag.clone(),
            );
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::treewidth;

    fn nice_of(g: &Graph) -> NiceTreeDecomposition {
        let (_, td) = treewidth::treewidth_upper_bound(g);
        NiceTreeDecomposition::from_tree_decomposition(&td)
    }

    #[test]
    fn nice_decomposition_of_path_is_valid_and_width_one() {
        let g = generators::path_graph(8);
        let nice = nice_of(&g);
        assert!(nice.validate(&g).is_ok());
        assert_eq!(nice.width(), 1);
        assert!(nice.bag(nice.root()).is_empty());
    }

    #[test]
    fn nice_decomposition_preserves_width_on_known_graphs() {
        for (g, expected) in [
            (generators::cycle_graph(7), 2usize),
            (generators::complete_graph(5), 4),
            (generators::star_graph(6), 1),
        ] {
            let nice = nice_of(&g);
            assert!(nice.validate(&g).is_ok());
            assert_eq!(nice.width(), expected);
        }
    }

    #[test]
    fn nice_decomposition_of_random_partial_k_trees() {
        for seed in 0..4 {
            let g = generators::random_partial_k_tree(25, 3, 0.8, seed);
            let nice = nice_of(&g);
            assert!(nice.validate(&g).is_ok());
            assert!(nice.width() <= 3 + 1); // heuristic may lose a little

            // Post-order ends at the root and visits every node once.
            let order = nice.post_order();
            assert_eq!(order.len(), nice.node_count());
            assert_eq!(*order.last().unwrap(), nice.root());
        }
    }

    #[test]
    fn post_order_children_before_parents() {
        let g = generators::balanced_binary_tree(15);
        let nice = nice_of(&g);
        let order = nice.post_order();
        let mut position = vec![usize::MAX; nice.node_count()];
        for (i, &n) in order.iter().enumerate() {
            position[n] = i;
        }
        for (id, node) in (0..nice.node_count()).map(|i| (i, nice.node(i))) {
            match node {
                NiceNode::Leaf => {}
                NiceNode::Introduce { child, .. } | NiceNode::Forget { child, .. } => {
                    assert!(position[*child] < position[id]);
                }
                NiceNode::Join { left, right } => {
                    assert!(position[*left] < position[id]);
                    assert!(position[*right] < position[id]);
                }
            }
        }
    }
}
