//! Variable orders derived from tree and path decompositions.
//!
//! The OBDD upper bounds of the paper (Theorems 6.5 / 6.7) rely on variable
//! orders that follow a decomposition of the instance: facts covered by
//! nearby bags are tested together, so the diagram's cross-sections only
//! ever see a bounded window of the instance. This module centralizes that
//! order so the lineage pipeline never hand-rolls it:
//! [`order_by_first_covering_bag`] places arbitrary items (facts, edges, …)
//! at the first bag covering their vertex set in the depth-first layout ΠR
//! of \[35\] (bags laid out by a pre-order traversal with children visited
//! in increasing subtree size).

use std::collections::BTreeSet;
use treelineage_graph::{BagId, TreeDecomposition, Vertex};

/// Depth-first layout of the decomposition's bags rooted at bag 0, visiting
/// children in increasing subtree size (the in-order traversal ΠR of \[35\]).
/// Empty for a decomposition without bags.
fn bag_layout(td: &TreeDecomposition) -> Vec<BagId> {
    if td.bag_count() == 0 {
        return Vec::new();
    }
    // Subtree sizes via an iterative post-order from bag 0.
    let mut subtree_size = vec![1usize; td.bag_count()];
    let mut parent = vec![usize::MAX; td.bag_count()];
    let mut post = Vec::new();
    let mut stack = vec![(0usize, usize::MAX, false)];
    while let Some((bag, from, expanded)) = stack.pop() {
        if expanded {
            post.push(bag);
            continue;
        }
        parent[bag] = from;
        stack.push((bag, from, true));
        for &next in td.tree_neighbors(bag) {
            if next != from {
                stack.push((next, bag, false));
            }
        }
    }
    for &bag in &post {
        for &next in td.tree_neighbors(bag) {
            if next != parent[bag] {
                subtree_size[bag] += subtree_size[next];
            }
        }
    }
    // Pre-order traversal with children sorted by subtree size.
    let mut layout = Vec::with_capacity(td.bag_count());
    let mut stack = vec![(0usize, usize::MAX)];
    while let Some((bag, from)) = stack.pop() {
        layout.push(bag);
        let mut children: Vec<usize> = td
            .tree_neighbors(bag)
            .iter()
            .copied()
            .filter(|&n| n != from)
            .collect();
        // Larger subtrees are pushed first so that smaller ones are visited
        // first (stack order).
        children.sort_by_key(|&c| std::cmp::Reverse(subtree_size[c]));
        for c in children {
            stack.push((c, bag));
        }
    }
    layout
}

/// Orders items (each given by its set of decomposition vertices) by the
/// first bag of the depth-first layout ΠR containing all of the item's
/// vertices; items covered by no bag go last, ties are broken by item
/// index. Returns the permutation of item indices — for the lineage
/// pipeline the items are facts and the result is directly the OBDD
/// variable order.
pub fn order_by_first_covering_bag(
    td: &TreeDecomposition,
    items: &[BTreeSet<Vertex>],
) -> Vec<usize> {
    let layout = bag_layout(td);
    let mut keyed: Vec<(usize, usize)> = Vec::with_capacity(items.len());
    for (index, vertices) in items.iter().enumerate() {
        let position = layout
            .iter()
            .position(|&bag| vertices.iter().all(|v| td.bag(bag).contains(v)))
            .unwrap_or(usize::MAX);
        keyed.push((position, index));
    }
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, index)| index).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelineage_graph::{generators, treewidth};

    #[test]
    fn layout_visits_every_bag_once() {
        let g = generators::path_graph(8);
        let (_, td) = treewidth::treewidth_upper_bound(&g);
        let layout = bag_layout(&td);
        assert_eq!(layout.len(), td.bag_count());
        let mut sorted = layout.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), td.bag_count());
    }

    #[test]
    fn items_follow_the_bag_layout() {
        // On a path, edges must be ordered consistently with the path: the
        // first covering bags of consecutive edges appear in layout order,
        // so no edge far along the path may come before one near the start
        // on the same branch.
        let g = generators::path_graph(10);
        let (_, td) = treewidth::treewidth_upper_bound(&g);
        let items: Vec<BTreeSet<Vertex>> = g
            .edges()
            .iter()
            .map(|e| [e.u, e.v].into_iter().collect())
            .collect();
        let order = order_by_first_covering_bag(&td, &items);
        assert_eq!(order.len(), items.len());
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..items.len()).collect::<Vec<_>>());
    }

    #[test]
    fn uncovered_items_go_last() {
        let g = generators::path_graph(4);
        let (_, td) = treewidth::treewidth_upper_bound(&g);
        // An item spanning the whole path is covered by no bag.
        let items: Vec<BTreeSet<Vertex>> = vec![(0..4).collect(), [0, 1].into_iter().collect()];
        let order = order_by_first_covering_bag(&td, &items);
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn empty_decomposition_yields_empty_layout() {
        let td = TreeDecomposition::new();
        assert!(bag_layout(&td).is_empty());
        let items: Vec<BTreeSet<Vertex>> = vec![BTreeSet::new()];
        assert_eq!(order_by_first_covering_bag(&td, &items), vec![0]);
    }
}
