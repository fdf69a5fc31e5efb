//! Treewidth and pathwidth computation.
//!
//! Computing treewidth exactly is NP-hard, so we provide:
//! * construction of a tree decomposition from an *elimination ordering*
//!   (the textbook fill-in procedure),
//! * the min-degree and min-fill heuristics, which are what the library uses
//!   by default (every decomposition is validated, so a heuristic result is
//!   always a *correct* decomposition, just possibly not of optimal width),
//! * an exact exponential dynamic program over vertex subsets for small
//!   graphs (used by tests and by the experiments that need the true
//!   treewidth of a gadget),
//! * the degeneracy lower bound,
//! * analogous machinery for pathwidth via vertex separation orderings.
//!
//! Note: bounded-treewidth *families* in the experiments (partial k-trees,
//! paths, caterpillars, grids-by-columns) come with constructive
//! decompositions from their generators, so the heuristics here are a
//! convenience, not a correctness requirement — this mirrors the paper, where
//! instances of treewidth ≤ k are assumed given and a decomposition can be
//! computed in linear time by Bodlaender's algorithm (which we do not
//! reimplement; see DESIGN.md §2).

use crate::decomposition::TreeDecomposition;
use crate::graph::{Graph, Vertex};
use std::collections::BTreeSet;

/// Builds a tree decomposition from an elimination ordering using the
/// standard fill-in procedure. The resulting decomposition is always valid;
/// its width is the maximum elimination degree encountered.
fn decomposition_from_elimination_order(g: &Graph, order: &[Vertex]) -> TreeDecomposition {
    assert_eq!(
        order.len(),
        g.vertex_count(),
        "elimination order must mention every vertex exactly once"
    );
    let n = g.vertex_count();
    let mut position = vec![usize::MAX; n];
    for (i, &v) in order.iter().enumerate() {
        assert!(position[v] == usize::MAX, "duplicate vertex in order");
        position[v] = i;
    }
    // Work on a copy of the adjacency structure to add fill edges.
    let mut adjacency: Vec<BTreeSet<Vertex>> = (0..n).map(|v| g.neighbor_set(v).clone()).collect();
    let mut bags: Vec<BTreeSet<Vertex>> = Vec::with_capacity(n);
    for &v in order {
        // Later neighbors of v in the (filled) graph.
        let later: Vec<Vertex> = adjacency[v]
            .iter()
            .copied()
            .filter(|&u| position[u] > position[v])
            .collect();
        let mut bag: BTreeSet<Vertex> = later.iter().copied().collect();
        bag.insert(v);
        bags.push(bag);
        // Add fill edges among the later neighbors.
        for i in 0..later.len() {
            for j in i + 1..later.len() {
                adjacency[later[i]].insert(later[j]);
                adjacency[later[j]].insert(later[i]);
            }
        }
    }
    let mut td = TreeDecomposition::new();
    let mut bag_id = vec![0; n];
    for (i, bag) in bags.iter().enumerate() {
        bag_id[order[i]] = td.add_bag(bag.clone());
    }
    // Connect the bag of v to the bag of its earliest-eliminated later
    // neighbor (the standard clique-tree construction); vertices with no
    // later neighbor connect to the next bag in order so the tree stays
    // connected.
    for (i, &v) in order.iter().enumerate() {
        let later_min = bags[i]
            .iter()
            .copied()
            .filter(|&u| u != v)
            .min_by_key(|&u| position[u]);
        match later_min {
            Some(u) => td.add_tree_edge(bag_id[v], bag_id[u]),
            None => {
                if i + 1 < n {
                    td.add_tree_edge(bag_id[v], bag_id[order[i + 1]]);
                }
            }
        }
    }
    td
}

/// The min-degree heuristic: repeatedly eliminate a vertex of minimum degree
/// in the current fill graph. Returns the elimination ordering.
fn min_degree_order(g: &Graph) -> Vec<Vertex> {
    elimination_heuristic(g, |adj, remaining| {
        remaining
            .iter()
            .copied()
            .min_by_key(|&v| adj[v].iter().filter(|u| remaining.contains(u)).count())
            .unwrap()
    })
}

/// The min-fill heuristic: repeatedly eliminate the vertex whose elimination
/// adds the fewest fill edges. Returns the elimination ordering.
fn min_fill_order(g: &Graph) -> Vec<Vertex> {
    elimination_heuristic(g, |adj, remaining| {
        remaining
            .iter()
            .copied()
            .min_by_key(|&v| {
                let neighbors: Vec<Vertex> = adj[v]
                    .iter()
                    .copied()
                    .filter(|u| remaining.contains(u))
                    .collect();
                let mut fill = 0usize;
                for i in 0..neighbors.len() {
                    for j in i + 1..neighbors.len() {
                        if !adj[neighbors[i]].contains(&neighbors[j]) {
                            fill += 1;
                        }
                    }
                }
                fill
            })
            .unwrap()
    })
}

fn elimination_heuristic<F>(g: &Graph, mut pick: F) -> Vec<Vertex>
where
    F: FnMut(&[BTreeSet<Vertex>], &BTreeSet<Vertex>) -> Vertex,
{
    let n = g.vertex_count();
    let mut adjacency: Vec<BTreeSet<Vertex>> = (0..n).map(|v| g.neighbor_set(v).clone()).collect();
    let mut remaining: BTreeSet<Vertex> = (0..n).collect();
    let mut order = Vec::with_capacity(n);
    while !remaining.is_empty() {
        let v = pick(&adjacency, &remaining);
        let neighbors: Vec<Vertex> = adjacency[v]
            .iter()
            .copied()
            .filter(|u| remaining.contains(u))
            .collect();
        for i in 0..neighbors.len() {
            for j in i + 1..neighbors.len() {
                adjacency[neighbors[i]].insert(neighbors[j]);
                adjacency[neighbors[j]].insert(neighbors[i]);
            }
        }
        remaining.remove(&v);
        order.push(v);
    }
    order
}

/// Upper bound on treewidth together with a witnessing decomposition, taking
/// the better of the min-degree and min-fill heuristics.
pub fn treewidth_upper_bound(g: &Graph) -> (usize, TreeDecomposition) {
    let candidates = [min_degree_order(g), min_fill_order(g)];
    let mut best: Option<(usize, TreeDecomposition)> = None;
    for order in candidates {
        let td = decomposition_from_elimination_order(g, &order);
        let w = td.width();
        if best.as_ref().map(|(bw, _)| w < *bw).unwrap_or(true) {
            best = Some((w, td));
        }
    }
    best.expect("at least one heuristic ran")
}

/// The degeneracy of the graph (maximum over subgraphs of the minimum
/// degree); a lower bound on treewidth.
pub fn degeneracy(g: &Graph) -> usize {
    let n = g.vertex_count();
    let mut degree: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
    let mut removed = vec![false; n];
    let mut best = 0;
    for _ in 0..n {
        let v = (0..n)
            .filter(|&v| !removed[v])
            .min_by_key(|&v| degree[v])
            .unwrap();
        best = best.max(degree[v]);
        removed[v] = true;
        for u in g.neighbors(v) {
            if !removed[u] {
                degree[u] -= 1;
            }
        }
    }
    best
}

/// Exact treewidth by dynamic programming over vertex subsets (the classic
/// `O*(2^n)` elimination-ordering DP). Panics if the graph has more than 24
/// vertices — use the heuristics above for larger graphs.
pub fn treewidth_exact(g: &Graph) -> usize {
    let n = g.vertex_count();
    assert!(n <= 24, "exact treewidth limited to 24 vertices");
    if n == 0 {
        return 0;
    }
    // q(v, S) = number of vertices outside S ∪ {v} adjacent to v or reachable
    // from v through S: the elimination degree of v when S was eliminated
    // before it. Flood v's component through S, then count its neighbourhood
    // outside S ∪ {v}.
    let adjacency: Vec<u32> = (0..n)
        .map(|v| g.neighbors(v).fold(0, |mask, u| mask | 1u32 << u))
        .collect();
    let q = |v: usize, s: u32| -> u8 {
        let mut component: u32 = 1 << v;
        let mut reach = adjacency[v];
        loop {
            let mut grow = reach & s & !component;
            if grow == 0 {
                break;
            }
            component |= grow;
            while grow != 0 {
                reach |= adjacency[grow.trailing_zeros() as usize];
                grow &= grow - 1;
            }
        }
        (reach & !s & !(1u32 << v)).count_ones() as u8
    };
    // dp[S] = minimum over elimination orderings of S (eliminated first) of
    // the maximum elimination degree. Removing a vertex from S gives a
    // smaller number, so numeric order visits every subset after all of its
    // predecessors.
    let full: u32 = (1u32 << n) - 1;
    let mut dp: Vec<u8> = vec![0; full as usize + 1];
    for s in 1..=full {
        let mut best = u8::MAX;
        let mut bits = s;
        while bits != 0 {
            let v = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let prev = s & !(1u32 << v);
            best = best.min(dp[prev as usize].max(q(v, prev)));
        }
        dp[s as usize] = best;
    }
    dp[full as usize] as usize
}

/// Builds a path decomposition from a linear vertex layout: bag `i` contains
/// `order[i]` together with every earlier vertex that still has a neighbor at
/// or after position `i`. Its width is the vertex separation of the layout.
fn path_decomposition_from_layout(g: &Graph, order: &[Vertex]) -> TreeDecomposition {
    assert_eq!(order.len(), g.vertex_count());
    let n = g.vertex_count();
    let mut position = vec![usize::MAX; n];
    for (i, &v) in order.iter().enumerate() {
        position[v] = i;
    }
    let mut bags = Vec::with_capacity(n);
    for i in 0..n {
        let mut bag: BTreeSet<Vertex> = BTreeSet::new();
        bag.insert(order[i]);
        for (j, &u) in order.iter().enumerate().take(i) {
            let _ = j;
            if g.neighbors(u).any(|w| position[w] >= i) {
                bag.insert(u);
            }
        }
        bags.push(bag);
    }
    TreeDecomposition::path_from_bags(bags)
}

/// Pathwidth upper bound: best of the identity, BFS, and min-degree layouts.
pub fn pathwidth_upper_bound(g: &Graph) -> (usize, TreeDecomposition) {
    let n = g.vertex_count();
    let identity: Vec<Vertex> = (0..n).collect();
    let mut bfs = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for start in 0..n {
        if seen[start] {
            continue;
        }
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(start);
        seen[start] = true;
        while let Some(u) = queue.pop_front() {
            bfs.push(u);
            for v in g.neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    queue.push_back(v);
                }
            }
        }
    }
    let candidates = [identity, bfs, min_degree_order(g)];
    let mut best: Option<(usize, TreeDecomposition)> = None;
    for order in candidates {
        let pd = path_decomposition_from_layout(g, &order);
        let w = pd.width();
        if best.as_ref().map(|(bw, _)| w < *bw).unwrap_or(true) {
            best = Some((w, pd));
        }
    }
    best.expect("at least one layout ran")
}

/// Exact pathwidth by dynamic programming over vertex subsets (vertex
/// separation formulation). Panics above 22 vertices.
pub fn pathwidth_exact(g: &Graph) -> usize {
    let n = g.vertex_count();
    assert!(n <= 22, "exact pathwidth limited to 22 vertices");
    if n == 0 {
        return 0;
    }
    let full: u32 = (1u32 << n) - 1;
    // boundary(S) = vertices in S with a neighbor outside S.
    let boundary = |s: u32| -> usize {
        let mut count = 0;
        let mut bits = s;
        while bits != 0 {
            let v = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if g.neighbors(v).any(|u| s & (1u32 << u) == 0) {
                count += 1;
            }
        }
        count
    };
    // dp[S] = minimal over layouts placing S first of the maximum boundary
    // size over all prefixes; forward DP extending prefixes one vertex at a
    // time. `S | v > S`, so numeric order finalizes every predecessor first.
    let mut dp: Vec<usize> = vec![usize::MAX; (full as usize) + 1];
    dp[0] = 0;
    for s in 0..=full {
        if dp[s as usize] == usize::MAX {
            continue;
        }
        let cost_so_far = dp[s as usize];
        for v in 0..n {
            let bit = 1u32 << v;
            if s & bit != 0 {
                continue;
            }
            let next = s | bit;
            let cost = cost_so_far.max(boundary(next));
            if cost < dp[next as usize] {
                dp[next as usize] = cost;
            }
        }
    }
    // The vertex separation equals the pathwidth.
    dp[full as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn elimination_decomposition_is_valid_on_small_graphs() {
        for g in [
            generators::path_graph(6),
            generators::cycle_graph(6),
            generators::complete_graph(5),
            generators::grid_graph(3, 3),
            generators::random_graph(10, 0.4, 1),
        ] {
            let order = min_degree_order(&g);
            let td = decomposition_from_elimination_order(&g, &order);
            assert!(td.validate(&g).is_ok(), "invalid decomposition");
        }
    }

    #[test]
    fn heuristics_match_known_treewidths() {
        // Path: tw 1, cycle: tw 2, K5: tw 4 — min-fill is exact on these.
        assert_eq!(treewidth_upper_bound(&generators::path_graph(8)).0, 1);
        assert_eq!(treewidth_upper_bound(&generators::cycle_graph(8)).0, 2);
        assert_eq!(treewidth_upper_bound(&generators::complete_graph(5)).0, 4);
        assert_eq!(treewidth_upper_bound(&generators::star_graph(7)).0, 1);
    }

    #[test]
    fn exact_treewidth_small_graphs() {
        assert_eq!(treewidth_exact(&generators::path_graph(5)), 1);
        assert_eq!(treewidth_exact(&generators::cycle_graph(5)), 2);
        assert_eq!(treewidth_exact(&generators::complete_graph(6)), 5);
        assert_eq!(treewidth_exact(&generators::grid_graph(3, 3)), 3);
        assert_eq!(treewidth_exact(&generators::grid_graph(2, 5)), 2);
        assert_eq!(
            treewidth_exact(&generators::complete_bipartite_graph(3, 3)),
            3
        );
        assert_eq!(treewidth_exact(&generators::star_graph(6)), 1);
    }

    #[test]
    fn exact_treewidth_of_k_tree_is_k() {
        let (g, _) = generators::k_tree(9, 3, 11);
        assert_eq!(treewidth_exact(&g), 3);
    }

    #[test]
    fn heuristic_upper_bound_dominates_exact() {
        for seed in 0..5 {
            let g = generators::random_graph(10, 0.35, seed);
            let exact = treewidth_exact(&g);
            let (ub, td) = treewidth_upper_bound(&g);
            assert!(ub >= exact);
            assert!(td.validate(&g).is_ok());
            assert!(degeneracy(&g) <= exact);
        }
    }

    #[test]
    fn degeneracy_examples() {
        assert_eq!(degeneracy(&generators::path_graph(5)), 1);
        assert_eq!(degeneracy(&generators::complete_graph(5)), 4);
        assert_eq!(degeneracy(&generators::grid_graph(3, 3)), 2);
    }

    #[test]
    fn path_decomposition_from_layout_is_valid() {
        let g = generators::grid_graph(3, 5);
        let order: Vec<usize> = (0..g.vertex_count()).collect();
        let pd = path_decomposition_from_layout(&g, &order);
        assert!(pd.is_path());
        assert!(pd.validate(&g).is_ok());
        // Row-major layout of an r x c grid has vertex separation about c
        // (here 5), so bags contain at most c + 1 vertices.
        assert!(pd.width() <= 5 + 1);
    }

    #[test]
    fn pathwidth_examples() {
        assert_eq!(pathwidth_exact(&generators::path_graph(6)), 1);
        assert_eq!(pathwidth_exact(&generators::cycle_graph(6)), 2);
        assert_eq!(pathwidth_exact(&generators::complete_graph(5)), 4);
        // Caterpillars have pathwidth 1.
        assert_eq!(pathwidth_exact(&generators::caterpillar(4, 2)), 1);
        // Complete binary tree of height 3 has pathwidth 2.
        assert_eq!(pathwidth_exact(&generators::balanced_binary_tree(15)), 2);
    }

    #[test]
    fn pathwidth_upper_bound_dominates_exact() {
        for seed in 0..4 {
            let g = generators::random_graph(9, 0.3, seed + 100);
            let exact = pathwidth_exact(&g);
            let (ub, pd) = pathwidth_upper_bound(&g);
            assert!(ub >= exact);
            assert!(pd.validate(&g).is_ok());
            assert!(pd.is_path());
        }
    }

    #[test]
    fn pathwidth_at_least_treewidth() {
        for seed in 0..4 {
            let g = generators::random_graph(9, 0.35, seed + 7);
            assert!(pathwidth_exact(&g) >= treewidth_exact(&g));
        }
    }
}
