//! Exact counting of combinatorial structures used as reduction sources.
//!
//! * **Matchings** (edge subsets with no two incident edges): counting them is
//!   #P-hard on 3-regular planar graphs \[52\], and Theorem 4.2 reduces from
//!   this problem. We provide a brute-force counter (oracle for tests) and a
//!   linear-time dynamic program over a tree decomposition (the tractable
//!   counterpart on treelike inputs, and the reference value for the
//!   probability-evaluation reduction experiment D-4.2b).
//! * **Independent sets**, counted by the same kind of DP; used as an extra
//!   MSO-definable match-counting workload (Theorem 5.7 experiments).
//! * **Hamiltonian cycles**, counted by brute force on small graphs
//!   (Theorem 5.7 reduces from counting them on planar 3-regular graphs
//!   \[41\]).

use crate::decomposition::TreeDecomposition;
use crate::graph::{Graph, Vertex};
use crate::nice::{NiceNode, NiceTreeDecomposition};
use crate::treewidth;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use treelineage_num::BigUint;

/// Counts all matchings of `g` (including the empty matching) by brute-force
/// enumeration of edge subsets. Exponential; panics above 25 edges.
pub fn count_matchings_bruteforce(g: &Graph) -> BigUint {
    let edges = g.edges();
    assert!(
        edges.len() <= 25,
        "brute-force matching count limited to 25 edges"
    );
    let mut count = 0u64;
    for mask in 0u64..(1u64 << edges.len()) {
        let chosen: Vec<_> = edges
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, e)| *e)
            .collect();
        if g.is_matching(&chosen) {
            count += 1;
        }
    }
    BigUint::from_u64(count)
}

/// Counts all matchings of `g` by dynamic programming over a (nice) tree
/// decomposition: linear in the number of decomposition nodes for fixed
/// width. Works on any graph for which a decomposition can be computed.
pub fn count_matchings(g: &Graph) -> BigUint {
    let (_, td) = treewidth::treewidth_upper_bound(g);
    count_matchings_with_decomposition(g, &td)
}

/// Like [`count_matchings`] but with a caller-provided decomposition.
fn count_matchings_with_decomposition(g: &Graph, td: &TreeDecomposition) -> BigUint {
    let nice = NiceTreeDecomposition::from_tree_decomposition(td);
    // Assign every edge of g to a unique node of the nice decomposition whose
    // bag contains both endpoints (the lowest such node in post-order).
    let order = nice.post_order();
    let mut edge_owner: BTreeMap<(Vertex, Vertex), usize> = BTreeMap::new();
    for &node in &order {
        let bag = nice.bag(node);
        for &u in bag {
            for &v in bag {
                if u < v && g.has_edge(u, v) {
                    edge_owner.entry((u, v)).or_insert(node);
                }
            }
        }
    }
    // DP state at a node: map from "matched subset of the bag" -> number of
    // matchings of the edges assigned in the subtree, where exactly the
    // vertices in the subset are matched among bag vertices.
    // Represent bag subsets as sorted Vec<Vertex>.
    type State = BTreeMap<Vec<Vertex>, BigUint>;
    let mut states: Vec<State> = vec![State::new(); nice.node_count()];
    for &node in &order {
        let bag = nice.bag(node);
        let state = match nice.node(node) {
            NiceNode::Leaf => {
                let mut s = State::new();
                s.insert(Vec::new(), BigUint::one());
                s
            }
            NiceNode::Introduce { vertex, child } => {
                // The new vertex starts unmatched; then we may use edges
                // assigned to this node that involve it (or not involve it).
                let mut s = State::new();
                for (matched, count) in &states[*child] {
                    s.entry(matched.clone())
                        .and_modify(|c| *c += count)
                        .or_insert_with(|| count.clone());
                }
                let _ = vertex;
                // Process the edges owned by this node.
                apply_owned_edges(g, &edge_owner, node, bag, &mut s);
                s
            }
            NiceNode::Forget { vertex, child } => {
                // Drop the forgotten vertex from the matched subsets (whether
                // it was matched or not no longer matters).
                let mut s = State::new();
                for (matched, count) in &states[*child] {
                    let reduced: Vec<Vertex> =
                        matched.iter().copied().filter(|&v| v != *vertex).collect();
                    s.entry(reduced)
                        .and_modify(|c| *c += count)
                        .or_insert_with(|| count.clone());
                }
                apply_owned_edges(g, &edge_owner, node, bag, &mut s);
                s
            }
            NiceNode::Join { left, right } => {
                // Combine: matched subsets must be disjoint (a bag vertex can
                // be matched in at most one side).
                let mut s = State::new();
                for (ml, cl) in &states[*left] {
                    let ml_set: BTreeSet<Vertex> = ml.iter().copied().collect();
                    for (mr, cr) in &states[*right] {
                        if mr.iter().any(|v| ml_set.contains(v)) {
                            continue;
                        }
                        let mut merged: Vec<Vertex> = ml.iter().chain(mr.iter()).copied().collect();
                        merged.sort_unstable();
                        let prod = cl * cr;
                        s.entry(merged).and_modify(|c| *c += &prod).or_insert(prod);
                    }
                }
                apply_owned_edges(g, &edge_owner, node, bag, &mut s);
                s
            }
        };
        states[node] = state;
    }
    let mut total = BigUint::zero();
    for count in states[nice.root()].values() {
        total += count;
    }
    total
}

/// Extends a matching DP state with the edges assigned to `node`: each such
/// edge may be left out, or added if neither endpoint is already matched.
fn apply_owned_edges(
    g: &Graph,
    edge_owner: &BTreeMap<(Vertex, Vertex), usize>,
    node: usize,
    bag: &BTreeSet<Vertex>,
    state: &mut BTreeMap<Vec<Vertex>, BigUint>,
) {
    let owned: Vec<(Vertex, Vertex)> = bag
        .iter()
        .flat_map(|&u| bag.iter().map(move |&v| (u, v)))
        .filter(|&(u, v)| u < v && g.has_edge(u, v))
        .filter(|key| edge_owner.get(key) == Some(&node))
        .collect();
    for (u, v) in owned {
        let mut additions: Vec<(Vec<Vertex>, BigUint)> = Vec::new();
        for (matched, count) in state.iter() {
            if matched.contains(&u) || matched.contains(&v) {
                continue;
            }
            let mut extended = matched.clone();
            extended.push(u);
            extended.push(v);
            extended.sort_unstable();
            additions.push((extended, count.clone()));
        }
        for (key, count) in additions {
            state
                .entry(key)
                .and_modify(|c| *c += &count)
                .or_insert(count);
        }
    }
}

/// Counts independent sets (including the empty set) by brute force.
/// Panics above 25 vertices.
pub fn count_independent_sets_bruteforce(g: &Graph) -> BigUint {
    let n = g.vertex_count();
    assert!(
        n <= 25,
        "brute-force independent set count limited to 25 vertices"
    );
    let mut count = 0u64;
    'outer: for mask in 0u64..(1u64 << n) {
        for e in g.edges() {
            if mask >> e.u & 1 == 1 && mask >> e.v & 1 == 1 {
                continue 'outer;
            }
        }
        count += 1;
    }
    BigUint::from_u64(count)
}

/// Counts independent sets by DP over a tree decomposition (linear for
/// bounded width).
pub fn count_independent_sets(g: &Graph) -> BigUint {
    let (_, td) = treewidth::treewidth_upper_bound(g);
    let nice = NiceTreeDecomposition::from_tree_decomposition(&td);
    let order = nice.post_order();
    // State: map from "selected subset of the bag" (must be independent
    // within the bag w.r.t. edges seen so far) to count.
    type State = HashMap<Vec<Vertex>, BigUint>;
    let mut states: Vec<State> = vec![State::new(); nice.node_count()];
    for &node in &order {
        let state = match nice.node(node) {
            NiceNode::Leaf => {
                let mut s = State::new();
                s.insert(Vec::new(), BigUint::one());
                s
            }
            NiceNode::Introduce { vertex, child } => {
                let mut s = State::new();
                for (sel, count) in &states[*child] {
                    // Not selecting the new vertex.
                    s.entry(sel.clone())
                        .and_modify(|c| *c += count)
                        .or_insert_with(|| count.clone());
                    // Selecting it, if compatible with the current selection.
                    if sel.iter().all(|&u| !g.has_edge(u, *vertex)) {
                        let mut extended = sel.clone();
                        extended.push(*vertex);
                        extended.sort_unstable();
                        s.entry(extended)
                            .and_modify(|c| *c += count)
                            .or_insert_with(|| count.clone());
                    }
                }
                s
            }
            NiceNode::Forget { vertex, child } => {
                let mut s = State::new();
                for (sel, count) in &states[*child] {
                    let reduced: Vec<Vertex> =
                        sel.iter().copied().filter(|&v| v != *vertex).collect();
                    s.entry(reduced)
                        .and_modify(|c| *c += count)
                        .or_insert_with(|| count.clone());
                }
                s
            }
            NiceNode::Join { left, right } => {
                let mut s = State::new();
                for (sl, cl) in &states[*left] {
                    for (sr, cr) in &states[*right] {
                        if sl == sr {
                            let prod = cl * cr;
                            s.entry(sl.clone())
                                .and_modify(|c| *c += &prod)
                                .or_insert(prod);
                        }
                    }
                }
                s
            }
        };
        states[node] = state;
    }
    let mut total = BigUint::zero();
    for count in states[nice.root()].values() {
        total += count;
    }
    // Vertices that never appear in any bag (isolated vertices) can be freely
    // selected or not: multiply by 2 for each.
    let covered: BTreeSet<Vertex> = (0..nice.node_count())
        .flat_map(|n| nice.bag(n).iter().copied())
        .collect();
    let isolated = g.vertices().filter(|v| !covered.contains(v)).count();
    for _ in 0..isolated {
        total = &total * &BigUint::from_u64(2);
    }
    total
}

/// Counts Hamiltonian cycles of `g` by brute-force permutation search
/// (each cycle counted once, regardless of orientation and starting vertex).
/// Panics above 12 vertices.
pub fn count_hamiltonian_cycles_bruteforce(g: &Graph) -> BigUint {
    let n = g.vertex_count();
    assert!(
        n <= 12,
        "brute-force Hamiltonian cycle count limited to 12 vertices"
    );
    if n < 3 {
        return BigUint::zero();
    }
    // Fix vertex 0 as the start; enumerate permutations of the rest; divide by
    // 2 at the end for the two orientations.
    let rest: Vec<Vertex> = (1..n).collect();
    let mut count = 0u64;
    permute(&rest, &mut Vec::new(), &mut |perm| {
        let mut prev = 0;
        for &v in perm {
            if !g.has_edge(prev, v) {
                return;
            }
            prev = v;
        }
        if g.has_edge(prev, 0) {
            count += 1;
        }
    });
    BigUint::from_u64(count / 2)
}

fn permute(remaining: &[Vertex], prefix: &mut Vec<Vertex>, f: &mut impl FnMut(&[Vertex])) {
    if remaining.is_empty() {
        f(prefix);
        return;
    }
    for i in 0..remaining.len() {
        let mut rest = remaining.to_vec();
        let v = rest.remove(i);
        prefix.push(v);
        permute(&rest, prefix, f);
        prefix.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    #[allow(clippy::needless_range_loop)] // `n` is both the graph size and the index
    fn matchings_of_paths_are_fibonacci() {
        // #matchings(P_n with n vertices) = Fibonacci(n+1) with F(1)=F(2)=1.
        let expected = [1u64, 1, 2, 3, 5, 8, 13, 21, 34];
        for n in 1..=8 {
            let g = generators::path_graph(n);
            assert_eq!(
                count_matchings_bruteforce(&g).to_u64(),
                Some(expected[n]),
                "path with {n} vertices"
            );
            assert_eq!(count_matchings(&g).to_u64(), Some(expected[n]));
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // `n` is both the graph size and the index
    fn matchings_of_cycles() {
        // #matchings(C_n) = Lucas number L_n.
        let lucas = [0u64, 0, 0, 4, 7, 11, 18, 29, 47];
        for n in 3..=8 {
            let g = generators::cycle_graph(n);
            assert_eq!(count_matchings_bruteforce(&g).to_u64(), Some(lucas[n]));
            assert_eq!(count_matchings(&g).to_u64(), Some(lucas[n]));
        }
    }

    #[test]
    fn matchings_dp_matches_bruteforce_on_random_graphs() {
        for seed in 0..6 {
            let g = generators::random_graph(8, 0.4, seed);
            if g.edge_count() > 25 {
                continue;
            }
            assert_eq!(
                count_matchings(&g).to_u64(),
                count_matchings_bruteforce(&g).to_u64(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn matchings_dp_on_three_regular_planar_graphs() {
        for n in 3..=6 {
            let g = generators::circular_ladder_graph(n);
            if g.edge_count() <= 25 {
                assert_eq!(
                    count_matchings(&g).to_u64(),
                    count_matchings_bruteforce(&g).to_u64()
                );
            }
        }
    }

    #[test]
    fn matchings_dp_handles_larger_treelike_graphs() {
        // A long path is treewidth 1; the DP handles sizes far beyond brute force.
        let g = generators::path_graph(60);
        let count = count_matchings(&g);
        // Fibonacci(61): known value.
        assert_eq!(count.to_decimal_string(), "2504730781961");
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // `n` is both the graph size and the index
    fn independent_sets_of_paths() {
        // #IS(P_n) = Fibonacci(n+2).
        let expected = [1u64, 2, 3, 5, 8, 13, 21, 34, 55];
        for n in 1..=8 {
            let g = generators::path_graph(n);
            assert_eq!(
                count_independent_sets_bruteforce(&g).to_u64(),
                Some(expected[n]),
            );
            assert_eq!(count_independent_sets(&g).to_u64(), Some(expected[n]));
        }
    }

    #[test]
    fn independent_sets_dp_matches_bruteforce() {
        for seed in 0..5 {
            let g = generators::random_graph(9, 0.35, seed + 33);
            assert_eq!(
                count_independent_sets(&g).to_u64(),
                count_independent_sets_bruteforce(&g).to_u64()
            );
        }
    }

    #[test]
    fn hamiltonian_cycles_of_small_graphs() {
        assert_eq!(
            count_hamiltonian_cycles_bruteforce(&generators::cycle_graph(5)).to_u64(),
            Some(1)
        );
        assert_eq!(
            count_hamiltonian_cycles_bruteforce(&generators::complete_graph(4)).to_u64(),
            Some(3)
        );
        assert_eq!(
            count_hamiltonian_cycles_bruteforce(&generators::complete_graph(5)).to_u64(),
            Some(12)
        );
        assert_eq!(
            count_hamiltonian_cycles_bruteforce(&generators::path_graph(5)).to_u64(),
            Some(0)
        );
        // The triangular prism (circular ladder with 3 rungs) has 3
        // Hamiltonian cycles.
        assert_eq!(
            count_hamiltonian_cycles_bruteforce(&generators::circular_ladder_graph(3)).to_u64(),
            Some(3)
        );
    }
}
