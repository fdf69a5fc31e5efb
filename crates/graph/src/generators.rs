//! Graph generators for the instance families used throughout the paper.
//!
//! The experiments need bounded-treewidth families (paths, trees, k-trees and
//! their partial subgraphs), unbounded-treewidth families (grids, cliques,
//! complete bipartite graphs), planar 3-regular graphs (Sections 4 and 5
//! reduce from hard problems on those), and subdivisions (the hard queries
//! must be invariant under subdivision).

use crate::graph::{Graph, Vertex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Path graph `P_n` on `n` vertices (`n - 1` edges). Treewidth 1 for `n >= 2`.
pub fn path_graph(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 1..n {
        g.add_edge(i - 1, i);
    }
    g
}

/// Cycle graph `C_n` on `n >= 3` vertices. Treewidth 2.
pub fn cycle_graph(n: usize) -> Graph {
    assert!(n >= 3, "a cycle needs at least 3 vertices");
    let mut g = path_graph(n);
    g.add_edge(n - 1, 0);
    g
}

/// Star graph: one center (vertex 0) joined to `leaves` leaves. Treewidth 1.
pub fn star_graph(leaves: usize) -> Graph {
    let mut g = Graph::new(leaves + 1);
    for i in 1..=leaves {
        g.add_edge(0, i);
    }
    g
}

/// Complete graph `K_n`. Treewidth `n - 1`.
pub fn complete_graph(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 0..n {
        for j in i + 1..n {
            g.add_edge(i, j);
        }
    }
    g
}

/// Complete bipartite graph `K_{a,b}` with parts `0..a` and `a..a+b`.
/// Treewidth `min(a, b)`. Proposition 8.9 builds its easy instance family
/// from complete bipartite graphs.
pub fn complete_bipartite_graph(a: usize, b: usize) -> Graph {
    let mut g = Graph::new(a + b);
    for i in 0..a {
        for j in 0..b {
            g.add_edge(i, a + j);
        }
    }
    g
}

/// The `rows x cols` grid graph. Treewidth `min(rows, cols)`; the canonical
/// unbounded-treewidth planar family (Sections 4, 5, 8).
pub fn grid_graph(rows: usize, cols: usize) -> Graph {
    grid_graph_with_coords(rows, cols).0
}

/// Like [`grid_graph`], also returning the (row, column) coordinates of every
/// vertex. Vertex `r * cols + c` sits at row `r`, column `c`.
pub fn grid_graph_with_coords(rows: usize, cols: usize) -> (Graph, Vec<(usize, usize)>) {
    let mut g = Graph::new(rows * cols);
    let mut coords = Vec::with_capacity(rows * cols);
    let idx = |r: usize, c: usize| r * cols + c;
    for r in 0..rows {
        for c in 0..cols {
            coords.push((r, c));
            if c + 1 < cols {
                g.add_edge(idx(r, c), idx(r, c + 1));
            }
            if r + 1 < rows {
                g.add_edge(idx(r, c), idx(r + 1, c));
            }
        }
    }
    (g, coords)
}

/// A balanced binary tree with `n` vertices (vertex `i` has children `2i+1`,
/// `2i+2`). Treewidth 1.
pub fn balanced_binary_tree(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 1..n {
        g.add_edge(i, (i - 1) / 2);
    }
    g
}

/// A uniformly random labelled tree on `n` vertices (via a random Prüfer-like
/// attachment: vertex `i` attaches to a uniformly random earlier vertex).
pub fn random_tree(n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        g.add_edge(i, parent);
    }
    g
}

/// A `k`-tree on `n >= k + 1` vertices: start from `K_{k+1}` and repeatedly
/// attach a new vertex to a random existing `k`-clique. Treewidth exactly `k`.
/// Returns the graph together with, for each vertex `v >= k + 1`, the clique
/// it was attached to (useful to build a width-`k` tree decomposition
/// directly).
pub fn k_tree(n: usize, k: usize, seed: u64) -> (Graph, Vec<Vec<Vertex>>) {
    assert!(n > k, "a k-tree needs at least k+1 vertices");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = complete_graph(k + 1);
    g.ensure_vertices(n);
    // All k-cliques we may attach to; start with the k+1 subsets of the base.
    let mut cliques: Vec<Vec<Vertex>> = (0..=k)
        .map(|skip| (0..=k).filter(|&x| x != skip).collect())
        .collect();
    let mut attachments = Vec::with_capacity(n.saturating_sub(k + 1));
    for v in (k + 1)..n {
        let clique = cliques[rng.gen_range(0..cliques.len())].clone();
        for &u in &clique {
            g.add_edge(v, u);
        }
        // New k-cliques: v together with each (k-1)-subset of the chosen clique.
        for skip in 0..clique.len() {
            let mut c: Vec<Vertex> = clique
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != skip)
                .map(|(_, &u)| u)
                .collect();
            c.push(v);
            cliques.push(c);
        }
        attachments.push(clique);
    }
    (g, attachments)
}

/// A random partial `k`-tree: a `k`-tree with each edge kept independently
/// with probability `keep_probability`. Treewidth at most `k`; the canonical
/// bounded-treewidth benchmark family.
pub fn random_partial_k_tree(n: usize, k: usize, keep_probability: f64, seed: u64) -> Graph {
    let (full, _) = k_tree(n, k, seed);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x9E3779B97F4A7C15));
    let mut g = Graph::new(n);
    for e in full.edges() {
        if rng.gen_bool(keep_probability) {
            g.add_edge(e.u, e.v);
        }
    }
    g
}

/// The ladder graph `L_n`: two paths of length `n` joined by rungs. Planar,
/// 2-/3-regular internally, treewidth 2. Vertex `2i` is on the top rail,
/// `2i + 1` on the bottom rail.
fn ladder_graph(n: usize) -> Graph {
    assert!(n >= 1);
    let mut g = Graph::new(2 * n);
    for i in 0..n {
        g.add_edge(2 * i, 2 * i + 1);
        if i + 1 < n {
            g.add_edge(2 * i, 2 * (i + 1));
            g.add_edge(2 * i + 1, 2 * (i + 1) + 1);
        }
    }
    g
}

/// The circular ladder (prism) graph `CL_n` for `n >= 3`: a ladder closed into
/// a cycle. It is 3-regular and planar — the family of hard inputs for
/// matching counting in Theorem 4.2 (\[52\] shows #Matchings is #P-hard on
/// 3-regular planar graphs).
pub fn circular_ladder_graph(n: usize) -> Graph {
    assert!(n >= 3, "a prism needs at least 3 rungs");
    let mut g = ladder_graph(n);
    g.add_edge(2 * (n - 1), 0);
    g.add_edge(2 * (n - 1) + 1, 1);
    g
}

/// The Möbius–Kantor-style ladder: like the circular ladder but with the
/// closing edges crossed. 3-regular (not planar for all n); used to vary the
/// matching-counting inputs.
pub fn moebius_ladder_graph(n: usize) -> Graph {
    assert!(n >= 3);
    let mut g = ladder_graph(n);
    g.add_edge(2 * (n - 1), 1);
    g.add_edge(2 * (n - 1) + 1, 0);
    g
}

/// Subdivision of a graph: replaces every edge by a simple path with
/// `extra_per_edge` fresh internal vertices (so `extra_per_edge = 0` returns
/// an isomorphic copy). Definitions 4.3 / Lemma 5.3 need hard queries to be
/// invariant under subdivision.
pub fn subdivide(g: &Graph, extra_per_edge: usize) -> Graph {
    let mut out = Graph::new(g.vertex_count());
    for e in g.edges() {
        if extra_per_edge == 0 {
            out.add_edge(e.u, e.v);
            continue;
        }
        let mut prev = e.u;
        for _ in 0..extra_per_edge {
            let mid = out.add_vertex();
            out.add_edge(prev, mid);
            prev = mid;
        }
        out.add_edge(prev, e.v);
    }
    out
}

/// A random graph in the Erdős–Rényi `G(n, p)` model (used to produce
/// arbitrary-treewidth instances for the "any instance" rows of Table 2).
pub fn random_graph(n: usize, p: f64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    for i in 0..n {
        for j in i + 1..n {
            if rng.gen_bool(p) {
                g.add_edge(i, j);
            }
        }
    }
    g
}

/// A caterpillar tree: a path of `spine` vertices, each with `legs` pendant
/// leaves. Pathwidth 1; used for the bounded-pathwidth experiments.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    let mut g = path_graph(spine);
    for s in 0..spine {
        for _ in 0..legs {
            let leaf = g.add_vertex();
            g.add_edge(s, leaf);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_and_cycle() {
        let p = path_graph(5);
        assert_eq!(p.edge_count(), 4);
        assert!(p.is_tree());
        let c = cycle_graph(5);
        assert_eq!(c.edge_count(), 5);
        assert!(c.has_cycle());
        assert!(c.is_k_regular(2));
    }

    #[test]
    fn star_and_complete() {
        let s = star_graph(4);
        assert_eq!(s.degree(0), 4);
        assert!(s.is_tree());
        let k = complete_graph(6);
        assert_eq!(k.edge_count(), 15);
        assert!(k.is_k_regular(5));
    }

    #[test]
    fn complete_bipartite() {
        let g = complete_bipartite_graph(3, 4);
        assert_eq!(g.edge_count(), 12);
        assert!(!g.has_edge(0, 1));
        assert!(g.has_edge(0, 3));
        for i in 0..3 {
            assert_eq!(g.degree(i), 4);
        }
        for j in 3..7 {
            assert_eq!(g.degree(j), 3);
        }
    }

    #[test]
    fn grid_structure() {
        let (g, coords) = grid_graph_with_coords(3, 4);
        assert_eq!(g.vertex_count(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 2 * 4); // horizontal + vertical
        assert_eq!(coords[5], (1, 1));
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(0, 4));
        assert!(!g.has_edge(3, 4)); // row wrap-around must not exist
    }

    #[test]
    fn trees_are_trees() {
        assert!(balanced_binary_tree(15).is_tree());
        for seed in 0..5 {
            let t = random_tree(20, seed);
            assert!(t.is_tree());
            assert_eq!(t.edge_count(), 19);
        }
    }

    #[test]
    fn k_tree_properties() {
        let (g, attachments) = k_tree(12, 3, 7);
        assert_eq!(attachments.len(), 12 - 4);
        // Every vertex beyond the base clique has degree >= k.
        for v in 4..12 {
            assert!(g.degree(v) >= 3);
        }
        // Each attachment clique is indeed a clique in the graph.
        for clique in &attachments {
            assert_eq!(clique.len(), 3);
            for i in 0..clique.len() {
                for j in i + 1..clique.len() {
                    assert!(g.has_edge(clique[i], clique[j]));
                }
            }
        }
    }

    #[test]
    fn partial_k_tree_is_subgraph() {
        let g = random_partial_k_tree(30, 2, 0.7, 3);
        assert_eq!(g.vertex_count(), 30);
        let (full, _) = k_tree(30, 2, 3);
        for e in g.edges() {
            assert!(full.has_edge(e.u, e.v));
        }
    }

    #[test]
    fn ladders_and_prisms() {
        let l = ladder_graph(4);
        assert_eq!(l.vertex_count(), 8);
        assert_eq!(l.edge_count(), 4 + 2 * 3);
        let p = circular_ladder_graph(5);
        assert!(p.is_k_regular(3));
        assert_eq!(p.vertex_count(), 10);
        assert_eq!(p.edge_count(), 15);
        let m = moebius_ladder_graph(5);
        assert!(m.is_k_regular(3));
    }

    #[test]
    fn subdivision_preserves_structure() {
        let g = cycle_graph(4);
        let s = subdivide(&g, 2);
        assert_eq!(s.vertex_count(), 4 + 2 * 4);
        assert_eq!(s.edge_count(), 3 * 4);
        assert!(s.is_k_regular(2)); // a subdivided cycle is a longer cycle
        assert!(s.has_cycle());
        let same = subdivide(&g, 0);
        assert_eq!(same.edge_count(), g.edge_count());
    }

    #[test]
    fn random_graph_seeded_is_deterministic() {
        let a = random_graph(15, 0.3, 9);
        let b = random_graph(15, 0.3, 9);
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn caterpillar_structure() {
        let g = caterpillar(4, 2);
        assert_eq!(g.vertex_count(), 4 + 8);
        assert!(g.is_tree());
        assert_eq!(g.degree(0), 3); // one path neighbor + two legs
    }
}
