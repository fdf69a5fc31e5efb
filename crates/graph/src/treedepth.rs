//! Tree-depth and elimination forests (Definition 9.1 of the paper).
//!
//! An elimination forest of a graph `G` is a forest `F` on the vertices of
//! `G` such that every edge of `G` connects an ancestor–descendant pair
//! in `F`; the tree-depth of `G` is the minimum height of such a forest.
//! Section 9 shows that unfoldings of ranked instances under inversion-free
//! UCQs have tree-depth at most `arity(σ)`, hence bounded pathwidth and
//! treewidth (pathwidth ≤ tree-depth − 1, \[5\] / Lemma 11 as cited).

use crate::graph::{Graph, Vertex};
use std::collections::BTreeSet;

/// A rooted forest on the vertices of a graph, represented by parent pointers
/// (`None` for roots).
#[derive(Clone, Debug)]
pub struct EliminationForest {
    parent: Vec<Option<Vertex>>,
}

impl EliminationForest {
    /// Builds a forest from parent pointers. Panics if the pointers contain a
    /// cycle.
    pub fn new(parent: Vec<Option<Vertex>>) -> Self {
        let forest = EliminationForest { parent };
        for v in 0..forest.parent.len() {
            // Walking to the root must terminate.
            let mut seen = BTreeSet::new();
            let mut cur = v;
            while let Some(p) = forest.parent[cur] {
                assert!(seen.insert(cur), "cycle in elimination forest");
                cur = p;
            }
        }
        forest
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.parent.len()
    }

    /// The parent of `v`, or `None` if `v` is a root.
    pub fn parent(&self, v: Vertex) -> Option<Vertex> {
        self.parent[v]
    }

    /// Depth of `v`: number of vertices on the path from `v` to its root
    /// (so roots have depth 1).
    pub fn depth(&self, v: Vertex) -> usize {
        let mut d = 1;
        let mut cur = v;
        while let Some(p) = self.parent[cur] {
            d += 1;
            cur = p;
        }
        d
    }

    /// Height of the forest: maximum depth of any vertex (0 for the empty forest).
    pub fn height(&self) -> usize {
        (0..self.parent.len())
            .map(|v| self.depth(v))
            .max()
            .unwrap_or(0)
    }

    /// Returns `true` if `a` is an ancestor of `b` or vice versa (or `a == b`).
    pub fn related(&self, a: Vertex, b: Vertex) -> bool {
        self.is_ancestor(a, b) || self.is_ancestor(b, a)
    }

    fn is_ancestor(&self, a: Vertex, b: Vertex) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.parent[cur] {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    /// Checks that this forest is a valid elimination forest of `g`: every
    /// edge of `g` connects an ancestor–descendant pair.
    pub fn validate(&self, g: &Graph) -> Result<(), String> {
        if self.parent.len() < g.vertex_count() {
            return Err("forest smaller than graph".into());
        }
        for e in g.edges() {
            if !self.related(e.u, e.v) {
                return Err(format!(
                    "edge ({}, {}) does not connect ancestor and descendant",
                    e.u, e.v
                ));
            }
        }
        Ok(())
    }

    /// Converts the elimination forest into a path decomposition of width
    /// `height - 1`: one bag per vertex containing the vertex together with
    /// all its ancestors, in depth-first order. Witnesses
    /// `pathwidth(G) <= treedepth(G) - 1`.
    pub fn to_path_bags(&self) -> Vec<BTreeSet<Vertex>> {
        // Depth-first order over the forest.
        let n = self.parent.len();
        let mut children: Vec<Vec<Vertex>> = vec![Vec::new(); n];
        let mut roots = Vec::new();
        for v in 0..n {
            match self.parent[v] {
                Some(p) => children[p].push(v),
                None => roots.push(v),
            }
        }
        let mut bags = Vec::with_capacity(n);
        let mut stack: Vec<Vertex> = roots.into_iter().rev().collect();
        while let Some(v) = stack.pop() {
            let mut bag = BTreeSet::new();
            let mut cur = v;
            bag.insert(cur);
            while let Some(p) = self.parent[cur] {
                bag.insert(p);
                cur = p;
            }
            bags.push(bag);
            for &c in children[v].iter().rev() {
                stack.push(c);
            }
        }
        bags
    }
}

/// Exact tree-depth of `g` by the recursive characterization
/// (`td(G) = 1 + min over v of td(G - v)` for connected `G`, max over
/// components otherwise), with memoization on vertex subsets. Exponential;
/// panics above 20 vertices.
pub fn treedepth_exact(g: &Graph) -> usize {
    let n = g.vertex_count();
    assert!(n <= 20, "exact tree-depth limited to 20 vertices");
    if n == 0 {
        return 0;
    }
    let full: u32 = (1u32 << n) - 1;
    let mut memo: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    td_rec(g, full, &mut memo)
}

fn td_rec(g: &Graph, mask: u32, memo: &mut std::collections::HashMap<u32, usize>) -> usize {
    if mask == 0 {
        return 0;
    }
    if let Some(&v) = memo.get(&mask) {
        return v;
    }
    // Split into connected components within the mask.
    let components = components_in_mask(g, mask);
    let result = if components.len() > 1 {
        components
            .into_iter()
            .map(|c| td_rec(g, c, memo))
            .max()
            .unwrap()
    } else if mask.count_ones() == 1 {
        1
    } else {
        let mut best = usize::MAX;
        let mut bits = mask;
        while bits != 0 {
            let v = bits.trailing_zeros();
            bits &= bits - 1;
            let rest = mask & !(1u32 << v);
            best = best.min(1 + td_rec(g, rest, memo));
            if best == 1 {
                break;
            }
        }
        best
    };
    memo.insert(mask, result);
    result
}

fn components_in_mask(g: &Graph, mask: u32) -> Vec<u32> {
    let mut remaining = mask;
    let mut out = Vec::new();
    while remaining != 0 {
        let start = remaining.trailing_zeros() as usize;
        let mut comp: u32 = 1 << start;
        let mut stack = vec![start];
        while let Some(u) = stack.pop() {
            for v in g.neighbors(u) {
                let bit = 1u32 << v;
                if mask & bit != 0 && comp & bit == 0 {
                    comp |= bit;
                    stack.push(v);
                }
            }
        }
        out.push(comp);
        remaining &= !comp;
    }
    out
}

/// A heuristic elimination forest built by recursively removing a vertex of
/// maximum degree (balanced separator would be better; this is good enough
/// for an upper bound — the experiments that need an exact value use
/// [`treedepth_exact`] or a forest given by construction, e.g. the unfolding
/// of Theorem 9.7 carries its own elimination forest).
#[cfg(test)]
fn treedepth_upper_bound(g: &Graph) -> (usize, EliminationForest) {
    let n = g.vertex_count();
    let mut parent: Vec<Option<Vertex>> = vec![None; n];
    let all: Vec<Vertex> = (0..n).collect();
    build_forest(g, &all, None, &mut parent);
    let forest = EliminationForest::new(parent);
    (forest.height(), forest)
}

#[cfg(test)]
fn build_forest(
    g: &Graph,
    vertices: &[Vertex],
    parent_vertex: Option<Vertex>,
    parent: &mut Vec<Option<Vertex>>,
) {
    if vertices.is_empty() {
        return;
    }
    // Split vertices into connected components of the induced subgraph.
    let vertex_set: BTreeSet<Vertex> = vertices.iter().copied().collect();
    let mut seen: BTreeSet<Vertex> = BTreeSet::new();
    for &start in vertices {
        if seen.contains(&start) {
            continue;
        }
        let mut comp = vec![start];
        let mut stack = vec![start];
        seen.insert(start);
        while let Some(u) = stack.pop() {
            for v in g.neighbors(u) {
                if vertex_set.contains(&v) && seen.insert(v) {
                    comp.push(v);
                    stack.push(v);
                }
            }
        }
        // Pick the vertex of maximum degree within the component as the root.
        let root = *comp
            .iter()
            .max_by_key(|&&v| g.neighbors(v).filter(|u| vertex_set.contains(u)).count())
            .unwrap();
        parent[root] = parent_vertex;
        let rest: Vec<Vertex> = comp.into_iter().filter(|&v| v != root).collect();
        build_forest(g, &rest, Some(root), parent);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::treewidth;

    #[test]
    fn treedepth_of_simple_graphs() {
        assert_eq!(treedepth_exact(&generators::path_graph(1)), 1);
        assert_eq!(treedepth_exact(&generators::path_graph(2)), 2);
        assert_eq!(treedepth_exact(&generators::path_graph(3)), 2);
        assert_eq!(treedepth_exact(&generators::path_graph(4)), 3);
        // td(P_n) = ceil(log2(n+1))
        assert_eq!(treedepth_exact(&generators::path_graph(7)), 3);
        assert_eq!(treedepth_exact(&generators::path_graph(8)), 4);
        assert_eq!(treedepth_exact(&generators::complete_graph(5)), 5);
        assert_eq!(treedepth_exact(&generators::star_graph(6)), 2);
        assert_eq!(treedepth_exact(&generators::cycle_graph(4)), 3);
    }

    #[test]
    fn treedepth_of_disconnected_graph_is_max_of_components() {
        let g = generators::path_graph(4).disjoint_union(&generators::complete_graph(3));
        assert_eq!(treedepth_exact(&g), 3);
    }

    #[test]
    fn heuristic_upper_bound_dominates_exact_and_is_valid() {
        for seed in 0..4 {
            let g = generators::random_graph(10, 0.3, seed + 20);
            let exact = treedepth_exact(&g);
            let (ub, forest) = treedepth_upper_bound(&g);
            assert!(ub >= exact, "ub {ub} < exact {exact}");
            assert!(forest.validate(&g).is_ok());
            assert_eq!(forest.height(), ub);
        }
    }

    #[test]
    fn elimination_forest_validation_detects_bad_forests() {
        let g = generators::path_graph(3); // edges 0-1, 1-2

        // A star rooted at 0 with children 1 and 2: fine for the star graph
        // (edges 0-1, 0-2) but invalid for the path, whose edge (1, 2)
        // connects two siblings.
        let forest = EliminationForest::new(vec![None, Some(0), Some(0)]);
        assert!(forest.validate(&generators::star_graph(2)).is_ok());
        assert!(forest.validate(&g).is_err());
    }

    #[test]
    fn elimination_forest_validation_rejects_unrelated_edge() {
        // Graph with edge (1, 2); forest where 1 and 2 are siblings.
        let mut g = Graph::new(3);
        g.add_edge(1, 2);
        let forest = EliminationForest::new(vec![None, Some(0), Some(0)]);
        assert!(forest.validate(&g).is_err());
    }

    #[test]
    fn forest_height_and_depth() {
        // Chain 0 <- 1 <- 2 (2's parent is 1, 1's parent is 0).
        let f = EliminationForest::new(vec![None, Some(0), Some(1)]);
        assert_eq!(f.depth(0), 1);
        assert_eq!(f.depth(2), 3);
        assert_eq!(f.height(), 3);
        assert!(f.related(0, 2));
        assert!(f.related(2, 1));
        assert!(f.related(1, 2));
    }

    #[test]
    fn path_bags_from_forest_give_valid_path_decomposition() {
        let g = generators::balanced_binary_tree(15);
        let (h, forest) = treedepth_upper_bound(&g);
        let bags = forest.to_path_bags();
        let pd = crate::decomposition::TreeDecomposition::path_from_bags(bags);
        assert!(pd.validate(&g).is_ok());
        assert!(pd.is_path());
        assert!(pd.width() < h);
    }

    #[test]
    fn pathwidth_below_treedepth() {
        for seed in 0..3 {
            let g = generators::random_graph(9, 0.3, seed + 55);
            let td = treedepth_exact(&g);
            let pw = treewidth::pathwidth_exact(&g);
            assert!(pw < td || td == 0, "pw {pw} td {td}");
        }
    }

    #[test]
    #[should_panic]
    fn cyclic_parent_pointers_panic() {
        let _ = EliminationForest::new(vec![Some(1), Some(0)]);
    }
}
