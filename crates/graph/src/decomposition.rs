//! Tree decompositions and path decompositions (Section 2 of the paper).
//!
//! A tree decomposition of a graph `G` is a tree `T` with a labeling of its
//! nodes ("bags") by sets of vertices of `G` such that (i) every edge of `G`
//! is covered by some bag and (ii) the bags containing any fixed vertex form a
//! connected subtree. Its width is the maximum bag size minus one; the
//! treewidth of `G` is the minimum width over decompositions. A path
//! decomposition additionally requires the tree to be a path.

use crate::graph::{Graph, Vertex};
use std::collections::BTreeSet;

/// Index of a bag in a [`TreeDecomposition`].
pub type BagId = usize;

/// Errors reported by [`TreeDecomposition::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecompositionError {
    /// The decomposition has no bags but the graph has vertices.
    Empty,
    /// The bag graph is not a tree (disconnected or cyclic).
    NotATree,
    /// An edge of the graph is not contained in any bag.
    EdgeNotCovered(Vertex, Vertex),
    /// A vertex of the graph appears in no bag.
    VertexNotCovered(Vertex),
    /// The bags containing a vertex do not form a connected subtree.
    VertexBagsDisconnected(Vertex),
    /// A bag mentions a vertex outside the graph's vertex range.
    VertexOutOfRange(Vertex),
}

impl std::fmt::Display for DecompositionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecompositionError::Empty => write!(f, "decomposition has no bags"),
            DecompositionError::NotATree => write!(f, "bag graph is not a tree"),
            DecompositionError::EdgeNotCovered(u, v) => {
                write!(f, "edge ({u},{v}) not covered by any bag")
            }
            DecompositionError::VertexNotCovered(v) => write!(f, "vertex {v} appears in no bag"),
            DecompositionError::VertexBagsDisconnected(v) => {
                write!(f, "bags containing vertex {v} are not connected")
            }
            DecompositionError::VertexOutOfRange(v) => write!(f, "vertex {v} out of range"),
        }
    }
}

impl std::error::Error for DecompositionError {}

/// A tree decomposition: bags plus the (undirected) tree connecting them.
#[derive(Clone, Debug)]
pub struct TreeDecomposition {
    bags: Vec<BTreeSet<Vertex>>,
    /// Adjacency lists of the decomposition tree.
    tree: Vec<Vec<BagId>>,
}

impl TreeDecomposition {
    /// Creates an empty decomposition.
    pub fn new() -> Self {
        TreeDecomposition {
            bags: Vec::new(),
            tree: Vec::new(),
        }
    }

    /// The trivial decomposition with a single bag containing every vertex of
    /// `g` (width `n - 1`); mainly useful in tests.
    pub fn trivial(g: &Graph) -> Self {
        let mut td = TreeDecomposition::new();
        td.add_bag(g.vertices().collect());
        td
    }

    /// Adds a bag and returns its id.
    pub fn add_bag(&mut self, bag: BTreeSet<Vertex>) -> BagId {
        self.bags.push(bag);
        self.tree.push(Vec::new());
        self.bags.len() - 1
    }

    /// Connects two bags in the decomposition tree.
    pub fn add_tree_edge(&mut self, a: BagId, b: BagId) {
        assert!(a != b && a < self.bags.len() && b < self.bags.len());
        if !self.tree[a].contains(&b) {
            self.tree[a].push(b);
            self.tree[b].push(a);
        }
    }

    /// Number of bags.
    pub fn bag_count(&self) -> usize {
        self.bags.len()
    }

    /// The contents of bag `id`.
    pub fn bag(&self, id: BagId) -> &BTreeSet<Vertex> {
        &self.bags[id]
    }

    /// All bags.
    pub fn bags(&self) -> &[BTreeSet<Vertex>] {
        &self.bags
    }

    /// Neighbors of a bag in the decomposition tree.
    pub fn tree_neighbors(&self, id: BagId) -> &[BagId] {
        &self.tree[id]
    }

    /// Width: maximum bag size minus one (`usize::MAX` sentinel never occurs;
    /// the empty decomposition has width 0 by convention).
    pub fn width(&self) -> usize {
        self.bags
            .iter()
            .map(|b| b.len())
            .max()
            .unwrap_or(1)
            .saturating_sub(1)
    }

    /// Returns `true` if the decomposition tree is a path (every bag has at
    /// most two tree neighbors), i.e. this is a path decomposition.
    pub fn is_path(&self) -> bool {
        self.tree.iter().all(|n| n.len() <= 2)
    }

    /// Checks that this is a valid tree decomposition of `g`.
    ///
    /// Every vertex of `g` that occurs in some edge must be covered; isolated
    /// vertices of `g` are not required to appear (matching the paper's
    /// active-domain semantics) but are allowed to.
    ///
    /// Runs in `O(Σ|bag|² + |V| + |E|)` — near-linear for bounded-width
    /// decompositions — so pipelines can afford to validate on every call
    /// (the tree-encoding pipeline validates once per encode, on instances
    /// where a quadratic scan over all bags per vertex/edge would dominate
    /// the whole linear-time construction).
    pub fn validate(&self, g: &Graph) -> Result<(), DecompositionError> {
        if self.bags.is_empty() {
            return if g.edge_count() == 0 {
                Ok(())
            } else {
                Err(DecompositionError::Empty)
            };
        }
        // Range check, vertex coverage, and occurrence counting in one pass.
        let mut occurrence_count = vec![0usize; g.vertex_count()];
        for bag in &self.bags {
            for &v in bag {
                if v >= g.vertex_count() {
                    return Err(DecompositionError::VertexOutOfRange(v));
                }
                occurrence_count[v] += 1;
            }
        }
        // Tree check: connected and acyclic.
        let edge_total: usize = self.tree.iter().map(|n| n.len()).sum::<usize>() / 2;
        if edge_total != self.bags.len() - 1 || !self.bag_graph_connected() {
            return Err(DecompositionError::NotATree);
        }
        // Edge coverage: collect every vertex pair co-occurring in a bag
        // (O(Σ|bag|²)), then check the graph's edges against the set.
        let mut covered: std::collections::HashSet<(Vertex, Vertex)> =
            std::collections::HashSet::new();
        for bag in &self.bags {
            let members: Vec<Vertex> = bag.iter().copied().collect();
            for (i, &u) in members.iter().enumerate() {
                for &v in &members[i + 1..] {
                    covered.insert((u, v)); // bags are sorted: u < v
                }
            }
        }
        for e in g.edges() {
            let key = if e.u < e.v { (e.u, e.v) } else { (e.v, e.u) };
            if !covered.contains(&key) {
                return Err(DecompositionError::EdgeNotCovered(e.u, e.v));
            }
        }
        // Connectivity of occurrence sets: within the decomposition tree, a
        // vertex's occurrence bags induce a forest; they are connected
        // exactly when that forest has `occurrences - 1` induced tree edges.
        let mut induced_edges = vec![0usize; g.vertex_count()];
        for (a, neighbors) in self.tree.iter().enumerate() {
            for &b in neighbors {
                if a < b {
                    for &v in self.bags[a].intersection(&self.bags[b]) {
                        induced_edges[v] += 1;
                    }
                }
            }
        }
        for v in g.vertices() {
            if occurrence_count[v] == 0 {
                if g.degree(v) > 0 {
                    return Err(DecompositionError::VertexNotCovered(v));
                }
                continue;
            }
            if induced_edges[v] + 1 != occurrence_count[v] {
                return Err(DecompositionError::VertexBagsDisconnected(v));
            }
        }
        Ok(())
    }

    fn bag_graph_connected(&self) -> bool {
        if self.bags.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.bags.len()];
        let mut stack = vec![0];
        seen[0] = true;
        let mut count = 1;
        while let Some(b) = stack.pop() {
            for &n in &self.tree[b] {
                if !seen[n] {
                    seen[n] = true;
                    count += 1;
                    stack.push(n);
                }
            }
        }
        count == self.bags.len()
    }

    /// Builds a path decomposition directly from a sequence of bags, chained
    /// in order.
    pub fn path_from_bags(bags: Vec<BTreeSet<Vertex>>) -> Self {
        let mut td = TreeDecomposition::new();
        let mut prev: Option<BagId> = None;
        for bag in bags {
            let id = td.add_bag(bag);
            if let Some(p) = prev {
                td.add_tree_edge(p, id);
            }
            prev = Some(id);
        }
        td
    }
}

impl Default for TreeDecomposition {
    fn default() -> Self {
        TreeDecomposition::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn trivial_decomposition_is_valid() {
        let g = generators::complete_graph(5);
        let td = TreeDecomposition::trivial(&g);
        assert_eq!(td.width(), 4);
        assert!(td.validate(&g).is_ok());
        assert!(td.is_path());
    }

    #[test]
    fn validation_catches_missing_edge() {
        let g = generators::path_graph(3);
        let mut td = TreeDecomposition::new();
        let a = td.add_bag([0, 1].into_iter().collect());
        let b = td.add_bag([2].into_iter().collect());
        td.add_tree_edge(a, b);
        assert_eq!(
            td.validate(&g),
            Err(DecompositionError::EdgeNotCovered(1, 2))
        );
    }

    #[test]
    fn validation_catches_disconnected_occurrences() {
        let g = generators::path_graph(3);
        let mut td = TreeDecomposition::new();
        let a = td.add_bag([0, 1].into_iter().collect());
        let b = td.add_bag([1, 2].into_iter().collect());
        let c = td.add_bag([0].into_iter().collect());
        // 0 occurs in bags a and c, but c hangs off b: a - b - c, so the bags
        // containing 0 are {a, c}, not connected.
        td.add_tree_edge(a, b);
        td.add_tree_edge(b, c);
        assert_eq!(
            td.validate(&g),
            Err(DecompositionError::VertexBagsDisconnected(0))
        );
    }

    #[test]
    fn validation_catches_non_tree() {
        let g = generators::path_graph(2);
        let mut td = TreeDecomposition::new();
        let a = td.add_bag([0, 1].into_iter().collect());
        let b = td.add_bag([0, 1].into_iter().collect());
        let c = td.add_bag([0, 1].into_iter().collect());
        td.add_tree_edge(a, b);
        td.add_tree_edge(b, c);
        td.add_tree_edge(c, a);
        assert_eq!(td.validate(&g), Err(DecompositionError::NotATree));
    }

    #[test]
    fn grid_has_small_width_decomposition_by_columns() {
        // Column-sweep path decomposition of a 3 x 4 grid has width 3.
        let (g, coord) = generators::grid_graph_with_coords(3, 4);
        let mut bags = Vec::new();
        for col in 0..3usize {
            // Bag: column col and column col+1.
            let bag: BTreeSet<Vertex> = coord
                .iter()
                .enumerate()
                .filter(|(_, &(r, c))| {
                    let _ = r;
                    c == col || c == col + 1
                })
                .map(|(v, _)| v)
                .collect();
            bags.push(bag);
        }
        let td = TreeDecomposition::path_from_bags(bags);
        assert!(td.validate(&g).is_ok());
        assert_eq!(td.width(), 5);
    }
}
