//! Undirected simple graphs.
//!
//! Following Section 2 of the paper, a graph is undirected, simple and
//! unlabeled. Vertices are dense indices `0..n`; the Gaifman graph of a
//! relational instance (built in `treelineage-instance`) maps domain elements
//! to such indices. Unlike the paper's active-domain convention we allow
//! isolated vertices at this level — callers that need the active-domain view
//! can drop them — because decompositions and generators are simpler to state
//! over a fixed vertex range.

use std::collections::{BTreeSet, VecDeque};

/// A vertex identifier: a dense index in `0..Graph::vertex_count()`.
pub type Vertex = usize;

/// An undirected edge, stored with `min <= max` endpoints.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Edge {
    /// The smaller endpoint.
    pub u: Vertex,
    /// The larger endpoint.
    pub v: Vertex,
}

impl Edge {
    /// Creates an edge, normalizing endpoint order. Panics on self-loops.
    pub fn new(a: Vertex, b: Vertex) -> Self {
        assert!(a != b, "graphs are simple: no self-loops");
        Edge {
            u: a.min(b),
            v: a.max(b),
        }
    }

    /// Returns the endpoint different from `x`; panics if `x` is not an endpoint.
    pub fn other(&self, x: Vertex) -> Vertex {
        if x == self.u {
            self.v
        } else if x == self.v {
            self.u
        } else {
            panic!("vertex {x} is not an endpoint of {self:?}");
        }
    }
}

/// An undirected simple graph on vertices `0..n`.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    adjacency: Vec<BTreeSet<Vertex>>,
    edge_count: usize,
}

impl Graph {
    /// Creates a graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        Graph {
            adjacency: vec![BTreeSet::new(); n],
            edge_count: 0,
        }
    }

    /// Number of vertices (including isolated ones).
    pub fn vertex_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Iterator over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = Vertex> + '_ {
        0..self.vertex_count()
    }

    /// Adds a vertex and returns its index.
    pub fn add_vertex(&mut self) -> Vertex {
        self.adjacency.push(BTreeSet::new());
        self.adjacency.len() - 1
    }

    /// Ensures the graph has at least `n` vertices.
    pub fn ensure_vertices(&mut self, n: usize) {
        while self.adjacency.len() < n {
            self.adjacency.push(BTreeSet::new());
        }
    }

    /// Adds an undirected edge; returns `true` if it was not already present.
    /// Panics on self-loops or out-of-range vertices.
    pub fn add_edge(&mut self, a: Vertex, b: Vertex) -> bool {
        assert!(a != b, "graphs are simple: no self-loops");
        assert!(
            a < self.vertex_count() && b < self.vertex_count(),
            "vertex out of range"
        );
        let inserted = self.adjacency[a].insert(b);
        self.adjacency[b].insert(a);
        if inserted {
            self.edge_count += 1;
        }
        inserted
    }

    /// Returns `true` if `a` and `b` are adjacent.
    pub fn has_edge(&self, a: Vertex, b: Vertex) -> bool {
        self.adjacency.get(a).is_some_and(|s| s.contains(&b))
    }

    /// Neighbors of `v`, in increasing order.
    pub fn neighbors(&self, v: Vertex) -> impl Iterator<Item = Vertex> + '_ {
        self.adjacency[v].iter().copied()
    }

    /// The set of neighbors of `v`.
    pub fn neighbor_set(&self, v: Vertex) -> &BTreeSet<Vertex> {
        &self.adjacency[v]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: Vertex) -> usize {
        self.adjacency[v].len()
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.adjacency.iter().map(|s| s.len()).max().unwrap_or(0)
    }

    /// Returns `true` if every vertex has degree exactly `k`
    /// (the paper's "k-regular").
    pub fn is_k_regular(&self, k: usize) -> bool {
        self.adjacency.iter().all(|s| s.len() == k)
    }

    /// All edges, each reported once with `u < v`, in lexicographic order.
    pub fn edges(&self) -> Vec<Edge> {
        let mut out = Vec::with_capacity(self.edge_count);
        for u in self.vertices() {
            for &v in &self.adjacency[u] {
                if u < v {
                    out.push(Edge { u, v });
                }
            }
        }
        out
    }

    /// Breadth-first search from `start`; returns the set of reachable vertices.
    fn reachable_from(&self, start: Vertex) -> BTreeSet<Vertex> {
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::new();
        seen.insert(start);
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &v in &self.adjacency[u] {
                if seen.insert(v) {
                    queue.push_back(v);
                }
            }
        }
        seen
    }

    /// Connected components, as sorted vertex lists; isolated vertices form
    /// singleton components.
    fn connected_components(&self) -> Vec<Vec<Vertex>> {
        let mut seen = vec![false; self.vertex_count()];
        let mut components = Vec::new();
        for v in self.vertices() {
            if seen[v] {
                continue;
            }
            let comp = self.reachable_from(v);
            for &u in &comp {
                seen[u] = true;
            }
            components.push(comp.into_iter().collect());
        }
        components
    }

    /// Returns `true` if the graph is connected (the empty graph and the
    /// single-vertex graph count as connected).
    pub fn is_connected(&self) -> bool {
        self.connected_components().len() <= 1
    }

    /// Returns `true` if the graph contains a cycle.
    pub fn has_cycle(&self) -> bool {
        // A forest has exactly n - (#components) edges.
        let components = self.connected_components().len();
        self.edge_count > self.vertex_count().saturating_sub(components)
    }

    /// Returns `true` if the graph is a tree in the paper's sense: acyclic and
    /// connected.
    pub fn is_tree(&self) -> bool {
        self.is_connected() && !self.has_cycle()
    }

    /// Disjoint union of two graphs: vertices of `other` are shifted by
    /// `self.vertex_count()`.
    pub fn disjoint_union(&self, other: &Graph) -> Graph {
        let offset = self.vertex_count();
        let mut out = self.clone();
        out.ensure_vertices(offset + other.vertex_count());
        for e in other.edges() {
            out.add_edge(e.u + offset, e.v + offset);
        }
        out
    }

    /// Checks whether `edges` forms a matching: no two selected edges share an
    /// endpoint. (The hard problem behind Theorem 4.2 counts such subsets.)
    pub fn is_matching(&self, edges: &[Edge]) -> bool {
        let mut used = vec![false; self.vertex_count()];
        for e in edges {
            if used[e.u] || used[e.v] {
                return false;
            }
            used[e.u] = true;
            used[e.v] = true;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 2);
        g
    }

    #[test]
    fn edge_normalization_and_incidence() {
        let e = Edge::new(5, 2);
        assert_eq!((e.u, e.v), (2, 5));
        assert_eq!(e.other(2), 5);
        assert_eq!(e.other(5), 2);
    }

    #[test]
    #[should_panic]
    fn self_loop_panics() {
        let mut g = Graph::new(2);
        g.add_edge(1, 1);
    }

    #[test]
    fn basic_construction() {
        let g = triangle();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.max_degree(), 2);
        assert!(g.is_k_regular(2));
    }

    #[test]
    fn duplicate_edges_are_ignored() {
        let mut g = Graph::new(2);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(1, 0));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn connectivity_and_components() {
        let mut g = Graph::new(5);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(3, 4);
        assert!(!g.is_connected());
        let comps = g.connected_components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![0, 1, 2]);
        assert_eq!(comps[1], vec![3, 4]);
    }

    #[test]
    fn cycles_and_trees() {
        let mut path = Graph::new(4);
        path.add_edge(0, 1);
        path.add_edge(1, 2);
        path.add_edge(2, 3);
        assert!(!path.has_cycle());
        assert!(path.is_tree());
        assert!(triangle().has_cycle());
        assert!(!triangle().is_tree());
    }

    #[test]
    fn disjoint_union_shifts() {
        let g = triangle().disjoint_union(&triangle());
        assert_eq!(g.vertex_count(), 6);
        assert_eq!(g.edge_count(), 6);
        assert!(g.has_edge(3, 4));
        assert!(!g.has_edge(2, 3));
    }

    #[test]
    fn matching_check() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        assert!(g.is_matching(&[]));
        assert!(g.is_matching(&[Edge::new(0, 1), Edge::new(2, 3)]));
        assert!(!g.is_matching(&[Edge::new(0, 1), Edge::new(1, 2)]));
    }
}
