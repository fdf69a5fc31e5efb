//! Encodings of graphs and standard instance families as relational
//! instances.
//!
//! The paper's dichotomies quantify over instance *families*; its proofs and
//! counterexamples use a handful of concrete families which we expose here:
//!
//! * graphs encoded on arity-2 signatures (one fact per edge, or the paper's
//!   symmetric encoding with both directions),
//! * **line instances** (Definition 8.4), the probes of the intricacy test,
//! * **S-grids** (the easy family for the non-intricate query
//!   `R(x) ∧ S(x,y) ∧ T(y)`, Section 8.2),
//! * **complete bipartite directed instances** (the easy family for
//!   homomorphism-closed queries, Proposition 8.9),
//! * chain / tree / partial-k-tree shaped instances over arbitrary binary
//!   signatures (the bounded-treewidth workloads of Table 2).

use crate::instance::{Element, Instance};
use crate::signature::{RelationId, Signature};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use treelineage_graph::{generators, Graph};

/// Encodes a graph as an instance over `signature` using `relation` (binary),
/// with one fact per edge, oriented from the smaller to the larger vertex id.
pub fn graph_instance(graph: &Graph, signature: &Signature, relation: RelationId) -> Instance {
    assert_eq!(signature.arity(relation), 2);
    let mut inst = Instance::new(signature.clone());
    for e in graph.edges() {
        inst.add_fact(relation, vec![Element(e.u as u64), Element(e.v as u64)]);
    }
    inst
}

/// One step of a line instance (Definition 8.4): which binary relation labels
/// the edge between consecutive elements, and in which direction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LineStep {
    /// The binary relation of the step's fact.
    pub relation: RelationId,
    /// `true` for `R(a_i, a_{i+1})`, `false` for `R(a_{i+1}, a_i)`.
    pub forward: bool,
}

/// Builds the line instance with elements `a_1, ..., a_{n+1}` (`n` = number of
/// steps) and one binary fact per step as described by `steps`
/// (Definition 8.4).
fn line_instance(signature: &Signature, steps: &[LineStep]) -> Instance {
    let mut inst = Instance::new(signature.clone());
    for (i, step) in steps.iter().enumerate() {
        assert_eq!(
            signature.arity(step.relation),
            2,
            "line steps must be binary"
        );
        let a = Element(i as u64 + 1);
        let b = Element(i as u64 + 2);
        let args = if step.forward { vec![a, b] } else { vec![b, a] };
        inst.add_fact(step.relation, args);
    }
    inst
}

/// Enumerates every line instance with exactly `length` facts over the binary
/// relations of the signature (each step chooses a relation and a direction).
/// There are `(2 · #binary relations)^length` of them; Lemma 8.6 decides
/// intricacy by enumerating these.
pub fn all_line_instances(signature: &Signature, length: usize) -> Vec<Instance> {
    let binary = signature.binary_relations();
    assert!(
        !binary.is_empty(),
        "arity-2 signatures have a binary relation"
    );
    let choices: Vec<LineStep> = binary
        .iter()
        .flat_map(|&r| {
            [
                LineStep {
                    relation: r,
                    forward: true,
                },
                LineStep {
                    relation: r,
                    forward: false,
                },
            ]
        })
        .collect();
    let mut result = Vec::new();
    let mut current: Vec<LineStep> = Vec::with_capacity(length);
    enumerate_lines(signature, &choices, length, &mut current, &mut result);
    result
}

fn enumerate_lines(
    signature: &Signature,
    choices: &[LineStep],
    length: usize,
    current: &mut Vec<LineStep>,
    result: &mut Vec<Instance>,
) {
    if current.len() == length {
        result.push(line_instance(signature, current));
        return;
    }
    for &c in choices {
        current.push(c);
        enumerate_lines(signature, choices, length, current, result);
        current.pop();
    }
}

/// The `rows x cols` grid over a single binary relation `relation`
/// ("S-grids" in Section 8.2): facts `S(a_{i,j}, a_{i,j+1})` and
/// `S(a_{i,j}, a_{i+1,j})`. An unbounded-treewidth, treewidth-constructible
/// family on which the non-intricate query `R(x) ∧ S(x,y) ∧ T(y)` has trivial
/// OBDDs.
pub fn grid_instance(
    signature: &Signature,
    relation: RelationId,
    rows: usize,
    cols: usize,
) -> Instance {
    assert_eq!(signature.arity(relation), 2);
    let mut inst = Instance::new(signature.clone());
    let idx = |r: usize, c: usize| Element((r * cols + c) as u64);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                inst.add_fact(relation, vec![idx(r, c), idx(r, c + 1)]);
            }
            if r + 1 < rows {
                inst.add_fact(relation, vec![idx(r, c), idx(r + 1, c)]);
            }
        }
    }
    inst
}

/// [`grid_instance`] plus the unary fact `label(a)` on each grid element
/// with probability 1/2, drawn from `seed`: the seeded family on which the
/// `tables` binary measures per-instance compile against the query
/// machine's memo size.
pub fn labelled_grid_instance(
    signature: &Signature,
    relation: RelationId,
    label: RelationId,
    rows: usize,
    cols: usize,
    seed: u64,
) -> Instance {
    assert_eq!(signature.arity(label), 1);
    let mut inst = grid_instance(signature, relation, rows, cols);
    let mut rng = StdRng::seed_from_u64(seed);
    for element in 0..(rows * cols) as u64 {
        if rng.gen_bool(0.5) {
            inst.add_fact(label, vec![Element(element)]);
        }
    }
    inst
}

/// The complete bipartite directed instance on `n + n` elements over
/// `relation`: all facts `R(a_i, b_j)`. The easy unbounded-treewidth family
/// for homomorphism-closed queries (Proposition 8.9): every minimal match
/// uses a single fact.
pub fn complete_bipartite_instance(
    signature: &Signature,
    relation: RelationId,
    n: usize,
) -> Instance {
    assert_eq!(signature.arity(relation), 2);
    let mut inst = Instance::new(signature.clone());
    for i in 0..n {
        for j in 0..n {
            inst.add_fact(relation, vec![Element(i as u64), Element((n + j) as u64)]);
        }
    }
    inst
}

/// A chain instance: `R_i(a_i, a_{i+1})` cycling through the given binary
/// relations along a path of `length` facts. Treewidth 1, pathwidth 1.
pub fn chain_instance(signature: &Signature, relations: &[RelationId], length: usize) -> Instance {
    assert!(!relations.is_empty());
    let mut inst = Instance::new(signature.clone());
    for i in 0..length {
        let rel = relations[i % relations.len()];
        assert_eq!(signature.arity(rel), 2);
        inst.add_fact(rel, vec![Element(i as u64), Element(i as u64 + 1)]);
    }
    inst
}

/// The treewidth-0 family of Propositions 7.1 / 7.2: `n` facts of a unary
/// relation over distinct elements.
pub fn unary_family_instance(signature: &Signature, relation: RelationId, n: usize) -> Instance {
    assert_eq!(signature.arity(relation), 1);
    let mut inst = Instance::new(signature.clone());
    for i in 0..n {
        inst.add_fact(relation, vec![Element(i as u64)]);
    }
    inst
}

/// The treewidth-1 family of Proposition 7.3: elements `a_1, ..., a_n` with
/// unary facts `L(a_i)` and binary facts `E(a_i, a_{i+1})`.
pub fn labelled_path_instance(
    signature: &Signature,
    label: RelationId,
    edge: RelationId,
    n: usize,
) -> Instance {
    assert_eq!(signature.arity(label), 1);
    assert_eq!(signature.arity(edge), 2);
    let mut inst = Instance::new(signature.clone());
    for i in 0..n {
        inst.add_fact(label, vec![Element(i as u64)]);
        if i + 1 < n {
            inst.add_fact(edge, vec![Element(i as u64), Element(i as u64 + 1)]);
        }
    }
    inst
}

/// A random instance of bounded treewidth: the edges of a random partial
/// k-tree, labelled with uniformly random binary relations of the signature,
/// plus (optionally) unary facts on each element for every unary relation
/// with probability 1/2.
pub fn random_treelike_instance(signature: &Signature, n: usize, k: usize, seed: u64) -> Instance {
    let graph = generators::random_partial_k_tree(n, k, 0.8, seed);
    let binary = signature.binary_relations();
    let unary = signature.unary_relations();
    assert!(!binary.is_empty());
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x2545F4914F6CDD1D));
    let mut inst = Instance::new(signature.clone());
    for e in graph.edges() {
        let rel = binary[rng.gen_range(0..binary.len())];
        let (a, b) = if rng.gen_bool(0.5) {
            (e.u, e.v)
        } else {
            (e.v, e.u)
        };
        inst.add_fact(rel, vec![Element(a as u64), Element(b as u64)]);
    }
    for v in graph.vertices() {
        for &u in &unary {
            if rng.gen_bool(0.5) {
                inst.add_fact(u, vec![Element(v as u64)]);
            }
        }
    }
    inst
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_binary_signature() -> Signature {
        Signature::builder()
            .relation("R", 2)
            .relation("S", 2)
            .build()
    }

    #[test]
    fn graph_instance_fact_count() {
        let g = generators::cycle_graph(5);
        let sig = Signature::graph();
        let e = sig.relation_by_name("E").unwrap();
        let inst = graph_instance(&g, &sig, e);
        assert_eq!(inst.fact_count(), 5);
    }

    #[test]
    fn graph_instance_gaifman_graph_matches_original() {
        let g = generators::grid_graph(3, 3);
        let sig = Signature::graph();
        let e = sig.relation_by_name("E").unwrap();
        let inst = graph_instance(&g, &sig, e);
        let (gaifman, _) = inst.gaifman_graph();
        assert_eq!(gaifman.edge_count(), g.edge_count());
        assert_eq!(gaifman.vertex_count(), g.vertex_count());
    }

    #[test]
    fn line_instance_structure() {
        let sig = two_binary_signature();
        let r = sig.relation_by_name("R").unwrap();
        let s = sig.relation_by_name("S").unwrap();
        let steps = [
            LineStep {
                relation: r,
                forward: true,
            },
            LineStep {
                relation: s,
                forward: false,
            },
            LineStep {
                relation: r,
                forward: true,
            },
        ];
        let inst = line_instance(&sig, &steps);
        assert_eq!(inst.fact_count(), 3);
        assert_eq!(inst.domain_size(), 4);
        assert!(inst.contains(r, &[Element(1), Element(2)]));
        assert!(inst.contains(s, &[Element(3), Element(2)]));
        let (g, _) = inst.gaifman_graph();
        assert!(g.is_tree());
    }

    #[test]
    fn all_line_instances_count() {
        let sig = two_binary_signature();
        // 2 relations x 2 directions = 4 choices per step.
        assert_eq!(all_line_instances(&sig, 1).len(), 4);
        assert_eq!(all_line_instances(&sig, 2).len(), 16);
        let sig1 = Signature::graph();
        assert_eq!(all_line_instances(&sig1, 3).len(), 8);
    }

    #[test]
    fn grid_instance_has_unbounded_treewidth_shape() {
        let sig = Signature::builder().relation("S", 2).build();
        let s = sig.relation_by_name("S").unwrap();
        let inst = grid_instance(&sig, s, 4, 4);
        assert_eq!(inst.fact_count(), 2 * 4 * 3);
        let (g, _) = inst.gaifman_graph();
        // The 4x4 grid has treewidth 4.
        assert_eq!(treelineage_graph::treewidth::treewidth_exact(&g), 4);
    }

    #[test]
    fn complete_bipartite_instance_facts() {
        let sig = Signature::builder().relation("R", 2).build();
        let r = sig.relation_by_name("R").unwrap();
        let inst = complete_bipartite_instance(&sig, r, 3);
        assert_eq!(inst.fact_count(), 9);
        assert_eq!(inst.domain_size(), 6);
    }

    #[test]
    fn chain_and_unary_families() {
        let sig = two_binary_signature();
        let rels: Vec<RelationId> = sig.binary_relations();
        let chain = chain_instance(&sig, &rels, 6);
        assert_eq!(chain.fact_count(), 6);
        let (w, _, _) = chain.treewidth_upper_bound();
        assert_eq!(w, 1);

        let usig = Signature::builder().relation("R", 1).build();
        let u = usig.relation_by_name("R").unwrap();
        let unary = unary_family_instance(&usig, u, 5);
        assert_eq!(unary.fact_count(), 5);
        let (g, _) = unary.gaifman_graph();
        assert_eq!(g.edge_count(), 0); // treewidth 0
    }

    #[test]
    fn labelled_path_instance_structure() {
        let sig = Signature::builder()
            .relation("L", 1)
            .relation("E", 2)
            .build();
        let l = sig.relation_by_name("L").unwrap();
        let e = sig.relation_by_name("E").unwrap();
        let inst = labelled_path_instance(&sig, l, e, 5);
        assert_eq!(inst.fact_count(), 5 + 4);
        let (w, _, _) = inst.treewidth_upper_bound();
        assert_eq!(w, 1);
    }

    #[test]
    fn random_treelike_instance_has_bounded_treewidth() {
        let sig = Signature::builder()
            .relation("R", 2)
            .relation("S", 2)
            .relation("L", 1)
            .build();
        for seed in 0..3 {
            let inst = random_treelike_instance(&sig, 20, 2, seed);
            let (g, _) = inst.gaifman_graph();
            let (w, td) = treelineage_graph::treewidth::treewidth_upper_bound(&g);
            assert!(td.validate(&g).is_ok());
            assert!(w <= 3, "width {w} too large for a partial 2-tree");
        }
    }
}
