//! Hardness gadgets and lower-bound witnesses (Sections 4, 5, 7 and 8).
//!
//! The paper's negative results are all witnessed by explicit queries and
//! instance families; this crate builds them and exposes the measurements
//! that the experiment harness reports:
//!
//! * [`qp`] — the intricate UCQ≠ of Theorem 8.1 ("a path of length 2 in the
//!   Gaifman graph", i.e. a violation of the matching property), for any
//!   arity-2 signature;
//! * [`qd`] — the disconnected CQ≠ of Proposition 8.10 (two facts with
//!   disjoint domains);
//! * [`matching_reduction`] — the engine of Theorem 4.2's hardness proof:
//!   recovering the number of matchings of a graph from the probability of
//!   q_p under the all-1/2 valuation;
//! * [`obdd_width_of_qp_on_grid`] and friends — the OBDD width measurements
//!   behind the Section 8 dichotomy experiments;
//! * [`threshold_family`] — the treewidth-0 lineage family of Section 7,
//!   whose lineage is the threshold-2 function.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use treelineage::LineageBuilder;
use treelineage_dd::{Manager, NodeId};
use treelineage_graph::{counting, Graph};
use treelineage_instance::{encodings, Instance, ProbabilityValuation, Signature};
use treelineage_num::{BigUint, Rational};
use treelineage_query::{parse_query, UnionOfConjunctiveQueries};

/// The intricate query q_p of Theorem 8.1 for a signature with binary
/// relations: "the Gaifman graph of the possible world contains a path of
/// length 2", expressed as a UCQ≠ with one disjunct per way two binary facts
/// can share exactly one element. Its negation characterizes the worlds that
/// are matchings of the instance.
pub fn qp(signature: &Signature) -> UnionOfConjunctiveQueries {
    let binaries = signature.binary_relations();
    assert!(!binaries.is_empty(), "q_p needs a binary relation");
    let mut disjuncts = Vec::new();
    for &r in &binaries {
        for &s in &binaries {
            let rn = signature.relation(r).name();
            let sn = signature.relation(s).name();
            // The three incidence patterns: head-to-tail, head-to-head,
            // tail-to-tail; in each, the shared element is y and the outer
            // elements are distinct.
            disjuncts.push(format!("{rn}(x, y), {sn}(y, z), x != z"));
            disjuncts.push(format!("{rn}(x, y), {sn}(z, y), x != z"));
            disjuncts.push(format!("{rn}(y, x), {sn}(y, z), x != z"));
        }
    }
    parse_query(signature, &disjuncts.join(" | ")).expect("q_p is well-formed")
}

/// The disconnected CQ≠ q_d of Proposition 8.10: two binary facts over
/// disjoint pairs of elements (for a signature with a single binary
/// relation).
pub fn qd(signature: &Signature) -> UnionOfConjunctiveQueries {
    let binaries = signature.binary_relations();
    assert_eq!(
        binaries.len(),
        1,
        "q_d is stated for a single binary relation"
    );
    let name = signature.relation(binaries[0]).name();
    parse_query(
        signature,
        &format!("{name}(x, y), {name}(z, w), x != z, x != w, y != z, y != w"),
    )
    .expect("q_d is well-formed")
}

/// Result of the matching-counting reduction (Theorem 4.2's mechanism).
#[derive(Clone, Debug)]
pub struct MatchingReduction {
    /// Number of matchings recovered from the query probability.
    pub matchings_from_probability: BigUint,
    /// Number of matchings computed directly (DP over a tree decomposition).
    pub matchings_direct: BigUint,
    /// The probability of ¬q_p under the all-1/2 valuation.
    pub non_violation_probability: Rational,
}

/// Recovers the number of matchings of `graph` from the probability of the
/// matching-violation query q_p: a possible world of the edge facts is a
/// matching iff it does not satisfy q_p, so
/// `#matchings = 2^{|E|} · P(¬ q_p)` under the all-1/2 valuation — the exact
/// correspondence the hardness proof of Theorem 4.2 exploits (there, to
/// transfer #P-hardness of counting matchings on 3-regular planar graphs;
/// here, run forward as an experiment that cross-checks the probability
/// pipeline against the dedicated matching-counting DP).
pub fn matching_reduction(graph: &Graph) -> MatchingReduction {
    let signature = Signature::graph();
    let e = signature.relation_by_name("E").unwrap();
    let instance = encodings::graph_instance(graph, &signature, e);
    let query = qp(&signature);
    let (manager, root) = lineage_dd(&query, &instance);
    let p_violation = manager.probability(root, &|_| Rational::one_half());
    let p_matching = p_violation.complement();
    let scaled = &p_matching * &Rational::from_biguint(BigUint::pow2(instance.fact_count()));
    assert!(scaled.denominator().is_one());
    let matchings_from_probability = scaled.numerator().magnitude().clone();
    let matchings_direct = counting::count_matchings(graph);
    MatchingReduction {
        matchings_from_probability,
        matchings_direct,
        non_violation_probability: p_matching,
    }
}

/// The probability-evaluation view of the same reduction, using an arbitrary
/// probability valuation on the edge facts (the reduction of Theorem 4.2
/// chooses specific valuations; the all-1/2 one recovers plain counting).
pub fn matching_probability(graph: &Graph, valuation: &ProbabilityValuation) -> Rational {
    let signature = Signature::graph();
    let e = signature.relation_by_name("E").unwrap();
    let instance = encodings::graph_instance(graph, &signature, e);
    assert_eq!(valuation.len(), instance.fact_count());
    let query = qp(&signature);
    let (manager, root) = lineage_dd(&query, &instance);
    manager
        .probability(root, &|v| {
            valuation
                .probability(treelineage_instance::FactId(v))
                .clone()
        })
        .complement()
}

/// The query/instance pair of the grid experiments: q_p on the `n x n` grid
/// over a single binary relation. Exposed so the benches can compile the
/// same family through different engines (and reuse a shared manager across
/// iterations).
pub fn qp_grid_family(n: usize) -> (UnionOfConjunctiveQueries, Instance) {
    let signature = Signature::builder().relation("S", 2).build();
    let s = signature.relation_by_name("S").unwrap();
    let instance = encodings::grid_instance(&signature, s, n, n);
    (qp(&signature), instance)
}

/// The query/instance pair of the chain experiments: q_p on a chain of
/// S-facts (treewidth 1).
fn qp_chain_family(length: usize) -> (UnionOfConjunctiveQueries, Instance) {
    let signature = Signature::builder().relation("S", 2).build();
    let s = signature.relation_by_name("S").unwrap();
    let instance = encodings::chain_instance(&signature, &[s], length);
    (qp(&signature), instance)
}

/// The OBDD of the lineage of q_p on the `n x n` grid instance over a single
/// binary relation, under the decomposition-derived variable order. Lemma 8.2
/// shows that its width must be at least `2^{Ω(tw^{1/d})}`; the experiments
/// report the measured widths. Returns `(width, size)` (canonical, measured
/// through the shared `treelineage-dd` engine).
pub fn obdd_width_of_qp_on_grid(n: usize) -> (usize, usize) {
    let (query, instance) = qp_grid_family(n);
    width_and_size(&query, &instance)
}

/// The OBDD width and size of the lineage of q_p on a bounded-treewidth
/// instance of comparable size (a chain of S-facts), the tractable side of
/// the same comparison.
pub fn obdd_width_of_qp_on_chain(length: usize) -> (usize, usize) {
    let (query, instance) = qp_chain_family(length);
    width_and_size(&query, &instance)
}

/// OBDD width of the non-intricate query `R(x) ∧ S(x,y) ∧ T(y)` on the S-grid
/// family (no R/T facts): Theorem 8.7's first branch — some
/// unbounded-treewidth family gives constant-width OBDDs.
pub fn obdd_width_of_unsafe_query_on_s_grid(n: usize) -> (usize, usize) {
    let signature = Signature::builder()
        .relation("R", 1)
        .relation("S", 2)
        .relation("T", 1)
        .build();
    let s = signature.relation_by_name("S").unwrap();
    let instance = encodings::grid_instance(&signature, s, n, n);
    let query = parse_query(&signature, "R(x), S(x, y), T(y)").unwrap();
    width_and_size(&query, &instance)
}

/// The query/instance pair of Proposition 8.9's experiment: a
/// homomorphism-closed UCQ on the complete bipartite directed family.
fn ucq_bipartite_family(n: usize) -> (UnionOfConjunctiveQueries, Instance) {
    let signature = Signature::builder().relation("S", 2).build();
    let s = signature.relation_by_name("S").unwrap();
    let instance = encodings::complete_bipartite_instance(&signature, s, n);
    let query = parse_query(&signature, "S(x, y), S(x, z) | S(x, y), S(z, y)").unwrap();
    (query, instance)
}

/// OBDD width of a homomorphism-closed query (a UCQ) on the complete
/// bipartite directed family of Proposition 8.9: constant width regardless
/// of `n`.
pub fn obdd_width_of_ucq_on_bipartite(n: usize) -> (usize, usize) {
    let (query, instance) = ucq_bipartite_family(n);
    width_and_size(&query, &instance)
}

/// OBDD width of the disconnected query q_d on the `n x n` grid (Proposition
/// 8.10 predicts growth `Ω(tw^{1/d'})` on high-treewidth instances).
pub fn obdd_width_of_qd_on_grid(n: usize) -> (usize, usize) {
    let signature = Signature::builder().relation("S", 2).build();
    let s = signature.relation_by_name("S").unwrap();
    let instance = encodings::grid_instance(&signature, s, n, n);
    let query = qd(&signature);
    width_and_size(&query, &instance)
}

/// Compiles the lineage into a fresh shared-engine manager.
fn lineage_dd(query: &UnionOfConjunctiveQueries, instance: &Instance) -> (Manager, NodeId) {
    LineageBuilder::new(query, instance)
        .expect("same signature")
        .dd()
}

/// Width and size of the lineage's canonical OBDD, measured on the shared
/// engine (the plain reduced OBDD's numbers, per the complement-edge width
/// equivalence — see `treelineage-dd`'s docs).
fn width_and_size(query: &UnionOfConjunctiveQueries, instance: &Instance) -> (usize, usize) {
    let (manager, root) = lineage_dd(query, instance);
    (manager.width(root), manager.size(root))
}

/// The treewidth-0 lineage family of Propositions 7.1 / 7.2: the CQ≠
/// `∃xy R(x) ∧ R(y) ∧ x ≠ y` on the instance `{R(a_1), ..., R(a_n)}`, whose
/// lineage is the threshold-2 function. Returns (query, instance).
pub fn threshold_family(n: usize) -> (UnionOfConjunctiveQueries, Instance) {
    let signature = Signature::builder().relation("R", 1).build();
    let r = signature.relation_by_name("R").unwrap();
    let instance = encodings::unary_family_instance(&signature, r, n);
    let query = parse_query(&signature, "R(x), R(y), x != y").unwrap();
    (query, instance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelineage_graph::generators;
    use treelineage_query::intricate;

    #[test]
    fn qp_is_intricate_and_qd_is_not_connected() {
        let sig = Signature::builder().relation("S", 2).build();
        let q = qp(&sig);
        assert!(q.is_connected());
        assert!(intricate::is_n_intricate(&q, 0));
        let d = qd(&sig);
        assert!(!d.is_connected());
    }

    #[test]
    fn qp_on_two_relation_signature_is_intricate() {
        let sig = Signature::builder()
            .relation("R", 2)
            .relation("S", 2)
            .build();
        let q = qp(&sig);
        assert!(intricate::is_n_intricate(&q, 0));
    }

    #[test]
    fn matching_reduction_agrees_with_direct_counting() {
        for graph in [
            generators::path_graph(5),
            generators::cycle_graph(5),
            generators::circular_ladder_graph(3),
            generators::star_graph(4),
        ] {
            let result = matching_reduction(&graph);
            assert_eq!(
                result.matchings_from_probability.to_u64(),
                result.matchings_direct.to_u64(),
                "graph with {} edges",
                graph.edge_count()
            );
        }
    }

    #[test]
    fn matching_reduction_on_three_regular_planar_graph() {
        // The hard family of [52]: 3-regular planar graphs (here a prism).
        let graph = generators::circular_ladder_graph(4);
        let result = matching_reduction(&graph);
        assert_eq!(
            result.matchings_from_probability.to_u64(),
            result.matchings_direct.to_u64()
        );
    }

    #[test]
    fn matching_probability_with_nonuniform_valuation() {
        let graph = generators::path_graph(4);
        let signature = Signature::graph();
        let e = signature.relation_by_name("E").unwrap();
        let instance = encodings::graph_instance(&graph, &signature, e);
        let valuation = ProbabilityValuation::uniform(&instance, Rational::from_ratio_u64(1, 3));
        let p = matching_probability(&graph, &valuation);
        // Brute force: matchings of P4 (edges e0, e1, e2) are {}, {e0}, {e1},
        // {e2}, {e0, e2}; with p = 1/3 the weights sum to
        // (8 + 3·4 + 2) / 27 = 22/27.
        let expected = Rational::from_ratio_u64(8 + 3 * 4 + 2, 27);
        assert_eq!(p, expected);
    }

    #[test]
    fn qp_obdd_width_grows_on_grids_but_not_on_chains() {
        let (w3, _) = obdd_width_of_qp_on_grid(3);
        let (w4, _) = obdd_width_of_qp_on_grid(4);
        let (chain_w_small, _) = obdd_width_of_qp_on_chain(10);
        let (chain_w_large, _) = obdd_width_of_qp_on_chain(40);
        assert!(w4 > w3, "grid widths must grow: {w3} -> {w4}");
        assert_eq!(
            chain_w_small, chain_w_large,
            "chain widths must stay constant"
        );
        assert!(w4 > chain_w_large);
    }

    #[test]
    fn qp_grid_widths_and_sizes_are_pinned() {
        // The D-8.1 values; `tests/obdd_invariants.rs` checks the same level
        // profiles against Lemma 6.6's restriction counts.
        assert_eq!(obdd_width_of_qp_on_grid(2), (2, 6));
        assert_eq!(obdd_width_of_qp_on_grid(3), (9, 57));
    }

    #[test]
    fn non_intricate_query_has_constant_width_on_s_grids() {
        let (w2, _) = obdd_width_of_unsafe_query_on_s_grid(2);
        let (w4, _) = obdd_width_of_unsafe_query_on_s_grid(4);
        // No R/T facts are present, so the lineage is constant-false: width 0.
        assert_eq!(w2, w4);
        assert_eq!(w4, 0);
    }

    #[test]
    fn homomorphism_closed_queries_easy_on_bipartite_family() {
        let (w2, _) = obdd_width_of_ucq_on_bipartite(2);
        let (w4, _) = obdd_width_of_ucq_on_bipartite(4);
        assert!(w2 <= 2 && w4 <= 2, "widths {w2}, {w4}");
    }

    #[test]
    fn threshold_family_lineage_is_threshold_two() {
        let (query, instance) = threshold_family(5);
        let (manager, root) = lineage_dd(&query, &instance);
        // Threshold-2 over 5 variables has C(5,0) + C(5,1) = 6 falsifying
        // assignments.
        assert_eq!(manager.count_models(root).to_u64(), Some(32 - 6));
        assert!(manager.width(root) <= 3);
    }
}
