//! Intricate queries and the decision procedure of Lemma 8.6.
//!
//! A UCQ≠ `q` is *n-intricate* (Definition 8.5) if on every line instance
//! with `2n + 2` facts, some minimal match of `q` contains both facts
//! incident to the middle element; `q` is *intricate* if it is
//! `|q|`-intricate. Theorem 8.7 shows that the connected UCQ≠ queries whose
//! OBDDs must blow up on every unbounded-treewidth family are exactly the
//! intricate ones, and Proposition 8.8 / 8.9 show that connected CQ≠ queries
//! and homomorphism-closed queries are never intricate.
//!
//! The decision procedure enumerates all line instances of the prescribed
//! length ((2·#binary relations)^(2n+2) of them) and checks minimal matches
//! on each — exponential in `n` and in the signature, which is fine because
//! queries are fixed and small (the paper only claims a PSPACE bound).

use crate::cq::UnionOfConjunctiveQueries;
use crate::matching;
use treelineage_instance::{encodings, FactId, Instance};

/// The two facts of a line instance incident to its middle element
/// (Definition 8.5). For a line instance with `2n + 2` facts these are the
/// facts at 0-based positions `n` and `n + 1`.
fn middle_facts(line_length: usize) -> (FactId, FactId) {
    assert!(
        line_length >= 2 && line_length.is_multiple_of(2),
        "line length must be even and >= 2"
    );
    let n = (line_length - 2) / 2;
    (FactId(n), FactId(n + 1))
}

/// Checks whether `query` is `n`-intricate (Definition 8.5): on *every* line
/// instance with `2n + 2` facts, some minimal match contains both middle
/// facts. Panics if the signature is not arity-2 or has no binary relation.
pub fn is_n_intricate(query: &UnionOfConjunctiveQueries, n: usize) -> bool {
    n_intricacy_counterexample(query, n).is_none()
}

/// If `query` is not `n`-intricate, returns a witnessing line instance on
/// which no minimal match contains both middle facts; returns `None` if the
/// query is `n`-intricate.
pub fn n_intricacy_counterexample(query: &UnionOfConjunctiveQueries, n: usize) -> Option<Instance> {
    let signature = query.signature();
    assert!(
        signature.is_arity_two(),
        "intricacy is defined for arity-2 signatures"
    );
    let length = 2 * n + 2;
    let (middle_a, middle_b) = middle_facts(length);
    for line in encodings::all_line_instances(signature, length) {
        let minimal = matching::minimal_matches(query, &line);
        let has_middle_match = minimal
            .iter()
            .any(|m| m.contains(&middle_a) && m.contains(&middle_b));
        if !has_middle_match {
            return Some(line);
        }
    }
    None
}

/// Checks whether `query` is intricate, i.e. `|q|`-intricate (Definition 8.5).
///
/// Note the paper's observation that `n`-intricate implies `m`-intricate for
/// every `m >= n`: to *establish* intricacy it therefore suffices to verify
/// `n`-intricacy for any `n <= |q|` (and callers with large queries should
/// prefer [`is_n_intricate`] with a small `n` — the full check enumerates
/// `(2·#binary)^(2|q|+2)` line instances).
pub fn is_intricate(query: &UnionOfConjunctiveQueries) -> bool {
    is_n_intricate(query, query.size())
}

/// Checks Proposition 8.8's claim on a concrete query: a connected CQ≠ is
/// never intricate. This helper verifies both the hypothesis (connected,
/// single disjunct) and the conclusion via the decision procedure.
pub fn connected_cq_is_not_intricate(query: &UnionOfConjunctiveQueries) -> bool {
    if query.disjuncts().len() != 1 || !query.is_connected() {
        return false;
    }
    !is_intricate(query)
}

/// Returns `true` if every minimal match of the query on the given instance
/// has at most one fact — the structural reason homomorphism-closed queries
/// are easy on complete bipartite instances (Proposition 8.9's proof).
pub fn all_minimal_matches_are_singletons(
    query: &UnionOfConjunctiveQueries,
    instance: &Instance,
) -> bool {
    matching::minimal_matches(query, instance)
        .iter()
        .all(|m| m.len() <= 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq::parse_query;
    use treelineage_instance::Signature;

    fn single_binary() -> Signature {
        Signature::builder().relation("S", 2).build()
    }

    fn rst() -> Signature {
        Signature::builder()
            .relation("R", 1)
            .relation("S", 2)
            .relation("T", 1)
            .build()
    }

    /// The "path of length 2 in the Gaifman graph" query q_p for a signature
    /// with a single binary relation S: two S-facts sharing an element, with
    /// the outer endpoints distinct. This is the paper's intricate witness
    /// (Theorem 8.1, designed to be 0-intricate).
    fn qp_single_relation() -> crate::cq::UnionOfConjunctiveQueries {
        parse_query(
            &single_binary(),
            "S(x, y), S(y, z), x != z | S(x, y), S(z, y), x != z | S(y, x), S(y, z), x != z",
        )
        .unwrap()
    }

    #[test]
    fn middle_fact_positions() {
        assert_eq!(middle_facts(2), (FactId(0), FactId(1)));
        assert_eq!(middle_facts(8), (FactId(3), FactId(4)));
    }

    #[test]
    fn qp_is_zero_intricate() {
        let qp = qp_single_relation();
        // On every line instance with 2 facts, the two facts share the middle
        // element and their outer endpoints differ, so they form a (minimal)
        // match of one of the disjuncts.
        assert!(is_n_intricate(&qp, 0));
    }

    #[test]
    fn qp_is_one_intricate_too() {
        // n-intricate implies m-intricate for m >= n.
        let qp = qp_single_relation();
        assert!(is_n_intricate(&qp, 1));
    }

    #[test]
    fn unsafe_but_non_intricate_query() {
        // The classic unsafe query R(x), S(x, y), T(y) (Section 8.2's
        // motivating example) is not intricate: line instances contain no
        // unary facts, so it has no matches at all on them.
        let q = parse_query(&rst(), "R(x), S(x, y), T(y)").unwrap();
        assert!(!is_n_intricate(&q, 0));
        assert!(!is_intricate(&q));
        let counterexample = n_intricacy_counterexample(&q, 0).unwrap();
        assert_eq!(counterexample.fact_count(), 2);
    }

    #[test]
    fn connected_cq_with_disequality_is_not_intricate() {
        // Proposition 8.8: connected CQ≠ are never intricate. Check a few.
        for text in ["S(x, y), S(y, z), x != z", "S(x, y)", "S(x, y), S(y, z)"] {
            let q = parse_query(&single_binary(), text).unwrap();
            assert!(
                connected_cq_is_not_intricate(&q),
                "query {text} should not be intricate"
            );
        }
    }

    #[test]
    fn single_fact_query_is_not_intricate() {
        // Queries with |q| < 2 cannot be intricate (remark after Def. 8.5):
        // a single-atom query has singleton minimal matches only.
        let q = parse_query(&single_binary(), "S(x, y)").unwrap();
        assert!(!is_intricate(&q));
    }

    #[test]
    fn homomorphism_closed_queries_have_singleton_matches_on_bipartite() {
        // Proposition 8.9's mechanism: on the complete bipartite directed
        // instance, every minimal match of a UCQ is a single fact.
        let sig = single_binary();
        let s = sig.relation_by_name("S").unwrap();
        let inst = encodings::complete_bipartite_instance(&sig, s, 3);
        for text in [
            "S(x, y)",
            "S(x, y), S(x, z)",
            "S(x, y), S(z, y) | S(x, y), S(x, w)",
        ] {
            let q = parse_query(&sig, text).unwrap();
            if matching::satisfied(&q, &inst) {
                assert!(
                    all_minimal_matches_are_singletons(&q, &inst),
                    "query {text}"
                );
            }
        }
    }
}
