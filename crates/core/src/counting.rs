//! Match counting (Definition 5.6 and Theorem 5.7's tractable side).
//!
//! The counting problem for a query `q(X)` with free second-order variables
//! asks how many assignments of domain subsets to `X` satisfy the query. We
//! reproduce the tractable side of Theorem 5.7 through the standard
//! second-order-variables-as-facts encoding: each free set variable `X_i` is
//! materialized as a fresh unary relation `SelX_i` whose facts (one per
//! domain element) are the Boolean variables; the ordinary facts of the
//! instance are kept certain. Counting assignments of `X` then *is* model
//! counting of the lineage of the rewritten query over the selection facts,
//! which is linear on the compiled OBDD / d-DNNF. The brute-force oracle of
//! `treelineage-query`'s MSO module cross-checks the results in the tests.

use crate::lineage::LineageBuilder;
use treelineage_engine::EngineError;
use treelineage_instance::{Element, FactId, Instance, RelationId, Signature};
use treelineage_num::BigUint;
use treelineage_query::UnionOfConjunctiveQueries;

/// Counts assignments of the "selection" unary relations that satisfy a UCQ≠.
///
/// The query is expressed over an extended signature containing, besides the
/// instance's relations, one unary *selection* relation per free second-order
/// variable. [`MatchCounter::count`] returns the number of interpretations of
/// the selection relations (as subsets of the instance's active domain) under
/// which the query holds on the instance.
pub struct MatchCounter<'a> {
    query: &'a UnionOfConjunctiveQueries,
    instance: &'a Instance,
    selection_relations: Vec<&'a str>,
}

impl<'a> MatchCounter<'a> {
    /// Creates a counter for `query` over `instance`; `selection_relations`
    /// names the unary relations of the query's signature that play the role
    /// of the free second-order variables.
    pub fn new(
        query: &'a UnionOfConjunctiveQueries,
        instance: &'a Instance,
        selection_relations: Vec<&'a str>,
    ) -> Self {
        MatchCounter {
            query,
            instance,
            selection_relations,
        }
    }

    /// Builds the extended instance: the original facts plus one fact of each
    /// selection relation per domain element. Returns the instance together
    /// with the fact ids of the original (certain) facts and of the selection
    /// (counted) facts. A selection relation that is missing from the
    /// query's signature or not unary, or an instance relation the query's
    /// signature lacks, is an [`EngineError::InvalidRequest`] naming it.
    fn extended_instance(&self) -> Result<(Instance, Vec<FactId>, Vec<FactId>), EngineError> {
        let signature: &Signature = self.query.signature();
        let relation = |name: &str, role: &str| {
            signature.relation_by_name(name).ok_or_else(|| {
                EngineError::InvalidRequest(format!(
                    "{role} relation {name} is not in the query's signature"
                ))
            })
        };
        let mut selection_ids: Vec<RelationId> = Vec::new();
        for name in &self.selection_relations {
            let id = relation(name, "selection")?;
            if signature.arity(id) != 1 {
                return Err(EngineError::InvalidRequest(format!(
                    "selection relation {name} has arity {}, not 1",
                    signature.arity(id)
                )));
            }
            selection_ids.push(id);
        }
        let mut extended = Instance::new(signature.clone());
        let mut base_facts = Vec::new();
        for (_, fact) in self.instance.facts() {
            // The base instance's relations must exist in the query signature
            // under the same ids; we rebuild facts by relation name.
            let name = self.instance.signature().relation(fact.relation()).name();
            let id = relation(name, "instance")?;
            base_facts.push(extended.add_fact(id, fact.arguments().to_vec()));
        }
        let domain: Vec<Element> = self.instance.domain().into_iter().collect();
        let mut selection_facts = Vec::new();
        for rel in selection_ids {
            for &e in &domain {
                selection_facts.push(extended.add_fact(rel, vec![e]));
            }
        }
        Ok((extended, base_facts, selection_facts))
    }

    /// The number of selection-relation interpretations (subsets of the
    /// active domain) under which the query holds.
    pub fn count(&self) -> Result<BigUint, EngineError> {
        let (extended, base_facts, selection_facts) = self.extended_instance()?;
        let builder = LineageBuilder::new(self.query, &extended)?;
        let (manager, root) = builder.dd();
        // Condition the lineage on all base facts being present: weighted
        // model counting with base facts at 1 and selection facts at 1/2,
        // scaled by 2^{#selection facts}.
        use treelineage_num::Rational;
        let base: std::collections::BTreeSet<usize> = base_facts.iter().map(|f| f.0).collect();
        let p = manager.probability(root, &|v| {
            if base.contains(&v) {
                Rational::one()
            } else {
                Rational::one_half()
            }
        });
        let scaled = &p * &Rational::from_biguint(BigUint::pow2(selection_facts.len()));
        assert!(scaled.denominator().is_one(), "count must be an integer");
        Ok(scaled.numerator().magnitude().clone())
    }

    /// Brute-force count over all selection interpretations (oracle);
    /// exponential, limited to 20 selection facts.
    pub fn count_bruteforce(&self) -> Result<BigUint, EngineError> {
        let (extended, base_facts, selection_facts) = self.extended_instance()?;
        assert!(
            selection_facts.len() <= 20,
            "brute force limited to 20 selection facts"
        );
        let mut count = 0u64;
        for mask in 0u64..(1u64 << selection_facts.len()) {
            let mut world: std::collections::BTreeSet<FactId> =
                base_facts.iter().copied().collect();
            for (i, &f) in selection_facts.iter().enumerate() {
                if mask >> i & 1 == 1 {
                    world.insert(f);
                }
            }
            if treelineage_query::matching::satisfied_in_world(self.query, &extended, &world) {
                count += 1;
            }
        }
        Ok(BigUint::from_u64(count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelineage_instance::encodings;
    use treelineage_query::parse_query;

    /// Signature with an edge relation and a selection relation.
    fn sel_signature() -> Signature {
        Signature::builder()
            .relation("E", 2)
            .relation("Sel", 1)
            .build()
    }

    #[test]
    fn counting_selected_pairs_joined_by_an_edge() {
        // Count subsets X of the domain containing two adjacent selected
        // elements — i.e. X is NOT an independent set of the path. On a path
        // with 4 vertices there are 2^4 = 16 subsets, of which F(6) = 8 are
        // independent sets, so 8 satisfy the query.
        let sig = sel_signature();
        let e = sig.relation_by_name("E").unwrap();
        let graph = treelineage_graph::generators::path_graph(4);
        let inst = encodings::graph_instance(&graph, &sig, e);
        let q = parse_query(&sig, "E(x, y), Sel(x), Sel(y)").unwrap();
        let counter = MatchCounter::new(&q, &inst, vec!["Sel"]);
        let exact = counter.count().unwrap();
        let brute = counter.count_bruteforce().unwrap();
        assert_eq!(exact.to_u64(), brute.to_u64());
        assert_eq!(exact.to_u64(), Some(16 - 8));
    }

    #[test]
    fn counting_on_cycles_matches_bruteforce() {
        let sig = sel_signature();
        let e = sig.relation_by_name("E").unwrap();
        for n in 3..=6usize {
            let graph = treelineage_graph::generators::cycle_graph(n);
            let inst = encodings::graph_instance(&graph, &sig, e);
            let q = parse_query(&sig, "E(x, y), Sel(x), Sel(y)").unwrap();
            let counter = MatchCounter::new(&q, &inst, vec!["Sel"]);
            assert_eq!(
                counter.count().unwrap().to_u64(),
                counter.count_bruteforce().unwrap().to_u64(),
                "n={n}"
            );
        }
    }

    #[test]
    fn counting_independent_sets_via_complement() {
        // #independent sets = 2^n - #subsets with an internal edge; verified
        // against the graph crate's dedicated DP.
        let sig = sel_signature();
        let e = sig.relation_by_name("E").unwrap();
        let graph = treelineage_graph::generators::balanced_binary_tree(7);
        let inst = encodings::graph_instance(&graph, &sig, e);
        let q = parse_query(&sig, "E(x, y), Sel(x), Sel(y)").unwrap();
        let counter = MatchCounter::new(&q, &inst, vec!["Sel"]);
        let bad = counter.count().unwrap().to_u64().unwrap();
        let total = 1u64 << graph.vertex_count();
        let independent = treelineage_graph::counting::count_independent_sets(&graph)
            .to_u64()
            .unwrap();
        assert_eq!(total - bad, independent);
    }

    #[test]
    fn unknown_selection_relation_is_rejected() {
        let sig = sel_signature();
        let e = sig.relation_by_name("E").unwrap();
        let graph = treelineage_graph::generators::path_graph(3);
        let inst = encodings::graph_instance(&graph, &sig, e);
        let q = parse_query(&sig, "E(x, y), Sel(x), Sel(y)").unwrap();
        let counter = MatchCounter::new(&q, &inst, vec!["NoSuch"]);
        assert!(matches!(
            counter.count(),
            Err(EngineError::InvalidRequest(m)) if m.contains("NoSuch")
        ));
    }
}
