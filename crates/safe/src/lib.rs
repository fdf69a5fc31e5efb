//! Safe queries, inversion-freeness and lineage-preserving unfoldings
//! (Section 9 of the paper).
//!
//! Section 9 connects the paper's instance-based tractability to the
//! query-based tractability of safe queries: for every ranked inversion-free
//! UCQ, any ranked instance can be *unfolded* — rewritten, fact by fact, into
//! an instance of tree-depth at most `arity(σ)` — without changing the
//! query's lineage (Theorem 9.7). Bounded tree-depth implies bounded
//! pathwidth and treewidth, so the constant-width OBDDs of inversion-free
//! UCQs (Theorem 9.6, \[36\]) are explained by the bounded-pathwidth
//! tractability of Theorem 6.7.
//!
//! This crate implements:
//! * detection of hierarchical / inversion-free UCQs via a search for
//!   compatible per-relation attribute orders (Definition C.1 specialised to
//!   the constant-free, ranked queries used throughout the paper — the
//!   general inversion-free test of \[36\] is not reimplemented, see
//!   DESIGN.md §2);
//! * the ranking check for instances (Section 9's ranking transformation is
//!   assumed to have been applied; we verify it rather than re-deriving it);
//! * the **unfolding** construction of Theorem 9.7, returning the unfolded
//!   instance, the fact bijection, and an elimination forest witnessing
//!   tree-depth ≤ arity(σ);
//! * verification helpers: lineage preservation (Lemma 9.5) and the
//!   tree-depth / pathwidth bounds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use treelineage_graph::{treedepth::EliminationForest, treewidth};
use treelineage_instance::{Element, FactId, Instance, RelationId};
use treelineage_query::{matching, ConjunctiveQuery, UnionOfConjunctiveQueries, Variable};

/// Per-relation total orders on attribute positions (position indices in
/// visiting order, e.g. `[1, 0]` means position 1 comes first).
pub type AttributeOrders = BTreeMap<RelationId, Vec<usize>>;

/// Searches for per-relation attribute orders under which the UCQ is
/// inversion-free: every disjunct must be hierarchical, and within every atom
/// the variable at an earlier position (w.r.t. the relation's order) must
/// occur in at least the atoms of the variable at any later position — the
/// "root variables come first" shape of an inversion-free expression
/// (Definition C.1). Returns the orders if they exist.
fn inversion_free_orders(query: &UnionOfConjunctiveQueries) -> Option<AttributeOrders> {
    if !query
        .disjuncts()
        .iter()
        .all(|d| d.is_hierarchical() && d.is_ranked())
    {
        return None;
    }
    let signature = query.signature();
    let relations: Vec<RelationId> = signature.relations().map(|(id, _)| id).collect();
    // Enumerate per-relation permutations (arities are small: the paper's
    // dichotomies live on arity-2 signatures).
    let mut orders: AttributeOrders = BTreeMap::new();
    if search_orders(query, &relations, 0, &mut orders) {
        Some(orders)
    } else {
        None
    }
}

fn search_orders(
    query: &UnionOfConjunctiveQueries,
    relations: &[RelationId],
    next: usize,
    orders: &mut AttributeOrders,
) -> bool {
    if next == relations.len() {
        return orders_are_compatible(query, orders);
    }
    let relation = relations[next];
    let arity = query.signature().arity(relation);
    for permutation in permutations(arity) {
        orders.insert(relation, permutation);
        if search_orders(query, relations, next + 1, orders) {
            return true;
        }
    }
    orders.remove(&relation);
    false
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![vec![]];
    }
    let mut out = Vec::new();
    for rest in permutations(n - 1) {
        for insert_at in 0..=rest.len() {
            let mut p = rest.clone();
            p.insert(insert_at, n - 1);
            out.push(p);
        }
    }
    out
}

fn orders_are_compatible(query: &UnionOfConjunctiveQueries, orders: &AttributeOrders) -> bool {
    for disjunct in query.disjuncts() {
        // atoms(v) within the disjunct.
        let occurrences = |v: Variable| -> BTreeSet<usize> {
            disjunct
                .atoms()
                .iter()
                .enumerate()
                .filter(|(_, a)| a.variables().contains(&v))
                .map(|(i, _)| i)
                .collect()
        };
        for atom in disjunct.atoms() {
            let order = &orders[&atom.relation];
            for window in order.windows(2) {
                let earlier = atom.arguments[window[0]];
                let later = atom.arguments[window[1]];
                // The earlier variable must dominate the later one in the
                // hierarchy: atoms(later) ⊆ atoms(earlier).
                if !occurrences(later).is_subset(&occurrences(earlier)) {
                    return false;
                }
            }
        }
    }
    true
}

/// Returns `true` if the query is inversion-free (some compatible attribute
/// orders exist).
pub fn is_inversion_free(query: &UnionOfConjunctiveQueries) -> bool {
    inversion_free_orders(query).is_some()
}

/// Returns `true` if the instance is *ranked*: under the order of element
/// ids, the arguments of every fact are strictly increasing (Section 9). The
/// ranking transformation of \[16, 18\] that establishes this property is
/// assumed to have been applied upstream.
fn is_ranked_instance(instance: &Instance) -> bool {
    instance
        .facts()
        .all(|(_, fact)| fact.arguments().windows(2).all(|w| w[0].0 < w[1].0))
}

/// The result of unfolding an instance for an inversion-free UCQ
/// (Theorem 9.7).
pub struct Unfolding {
    /// The unfolded instance `I'`.
    pub instance: Instance,
    /// For every fact of the original instance, the corresponding fact of the
    /// unfolded one (the bijection of Definition 9.2).
    pub fact_map: BTreeMap<FactId, FactId>,
    /// The elimination forest on the unfolded instance's domain witnessing
    /// tree-depth ≤ arity(σ).
    pub elimination_forest: EliminationForest,
    /// The tree-depth bound witnessed by the forest.
    pub tree_depth: usize,
}

/// Unfolds a ranked instance along per-relation attribute orders
/// (Theorem 9.7): every fact `R(a)` is rewritten to `R(b)` where the element
/// at the `j`-th position (in `<_R` order) becomes the *tuple of the first
/// `j` elements* — distinct prefixes become distinct elements, so joins that
/// the inversion-free query cannot "see" are undone and the Gaifman graph
/// becomes a forest of depth at most `arity(σ)`.
pub fn unfold(instance: &Instance, orders: &AttributeOrders) -> Unfolding {
    assert!(
        is_ranked_instance(instance),
        "unfolding requires a ranked instance (apply the ranking transformation first)"
    );
    let signature = instance.signature().clone();
    let mut unfolded = Instance::new(signature.clone());
    let mut prefix_elements: BTreeMap<Vec<Element>, Element> = BTreeMap::new();
    let mut parent_of: BTreeMap<Element, Option<Element>> = BTreeMap::new();
    let mut next_element: u64 = 0;
    let mut intern = |prefix: Vec<Element>,
                      prefix_elements: &mut BTreeMap<Vec<Element>, Element>,
                      parent_of: &mut BTreeMap<Element, Option<Element>>|
     -> Element {
        if let Some(&e) = prefix_elements.get(&prefix) {
            return e;
        }
        let e = Element(next_element);
        next_element += 1;
        let parent = if prefix.len() > 1 {
            let parent_prefix = prefix[..prefix.len() - 1].to_vec();
            Some(
                *prefix_elements
                    .get(&parent_prefix)
                    .expect("parent prefix interned first"),
            )
        } else {
            None
        };
        prefix_elements.insert(prefix, e);
        parent_of.insert(e, parent);
        e
    };

    let mut fact_map = BTreeMap::new();
    for (id, fact) in instance.facts() {
        let order = orders
            .get(&fact.relation())
            .cloned()
            .unwrap_or_else(|| (0..fact.arguments().len()).collect());
        // Build the prefix elements in <_R order, then place them back at
        // their original positions.
        let mut new_args: Vec<Element> = vec![Element(0); fact.arguments().len()];
        let mut prefix: Vec<Element> = Vec::new();
        for &position in &order {
            prefix.push(fact.arguments()[position]);
            let element = intern(prefix.clone(), &mut prefix_elements, &mut parent_of);
            new_args[position] = element;
        }
        let new_id = unfolded.add_fact(fact.relation(), new_args);
        fact_map.insert(id, new_id);
    }

    // Elimination forest on the unfolded domain: parent = longest strict
    // prefix. Vertices of the forest are indices into the sorted domain of
    // the unfolded instance (matching its Gaifman graph's vertex numbering).
    let domain: Vec<Element> = unfolded.domain().into_iter().collect();
    let index_of: BTreeMap<Element, usize> =
        domain.iter().enumerate().map(|(i, &e)| (e, i)).collect();
    let parents: Vec<Option<usize>> = domain
        .iter()
        .map(|e| parent_of.get(e).and_then(|p| p.map(|pe| index_of[&pe])))
        .collect();
    let forest = EliminationForest::new(parents);
    let tree_depth = forest.height();

    Unfolding {
        instance: unfolded,
        fact_map,
        elimination_forest: forest,
        tree_depth,
    }
}

/// Convenience: unfold an instance for a given inversion-free query
/// (computing the attribute orders first). Returns `None` if the query is
/// not inversion-free.
pub fn unfold_for_query(
    query: &UnionOfConjunctiveQueries,
    instance: &Instance,
) -> Option<Unfolding> {
    let orders = inversion_free_orders(query)?;
    Some(unfold(instance, &orders))
}

/// Checks Lemma 9.5 on a concrete (small) input: the query has the same
/// lineage on the instance and on its unfolding, under the fact bijection.
/// Brute force over all worlds; limited to 18 facts.
pub fn lineage_preserved(
    query: &UnionOfConjunctiveQueries,
    instance: &Instance,
    unfolding: &Unfolding,
) -> bool {
    let n = instance.fact_count();
    assert!(n <= 18, "lineage preservation check limited to 18 facts");
    for mask in 0u64..(1u64 << n) {
        let world: BTreeSet<FactId> = (0..n).filter(|i| mask >> i & 1 == 1).map(FactId).collect();
        let image: BTreeSet<FactId> = world.iter().map(|f| unfolding.fact_map[f]).collect();
        let on_original = matching::satisfied_in_world(query, instance, &world);
        let on_unfolded = matching::satisfied_in_world(query, &unfolding.instance, &image);
        if on_original != on_unfolded {
            return false;
        }
    }
    true
}

/// The pathwidth upper bound of the unfolded instance's Gaifman graph — by
/// Theorem 9.7 and pathwidth ≤ tree-depth − 1 this is below `arity(σ)`.
pub fn unfolded_pathwidth(unfolding: &Unfolding) -> usize {
    let (graph, _) = unfolding.instance.gaifman_graph();
    treewidth::pathwidth_upper_bound(&graph).0
}

/// Returns `true` if the given self-join-free CQ is safe in the sense of the
/// Dalvi–Suciu dichotomy \[19\]: for self-join-free conjunctive queries,
/// safety coincides with being hierarchical. Used by the examples to connect
/// the two tractability conditions.
pub fn is_safe_self_join_free_cq(query: &ConjunctiveQuery) -> bool {
    query.is_self_join_free() && query.is_hierarchical()
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelineage::LineageBuilder;
    use treelineage_instance::{encodings, Signature};
    use treelineage_query::parse_query;

    fn rs_signature() -> Signature {
        Signature::builder()
            .relation("R", 1)
            .relation("S", 2)
            .build()
    }

    #[test]
    fn hierarchical_queries_are_inversion_free() {
        let sig = rs_signature();
        // R(x), S(x, y): hierarchical; the order on S must visit position 0
        // (x, the root variable) first.
        let q = parse_query(&sig, "R(x), S(x, y)").unwrap();
        let orders = inversion_free_orders(&q).expect("inversion-free");
        let s = sig.relation_by_name("S").unwrap();
        assert_eq!(orders[&s], vec![0, 1]);
        assert!(is_inversion_free(&q));
    }

    #[test]
    fn non_hierarchical_query_is_not_inversion_free() {
        let sig = Signature::builder()
            .relation("R", 1)
            .relation("S", 2)
            .relation("T", 1)
            .build();
        let q = parse_query(&sig, "R(x), S(x, y), T(y)").unwrap();
        assert!(!is_inversion_free(&q));
    }

    #[test]
    fn reversed_hierarchy_finds_reversed_order() {
        let sig = rs_signature();
        // R(y), S(x, y): the root variable of S is y, at position 1.
        let q = parse_query(&sig, "R(y), S(x, y)").unwrap();
        let orders = inversion_free_orders(&q).expect("inversion-free");
        let s = sig.relation_by_name("S").unwrap();
        assert_eq!(orders[&s], vec![1, 0]);
    }

    #[test]
    fn ranked_instance_detection() {
        let sig = rs_signature();
        let mut ranked = Instance::new(sig.clone());
        ranked.add_fact_by_name("S", &[1, 2]);
        ranked.add_fact_by_name("R", &[1]);
        assert!(is_ranked_instance(&ranked));
        let mut unranked = Instance::new(sig);
        unranked.add_fact_by_name("S", &[2, 1]);
        assert!(!is_ranked_instance(&unranked));
    }

    #[test]
    fn unfolding_reduces_treedepth_and_preserves_lineage() {
        // A "star join" instance with high connectivity through shared second
        // attributes: S(a, c) for a in {1,2,3}, c in {4,5,6}, plus R(a).
        // The query R(x), S(x, y) is inversion-free; the unfolding must have
        // tree-depth <= 2 and identical lineage.
        let sig = rs_signature();
        let mut inst = Instance::new(sig.clone());
        for a in 1u64..=3 {
            inst.add_fact_by_name("R", &[a]);
            for c in 4u64..=6 {
                inst.add_fact_by_name("S", &[a, c]);
            }
        }
        let q = parse_query(&sig, "R(x), S(x, y)").unwrap();
        let unfolding = unfold_for_query(&q, &inst).expect("inversion-free");
        assert!(unfolding.tree_depth <= sig.max_arity());
        assert!(unfolding
            .elimination_forest
            .validate(&unfolding.instance.gaifman_graph().0)
            .is_ok());
        assert!(lineage_preserved(&q, &inst, &unfolding));
        assert!(unfolded_pathwidth(&unfolding) < sig.max_arity());
        // Fact counts match (the unfolding is a bijection on facts).
        assert_eq!(unfolding.instance.fact_count(), inst.fact_count());
    }

    #[test]
    fn unfolding_splits_joins_the_query_cannot_see() {
        // Two S-facts sharing their *second* attribute: S(1, 3), S(2, 3).
        // For the query R(x), S(x, y) (root variable x = position 0), the
        // join on position 1 is invisible, so the unfolding separates element
        // 3 into two copies and the Gaifman graph becomes two disjoint edges.
        let sig = rs_signature();
        let mut inst = Instance::new(sig.clone());
        inst.add_fact_by_name("S", &[1, 3]);
        inst.add_fact_by_name("S", &[2, 3]);
        inst.add_fact_by_name("R", &[1]);
        let q = parse_query(&sig, "R(x), S(x, y)").unwrap();
        let unfolding = unfold_for_query(&q, &inst).unwrap();
        assert!(unfolding.instance.domain_size() > inst.domain_size());
        assert!(lineage_preserved(&q, &inst, &unfolding));
        let (graph, _) = unfolding.instance.gaifman_graph();
        assert!(!graph.has_cycle());
    }

    #[test]
    fn unfolded_lineage_has_constant_width_obdd() {
        // Theorem 9.6 via Theorem 9.7: the OBDD width of an inversion-free
        // UCQ on the unfolded (bounded-pathwidth) instance stays constant as
        // the instance grows.
        let sig = rs_signature();
        let q = parse_query(&sig, "R(x), S(x, y)").unwrap();
        let mut widths = Vec::new();
        for n in [3u64, 6, 9] {
            let mut inst = Instance::new(sig.clone());
            for a in 1..=n {
                inst.add_fact_by_name("R", &[a]);
                for c in 1..=3u64 {
                    inst.add_fact_by_name("S", &[a, n + c]);
                }
            }
            let unfolding = unfold_for_query(&q, &inst).unwrap();
            let builder = LineageBuilder::new(&q, &unfolding.instance).unwrap();
            let (manager, root) = builder.dd();
            widths.push(manager.width(root));
        }
        assert_eq!(widths[1], widths[2], "widths {widths:?}");
    }

    #[test]
    fn safety_of_self_join_free_cqs() {
        let sig = Signature::builder()
            .relation("R", 1)
            .relation("S", 2)
            .relation("T", 1)
            .build();
        let unsafe_q = parse_query(&sig, "R(x), S(x, y), T(y)").unwrap();
        assert!(!is_safe_self_join_free_cq(&unsafe_q.disjuncts()[0]));
        let safe_q = parse_query(&sig, "R(x), S(x, y)").unwrap();
        assert!(is_safe_self_join_free_cq(&safe_q.disjuncts()[0]));
    }

    #[test]
    fn unfolding_on_grid_instances_flattens_them() {
        // Even on a grid (unbounded treewidth family), the unfolding for an
        // inversion-free query produces a bounded tree-depth instance.
        let sig = Signature::builder().relation("S", 2).build();
        let s = sig.relation_by_name("S").unwrap();
        let inst = encodings::grid_instance(&sig, s, 3, 3);
        assert!(is_ranked_instance(&inst));
        let q = parse_query(&sig, "S(x, y)").unwrap();
        let unfolding = unfold_for_query(&q, &inst).unwrap();
        assert!(unfolding.tree_depth <= 2);
        assert!(lineage_preserved(&q, &inst, &unfolding));
    }
}
