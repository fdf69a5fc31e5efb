//! Homomorphisms, matches and minimal matches of UCQ≠ queries
//! (Section 2 of the paper).
//!
//! A homomorphism from a CQ≠ to an instance maps query variables to domain
//! elements so that every relational atom becomes a fact of the instance and
//! every disequality is satisfied. A *match* is the set of facts that is the
//! image of some homomorphism; a *minimal match* is a match minimal under
//! inclusion. Matches drive everything downstream: query evaluation, lineage
//! construction (the lineage of a UCQ≠ is the disjunction over matches of the
//! conjunction of their facts), and the intricacy test of Section 8.

use crate::cq::{ConjunctiveQuery, UnionOfConjunctiveQueries, Variable};
use std::collections::{BTreeMap, BTreeSet};
use treelineage_instance::{Element, FactId, Instance};

/// A homomorphism from a CQ≠ to an instance: an assignment of its variables.
pub type Homomorphism = BTreeMap<Variable, Element>;

/// Enumerates all homomorphisms from `query` to `instance`, restricted to the
/// facts in `world` (pass all fact ids for the full instance). Backtracking
/// over atoms in order, with the candidate facts filtered per relation.
fn homomorphisms_in_world(
    query: &ConjunctiveQuery,
    instance: &Instance,
    world: &BTreeSet<FactId>,
) -> Vec<Homomorphism> {
    let mut results = Vec::new();
    let mut assignment: Homomorphism = BTreeMap::new();
    let facts_by_relation: BTreeMap<_, Vec<FactId>> = {
        let mut map: BTreeMap<_, Vec<FactId>> = BTreeMap::new();
        for &id in world {
            map.entry(instance.fact(id).relation())
                .or_default()
                .push(id);
        }
        map
    };
    extend(
        query,
        instance,
        &facts_by_relation,
        0,
        &mut assignment,
        &mut results,
    );
    results
}

fn extend(
    query: &ConjunctiveQuery,
    instance: &Instance,
    facts_by_relation: &BTreeMap<treelineage_instance::RelationId, Vec<FactId>>,
    atom_index: usize,
    assignment: &mut Homomorphism,
    results: &mut Vec<Homomorphism>,
) {
    if atom_index == query.atoms().len() {
        // Check disequalities (all variables are now assigned, since every
        // disequality variable occurs in some atom).
        for &(x, y) in query.disequalities() {
            if assignment[&x] == assignment[&y] {
                return;
            }
        }
        results.push(assignment.clone());
        return;
    }
    let atom = &query.atoms()[atom_index];
    let candidates = facts_by_relation
        .get(&atom.relation)
        .map(|v| v.as_slice())
        .unwrap_or(&[]);
    'facts: for &fact_id in candidates {
        let fact = instance.fact(fact_id);
        // Try to unify the atom with the fact.
        let mut newly_bound = Vec::new();
        for (var, &value) in atom.arguments.iter().zip(fact.arguments()) {
            match assignment.get(var) {
                Some(&bound) if bound != value => {
                    for v in newly_bound {
                        assignment.remove(&v);
                    }
                    continue 'facts;
                }
                Some(_) => {}
                None => {
                    assignment.insert(*var, value);
                    newly_bound.push(*var);
                }
            }
        }
        extend(
            query,
            instance,
            facts_by_relation,
            atom_index + 1,
            assignment,
            results,
        );
        for v in newly_bound {
            assignment.remove(&v);
        }
    }
}

/// The match induced by a homomorphism: the set of facts that are images of
/// the query's atoms.
fn match_of(
    query: &ConjunctiveQuery,
    instance: &Instance,
    homomorphism: &Homomorphism,
) -> BTreeSet<FactId> {
    query
        .atoms()
        .iter()
        .map(|atom| {
            let image: Vec<Element> = atom.arguments.iter().map(|v| homomorphism[v]).collect();
            instance
                .fact_id(atom.relation, &image)
                .expect("homomorphism image must be a fact")
        })
        .collect()
}

/// All matches of a UCQ≠ on an instance (each reported once).
pub fn all_matches(
    query: &UnionOfConjunctiveQueries,
    instance: &Instance,
) -> BTreeSet<BTreeSet<FactId>> {
    let world: BTreeSet<FactId> = instance.fact_ids().collect();
    let mut matches = BTreeSet::new();
    for disjunct in query.disjuncts() {
        for hom in homomorphisms_in_world(disjunct, instance, &world) {
            matches.insert(match_of(disjunct, instance, &hom));
        }
    }
    matches
}

/// The minimal matches of a UCQ≠ on an instance: matches minimal under
/// inclusion (Section 2; intricacy is defined through them).
pub fn minimal_matches(
    query: &UnionOfConjunctiveQueries,
    instance: &Instance,
) -> BTreeSet<BTreeSet<FactId>> {
    let matches = all_matches(query, instance);
    matches
        .iter()
        .filter(|m| {
            !matches
                .iter()
                .any(|other| other != *m && other.is_subset(m))
        })
        .cloned()
        .collect()
}

/// Evaluates a UCQ≠ on the subinstance given by `world`.
pub fn satisfied_in_world(
    query: &UnionOfConjunctiveQueries,
    instance: &Instance,
    world: &BTreeSet<FactId>,
) -> bool {
    query
        .disjuncts()
        .iter()
        .any(|disjunct| !homomorphisms_in_world(disjunct, instance, world).is_empty())
}

/// Evaluates a UCQ≠ on the full instance.
pub fn satisfied(query: &UnionOfConjunctiveQueries, instance: &Instance) -> bool {
    let world: BTreeSet<FactId> = instance.fact_ids().collect();
    satisfied_in_world(query, instance, &world)
}

/// Checks monotonicity semantically on a specific instance family sample: for
/// every world `W ⊆ W'`, satisfaction in `W` implies satisfaction in `W'`.
/// UCQ≠ queries are always monotone; this is used in tests as a sanity check
/// of the evaluator itself. Exponential; requires at most 15 facts.
pub fn check_monotone_on(query: &UnionOfConjunctiveQueries, instance: &Instance) -> bool {
    let n = instance.fact_count();
    assert!(n <= 15, "monotonicity check limited to 15 facts");
    let satisfied_masks: Vec<bool> = (0u32..(1 << n))
        .map(|mask| {
            let world: BTreeSet<FactId> =
                (0..n).filter(|i| mask >> i & 1 == 1).map(FactId).collect();
            satisfied_in_world(query, instance, &world)
        })
        .collect();
    for mask in 0u32..(1 << n) {
        if !satisfied_masks[mask as usize] {
            continue;
        }
        for sup in 0u32..(1 << n) {
            if mask & sup == mask && !satisfied_masks[sup as usize] {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq::parse_query;
    use treelineage_instance::Signature;

    fn rst() -> Signature {
        Signature::builder()
            .relation("R", 1)
            .relation("S", 2)
            .relation("T", 1)
            .build()
    }

    fn rst_instance() -> Instance {
        // R(1), S(1,2), T(2), S(2,3)
        let mut inst = Instance::new(rst());
        inst.add_fact_by_name("R", &[1]);
        inst.add_fact_by_name("S", &[1, 2]);
        inst.add_fact_by_name("T", &[2]);
        inst.add_fact_by_name("S", &[2, 3]);
        inst
    }

    #[test]
    fn simple_query_evaluation() {
        let inst = rst_instance();
        let q = parse_query(&rst(), "R(x), S(x, y), T(y)").unwrap();
        assert!(satisfied(&q, &inst));
        let q2 = parse_query(&rst(), "T(x), S(x, y), R(y)").unwrap();
        assert!(!satisfied(&q2, &inst));
    }

    #[test]
    fn homomorphism_enumeration() {
        let inst = rst_instance();
        let world: BTreeSet<FactId> = inst.fact_ids().collect();
        let q = parse_query(&rst(), "S(x, y)").unwrap();
        let homs = homomorphisms_in_world(&q.disjuncts()[0], &inst, &world);
        assert_eq!(homs.len(), 2);
        let q2 = parse_query(&rst(), "S(x, y), S(y, z)").unwrap();
        let homs2 = homomorphisms_in_world(&q2.disjuncts()[0], &inst, &world);
        assert_eq!(homs2.len(), 1); // S(1,2), S(2,3)
    }

    #[test]
    fn disequalities_filter_homomorphisms() {
        let sig = Signature::builder().relation("R", 1).build();
        let mut inst = Instance::new(sig.clone());
        inst.add_fact_by_name("R", &[1]);
        inst.add_fact_by_name("R", &[2]);
        // Without the disequality there are 4 homomorphisms, with it only 2.
        let q = parse_query(&sig, "R(x), R(y)").unwrap();
        let q_neq = parse_query(&sig, "R(x), R(y), x != y").unwrap();
        let world: BTreeSet<FactId> = inst.fact_ids().collect();
        assert_eq!(
            homomorphisms_in_world(&q.disjuncts()[0], &inst, &world).len(),
            4
        );
        assert_eq!(
            homomorphisms_in_world(&q_neq.disjuncts()[0], &inst, &world).len(),
            2
        );
    }

    #[test]
    fn matches_and_minimal_matches() {
        let inst = rst_instance();
        // S(x, y) has two matches, both singletons, both minimal.
        let q = parse_query(&rst(), "S(x, y)").unwrap();
        let matches = all_matches(&q, &inst);
        assert_eq!(matches.len(), 2);
        assert_eq!(minimal_matches(&q, &inst), matches);
    }

    #[test]
    fn minimal_matches_filter_non_minimal() {
        // Query S(x, y) | S(x, y), T(y): the second disjunct's matches are
        // supersets of the first's, so only the singleton S-matches are
        // minimal.
        let inst = rst_instance();
        let q = parse_query(&rst(), "S(x, y) | S(x, y), T(y)").unwrap();
        let all = all_matches(&q, &inst);
        assert_eq!(all.len(), 3);
        let minimal = minimal_matches(&q, &inst);
        assert_eq!(minimal.len(), 2);
        assert!(minimal.iter().all(|m| m.len() == 1));
    }

    #[test]
    fn evaluation_in_restricted_worlds() {
        let inst = rst_instance();
        let q = parse_query(&rst(), "R(x), S(x, y), T(y)").unwrap();
        // Without the S(1,2) fact (id 1) the query fails.
        let world: BTreeSet<FactId> = inst.fact_ids().filter(|f| f.0 != 1).collect();
        assert!(!satisfied_in_world(&q, &inst, &world));
        // With only R(1), S(1,2), T(2) it holds.
        let world2: BTreeSet<FactId> = [0, 1, 2].into_iter().map(FactId).collect();
        assert!(satisfied_in_world(&q, &inst, &world2));
    }

    #[test]
    fn ucq_with_disequality_is_monotone() {
        let inst = rst_instance();
        let q = parse_query(&rst(), "S(x, y), S(y, z), x != z | R(x), T(y)").unwrap();
        assert!(check_monotone_on(&q, &inst));
    }

    #[test]
    fn self_join_query_on_grid_like_instance() {
        let sig = Signature::builder().relation("S", 2).build();
        let mut inst = Instance::new(sig.clone());
        // A small 2x2 grid of S-facts.
        inst.add_fact_by_name("S", &[0, 1]);
        inst.add_fact_by_name("S", &[2, 3]);
        inst.add_fact_by_name("S", &[0, 2]);
        inst.add_fact_by_name("S", &[1, 3]);
        // Path of length 2 in the Gaifman graph: S(x,y), S(y,z) with x != z,
        // or two S-facts meeting head-to-head / tail-to-tail.
        let q = parse_query(
            &sig,
            "S(x, y), S(y, z), x != z | S(x, y), S(z, y), x != z | S(y, x), S(y, z), x != z",
        )
        .unwrap();
        assert!(satisfied(&q, &inst));
        let matches = minimal_matches(&q, &inst);
        // Every minimal match has exactly 2 facts.
        assert!(matches.iter().all(|m| m.len() == 2));
        assert!(!matches.is_empty());
    }
}
