//! Relational instances (Section 2 of the paper).
//!
//! An instance is a finite set of ground facts over a signature, with the
//! active-domain semantics: the domain is exactly the set of elements
//! occurring in facts. Subinstances are subsets of the fact set; the Gaifman
//! graph connects any two elements co-occurring in a fact, and the treewidth /
//! pathwidth of an instance are those of its Gaifman graph.

use crate::signature::{RelationId, Signature};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use treelineage_graph::{Graph, TreeDecomposition, Vertex};

/// A domain element. Elements are plain integers, displayed as `e<id>`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Element(pub u64);

/// Identifier of a fact within an [`Instance`] (a dense index; subinstances
/// are expressed as fact-id subsets). Ids are stable under insertion; the only
/// operation that renumbers is [`Instance::remove_fact`], which swap-removes:
/// the last fact (and only it) moves into the vacated id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FactId(pub usize);

/// A ground fact `R(a_1, ..., a_k)`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Fact {
    relation: RelationId,
    arguments: Vec<Element>,
}

impl Fact {
    /// Creates a fact.
    pub fn new(relation: RelationId, arguments: Vec<Element>) -> Self {
        Fact {
            relation,
            arguments,
        }
    }

    /// The fact's relation.
    pub fn relation(&self) -> RelationId {
        self.relation
    }

    /// The fact's arguments.
    pub fn arguments(&self) -> &[Element] {
        &self.arguments
    }

    /// The set of distinct elements occurring in the fact.
    pub fn elements(&self) -> BTreeSet<Element> {
        self.arguments.iter().copied().collect()
    }
}

/// A relational instance: a set of facts over a signature.
#[derive(Clone, Debug)]
pub struct Instance {
    signature: Signature,
    facts: Vec<Fact>,
    index: HashMap<Fact, FactId>,
}

impl Instance {
    /// Creates an empty instance over the given signature.
    pub fn new(signature: Signature) -> Self {
        Instance {
            signature,
            facts: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// The instance's signature.
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// Number of facts (the paper's `|I|`).
    pub fn fact_count(&self) -> usize {
        self.facts.len()
    }

    /// Adds a fact, returning its id. Adding a fact that is already present
    /// returns the existing id. Panics if the arity does not match the
    /// signature.
    pub fn add_fact(&mut self, relation: RelationId, arguments: Vec<Element>) -> FactId {
        assert_eq!(
            arguments.len(),
            self.signature.arity(relation),
            "arity mismatch for relation {}",
            self.signature.relation(relation).name()
        );
        let fact = Fact::new(relation, arguments);
        if let Some(&id) = self.index.get(&fact) {
            return id;
        }
        let id = FactId(self.facts.len());
        self.index.insert(fact.clone(), id);
        self.facts.push(fact);
        id
    }

    /// Removes the fact with the given id and returns it, with swap-remove
    /// semantics: the last fact moves into the vacated id, so only that one
    /// fact is renumbered and every other id stays stable. Returns the fact
    /// id the previously-last fact moved *from* (it now lives at `id`), or
    /// `None` when the removed fact was itself last. Panics if `id` is out of
    /// range.
    pub fn remove_fact(&mut self, id: FactId) -> (Fact, Option<FactId>) {
        assert!(id.0 < self.facts.len(), "fact id out of range");
        let removed = self.facts.swap_remove(id.0);
        self.index.remove(&removed);
        if id.0 < self.facts.len() {
            self.index.insert(self.facts[id.0].clone(), id);
            (removed, Some(FactId(self.facts.len())))
        } else {
            (removed, None)
        }
    }

    /// Convenience: adds a fact by relation name.
    pub fn add_fact_by_name(&mut self, relation: &str, arguments: &[u64]) -> FactId {
        let rel = self
            .signature
            .relation_by_name(relation)
            .unwrap_or_else(|| panic!("unknown relation {relation:?}"));
        self.add_fact(rel, arguments.iter().map(|&a| Element(a)).collect())
    }

    /// The fact with the given id.
    pub fn fact(&self, id: FactId) -> &Fact {
        &self.facts[id.0]
    }

    /// All facts with their ids.
    pub fn facts(&self) -> impl Iterator<Item = (FactId, &Fact)> {
        self.facts.iter().enumerate().map(|(i, f)| (FactId(i), f))
    }

    /// All fact ids.
    pub fn fact_ids(&self) -> impl Iterator<Item = FactId> {
        (0..self.facts.len()).map(FactId)
    }

    /// Returns the id of a fact if it is present.
    pub fn fact_id(&self, relation: RelationId, arguments: &[Element]) -> Option<FactId> {
        self.index
            .get(&Fact::new(relation, arguments.to_vec()))
            .copied()
    }

    /// Returns `true` if the given fact is present.
    pub fn contains(&self, relation: RelationId, arguments: &[Element]) -> bool {
        self.fact_id(relation, arguments).is_some()
    }

    /// The facts of a given relation.
    pub fn facts_of(&self, relation: RelationId) -> Vec<FactId> {
        self.facts()
            .filter(|(_, f)| f.relation() == relation)
            .map(|(id, _)| id)
            .collect()
    }

    /// The active domain: all elements occurring in facts, sorted.
    pub fn domain(&self) -> BTreeSet<Element> {
        self.facts
            .iter()
            .flat_map(|f| f.arguments().iter().copied())
            .collect()
    }

    /// Size of the active domain.
    pub fn domain_size(&self) -> usize {
        self.domain().len()
    }

    /// The subinstance consisting of the given facts (an instance in its own
    /// right, with fresh fact ids in the order given by `keep`).
    pub fn subinstance(&self, keep: &BTreeSet<FactId>) -> Instance {
        let mut sub = Instance::new(self.signature.clone());
        for (id, fact) in self.facts() {
            if keep.contains(&id) {
                sub.add_fact(fact.relation(), fact.arguments().to_vec());
            }
        }
        sub
    }

    /// The Gaifman graph of the instance, together with the mapping from
    /// graph vertices to domain elements. Elements co-occurring in a fact are
    /// connected; elements occurring only in unary facts become isolated
    /// vertices of the graph.
    pub fn gaifman_graph(&self) -> (Graph, Vec<Element>) {
        let domain: Vec<Element> = self.domain().into_iter().collect();
        let index: BTreeMap<Element, Vertex> =
            domain.iter().enumerate().map(|(i, &e)| (e, i)).collect();
        let mut graph = Graph::new(domain.len());
        for fact in &self.facts {
            let elements: Vec<Element> = fact.elements().into_iter().collect();
            for i in 0..elements.len() {
                for j in i + 1..elements.len() {
                    graph.add_edge(index[&elements[i]], index[&elements[j]]);
                }
            }
        }
        (graph, domain)
    }

    /// Treewidth upper bound of the instance (heuristic on the Gaifman
    /// graph), together with a tree decomposition expressed over domain
    /// elements (as bags of elements).
    pub fn treewidth_upper_bound(&self) -> (usize, Vec<BTreeSet<Element>>, TreeDecomposition) {
        let (graph, domain) = self.gaifman_graph();
        let (width, td) = treelineage_graph::treewidth::treewidth_upper_bound(&graph);
        let bags = td
            .bags()
            .iter()
            .map(|bag| bag.iter().map(|&v| domain[v]).collect())
            .collect();
        (width, bags, td)
    }

    /// Returns `true` if `other` is a subinstance of `self` (every fact of
    /// `other` is a fact of `self`).
    pub fn includes(&self, other: &Instance) -> bool {
        other.facts.iter().all(|f| self.index.contains_key(f))
    }

    /// Finds a homomorphism from `self` to `other` (a map on domain elements
    /// preserving all facts), if one exists. Backtracking search; exponential
    /// in the worst case but fine for the test-scale instances where it is
    /// used (isomorphism checks, unfolding verification).
    pub fn homomorphism_to(&self, other: &Instance) -> Option<BTreeMap<Element, Element>> {
        self.find_homomorphism(other, false)
    }

    /// Like [`Instance::homomorphism_to`] but requires the mapping to be
    /// injective on domain elements.
    fn injective_homomorphism_to(&self, other: &Instance) -> Option<BTreeMap<Element, Element>> {
        self.find_homomorphism(other, true)
    }

    fn find_homomorphism(
        &self,
        other: &Instance,
        injective: bool,
    ) -> Option<BTreeMap<Element, Element>> {
        let domain: Vec<Element> = self.domain().into_iter().collect();
        let target_domain: Vec<Element> = other.domain().into_iter().collect();
        let mut assignment: BTreeMap<Element, Element> = BTreeMap::new();
        if self.extend_homomorphism(
            &domain,
            0,
            &target_domain,
            other,
            injective,
            &mut assignment,
        ) {
            Some(assignment)
        } else {
            None
        }
    }

    fn extend_homomorphism(
        &self,
        domain: &[Element],
        next: usize,
        target_domain: &[Element],
        other: &Instance,
        injective: bool,
        assignment: &mut BTreeMap<Element, Element>,
    ) -> bool {
        if next == domain.len() {
            return true;
        }
        let e = domain[next];
        for &candidate in target_domain {
            if injective && assignment.values().any(|&v| v == candidate) {
                continue;
            }
            assignment.insert(e, candidate);
            if self.assignment_consistent(other, assignment)
                && self.extend_homomorphism(
                    domain,
                    next + 1,
                    target_domain,
                    other,
                    injective,
                    assignment,
                )
            {
                return true;
            }
            assignment.remove(&e);
        }
        false
    }

    fn assignment_consistent(
        &self,
        other: &Instance,
        assignment: &BTreeMap<Element, Element>,
    ) -> bool {
        for fact in &self.facts {
            if fact.arguments().iter().all(|a| assignment.contains_key(a)) {
                let image: Vec<Element> = fact.arguments().iter().map(|a| assignment[a]).collect();
                if !other.contains(fact.relation(), &image) {
                    return false;
                }
            }
        }
        true
    }

    /// Returns `true` if the two instances are isomorphic (there is a
    /// bijective homomorphism whose inverse is also a homomorphism).
    /// Exponential; intended for small test instances.
    pub fn isomorphic_to(&self, other: &Instance) -> bool {
        if self.fact_count() != other.fact_count() || self.domain_size() != other.domain_size() {
            return false;
        }
        // An injective homomorphism between instances of equal domain size
        // maps distinct facts to distinct facts; with equal fact counts it is
        // therefore surjective on facts, so its inverse is a homomorphism too.
        self.injective_homomorphism_to(other).is_some()
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        for fact in &self.facts {
            let args: Vec<String> = fact
                .arguments()
                .iter()
                .map(|&a| format!("e{}", a.0))
                .collect();
            parts.push(format!(
                "{}({})",
                self.signature.relation(fact.relation()).name(),
                args.join(", ")
            ));
        }
        write!(f, "{{{}}}", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rst_signature() -> Signature {
        Signature::builder()
            .relation("R", 1)
            .relation("S", 2)
            .relation("T", 1)
            .build()
    }

    #[test]
    fn remove_fact_swaps_the_last_fact_into_the_hole() {
        let sig = rst_signature();
        let mut inst = Instance::new(sig.clone());
        let r = inst.add_fact_by_name("R", &[1]);
        let s = inst.add_fact_by_name("S", &[1, 2]);
        let t = inst.add_fact_by_name("T", &[2]);

        // Removing a middle fact moves the last fact into its slot.
        let (removed, moved) = inst.remove_fact(s);
        assert_eq!(removed.arguments(), &[Element(1), Element(2)]);
        assert_eq!(moved, Some(t));
        assert_eq!(inst.fact_count(), 2);
        assert!(!inst.contains(removed.relation(), removed.arguments()));
        // The moved fact is findable at its new id, the untouched one stays.
        let t_rel = sig.relation_by_name("T").unwrap();
        assert_eq!(inst.fact_id(t_rel, &[Element(2)]), Some(s));
        let r_rel = sig.relation_by_name("R").unwrap();
        assert_eq!(inst.fact_id(r_rel, &[Element(1)]), Some(r));

        // Removing the last fact moves nothing.
        let (removed, moved) = inst.remove_fact(FactId(1));
        assert_eq!(removed.arguments(), &[Element(2)]);
        assert_eq!(moved, None);
        assert_eq!(inst.fact_count(), 1);

        // Re-inserting a removed fact reuses the dense tail slot.
        let id = inst.add_fact(t_rel, vec![Element(2)]);
        assert_eq!(id, FactId(1));
    }

    #[test]
    fn add_and_query_facts() {
        let sig = rst_signature();
        let mut inst = Instance::new(sig.clone());
        let f1 = inst.add_fact_by_name("R", &[1]);
        let f2 = inst.add_fact_by_name("S", &[1, 2]);
        let f3 = inst.add_fact_by_name("T", &[2]);
        assert_eq!(inst.fact_count(), 3);
        assert_ne!(f1, f2);
        assert_ne!(f2, f3);
        let s = sig.relation_by_name("S").unwrap();
        assert!(inst.contains(s, &[Element(1), Element(2)]));
        assert!(!inst.contains(s, &[Element(2), Element(1)]));
        assert_eq!(inst.domain_size(), 2);
        assert_eq!(inst.facts_of(s), vec![f2]);
    }

    #[test]
    fn adding_duplicate_fact_is_idempotent() {
        let mut inst = Instance::new(rst_signature());
        let a = inst.add_fact_by_name("R", &[7]);
        let b = inst.add_fact_by_name("R", &[7]);
        assert_eq!(a, b);
        assert_eq!(inst.fact_count(), 1);
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let mut inst = Instance::new(rst_signature());
        inst.add_fact_by_name("R", &[1, 2]);
    }

    #[test]
    fn subinstance_and_inclusion() {
        let mut inst = Instance::new(rst_signature());
        let f1 = inst.add_fact_by_name("R", &[1]);
        let _f2 = inst.add_fact_by_name("S", &[1, 2]);
        let keep: BTreeSet<FactId> = [f1].into_iter().collect();
        let sub = inst.subinstance(&keep);
        assert_eq!(sub.fact_count(), 1);
        assert!(inst.includes(&sub));
        assert!(!sub.includes(&inst));
        // Active domain of the subinstance shrinks (active-domain semantics).
        assert_eq!(sub.domain_size(), 1);
    }

    #[test]
    fn gaifman_graph_of_rst_path() {
        // R(1), S(1,2), T(2): Gaifman graph is a single edge {1, 2}.
        let mut inst = Instance::new(rst_signature());
        inst.add_fact_by_name("R", &[1]);
        inst.add_fact_by_name("S", &[1, 2]);
        inst.add_fact_by_name("T", &[2]);
        let (g, domain) = inst.gaifman_graph();
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(domain, vec![Element(1), Element(2)]);
    }

    #[test]
    fn gaifman_graph_of_ternary_fact_is_a_triangle() {
        let sig = Signature::builder().relation("T3", 3).build();
        let mut inst = Instance::new(sig);
        inst.add_fact_by_name("T3", &[1, 2, 3]);
        let (g, _) = inst.gaifman_graph();
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn treewidth_of_chain_instance_is_one() {
        let sig = Signature::builder().relation("S", 2).build();
        let mut inst = Instance::new(sig);
        for i in 0..10u64 {
            inst.add_fact_by_name("S", &[i, i + 1]);
        }
        let (w, bags, _) = inst.treewidth_upper_bound();
        assert_eq!(w, 1);
        assert!(!bags.is_empty());
    }

    #[test]
    fn homomorphism_and_isomorphism() {
        let sig = Signature::builder().relation("S", 2).build();
        let mut path2 = Instance::new(sig.clone());
        path2.add_fact_by_name("S", &[1, 2]);
        path2.add_fact_by_name("S", &[2, 3]);

        let mut loop1 = Instance::new(sig.clone());
        loop1.add_fact_by_name("S", &[5, 5]);

        // The path maps homomorphically onto the loop, not vice versa? Both
        // actually do: the loop maps anywhere an S-loop exists, which the path
        // lacks, so loop -> path has no homomorphism.
        assert!(path2.homomorphism_to(&loop1).is_some());
        assert!(loop1.homomorphism_to(&path2).is_none());

        let mut path2_renamed = Instance::new(sig.clone());
        path2_renamed.add_fact_by_name("S", &[10, 20]);
        path2_renamed.add_fact_by_name("S", &[20, 30]);
        assert!(path2.isomorphic_to(&path2_renamed));
        assert!(!path2.isomorphic_to(&loop1));
    }
}
