//! Tree encodings of treelike instances (Section 6 via \[2\]).
//!
//! [`encode`] turns an [`Instance`] together with a [`TreeDecomposition`] of
//! its Gaifman graph into an [`UncertainTree`] over the
//! [`EncodingAlphabet`]: the decomposition is first made *nice*
//! ([`treelineage_graph::NiceTreeDecomposition`]), its nodes become
//! structural tree labels (introduce / forget / join over bag *slots*), and
//! every fact of the instance is asserted exactly once — at the topmost node
//! whose bag covers all of its elements — through a node whose Boolean event
//! (the fact's id) switches between the `present` and `absent` labels.
//!
//! Invariants of the encoding (checked by the round-trip test suite):
//!
//! * **Slot consistency.** An element occupies one fixed slot for its whole
//!   (connected) subtree of bags, assigned top-down at the unique forget
//!   node above that subtree; two distinct slots of a bag always hold two
//!   distinct elements.
//! * **One event per fact.** Every fact of the instance labels exactly one
//!   node, controlled by the event with the fact's id; the tree's event set
//!   is exactly the instance's fact-id set.
//! * **Decodability.** The instance can be reconstructed from the tree alone
//!   up to renaming of elements ([`TreeEncoding::decode_fresh`]), and
//!   exactly when the encoder's element table is kept
//!   ([`TreeEncoding::decode`]): instantiating the events with a world
//!   (fact subset) decodes to precisely that subinstance.
//!
//! Elements appearing in no bag of the decomposition (isolated vertices of
//! the Gaifman graph, which [`TreeDecomposition::validate`] permits to be
//! uncovered) are wrapped around the root as introduce / facts / forget
//! chains, so every fact is always encoded.
//!
//! ```
//! use treelineage_encoding::encode;
//! use treelineage_graph::treewidth::treewidth_upper_bound;
//! use treelineage_instance::{FactId, Instance, Signature};
//!
//! let sig = Signature::builder().relation("E", 2).build();
//! let mut inst = Instance::new(sig);
//! inst.add_fact_by_name("E", &[0, 1]);
//! inst.add_fact_by_name("E", &[1, 2]);
//! let (graph, _) = inst.gaifman_graph();
//! let encoding = encode(&inst, &treewidth_upper_bound(&graph).1).unwrap();
//! // One Boolean event per fact (the fact's id)...
//! assert_eq!(encoding.tree().events(), vec![0, 1]);
//! // ...and instantiating a world decodes to exactly that subinstance.
//! assert_eq!(encoding.decode(&|f| f == FactId(0)).fact_count(), 1);
//! ```

use crate::alphabet::{AlphabetError, EncodingAlphabet, LabelKind};
use std::collections::BTreeMap;
use treelineage_automata::{BinaryTree, NodeId, UncertainTree};
use treelineage_graph::{NiceNode, NiceTreeDecomposition, TreeDecomposition, Vertex};
use treelineage_instance::{Element, FactId, Instance, Signature};

/// Errors reported by [`encode`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EncodingError {
    /// The decomposition is not a valid tree decomposition of the instance's
    /// Gaifman graph.
    InvalidDecomposition(String),
    /// The encoding alphabet for this signature / width is too large.
    Alphabet(AlphabetError),
}

impl std::fmt::Display for EncodingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodingError::InvalidDecomposition(e) => write!(f, "invalid decomposition: {e}"),
            EncodingError::Alphabet(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EncodingError {}

impl From<AlphabetError> for EncodingError {
    fn from(e: AlphabetError) -> Self {
        EncodingError::Alphabet(e)
    }
}

/// A tree encoding of a treelike instance: the uncertain tree, its alphabet,
/// and the bookkeeping needed for exact decoding.
#[derive(Clone, Debug)]
pub struct TreeEncoding {
    alphabet: EncodingAlphabet,
    tree: UncertainTree,
    signature: Signature,
    fact_count: usize,
    /// For every `Forget` node (top-down: the node below which the element is
    /// alive), the element it binds — the encoder's element table, used by
    /// [`TreeEncoding::decode`] for exact reconstruction.
    forget_elements: BTreeMap<usize, Element>,
}

impl TreeEncoding {
    /// The uncertain tree (events are fact ids).
    pub fn tree(&self) -> &UncertainTree {
        &self.tree
    }

    /// The alphabet the tree is labelled over.
    pub fn alphabet(&self) -> &EncodingAlphabet {
        &self.alphabet
    }

    /// Number of facts encoded (= number of events).
    pub fn fact_count(&self) -> usize {
        self.fact_count
    }

    /// Number of nodes of the encoding tree (linear in the instance size for
    /// a fixed width).
    pub fn node_count(&self) -> usize {
        self.tree.tree().node_count()
    }

    /// Decodes the tree under a world (set of present facts) back into the
    /// exact subinstance of the original: the decoded instance contains
    /// precisely the facts of the world, over the original elements.
    pub fn decode(&self, present: &dyn Fn(FactId) -> bool) -> Instance {
        self.decode_with(present, Some(&self.forget_elements))
    }

    /// Decodes the tree using only the information in the tree itself:
    /// elements are freshly numbered in top-down binding order, so the result
    /// is isomorphic to (rather than equal to) the corresponding
    /// subinstance. This is the paper's "decode" direction — the encoding is
    /// self-contained.
    pub fn decode_fresh(&self, present: &dyn Fn(FactId) -> bool) -> Instance {
        self.decode_with(present, None)
    }

    fn decode_with(
        &self,
        present: &dyn Fn(FactId) -> bool,
        elements: Option<&BTreeMap<usize, Element>>,
    ) -> Instance {
        let mut instance = Instance::new(self.signature.clone());
        let tree = self.tree.tree();
        let mut fresh = 0u64;
        // Top-down walk carrying the slot -> element binding of the current
        // bag.
        let mut stack: Vec<(NodeId, BTreeMap<usize, Element>)> =
            vec![(tree.root(), BTreeMap::new())];
        while let Some((node, bag)) = stack.pop() {
            let label = self.tree.label_under(node, &|event| present(FactId(event)));
            match self.alphabet.kind(label) {
                LabelKind::Empty => {}
                LabelKind::Join => {
                    if let Some((l, r)) = tree.children(node) {
                        stack.push((l, bag.clone()));
                        stack.push((r, bag));
                    }
                }
                LabelKind::Introduce(slot) => {
                    // Going down, the introduced element leaves the bag.
                    if let Some((l, r)) = tree.children(node) {
                        let mut below = bag.clone();
                        below.remove(&slot);
                        stack.push((l, below));
                        stack.push((r, bag));
                    }
                }
                LabelKind::Forget(slot) => {
                    // Going down, the forgotten element is born at `slot`.
                    let element = match elements {
                        Some(table) => table[&node.0],
                        None => {
                            let e = Element(fresh);
                            fresh += 1;
                            e
                        }
                    };
                    if let Some((l, r)) = tree.children(node) {
                        let mut below = bag.clone();
                        below.insert(slot, element);
                        stack.push((l, below));
                        stack.push((r, bag));
                    }
                }
                LabelKind::Fact {
                    relation,
                    slots,
                    present,
                } => {
                    if present {
                        let args: Vec<Element> = slots.iter().map(|s| bag[s]).collect();
                        instance.add_fact(relation, args);
                    }
                    if let Some((l, r)) = tree.children(node) {
                        stack.push((l, bag.clone()));
                        stack.push((r, bag));
                    }
                }
            }
        }
        instance
    }
}

/// Encodes `instance` as an uncertain tree over the alphabet derived from
/// its signature and the width of `decomposition` (a tree decomposition of
/// the instance's Gaifman graph; validated). See the module docs for the
/// construction and its invariants.
pub fn encode(
    instance: &Instance,
    decomposition: &TreeDecomposition,
) -> Result<TreeEncoding, EncodingError> {
    let (graph, _) = instance.gaifman_graph();
    decomposition
        .validate(&graph)
        .map_err(|e| EncodingError::InvalidDecomposition(e.to_string()))?;
    encode_trusted(instance, decomposition)
}

/// [`encode_trusted`] with an `encode` telemetry span around the
/// construction: the instrumented pipelines (engine sessions, the core
/// lineage builder) route through this so the encode stage shows up in
/// span aggregates; the span records nothing when `telemetry` is disabled.
pub fn encode_traced(
    instance: &Instance,
    decomposition: &TreeDecomposition,
    telemetry: &treelineage_telemetry::Telemetry,
) -> Result<TreeEncoding, EncodingError> {
    let _span = telemetry.span("encode");
    encode_trusted(instance, decomposition)
}

/// [`encode`] without the validation pass (and without building the Gaifman
/// graph at all): for callers that attest `decomposition` is a valid tree
/// decomposition of the instance's Gaifman graph — already validated (e.g.
/// `LineageBuilder::with_decomposition`) or valid by construction (the
/// heuristic upper bounds). On an invalid decomposition the encoding's
/// invariants (and the automaton pipeline's answers) are silently wrong.
pub fn encode_trusted(
    instance: &Instance,
    decomposition: &TreeDecomposition,
) -> Result<TreeEncoding, EncodingError> {
    EncodingPlan::new_trusted(instance, decomposition)?.encode(instance)
}

/// The instance-independent skeleton of a tree encoding: the nice
/// decomposition, alphabet, per-node slot assignment and bag occurrence
/// index — everything [`encode_trusted`] computes *before* it looks at the
/// fact set. A plan is a pure function of `(signature, active domain,
/// decomposition)`, so it can be built once and replayed against any
/// instance with the same signature and domain: [`EncodingPlan::encode`] is
/// then byte-identical to a fresh [`encode_trusted`] of that instance
/// (node ids, labels, and — since events are fact ids — the event of every
/// untouched fact). This is what makes localized re-encoding under updates
/// sound: insert/retract of a fact that keeps the domain fixed reuses the
/// plan, and only the fact chains change.
#[derive(Clone, Debug)]
pub struct EncodingPlan {
    signature: Signature,
    domain: Vec<Element>,
    vertex_of: BTreeMap<Element, Vertex>,
    nice: NiceTreeDecomposition,
    alphabet: EncodingAlphabet,
    depth: Vec<usize>,
    slots: Vec<BTreeMap<Vertex, usize>>,
    occurrences: BTreeMap<Vertex, Vec<usize>>,
}

impl EncodingPlan {
    /// Builds the plan for `instance`'s signature and active domain over the
    /// given (trusted, unvalidated) decomposition. Shares [`encode_trusted`]'s
    /// contract: on an invalid decomposition the downstream invariants are
    /// silently wrong.
    pub fn new_trusted(
        instance: &Instance,
        decomposition: &TreeDecomposition,
    ) -> Result<Self, EncodingError> {
        let domain: Vec<Element> = instance.domain().into_iter().collect();
        let vertex_of: BTreeMap<Element, Vertex> =
            domain.iter().enumerate().map(|(i, &e)| (e, i)).collect();

        let nice = NiceTreeDecomposition::from_tree_decomposition(decomposition);
        let alphabet = EncodingAlphabet::new(instance.signature(), nice.width())?;

        // Top-down pass over the nice decomposition: per-node depth and slot
        // assignment (element slots are fixed for a vertex's whole occurrence
        // subtree, chosen smallest-free at the unique node below its forget).
        let n = nice.node_count();
        let mut depth = vec![0usize; n];
        let mut slots: Vec<BTreeMap<Vertex, usize>> = vec![BTreeMap::new(); n];
        let mut down = vec![nice.root()];
        while let Some(id) = down.pop() {
            let sigma = slots[id].clone();
            let d = depth[id];
            match *nice.node(id) {
                NiceNode::Leaf => {}
                NiceNode::Introduce { vertex, child } => {
                    let mut below = sigma;
                    below.remove(&vertex);
                    slots[child] = below;
                    depth[child] = d + 1;
                    down.push(child);
                }
                NiceNode::Forget { vertex, child } => {
                    let mut below = sigma;
                    let free = (0..alphabet.slot_count())
                        .find(|s| !below.values().any(|&t| t == *s))
                        .expect("a width-k bag leaves a free slot");
                    below.insert(vertex, free);
                    slots[child] = below;
                    depth[child] = d + 1;
                    down.push(child);
                }
                NiceNode::Join { left, right } => {
                    slots[left] = sigma.clone();
                    slots[right] = sigma;
                    depth[left] = d + 1;
                    depth[right] = d + 1;
                    down.push(left);
                    down.push(right);
                }
            }
        }

        let mut occurrences: BTreeMap<Vertex, Vec<usize>> = BTreeMap::new();
        for id in 0..n {
            for &v in nice.bag(id) {
                occurrences.entry(v).or_default().push(id);
            }
        }

        Ok(EncodingPlan {
            signature: instance.signature().clone(),
            domain,
            vertex_of,
            nice,
            alphabet,
            depth,
            slots,
            occurrences,
        })
    }

    /// The alphabet encodings built from this plan are labelled over.
    pub fn alphabet(&self) -> &EncodingAlphabet {
        &self.alphabet
    }

    /// The active domain the plan was built for, sorted.
    pub fn domain(&self) -> &[Element] {
        &self.domain
    }

    /// Whether `element` is part of the plan's pinned domain. A fact over an
    /// element outside the domain cannot be encoded by this plan (the vertex
    /// numbering the decomposition's bags refer to would shift).
    pub fn contains_element(&self, element: Element) -> bool {
        self.vertex_of.contains_key(&element)
    }

    /// Whether a fact over the given element set can be encoded by this plan:
    /// all elements must be in the pinned domain, and a fact touching two or
    /// more distinct elements additionally needs one bag of the decomposition
    /// containing all of them (which also keeps the decomposition a valid one
    /// for the grown Gaifman graph). Nullary and single-element facts are
    /// always placeable — the root chain and the wrapped introduce/forget
    /// chains catch them.
    pub fn covers(&self, elements: &std::collections::BTreeSet<Element>) -> bool {
        if !elements.iter().all(|e| self.contains_element(*e)) {
            return false;
        }
        if elements.len() < 2 {
            return true;
        }
        let vertices: Vec<Vertex> = elements.iter().map(|e| self.vertex_of[e]).collect();
        let rarest = vertices
            .iter()
            .min_by_key(|v| self.occurrences.get(v).map_or(0, |o| o.len()))
            .copied()
            .expect("nonempty vertex list");
        match self.occurrences.get(&rarest) {
            None => false,
            Some(candidates) => candidates.iter().any(|&id| {
                let bag = self.nice.bag(id);
                vertices.iter().all(|v| bag.contains(v))
            }),
        }
    }

    /// Replays the plan against an instance, producing the same
    /// [`TreeEncoding`] a fresh [`encode_trusted`] of that instance would.
    /// The instance must have the plan's signature and exactly the plan's
    /// active domain, and every fact must be placeable ([`Self::covers`]);
    /// domain drift is reported as an [`EncodingError::InvalidDecomposition`]
    /// (the decomposition no longer matches the instance's vertex set).
    pub fn encode(&self, instance: &Instance) -> Result<TreeEncoding, EncodingError> {
        let current: Vec<Element> = instance.domain().into_iter().collect();
        if current != self.domain {
            return Err(EncodingError::InvalidDecomposition(format!(
                "encoding plan pinned to a {}-element domain, instance has {}: \
                 updates must preserve the active domain",
                self.domain.len(),
                current.len()
            )));
        }
        let element_of = &self.domain;
        let vertex_of = &self.vertex_of;
        let nice = &self.nice;
        let alphabet = &self.alphabet;
        let n = nice.node_count();

        // Attach every fact to the topmost nice node whose bag covers all of
        // its elements. Facts over elements outside every bag (isolated
        // Gaifman vertices) are collected per element and wrapped around the
        // root below.
        let mut facts_at: Vec<Vec<FactId>> = vec![Vec::new(); n];
        let mut root_facts: Vec<FactId> = Vec::new();
        let mut wrapped: BTreeMap<Element, Vec<FactId>> = BTreeMap::new();
        for (fact_id, fact) in instance.facts() {
            let vertices: Vec<Vertex> = fact.elements().iter().map(|e| vertex_of[e]).collect();
            if vertices.is_empty() {
                root_facts.push(fact_id);
                continue;
            }
            let rarest = vertices
                .iter()
                .min_by_key(|v| self.occurrences.get(v).map_or(0, |o| o.len()))
                .copied()
                .expect("nonempty vertex list");
            match self.occurrences.get(&rarest) {
                None => {
                    // Uncovered: only possible when the fact touches one
                    // isolated element (multi-element facts induce covered
                    // Gaifman edges).
                    debug_assert_eq!(vertices.len(), 1);
                    wrapped
                        .entry(element_of[vertices[0]])
                        .or_default()
                        .push(fact_id);
                }
                Some(candidates) => {
                    let node = candidates
                        .iter()
                        .copied()
                        .filter(|&id| {
                            let bag = nice.bag(id);
                            vertices.iter().all(|v| bag.contains(v))
                        })
                        .min_by_key(|&id| self.depth[id])
                        .expect("a clique of the Gaifman graph fits in some bag");
                    facts_at[node].push(fact_id);
                }
            }
        }
        for list in facts_at.iter_mut() {
            list.sort_unstable();
        }
        root_facts.sort_unstable();

        // Bottom-up construction of the binary encoding tree.
        let mut tree = BinaryTree::new();
        let mut forget_elements: BTreeMap<usize, Element> = BTreeMap::new();
        let mut fact_events: Vec<(NodeId, FactId, usize, usize)> = Vec::new();
        let mut encoded: Vec<Option<NodeId>> = vec![None; n];
        let empty = alphabet.empty();

        let push_fact_chain = |tree: &mut BinaryTree,
                               fact_events: &mut Vec<(NodeId, FactId, usize, usize)>,
                               mut acc: NodeId,
                               facts: &[FactId],
                               sigma: &BTreeMap<Vertex, usize>| {
            for &fact_id in facts {
                let fact = instance.fact(fact_id);
                let slot_tuple: Vec<usize> = fact
                    .arguments()
                    .iter()
                    .map(|e| sigma[&vertex_of[e]])
                    .collect();
                let present = alphabet.fact(fact.relation(), &slot_tuple, true);
                let absent = alphabet.fact(fact.relation(), &slot_tuple, false);
                let pad = tree.leaf(empty);
                let node = tree.internal(present, acc, pad);
                fact_events.push((node, fact_id, present, absent));
                acc = node;
            }
            acc
        };

        for id in nice.post_order() {
            let base = match *nice.node(id) {
                NiceNode::Leaf => tree.leaf(empty),
                NiceNode::Introduce { vertex, child } => {
                    let pad = tree.leaf(empty);
                    let below = encoded[child].expect("post-order");
                    tree.internal(alphabet.introduce(self.slots[id][&vertex]), below, pad)
                }
                NiceNode::Forget { vertex, child } => {
                    let pad = tree.leaf(empty);
                    let below = encoded[child].expect("post-order");
                    let node =
                        tree.internal(alphabet.forget(self.slots[child][&vertex]), below, pad);
                    forget_elements.insert(node.0, element_of[vertex]);
                    node
                }
                NiceNode::Join { left, right } => {
                    let l = encoded[left].expect("post-order");
                    let r = encoded[right].expect("post-order");
                    tree.internal(alphabet.join(), l, r)
                }
            };
            encoded[id] = Some(push_fact_chain(
                &mut tree,
                &mut fact_events,
                base,
                &facts_at[id],
                &self.slots[id],
            ));
        }

        let mut root = encoded[nice.root()].expect("root encoded");
        // Nullary facts (no elements) sit directly above the nice root.
        root = push_fact_chain(
            &mut tree,
            &mut fact_events,
            root,
            &root_facts,
            &BTreeMap::new(),
        );
        // Wrap uncovered elements: introduce at slot 0, assert their facts,
        // forget again. The fact slots all reference slot 0.
        for (&element, facts) in &wrapped {
            let pad = tree.leaf(empty);
            let intro = tree.internal(alphabet.introduce(0), root, pad);
            let sigma: BTreeMap<Vertex, usize> =
                std::iter::once((vertex_of[&element], 0usize)).collect();
            let mut facts = facts.clone();
            facts.sort_unstable();
            let chain = push_fact_chain(&mut tree, &mut fact_events, intro, &facts, &sigma);
            let pad = tree.leaf(empty);
            let forget = tree.internal(alphabet.forget(0), chain, pad);
            forget_elements.insert(forget.0, element);
            root = forget;
        }
        tree.set_root(root);

        let mut uncertain = UncertainTree::certain(tree);
        for &(node, fact_id, present, absent) in &fact_events {
            uncertain.set_event(node, fact_id.0, present, absent);
        }
        debug_assert_eq!(fact_events.len(), instance.fact_count());

        Ok(TreeEncoding {
            alphabet: alphabet.clone(),
            tree: uncertain,
            signature: self.signature.clone(),
            fact_count: instance.fact_count(),
            forget_elements,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use treelineage_instance::Signature;

    fn rst() -> Signature {
        Signature::builder()
            .relation("R", 1)
            .relation("S", 2)
            .relation("T", 1)
            .build()
    }

    fn chain(n: usize) -> Instance {
        let mut inst = Instance::new(rst());
        for i in 0..n as u64 {
            inst.add_fact_by_name("R", &[i]);
            inst.add_fact_by_name("S", &[i, i + 1]);
            inst.add_fact_by_name("T", &[i + 1]);
        }
        inst
    }

    fn heuristic_td(inst: &Instance) -> TreeDecomposition {
        let (graph, _) = inst.gaifman_graph();
        treelineage_graph::treewidth::treewidth_upper_bound(&graph).1
    }

    fn same_facts(a: &Instance, b: &Instance) -> bool {
        a.fact_count() == b.fact_count() && a.includes(b)
    }

    #[test]
    fn encode_chain_and_decode_full_world() {
        let inst = chain(4);
        let encoding = encode(&inst, &heuristic_td(&inst)).unwrap();
        assert_eq!(encoding.fact_count(), inst.fact_count());
        assert_eq!(
            encoding.tree().events(),
            (0..inst.fact_count()).collect::<Vec<_>>()
        );
        let decoded = encoding.decode(&|_| true);
        assert!(same_facts(&decoded, &inst));
    }

    #[test]
    fn decode_of_worlds_matches_subinstances() {
        let inst = chain(2);
        let encoding = encode(&inst, &heuristic_td(&inst)).unwrap();
        for mask in 0u32..(1 << inst.fact_count()) {
            let world: BTreeSet<FactId> = (0..inst.fact_count())
                .filter(|i| mask >> i & 1 == 1)
                .map(FactId)
                .collect();
            let decoded = encoding.decode(&|f| world.contains(&f));
            let expected = inst.subinstance(&world);
            assert!(same_facts(&decoded, &expected), "mask {mask}");
        }
    }

    #[test]
    fn decode_fresh_is_isomorphic() {
        let inst = chain(3);
        let encoding = encode(&inst, &heuristic_td(&inst)).unwrap();
        let decoded = encoding.decode_fresh(&|_| true);
        assert!(decoded.isomorphic_to(&inst));
    }

    #[test]
    fn uncovered_elements_are_wrapped() {
        // Unary facts over isolated elements plus an S-loop: neither element
        // has a Gaifman edge, so an empty decomposition is valid — the
        // encoder must wrap both.
        let mut inst = Instance::new(rst());
        inst.add_fact_by_name("R", &[7]);
        inst.add_fact_by_name("T", &[7]);
        inst.add_fact_by_name("S", &[9, 9]);
        let encoding = encode(&inst, &TreeDecomposition::new()).unwrap();
        assert_eq!(encoding.fact_count(), 3);
        let decoded = encoding.decode(&|_| true);
        assert!(same_facts(&decoded, &inst));
        let partial = encoding.decode(&|f| f.0 != 1);
        assert_eq!(partial.fact_count(), 2);
    }

    #[test]
    fn invalid_decomposition_is_rejected() {
        let inst = chain(2);
        let result = encode(&inst, &TreeDecomposition::new());
        assert!(matches!(
            result,
            Err(EncodingError::InvalidDecomposition(_))
        ));
    }

    fn same_trees(a: &TreeEncoding, b: &TreeEncoding) -> bool {
        let (ta, tb) = (a.tree(), b.tree());
        if ta.tree().node_count() != tb.tree().node_count() || ta.events() != tb.events() {
            return false;
        }
        if ta.tree().root() != tb.tree().root() {
            return false;
        }
        (0..ta.tree().node_count()).all(|i| {
            let node = NodeId(i);
            ta.tree().label(node) == tb.tree().label(node)
                && ta.tree().children(node) == tb.tree().children(node)
                && ta.annotation(node) == tb.annotation(node)
        })
    }

    #[test]
    fn plan_replay_matches_fresh_encode_after_updates() {
        // Build the plan on the original instance, mutate the fact set
        // (domain-preserving retract + insert), and check the plan replay is
        // node-for-node identical to a fresh encode of the mutated instance.
        let mut inst = chain(4);
        let td = heuristic_td(&inst);
        let plan = EncodingPlan::new_trusted(&inst, &td).unwrap();
        assert!(same_trees(
            &plan.encode(&inst).unwrap(),
            &encode_trusted(&inst, &td).unwrap()
        ));

        let s = inst.signature().relation_by_name("S").unwrap();
        let retract = inst.fact_id(s, &[Element(1), Element(2)]).unwrap();
        inst.remove_fact(retract);
        assert!(same_trees(
            &plan.encode(&inst).unwrap(),
            &encode_trusted(&inst, &td).unwrap()
        ));

        inst.add_fact(s, vec![Element(1), Element(2)]);
        assert!(same_trees(
            &plan.encode(&inst).unwrap(),
            &encode_trusted(&inst, &td).unwrap()
        ));
    }

    #[test]
    fn plan_coverage_pins_domain_and_bags() {
        let inst = chain(2);
        let td = heuristic_td(&inst);
        let plan = EncodingPlan::new_trusted(&inst, &td).unwrap();

        // In-domain elements are covered; single-element facts always are.
        assert!(plan.contains_element(Element(0)));
        assert!(!plan.contains_element(Element(99)));
        assert!(plan.covers(&BTreeSet::from([Element(2)])));
        // An adjacent pair shares a bag; a non-adjacent pair does not.
        assert!(plan.covers(&BTreeSet::from([Element(0), Element(1)])));
        assert!(!plan.covers(&BTreeSet::from([Element(0), Element(2)])));
        // Out-of-domain elements are never covered.
        assert!(!plan.covers(&BTreeSet::from([Element(0), Element(99)])));

        // Replaying against a domain-drifted instance is a typed error.
        let mut drifted = chain(2);
        drifted.add_fact_by_name("R", &[99]);
        assert!(matches!(
            plan.encode(&drifted),
            Err(EncodingError::InvalidDecomposition(_))
        ));
    }

    #[test]
    fn encoding_is_linear_in_the_instance() {
        let sizes: Vec<usize> = [8usize, 16, 32, 64]
            .iter()
            .map(|&n| {
                let inst = chain(n);
                encode(&inst, &heuristic_td(&inst)).unwrap().node_count()
            })
            .collect();
        for w in sizes.windows(2) {
            assert!(w[1] <= 3 * w[0], "sizes {sizes:?}");
        }
    }
}
