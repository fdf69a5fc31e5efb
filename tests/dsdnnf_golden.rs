//! Golden pin of the Theorem 6.11 d-SDNNF construction.
//!
//! The sequential compiler and every fragment of the parallel engine run the
//! same builder (`treelineage_automata::StructuredBuilder`), so comparing the
//! two can no longer catch a change to the construction itself. This suite
//! does: for a few fixed inputs it compiles with
//! [`compile_structured_dnnf`] and with [`compile_structured_dnnf_parallel`]
//! at threads {2, 8} and compares the gate count, the vtree node count and
//! an FNV-1a digest of the full gate and vtree stream against constants
//! recorded from the construction before the two copies were merged. A
//! deliberate change to the construction must update the constants here and
//! say so.

use proptest::strategy::{Strategy, TestRng};
use treelineage::prelude::*;
use treelineage_automata::{
    compile_structured_dnnf, parity_automaton, strategies, BinaryTree, NodeId, StructuredDnnf,
    TreeAutomaton, UncertainTree,
};
use treelineage_circuit::{Gate, VtreeId, VtreeNode};
use treelineage_engine::compile_structured_dnnf_parallel;

/// `(gates, vtree nodes, digest)` of one compiled artifact.
type Pin = (usize, usize, u64);

/// 64-bit FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Every gate (kind, operands in order), the output, every vtree node, the
/// vtree root and the universe, folded into one digest.
fn pin(s: &StructuredDnnf) -> Pin {
    let circuit = s.dnnf().circuit();
    let vtree = s.vtree();
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for id in circuit.gate_ids() {
        match circuit.gate(id) {
            Gate::Var(v) => {
                h.word(0);
                h.word(v as u64);
            }
            Gate::Const(b) => {
                h.word(1);
                h.word(u64::from(b));
            }
            Gate::Not(g) => {
                h.word(2);
                h.word(g.0 as u64);
            }
            Gate::And(inputs) | Gate::Or(inputs) => {
                h.word(if matches!(circuit.gate(id), Gate::And(_)) {
                    3
                } else {
                    4
                });
                h.word(inputs.len() as u64);
                for g in inputs {
                    h.word(g.0 as u64);
                }
            }
        }
    }
    h.word(circuit.output().0 as u64);
    for i in 0..vtree.node_count() {
        match vtree.node(VtreeId(i)) {
            VtreeNode::Leaf(v) => {
                h.word(5);
                h.word(v as u64);
            }
            VtreeNode::Internal(l, r) => {
                h.word(6);
                h.word(l.0 as u64);
                h.word(r.0 as u64);
            }
        }
    }
    h.word(vtree.root().map_or(u64::MAX, |r| r.0 as u64));
    for &e in s.universe() {
        h.word(e as u64);
    }
    (circuit.size(), vtree.node_count(), h.0)
}

/// Compiles sequentially and at threads {2, 8} (with `grain` as the
/// fragment grain; 0 is the production default) and checks every artifact
/// against `want`. The parallel runs must actually cut the tree.
fn assert_pinned(automaton: &TreeAutomaton, tree: &UncertainTree, grain: usize, want: Pin) {
    let sequential = compile_structured_dnnf(automaton, tree).unwrap();
    assert_eq!(pin(&sequential), want, "sequential");
    for threads in [2usize, 8] {
        let mut config = EngineConfig::with_threads(threads);
        config.fragment_grain = grain;
        let parallel = compile_structured_dnnf_parallel(automaton, tree, &config).unwrap();
        assert!(
            parallel.partition().fragments().len() >= 2,
            "threads={threads}: the pin needs the fragment/merge path"
        );
        assert_eq!(pin(parallel.structured()), want, "threads={threads}");
    }
}

#[test]
fn chain_query_artifact_is_pinned() {
    let sig = Signature::builder()
        .relation("R", 1)
        .relation("S", 2)
        .relation("T", 1)
        .build();
    let mut inst = Instance::new(sig.clone());
    for i in 0..20u64 {
        inst.add_fact_by_name("R", &[i]);
        inst.add_fact_by_name("S", &[i, i + 1]);
        inst.add_fact_by_name("T", &[i + 1]);
    }
    let query = parse_query(&sig, "R(x), S(x, y), T(y)").unwrap();
    let (graph, _) = inst.gaifman_graph();
    let td = treelineage_graph::treewidth::treewidth_upper_bound(&graph).1;
    let encoding = treelineage_encoding::encode(&inst, &td).unwrap();
    let mut compiled = treelineage_encoding::compile_ucq(
        &query,
        encoding.alphabet(),
        treelineage_encoding::CompileOptions::default(),
    )
    .unwrap();
    let automaton = compiled.automaton_for(encoding.tree()).unwrap();
    assert_pinned(&automaton, encoding.tree(), 0, CHAIN_20);
}

#[test]
fn seeded_random_tree_artifact_is_pinned() {
    let mut rng = TestRng::new(36);
    let tree = strategies::uncertain_tree(64, 3).generate(&mut rng);
    let automaton = strategies::deterministic_automaton(4, 3).generate(&mut rng);
    assert_pinned(&automaton, &tree, 8, RANDOM_TREE);
}

#[test]
fn parity_comb_artifact_is_pinned() {
    let mut u = UncertainTree::certain(BinaryTree::comb(&[0; 300], 2));
    let mut event = 0;
    for node in 0..u.tree().node_count() {
        if u.tree().is_leaf(NodeId(node)) {
            u.set_event(NodeId(node), event, 1, 0);
            event += 1;
        }
    }
    assert_pinned(&parity_automaton(2), &u, 0, PARITY_COMB_300);
}

const CHAIN_20: Pin = (1256, 119, 18095853690010656808);
const RANDOM_TREE: Pin = (309, 121, 16764447017857608948);
const PARITY_COMB_300: Pin = (2396, 599, 7534472011141538038);
