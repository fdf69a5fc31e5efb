//! The per-instance automaton follows the tree, not the query machine's
//! memo: materializing a tree again after the shared machine has seen 50
//! other instances gives the same transitions, the same accepting states
//! and the same d-SDNNF (by digest) as materializing it first, although
//! the memo has grown in between; the run's per-node live states
//! ([`LiveStates`]) do not move either.

use treelineage_automata::{compile_structured_dnnf, StructuredDnnf, TreeAutomaton};
use treelineage_circuit::VtreeId;
use treelineage_encoding::{compile_ucq, encode, CompileOptions, LiveStates, TreeEncoding};
use treelineage_graph::treewidth::treewidth_upper_bound;
use treelineage_instance::{encodings, Instance, Signature};
use treelineage_query::parse_query;

fn sig() -> Signature {
    Signature::builder()
        .relation("S", 2)
        .relation("L", 1)
        .build()
}

/// The `3 × cols` S-grid with `L` on a seeded half of its elements.
fn labelled_grid(cols: usize, seed: u64) -> Instance {
    let sig = sig();
    let s = sig.relation_by_name("S").unwrap();
    let l = sig.relation_by_name("L").unwrap();
    encodings::labelled_grid_instance(&sig, s, l, 3, cols, seed)
}

fn encoded(inst: &Instance) -> TreeEncoding {
    let (graph, _) = inst.gaifman_graph();
    encode(inst, &treewidth_upper_bound(&graph).1).unwrap()
}

/// Every internal transition, every leaf label's states and the accepting
/// states.
type Shape = (
    Vec<(usize, usize, usize, usize)>,
    Vec<Vec<usize>>,
    Vec<usize>,
);

fn shape(a: &TreeAutomaton) -> Shape {
    (
        a.internal_transitions().collect(),
        (0..a.alphabet_size())
            .map(|label| a.leaf_states(label).iter().copied().collect())
            .collect(),
        a.accepting_states().iter().copied().collect(),
    )
}

/// FNV-1a over the debug rendering of every gate, the output and every
/// vtree node.
fn digest(s: &StructuredDnnf) -> u64 {
    let circuit = s.dnnf().circuit();
    let mut stream = String::new();
    for id in circuit.gate_ids() {
        stream.push_str(&format!("{:?};", circuit.gate(id)));
    }
    stream.push_str(&format!("{:?};", circuit.output()));
    let vtree = s.vtree();
    for i in 0..vtree.node_count() {
        stream.push_str(&format!("{:?};", vtree.node(VtreeId(i))));
    }
    stream.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn automaton_and_artifact_do_not_depend_on_the_memo() {
    let query = parse_query(&sig(), "S(x, y), L(y)").unwrap();
    let target = encoded(&labelled_grid(3, 0));
    let mut machine = compile_ucq(&query, target.alphabet(), CompileOptions::default()).unwrap();

    let first = machine.automaton_for(target.tree()).unwrap();
    let first_live = LiveStates::of(&machine.run(target.tree()).unwrap());
    let first_states = machine.state_count();
    let first_artifact = compile_structured_dnnf(&first, target.tree()).unwrap();

    for seed in 1..=50 {
        let other = encoded(&labelled_grid(3 + seed as usize % 2, seed));
        assert_eq!(other.alphabet().width(), target.alphabet().width());
        machine.automaton_for(other.tree()).unwrap();
    }
    assert!(
        machine.state_count() > first_states,
        "the other instances must grow the memo ({first_states} states)"
    );

    let second = machine.automaton_for(target.tree()).unwrap();
    let second_live = LiveStates::of(&machine.run(target.tree()).unwrap());
    assert_eq!(second.state_count(), machine.state_count());
    assert_eq!(shape(&second), shape(&first));
    assert_eq!(second_live, first_live);
    let second_artifact = compile_structured_dnnf(&second, target.tree()).unwrap();
    assert_eq!(second_artifact.size(), first_artifact.size());
    assert_eq!(digest(&second_artifact), digest(&first_artifact));
}
