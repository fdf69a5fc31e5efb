//! The flat gate layout of `Circuit`, pinned by a count rather than a
//! timing: cloning a compiled lineage circuit costs a constant number of
//! heap allocations (gate records, the shared AND/OR input array, the
//! variable-gate memo) and a fixed number of bytes per gate, whatever its
//! size. A per-gate `Vec` of inputs would cost one allocation per AND/OR
//! gate and ~50 bytes per gate on the chain below.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use treelineage::prelude::*;
use treelineage_automata::{compile_structured_dnnf, StructuredDnnf};

/// A pass-through allocator that counts allocation calls and requested
/// bytes per thread.
struct CountingAllocator;

thread_local! {
    // Per thread, so other tests of the harness cannot leak into the count;
    // `const` initialisation keeps the slots themselves from allocating.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        BYTES.with(|bytes| bytes.set(bytes.get() + layout.size() as u64));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// `(allocations, bytes)` requested so far by the calling thread.
fn allocated() -> (u64, u64) {
    (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get))
}

/// The lineage of `R(x), S(x, y), T(y)` on the chain with `n` links.
fn chain_lineage(n: u64) -> StructuredDnnf {
    let sig = Signature::builder()
        .relation("R", 1)
        .relation("S", 2)
        .relation("T", 1)
        .build();
    let mut inst = Instance::new(sig.clone());
    for i in 0..n {
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
    compile_structured_dnnf(&automaton, encoding.tree()).unwrap()
}

#[test]
fn chain16_circuit_clone_is_a_few_flat_arrays() {
    let lineage = chain_lineage(16);
    let circuit = lineage.dnnf().circuit();
    let gates = circuit.size() as u64;
    assert!(gates > 500, "the chain lineage has {gates} gates");

    let before = allocated();
    let copy = circuit.clone();
    let after = allocated();
    assert_eq!(copy.size(), circuit.size());
    let (calls, bytes) = (after.0 - before.0, after.1 - before.1);
    assert!(
        calls <= 4,
        "cloning a {gates}-gate circuit took {calls} allocations"
    );
    assert!(
        bytes <= 40 * gates,
        "cloning a {gates}-gate circuit took {bytes} bytes ({} per gate)",
        bytes / gates
    );
}
