//! Memory footprints pinned by counts rather than timings.
//!
//! * The flat gate layout of `Circuit`: cloning a compiled lineage circuit
//!   costs a constant number of heap allocations (gate records, the shared
//!   AND/OR input array, the variable-gate memo) and a fixed number of
//!   bytes per gate, whatever its size. A per-gate `Vec` of inputs would
//!   cost one allocation per AND/OR gate and ~50 bytes per gate on the
//!   chain below.
//! * The slot arena of the served passes: a warm
//!   `ParallelDnnf::{probability, wmc, model_count, probability_interval,
//!   wmc_interval}` call allocates a constant number of buffers plus what
//!   the caller's weight closures return per event, with no per-gate term;
//!   closures that lend their weights (`&Rational`) add nothing per event.
//!   A `BigInt` per gate value would cost at least two allocations per
//!   gate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use treelineage::prelude::*;
use treelineage_automata::{compile_structured_dnnf, StructuredDnnf};
use treelineage_engine::ParallelDnnf;

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

/// The allocation calls `f` makes on the calling thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> u64 {
    let before = allocated().0;
    let out = f();
    let calls = allocated().0 - before;
    drop(out);
    calls
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

#[test]
fn chain16_served_passes_allocate_per_event_not_per_gate() {
    let lineage = ParallelDnnf::sequential(chain_lineage(16));
    let events = lineage.structured().universe().len() as u64;
    let gates = lineage.size() as u64;
    assert!(gates > 10 * events, "{gates} gates, {events} events");
    // Mixed denominators, so the answers need a final reduction.
    let table: Vec<Rational> = (0..=*lineage.structured().universe().last().unwrap())
        .map(|v| Rational::from_ratio_u64(1 + v as u64 % 5, 6 + v as u64 % 7))
        .collect();
    let prob = |v: usize| table[v].clone();
    let neg = |v: usize| table[table.len() - 1 - v].clone();
    let prob_borrowed = |v: usize| &table[v];
    let neg_borrowed = |v: usize| &table[table.len() - 1 - v];
    let intervals: Vec<ErrorInterval> = table.iter().map(ErrorInterval::from_rational).collect();
    let prob_interval = |v: usize| intervals[v];
    let neg_interval = |v: usize| intervals[intervals.len() - 1 - v];
    // Each owned `Rational` closure call returns a clone: two allocations
    // (numerator and denominator limbs) per event and closure. The
    // borrowing closures and the interval closures (which return `Copy`
    // values) count as none.
    let per_event = 2;
    let passes: [(&str, u64, u64, &dyn Fn()); 7] = [
        ("probability", 1, EXACT, &|| {
            drop(lineage.probability(&prob, 1))
        }),
        ("wmc", 2, EXACT, &|| drop(lineage.wmc(&prob, &neg, 1))),
        ("probability (borrowed weights)", 0, EXACT, &|| {
            drop(lineage.probability(&prob_borrowed, 1))
        }),
        ("wmc (borrowed weights)", 0, EXACT, &|| {
            drop(lineage.wmc(&prob_borrowed, &neg_borrowed, 1))
        }),
        ("model_count", 0, EXACT, &|| drop(lineage.model_count(1))),
        ("probability_interval", 0, INTERVAL, &|| {
            let _ = lineage.probability_interval(&prob_interval, 1);
        }),
        ("wmc_interval", 0, INTERVAL, &|| {
            let _ = lineage.wmc_interval(&prob_interval, &neg_interval, 1);
        }),
    ];
    for (name, closures, fixed, pass) in passes {
        pass(); // warm
        let calls = allocations_of(pass);
        let bound = closures * per_event * events + fixed;
        assert!(
            calls <= bound,
            "{name}: {calls} allocations for {gates} gates and {events} events (bound {bound})"
        );
    }
}

/// The allocations of an exact pass beyond the weight closures' per-event
/// `Rational`s, the tightest the passes meet on this chain: the weight
/// table (3 buffers), the arena and its slot offsets (2), and the answer's
/// big integers and its reduction (1 for a model count, 9 for a ratio).
const EXACT: u64 = 14;

/// The allocations of an interval pass: the arena and its slot offsets.
const INTERVAL: u64 = 2;
