//! Quickstart: build an uncertain database, ask for the lineage of a query,
//! and compute its exact probability — the end-to-end pipeline of
//! Theorem 3.2.
//!
//! Run with `cargo run --example quickstart`.

use treelineage::prelude::*;

fn main() {
    // A small movie-style database: Directed(person, film), Won(film).
    let sig = Signature::builder()
        .relation("Directed", 2)
        .relation("Won", 1)
        .build();
    let mut inst = Instance::new(sig.clone());
    let directed = [(1u64, 10u64), (1, 11), (2, 11), (3, 12)];
    for (p, f) in directed {
        inst.add_fact_by_name("Directed", &[p, f]);
    }
    for f in [10u64, 11] {
        inst.add_fact_by_name("Won", &[f]);
    }

    // "Some person directed a film that won": Directed(x, y), Won(y).
    let q = parse_query(&sig, "Directed(x, y), Won(y)").unwrap();

    // Lineage representations (Definition 6.1, Theorems 6.3 / 6.5 / 6.11).
    let builder = LineageBuilder::new(&q, &inst).unwrap();
    let circuit = builder.circuit();
    let (manager, root) = builder.dd();
    let ddnnf = builder.ddnnf();
    println!("lineage circuit size : {}", circuit.size());
    println!(
        "lineage OBDD         : width {}, size {}",
        manager.width(root),
        manager.size(root)
    );
    println!("lineage d-DNNF size  : {}", ddnnf.size());
    println!("satisfying worlds    : {}", manager.count_models(root));

    // Probability evaluation on a tuple-independent database (Theorem 3.2).
    let probabilities: Vec<f64> = (0..inst.fact_count())
        .map(|i| [0.5, 0.75, 0.25][i % 3])
        .collect();
    let valuation = ProbabilityValuation::from_f64(&inst, &probabilities);
    let evaluator = ProbabilityEvaluator::new(&inst, &valuation);
    let p = evaluator.query_probability(&q).unwrap();
    println!("P(query)             : {} ≈ {:.4}", p, p.to_f64());

    // The brute-force possible-worlds semantics agrees (Definition 3.1).
    let brute = evaluator.query_probability_bruteforce(&q);
    assert_eq!(p, brute);
    println!("verified against the possible-worlds oracle ✓");
}
