//! Backend comparison: the two lineage backends head to head on the same
//! instances and queries (`BENCH_pr3.json` snapshots the `shared_dd` rows).
//!
//! Every variant computes the query probability end to end so the timed work
//! is comparable: `shared_dd` = shared engine compile (fresh manager) +
//! memoized WMC pass; `automaton_compile_eval` = tree encoding + query→automaton
//! compilation + provenance d-SDNNF + one-pass evaluation (the full
//! automaton-backend pipeline); `automaton_eval_only` = the one-pass
//! evaluation alone on the pre-compiled d-SDNNF — the "linear in circuit
//! size" claim of Theorem 6.11, and the regime that matters when one lineage
//! is evaluated under many valuations; `automaton_count_only` = its integer
//! model-counting pass.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use treelineage::prelude::*;
use treelineage_instance::encodings;

fn chain_instance(sig: &Signature, n: usize) -> Instance {
    let mut inst = Instance::new(sig.clone());
    for i in 0..n as u64 {
        inst.add_fact_by_name("R", &[i]);
        inst.add_fact_by_name("S", &[i, i + 1]);
        inst.add_fact_by_name("T", &[i + 1]);
    }
    inst
}

use treelineage_bench::dyadic_prob as prob;

fn bench_backends(
    c: &mut Criterion,
    group_name: &str,
    cases: Vec<(usize, UnionOfConjunctiveQueries, Instance)>,
) {
    let mut group = c.benchmark_group(group_name);
    group.sample_size(10);
    for (n, q, inst) in &cases {
        let builder = LineageBuilder::new(q, inst).unwrap();
        group.bench_with_input(BenchmarkId::new("shared_dd", n), n, |b, _| {
            b.iter(|| {
                let (manager, root) = builder.dd();
                manager.probability(root, &prob)
            })
        });
        group.bench_with_input(BenchmarkId::new("automaton_compile_eval", n), n, |b, _| {
            b.iter(|| builder.automaton_lineage().unwrap().probability(&prob))
        });
        let lineage = builder.automaton_lineage().unwrap();
        group.bench_with_input(BenchmarkId::new("automaton_eval_only", n), n, |b, _| {
            b.iter(|| lineage.probability(&prob))
        });
        group.bench_with_input(BenchmarkId::new("automaton_count_only", n), n, |b, _| {
            b.iter(|| lineage.model_count())
        });
    }
    group.finish();
}

fn bench_chain(c: &mut Criterion) {
    let sig = Signature::builder()
        .relation("R", 1)
        .relation("S", 2)
        .relation("T", 1)
        .build();
    let q = parse_query(&sig, "R(x), S(x, y), T(y)").unwrap();
    let cases = [50usize, 100, 200]
        .into_iter()
        .map(|n| (n, q.clone(), chain_instance(&sig, n)))
        .collect();
    bench_backends(c, "pr3_backend_comparison_chain", cases);
}

fn bench_treelike(c: &mut Criterion) {
    let sig = Signature::builder()
        .relation("S", 2)
        .relation("R", 2)
        .build();
    let q = parse_query(&sig, "S(x, y), S(y, z), x != z").unwrap();
    let cases = [20usize, 40, 80]
        .into_iter()
        .map(|n| {
            (
                n,
                q.clone(),
                encodings::random_treelike_instance(&sig, n, 2, 7),
            )
        })
        .collect();
    bench_backends(c, "pr3_backend_comparison_treelike", cases);
}

criterion_group!(benches, bench_chain, bench_treelike);
criterion_main!(benches);
