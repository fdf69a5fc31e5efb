//! Table 2, "inversion-free UCQ" row and Theorem 9.7 (experiment T2-U6):
//! constant-width OBDDs for inversion-free UCQs via unfolding.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use treelineage::prelude::*;
use treelineage_safe as safe;

fn star_join_instance(sig: &Signature, n: u64) -> Instance {
    let mut inst = Instance::new(sig.clone());
    for a in 1..=n {
        inst.add_fact_by_name("R", &[a]);
        for c in 1..=4u64 {
            inst.add_fact_by_name("S", &[a, n + c]);
        }
    }
    inst
}

fn bench_inversion_free(c: &mut Criterion) {
    let sig = Signature::builder()
        .relation("R", 1)
        .relation("S", 2)
        .build();
    let q = parse_query(&sig, "R(x), S(x, y)").unwrap();

    let mut group = c.benchmark_group("t2u6_inversion_free_unfold_and_obdd");
    group.sample_size(10);
    for n in [10u64, 20, 40] {
        let inst = star_join_instance(&sig, n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let unfolding = safe::unfold_for_query(&q, &inst).unwrap();
                let (manager, root) = LineageBuilder::new(&q, &unfolding.instance).unwrap().dd();
                assert!(unfolding.tree_depth <= 2);
                manager.width(root)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_inversion_free);
criterion_main!(benches);
