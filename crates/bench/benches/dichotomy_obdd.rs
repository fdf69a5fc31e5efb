//! Theorem 8.1 / Lemma 8.2: OBDD width of the intricate query q_p blows up on
//! grids but stays constant on chains (experiments D-8.1, D-8.7b, D-8.9).
//!
//! The width measurements compile through the shared `treelineage-dd` engine
//! with one manager per family, created *outside* the timing loop: repeated
//! compilations of the same lineage hit the persistent if-then-else cache,
//! which is exactly the reuse pattern the engine is built for. The
//! `d81_engine_comparison` group times a fresh manager per compile against
//! one reused manager on the same family.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use treelineage::prelude::*;
use treelineage_hardness as hardness;

fn bench_qp_widths(c: &mut Criterion) {
    let mut group = c.benchmark_group("d81_qp_obdd_width_grids");
    group.sample_size(10);
    for n in [2usize, 3, 4] {
        let (q, inst) = hardness::qp_grid_family(n);
        let builder = LineageBuilder::new(&q, &inst).unwrap();
        let mut manager = builder.dd_manager();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let root = builder.compile_dd(&mut manager);
                (manager.width(root), manager.size(root))
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("d81_qp_obdd_width_chains");
    group.sample_size(10);
    for len in [20usize, 40, 80] {
        let (q, inst) = hardness::qp_chain_family(len);
        let builder = LineageBuilder::new(&q, &inst).unwrap();
        let mut manager = builder.dd_manager();
        group.bench_with_input(BenchmarkId::from_parameter(len), &len, |b, _| {
            b.iter(|| {
                let root = builder.compile_dd(&mut manager);
                (manager.width(root), manager.size(root))
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("d89_ucq_obdd_width_bipartite");
    group.sample_size(10);
    for n in [2usize, 4, 6] {
        let (q, inst) = hardness::ucq_bipartite_family(n);
        let builder = LineageBuilder::new(&q, &inst).unwrap();
        let mut manager = builder.dd_manager();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let root = builder.compile_dd(&mut manager);
                (manager.width(root), manager.size(root))
            })
        });
    }
    group.finish();
}

/// Fresh vs reused dd manager on the same grid family, apples to apples:
/// the family and `LineageBuilder` are built once outside the timing loop
/// for both variants, and both compute the same `(width, size)` pair — so
/// the timed work is exactly compile + measure. `dd_fresh_manager` isolates
/// the engine itself (complement edges, balanced n-ary apply);
/// `dd_shared_manager` adds persistent-cache reuse across iterations.
fn bench_engine_comparison(c: &mut Criterion) {
    let mut group = c.benchmark_group("d81_engine_comparison_grid");
    group.sample_size(10);
    for n in [3usize, 4] {
        let (q, inst) = hardness::qp_grid_family(n);
        let builder = LineageBuilder::new(&q, &inst).unwrap();
        group.bench_with_input(BenchmarkId::new("dd_fresh_manager", n), &n, |b, _| {
            b.iter(|| {
                let (manager, root) = builder.dd();
                (manager.width(root), manager.size(root))
            })
        });
        let mut manager = builder.dd_manager();
        group.bench_with_input(BenchmarkId::new("dd_shared_manager", n), &n, |b, _| {
            b.iter(|| {
                let root = builder.compile_dd(&mut manager);
                (manager.width(root), manager.size(root))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_qp_widths, bench_engine_comparison);
criterion_main!(benches);
