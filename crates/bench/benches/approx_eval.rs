//! Karp–Luby bench: the Monte-Carlo fallback's price per answer when the
//! compile budget is blown.
//!
//! `karp_luby_m3` runs `karp_luby_probability` at paper-grade
//! `(ε, δ) = (0.01, 0.01)` on a 3-clause DNF (the Karp–Luby–Madras sample
//! bound `⌈4m·ln(2/δ)/ε²⌉` ≈ 636k worlds). The served tiers (exact,
//! certified float, threshold) are timed end to end by perfbench's
//! `serve_exact` and `serve_float` workloads. perfbench leaves Karp–Luby
//! out (≈1.3 s per request on its 4×4 grid would swamp any mix), so it is
//! timed here.

mod common;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use treelineage::karp_luby_probability;
use treelineage::prelude::*;

fn benches(c: &mut Criterion) {
    let (sig, inst) = common::chain_instance(3);
    let q = parse_query(&sig, "R(x), S(x, y), T(y)").unwrap();
    let valuation = ProbabilityValuation::uniform(&inst, Rational::from_ratio_u64(1, 3));

    let mut group = c.benchmark_group("approx_eval");
    group.sample_size(3);
    group.bench_function(BenchmarkId::new("karp_luby_m3", "eps0.01"), |b| {
        b.iter(|| karp_luby_probability(&q, &inst, &valuation, 0.01, 0.01, 42))
    });
    group.finish();
}

criterion_group!(approx_eval, benches);
criterion_main!(approx_eval);
