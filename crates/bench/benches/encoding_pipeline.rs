//! Encoding-pipeline bench: match enumeration vs the automaton pipeline,
//! the two compile routes head to head.
//!
//! Both compile routes produce the same lineage function and are driven by
//! the same *known* decomposition of the family (the treewidth-constructible
//! setting of the paper), so the timed difference is purely the compilation
//! strategy:
//!
//! * `match_enum_compile` — the match-enumeration route of the `SharedDd`
//!   backend: enumerate all query matches, build the monotone lineage circuit, compile it into the
//!   shared dd engine. On the star family the match count grows
//!   quadratically with the instance, so this path falls off a cliff — it
//!   is benched only below `enumeration_cliff`.
//! * `automaton_compile` — `LineageBackend::Automaton` (Section 6 made
//!   constructive): tree-encode the instance, compile the query to a
//!   deterministic tree automaton on the encoding alphabet, extract the
//!   provenance d-SDNNF. No match is ever materialized: per-instance work
//!   is linear in the instance, which is what lets it compile lineages at
//!   sizes 10× and beyond past the enumeration cliff in the same
//!   wall-clock budget (star: automaton at n = 4000 is faster than match
//!   enumeration at n = 400).
//!
//! Passes over a compiled lineage (probability, WMC, model count) are
//! timed end to end by perfbench's `serve_exact` workload.

mod common;

use common::{chain_decomposition, star_decomposition, star_instance};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use treelineage::prelude::*;

fn bench_family(
    c: &mut Criterion,
    group_name: &str,
    query: &UnionOfConjunctiveQueries,
    cases: Vec<(usize, Instance, TreeDecomposition)>,
    enumeration_cliff: usize,
) {
    let mut group = c.benchmark_group(group_name);
    group.sample_size(3);
    for (n, inst, td) in &cases {
        // The enumeration route is only run up to its cliff; past it the
        // quadratic match count makes the variant minutes-slow, which is
        // the point.
        if *n <= enumeration_cliff {
            group.bench_with_input(BenchmarkId::new("match_enum_compile", n), n, |b, _| {
                b.iter(|| {
                    let builder = LineageBuilder::new(query, inst)
                        .unwrap()
                        .with_decomposition(td.clone())
                        .unwrap();
                    builder.dd()
                })
            });
        }
        group.bench_with_input(BenchmarkId::new("automaton_compile", n), n, |b, _| {
            b.iter(|| {
                let builder = LineageBuilder::new(query, inst)
                    .unwrap()
                    .with_decomposition(td.clone())
                    .unwrap();
                builder.automaton_lineage().unwrap()
            })
        });
    }
    group.finish();
}

fn bench_star(c: &mut Criterion) {
    let sig = Signature::builder().relation("S", 2).build();
    let q = parse_query(&sig, "S(x, y), S(y, z), x != z").unwrap();
    let cases = [400usize, 4000]
        .into_iter()
        .map(|n| (n, star_instance(&sig, n), star_decomposition(n)))
        .collect();
    bench_family(c, "pr4_encoding_pipeline_star", &q, cases, 400);
}

fn bench_chain(c: &mut Criterion) {
    let (sig, _) = common::chain_instance(0);
    let q = parse_query(&sig, "R(x), S(x, y), T(y)").unwrap();
    let cases = [100usize, 1000]
        .into_iter()
        .map(|n| (n, common::chain_instance(n).1, chain_decomposition(n)))
        .collect();
    bench_family(c, "pr4_encoding_pipeline_chain", &q, cases, 1000);
}

criterion_group!(benches, bench_star, bench_chain);
criterion_main!(benches);
